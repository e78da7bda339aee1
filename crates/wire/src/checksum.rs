//! The Internet checksum (RFC 1071): 16-bit one's-complement of the
//! one's-complement sum.
//!
//! The CBT data and control headers, the IPv4 header and the IGMP
//! messages all use this same algorithm ("the 16-bit one's complement of
//! the one's complement ... calculated across all fields", spec §8.1).

/// Computes the Internet checksum over `data`.
///
/// Odd-length input is virtually padded with one zero byte, per RFC 1071.
/// The returned value is ready to be stored in a header whose checksum
/// field was zero while summing.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Verifies data whose checksum field is *included* in `data`.
///
/// A correctly checksummed buffer sums (with its embedded checksum) to
/// `0xffff`; equivalently the folded sum's complement is zero.
pub fn verify_checksum(data: &[u8]) -> bool {
    ones_complement_sum(data) == 0xffff
}

/// The checksum of a buffer whose 16-bit word `old` became `new`, given
/// its previous checksum `hc` (RFC 1624 eqn. 3: `HC' = ~(~HC + ~m + m')`).
///
/// For a buffer that is not all zero the result equals
/// [`internet_checksum`] recomputed over the changed buffer, bit for
/// bit: both fold a congruent, non-zero one's-complement sum into
/// `1..=0xffff`, where every residue has exactly one representative.
pub fn update_checksum(hc: u16, old: u16, new: u16) -> u16 {
    !fold(u32::from(!hc) + u32::from(!old) + u32::from(new))
}

/// Folds the carries of a one's-complement sum back in (end-around).
fn fold(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// One's-complement 16-bit sum with end-around carry folding.
///
/// The sum is byte-order independent (RFC 1071 §2(B)): summed in
/// native order, it comes out byte-swapped on a little-endian machine
/// and is swapped back once at the end. Four bytes are summed a step,
/// as two 16-bit lanes of one `u32` word, into a `u64` whose carries the
/// folds add back in; the odd byte is zero-padded.
fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        sum += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
    }
    let mut pairs = words.remainder().chunks_exact(2);
    for p in &mut pairs {
        sum += u64::from(u16::from_ne_bytes([p[0], p[1]]));
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // 64 → 32 → 16 bits, each fold adding the carries back in.
    let sum = (sum & 0xffff_ffff) + (sum >> 32);
    let sum = (sum & 0xffff_ffff) + (sum >> 32);
    u16::from_be(fold(sum as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_worked_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold -> ddf2
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn zero_buffer_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn verify_accepts_own_output() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x54, 0xde, 0xad, 0x40, 0x00, 0x40, 0x01, 0, 0];
        let ck = internet_checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = ck as u8;
        assert!(verify_checksum(&data));
    }

    #[test]
    fn verify_rejects_single_bit_flip() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x54, 0xde, 0xad, 0x40, 0x00, 0x40, 0x01, 0, 0];
        let ck = internet_checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = ck as u8;
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(!verify_checksum(&corrupted), "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn incremental_update_equals_recomputation() {
        // Every value of one word, in buffers whose remaining words sum
        // to each corner of the one's-complement range (0x0000 needs an
        // all-zero rest, which a real header never is).
        for rest in [0x0001u16, 0x00ff, 0x4500, 0x7fff, 0xfffe, 0xffff] {
            for old in (0..=0xffffu16).step_by(257) {
                for new in [0u16, 1, old.wrapping_sub(0x100), !old, 0xffff] {
                    let buf = |w: u16| [rest.to_be_bytes(), w.to_be_bytes()].concat();
                    let hc = internet_checksum(&buf(old));
                    assert_eq!(
                        update_checksum(hc, old, new),
                        internet_checksum(&buf(new)),
                        "rest {rest:#06x} old {old:#06x} new {new:#06x}"
                    );
                }
            }
        }
    }

    /// The 16-bit big-endian loop the kernel replaced, one word a step.
    fn reference_sum(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for pair in &mut chunks {
            sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        fold(sum)
    }

    /// The word-at-a-time kernel is bit-identical to the reference on
    /// every length up to an Ethernet frame, starting at each of the
    /// four alignments a `u32` word can have, over scattered bytes and
    /// over all-ones bytes (the largest carries).
    #[test]
    fn the_word_kernel_matches_the_reference_loop() {
        let mut x = 0x9e37_79b9u32;
        let scattered: Vec<u8> = (0..1_504)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for buf in [scattered, vec![0xff; 1_504]] {
            for offset in 0..4 {
                for len in 0..=1_500 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        ones_complement_sum(data),
                        reference_sum(data),
                        "offset {offset}, {len} B"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_length_padding() {
        // Trailing odd byte is treated as the high octet of a zero-padded
        // word.
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn empty_input() {
        // An empty buffer sums to zero, so its checksum is !0 = 0xffff —
        // and a buffer containing no checksum field never verifies.
        assert_eq!(internet_checksum(&[]), 0xffff);
        assert!(!verify_checksum(&[]));
    }
}
