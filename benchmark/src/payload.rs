//! The header both flood workloads put at the front of every
//! application payload, so that each delivery can be checked and
//! timed: the intended send instant (µs, 8 bytes), a dense sender id
//! and a per-sender sequence number (4 bytes each), little-endian;
//! zero padding up to the workload's payload size.

/// Bytes the header takes; every payload is at least this long.
pub const HEADER: usize = 16;

/// A payload of `len` bytes carrying the header.
pub fn stamped(len: usize, stamp_us: u64, sender: u32, seq: u32) -> Vec<u8> {
    let mut p = vec![0u8; len.max(HEADER)];
    p[..8].copy_from_slice(&stamp_us.to_le_bytes());
    p[8..12].copy_from_slice(&sender.to_le_bytes());
    p[12..16].copy_from_slice(&seq.to_le_bytes());
    p
}

/// `(stamp µs, sender, seq)` of a delivered payload of exactly `len`
/// bytes; `None` if it is not one of ours.
pub fn read(p: &[u8], len: usize) -> Option<(u64, u32, u32)> {
    if p.len() != len.max(HEADER) {
        return None;
    }
    Some((
        u64::from_le_bytes(p[..8].try_into().ok()?),
        u32::from_le_bytes(p[8..12].try_into().ok()?),
        u32::from_le_bytes(p[12..16].try_into().ok()?),
    ))
}
