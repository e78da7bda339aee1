//! A realistic (if option-free) IPv4 header codec.
//!
//! The simulator and the live runtime move whole IP datagrams around so
//! that encapsulation behaviour (spec §5: outer IP header, TTL
//! handling, tunnels) is exercised byte-for-byte rather than modelled.

use crate::addr::Addr;
use crate::checksum::{internet_checksum, update_checksum, verify_checksum};
use crate::error::WireError;
use crate::Result;

/// Size of the option-free IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// Maximum TTL; the spec uses MAX_TTL for tunnels of unknown length (§5).
pub const MAX_TTL: u8 = 255;

/// IP protocol numbers this stack knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IpProto {
    /// IGMP (protocol 2).
    Igmp = 2,
    /// CBT (protocol 7 — the actual IANA assignment). Used for CBT-mode
    /// encapsulated data; hosts do not recognise it and discard such
    /// multicasts, exactly the behaviour §5 relies on.
    Cbt = 7,
    /// UDP (protocol 17) carrying CBT control messages (§3).
    Udp = 17,
    /// IP-in-IP (protocol 4), used when native-mode branches cross
    /// non-CBT-capable routers (§4).
    IpIp = 4,
}

impl IpProto {
    /// Decodes a protocol number.
    pub fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            2 => IpProto::Igmp,
            7 => IpProto::Cbt,
            17 => IpProto::Udp,
            4 => IpProto::IpIp,
            got => return Err(WireError::UnknownType { what: "ip protocol", got }),
        })
    }
}

/// An option-free IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Addr,
    /// Destination address (unicast or class-D multicast).
    pub dst: Addr,
    /// Total datagram length (header + payload).
    pub total_len: u16,
    /// Identification field (used only for human-readable traces here;
    /// fragmentation is not modelled).
    pub ident: u16,
}

impl Ipv4Header {
    /// Builds a header for a payload of `payload_len` bytes.
    pub fn new(src: Addr, dst: Addr, proto: IpProto, ttl: u8, payload_len: usize) -> Self {
        Ipv4Header {
            ttl,
            proto,
            src,
            dst,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            ident: 0,
        }
    }

    /// Serializes the header with a fresh header checksum.
    pub fn encode(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = (4 << 4) | 5; // version 4, IHL 5 words
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto as u8;
        // b[10..12] checksum, below.
        b[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let ck = internet_checksum(&b);
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Parses and validates a header from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::parse(bytes, true)
    }

    fn parse(bytes: &[u8], verify: bool) -> Result<Self> {
        const WHAT: &str = "ipv4 header";
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                what: WHAT,
                needed: IPV4_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let b = &bytes[..IPV4_HEADER_LEN];
        if b[0] >> 4 != 4 {
            return Err(WireError::BadVersion { what: WHAT, got: b[0] >> 4 });
        }
        if b[0] & 0x0f != 5 {
            return Err(WireError::BadLength { what: WHAT, got: (b[0] & 0x0f) as usize });
        }
        if verify && !verify_checksum(b) {
            return Err(WireError::BadChecksum { what: WHAT });
        }
        let total_len = u16::from_be_bytes([b[2], b[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN {
            return Err(WireError::BadLength { what: WHAT, got: total_len as usize });
        }
        Ok(Ipv4Header {
            ttl: b[8],
            proto: IpProto::from_wire(b[9])?,
            src: Addr(u32::from_be_bytes([b[12], b[13], b[14], b[15]])),
            dst: Addr(u32::from_be_bytes([b[16], b[17], b[18], b[19]])),
            total_len,
            ident: u16::from_be_bytes([b[4], b[5]]),
        })
    }

    /// Length of the payload according to `total_len`.
    pub fn payload_len(&self) -> usize {
        self.total_len as usize - IPV4_HEADER_LEN
    }
}

/// Builds a complete datagram: header + payload.
pub fn build_datagram(src: Addr, dst: Addr, proto: IpProto, ttl: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    build_datagram_into(src, dst, proto, ttl, payload, &mut out);
    out
}

/// [`build_datagram`] into a reusable buffer, replacing its contents.
pub fn build_datagram_into(
    src: Addr,
    dst: Addr,
    proto: IpProto,
    ttl: u8,
    payload: &[u8],
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.reserve(IPV4_HEADER_LEN + payload.len());
    buf.extend_from_slice(&Ipv4Header::new(src, dst, proto, ttl, payload.len()).encode());
    buf.extend_from_slice(payload);
}

/// Copies `datagram` into `buf` (replacing its contents) for the next
/// hop, with its TTL set to `ttl`: the one byte changes and the header
/// checksum is updated incrementally (RFC 1624), so identification,
/// flags and payload travel untouched and nothing is summed again. The
/// result is what [`Ipv4Header::encode`] would write for the same
/// header with the new TTL.
///
/// # Panics
///
/// If `datagram` is shorter than an IPv4 header; callers pass what
/// [`split_datagram`] accepted.
pub fn write_datagram_with_ttl(datagram: &[u8], ttl: u8, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(datagram);
    let old = u16::from_be_bytes([buf[8], buf[9]]);
    let new = u16::from_be_bytes([ttl, buf[9]]);
    let ck = update_checksum(u16::from_be_bytes([buf[10], buf[11]]), old, new);
    buf[8] = ttl;
    buf[10..12].copy_from_slice(&ck.to_be_bytes());
}

/// Splits a datagram into its validated header and payload slice.
pub fn split_datagram(bytes: &[u8]) -> Result<(Ipv4Header, &[u8])> {
    split(bytes, true)
}

/// [`split_datagram`] without the header-checksum pass: every field and
/// length is still checked. For a tap that labels frames its own side
/// just built; a receiver splits.
pub fn peek_datagram(bytes: &[u8]) -> Result<(Ipv4Header, &[u8])> {
    split(bytes, false)
}

fn split(bytes: &[u8], verify: bool) -> Result<(Ipv4Header, &[u8])> {
    let hdr = Ipv4Header::parse(bytes, verify)?;
    let end = hdr.total_len as usize;
    if bytes.len() < end {
        return Err(WireError::Truncated { what: "ipv4 datagram", needed: end, got: bytes.len() });
    }
    Ok((hdr, &bytes[IPV4_HEADER_LEN..end]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = Ipv4Header::new(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(224, 1, 2, 3),
            IpProto::Udp,
            64,
            100,
        );
        let back = Ipv4Header::decode(&h.encode()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.payload_len(), 100);
    }

    #[test]
    fn datagram_round_trip() {
        let payload = b"multicast hello";
        let dg = build_datagram(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(239, 1, 0, 0),
            IpProto::Cbt,
            MAX_TTL,
            payload,
        );
        let (hdr, body) = split_datagram(&dg).unwrap();
        assert_eq!(body, payload);
        assert_eq!(hdr.proto, IpProto::Cbt);
        assert_eq!(hdr.ttl, MAX_TTL);
    }

    #[test]
    fn datagram_honours_total_len_with_trailing_padding() {
        let mut dg = build_datagram(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 0, 0, 2),
            IpProto::Udp,
            1,
            b"abc",
        );
        dg.extend_from_slice(&[0u8; 9]); // link-layer padding
        let (_, body) = split_datagram(&dg).unwrap();
        assert_eq!(body, b"abc");
    }

    #[test]
    fn corruption_rejected() {
        let dg = build_datagram(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 0, 0, 2),
            IpProto::Udp,
            1,
            b"abc",
        );
        for i in 0..IPV4_HEADER_LEN {
            let mut c = dg.clone();
            c[i] ^= 0x10;
            assert!(Ipv4Header::decode(&c).is_err(), "byte {i}");
        }
    }

    #[test]
    fn ttl_patch_keeps_everything_else_and_still_verifies() {
        let mut hdr = Ipv4Header::new(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 9, 0, 2),
            IpProto::Udp,
            64,
            3,
        );
        hdr.ident = 0xbeef;
        let mut dg = hdr.encode().to_vec();
        dg.extend_from_slice(b"abc");
        let mut next = vec![0xee; 64]; // dirty and longer: replaced, not appended to
        write_datagram_with_ttl(&dg, 63, &mut next);
        let (back, body) = split_datagram(&next).unwrap();
        assert_eq!(next.len(), dg.len());
        assert_eq!(back, Ipv4Header { ttl: 63, ..hdr }, "only the TTL moved; ident survives");
        assert_eq!(body, b"abc");
        write_datagram_with_ttl(&dg, 64, &mut next);
        assert_eq!(next, dg, "same TTL is a plain copy");
    }

    #[test]
    fn protocol_numbers_are_iana() {
        assert_eq!(IpProto::Igmp as u8, 2);
        assert_eq!(IpProto::IpIp as u8, 4);
        assert_eq!(IpProto::Cbt as u8, 7);
        assert_eq!(IpProto::Udp as u8, 17);
    }

    #[test]
    fn truncated_datagram_rejected() {
        let dg = build_datagram(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 0, 0, 2),
            IpProto::Udp,
            1,
            b"abcdef",
        );
        assert!(split_datagram(&dg[..dg.len() - 1]).is_err());
    }
}
