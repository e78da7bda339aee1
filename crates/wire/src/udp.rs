//! Minimal UDP shell for CBT control messages (spec §3).
//!
//! "CBT primary and auxiliary control packets travel inside UDP
//! datagrams": primary messages on port 7777, auxiliary (echo) messages
//! on port 7778. The checksum here is computed over the UDP header and
//! payload only: neither the simulator nor the live fabric models the
//! IP pseudo-header.

use crate::checksum::internet_checksum;
use crate::error::WireError;
use crate::Result;

/// UDP port for CBT primary control messages (§3).
pub const CBT_PRIMARY_PORT: u16 = 7777;
/// UDP port for CBT auxiliary control messages (§3).
pub const CBT_AUX_PORT: u16 = 7778;

/// Size of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Header + payload length.
    pub length: u16,
}

impl UdpHeader {
    /// Wraps `payload` in a UDP datagram between the given ports,
    /// written into `buf` in place of its contents. The send paths seal
    /// a payload already in place instead (see [`UdpHeader::seal`]);
    /// this plain composition is the reference they are checked against.
    pub fn wrap_into(src_port: u16, dst_port: u16, payload: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(UDP_HEADER_LEN + payload.len());
        buf.extend_from_slice(&[0; UDP_HEADER_LEN]);
        buf.extend_from_slice(payload);
        Self::seal(src_port, dst_port, buf);
    }

    /// Fills in the header at the front of `datagram` for the payload
    /// already behind it: a sender that encodes its payload in place
    /// leaves [`UDP_HEADER_LEN`] bytes of room, writes, then seals.
    ///
    /// # Panics
    ///
    /// If `datagram` is shorter than the header.
    pub fn seal(src_port: u16, dst_port: u16, datagram: &mut [u8]) {
        let length = datagram.len() as u16;
        datagram[0..2].copy_from_slice(&src_port.to_be_bytes());
        datagram[2..4].copy_from_slice(&dst_port.to_be_bytes());
        datagram[4..6].copy_from_slice(&length.to_be_bytes());
        datagram[6..8].copy_from_slice(&[0, 0]);
        let ck = internet_checksum(datagram);
        datagram[6..8].copy_from_slice(&ck.to_be_bytes());
    }

    /// Splits a datagram into header and payload, validating length and
    /// checksum.
    pub fn unwrap(bytes: &[u8]) -> Result<(UdpHeader, &[u8])> {
        let (hdr, payload) = Self::peek(bytes)?;
        if !crate::checksum::verify_checksum(&bytes[..usize::from(hdr.length)]) {
            return Err(WireError::BadChecksum { what: "udp datagram" });
        }
        Ok((hdr, payload))
    }

    /// [`UdpHeader::unwrap`] without the checksum pass: the length
    /// checks only. For a tap that labels frames its own side just
    /// built; a receiver unwraps.
    pub fn peek(bytes: &[u8]) -> Result<(UdpHeader, &[u8])> {
        const WHAT: &str = "udp datagram";
        if bytes.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                what: WHAT,
                needed: UDP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let length = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if length < UDP_HEADER_LEN {
            return Err(WireError::BadLength { what: WHAT, got: length });
        }
        if bytes.len() < length {
            return Err(WireError::Truncated { what: WHAT, needed: length, got: bytes.len() });
        }
        let hdr = UdpHeader {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            length: length as u16,
        };
        Ok((hdr, &bytes[UDP_HEADER_LEN..length]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        crate::written(|b| UdpHeader::wrap_into(src_port, dst_port, payload, b))
    }

    #[test]
    fn round_trip() {
        let dg = wrap(CBT_PRIMARY_PORT, CBT_PRIMARY_PORT, b"join!");
        let (hdr, payload) = UdpHeader::unwrap(&dg).unwrap();
        assert_eq!(hdr.src_port, CBT_PRIMARY_PORT);
        assert_eq!(hdr.dst_port, CBT_PRIMARY_PORT);
        assert_eq!(payload, b"join!");
    }

    #[test]
    fn aux_port_round_trip() {
        let dg = wrap(CBT_AUX_PORT, CBT_AUX_PORT, b"echo");
        let (hdr, _) = UdpHeader::unwrap(&dg).unwrap();
        assert_eq!(hdr.dst_port, CBT_AUX_PORT);
    }

    #[test]
    fn empty_payload() {
        let dg = wrap(1, 2, b"");
        let (hdr, payload) = UdpHeader::unwrap(&dg).unwrap();
        assert_eq!(hdr.length as usize, UDP_HEADER_LEN);
        assert!(payload.is_empty());
    }

    #[test]
    fn corruption_rejected() {
        let dg = wrap(CBT_PRIMARY_PORT, CBT_PRIMARY_PORT, b"payload bytes");
        for i in 0..dg.len() {
            let mut c = dg.clone();
            c[i] ^= 0x02;
            assert!(UdpHeader::unwrap(&c).is_err(), "byte {i}");
        }
    }

    #[test]
    fn trailing_padding_ignored() {
        let mut dg = wrap(5, 6, b"xy");
        dg.push(0xee);
        let (_, payload) = UdpHeader::unwrap(&dg).unwrap();
        assert_eq!(payload, b"xy");
    }

    #[test]
    fn wrap_into_replaces_a_dirty_longer_buffer() {
        let mut buf = vec![0xee; 100];
        UdpHeader::wrap_into(5, 6, b"xy", &mut buf);
        assert_eq!(buf, wrap(5, 6, b"xy"));
    }

    #[test]
    fn ports_match_section_3() {
        assert_eq!(CBT_PRIMARY_PORT, 7777);
        assert_eq!(CBT_AUX_PORT, 7778);
    }
}
