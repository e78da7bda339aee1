//! Classic libpcap capture files from simulator traffic.
//!
//! The simulator moves genuine IPv4 datagrams, so a capture written
//! here opens in Wireshark/tcpdump (`LINKTYPE_RAW` = raw IP): the CBT
//! joins, acks and encapsulated data packets appear with their real
//! byte layouts — the same debugging affordance smoltcp's examples
//! provide with their `--pcap` flag.
//!
//! Format reference: the (pre-pcapng) libpcap file format — a 24-byte
//! global header followed by per-packet records with
//! seconds/microseconds timestamps.

use crate::time::SimTime;
use bytes::Bytes;
use std::io::{self, Write};

/// Magic for microsecond-resolution pcap, little-endian.
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin directly with an IPv4/IPv6 header.
const LINKTYPE_RAW: u32 = 101;
/// Snap length: we never truncate.
const SNAPLEN: u32 = 65535;

/// An in-memory pcap capture: append frames, then write the file.
///
/// ```
/// use cbt_netsim::{Capture, SimTime};
///
/// let mut cap = Capture::new();
/// cap.record(SimTime::from_secs(1), vec![0x45, 0x00, 0x00, 0x14]);
/// let mut file = Vec::new();
/// cap.write_to(&mut file).unwrap();
/// let records = Capture::parse(&file).unwrap();
/// assert_eq!(records[0].0, 1_000_000); // microseconds
/// ```
#[derive(Debug, Default, Clone)]
pub struct Capture {
    frames: Vec<(SimTime, Bytes)>,
}

impl Capture {
    /// Empty capture.
    pub fn new() -> Self {
        Capture::default()
    }

    /// Appends one frame observed at `at`. Takes anything convertible
    /// to [`Bytes`]; the simulator hands in a refcounted clone of the
    /// in-flight frame, so capturing costs a pointer bump, not a copy.
    pub fn record(&mut self, at: SimTime, frame: impl Into<Bytes>) {
        self.frames.push((at, frame.into()));
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Serialises the whole capture as a pcap file.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        // Global header.
        w.write_all(&PCAP_MAGIC.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // version major
        w.write_all(&4u16.to_le_bytes())?; // version minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&SNAPLEN.to_le_bytes())?;
        w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        // Records.
        for (at, frame) in &self.frames {
            let us = at.micros();
            w.write_all(&((us / 1_000_000) as u32).to_le_bytes())?;
            w.write_all(&((us % 1_000_000) as u32).to_le_bytes())?;
            let len = frame.len() as u32;
            w.write_all(&len.to_le_bytes())?; // incl_len (no truncation)
            w.write_all(&len.to_le_bytes())?; // orig_len
            w.write_all(frame)?;
        }
        Ok(())
    }

    /// Writes the capture to a file path.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.write_to(io::BufWriter::new(f))
    }

    /// Parses a pcap file produced by [`Capture::write_to`] back into
    /// `(micros, frame)` pairs — used by tests and round-trip tooling.
    pub fn parse(bytes: &[u8]) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if bytes.len() < 24 {
            return Err(err("truncated global header"));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != PCAP_MAGIC {
            return Err(err("bad magic"));
        }
        let network = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        if network != LINKTYPE_RAW {
            return Err(err("unexpected linktype"));
        }
        let mut out = Vec::new();
        let mut off = 24;
        while off < bytes.len() {
            if off + 16 > bytes.len() {
                return Err(err("truncated record header"));
            }
            let secs = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as u64;
            let usecs = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as u64;
            let incl = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
            off += 16;
            if off + incl > bytes.len() {
                return Err(err("truncated record body"));
            }
            out.push((secs * 1_000_000 + usecs, bytes[off..off + incl].to_vec()));
            off += incl;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_wire::{Addr, DataPacket, GroupId};

    #[test]
    fn empty_capture_is_just_the_header() {
        let mut buf = Vec::new();
        Capture::new().write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..4], &PCAP_MAGIC.to_le_bytes());
        assert!(Capture::parse(&buf).unwrap().is_empty());
    }

    #[test]
    fn round_trip_preserves_frames_and_timestamps() {
        let mut cap = Capture::new();
        let mut f1 = Vec::new();
        DataPacket::new(Addr::from_octets(10, 1, 0, 100), GroupId::numbered(1), 9, b"a".to_vec())
            .encode_into(&mut f1);
        let f2 = vec![0x45u8; 40];
        cap.record(SimTime::from_micros(1_500_000), f1.clone());
        cap.record(SimTime::from_micros(2_000_001), f2.clone());
        assert_eq!(cap.len(), 2);
        let mut buf = Vec::new();
        cap.write_to(&mut buf).unwrap();
        let parsed = Capture::parse(&buf).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], (1_500_000, f1));
        assert_eq!(parsed[1], (2_000_001, f2));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Capture::parse(&[0u8; 10]).is_err(), "short header");
        assert!(Capture::parse(&[0xffu8; 24]).is_err(), "bad magic");
        let mut buf = Vec::new();
        let mut cap = Capture::new();
        cap.record(SimTime::ZERO, vec![1, 2, 3]);
        cap.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(Capture::parse(&buf).is_err(), "truncated body");
    }

    #[test]
    fn frames_parse_as_ip_after_round_trip() {
        // The point of LINKTYPE_RAW: the record body is an IP datagram.
        let mut cap = Capture::new();
        let pkt = DataPacket::new(
            Addr::from_octets(10, 1, 0, 100),
            GroupId::numbered(5),
            16,
            b"hello".to_vec(),
        );
        let mut frame = Vec::new();
        pkt.encode_into(&mut frame);
        cap.record(SimTime::from_secs(3), frame);
        let mut buf = Vec::new();
        cap.write_to(&mut buf).unwrap();
        let parsed = Capture::parse(&buf).unwrap();
        let back = DataPacket::decode_bytes(&Bytes::from(parsed[0].1.clone())).unwrap();
        assert_eq!(back, pkt);
    }
}
