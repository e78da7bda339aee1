//! Data packets in both forwarding modes.
//!
//! * **Native mode** (§4): ordinary IP multicast datagrams; no extra
//!   headers. Used inside pure-CBT clouds.
//! * **CBT mode** (§5, Fig. 6): `encaps IP hdr | CBT hdr | original IP
//!   hdr | data`, used across tunnels and mixed clouds. The inner IP
//!   header is untouched until final native delivery, when its TTL is
//!   set to one (§5).
//!
//! Payloads are refcounted [`Bytes`]: cloning a packet for per-branch
//! fan-out shares the application bytes instead of copying them, and
//! [`DataPacket::decode_bytes`] parses straight out of a received frame
//! without copying the payload at all. A decoded packet also remembers
//! the datagram it came from, so [`DataPacket::write_frame`] can
//! re-send "the original datagram unchanged" (§4) bar the TTL: one
//! copy, one patched byte, an incremental header-checksum update.

use crate::addr::{Addr, GroupId};
use crate::error::WireError;
use crate::header::{CbtDataHeader, CBT_DATA_HEADER_LEN};
use crate::ipv4::{
    split_datagram, write_datagram_with_ttl, IpProto, Ipv4Header, IPV4_HEADER_LEN, MAX_TTL,
};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::Result;
use bytes::Bytes;

/// UDP port multicast application payloads ride on in examples, tests
/// and the simulator (any non-CBT port would do).
pub const APP_PORT: u16 = 9999;

/// Offset of the application payload in a native datagram.
pub const PAYLOAD_OFFSET: usize = IPV4_HEADER_LEN + UDP_HEADER_LEN;

/// Offset of the TTL byte in an IPv4 header.
const TTL_OFFSET: usize = 8;

/// Serializes a native multicast datagram — IP header, a UDP shell on
/// [`APP_PORT`] and `payload` — into `buf`, replacing its contents:
/// header, shell and payload in one pass, no intermediate buffers.
/// This is what [`DataPacket::encode_into`] writes; a sender that holds
/// its payload as plain bytes calls it directly and skips the packet
/// (and the refcounted payload handle a packet would wrap them in).
pub fn encode_native_into(src: Addr, group: GroupId, ttl: u8, payload: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    let udp_len = UDP_HEADER_LEN + payload.len();
    let hdr = Ipv4Header::new(src, group.addr(), IpProto::Udp, ttl, udp_len);
    buf.reserve(IPV4_HEADER_LEN + udp_len);
    buf.extend_from_slice(&hdr.encode());
    buf.extend_from_slice(&[0; UDP_HEADER_LEN]);
    buf.extend_from_slice(payload);
    UdpHeader::seal(APP_PORT, APP_PORT, &mut buf[IPV4_HEADER_LEN..]);
}

/// A native-mode multicast data packet: the original IP datagram.
///
/// Equality is over the four public fields; where the packet was
/// decoded from is not part of its value.
#[derive(Debug, Clone)]
pub struct DataPacket {
    /// Originating end-system.
    pub src: Addr,
    /// Destination group.
    pub group: GroupId,
    /// Remaining time-to-live.
    pub ttl: u8,
    /// Application payload (refcounted; clones share the allocation).
    pub payload: Bytes,
    /// The validated datagram this packet was decoded from (`None` for
    /// a locally built one); `payload` is a view into it.
    datagram: Option<Bytes>,
}

impl PartialEq for DataPacket {
    fn eq(&self, other: &Self) -> bool {
        (self.src, self.group, self.ttl) == (other.src, other.group, other.ttl)
            && self.payload == other.payload
    }
}
impl Eq for DataPacket {}

impl DataPacket {
    /// Builds a fresh multicast datagram as an end-system would.
    pub fn new(src: Addr, group: GroupId, ttl: u8, payload: impl Into<Bytes>) -> Self {
        DataPacket { src, group, ttl, payload: payload.into(), datagram: None }
    }

    /// Serializes to a complete IP datagram in `buf`, replacing its
    /// contents — IP header, UDP shell and payload in one pass, with no
    /// intermediate buffers. The application payload rides in a real
    /// UDP shell on [`APP_PORT`]: CBT does not care what applications
    /// send, but carrying honest headers end-to-end lets the trace
    /// classify every frame unambiguously.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_native_into(self.src, self.group, self.ttl, &self.payload, buf);
    }

    /// Writes the datagram to put on the wire for this packet into
    /// `buf`, replacing its contents. One decoded from a frame and
    /// changed in nothing but its TTL since re-sends that datagram (see
    /// [`write_datagram_with_ttl`]); anything else goes through
    /// [`DataPacket::encode_into`]. For datagrams `encode_into` produced
    /// the two agree byte for byte. A transit hop is thus one copy into
    /// a buffer it already owns.
    pub fn write_frame(&self, buf: &mut Vec<u8>) {
        match self.pristine_datagram() {
            Some(datagram) => write_datagram_with_ttl(datagram, self.ttl, buf),
            None => self.encode_into(buf),
        }
    }

    /// [`DataPacket::write_frame`] as a refcounted handle: when not
    /// even the TTL moved since decode, the remembered datagram itself —
    /// no copy, no allocation.
    fn to_frame_bytes(&self) -> Bytes {
        match self.pristine_datagram() {
            Some(datagram) if datagram[TTL_OFFSET] == self.ttl => datagram.clone(),
            _ => {
                let mut frame = Vec::new();
                self.write_frame(&mut frame);
                Bytes::from(frame)
            }
        }
    }

    /// The source datagram, if the public fields (TTL aside) still say
    /// what it says. `Bytes` are immutable, so a payload that is the
    /// same memory as the datagram's own has the same content.
    fn pristine_datagram(&self) -> Option<&Bytes> {
        let d = self.datagram.as_ref()?;
        let udp_len = usize::from(u16::from_be_bytes([d[24], d[25]]));
        let unchanged = d[12..16] == self.src.0.to_be_bytes()
            && d[16..20] == self.group.addr().0.to_be_bytes()
            && self.payload.len() + UDP_HEADER_LEN == udp_len
            && std::ptr::eq(self.payload.as_ptr(), d[PAYLOAD_OFFSET..].as_ptr());
        unchanged.then_some(d)
    }

    /// True when `other` is certain to serialize to the same frame,
    /// judged by identity instead of content: equal header fields and
    /// a payload (and source datagram) that is the very same memory.
    /// Fan-out clones of one packet always are; equal bytes held in
    /// two allocations are not, and merely cost a second encode.
    pub fn shares_frame_with(&self, other: &DataPacket) -> bool {
        let ptr = |b: &Bytes| (b.as_ptr(), b.len());
        (self.src, self.group, self.ttl) == (other.src, other.group, other.ttl)
            && ptr(&self.payload) == ptr(&other.payload)
            && self.datagram.as_ref().map(ptr) == other.datagram.as_ref().map(ptr)
    }

    /// Builds the packet from views a caller has already validated on
    /// `frame`: `hdr` from [`split_datagram`] and `udp` from
    /// [`UdpHeader::unwrap`] on its body. Nothing is parsed or summed
    /// again and nothing is copied — the payload and the remembered
    /// datagram are refcounted views into `frame`.
    pub fn from_validated(frame: &Bytes, hdr: &Ipv4Header, udp: &UdpHeader) -> Result<Self> {
        let group = GroupId::new(hdr.dst).ok_or(WireError::BadField {
            what: "native data packet",
            why: "destination is not a multicast group",
        })?;
        Ok(DataPacket {
            src: hdr.src,
            group,
            ttl: hdr.ttl,
            payload: frame.slice(PAYLOAD_OFFSET..IPV4_HEADER_LEN + usize::from(udp.length)),
            datagram: Some(frame.slice(..usize::from(hdr.total_len))),
        })
    }

    /// Parses a native multicast datagram out of a refcounted frame:
    /// the payload is a zero-copy view into `frame`'s allocation.
    pub fn decode_bytes(frame: &Bytes) -> Result<Self> {
        let (hdr, body) = split_datagram(frame)?;
        let (udp, _) = UdpHeader::unwrap(body)?;
        Self::from_validated(frame, &hdr, &udp)
    }
}

/// A CBT-mode packet: the CBT header plus the original datagram, ready
/// to be wrapped in an outer IP header per hop/tunnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbtDataPacket {
    /// The CBT header (Fig. 7) — carries group, origin, core and the
    /// on-tree flag.
    pub cbt: CbtDataHeader,
    /// The untouched original datagram (inner IP header + data),
    /// refcounted so per-branch clones share one allocation.
    pub inner: Bytes,
}

impl CbtDataPacket {
    /// Encapsulates a native packet as the DR adjacent to the origin
    /// does (§5): the CBT header TTL is gleaned from the original IP
    /// header; the packet starts off-tree. The inner datagram follows
    /// [`DataPacket::write_frame`]'s identity rule — a packet decoded from
    /// a frame and unchanged since shares that frame's allocation, one
    /// whose TTL alone moved is the frame copied and patched, and only
    /// a locally built or edited packet is encoded.
    pub fn encapsulate(native: &DataPacket, core: Addr) -> Self {
        let cbt = CbtDataHeader::new(native.group, core, native.src, native.ttl);
        CbtDataPacket { cbt, inner: native.to_frame_bytes() }
    }

    /// Recovers the original native packet for final delivery, setting
    /// the inner TTL to one as §5 requires ("the TTL value of the
    /// original IP header is set to one before forwarding" onto member
    /// subnets). Zero-copy: the returned payload views `self.inner`.
    pub fn decapsulate_for_delivery(&self) -> Result<DataPacket> {
        let mut native = DataPacket::decode_bytes(&self.inner)?;
        native.ttl = 1;
        Ok(native)
    }

    /// Parses the payload of an outer CBT-mode datagram (CBT header +
    /// inner datagram) out of a refcounted buffer: the inner datagram
    /// is a zero-copy view into `payload`'s allocation. The inner
    /// datagram is checked eagerly so corruption is caught at the first
    /// CBT router, not at delivery.
    pub fn decode_payload_bytes(payload: &Bytes) -> Result<Self> {
        let cbt = CbtDataHeader::decode(payload)?;
        let (inner_hdr, _) = split_datagram(&payload[CBT_DATA_HEADER_LEN..])?;
        if GroupId::new(inner_hdr.dst) != Some(cbt.group) {
            return Err(WireError::BadField {
                what: "cbt data packet",
                why: "inner destination group disagrees with CBT header",
            });
        }
        Ok(CbtDataPacket { cbt, inner: payload.slice(CBT_DATA_HEADER_LEN..) })
    }

    /// Writes the packet into `buf`, replacing its contents, behind the
    /// outer IP header for one unicast hop or tunnel (CBT unicasting,
    /// §5): outer IP header, CBT header and inner datagram in one pass.
    /// `tunnel_ttl` is the configured tunnel length, or `MAX_TTL` when
    /// unknown.
    pub fn wrap_unicast_into(
        &self,
        src: Addr,
        dst: Addr,
        tunnel_ttl: Option<u8>,
        buf: &mut Vec<u8>,
    ) {
        self.wrap_into(src, dst, tunnel_ttl.unwrap_or(MAX_TTL), buf);
    }

    /// Writes the packet into `buf`, replacing its contents, behind an
    /// outer IP header addressed to the *group* (CBT multicasting, §5):
    /// used when a parent or several children share one multi-access
    /// interface. Hosts discard these because the outer protocol is
    /// CBT, not UDP.
    pub fn wrap_multicast_into(&self, src: Addr, buf: &mut Vec<u8>) {
        self.wrap_into(src, self.cbt.group.addr(), 1, buf);
    }

    fn wrap_into(&self, src: Addr, dst: Addr, ttl: u8, buf: &mut Vec<u8>) {
        buf.clear();
        let payload_len = CBT_DATA_HEADER_LEN + self.inner.len();
        let hdr = Ipv4Header::new(src, dst, IpProto::Cbt, ttl, payload_len);
        buf.reserve(IPV4_HEADER_LEN + payload_len);
        buf.extend_from_slice(&hdr.encode());
        buf.extend_from_slice(&self.cbt.encode());
        buf.extend_from_slice(&self.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{OFF_TREE, ON_TREE};
    use crate::ipv4::build_datagram_into;
    use crate::written;

    fn native() -> DataPacket {
        DataPacket::new(
            Addr::from_octets(192, 168, 10, 7),
            GroupId::numbered(3),
            64,
            b"hi".to_vec(),
        )
    }

    fn encoded(p: &DataPacket) -> Vec<u8> {
        written(|b| p.encode_into(b))
    }

    fn decode(bytes: &[u8]) -> Result<DataPacket> {
        DataPacket::decode_bytes(&Bytes::copy_from_slice(bytes))
    }

    fn unicast(enc: &CbtDataPacket, src: Addr, dst: Addr, ttl: Option<u8>) -> Vec<u8> {
        written(|b| enc.wrap_unicast_into(src, dst, ttl, b))
    }

    /// The CBT-mode read path a router runs: split the outer datagram,
    /// take it as CBT data only when its protocol says so, then parse
    /// the payload.
    fn unwrap_cbt(wire: &[u8]) -> Result<(Ipv4Header, CbtDataPacket)> {
        let (outer, payload) = split_datagram(wire)?;
        if outer.proto != IpProto::Cbt {
            return Err(WireError::BadField { what: "outer header", why: "not CBT" });
        }
        Ok((outer, CbtDataPacket::decode_payload_bytes(&Bytes::copy_from_slice(payload))?))
    }

    /// CBT header followed by the inner datagram: what the outer IP
    /// header of a wrapped packet carries.
    fn payload(enc: &CbtDataPacket) -> Bytes {
        let wire = unicast(enc, Addr::NULL, Addr::NULL, None);
        Bytes::copy_from_slice(&wire[IPV4_HEADER_LEN..])
    }

    #[test]
    fn native_round_trip() {
        let p = native();
        assert_eq!(decode(&encoded(&p)).unwrap(), p);
    }

    #[test]
    fn encode_into_replaces_a_dirty_reused_buffer() {
        // One scratch buffer across packets of shrinking size: every
        // call must leave exactly the bytes a fresh buffer gets, with
        // no stale tail from the previous, longer packet.
        let mut buf = vec![0xee; 2000];
        for len in [900usize, 64, 3, 0] {
            let p = DataPacket::new(
                Addr::from_octets(10, 0, 0, 1),
                GroupId::numbered(7),
                9,
                vec![0xabu8; len],
            );
            p.encode_into(&mut buf);
            assert_eq!(buf, encoded(&p));
            assert_eq!(decode(&buf).unwrap(), p);
        }
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let p = native();
        let frame = Bytes::from(encoded(&p));
        let back = DataPacket::decode_bytes(&frame).unwrap();
        assert_eq!(back, p);
        assert!(
            back.payload.shares_allocation_with(&frame),
            "payload must view the frame, not copy it"
        );
    }

    #[test]
    fn write_frame_resends_the_arrival_datagram_with_only_the_ttl_patched() {
        // An arrival no `encode_into` would produce: ident, source port
        // and link-layer padding are all non-default. They must survive.
        let mut hdr = Ipv4Header::new(native().src, native().group.addr(), IpProto::Udp, 9, 8 + 2);
        hdr.ident = 0xbeef;
        let mut arrival = hdr.encode().to_vec();
        arrival.extend_from_slice(&written(|b| UdpHeader::wrap_into(4242, APP_PORT, b"hi", b)));
        let datagram_len = arrival.len();
        arrival.extend_from_slice(&[0u8; 6]);
        let mut pkt = DataPacket::decode_bytes(&Bytes::from(arrival.clone())).unwrap();
        assert_eq!(pkt, DataPacket { ttl: 9, ..native() });
        pkt.ttl -= 1;
        let mut next = vec![0xee; 300]; // dirty, longer scratch
        pkt.write_frame(&mut next);
        assert_eq!(next.len(), datagram_len, "padding is the link's, not the datagram's");
        let (back, body) = split_datagram(&next).unwrap();
        assert_eq!(back, Ipv4Header { ttl: 8, ..hdr });
        assert_eq!(body, &arrival[IPV4_HEADER_LEN..datagram_len], "UDP shell untouched");
        assert_eq!(decode(&next).unwrap(), pkt);
    }

    #[test]
    fn write_frame_encodes_when_the_packet_no_longer_says_what_its_datagram_says() {
        let frame_bytes = Bytes::from(encoded(&native()));
        let decoded = DataPacket::decode_bytes(&frame_bytes).unwrap();
        let frame = |p: &DataPacket| written(|b| p.write_frame(b));
        assert_eq!(frame(&native()), encoded(&native()), "locally built: plain encode");
        let other = Bytes::from(b"hi".to_vec()); // equal bytes, another allocation
        let changed = [
            DataPacket { src: Addr::from_octets(192, 168, 10, 8), ..decoded.clone() },
            DataPacket { group: GroupId::numbered(4), ..decoded.clone() },
            DataPacket { payload: Bytes::from(b"ho".to_vec()), ..decoded.clone() },
            DataPacket { payload: decoded.payload.slice(..1), ..decoded.clone() },
            DataPacket { payload: other, ..decoded.clone() },
        ];
        for pkt in changed {
            assert_eq!(frame(&pkt), encoded(&pkt), "{pkt:?}");
        }
    }

    #[test]
    fn shares_frame_with_is_identity_not_content() {
        let frame = Bytes::from(encoded(&native()));
        let a = DataPacket::decode_bytes(&frame).unwrap();
        assert!(a.shares_frame_with(&a.clone()), "fan-out clones share");
        assert!(!a.shares_frame_with(&DataPacket { ttl: a.ttl - 1, ..a.clone() }));
        let twin = DataPacket::decode_bytes(&Bytes::from(encoded(&native()))).unwrap();
        assert_eq!(a, twin);
        assert!(!a.shares_frame_with(&twin), "equal bytes in another allocation do not");
        let local = native();
        assert!(local.shares_frame_with(&local.clone()));
        assert!(!local.shares_frame_with(&a));
    }

    #[test]
    fn native_rejects_unicast_destination() {
        let (a, b) = (Addr::from_octets(10, 0, 0, 1), Addr::from_octets(10, 0, 0, 2));
        let dg = written(|buf| build_datagram_into(a, b, IpProto::Udp, 4, b"x", buf));
        assert!(decode(&dg).is_err());
    }

    #[test]
    fn encapsulation_preserves_inner_and_gleans_ttl() {
        let p = native();
        let core = Addr::from_octets(10, 0, 0, 4);
        let enc = CbtDataPacket::encapsulate(&p, core);
        assert_eq!(enc.cbt.ip_ttl, 64, "CBT TTL gleaned from original IP header (§8.1)");
        assert_eq!(enc.cbt.group, p.group);
        assert_eq!(enc.cbt.origin, p.src);
        assert_eq!(enc.cbt.core, core);
        assert_eq!(enc.cbt.on_tree, OFF_TREE);
        assert_eq!(decode(&enc.inner).unwrap(), p);
    }

    #[test]
    fn payload_round_trip() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire = payload(&enc);
        assert_eq!(&wire[..CBT_DATA_HEADER_LEN], enc.cbt.encode(), "CBT header first");
        assert_eq!(wire[CBT_DATA_HEADER_LEN..], enc.inner[..], "then the inner datagram");
        assert_eq!(CbtDataPacket::decode_payload_bytes(&wire).unwrap(), enc);
    }

    #[test]
    fn decode_payload_bytes_is_zero_copy() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let payload = payload(&enc);
        let back = CbtDataPacket::decode_payload_bytes(&payload).unwrap();
        assert_eq!(back, enc);
        assert!(back.inner.shares_allocation_with(&payload));
        // And delivery out of that view allocates nothing either.
        let delivered = back.decapsulate_for_delivery().unwrap();
        assert!(delivered.payload.shares_allocation_with(&payload));
    }

    #[test]
    fn wrap_into_replaces_a_dirty_reused_buffer() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let a = Addr::from_octets(10, 1, 0, 1);
        let b = Addr::from_octets(10, 2, 0, 1);
        let mut reference = Vec::new();
        let mut cbt_payload = enc.cbt.encode().to_vec();
        cbt_payload.extend_from_slice(&enc.inner);
        let mut buf = vec![0xee; 2000]; // dirty, oversized scratch
        enc.wrap_unicast_into(a, b, Some(3), &mut buf);
        build_datagram_into(a, b, IpProto::Cbt, 3, &cbt_payload, &mut reference);
        assert_eq!(buf, reference);
        enc.wrap_multicast_into(a, &mut buf);
        build_datagram_into(a, enc.cbt.group.addr(), IpProto::Cbt, 1, &cbt_payload, &mut reference);
        assert_eq!(buf, reference);
    }

    #[test]
    fn unicast_wrap_round_trip_uses_cbt_protocol() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire =
            unicast(&enc, Addr::from_octets(10, 1, 0, 1), Addr::from_octets(10, 2, 0, 1), Some(3));
        let (outer, back) = unwrap_cbt(&wire).unwrap();
        assert_eq!(outer.proto, IpProto::Cbt);
        assert_eq!(outer.ttl, 3, "outer TTL is the configured tunnel length (§5)");
        assert_eq!(back, enc);
    }

    #[test]
    fn unicast_wrap_defaults_to_max_ttl() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire =
            unicast(&enc, Addr::from_octets(10, 1, 0, 1), Addr::from_octets(10, 2, 0, 1), None);
        let (outer, _) = unwrap_cbt(&wire).unwrap();
        assert_eq!(outer.ttl, MAX_TTL);
    }

    #[test]
    fn multicast_wrap_targets_group() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire = written(|b| enc.wrap_multicast_into(Addr::from_octets(10, 1, 0, 1), b));
        let (outer, _) = unwrap_cbt(&wire).unwrap();
        assert_eq!(outer.dst, GroupId::numbered(3).addr());
        assert!(outer.dst.is_multicast());
    }

    #[test]
    fn delivery_sets_inner_ttl_to_one() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let delivered = enc.decapsulate_for_delivery().unwrap();
        assert_eq!(delivered.ttl, 1);
        assert_eq!(delivered.payload, b"hi");
    }

    #[test]
    fn on_tree_flag_survives_the_wire() {
        let mut enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        enc.cbt.on_tree = ON_TREE;
        let wire =
            unicast(&enc, Addr::from_octets(1, 1, 1, 1), Addr::from_octets(2, 2, 2, 2), None);
        let (_, back) = unwrap_cbt(&wire).unwrap();
        assert!(back.cbt.is_on_tree());
    }

    #[test]
    fn group_mismatch_between_headers_rejected() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let mut cbt = enc.cbt;
        cbt.group = GroupId::numbered(99); // disagree with inner datagram
        let bad = CbtDataPacket { cbt, inner: enc.inner };
        assert!(CbtDataPacket::decode_payload_bytes(&payload(&bad)).is_err());
    }

    #[test]
    fn non_cbt_outer_protocol_rejected() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let (a, b) = (Addr::from_octets(1, 1, 1, 1), Addr::from_octets(2, 2, 2, 2));
        let wire = written(|buf| build_datagram_into(a, b, IpProto::Udp, 9, &payload(&enc), buf));
        assert!(unwrap_cbt(&wire).is_err());
    }
}
