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

/// Which encapsulation a data packet currently wears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncapMode {
    /// Plain IP multicast (native mode, §4).
    Native,
    /// CBT-header encapsulated (CBT mode, §5).
    CbtMode,
}

/// Offset of the application payload in a native datagram.
pub const PAYLOAD_OFFSET: usize = IPV4_HEADER_LEN + UDP_HEADER_LEN;

/// Offset of the TTL byte in an IPv4 header.
const TTL_OFFSET: usize = 8;

/// Serializes a native multicast datagram — IP header, a UDP shell on
/// [`APP_PORT`] and `payload` — straight into one exactly-sized buffer.
/// This is what [`DataPacket::encode`] writes; a sender that holds its
/// payload as plain bytes calls it directly and skips the packet (and
/// the refcounted payload handle a packet would wrap them in).
pub fn encode_native(src: Addr, group: GroupId, ttl: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_native_into(src, group, ttl, payload, &mut out);
    out
}

/// [`encode_native`] into a reusable buffer, replacing its contents:
/// header, shell and payload in one pass, no intermediate buffers.
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

    /// Serializes to a complete IP datagram. The application payload
    /// rides in a real UDP shell on [`APP_PORT`] — CBT does not care
    /// what applications send, but carrying honest headers end-to-end
    /// lets the trace classify every frame unambiguously.
    pub fn encode(&self) -> Vec<u8> {
        encode_native(self.src, self.group, self.ttl, &self.payload)
    }

    /// Serializes into `buf`, replacing its contents — IP header, UDP
    /// shell and payload in one pass, with no intermediate buffers.
    /// Hot send paths keep one scratch buffer alive and call this per
    /// packet instead of allocating via [`DataPacket::encode`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_native_into(self.src, self.group, self.ttl, &self.payload, buf);
    }

    /// The datagram to put on the wire for this packet. One decoded
    /// from a frame and changed in nothing but its TTL since re-sends
    /// that datagram (see [`write_datagram_with_ttl`]); anything else
    /// is [`DataPacket::encode`]d. For datagrams `encode` produced the
    /// two agree byte for byte.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_frame(&mut out);
        out
    }

    /// [`DataPacket::to_frame`] into a reusable buffer, replacing its
    /// contents — the forward path's form: a transit hop is one copy
    /// into a buffer it already owns.
    pub fn write_frame(&self, buf: &mut Vec<u8>) {
        match self.pristine_datagram() {
            Some(datagram) => write_datagram_with_ttl(datagram, self.ttl, buf),
            None => self.encode_into(buf),
        }
    }

    /// [`DataPacket::to_frame`] as a refcounted handle: when not even
    /// the TTL moved since decode, the remembered datagram itself — no
    /// copy, no allocation.
    fn to_frame_bytes(&self) -> Bytes {
        match self.pristine_datagram() {
            Some(datagram) if datagram[TTL_OFFSET] == self.ttl => datagram.clone(),
            _ => Bytes::from(self.to_frame()),
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

    /// Parses a native multicast datagram out of a plain slice, which
    /// it copies; receive paths hold [`Bytes`] and use
    /// [`DataPacket::decode_bytes`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::decode_bytes(&Bytes::copy_from_slice(bytes))
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
    /// [`DataPacket::to_frame`]'s identity rule — a packet decoded from
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

    /// Serializes as the payload of an outer IP datagram: CBT header
    /// followed by the inner datagram.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CBT_DATA_HEADER_LEN + self.inner.len());
        out.extend_from_slice(&self.cbt.encode());
        out.extend_from_slice(&self.inner);
        out
    }

    /// Parses a CBT-mode payload (CBT header + inner datagram), copying
    /// the inner datagram out of `bytes`.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self> {
        let cbt = Self::decode_payload_header(bytes)?;
        Ok(CbtDataPacket { cbt, inner: Bytes::copy_from_slice(&bytes[CBT_DATA_HEADER_LEN..]) })
    }

    /// Parses a CBT-mode payload out of a refcounted buffer: the inner
    /// datagram is a zero-copy view into `payload`'s allocation.
    pub fn decode_payload_bytes(payload: &Bytes) -> Result<Self> {
        let cbt = Self::decode_payload_header(payload)?;
        Ok(CbtDataPacket { cbt, inner: payload.slice(CBT_DATA_HEADER_LEN..) })
    }

    /// Shared validation: CBT header plus eager inner-datagram checks so
    /// corruption is caught at the first CBT router, not at delivery.
    fn decode_payload_header(bytes: &[u8]) -> Result<CbtDataHeader> {
        let cbt = CbtDataHeader::decode(bytes)?;
        let (inner_hdr, _) = split_datagram(&bytes[CBT_DATA_HEADER_LEN..])?;
        if GroupId::new(inner_hdr.dst) != Some(cbt.group) {
            return Err(WireError::BadField {
                what: "cbt data packet",
                why: "inner destination group disagrees with CBT header",
            });
        }
        Ok(cbt)
    }

    /// Wraps in the outer IP header for one unicast hop or tunnel
    /// (CBT unicasting, §5). `tunnel_ttl` is the configured tunnel
    /// length, or `MAX_TTL` when unknown.
    pub fn wrap_unicast(&self, src: Addr, dst: Addr, tunnel_ttl: Option<u8>) -> Vec<u8> {
        let mut out = Vec::new();
        self.wrap_unicast_into(src, dst, tunnel_ttl, &mut out);
        out
    }

    /// [`Self::wrap_unicast`] into a reusable buffer: outer IP header,
    /// CBT header and inner datagram written in one pass.
    pub fn wrap_unicast_into(
        &self,
        src: Addr,
        dst: Addr,
        tunnel_ttl: Option<u8>,
        buf: &mut Vec<u8>,
    ) {
        self.wrap_into(src, dst, tunnel_ttl.unwrap_or(MAX_TTL), buf);
    }

    /// Wraps in an outer IP header addressed to the *group* (CBT
    /// multicasting, §5): used when a parent or several children share
    /// one multi-access interface. Hosts discard these because the outer
    /// protocol is CBT, not UDP.
    pub fn wrap_multicast(&self, src: Addr) -> Vec<u8> {
        let mut out = Vec::new();
        self.wrap_multicast_into(src, &mut out);
        out
    }

    /// [`Self::wrap_multicast`] into a reusable buffer.
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

    /// Unwraps an outer datagram produced by [`Self::wrap_unicast`] or
    /// [`Self::wrap_multicast`].
    pub fn unwrap_outer(bytes: &[u8]) -> Result<(Ipv4Header, Self)> {
        let (outer, payload) = split_datagram(bytes)?;
        if outer.proto != IpProto::Cbt {
            return Err(WireError::BadField {
                what: "cbt outer header",
                why: "outer protocol is not CBT",
            });
        }
        Ok((outer, Self::decode_payload(payload)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{OFF_TREE, ON_TREE};
    use crate::ipv4::build_datagram;

    fn native() -> DataPacket {
        DataPacket::new(
            Addr::from_octets(192, 168, 10, 7),
            GroupId::numbered(3),
            64,
            b"hi".to_vec(),
        )
    }

    #[test]
    fn native_round_trip() {
        let p = native();
        assert_eq!(DataPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_the_buffer() {
        // One scratch buffer across packets of shrinking size: every
        // call must leave exactly the bytes `encode` would, with no
        // stale tail from the previous, longer packet.
        let mut buf = Vec::new();
        for len in [900usize, 64, 3, 0] {
            let p = DataPacket::new(
                Addr::from_octets(10, 0, 0, 1),
                GroupId::numbered(7),
                9,
                vec![0xabu8; len],
            );
            p.encode_into(&mut buf);
            assert_eq!(buf, p.encode());
            assert_eq!(DataPacket::decode(&buf).unwrap(), p);
        }
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let p = native();
        let frame = Bytes::from(p.encode());
        let back = DataPacket::decode_bytes(&frame).unwrap();
        assert_eq!(back, p);
        assert!(
            back.payload.shares_allocation_with(&frame),
            "payload must view the frame, not copy it"
        );
    }

    #[test]
    fn to_frame_resends_the_arrival_datagram_with_only_the_ttl_patched() {
        // An arrival no `encode` would produce: ident, source port and
        // link-layer padding are all non-default. They must survive.
        let mut hdr = Ipv4Header::new(native().src, native().group.addr(), IpProto::Udp, 9, 8 + 2);
        hdr.ident = 0xbeef;
        let mut arrival = hdr.encode().to_vec();
        arrival.extend_from_slice(&UdpHeader::wrap(4242, APP_PORT, b"hi"));
        let datagram_len = arrival.len();
        arrival.extend_from_slice(&[0u8; 6]);
        let mut pkt = DataPacket::decode_bytes(&Bytes::from(arrival.clone())).unwrap();
        assert_eq!(pkt, DataPacket { ttl: 9, ..native() });
        pkt.ttl -= 1;
        let next = pkt.to_frame();
        assert_eq!(next.len(), datagram_len, "padding is the link's, not the datagram's");
        let (back, body) = split_datagram(&next).unwrap();
        assert_eq!(back, Ipv4Header { ttl: 8, ..hdr });
        assert_eq!(body, &arrival[IPV4_HEADER_LEN..datagram_len], "UDP shell untouched");
        assert_eq!(DataPacket::decode(&next).unwrap(), pkt);
    }

    #[test]
    fn to_frame_encodes_when_the_packet_no_longer_says_what_its_datagram_says() {
        let frame = Bytes::from(native().encode());
        let decoded = DataPacket::decode_bytes(&frame).unwrap();
        assert_eq!(native().to_frame(), native().encode(), "locally built: plain encode");
        let other = Bytes::from(b"hi".to_vec()); // equal bytes, another allocation
        let changed = [
            DataPacket { src: Addr::from_octets(192, 168, 10, 8), ..decoded.clone() },
            DataPacket { group: GroupId::numbered(4), ..decoded.clone() },
            DataPacket { payload: Bytes::from(b"ho".to_vec()), ..decoded.clone() },
            DataPacket { payload: decoded.payload.slice(..1), ..decoded.clone() },
            DataPacket { payload: other, ..decoded.clone() },
        ];
        for pkt in changed {
            assert_eq!(pkt.to_frame(), pkt.encode(), "{pkt:?}");
        }
    }

    #[test]
    fn shares_frame_with_is_identity_not_content() {
        let frame = Bytes::from(native().encode());
        let a = DataPacket::decode_bytes(&frame).unwrap();
        assert!(a.shares_frame_with(&a.clone()), "fan-out clones share");
        assert!(!a.shares_frame_with(&DataPacket { ttl: a.ttl - 1, ..a.clone() }));
        let twin = DataPacket::decode_bytes(&Bytes::from(native().encode())).unwrap();
        assert_eq!(a, twin);
        assert!(!a.shares_frame_with(&twin), "equal bytes in another allocation do not");
        let local = native();
        assert!(local.shares_frame_with(&local.clone()));
        assert!(!local.shares_frame_with(&a));
    }

    #[test]
    fn native_rejects_unicast_destination() {
        let dg = build_datagram(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 0, 0, 2),
            IpProto::Udp,
            4,
            b"x",
        );
        assert!(DataPacket::decode(&dg).is_err());
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
        assert_eq!(DataPacket::decode(&enc.inner).unwrap(), p);
    }

    #[test]
    fn payload_round_trip() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let back = CbtDataPacket::decode_payload(&enc.encode_payload()).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn decode_payload_bytes_is_zero_copy() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let payload = Bytes::from(enc.encode_payload());
        let back = CbtDataPacket::decode_payload_bytes(&payload).unwrap();
        assert_eq!(back, enc);
        assert!(back.inner.shares_allocation_with(&payload));
        // And delivery out of that view allocates nothing either.
        let delivered = back.decapsulate_for_delivery().unwrap();
        assert!(delivered.payload.shares_allocation_with(&payload));
    }

    #[test]
    fn wrap_into_matches_wrap_and_reuses_the_buffer() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let a = Addr::from_octets(10, 1, 0, 1);
        let b = Addr::from_octets(10, 2, 0, 1);
        let mut buf = vec![0xee; 2000]; // dirty, oversized scratch
        enc.wrap_unicast_into(a, b, Some(3), &mut buf);
        assert_eq!(buf, enc.wrap_unicast(a, b, Some(3)));
        enc.wrap_multicast_into(a, &mut buf);
        assert_eq!(buf, enc.wrap_multicast(a));
    }

    #[test]
    fn unicast_wrap_round_trip_uses_cbt_protocol() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire = enc.wrap_unicast(
            Addr::from_octets(10, 1, 0, 1),
            Addr::from_octets(10, 2, 0, 1),
            Some(3),
        );
        let (outer, back) = CbtDataPacket::unwrap_outer(&wire).unwrap();
        assert_eq!(outer.proto, IpProto::Cbt);
        assert_eq!(outer.ttl, 3, "outer TTL is the configured tunnel length (§5)");
        assert_eq!(back, enc);
    }

    #[test]
    fn unicast_wrap_defaults_to_max_ttl() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire =
            enc.wrap_unicast(Addr::from_octets(10, 1, 0, 1), Addr::from_octets(10, 2, 0, 1), None);
        let (outer, _) = CbtDataPacket::unwrap_outer(&wire).unwrap();
        assert_eq!(outer.ttl, MAX_TTL);
    }

    #[test]
    fn multicast_wrap_targets_group() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire = enc.wrap_multicast(Addr::from_octets(10, 1, 0, 1));
        let (outer, _) = CbtDataPacket::unwrap_outer(&wire).unwrap();
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
            enc.wrap_unicast(Addr::from_octets(1, 1, 1, 1), Addr::from_octets(2, 2, 2, 2), None);
        let (_, back) = CbtDataPacket::unwrap_outer(&wire).unwrap();
        assert!(back.cbt.is_on_tree());
    }

    #[test]
    fn group_mismatch_between_headers_rejected() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let mut cbt = enc.cbt;
        cbt.group = GroupId::numbered(99); // disagree with inner datagram
        let bad = CbtDataPacket { cbt, inner: enc.inner };
        assert!(CbtDataPacket::decode_payload(&bad.encode_payload()).is_err());
    }

    #[test]
    fn non_cbt_outer_protocol_rejected() {
        let enc = CbtDataPacket::encapsulate(&native(), Addr::from_octets(10, 0, 0, 4));
        let wire = build_datagram(
            Addr::from_octets(1, 1, 1, 1),
            Addr::from_octets(2, 2, 2, 2),
            IpProto::Udp,
            9,
            &enc.encode_payload(),
        );
        assert!(CbtDataPacket::unwrap_outer(&wire).is_err());
    }
}
