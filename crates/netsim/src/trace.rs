//! Transmission trace: every frame the world carries, classified by
//! protocol, with aggregate counters.
//!
//! This is the measurement tap for two whole experiment families:
//! control-overhead (count messages by [`PacketKind`]) and
//! traffic-concentration (count data bytes per link/LAN).

use crate::node::Entity;
use crate::time::SimTime;
use cbt_obs::{DropCounters, DropReason};
use cbt_topology::{IfIndex, LanId, LinkId};
use cbt_wire::ipv4::peek_datagram;
use cbt_wire::{ControlMessage, ControlType, IgmpMessage, IgmpType, IpProto, UdpHeader};
use std::collections::HashMap;

/// Protocol classification of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A CBT control message of the given type (in UDP, §3).
    Control(ControlType),
    /// An IGMP message of the given type.
    Igmp(IgmpType),
    /// Native-mode multicast data (§4).
    DataNative,
    /// CBT-mode encapsulated data (§5).
    DataCbt,
    /// Anything that did not parse (corrupted in flight, or not ours).
    Other,
}

impl PacketKind {
    /// Labels a raw frame from its framing alone: protocol, port and
    /// type bytes, with every length checked and no checksum summed.
    ///
    /// The world calls this on frames its own nodes have just encoded,
    /// before the fault injector touches them; verifying checksums is
    /// the receiving node's job. [`PacketKind::Other`] still means "a
    /// receiver could not parse this" — short, mis-framed, or of a
    /// protocol or type nobody here speaks.
    pub fn classify(frame: &[u8]) -> PacketKind {
        Self::classify_framed(frame).unwrap_or(PacketKind::Other)
    }

    fn classify_framed(frame: &[u8]) -> cbt_wire::Result<PacketKind> {
        let (ip, body) = peek_datagram(frame)?;
        Ok(match ip.proto {
            IpProto::Cbt | IpProto::IpIp => PacketKind::DataCbt,
            IpProto::Igmp => PacketKind::Igmp(IgmpMessage::peek_type(body)?),
            IpProto::Udp => {
                let (udp, payload) = UdpHeader::peek(body)?;
                if udp.dst_port == cbt_wire::CBT_PRIMARY_PORT
                    || udp.dst_port == cbt_wire::CBT_AUX_PORT
                {
                    PacketKind::Control(ControlMessage::peek_type(payload)?)
                } else if ip.dst.is_multicast() {
                    PacketKind::DataNative
                } else {
                    PacketKind::Other
                }
            }
        })
    }

    /// True for either data kind.
    pub fn is_data(self) -> bool {
        matches!(self, PacketKind::DataNative | PacketKind::DataCbt)
    }

    /// True for CBT control or CBT-relevant IGMP — the "protocol
    /// overhead" bucket of experiment S93-T3.
    pub fn is_control(self) -> bool {
        matches!(self, PacketKind::Control(_) | PacketKind::Igmp(_))
    }

    /// Number of distinct kinds — both inner enums are small and
    /// closed, so per-kind counters live in a fixed array.
    const COUNT: usize = 18;

    /// Every kind, in [`PacketKind::index`] order.
    const ALL: [PacketKind; PacketKind::COUNT] = [
        PacketKind::Control(ControlType::JoinRequest),
        PacketKind::Control(ControlType::JoinAck),
        PacketKind::Control(ControlType::JoinNack),
        PacketKind::Control(ControlType::QuitRequest),
        PacketKind::Control(ControlType::QuitAck),
        PacketKind::Control(ControlType::FlushTree),
        PacketKind::Control(ControlType::EchoRequest),
        PacketKind::Control(ControlType::EchoReply),
        PacketKind::Igmp(IgmpType::MembershipQuery),
        PacketKind::Igmp(IgmpType::ReportV1),
        PacketKind::Igmp(IgmpType::ReportV2),
        PacketKind::Igmp(IgmpType::LeaveGroup),
        PacketKind::Igmp(IgmpType::ReportV3),
        PacketKind::Igmp(IgmpType::RpCoreReport),
        PacketKind::Igmp(IgmpType::TreeJoined),
        PacketKind::DataNative,
        PacketKind::DataCbt,
        PacketKind::Other,
    ];

    /// Dense discriminant index in `0..COUNT`.
    #[inline]
    fn index(self) -> usize {
        match self {
            // ControlType's wire values are 1..=8.
            PacketKind::Control(c) => c as usize - 1,
            PacketKind::Igmp(t) => {
                8 + match t {
                    IgmpType::MembershipQuery => 0,
                    IgmpType::ReportV1 => 1,
                    IgmpType::ReportV2 => 2,
                    IgmpType::LeaveGroup => 3,
                    IgmpType::ReportV3 => 4,
                    IgmpType::RpCoreReport => 5,
                    IgmpType::TreeJoined => 6,
                }
            }
            PacketKind::DataNative => 15,
            PacketKind::DataCbt => 16,
            PacketKind::Other => 17,
        }
    }
}

/// The medium a frame crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    /// A multi-access LAN.
    Lan(LanId),
    /// A point-to-point link.
    Link(LinkId),
}

/// One recorded transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When it was sent.
    pub at: SimTime,
    /// Who sent it.
    pub from: Entity,
    /// Out of which interface.
    pub iface: IfIndex,
    /// Over which medium.
    pub medium: Medium,
    /// Classification.
    pub kind: PacketKind,
    /// Frame size in bytes.
    pub bytes: usize,
}

/// The trace: optional full log plus always-on counters.
///
/// The counters are flat arrays — per-kind indexed by the closed
/// [`PacketKind`] discriminant, per-medium indexed by the dense
/// `LanId`/`LinkId` — so the hot recording path is a handful of array
/// bumps with no hashing. The map-shaped accessors rebuild their maps
/// at read time.
#[derive(Debug)]
pub struct Trace {
    keep_entries: bool,
    entries: Vec<TraceEntry>,
    by_kind: [u64; PacketKind::COUNT],
    lan_frames: Vec<u64>,
    link_frames: Vec<u64>,
    lan_data_bytes: Vec<u64>,
    link_data_bytes: Vec<u64>,
    total_frames: u64,
    total_bytes: u64,
    drops: DropCounters,
}

/// Bumps a dense-id counter, growing the table on first sight of an id.
#[inline]
fn bump(table: &mut Vec<u64>, id: usize, by: u64) {
    if table.len() <= id {
        table.resize(id + 1, 0);
    }
    table[id] += by;
}

impl Trace {
    /// A trace that records full entries (tests, walkthroughs).
    pub fn recording() -> Self {
        Self::new(true)
    }

    /// A counters-only trace (large sweeps).
    pub fn counters_only() -> Self {
        Self::new(false)
    }

    fn new(keep_entries: bool) -> Self {
        Trace {
            keep_entries,
            entries: Vec::new(),
            by_kind: [0; PacketKind::COUNT],
            lan_frames: Vec::new(),
            link_frames: Vec::new(),
            lan_data_bytes: Vec::new(),
            link_data_bytes: Vec::new(),
            total_frames: 0,
            total_bytes: 0,
            drops: DropCounters::default(),
        }
    }

    /// Records a frame the world refused to carry, under the shared
    /// drop-reason taxonomy (e.g. a transmission out of an interface
    /// the topology does not know).
    pub fn record_drop(&mut self, reason: DropReason) {
        self.drops.bump(reason);
    }

    /// Frames the world refused to carry, by reason.
    pub fn drop_counts(&self) -> &DropCounters {
        &self.drops
    }

    /// Records one transmission.
    pub fn record(&mut self, entry: TraceEntry) {
        self.record_tx(entry.at, entry.from, entry.iface, entry.medium, entry.kind, entry.bytes);
    }

    /// Hot-path recording: bumps the counters from loose fields and
    /// only materialises a [`TraceEntry`] when full recording is on.
    /// In counters-only mode (the large experiment sweeps) this is the
    /// whole cost — no struct construction, no `Vec` push.
    pub fn record_tx(
        &mut self,
        at: SimTime,
        from: Entity,
        iface: IfIndex,
        medium: Medium,
        kind: PacketKind,
        bytes: usize,
    ) {
        self.by_kind[kind.index()] += 1;
        match medium {
            Medium::Lan(l) => {
                bump(&mut self.lan_frames, l.0 as usize, 1);
                if kind.is_data() {
                    bump(&mut self.lan_data_bytes, l.0 as usize, bytes as u64);
                }
            }
            Medium::Link(l) => {
                bump(&mut self.link_frames, l.0 as usize, 1);
                if kind.is_data() {
                    bump(&mut self.link_data_bytes, l.0 as usize, bytes as u64);
                }
            }
        }
        self.total_frames += 1;
        self.total_bytes += bytes as u64;
        if self.keep_entries {
            self.entries.push(TraceEntry { at, from, iface, medium, kind, bytes });
        }
    }

    /// Full entries (empty if counters-only).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Count of frames of a given kind.
    pub fn count(&self, kind: PacketKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Total control-plane frames (CBT control + IGMP).
    pub fn control_frames(&self) -> u64 {
        PacketKind::ALL.iter().filter(|k| k.is_control()).map(|k| self.by_kind[k.index()]).sum()
    }

    /// CBT control frames only (no IGMP) — the protocol-overhead metric
    /// comparable across multicast schemes, which all need IGMP anyway.
    pub fn cbt_control_frames(&self) -> u64 {
        PacketKind::ALL
            .iter()
            .filter(|k| matches!(k, PacketKind::Control(_)))
            .map(|k| self.by_kind[k.index()])
            .sum()
    }

    /// Total data frames (both modes).
    pub fn data_frames(&self) -> u64 {
        PacketKind::ALL.iter().filter(|k| k.is_data()).map(|k| self.by_kind[k.index()]).sum()
    }

    /// Data bytes carried per medium — the traffic-concentration input.
    /// Built from the flat per-id tables at read time.
    pub fn data_bytes_by_medium(&self) -> HashMap<Medium, u64> {
        let mut map = HashMap::new();
        collect_medium(&mut map, &self.lan_data_bytes, |i| Medium::Lan(LanId(i)));
        collect_medium(&mut map, &self.link_data_bytes, |i| Medium::Link(LinkId(i)));
        map
    }

    /// Frames carried per medium. Built at read time.
    pub fn frames_by_medium(&self) -> HashMap<Medium, u64> {
        let mut map = HashMap::new();
        collect_medium(&mut map, &self.lan_frames, |i| Medium::Lan(LanId(i)));
        collect_medium(&mut map, &self.link_frames, |i| Medium::Link(LinkId(i)));
        map
    }

    /// (total frames, total bytes).
    pub fn totals(&self) -> (u64, u64) {
        (self.total_frames, self.total_bytes)
    }

    /// All per-kind counters with at least one frame, sorted for
    /// stable display.
    pub fn kind_counts(&self) -> Vec<(PacketKind, u64)> {
        let mut v: Vec<_> = PacketKind::ALL
            .iter()
            .map(|k| (*k, self.by_kind[k.index()]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|(k, _)| format!("{k:?}"));
        v
    }
}

/// Read-time conversion of a dense-id counter table back into the
/// map shape the accessors have always exposed.
fn collect_medium(map: &mut HashMap<Medium, u64>, table: &[u64], medium: impl Fn(u32) -> Medium) {
    for (i, &c) in table.iter().enumerate() {
        if c > 0 {
            map.insert(medium(i as u32), c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_wire::{Addr, DataPacket, GroupId, JoinSubcode};

    /// What one of the in-place writers leaves in a fresh buffer.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf);
        buf
    }

    fn control_frame() -> Vec<u8> {
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: GroupId::numbered(1),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: Addr::from_octets(10, 255, 0, 3),
            cores: vec![Addr::from_octets(10, 255, 0, 3)],
        };
        let (src, dst) = (Addr::from_octets(10, 1, 0, 1), Addr::from_octets(172, 31, 0, 2));
        written(|buf| msg.write_datagram(src, dst, 64, buf).unwrap())
    }

    #[test]
    fn classify_control() {
        assert_eq!(
            PacketKind::classify(&control_frame()),
            PacketKind::Control(ControlType::JoinRequest)
        );
    }

    #[test]
    fn classify_igmp() {
        let leave = IgmpMessage::Leave { group: GroupId::numbered(2) };
        let src = Addr::from_octets(10, 1, 0, 100);
        let frame = written(|buf| leave.write_datagram(src, cbt_wire::ALL_ROUTERS, buf));
        assert_eq!(PacketKind::classify(&frame), PacketKind::Igmp(IgmpType::LeaveGroup));
    }

    #[test]
    fn classify_native_data() {
        let p = DataPacket::new(
            Addr::from_octets(10, 1, 0, 100),
            GroupId::numbered(2),
            16,
            b"x".to_vec(),
        );
        assert_eq!(
            PacketKind::classify(&written(|buf| p.encode_into(buf))),
            PacketKind::DataNative
        );
    }

    #[test]
    fn classify_cbt_data() {
        let p = DataPacket::new(
            Addr::from_octets(10, 1, 0, 100),
            GroupId::numbered(2),
            16,
            b"x".to_vec(),
        );
        let enc = cbt_wire::CbtDataPacket::encapsulate(&p, Addr::from_octets(10, 255, 0, 3));
        let (a, b) = (Addr::from_octets(1, 1, 1, 1), Addr::from_octets(2, 2, 2, 2));
        let frame = written(|buf| enc.wrap_unicast_into(a, b, None, buf));
        assert_eq!(PacketKind::classify(&frame), PacketKind::DataCbt);
    }

    #[test]
    fn classify_garbage_as_other() {
        assert_eq!(PacketKind::classify(&[0xde, 0xad]), PacketKind::Other);
        let mut frame = control_frame();
        frame[25] ^= 0x01; // the UDP length no longer frames the message
        assert_eq!(PacketKind::classify(&frame), PacketKind::Other);
        let mut frame = control_frame();
        frame[29] = 99; // no such control type
        assert_eq!(PacketKind::classify(&frame), PacketKind::Other);
    }

    #[test]
    fn classify_labels_without_verifying() {
        // A flipped payload bit only a checksum would catch: the tap
        // still names the frame by its type bytes. The receiving node
        // is the one that sums it and counts the drop.
        let mut frame = control_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(ControlMessage::decode(&frame[28..]).is_err());
        assert_eq!(PacketKind::classify(&frame), PacketKind::Control(ControlType::JoinRequest));
    }

    /// The reference classifier: every header and message decoded in
    /// full, checksums and the datagram's length included.
    fn classify_by_full_parse(frame: &[u8]) -> PacketKind {
        let Ok((ip, body)) = cbt_wire::ipv4::split_datagram(frame) else {
            return PacketKind::Other;
        };
        match ip.proto {
            IpProto::Cbt | IpProto::IpIp => PacketKind::DataCbt,
            IpProto::Igmp => match IgmpMessage::decode(body) {
                Ok(m) => PacketKind::Igmp(m.igmp_type()),
                Err(_) => PacketKind::Other,
            },
            IpProto::Udp => match UdpHeader::unwrap(body) {
                Ok((udp, payload))
                    if udp.dst_port == cbt_wire::CBT_PRIMARY_PORT
                        || udp.dst_port == cbt_wire::CBT_AUX_PORT =>
                {
                    match ControlMessage::decode(payload) {
                        Ok(m) => PacketKind::Control(m.control_type()),
                        Err(_) => PacketKind::Other,
                    }
                }
                Ok(_) if ip.dst.is_multicast() => PacketKind::DataNative,
                _ => PacketKind::Other,
            },
        }
    }

    /// One well-formed frame of every kind a node in this repo emits.
    fn every_emitted_kind() -> Vec<(PacketKind, Vec<u8>)> {
        use cbt_wire::ipv4::build_datagram_into;
        use cbt_wire::{AckSubcode, CbtDataPacket, RpCoreReport};
        let g = GroupId::numbered(5);
        let (a, b) = (Addr::from_octets(10, 1, 0, 1), Addr::from_octets(172, 31, 0, 2));
        let cores = vec![Addr::from_octets(10, 255, 0, 3)];
        let target_core = cores[0];
        let control = [
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::RejoinActive,
                group: g,
                origin: a,
                target_core,
                cores: cores.clone(),
            },
            ControlMessage::JoinAck {
                subcode: AckSubcode::ProxyAck,
                group: g,
                origin: a,
                target_core,
                cores: cores.clone(),
            },
            ControlMessage::JoinNack { group: g, origin: a, target_core },
            ControlMessage::QuitRequest { group: g, origin: a },
            ControlMessage::QuitAck { group: g, origin: a },
            ControlMessage::FlushTree { group: g, origin: a },
            ControlMessage::EchoRequest { group: g, origin: a, group_mask: Some(b) },
            ControlMessage::EchoReply { group: g, origin: a, group_mask: None },
        ];
        let igmp = [
            IgmpMessage::Query { group: None, max_resp_tenths: 100 },
            IgmpMessage::Report { version: 1, group: g },
            IgmpMessage::Report { version: 2, group: g },
            IgmpMessage::Report { version: 3, group: g },
            IgmpMessage::Leave { group: g },
            IgmpMessage::RpCore(RpCoreReport {
                group: g,
                code: cbt_wire::igmp::RP_CORE_CODE_CBT,
                target_core_index: 0,
                cores,
            }),
            IgmpMessage::TreeJoined { group: g, core: target_core },
        ];
        let mut frames = Vec::new();
        for m in control {
            let frame = written(|buf| m.write_datagram(a, b, 64, buf).unwrap());
            frames.push((PacketKind::Control(m.control_type()), frame));
        }
        for m in igmp {
            let frame = written(|buf| m.write_datagram(a, cbt_wire::ALL_SYSTEMS, buf));
            frames.push((PacketKind::Igmp(m.igmp_type()), frame));
        }
        let native = DataPacket::new(a, g, 16, vec![7u8; 64]);
        let enc = CbtDataPacket::encapsulate(&native, target_core);
        let native = written(|buf| native.encode_into(buf));
        frames.push((PacketKind::DataNative, native.clone()));
        frames.push((PacketKind::DataCbt, written(|buf| enc.wrap_unicast_into(a, b, None, buf))));
        frames.push((PacketKind::DataCbt, written(|buf| enc.wrap_multicast_into(a, buf))));
        let ipip = written(|buf| build_datagram_into(a, b, IpProto::IpIp, 9, &native, buf));
        frames.push((PacketKind::DataCbt, ipip));
        // A unicast to a port nobody here listens on is nobody's kind.
        let stray = written(|buf| UdpHeader::wrap_into(53, 53, b"?", buf));
        let stray = written(|buf| build_datagram_into(a, b, IpProto::Udp, 9, &stray, buf));
        frames.push((PacketKind::Other, stray));
        frames
    }

    #[test]
    fn classify_agrees_with_the_full_parse_on_everything_nodes_emit() {
        let frames = every_emitted_kind();
        let kinds: std::collections::HashSet<PacketKind> = frames.iter().map(|f| f.0).collect();
        assert_eq!(kinds.len(), PacketKind::COUNT, "every kind is represented");
        for (kind, frame) in &frames {
            assert_eq!(PacketKind::classify(frame), *kind, "{kind:?}");
            assert_eq!(classify_by_full_parse(frame), *kind, "{kind:?}");
            // Link-layer padding changes nothing.
            let padded = [&frame[..], &[0u8; 7]].concat();
            assert_eq!(PacketKind::classify(&padded), *kind, "{kind:?} padded");
            // Truncated anywhere, it parses for nobody.
            for cut in 0..frame.len() {
                assert_eq!(
                    PacketKind::classify(&frame[..cut]),
                    PacketKind::Other,
                    "{kind:?}@{cut}"
                );
                assert_eq!(classify_by_full_parse(&frame[..cut]), PacketKind::Other);
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::recording();
        let e = TraceEntry {
            at: SimTime::ZERO,
            from: Entity::Router(cbt_topology::RouterId(0)),
            iface: IfIndex(0),
            medium: Medium::Link(LinkId(0)),
            kind: PacketKind::classify(&control_frame()),
            bytes: control_frame().len(),
        };
        t.record(e.clone());
        t.record(TraceEntry { kind: PacketKind::DataNative, bytes: 50, ..e.clone() });
        t.record(TraceEntry {
            kind: PacketKind::DataCbt,
            bytes: 90,
            medium: Medium::Lan(LanId(1)),
            ..e
        });
        assert_eq!(t.control_frames(), 1);
        assert_eq!(t.data_frames(), 2);
        assert_eq!(t.count(PacketKind::Control(ControlType::JoinRequest)), 1);
        assert_eq!(t.data_bytes_by_medium()[&Medium::Link(LinkId(0))], 50);
        assert_eq!(t.data_bytes_by_medium()[&Medium::Lan(LanId(1))], 90);
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.totals().0, 3);
    }

    #[test]
    fn kind_index_is_a_dense_bijection() {
        // The fixed-array counters depend on every kind mapping to a
        // distinct slot in 0..COUNT, with ALL listed in index order.
        for (i, k) in PacketKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?} out of place");
        }
    }

    #[test]
    fn drop_taxonomy_accumulates() {
        let mut t = Trace::counters_only();
        t.record_drop(DropReason::NoFibEntry);
        t.record_drop(DropReason::NoFibEntry);
        t.record_drop(DropReason::TtlExpired);
        assert_eq!(t.drop_counts().get(DropReason::NoFibEntry), 2);
        assert_eq!(t.drop_counts().get(DropReason::TtlExpired), 1);
        assert_eq!(t.drop_counts().total(), 3);
    }

    #[test]
    fn counters_only_drops_entries() {
        let mut t = Trace::counters_only();
        t.record(TraceEntry {
            at: SimTime::ZERO,
            from: Entity::Router(cbt_topology::RouterId(0)),
            iface: IfIndex(0),
            medium: Medium::Link(LinkId(0)),
            kind: PacketKind::DataNative,
            bytes: 10,
        });
        assert!(t.entries().is_empty());
        assert_eq!(t.totals(), (1, 10));
    }
}
