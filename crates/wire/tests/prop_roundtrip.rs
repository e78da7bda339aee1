//! Property-based tests: every wire format must (a) round-trip any valid
//! value and (b) reject any single-byte corruption of its checksummed
//! region — this is exactly the guarantee the simulator's fault
//! injection relies on (experiment Spec-E7 in DESIGN.md).

use bytes::Bytes;
use cbt_wire::{
    control::ECHO_AGGREGATE, igmp::RpCoreReport, AckSubcode, Addr, CbtControlHeader, CbtDataHeader,
    CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage, JoinSubcode,
};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Addr> {
    // Avoid class-D/E so unicast fields stay unicast.
    (0u32..0xE000_0000).prop_map(Addr)
}

fn arb_group() -> impl Strategy<Value = GroupId> {
    (0u32..0x0FFF_FFFF)
        .prop_map(|low| GroupId::new(Addr(0xE000_0000 | low)).expect("class-D by construction"))
}

fn arb_cores() -> impl Strategy<Value = Vec<Addr>> {
    proptest::collection::vec(arb_addr(), 0..=8)
}

fn arb_join_subcode() -> impl Strategy<Value = JoinSubcode> {
    prop_oneof![
        Just(JoinSubcode::ActiveJoin),
        Just(JoinSubcode::RejoinActive),
        Just(JoinSubcode::RejoinNactive),
    ]
}

fn arb_ack_subcode() -> impl Strategy<Value = AckSubcode> {
    prop_oneof![
        Just(AckSubcode::Normal),
        Just(AckSubcode::ProxyAck),
        Just(AckSubcode::RejoinNactive),
    ]
}

/// `src` with its low half chosen so that the IPv4 header of the
/// native datagram `(src, group, ttl, payload_len)` sums to `0xffff`,
/// i.e. carries header checksum `0x0000` — the corner an incremental
/// update is most likely to get wrong.
fn src_with_zero_header_checksum(src: Addr, group: GroupId, ttl: u8, payload_len: usize) -> Addr {
    let high = Addr(src.0 & 0xffff_0000);
    let frame = DataPacket::new(high, group, ttl, vec![0u8; payload_len]).encode();
    // With a zero low half the checksum is the complement of the sum
    // of everything else: adding it back makes the sum all ones.
    let low = u16::from_be_bytes([frame[10], frame[11]]);
    Addr(high.0 | u32::from(low))
}

prop_compose! {
    fn arb_control()(
        which in 0u8..8,
        join_sub in arb_join_subcode(),
        ack_sub in arb_ack_subcode(),
        group in arb_group(),
        origin in arb_addr(),
        target in arb_addr(),
        cores in arb_cores(),
        mask in proptest::option::of(arb_addr()),
    ) -> ControlMessage {
        match which {
            0 => ControlMessage::JoinRequest {
                subcode: join_sub, group, origin, target_core: target, cores,
            },
            1 => ControlMessage::JoinAck {
                subcode: ack_sub, group, origin, target_core: target, cores,
            },
            2 => ControlMessage::JoinNack { group, origin, target_core: target },
            3 => ControlMessage::QuitRequest { group, origin },
            4 => ControlMessage::QuitAck { group, origin },
            5 => ControlMessage::FlushTree { group, origin },
            6 => ControlMessage::EchoRequest { group, origin, group_mask: mask },
            _ => ControlMessage::EchoReply { group, origin, group_mask: mask },
        }
    }
}

proptest! {
    #[test]
    fn control_round_trips(msg in arb_control()) {
        let bytes = msg.encode().unwrap();
        prop_assert_eq!(ControlMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn control_rejects_any_corruption(msg in arb_control(), byte in 0usize..64, bit in 0u8..8) {
        let bytes = msg.encode().unwrap();
        let byte = byte % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[byte] ^= 1 << bit;
        // Either the decode errors, or — if a flip somehow produced a
        // different *valid* message — it must not silently equal the
        // original. (One's-complement checksums detect all 1-bit flips,
        // so decode should in fact always error.)
        if let Ok(other) = ControlMessage::decode(&corrupted) { prop_assert_ne!(other, msg) }
    }

    #[test]
    fn encode_append_leaves_the_prefix_then_exactly_encode(
        msg in arb_control(),
        prefix in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut buf = prefix.clone();
        msg.encode_append(&mut buf).unwrap();
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &msg.encode().unwrap()[..]);
        // `encode_into` is the same body behind a `clear`.
        msg.encode_into(&mut buf).unwrap();
        prop_assert_eq!(buf, msg.encode().unwrap());
    }

    #[test]
    fn encode_append_of_too_many_cores_keeps_the_prefix_only(
        group in arb_group(),
        origin in arb_addr(),
        cores in proptest::collection::vec(arb_addr(), 9..40),
        prefix in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal, group, origin, target_core: origin, cores,
        };
        let mut buf = prefix.clone();
        prop_assert!(msg.encode_append(&mut buf).is_err());
        prop_assert_eq!(buf, prefix, "truncated back to the prefix, not cleared");
    }

    #[test]
    fn control_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = ControlMessage::decode(&bytes);
    }

    #[test]
    fn data_header_round_trips(
        group in arb_group(),
        core in arb_addr(),
        origin in arb_addr(),
        ttl in any::<u8>(),
        on_tree in prop_oneof![Just(0x00u8), Just(0xffu8)],
        flow in any::<u32>(),
    ) {
        let mut h = CbtDataHeader::new(group, core, origin, ttl);
        h.on_tree = on_tree;
        h.flow_id = flow;
        let bytes = h.encode();
        prop_assert_eq!(CbtDataHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn data_header_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = CbtDataHeader::decode(&bytes);
    }

    #[test]
    fn control_header_raw_round_trips(
        typ in 1u8..=8,
        code in 0u8..=2,
        group in arb_group(),
        origin in arb_addr(),
        target in arb_addr(),
        cores in arb_cores(),
    ) {
        // Echo messages interpret code specially; restrict accordingly.
        let code = if typ >= 7 { if code == 1 { ECHO_AGGREGATE } else { 0 } } else { code };
        let h = CbtControlHeader { typ, code, group, origin, target_core: target, cores };
        let bytes = h.encode().unwrap();
        prop_assert_eq!(CbtControlHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn igmp_round_trips(
        group in arb_group(),
        version in 1u8..=3,
        cores in proptest::collection::vec(arb_addr(), 1..=5),
        idx_seed in any::<u8>(),
        max_resp in any::<u8>(),
        general in any::<bool>(),
    ) {
        let idx = (idx_seed as usize % cores.len()) as u8;
        let msgs = vec![
            IgmpMessage::Query {
                group: if general { None } else { Some(group) },
                max_resp_tenths: max_resp,
            },
            IgmpMessage::Report { version, group },
            IgmpMessage::Leave { group },
            IgmpMessage::RpCore(RpCoreReport {
                group,
                code: 1,
                target_core_index: idx,
                cores: cores.clone(),
            }),
            IgmpMessage::TreeJoined { group, core: cores[0] },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            prop_assert_eq!(IgmpMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn igmp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = IgmpMessage::decode(&bytes);
    }

    #[test]
    fn data_packet_full_encap_cycle(
        group in arb_group(),
        src in arb_addr(),
        core in arb_addr(),
        hop_src in arb_addr(),
        hop_dst in arb_addr(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // host sends native -> DR encapsulates -> unicast hop ->
        // unwrap -> decapsulate for delivery.
        let native = DataPacket::new(src, group, ttl, payload.clone());
        let enc = CbtDataPacket::encapsulate(&native, core);
        let wire = enc.wrap_unicast(hop_src, hop_dst, None);
        let (outer, back) = CbtDataPacket::unwrap_outer(&wire).unwrap();
        prop_assert_eq!(outer.src, hop_src);
        prop_assert_eq!(outer.dst, hop_dst);
        prop_assert_eq!(&back, &enc);
        let delivered = back.decapsulate_for_delivery().unwrap();
        prop_assert_eq!(delivered.payload, payload);
        prop_assert_eq!(delivered.src, src);
        prop_assert_eq!(delivered.ttl, 1);
    }

    /// First-hop §5.1 encapsulation carries "the original datagram
    /// unchanged": `encapsulate(decode_bytes(x)).inner == x` byte for
    /// byte — for arrivals no `encode` would produce too (foreign
    /// ident and source port) — and by sharing `x`'s allocation, not
    /// by re-encoding. A packet whose TTL alone moved carries `x`
    /// patched; one edited in any other field is encoded afresh.
    #[test]
    fn encapsulation_carries_the_arrival_datagram(
        group in arb_group(),
        src in arb_addr(),
        core in arb_addr(),
        ttl in 2u8..=255,
        ident in any::<u16>(),
        src_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut hdr = cbt_wire::Ipv4Header::new(
            src, group.addr(), cbt_wire::IpProto::Udp, ttl, 8 + payload.len());
        hdr.ident = ident;
        let mut x = hdr.encode().to_vec();
        x.extend_from_slice(&cbt_wire::UdpHeader::wrap(src_port, cbt_wire::data::APP_PORT, &payload));
        let x = Bytes::from(x);
        let pkt = DataPacket::decode_bytes(&x).unwrap();
        let enc = CbtDataPacket::encapsulate(&pkt, core);
        prop_assert_eq!(&enc.inner, &x);
        prop_assert!(enc.inner.shares_allocation_with(&x), "shared, not re-encoded");
        prop_assert_eq!(enc.cbt.ip_ttl, ttl);

        let mut hop = pkt.clone();
        hop.ttl -= 1;
        let enc = CbtDataPacket::encapsulate(&hop, core);
        prop_assert_eq!(&enc.inner[..], &hop.to_frame()[..]);
        prop_assert_eq!(&enc.inner[..8], &x[..8], "ident survives the TTL patch");
        prop_assert_eq!(&enc.inner[12..], &x[12..], "and so does everything behind the checksum");

        let mut edited = pkt;
        edited.src = Addr(src.0 ^ 1);
        prop_assert_eq!(&CbtDataPacket::encapsulate(&edited, core).inner[..], &edited.encode()[..]);
    }

    /// Patch-and-forward: for every TTL a transit router can see, the
    /// arrival frame copied with its TTL byte and header checksum
    /// patched is, byte for byte, what encoding the decremented packet
    /// from scratch gives — and it still decodes. `src` is pinned so
    /// the header checksum is 0x0000 at `zero_at`: the sweep crosses
    /// that corner once on arrival (TTL = zero_at) and once on
    /// departure (TTL = zero_at + 1), and also takes the arrival with
    /// the checksum spelt 0xffff, the other one's-complement zero.
    #[test]
    fn patched_frame_equals_reencoding(
        group in arb_group(),
        src in arb_addr(),
        zero_at in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..=1500),
    ) {
        let src = src_with_zero_header_checksum(src, group, zero_at, payload.len());
        for ttl in 2..=255u8 {
            let mut arrivals = vec![DataPacket::new(src, group, ttl, payload.clone()).encode()];
            if ttl == zero_at {
                prop_assert_eq!(&arrivals[0][10..12], &[0u8, 0][..]);
                let mut minus_zero = arrivals[0].clone();
                minus_zero[10..12].copy_from_slice(&[0xff, 0xff]);
                arrivals.push(minus_zero);
            }
            for arrival in arrivals {
                let mut pkt = DataPacket::decode_bytes(&Bytes::from(arrival)).unwrap();
                pkt.ttl -= 1;
                let patched = pkt.to_frame();
                prop_assert_eq!(&patched, &pkt.encode(), "ttl {}", ttl);
                prop_assert_eq!(DataPacket::decode(&patched).unwrap(), pkt);
            }
        }
    }

    /// The write-into form of patch-and-forward against an oracle that
    /// shares no code with it: for an arrival no `encode` would produce
    /// (foreign ident and source port, link-layer padding behind the
    /// datagram) and a buffer that is dirty and longer than the frame,
    /// `write_frame` leaves the arrival's header re-encoded with the
    /// new TTL followed by its UDP shell, untouched — which is also
    /// what `to_frame` returns. Padding is not part of the datagram.
    #[test]
    fn write_frame_replaces_a_dirty_buffer_with_the_patched_arrival(
        group in arb_group(),
        src in arb_addr(),
        ttl in 2u8..=255,
        ident in any::<u16>(),
        src_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        padding in 0usize..12,
        dirt in any::<u8>(),
    ) {
        let mut hdr = cbt_wire::Ipv4Header::new(
            src, group.addr(), cbt_wire::IpProto::Udp, ttl, 8 + payload.len());
        hdr.ident = ident;
        let shell = cbt_wire::UdpHeader::wrap(src_port, cbt_wire::data::APP_PORT, &payload);
        let mut arrival = hdr.encode().to_vec();
        arrival.extend_from_slice(&shell);
        arrival.resize(arrival.len() + padding, 0x5a);
        let mut pkt = DataPacket::decode_bytes(&Bytes::from(arrival)).unwrap();
        pkt.ttl -= 1;

        let mut want = cbt_wire::Ipv4Header { ttl: ttl - 1, ..hdr }.encode().to_vec();
        want.extend_from_slice(&shell);
        let mut buf = vec![dirt; want.len() + 1 + usize::from(dirt)];
        pkt.write_frame(&mut buf);
        prop_assert_eq!(&buf, &want);
        prop_assert_eq!(&pkt.to_frame(), &want);

        // A locally built packet (nothing to patch) is encoded, into
        // the same dirty buffer.
        let local = DataPacket::new(src, group, ttl, payload);
        buf.resize(want.len() + 40, dirt);
        local.write_frame(&mut buf);
        prop_assert_eq!(&buf, &local.encode());
    }

    /// Every other write-into encoder leaves, in a dirty and longer
    /// buffer, exactly what its allocating form returns.
    #[test]
    fn write_into_forms_match_their_allocating_forms(
        group in arb_group(),
        src in arb_addr(),
        dst in arb_addr(),
        ttl in any::<u8>(),
        ports in (any::<u16>(), any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        msg in arb_control(),
        dirt in any::<u8>(),
    ) {
        use cbt_wire::ipv4::{build_datagram, build_datagram_into};
        use cbt_wire::{IpProto, UdpHeader};
        let dirty = || vec![dirt; 400 + usize::from(dirt)];

        let mut buf = dirty();
        build_datagram_into(src, dst, IpProto::Cbt, ttl, &payload, &mut buf);
        prop_assert_eq!(&buf, &build_datagram(src, dst, IpProto::Cbt, ttl, &payload));

        let mut buf = dirty();
        UdpHeader::wrap_into(ports.0, ports.1, &payload, &mut buf);
        prop_assert_eq!(&buf, &UdpHeader::wrap(ports.0, ports.1, &payload));

        let mut buf = dirty();
        cbt_wire::encode_native_into(src, group, ttl, &payload, &mut buf);
        prop_assert_eq!(&buf, &cbt_wire::encode_native(src, group, ttl, &payload));
        prop_assert_eq!(&buf, &DataPacket::new(src, group, ttl, payload).encode());

        // A control message on the wire: UDP on the port its type
        // selects, inside IP — built in place, no intermediate buffer.
        let port = if msg.is_primary() { cbt_wire::CBT_PRIMARY_PORT } else { cbt_wire::CBT_AUX_PORT };
        let want = build_datagram(
            src, dst, IpProto::Udp, ttl, &UdpHeader::wrap(port, port, &msg.encode().unwrap()));
        let mut buf = dirty();
        msg.write_datagram(src, dst, ttl, &mut buf).unwrap();
        prop_assert_eq!(&buf, &want);
    }

    /// IGMP the same way: `encode_append` keeps the prefix and appends
    /// exactly `encode`, and the datagram form is that inside a TTL-1
    /// IP header.
    #[test]
    fn igmp_write_forms_match_encode(
        group in arb_group(),
        src in arb_addr(),
        dst in arb_addr(),
        cores in arb_cores(),
        target in 0u8..8,
        which in 0u8..5,
        prefix in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let msg = match which {
            0 => IgmpMessage::Query { group: Some(group), max_resp_tenths: target },
            1 => IgmpMessage::Report { version: 2, group },
            2 => IgmpMessage::Leave { group },
            3 => IgmpMessage::TreeJoined { group, core: dst },
            _ => IgmpMessage::RpCore(RpCoreReport {
                code: 1, group, target_core_index: target, cores,
            }),
        };
        let mut buf = prefix.clone();
        msg.encode_append(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &msg.encode()[..]);
        msg.write_datagram(src, dst, &mut buf);
        let want = cbt_wire::ipv4::build_datagram(src, dst, cbt_wire::IpProto::Igmp, 1, &msg.encode());
        prop_assert_eq!(&buf, &want);
    }
}
