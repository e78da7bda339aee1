//! Property tests on the protocol engine: arbitrary (including
//! adversarial) control/IGMP/data inputs must never panic the engine,
//! and its structural invariants must survive any input sequence.
//!
//! This is the sans-I/O payoff: the whole router is a pure state
//! machine, so it can be fuzzed directly with no sockets or clocks.

use cbt::{CbtConfig, CbtRouter};
use cbt_netsim::SimTime;
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::{
    AckSubcode, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage, JoinSubcode,
    RpCoreReport,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn core_a() -> Addr {
    Addr::from_octets(10, 255, 0, 77)
}

fn core_b() -> Addr {
    Addr::from_octets(10, 255, 0, 88)
}

/// 1 LAN + 2 p2p ifaces, with routes to both cores via if1.
fn engine() -> CbtRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let mut routes = BTreeMap::new();
    for c in [core_a(), core_b()] {
        routes.insert(
            c,
            Hop {
                iface: IfIndex(1),
                router: RouterId(1),
                addr: Addr::from_octets(172, 31, 0, 2),
                dist: 1,
            },
        );
    }
    CbtRouter::new(&net, me, CbtConfig::fast(), Box::new(routes), SimTime::ZERO)
}

#[derive(Debug, Clone)]
enum Input {
    Control { iface: u8, src_last: u8, msg: ControlMessage },
    Igmp { src_last: u8, msg: IgmpMessage },
    NativeData { iface: u8, src_last: u8, ttl: u8 },
    CbtData { iface: u8, on_tree: bool, ttl: u8 },
    Tick { advance_ms: u32 },
}

fn arb_group() -> impl Strategy<Value = GroupId> {
    (0u16..4).prop_map(GroupId::numbered)
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    prop_oneof![
        (1u8..=6).prop_map(|x| Addr::from_octets(172, 31, 0, x)), // link peers
        (1u8..=5).prop_map(|x| Addr::from_octets(10, 1, 0, x)),   // LAN routers
        (100u8..=103).prop_map(|x| Addr::from_octets(10, 1, 0, x)), // LAN hosts
        Just(core_a()),
        Just(core_b()),
    ]
}

fn arb_control() -> impl Strategy<Value = ControlMessage> {
    let cores = prop_oneof![
        Just(vec![core_a()]),
        Just(vec![core_a(), core_b()]),
        Just(vec![core_b(), core_a()]),
        Just(Vec::new()),
    ];
    (0u8..8, arb_group(), arb_addr(), arb_addr(), cores, 0u8..3).prop_map(
        |(which, group, origin, target, cores, sub)| match which {
            0 => ControlMessage::JoinRequest {
                subcode: match sub {
                    0 => JoinSubcode::ActiveJoin,
                    1 => JoinSubcode::RejoinActive,
                    _ => JoinSubcode::RejoinNactive,
                },
                group,
                origin,
                target_core: target,
                cores,
            },
            1 => ControlMessage::JoinAck {
                subcode: match sub {
                    0 => AckSubcode::Normal,
                    1 => AckSubcode::ProxyAck,
                    _ => AckSubcode::RejoinNactive,
                },
                group,
                origin,
                target_core: target,
                cores,
            },
            2 => ControlMessage::JoinNack { group, origin, target_core: target },
            3 => ControlMessage::QuitRequest { group, origin },
            4 => ControlMessage::QuitAck { group, origin },
            5 => ControlMessage::FlushTree { group, origin },
            6 => ControlMessage::EchoRequest { group, origin, group_mask: None },
            _ => ControlMessage::EchoReply { group, origin, group_mask: None },
        },
    )
}

fn arb_igmp() -> impl Strategy<Value = IgmpMessage> {
    (0u8..5, arb_group(), 0u8..3).prop_map(|(which, group, idx)| match which {
        0 => IgmpMessage::Query { group: None, max_resp_tenths: 20 },
        1 => IgmpMessage::Query { group: Some(group), max_resp_tenths: 10 },
        2 => IgmpMessage::Report { version: 3, group },
        3 => IgmpMessage::Leave { group },
        _ => IgmpMessage::RpCore(RpCoreReport {
            group,
            code: 1,
            target_core_index: idx.min(1),
            cores: vec![core_a(), core_b()],
        }),
    })
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0u8..3, 1u8..120, arb_control()).prop_map(|(iface, src_last, msg)| Input::Control {
            iface,
            src_last,
            msg
        }),
        (1u8..120, arb_igmp()).prop_map(|(src_last, msg)| Input::Igmp { src_last, msg }),
        (0u8..3, 1u8..120, 0u8..64).prop_map(|(iface, src_last, ttl)| Input::NativeData {
            iface,
            src_last,
            ttl
        }),
        (0u8..3, any::<bool>(), 0u8..64).prop_map(|(iface, on_tree, ttl)| Input::CbtData {
            iface,
            on_tree,
            ttl
        }),
        (1u32..5_000).prop_map(|advance_ms| Input::Tick { advance_ms }),
    ]
}

/// Drives a fresh engine through the whole input sequence, checking
/// invariants after every step.
fn drive(inputs: &[Input]) {
    let mut e = engine();
    let mut now = SimTime::ZERO;
    for input in inputs {
        match input.clone() {
            Input::Control { iface, src_last, msg } => {
                let src = Addr::from_octets(172, 31, 0, src_last);
                let _ = e.handle_control(now, IfIndex(u32::from(iface)), src, msg);
            }
            Input::Igmp { src_last, msg } => {
                let src = Addr::from_octets(10, 1, 0, src_last);
                let _ = e.handle_igmp(now, IfIndex(0), src, msg);
            }
            Input::NativeData { iface, src_last, ttl } => {
                let src = Addr::from_octets(10, 1, 0, src_last);
                let pkt = DataPacket::new(src, GroupId::numbered(1), ttl, b"x".to_vec());
                // Fuzz both honest (link_src == ip src) and spoofed
                // link senders.
                let link_src = if ttl % 2 == 0 { src } else { Addr::from_octets(172, 31, 0, 2) };
                let mut act = Vec::new();
                e.handle_native_data(now, IfIndex(u32::from(iface)), link_src, pkt, &mut act);
            }
            Input::CbtData { iface, on_tree, ttl } => {
                let native = DataPacket::new(
                    Addr::from_octets(10, 9, 0, 5),
                    GroupId::numbered(1),
                    ttl,
                    b"y".to_vec(),
                );
                let mut pkt = CbtDataPacket::encapsulate(&native, core_a());
                pkt.cbt.on_tree =
                    if on_tree { cbt_wire::header::ON_TREE } else { cbt_wire::header::OFF_TREE };
                let mut act = Vec::new();
                e.handle_cbt_data(
                    now,
                    IfIndex(u32::from(iface)),
                    Addr::from_octets(172, 31, 0, 2),
                    pkt,
                    &mut act,
                );
            }
            Input::Tick { advance_ms } => {
                now += cbt_netsim::SimDuration::from_millis(u64::from(advance_ms));
                let _ = e.on_timer(now);
            }
        }
        check_invariants(&e);
    }
}

fn check_invariants(e: &CbtRouter) {
    for (g, entry) in e.fib().iter() {
        // A router is never its own parent or child.
        if let Some(p) = entry.parent {
            assert!(!e.is_my_addr(p.addr), "{g}: self as parent");
            assert!(!entry.has_child(p.addr), "{g}: parent also a child");
        }
        assert!(entry.children.len() <= cbt::MAX_CHILDREN, "{g}: child overflow");
        // Child list has no duplicates.
        let mut addrs: Vec<Addr> = entry.children.iter().map(|c| c.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), entry.children.len(), "{g}: duplicate children");
        for c in &entry.children {
            assert!(!e.is_my_addr(c.addr), "{g}: self as child");
        }
    }
    // next_wakeup, counters and accessors never panic.
    let _ = e.next_wakeup();
    let _ = e.obs_snapshot();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// No sequence of inputs panics the engine or breaks FIB structure.
    #[test]
    fn engine_survives_arbitrary_inputs(inputs in proptest::collection::vec(arb_input(), 0..120)) {
        drive(&inputs);
    }

    /// Engines are deterministic state machines: the same input
    /// sequence yields identical observable state.
    #[test]
    fn engine_is_deterministic(inputs in proptest::collection::vec(arb_input(), 0..60)) {
        let run = |inputs: &[Input]| {
            let mut e = engine();
            let mut now = SimTime::ZERO;
            let mut outputs = 0usize;
            for input in inputs {
                match input.clone() {
                    Input::Control { iface, src_last, msg } => {
                        let src = Addr::from_octets(172, 31, 0, src_last);
                        outputs += e.handle_control(now, IfIndex(u32::from(iface)), src, msg).len();
                    }
                    Input::Igmp { src_last, msg } => {
                        let src = Addr::from_octets(10, 1, 0, src_last);
                        outputs += e.handle_igmp(now, IfIndex(0), src, msg).len();
                    }
                    Input::Tick { advance_ms } => {
                        now += cbt_netsim::SimDuration::from_millis(u64::from(advance_ms));
                        outputs += e.on_timer(now).len();
                    }
                    _ => {}
                }
            }
            let fib: Vec<(GroupId, Option<Addr>, usize)> = e
                .fib()
                .iter()
                .map(|(g, en)| (g, en.parent.map(|p| p.addr), en.children.len()))
                .collect();
            (outputs, fib, e.obs_snapshot())
        };
        prop_assert_eq!(run(&inputs), run(&inputs));
    }
}
