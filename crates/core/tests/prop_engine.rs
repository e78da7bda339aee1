//! Property tests on the protocol engine: arbitrary (including
//! adversarial) sequences of [`Input`]s — control, IGMP and data
//! messages, local joins and leaves, timers, with the clock advancing
//! between them — must never panic the engine, and its structural
//! invariants must survive any sequence. Every sequence also drives a
//! two-shard [`ShardedRouter`], whose four fuzzed groups land on both
//! shards.
//!
//! This is the sans-I/O payoff: the whole router is a pure state
//! machine, so it can be fuzzed directly with no sockets or clocks.

use cbt::{shard_of, CbtConfig, CbtRouter, Input, RouteLookup, RouterAction, ShardedRouter};
use cbt_netsim::{SimDuration, SimTime};
use cbt_obs::ObsSnapshot;
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, NetworkSpec, RouterId};
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

/// 1 LAN + 2 p2p ifaces, with routes to both cores via if1; groups 2
/// and 3 have managed core mappings, so a local join of them
/// originates a join.
fn net() -> (NetworkSpec, RouterId, CbtConfig, impl Fn() -> Box<dyn RouteLookup>) {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let hop = Hop {
        iface: IfIndex(1),
        router: RouterId(1),
        addr: Addr::from_octets(172, 31, 0, 2),
        dist: 1,
    };
    let routes = move || -> Box<dyn RouteLookup> {
        Box::new(BTreeMap::from([(core_a(), hop), (core_b(), hop)]))
    };
    let cfg = CbtConfig::fast()
        .with_mapping(GroupId::numbered(2), vec![core_a()])
        .with_mapping(GroupId::numbered(3), vec![core_b(), core_a()]);
    (b.build(), me, cfg, routes)
}

/// The same router as one engine and as two shards.
fn routers() -> (CbtRouter, ShardedRouter) {
    let (net, me, cfg, routes) = net();
    let engine = CbtRouter::new(&net, me, cfg.clone(), routes(), SimTime::ZERO);
    let sharded =
        ShardedRouter::new(&net, me, CbtConfig { shards: 2, ..cfg }, routes, SimTime::ZERO);
    (engine, sharded)
}

/// One fuzzed event: advance the clock by this many milliseconds, then
/// step with the input.
type Event = (u32, Input);

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

fn arb_data() -> impl Strategy<Value = Input> {
    let native = (0u32..3, 1u8..120, arb_group(), 0u8..64).prop_map(|(iface, src, group, ttl)| {
        let src = Addr::from_octets(10, 1, 0, src);
        let pkt = DataPacket::new(src, group, ttl, b"x".to_vec());
        // Fuzz both honest (link_src == ip src) and spoofed link senders.
        let link_src = if ttl % 2 == 0 { src } else { Addr::from_octets(172, 31, 0, 2) };
        Input::NativeData { iface: IfIndex(iface), link_src, pkt }
    });
    let cbt =
        (0u32..3, any::<bool>(), arb_group(), 0u8..64).prop_map(|(iface, on_tree, group, ttl)| {
            let native = DataPacket::new(Addr::from_octets(10, 9, 0, 5), group, ttl, b"y".to_vec());
            let mut pkt = CbtDataPacket::encapsulate(&native, core_a());
            pkt.cbt.on_tree =
                if on_tree { cbt_wire::header::ON_TREE } else { cbt_wire::header::OFF_TREE };
            Input::CbtData {
                iface: IfIndex(iface),
                outer_src: Addr::from_octets(172, 31, 0, 2),
                pkt,
            }
        });
    prop_oneof![native, cbt]
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0u32..3, 1u8..120, arb_control()).prop_map(|(iface, src, msg)| Input::Control {
            iface: IfIndex(iface),
            src: Addr::from_octets(172, 31, 0, src),
            msg
        }),
        (1u8..120, arb_igmp()).prop_map(|(src, msg)| Input::Igmp {
            iface: IfIndex(0),
            src: Addr::from_octets(10, 1, 0, src),
            msg
        }),
        arb_data(),
        arb_group().prop_map(Input::Join),
        arb_group().prop_map(Input::Leave),
        Just(Input::Timer),
    ]
}

/// Most events arrive at the same instant as the one before; a timer
/// input always waits for the clock to move first.
fn arb_event() -> impl Strategy<Value = Event> {
    (0u8..4, 1u32..5_000, arb_input()).prop_map(|(pick, ms, input)| {
        let waits = pick == 0 || input == Input::Timer;
        (if waits { ms } else { 0 }, input)
    })
}

/// Keepalive schedules: a member joins group 2 and the up link's peer
/// acks, becoming its parent; then timers, that parent's echo replies
/// and further acks arrive at random gaps. A reply that comes after
/// missed echoes moves the clock's deadline later, which the fully
/// random inputs above rarely reach: they seldom instate a parent.
fn arb_keepalive_events() -> impl Strategy<Value = Vec<Event>> {
    let (g, parent) = (GroupId::numbered(2), Addr::from_octets(172, 31, 0, 2));
    let from_parent = move |msg| Input::Control { iface: IfIndex(1), src: parent, msg };
    let ack = move || {
        from_parent(ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g,
            origin: parent,
            target_core: core_a(),
            cores: vec![core_a()],
        })
    };
    let step = (0u32..6_000, 0u8..5).prop_map(move |(ms, kind)| {
        let input = match kind {
            0 | 1 => Input::Timer,
            2 | 3 => from_parent(ControlMessage::EchoReply {
                group: g,
                origin: parent,
                group_mask: None,
            }),
            _ => ack(),
        };
        (ms, input)
    });
    proptest::collection::vec(step, 0..80).prop_map(move |tail| {
        let mut events = vec![(0, Input::Join(g)), (10, ack())];
        events.extend(tail);
        events
    })
}

/// Drives a fresh engine and a fresh two-shard router through the
/// whole event sequence, checking invariants (the timer heap against
/// the records among them) on the engine and on every shard after
/// every step, and at the end that the two emitted
/// the same, group by group: each group's sends come from the one
/// shard that owns it, and the group-less ones (general queries) from
/// the first shard only. Returns what each emitted.
fn drive(events: &[Event]) -> (CbtRouter, ShardedRouter, Vec<RouterAction>, Vec<RouterAction>) {
    let (mut e, mut r) = routers();
    let (mut out_e, mut out_r) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    for (ms, input) in events {
        now += SimDuration::from_millis(u64::from(*ms));
        e.step(now, input.clone(), &mut out_e);
        r.step(now, input.clone(), &mut out_r);
        check_invariants(&e);
        for k in 0..r.local_count() {
            check_invariants(r.shard(k));
        }
        let _ = (r.next_wakeup(), r.obs_snapshot());
    }
    assert_eq!(by_group(&out_e), by_group(&out_r), "one engine and two shards emit differently");
    (e, r, out_e, out_r)
}

/// Emissions split by the group they concern, each group's in order.
fn by_group(out: &[RouterAction]) -> BTreeMap<Option<GroupId>, Vec<&RouterAction>> {
    let mut split: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for a in out {
        split.entry(a.group()).or_default().push(a);
    }
    split
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
    // Every deadline a record holds has a heap entry, and the heap head
    // is live: no clock is lost, and `next_wakeup` is exact.
    if let Err(e) = e.check_timers() {
        panic!("timer heap against the records: {e}");
    }
    // next_wakeup, counters and accessors never panic.
    let _ = e.next_wakeup();
    let _ = e.obs_snapshot();
}

/// The observable state of one engine: per-group parent and child
/// count, and every counter.
fn state(e: &CbtRouter) -> (Vec<(GroupId, Option<Addr>, usize)>, ObsSnapshot) {
    let fib = e.fib().iter().map(|(g, en)| (g, en.parent.map(|p| p.addr), en.children.len()));
    (fib.collect(), e.obs_snapshot())
}

#[test]
fn fuzzed_groups_reach_both_shards() {
    let owners: Vec<usize> = (0..4).map(|i| shard_of(GroupId::numbered(i), 2)).collect();
    assert!(owners.contains(&0) && owners.contains(&1), "owners {owners:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// No sequence of inputs panics the engine or a shard, or breaks
    /// FIB structure.
    #[test]
    fn engine_survives_arbitrary_inputs(events in proptest::collection::vec(arb_event(), 0..120)) {
        drive(&events);
    }

    /// A parent's keepalive clock, moved by replies and re-instated by
    /// acks, keeps a heap entry at every deadline it holds.
    #[test]
    fn keepalive_clocks_keep_their_heap_entries(events in arb_keepalive_events()) {
        drive(&events);
    }

    /// Engines are deterministic state machines: the same event
    /// sequence, every input kind included, yields identical emissions
    /// and observable state — on one engine and on every shard.
    #[test]
    fn engine_is_deterministic(events in proptest::collection::vec(arb_event(), 0..60)) {
        let run = |events: &[Event]| {
            let (e, r, out_e, out_r) = drive(events);
            let shards: Vec<_> = (0..r.local_count()).map(|k| state(r.shard(k))).collect();
            (out_e, state(&e), out_r, shards)
        };
        prop_assert_eq!(run(&events), run(&events));
    }
}
