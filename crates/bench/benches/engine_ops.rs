//! Control-plane microbenches: join processing rate at an on-tree
//! router (ack generation) and at a forwarding router, keepalive
//! service cost with many groups.

use cbt::{CbtConfig, CbtRouter};
use cbt_netsim::SimTime;
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, JoinSubcode};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

fn engine_with_routes() -> CbtRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let mut routes = BTreeMap::new();
    routes.insert(
        core(),
        Hop {
            iface: IfIndex(1),
            router: RouterId(1),
            addr: Addr::from_octets(172, 31, 0, 2),
            dist: 1,
        },
    );
    CbtRouter::new(&net, me, CbtConfig::default(), Box::new(routes), SimTime::ZERO)
}

/// Join termination at a core: the hot path of group setup.
fn bench_join_termination(c: &mut Criterion) {
    c.bench_function("engine/join_terminate_at_core", |b| {
        b.iter_batched(
            || {
                let mut e = engine_with_routes();
                let my_id = e.id_addr();
                // Prime: become the core for the group.
                e.handle_control(
                    SimTime::ZERO,
                    IfIndex(2),
                    Addr::from_octets(172, 31, 0, 6),
                    ControlMessage::JoinRequest {
                        subcode: JoinSubcode::ActiveJoin,
                        group: GroupId::numbered(1),
                        origin: Addr::from_octets(10, 9, 0, 1),
                        target_core: my_id,
                        cores: vec![my_id],
                    },
                );
                e
            },
            |mut e| {
                let my_id = e.id_addr();
                // A refreshed join from the same child: pure ack path.
                e.handle_control(
                    black_box(SimTime::from_secs(1)),
                    IfIndex(2),
                    Addr::from_octets(172, 31, 0, 6),
                    ControlMessage::JoinRequest {
                        subcode: JoinSubcode::ActiveJoin,
                        group: GroupId::numbered(1),
                        origin: Addr::from_octets(10, 9, 0, 1),
                        target_core: my_id,
                        cores: vec![my_id],
                    },
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Echo keepalive service with many concurrent groups (the per-tick
/// cost a busy router pays).
fn bench_keepalive_service(c: &mut Criterion) {
    for groups in [16usize, 128] {
        c.bench_function(&format!("engine/echo_service_{groups}_groups"), |b| {
            b.iter_batched(
                || {
                    let mut e = engine_with_routes();
                    for n in 0..groups {
                        let g = GroupId::numbered(n as u16);
                        e.learn_cores(g, &[core()]);
                        // Manufacture on-tree state via a forwarded join + ack.
                        e.handle_control(
                            SimTime::ZERO,
                            IfIndex(2),
                            Addr::from_octets(172, 31, 0, 6),
                            ControlMessage::JoinRequest {
                                subcode: JoinSubcode::ActiveJoin,
                                group: g,
                                origin: Addr::from_octets(10, 9, 0, 1),
                                target_core: core(),
                                cores: vec![core()],
                            },
                        );
                        e.handle_control(
                            SimTime::ZERO,
                            IfIndex(1),
                            Addr::from_octets(172, 31, 0, 2),
                            ControlMessage::JoinAck {
                                subcode: AckSubcode::Normal,
                                group: g,
                                origin: Addr::from_octets(10, 9, 0, 1),
                                target_core: core(),
                                cores: vec![core()],
                            },
                        );
                    }
                    e
                },
                |mut e| e.on_timer(black_box(SimTime::from_secs(30))),
                criterion::BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(benches, bench_join_termination, bench_keepalive_service);
criterion_main!(benches);
