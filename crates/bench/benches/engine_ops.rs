//! Control-plane microbenches: join processing rate at an on-tree
//! router (ack generation) and at a forwarding router, keepalive
//! service cost with many groups.

use cbt::{CbtConfig, CbtRouter, Input, RouterAction};
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

/// Steps `e` with `input` and returns what it emitted.
fn step(e: &mut CbtRouter, now: SimTime, input: Input) -> Vec<RouterAction> {
    let mut out = Vec::new();
    e.step(now, input, &mut out);
    out
}

/// A child's join for group 1 toward `core`, arriving on if2.
fn child_join(core: Addr) -> Input {
    Input::Control {
        iface: IfIndex(2),
        src: Addr::from_octets(172, 31, 0, 6),
        msg: ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: GroupId::numbered(1),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core,
            cores: vec![core],
        },
    }
}

/// Join termination at a core: the hot path of group setup.
fn bench_join_termination(c: &mut Criterion) {
    c.bench_function("engine/join_terminate_at_core", |b| {
        b.iter_batched(
            || {
                let mut e = engine_with_routes();
                let my_id = e.id_addr();
                // Prime: become the core for the group.
                step(&mut e, SimTime::ZERO, child_join(my_id));
                e
            },
            |mut e| {
                let my_id = e.id_addr();
                // A refreshed join from the same child: pure ack path.
                step(&mut e, black_box(SimTime::from_secs(1)), child_join(my_id))
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
                        let join = ControlMessage::JoinRequest {
                            subcode: JoinSubcode::ActiveJoin,
                            group: g,
                            origin: Addr::from_octets(10, 9, 0, 1),
                            target_core: core(),
                            cores: vec![core()],
                        };
                        let down = Addr::from_octets(172, 31, 0, 6);
                        step(
                            &mut e,
                            SimTime::ZERO,
                            Input::Control { iface: IfIndex(2), src: down, msg: join },
                        );
                        let ack = ControlMessage::JoinAck {
                            subcode: AckSubcode::Normal,
                            group: g,
                            origin: Addr::from_octets(10, 9, 0, 1),
                            target_core: core(),
                            cores: vec![core()],
                        };
                        let up = Addr::from_octets(172, 31, 0, 2);
                        step(
                            &mut e,
                            SimTime::ZERO,
                            Input::Control { iface: IfIndex(1), src: up, msg: ack },
                        );
                    }
                    e
                },
                |mut e| step(&mut e, black_box(SimTime::from_secs(30)), Input::Timer),
                criterion::BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(benches, bench_join_termination, bench_keepalive_service);
criterion_main!(benches);
