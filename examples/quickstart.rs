//! Quickstart: the smallest complete CBT deployment.
//!
//! Three routers in a row, a receiver on one end, a sender on the
//! other, the middle router as the group's core. Prints every protocol
//! step the spec describes: the IGMP trigger, the hop-by-hop join, the
//! ack retrace, and finally data flowing down the shared tree.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Entity, PacketKind, SimTime, WorldConfig};
use cbt_topology::NetworkBuilder;
use cbt_wire::GroupId;

fn main() {
    // 1. Describe the network:  A —[S0]— R0 ——— R1 ——— R2 —[S1]— B
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1"); // will serve as the core
    let r2 = b.router("R2");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let receiver = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r2);
    let sender = b.host("B", s1);
    let net = b.build();

    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);
    println!("network: A —[S0]— R0 —— R1(core {core}) —— R2 —[S1]— B");
    println!("group:   {group}\n");

    // 2. Run it in the deterministic simulator with the spec's §9
    //    timers compressed 10× so the demo finishes instantly.
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), WorldConfig::default());
    cw.host(receiver).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(sender).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(sender).send_at(SimTime::from_secs(3), group, b"hello, multicast".to_vec(), 16);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));

    // 3. Show the protocol conversation.
    println!("packet ledger:");
    for e in cw.world.trace().entries() {
        let who = match e.from {
            Entity::Router(r) => cw.net.routers[r.0 as usize].name.clone(),
            Entity::Host(h) => format!("host {}", cw.net.hosts[h.0 as usize].name),
        };
        let what = match e.kind {
            PacketKind::Control(c) => format!("CBT {c:?}"),
            PacketKind::Igmp(i) => format!("IGMP {i:?}"),
            PacketKind::DataNative => "data (native IP multicast)".into(),
            PacketKind::DataCbt => "data (CBT encapsulated)".into(),
            PacketKind::Other => "???".into(),
        };
        println!("  t={:>7.3}s  {:8}  {}", e.at.as_secs_f64(), who, what);
    }

    // 4. Show the resulting tree and the delivery.
    println!("\ntree state:");
    for (name, r) in [("R0", r0), ("R1", r1), ("R2", r2)] {
        let engine = cw.router(r).sharded();
        println!(
            "  {name}: on_tree={} parent={:?} children={:?}",
            engine.is_on_tree(group),
            engine.parent_of(group),
            engine.children_of(group),
        );
    }
    let got = cw.host(receiver).received();
    println!("\nhost A received {} packet(s):", got.len());
    for d in got {
        println!(
            "  t={:.3}s from {}: {:?}",
            d.at.as_secs_f64(),
            d.src,
            String::from_utf8_lossy(d.payload)
        );
    }
    assert_eq!(cw.host(receiver).received().len(), 1, "exactly-once delivery");
    println!("\nok: exactly-once delivery over the shared tree.");
}
