//! The live deployment shape: every router and host is a concurrent
//! tokio task with wall-clock timers, exchanging the byte-exact wire
//! formats over an in-process fabric. The same engine code as the
//! simulator — different executor.
//!
//! Runs in real time (a few seconds).
//!
//! ```text
//! cargo run --example live_tokio
//! ```

use cbt::CbtConfig;
use cbt_node::LiveNet;
use cbt_obs::CtlKind;
use cbt_topology::NetworkBuilder;
use cbt_wire::GroupId;
use std::time::Duration;

#[tokio::main]
async fn main() {
    // A — R0 — R1(core) — R2 — B, plus a third leaf C under R1.
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let a = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r2);
    let bb = b.host("B", s1);
    let s2 = b.lan("S2");
    b.attach(s2, r1);
    let c = b.host("C", s2);
    let net = b.build();
    let core = net.router_addr(r1);
    let group = GroupId::numbered(1);

    println!("spawning 3 router tasks + 3 host tasks on tokio…");
    let live = LiveNet::spawn(net, CbtConfig::fast());

    // Hosts join; the joins race through the concurrent routers.
    live.host_join(a, group, vec![core]);
    live.host_join(bb, group, vec![core]);
    live.host_join(c, group, vec![core]);
    tokio::time::sleep(Duration::from_secs(2)).await;

    for (name, r) in [("R0", r0), ("R1", r1), ("R2", r2)] {
        let snap = live.router_snapshot(r, group).await.expect("router alive");
        println!(
            "  {name}: on_tree={} parent={:?} children={} (echo reqs sent: {})",
            snap.on_tree,
            snap.parent,
            snap.children.len(),
            snap.obs.ctl.sent(CtlKind::EchoRequest)
        );
    }

    println!("\nB transmits; watching deliveries…");
    live.host_send(bb, group, b"live from tokio".to_vec(), 16);
    tokio::time::sleep(Duration::from_secs(1)).await;

    for (name, h) in [("A", a), ("C", c)] {
        let got = live.host_received(h).await.expect("host alive");
        println!(
            "  host {name} received {}: {:?}",
            got.len(),
            got.iter().map(|d| String::from_utf8_lossy(d.payload).into_owned()).collect::<Vec<_>>()
        );
        assert_eq!(got.len(), 1);
    }

    // Let a few echo keepalive rounds pass (fast interval: 3 s).
    println!("\nletting keepalives run for 7s of wall-clock time…");
    tokio::time::sleep(Duration::from_secs(7)).await;
    let snap = live.router_snapshot(r0, group).await.unwrap();
    let echoes = snap.obs.ctl.sent(CtlKind::EchoRequest);
    println!(
        "  R0 sent {echoes} echo requests, detected {} parent failures",
        snap.obs.parent_failures
    );
    assert!(echoes >= 2);
    assert_eq!(snap.obs.parent_failures, 0);

    live.shutdown();
    println!("\nok: the same engine that passed the deterministic suite ran live.");
}
