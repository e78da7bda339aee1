//! §6.1 core-list rotation during *initial* tree building. Two distinct
//! failure shapes force the two distinct code paths:
//!
//! * **IGP-visible failure** — the primary core is down and routing
//!   knows it. The joining router skips it at launch time (`launch_join`
//!   walks the core list for the first *reachable* core) and the first
//!   JOIN_REQUEST already targets the secondary.
//! * **Silent failure** — the primary core is IGP-reachable but eats
//!   every CBT message (crashed control plane, live forwarding plane).
//!   Joins toward it are sent and time out; the pend-join retry logic
//!   (`fail_pending`) must rotate to the next core inside the
//!   RECONNECT-TIMEOUT budget.
//!
//! Both must converge on a working tree rooted at the secondary core,
//! with end-to-end delivery between members on different arms.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Entity, Outbox, SimDuration, SimNode, SimTime, WorldConfig};
use cbt_topology::{HostId, IfIndex, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::{Addr, GroupId};

/// Y-shape: member arms R3 (host X) and R4 (host Y) hang off hub R0;
/// the cores R1 (primary) and R2 (secondary) sit on their own arms.
struct Y {
    net: NetworkSpec,
    primary: RouterId,
    secondary: RouterId,
    x: HostId,
    y: HostId,
}

fn y_net() -> Y {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0-hub");
    let r1 = b.router("R1-core1");
    let r2 = b.router("R2-core2");
    let r3 = b.router("R3");
    let r4 = b.router("R4");
    for r in [r1, r2, r3, r4] {
        b.link(r0, r, 1);
    }
    let s3 = b.lan("S3");
    b.attach(s3, r3);
    let x = b.host("X", s3);
    let s4 = b.lan("S4");
    b.attach(s4, r4);
    let y = b.host("Y", s4);
    Y { net: b.build(), primary: r1, secondary: r2, x, y }
}

/// Joins both hosts with the core list [primary, secondary], sends one
/// payload each way late in the run, and asserts delivery plus a tree
/// rooted at the secondary core.
fn join_send_and_check(mut cw: CbtWorld, yy: &Y, label: &str, expect_root: bool) {
    let group = GroupId::numbered(9);
    let cores = vec![cw.net.router_addr(yy.primary), cw.net.router_addr(yy.secondary)];
    cw.host(yy.x).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(yy.y).join_at(SimTime::from_secs(1) + SimDuration::from_millis(200), group, cores);
    // Leave room for pend-join timeouts + rotation before sending.
    cw.host(yy.x).send_at(SimTime::from_secs(20), group, b"from-x".to_vec(), 16);
    cw.host(yy.y).send_at(SimTime::from_secs(21), group, b"from-y".to_vec(), 16);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(25));

    let sec = cw.router(yy.secondary).sharded().group_view(group).on_tree;
    assert!(sec, "{label}: secondary core serves the tree");
    if expect_root {
        assert!(
            cw.router(yy.secondary).sharded().group_view(group).parent.is_none(),
            "{label}: secondary core is the root (§6.1 fallback target)"
        );
    }
    // The secondary may hold a transient parent while it retries its
    // §6.1 rejoin toward the (dead) primary, but it must never adopt
    // one of its own subtree routers as a *settled* parent and child
    // simultaneously — that two-node loop is what §6.3 NACTIVE_REJOIN
    // detection breaks.
    let sec_engine = cw.router(yy.secondary).sharded();
    let sec_parent = sec_engine.group_view(group).parent;
    let sec_children = sec_engine.group_view(group).children;
    if let Some(p) = sec_parent {
        assert!(
            !sec_children.contains(&p),
            "{label}: parent {p} is simultaneously a child — undetected §6.3 loop"
        );
    }
    let x_got = cw.host(yy.x).received();
    assert!(x_got.iter().any(|d| d.payload == b"from-y"), "{label}: X heard Y, got {x_got:?}");
    let y_got = cw.host(yy.y).received();
    assert!(y_got.iter().any(|d| d.payload == b"from-x"), "{label}: Y heard X, got {y_got:?}");
}

/// Primary down, routing knows: `launch_join` must skip straight to
/// the secondary (no pend-join timeout needed — but the outcome is
/// what we pin here).
#[test]
fn igp_visible_primary_failure_skips_to_secondary() {
    let yy = y_net();
    let mut cw = CbtWorld::build(yy.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.fail_router(yy.primary);
    join_send_and_check(cw, &yy, "igp-visible", true);
}

/// A node that accepts every frame and does nothing — a router whose
/// control plane died while the IGP still advertises it.
struct BlackHole;

impl SimNode for BlackHole {
    fn on_packet(
        &mut self,
        _: SimTime,
        _: IfIndex,
        _: Addr,
        _: &cbt_netsim::Bytes,
        _: &mut Outbox,
    ) {
    }
    fn on_timer(&mut self, _: SimTime, _: &mut Outbox) {}
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Primary reachable but silent: the first JOIN_REQUEST targets it and
/// is swallowed; `fail_pending` must rotate the core list and re-join
/// toward the secondary within the RECONNECT budget.
#[test]
fn silent_primary_failure_rotates_after_pend_join_timeout() {
    let yy = y_net();
    let mut cw = CbtWorld::build(yy.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.world.set_node(Entity::Router(yy.primary), Box::new(BlackHole));
    join_send_and_check(cw, &yy, "silent", false);
}

/// §6.2 revival: the silently-dead primary comes back after the
/// secondary's RECONNECT campaign gave up. The IFF-scan backbone
/// safety net must relaunch the rejoin, and the revived primary —
/// which "only becomes aware that it is [a core] by receiving a
/// JOIN-REQUEST" — absorbs the fragment: the tree re-roots at the
/// primary and delivery spans it.
///
/// The secondary core has no LAN, so its IFF scan is not armed at
/// boot: its non-primary core role is what arms it.
#[test]
fn revived_primary_reabsorbs_the_fragment_via_iff_scan() {
    let yy = y_net();
    let group = GroupId::numbered(9);
    let mut cw = CbtWorld::build(yy.net.clone(), CbtConfig::fast(), WorldConfig::default());
    cw.world.set_node(Entity::Router(yy.primary), Box::new(BlackHole));
    let cores = vec![cw.net.router_addr(yy.primary), cw.net.router_addr(yy.secondary)];
    cw.host(yy.x).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(yy.y).join_at(SimTime::from_secs(1) + SimDuration::from_millis(200), group, cores);
    // Let the fragment settle under the secondary (campaign gives up
    // by ~15 s fast), then revive the primary with empty state.
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(20));
    assert!(
        cw.router(yy.secondary).sharded().group_view(group).on_tree,
        "fragment serving under the secondary before revival"
    );
    let now = cw.world.now();
    cw.restart_router(yy.primary, now);
    // The fast IFF-scan (30 s) relaunches the backbone campaign; give
    // the flush/rejoin churn time to converge, then exercise data.
    cw.host(yy.x).send_at(SimTime::from_secs(50), group, b"post-revival".to_vec(), 16);
    cw.touch_host(yy.x);
    cw.world.run_until(SimTime::from_secs(55));
    let prim = cw.router(yy.primary).sharded();
    assert!(prim.group_view(group).on_tree, "revived primary absorbed the fragment");
    assert!(
        prim.group_view(group).parent.is_none(),
        "the primary is the root (§6.2: it waits to be joined)"
    );
    let y_got = cw.host(yy.y).received();
    assert!(
        y_got.iter().any(|d| d.payload == b"post-revival"),
        "delivery spans the re-rooted tree, got {y_got:?}"
    );
}
