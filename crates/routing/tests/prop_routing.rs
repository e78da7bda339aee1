//! Property tests on the routing substrate: converged tables are
//! loop-free and complete; failures only ever shrink reachability; the
//! resolved hops are physically adjacent.

use cbt_routing::{FailureSet, Rib};
use cbt_topology::{generate, Attachment, LanId, LinkId, NetworkSpec, RouterId};
use proptest::prelude::*;

fn spec_from(n: usize, seed: u64) -> NetworkSpec {
    let g = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
    NetworkSpec::from_graph_with_stub_lans(&g)
}

/// Walks next-hop pointers from `from` to `to`; returns hop count if it
/// terminates, `None` on unreachability.
fn walk(rib: &Rib, from: RouterId, to: RouterId, max: usize) -> Option<usize> {
    let mut cur = from;
    for hops in 0..max {
        if cur == to {
            return Some(hops);
        }
        cur = rib.next_router(cur, to)?;
    }
    panic!("routing loop: {from} -> {to} did not terminate in {max} hops");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Converged tables route every pair, loop-free, with path length
    /// equal to the SPF distance.
    #[test]
    fn converged_tables_are_loop_free_and_optimal(n in 2usize..40, seed in any::<u64>()) {
        let net = spec_from(n, seed);
        let rib = Rib::converged(net.clone());
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (RouterId(i as u32), RouterId(j as u32));
                let hops = walk(&rib, a, b, n + 1).expect("connected graph routes everywhere");
                if i == j {
                    prop_assert_eq!(hops, 0);
                } else {
                    prop_assert_eq!(Some(hops as u64), rib.dist(a, b), "{} -> {}", a, b);
                }
            }
        }
    }

    /// After arbitrary link failures, every still-routable pair remains
    /// loop-free, and resolved hops are physically adjacent.
    #[test]
    fn failures_never_create_loops(
        n in 3usize..30,
        seed in any::<u64>(),
        kill in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let net = spec_from(n, seed);
        let mut failures = FailureSet::none();
        let link_count = net.links.len() as u32;
        for k in &kill {
            if link_count > 0 {
                failures.fail_link(LinkId(k % link_count));
            }
        }
        let rib = Rib::compute(net.clone(), &failures);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (RouterId(i as u32), RouterId(j as u32));
                // walk() panics on loops; unreachability is acceptable.
                let _ = walk(&rib, a, b, n + 1);
                // Any resolved hop must be a physical neighbour over a
                // *live* medium.
                if a != b {
                    if let Some(hop) = rib.route(a, net.router_addr(b)) {
                        let iface = net.routers[a.0 as usize].iface(hop.iface).expect("iface");
                        match iface.attachment {
                            Attachment::Link { link, peer } => {
                                prop_assert!(!failures.link_down(link), "hop over dead link");
                                prop_assert_eq!(peer, hop.router);
                            }
                            Attachment::Lan(lan) => {
                                prop_assert!(!failures.lan_down(lan));
                                prop_assert!(
                                    net.lans[lan.0 as usize].routers.contains(&hop.router)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Incrementally applying a random flap schedule one batch at a
    /// time yields exactly the same next hops and distances as
    /// computing a fresh RIB from scratch against the final failure
    /// set — across links, LANs, and router flaps in any order, with
    /// lookups between batches building trees that later batches repair.
    #[test]
    fn incremental_apply_matches_from_scratch(
        n in 3usize..25,
        seed in any::<u64>(),
        schedule in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..12),
    ) {
        let net = spec_from(n, seed);
        let mut rib = Rib::converged(net.clone());
        // Warm a few trees so repairs actually have work to do.
        for d in 0..n.min(6) {
            let _ = rib.dist(RouterId(0), RouterId(d as u32));
        }
        let mut failures = FailureSet::none();
        let link_count = net.links.len() as u32;
        let lan_count = net.lans.len() as u32;
        for (kind, pick) in &schedule {
            match kind % 4 {
                0 if link_count > 0 => {
                    let l = LinkId(pick % link_count);
                    if failures.link_down(l) {
                        failures.restore_link(l);
                    } else {
                        failures.fail_link(l);
                    }
                }
                1 if lan_count > 0 => {
                    let l = LanId(pick % lan_count);
                    if failures.lan_down(l) {
                        failures.restore_lan(l);
                    } else {
                        failures.fail_lan(l);
                    }
                }
                3 => {
                    let _ = rib.dist(RouterId(0), RouterId(pick % n as u32));
                }
                _ => {
                    let r = RouterId(pick % n as u32);
                    if failures.router_down(r) {
                        failures.restore_router(r);
                    } else {
                        failures.fail_router(r);
                    }
                }
            }
            rib.apply_failures(&failures);
        }
        let fresh = Rib::compute(net.clone(), &failures);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (RouterId(i as u32), RouterId(j as u32));
                prop_assert_eq!(
                    rib.next_router(a, b),
                    fresh.next_router(a, b),
                    "next hop {} -> {}", a, b
                );
                prop_assert_eq!(rib.dist(a, b), fresh.dist(a, b), "dist {} -> {}", a, b);
            }
        }
    }
}
