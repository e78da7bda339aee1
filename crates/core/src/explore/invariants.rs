//! The tree-invariant checker: what must hold of the fleet's hard
//! state once the network has healed and quiesced.
//!
//! The checks run over a plain snapshot ([`FleetView`]) collected from
//! the world in one read-only pass, so the logic is pure and unit
//! testable with hand-built views — including states (forwarding
//! loops, dangling parents) that a correct engine should never reach.

use crate::{CbtWorld, GroupView};
use cbt_obs::{DropReason, InvariantKind};
use cbt_topology::{HostId, LanId, RouterId};
use cbt_wire::{Addr, GroupId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One invariant violation, attributed as precisely as possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// The group concerned, if group-scoped.
    pub group: Option<GroupId>,
    /// The router the violation is attributed to (counter bumping and
    /// display), if router-scoped.
    pub router: Option<RouterId>,
    /// Human-readable specifics. Part of the stable verdict text.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.as_str())?;
        if let Some(g) = self.group {
            let o = g.addr().octets();
            write!(f, " group={}.{}.{}.{}", o[0], o[1], o[2], o[3])?;
        }
        if let Some(r) = self.router {
            write!(f, " router=r{}", r.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Stable ordering so verdicts are byte-identical across shard counts
/// and discovery order.
pub(super) fn sort_violations(vs: &mut [Violation]) {
    vs.sort_by(|a, b| {
        (a.kind as usize, a.group.map(|g| g.addr().0), a.router.map(|r| r.0), &a.detail).cmp(&(
            b.kind as usize,
            b.group.map(|g| g.addr().0),
            b.router.map(|r| r.0),
            &b.detail,
        ))
    });
}

/// One router in the snapshot.
#[derive(Debug, Clone)]
pub(super) struct RouterView {
    pub up: bool,
    /// Every address that resolves to this router (ID + interfaces).
    pub addrs: Vec<Addr>,
    pub per_group: BTreeMap<GroupId, GroupView>,
}

/// The whole fleet, frozen for checking.
#[derive(Debug, Clone)]
pub(super) struct FleetView {
    pub groups: Vec<GroupId>,
    pub routers: Vec<RouterView>,
    /// Which routers serve each LAN (for member attachment).
    pub lan_routers: BTreeMap<LanId, Vec<usize>>,
    /// Member hosts per group: (host name, its LAN).
    pub members: BTreeMap<GroupId, Vec<(String, LanId)>>,
    /// Frames the injector corrupted in flight.
    pub corrupted: u64,
    /// Fleet-wide checksum-rejection count from obs.
    pub checksum_bad: u64,
}

/// Runs every invariant over the current world state. The world must
/// be healed and quiescent (see `execute`) — in-flight transitions are
/// legitimate protocol states, not violations. Returns a stably
/// sorted list; empty means the tree is sound.
pub fn check_tree_invariants(cw: &CbtWorld, groups: &[GroupId]) -> Vec<Violation> {
    let view = collect_fleet(cw, groups);
    let mut vs = check_fleet(&view);
    sort_violations(&mut vs);
    vs
}

/// Bumps the obs invariant counters on each violation's attributed
/// router (shard 0 of the fleet-wide merge), so the drop-reason /
/// invariant taxonomy in exported snapshots reflects what the checker
/// found. Unattributed violations land on router 0.
pub fn record_violations(cw: &mut CbtWorld, violations: &[Violation]) {
    for v in violations {
        let r = v.router.unwrap_or(RouterId(0));
        if cw.world.failures().router_down(r) {
            continue;
        }
        cw.router(r).sharded_mut().obs_mut().invariant_violated(v.kind);
    }
}

/// Panics with the full violation list if any invariant fails —
/// the one-line convergence assertion integration tests use.
pub fn assert_tree_invariants(cw: &CbtWorld, groups: &[GroupId]) {
    let vs = check_tree_invariants(cw, groups);
    assert!(
        vs.is_empty(),
        "tree invariants violated:\n{}",
        vs.iter().map(|v| format!("  {v}")).collect::<Vec<_>>().join("\n")
    );
}

fn collect_fleet(cw: &CbtWorld, groups: &[GroupId]) -> FleetView {
    let net = &cw.net;
    let mut routers = Vec::with_capacity(net.routers.len());
    for (i, spec) in net.routers.iter().enumerate() {
        let r = RouterId(i as u32);
        let up = !cw.world.failures().router_down(r);
        let mut addrs = vec![spec.addr];
        addrs.extend(spec.ifaces.iter().map(|ifc| ifc.addr));
        let per_group = match cw.world.node::<crate::RouterNode>(cbt_netsim::Entity::Router(r)) {
            Some(node) if up => groups.iter().map(|&g| (g, node.sharded().group_view(g))).collect(),
            _ => BTreeMap::new(),
        };
        routers.push(RouterView { up, addrs, per_group });
    }
    let lan_routers = net
        .lans
        .iter()
        .enumerate()
        .map(|(i, l)| (LanId(i as u32), l.routers.iter().map(|r| r.0 as usize).collect()))
        .collect();
    let mut members: BTreeMap<GroupId, Vec<(String, LanId)>> = BTreeMap::new();
    for (i, spec) in net.hosts.iter().enumerate() {
        let h = HostId(i as u32);
        let Some(app) = cw.world.node::<crate::HostApp>(cbt_netsim::Entity::Host(h)) else {
            continue;
        };
        for &g in groups {
            if app.is_member(g) {
                members.entry(g).or_default().push((spec.name.clone(), spec.lan));
            }
        }
    }
    let checksum_bad = cw.obs_snapshot().drops.get(DropReason::ChecksumBad);
    FleetView {
        groups: groups.to_vec(),
        routers,
        lan_routers,
        members,
        corrupted: cw.world.fault_stats().1,
        checksum_bad,
    }
}

/// Netscale counterpart of [`check_tree_invariants`]: collects a
/// `FleetView` from a point-to-point engine fleet and runs the same
/// pure checks over it. `members` lists the routers currently holding
/// a local member per group (the soak driver's membership ledger);
/// each is modelled as one host on a private LAN served only by that
/// router, which is exactly the p2p fleet's membership shape. The
/// world must be healed and quiescent, same contract as the
/// full-fidelity checker.
pub fn check_netscale_invariants(
    world: &cbt_netsim::NetscaleWorld<crate::netscale::P2pNode>,
    groups: &[GroupId],
    members: &BTreeMap<GroupId, Vec<u32>>,
) -> Vec<Violation> {
    let n = world.len() as u32;
    let mut routers = Vec::with_capacity(n as usize);
    for i in 0..n {
        let up = world.is_node_up(i);
        let addrs = vec![crate::netscale::node_addr(i)];
        let per_group = if up {
            let router = &world.node(i).router;
            groups.iter().map(|&g| (g, router.group_view(g))).collect()
        } else {
            BTreeMap::new()
        };
        routers.push(RouterView { up, addrs, per_group });
    }
    let mut lan_routers: BTreeMap<LanId, Vec<usize>> = BTreeMap::new();
    let mut member_hosts: BTreeMap<GroupId, Vec<(String, LanId)>> = BTreeMap::new();
    for (&g, holders) in members {
        for &r in holders {
            lan_routers.entry(LanId(r)).or_insert_with(|| vec![r as usize]);
            member_hosts.entry(g).or_default().push((format!("h{r}"), LanId(r)));
        }
    }
    let view = FleetView {
        groups: groups.to_vec(),
        routers,
        lan_routers,
        members: member_hosts,
        corrupted: 0,
        checksum_bad: 0,
    };
    let mut vs = check_fleet(&view);
    sort_violations(&mut vs);
    vs
}

/// How one router's parent chain for a group terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Chain {
    /// Reaches a core acting as root: valid.
    Rooted,
    /// Ends somewhere invalid (dangling parent, off-tree upstream,
    /// parentless non-core) or feeds a loop.
    Broken,
}

pub(super) fn check_fleet(view: &FleetView) -> Vec<Violation> {
    let mut vs = Vec::new();
    let addr_to_router: BTreeMap<Addr, usize> = view
        .routers
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.addrs.iter().map(move |&a| (a, i)))
        .collect();

    for &g in &view.groups {
        let gv = |i: usize| view.routers[i].per_group.get(&g);
        let on_tree: Vec<usize> = (0..view.routers.len())
            .filter(|&i| view.routers[i].up && gv(i).is_some_and(|v| v.on_tree))
            .collect();

        // ---- parent/child FIB symmetry (both directions) ----
        for &i in &on_tree {
            let v = gv(i).expect("on-tree");
            if let Some(p) = v.parent {
                match addr_to_router.get(&p) {
                    None => vs.push(Violation {
                        kind: InvariantKind::ParentChildAsymmetry,
                        group: Some(g),
                        router: Some(RouterId(i as u32)),
                        detail: format!("parent {} is not any router's address", dotted(p)),
                    }),
                    Some(&pi) if view.routers[pi].up => {
                        let pv = gv(pi);
                        let knows_me = pv.is_some_and(|pv| {
                            pv.children.iter().any(|c| view.routers[i].addrs.contains(c))
                        });
                        if !knows_me {
                            vs.push(Violation {
                                kind: InvariantKind::ParentChildAsymmetry,
                                group: Some(g),
                                router: Some(RouterId(i as u32)),
                                detail: format!(
                                    "parent r{pi} has no matching child entry for r{i}"
                                ),
                            });
                        }
                    }
                    Some(_) => {} // parent router is down: chain walk handles it
                }
            }
            for c in &v.children {
                let ok = addr_to_router.get(c).is_some_and(|&ci| {
                    view.routers[ci].up
                        && gv(ci).is_some_and(|cv| {
                            cv.on_tree
                                && cv.parent.is_some_and(|pp| view.routers[i].addrs.contains(&pp))
                        })
                });
                if !ok {
                    vs.push(Violation {
                        kind: InvariantKind::ParentChildAsymmetry,
                        group: Some(g),
                        router: Some(RouterId(i as u32)),
                        detail: format!("child {} does not point back at r{i}", dotted(*c)),
                    });
                }
            }
        }

        // ---- parent-chain walk: loops, orphan roots, rootedness ----
        let mut chain: BTreeMap<usize, Chain> = BTreeMap::new();
        let mut cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
        for &start in &on_tree {
            if chain.contains_key(&start) {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut cur = start;
            let end = loop {
                if let Some(&done) = chain.get(&cur) {
                    break done;
                }
                if let Some(pos) = path.iter().position(|&x| x == cur) {
                    // New cycle: canonicalise by rotating its minimum
                    // to the front so each loop is reported once.
                    let mut cyc = path[pos..].to_vec();
                    let min_at =
                        cyc.iter().enumerate().min_by_key(|(_, &r)| r).map(|(i, _)| i).unwrap();
                    cyc.rotate_left(min_at);
                    cycles.insert(cyc);
                    break Chain::Broken;
                }
                let Some(v) = gv(cur).filter(|v| v.on_tree && view.routers[cur].up) else {
                    break Chain::Broken; // upstream off-tree or dead
                };
                match v.parent {
                    None => break if v.i_am_core { Chain::Rooted } else { Chain::Broken },
                    Some(p) => match addr_to_router.get(&p) {
                        Some(&pi) => {
                            path.push(cur);
                            cur = pi;
                        }
                        None => break Chain::Broken,
                    },
                }
            };
            chain.insert(cur, end);
            for n in path {
                chain.insert(n, end);
            }
        }
        for cyc in &cycles {
            let names: Vec<String> = cyc.iter().map(|r| format!("r{r}")).collect();
            vs.push(Violation {
                kind: InvariantKind::ForwardingLoop,
                group: Some(g),
                router: Some(RouterId(cyc[0] as u32)),
                detail: format!("parent chain cycles through {}", names.join("->")),
            });
        }
        for &i in &on_tree {
            let v = gv(i).expect("on-tree");
            if v.parent.is_none() && !v.i_am_core {
                vs.push(Violation {
                    kind: InvariantKind::OrphanedState,
                    group: Some(g),
                    router: Some(RouterId(i as u32)),
                    detail: "on-tree with no parent and not a core".into(),
                });
            }
        }

        // ---- every member host reaches its core ----
        for (host, lan) in view.members.get(&g).map(Vec::as_slice).unwrap_or(&[]) {
            let servers = view.lan_routers.get(lan).map(Vec::as_slice).unwrap_or(&[]);
            let attached = servers.iter().any(|&ri| {
                view.routers[ri].up
                    && gv(ri).is_some_and(|v| v.on_tree)
                    && chain.get(&ri) == Some(&Chain::Rooted)
            });
            if !attached {
                vs.push(Violation {
                    kind: InvariantKind::MemberDetached,
                    group: Some(g),
                    router: servers
                        .iter()
                        .find(|&&ri| view.routers[ri].up)
                        .map(|&ri| RouterId(ri as u32)),
                    detail: format!("member {host} has no rooted on-tree router on its LAN"),
                });
            }
        }

        // ---- no hard state left after the last member is gone ----
        if view.members.get(&g).is_none_or(|m| m.is_empty()) {
            for i in 0..view.routers.len() {
                let Some(v) = gv(i).filter(|_| view.routers[i].up) else { continue };
                // A bare core entry (no parent, no children) is the one
                // acceptable residue: cores are rendezvous points and
                // keep no forwarding state.
                let residue = v.transient
                    || v.parent.is_some()
                    || !v.children.is_empty()
                    || (v.on_tree && !v.i_am_core);
                if residue {
                    vs.push(Violation {
                        kind: InvariantKind::OrphanedState,
                        group: Some(g),
                        router: Some(RouterId(i as u32)),
                        detail: "per-group state survives with no members anywhere".into(),
                    });
                }
            }
        }
    }

    // ---- obs counters consistent with the injected faults ----
    if view.corrupted == 0 && view.checksum_bad > 0 {
        vs.push(Violation {
            kind: InvariantKind::ObsInconsistent,
            group: None,
            router: None,
            detail: format!(
                "{} checksum rejections counted with zero frames corrupted in flight",
                view.checksum_bad
            ),
        });
    }
    vs
}

fn dotted(a: Addr) -> String {
    let o = a.octets();
    format!("{}.{}.{}.{}", o[0], o[1], o[2], o[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId::numbered(1);

    fn addr(n: u32) -> Addr {
        Addr(0x0a00_0000 | n)
    }

    /// r0 —(child)→ r1(core). Symmetric, rooted, one member behind r0.
    fn healthy_pair() -> FleetView {
        let mut r0 = RouterView { up: true, addrs: vec![addr(10)], per_group: BTreeMap::new() };
        r0.per_group.insert(
            G,
            GroupView {
                on_tree: true,
                parent: Some(addr(11)),
                children: vec![],
                i_am_core: false,
                pending_join: false,
                transient: false,
            },
        );
        let mut r1 = RouterView { up: true, addrs: vec![addr(11)], per_group: BTreeMap::new() };
        r1.per_group.insert(
            G,
            GroupView {
                on_tree: true,
                parent: None,
                children: vec![addr(10)],
                i_am_core: true,
                pending_join: false,
                transient: false,
            },
        );
        FleetView {
            groups: vec![G],
            routers: vec![r0, r1],
            lan_routers: BTreeMap::from([(LanId(0), vec![0])]),
            members: BTreeMap::from([(G, vec![("A".to_string(), LanId(0))])]),
            corrupted: 0,
            checksum_bad: 0,
        }
    }

    #[test]
    fn healthy_fleet_has_no_violations() {
        assert_eq!(check_fleet(&healthy_pair()), vec![]);
    }

    #[test]
    fn forwarding_loop_is_reported_once() {
        let mut v = healthy_pair();
        // Point the core back at r0: a two-node cycle.
        let gv = v.routers[1].per_group.get_mut(&G).unwrap();
        gv.parent = Some(addr(10));
        gv.i_am_core = false;
        v.routers[0].per_group.get_mut(&G).unwrap().children = vec![addr(11)];
        let vs = check_fleet(&v);
        let loops: Vec<_> = vs.iter().filter(|x| x.kind == InvariantKind::ForwardingLoop).collect();
        assert_eq!(loops.len(), 1, "{vs:?}");
        assert!(loops[0].detail.contains("r0->r1"));
        // A looped tree roots nobody, so the member is detached too.
        assert!(vs.iter().any(|x| x.kind == InvariantKind::MemberDetached));
    }

    #[test]
    fn asymmetric_parent_is_flagged() {
        let mut v = healthy_pair();
        v.routers[1].per_group.get_mut(&G).unwrap().children.clear();
        let vs = check_fleet(&v);
        assert!(
            vs.iter()
                .any(|x| x.kind == InvariantKind::ParentChildAsymmetry
                    && x.router == Some(RouterId(0))),
            "{vs:?}"
        );
    }

    #[test]
    fn dangling_child_is_flagged() {
        let mut v = healthy_pair();
        v.routers[1].per_group.get_mut(&G).unwrap().children.push(addr(99));
        let vs = check_fleet(&v);
        assert!(vs.iter().any(
            |x| x.kind == InvariantKind::ParentChildAsymmetry && x.detail.contains("10.0.0.99")
        ));
    }

    #[test]
    fn parentless_non_core_is_orphaned_and_detaches_members() {
        let mut v = healthy_pair();
        v.routers[0].per_group.get_mut(&G).unwrap().parent = None;
        v.routers[1].per_group.get_mut(&G).unwrap().children.clear();
        let vs = check_fleet(&v);
        assert!(vs.iter().any(|x| x.kind == InvariantKind::OrphanedState));
        assert!(vs.iter().any(|x| x.kind == InvariantKind::MemberDetached));
    }

    #[test]
    fn leftover_state_after_last_leave_is_orphaned() {
        let mut v = healthy_pair();
        v.members.clear();
        let vs = check_fleet(&v);
        // r0 still holds a branch toward the core: orphaned. The core
        // has a child entry: also orphaned.
        assert_eq!(
            vs.iter().filter(|x| x.kind == InvariantKind::OrphanedState).count(),
            2,
            "{vs:?}"
        );
    }

    #[test]
    fn bare_core_entry_is_acceptable_residue() {
        let mut v = healthy_pair();
        v.members.clear();
        v.routers[0].per_group.remove(&G);
        let gv = v.routers[1].per_group.get_mut(&G).unwrap();
        gv.children.clear();
        assert_eq!(check_fleet(&v), vec![]);
    }

    #[test]
    fn down_routers_are_exempt() {
        let mut v = healthy_pair();
        // Kill the member's router and drop the member (host LAN dead
        // scenarios keep membership, but here we test the exemption).
        v.routers[0].up = false;
        v.members.clear();
        let gv = v.routers[1].per_group.get_mut(&G).unwrap();
        gv.children.clear();
        assert_eq!(check_fleet(&v), vec![]);
    }

    #[test]
    fn checksum_drops_without_corruption_are_inconsistent() {
        let mut v = healthy_pair();
        v.checksum_bad = 3;
        let vs = check_fleet(&v);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, InvariantKind::ObsInconsistent);
        v.corrupted = 1;
        assert_eq!(check_fleet(&v), vec![]);
    }

    #[test]
    fn violations_sort_stably() {
        let mut a = vec![
            Violation {
                kind: InvariantKind::OrphanedState,
                group: Some(G),
                router: Some(RouterId(2)),
                detail: "z".into(),
            },
            Violation {
                kind: InvariantKind::ForwardingLoop,
                group: Some(G),
                router: Some(RouterId(1)),
                detail: "a".into(),
            },
        ];
        sort_violations(&mut a);
        assert_eq!(a[0].kind, InvariantKind::ForwardingLoop);
    }
}
