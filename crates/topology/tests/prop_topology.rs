//! Property tests on the topology substrate: generator invariants,
//! addressing-plan uniqueness, and shortest-path correctness — the
//! foundations every experiment's correctness rests on.

use cbt_topology::{
    generate, tree_spanning, AllPairs, CsrGraph, NetworkSpec, NodeId, SpfScratch, SpfTree,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Waxman graphs are connected, sized correctly and deterministic
    /// for any plausible parameterisation.
    #[test]
    fn waxman_invariants(
        n in 2usize..80,
        alpha in 0.0f64..0.9,
        beta in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let params = generate::WaxmanParams { n, alpha, beta };
        let g1 = generate::waxman(params, seed);
        prop_assert_eq!(g1.node_count(), n);
        prop_assert!(g1.is_connected());
        // No self-loops, no parallel edges (Graph enforces, but check).
        let mut seen = BTreeSet::new();
        for (a, b, _) in g1.edges() {
            prop_assert_ne!(a, b);
            prop_assert!(seen.insert((a, b)), "parallel edge {}-{}", a, b);
        }
        let g2 = generate::waxman(params, seed);
        prop_assert_eq!(g1.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    /// Dijkstra distances satisfy the shortest-path optimality
    /// conditions: d(v) ≤ d(u) + w(u,v) for every edge, with equality
    /// along predecessor edges; reconstructed paths are real paths of
    /// the claimed length.
    #[test]
    fn dijkstra_optimality(n in 2usize..60, seed in any::<u64>()) {
        let g = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
        let sp = SpfTree::full(&CsrGraph::from_graph(&g), 0, &mut SpfScratch::new());
        for (a, b, w) in g.edges() {
            let da = sp.dist(a.0).unwrap();
            let db = sp.dist(b.0).unwrap();
            prop_assert!(db <= da + u64::from(w), "relaxation violated on {}-{}", a, b);
            prop_assert!(da <= db + u64::from(w), "relaxation violated on {}-{}", b, a);
        }
        for v in 0..n as u32 {
            let path = sp.path_to_root(v).unwrap();
            prop_assert_eq!(*path.first().unwrap(), v);
            prop_assert_eq!(*path.last().unwrap(), 0);
            let mut len = 0u64;
            for hop in path.windows(2) {
                let w = g.edge_weight(NodeId(hop[0]), NodeId(hop[1]));
                prop_assert!(w.is_some(), "path uses a non-edge");
                len += u64::from(w.unwrap());
            }
            prop_assert_eq!(len, sp.dist(v).unwrap());
        }
    }

    /// Spanning trees over arbitrary member draws are forests whose
    /// member-to-root distances equal graph distances.
    #[test]
    fn spanning_tree_invariants(
        n in 3usize..50,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let g = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
        let members: Vec<NodeId> =
            picks.iter().map(|p| NodeId(p % n as u32)).collect();
        let root = (seed % n as u64) as u32;
        let mut scratch = SpfScratch::new();
        let sp = SpfTree::full(&CsrGraph::from_graph(&g), root, &mut scratch);
        let tree = tree_spanning(&g, &sp, &members);
        prop_assert!(tree.is_forest());
        let tsp = SpfTree::full(&CsrGraph::from_graph(&tree), root, &mut scratch);
        for m in &members {
            prop_assert_eq!(tsp.dist(m.0), sp.dist(m.0), "member {} stretched", m);
        }
    }

    /// The addressing plan assigns globally unique addresses across
    /// router identities, interfaces and hosts, and `owner_of` resolves
    /// every one of them.
    #[test]
    fn addressing_plan_is_injective(n in 1usize..40, seed in any::<u64>()) {
        let g = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
        let net = NetworkSpec::from_graph_with_stub_lans(&g);
        let mut all = BTreeSet::new();
        for r in &net.routers {
            prop_assert!(all.insert(r.addr), "duplicate identity {}", r.addr);
            for i in &r.ifaces {
                prop_assert!(all.insert(i.addr), "duplicate iface addr {}", i.addr);
                // The interface address sits inside its own subnet.
                prop_assert!(i.addr.same_subnet(i.subnet, i.mask));
            }
        }
        for h in &net.hosts {
            prop_assert!(all.insert(h.addr), "duplicate host addr {}", h.addr);
        }
        for addr in all {
            prop_assert!(net.owner_of(addr).is_some(), "unresolvable {addr}");
        }
    }

    /// Graph centre and medoid minimise what they claim to minimise.
    #[test]
    fn centrality_definitions_hold(n in 3usize..40, seed in any::<u64>()) {
        let g = generate::waxman(generate::WaxmanParams { n, ..Default::default() }, seed);
        let ap = AllPairs::compute(&g);
        let center = ap.center().unwrap();
        let ecc_center = ap.eccentricity(center).unwrap();
        for v in g.nodes() {
            prop_assert!(ecc_center <= ap.eccentricity(v).unwrap());
        }
        let members: Vec<NodeId> = (0..n as u32).step_by(3).map(NodeId).collect();
        let medoid = ap.medoid(&members).unwrap();
        let cost = |c: NodeId| -> u64 {
            members.iter().map(|m| ap.dist(c, *m).unwrap()).sum()
        };
        let medoid_cost = cost(medoid);
        for v in g.nodes() {
            prop_assert!(medoid_cost <= cost(v));
        }
    }
}
