//! Delay metrics (experiment S93-F1): member↔member path length over
//! the shared tree versus the unicast shortest path — the cost CBT pays
//! for shared trees, which the '93 paper bounds at roughly 2× on
//! average for well-placed cores.

use crate::stat::Summary;
use cbt_topology::{AllPairs, CsrGraph, Graph, NodeId, SpfScratch, SpfTree};
use serde::Serialize;

/// Delay-ratio statistics across all ordered member pairs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DelayStats {
    /// Ratios tree_dist / shortest_dist over distinct member pairs.
    pub ratio: Summary,
    /// Absolute tree distances (hops/weight).
    pub tree_dist: Summary,
    /// Absolute shortest-path distances.
    pub direct_dist: Summary,
}

/// Pairwise distances within a tree from each member.
///
/// Returns `None` if any member pair is disconnected in the tree.
pub fn tree_distances(tree: &Graph, members: &[NodeId]) -> Option<Vec<(NodeId, NodeId, u64)>> {
    let csr = CsrGraph::from_graph(tree);
    let mut scratch = SpfScratch::new();
    let mut out = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        let sp = SpfTree::full(&csr, a.0, &mut scratch);
        for &b in &members[i + 1..] {
            if a == b {
                continue;
            }
            out.push((a, b, sp.dist(b.0)?));
        }
    }
    Some(out)
}

/// Computes delay statistics for a shared `tree` spanning `members`
/// over underlying graph distances `ap`.
///
/// Pairs at zero direct distance (same router) are skipped.
pub fn delay_ratio_stats(tree: &Graph, ap: &AllPairs, members: &[NodeId]) -> Option<DelayStats> {
    let pairs = tree_distances(tree, members)?;
    let mut ratios = Vec::new();
    let mut tree_d = Vec::new();
    let mut direct_d = Vec::new();
    for (a, b, td) in pairs {
        let dd = ap.dist(a, b)?;
        if dd == 0 {
            continue;
        }
        ratios.push(td as f64 / dd as f64);
        tree_d.push(td as f64);
        direct_d.push(dd as f64);
    }
    Some(DelayStats {
        ratio: Summary::of(&ratios),
        tree_dist: Summary::of(&tree_d),
        direct_dist: Summary::of(&direct_d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{generate, tree_spanning};

    /// The union of `g`'s shortest paths from `members` to `core`.
    fn shared_tree(g: &Graph, core: u32, members: &[NodeId]) -> Graph {
        let sp = SpfTree::full(&CsrGraph::from_graph(g), core, &mut SpfScratch::new());
        tree_spanning(g, &sp, members)
    }

    /// On a ring with the core opposite two adjacent members, the
    /// shared tree detours: members 3 and 5 are 2 apart directly but
    /// 6 apart through a core at 0 on an 8-ring.
    #[test]
    fn ring_detour_ratio() {
        let g = generate::ring(8);
        let ap = AllPairs::compute(&g);
        let members = [NodeId(3), NodeId(5)];
        let tree = shared_tree(&g, 0, &members);
        let stats = delay_ratio_stats(&tree, &ap, &members).unwrap();
        assert_eq!(stats.direct_dist.max, 2.0);
        assert_eq!(stats.tree_dist.max, 6.0, "3→0 and 0→5, 3 hops each side");
        assert!((stats.ratio.max - 3.0).abs() < 1e-12);
    }

    /// A tree through a central core adds no delay on a star.
    #[test]
    fn star_core_is_free() {
        let g = generate::star(6);
        let ap = AllPairs::compute(&g);
        let members: Vec<NodeId> = (1..6).map(NodeId).collect();
        let tree = shared_tree(&g, 0, &members);
        let stats = delay_ratio_stats(&tree, &ap, &members).unwrap();
        assert!((stats.ratio.mean - 1.0).abs() < 1e-12, "hub core ⇒ optimal paths");
    }

    #[test]
    fn disconnected_tree_reports_none() {
        let mut tree = Graph::with_nodes(4);
        tree.add_edge(NodeId(0), NodeId(1), 1);
        // Node 3 is not in the tree at all.
        assert!(tree_distances(&tree, &[NodeId(0), NodeId(3)]).is_none());
    }

    #[test]
    fn single_member_has_no_pairs() {
        let g = generate::line(3);
        let ap = AllPairs::compute(&g);
        let tree = shared_tree(&g, 0, &[NodeId(2)]);
        let stats = delay_ratio_stats(&tree, &ap, &[NodeId(2)]).unwrap();
        assert_eq!(stats.ratio.n, 0);
    }
}
