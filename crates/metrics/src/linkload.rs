//! Link-load / traffic-concentration metrics (experiment S93-F2).
//!
//! On a CBT shared tree a packet from *any* sender traverses **every**
//! tree edge once (the tree is flooded bidirectionally), so with `k`
//! senders each edge carries `k` packets. Source trees spread the load:
//! each sender's packet only crosses its own tree. The shared tree's
//! higher maximum is the traffic-concentration cost the '93 paper
//! acknowledges.

use crate::stat::Summary;
use cbt_topology::{Graph, NodeId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Per-edge loads plus their summary.
#[derive(Debug, Clone, Serialize)]
pub struct LoadStats {
    /// Summary over edges that carried anything.
    pub per_link: Summary,
    /// The single hottest link's load.
    pub max_link: u64,
    /// Total packet-hops.
    pub total: u64,
}

fn summarize(loads: &BTreeMap<(NodeId, NodeId), u64>) -> LoadStats {
    let values: Vec<u64> = loads.values().copied().collect();
    LoadStats {
        per_link: Summary::of_ints(values.iter().copied()),
        max_link: values.iter().copied().max().unwrap_or(0),
        total: values.iter().sum(),
    }
}

/// Load on each edge of a shared `tree` when each of `senders`
/// transmits one packet: every tree edge carries one copy per sender
/// whose packet reaches it (with a connected shared tree: all of them).
pub fn shared_tree_loads(tree: &Graph, senders: usize) -> LoadStats {
    let mut loads = BTreeMap::new();
    for (a, b, _) in tree.edges() {
        loads.insert((a, b), senders as u64);
    }
    summarize(&loads)
}

/// Combines per-source tree loads: each sender's packet crosses only
/// its own tree's edges.
pub fn source_tree_loads(trees: &[Graph]) -> LoadStats {
    let mut loads: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for tree in trees {
        for (a, b, _) in tree.edges() {
            *loads.entry((a, b)).or_default() += 1;
        }
    }
    summarize(&loads)
}

/// Summarises an arbitrary load map (e.g. from the unicast star
/// baseline or the packet trace).
pub fn load_stats(loads: &BTreeMap<(NodeId, NodeId), u64>) -> LoadStats {
    summarize(loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{generate, tree_spanning, CsrGraph, SpfScratch, SpfTree};

    #[test]
    fn shared_tree_concentrates() {
        // Line 0—1—2; tree = whole line; 5 senders ⇒ every edge load 5.
        let tree = generate::line(3);
        let stats = shared_tree_loads(&tree, 5);
        assert_eq!(stats.max_link, 5);
        assert_eq!(stats.total, 10);
        assert_eq!(stats.per_link.n, 2);
    }

    #[test]
    fn source_trees_spread() {
        // Ring of 4, members at 1 and 3; sources 0 and 2 use opposite
        // sides, so no edge carries more than... both trees include
        // edges to both members; count overlaps honestly.
        let g = generate::ring(4);
        let members = [NodeId(1), NodeId(3)];
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = SpfScratch::new();
        let t0 = tree_spanning(&g, &SpfTree::full(&csr, 0, &mut scratch), &members);
        let t2 = tree_spanning(&g, &SpfTree::full(&csr, 2, &mut scratch), &members);
        let spread = source_tree_loads(&[t0.clone(), t2]);
        let shared = shared_tree_loads(&t0, 2);
        assert!(
            spread.max_link <= shared.max_link,
            "source trees never concentrate more than the shared tree: {} vs {}",
            spread.max_link,
            shared.max_link
        );
    }

    #[test]
    fn empty_tree_is_zero() {
        let stats = shared_tree_loads(&Graph::new(), 10);
        assert_eq!(stats.max_link, 0);
        assert_eq!(stats.total, 0);
    }

    #[test]
    fn load_stats_passthrough() {
        let mut loads = BTreeMap::new();
        loads.insert((NodeId(0), NodeId(1)), 3u64);
        loads.insert((NodeId(1), NodeId(2)), 7u64);
        let s = load_stats(&loads);
        assert_eq!(s.max_link, 7);
        assert_eq!(s.total, 10);
    }
}
