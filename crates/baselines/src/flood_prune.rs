//! DVMRP-style flood-and-prune, simulated at message granularity over
//! the graph.
//!
//! The model follows the classic truncated-reverse-path-broadcast
//! scheme the CBT drafts contrast themselves with:
//!
//! 1. the source's first packet is **flooded**: each router accepts the
//!    packet only on its RPF interface (the one on its shortest path
//!    back to the source) and re-sends it on every other interface;
//!    copies arriving on non-RPF interfaces are counted and dropped;
//! 2. routers whose subtree contains no members send **prune** messages
//!    up the RPF tree; prunes aggregate (a router prunes itself once
//!    all its RPF children have pruned and it has no local members);
//! 3. prune state ages out (`prune_lifetime`), after which the next
//!    packet re-floods — the steady-state overhead term.
//!
//! The outcome records the delivery tree, per-router state (forwarding
//! *plus* prune entries — off-tree routers pay too, which is the state
//! result of experiment S93-T1) and exact message counts.

use crate::spt::spf;
use cbt_topology::{tree_spanning, Graph, NodeId};
use std::collections::BTreeSet;

/// Everything one flood-prune cycle produces.
#[derive(Debug, Clone)]
pub struct FloodPruneOutcome {
    /// The post-prune delivery tree (a subgraph of the input).
    pub tree: Graph,
    /// Routers holding (source, group) forwarding state after pruning.
    pub forwarding_state: BTreeSet<NodeId>,
    /// Routers holding (source, group) *prune* state — every router the
    /// flood reached that is not on the delivery tree.
    pub prune_state: BTreeSet<NodeId>,
    /// Data copies transmitted during the flood (one per directed edge
    /// crossing).
    pub flood_messages: u64,
    /// Copies discarded by the RPF check.
    pub rpf_discards: u64,
    /// Prune messages sent.
    pub prune_messages: u64,
}

impl FloodPruneOutcome {
    /// Total state entries this (source, group) pair costs the network.
    pub fn total_state_entries(&self) -> usize {
        self.forwarding_state.len() + self.prune_state.len()
    }

    /// Total control+flood overhead messages of one cycle.
    pub fn total_messages(&self) -> u64 {
        self.flood_messages + self.prune_messages
    }
}

/// Runs one flood-and-prune cycle for `source` and the given members.
///
/// `members` contains the routers with directly attached group members
/// (the source itself may or may not be one).
pub fn flood_and_prune(g: &Graph, source: NodeId, members: &[NodeId]) -> FloodPruneOutcome {
    let n = g.node_count();
    let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
    let sp = spf(g, source);
    let rpf = |v: NodeId| sp.toward_root(v.0).map(NodeId);

    // --- Phase 1: RPF flood. ---
    // Each reachable router accepts exactly one copy (via its RPF
    // predecessor) and re-sends on all other interfaces.
    let mut flood_messages: u64 = 0;
    let mut rpf_discards: u64 = 0;
    let mut reached: Vec<bool> = vec![false; n];
    reached[source.idx()] = true;
    // The RPF tree: child lists by predecessor relation.
    let mut rpf_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in g.nodes() {
        if v != source {
            if let Some(p) = rpf(v) {
                rpf_children[p.idx()].push(v);
                reached[v.idx()] = true;
            }
        }
    }
    // Message accounting: every reached router (incl. source) transmits
    // on each incident edge except its RPF-upstream one; the copy is
    // accepted if the receiving end's RPF points back at the sender,
    // otherwise discarded.
    for v in g.nodes() {
        if !reached[v.idx()] {
            continue;
        }
        let upstream = rpf(v);
        for (u, _) in g.neighbors(v) {
            if Some(u) == upstream {
                continue; // never send back up the RPF interface
            }
            flood_messages += 1;
            if rpf(u) != Some(v) {
                rpf_discards += 1;
            }
        }
    }

    // --- Phase 2: prune. ---
    // A router keeps forwarding state iff its RPF subtree contains a
    // member (or it is a member itself). Everyone else that was reached
    // prunes: one prune message up its RPF interface.
    let mut wanted: Vec<bool> = vec![false; n];
    // Post-order accumulation over the RPF tree.
    fn mark(
        v: NodeId,
        rpf_children: &Vec<Vec<NodeId>>,
        member_set: &BTreeSet<NodeId>,
        wanted: &mut Vec<bool>,
    ) -> bool {
        let mut any = member_set.contains(&v);
        for c in &rpf_children[v.idx()] {
            if mark(*c, rpf_children, member_set, wanted) {
                any = true;
            }
        }
        wanted[v.idx()] = any;
        any
    }
    mark(source, &rpf_children, &member_set, &mut wanted);

    let mut prune_messages: u64 = 0;
    let mut forwarding_state = BTreeSet::new();
    let mut prune_state = BTreeSet::new();
    for v in g.nodes() {
        if !reached[v.idx()] || v == source {
            continue;
        }
        if wanted[v.idx()] {
            forwarding_state.insert(v);
        } else {
            // One prune up the RPF interface. (Aggregation is modelled
            // by each router pruning exactly once.)
            prune_messages += 1;
            prune_state.insert(v);
        }
    }
    // The source holds state as long as anything below wants data.
    if wanted[source.idx()] || !forwarding_state.is_empty() {
        forwarding_state.insert(source);
    }

    // --- Delivery tree: RPF paths to members. ---
    let tree = tree_spanning(g, &sp, members);

    FloodPruneOutcome {
        tree,
        forwarding_state,
        prune_state,
        flood_messages,
        rpf_discards,
        prune_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::generate;

    #[test]
    fn line_topology_counts() {
        // 0 — 1 — 2 — 3, source 0, member at 3.
        let g = generate::line(4);
        let out = flood_and_prune(&g, NodeId(0), &[NodeId(3)]);
        // Flood: each of 0,1,2 sends one copy downstream; 3 has no
        // further edge. 0→1, 1→2, 2→3 = 3 messages, no discards on a
        // line.
        assert_eq!(out.flood_messages, 3);
        assert_eq!(out.rpf_discards, 0);
        // Nobody prunes: everyone is on the path to the member.
        assert_eq!(out.prune_messages, 0);
        assert_eq!(out.tree.edge_count(), 3);
        assert_eq!(out.forwarding_state.len(), 4);
        assert!(out.prune_state.is_empty());
    }

    #[test]
    fn branch_without_members_prunes() {
        // Star with hub 0: spokes 1 (member), 2, 3.
        let g = generate::star(4);
        let out = flood_and_prune(&g, NodeId(0), &[NodeId(1)]);
        // Flood reaches all three spokes.
        assert_eq!(out.flood_messages, 3);
        // Spokes 2 and 3 prune.
        assert_eq!(out.prune_messages, 2);
        assert_eq!(out.prune_state.len(), 2);
        assert!(out.prune_state.contains(&NodeId(2)));
        assert!(out.prune_state.contains(&NodeId(3)));
        // Delivery tree is just hub—1.
        assert_eq!(out.tree.edge_count(), 1);
        assert_eq!(out.forwarding_state.len(), 2);
        assert_eq!(out.total_state_entries(), 4, "pruned routers still hold state");
    }

    #[test]
    fn ring_has_rpf_discards() {
        // On a ring, floods meet on the far side: some copies fail the
        // RPF check.
        let g = generate::ring(6);
        let out = flood_and_prune(&g, NodeId(0), &[NodeId(3)]);
        assert!(out.rpf_discards > 0, "flood met itself somewhere");
        assert!(out.flood_messages > out.rpf_discards);
        // Tree still delivers: 0..3 along one side (3 hops).
        assert_eq!(out.tree.total_weight(), 3);
    }

    #[test]
    fn members_everywhere_prune_nothing() {
        let g = generate::grid(3, 3);
        let members: Vec<NodeId> = g.nodes().collect();
        let out = flood_and_prune(&g, NodeId(4), &members);
        assert_eq!(out.prune_messages, 0);
        assert_eq!(out.forwarding_state.len(), 9);
        assert!(out.tree.is_forest());
        assert!(out.tree.is_connected());
    }

    #[test]
    fn no_members_prunes_everything() {
        let g = generate::grid(3, 3);
        let out = flood_and_prune(&g, NodeId(0), &[]);
        assert_eq!(out.forwarding_state.len(), 0);
        assert_eq!(out.prune_state.len(), 8, "all reached routers pruned");
        assert_eq!(out.tree.edge_count(), 0);
        // But the flood still cost messages — the data-driven tax CBT's
        // explicit joins avoid.
        assert!(out.flood_messages > 0);
    }

    #[test]
    fn flood_cost_scales_with_topology_not_membership() {
        let g = generate::waxman(generate::WaxmanParams { n: 60, ..Default::default() }, 11);
        let small = flood_and_prune(&g, NodeId(0), &[NodeId(1)]);
        let members: Vec<NodeId> = (1..30).map(NodeId).collect();
        let large = flood_and_prune(&g, NodeId(0), &members);
        assert_eq!(
            small.flood_messages, large.flood_messages,
            "flooding touches the whole topology regardless of membership"
        );
        assert!(small.prune_messages > large.prune_messages);
    }
}
