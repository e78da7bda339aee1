//! Shortest-path-tree constructions: the per-source oracle and the
//! graph-level prediction of the CBT shared tree.

use cbt_topology::{tree_spanning, CsrGraph, Graph, NodeId, SpfScratch, SpfTree};

/// The shortest-path tree of `g` rooted at `root` — the routing
/// tables' own Dijkstra, run over `g`'s CSR form.
pub(crate) fn spf(g: &Graph, root: NodeId) -> SpfTree {
    SpfTree::full(&CsrGraph::from_graph(g), root.0, &mut SpfScratch::new())
}

/// The converged per-(source, group) shortest-path tree: the union of
/// shortest paths from `source` to every member. This is what
/// DVMRP/MOSPF deliver along after pruning.
pub fn source_tree(g: &Graph, source: NodeId, members: &[NodeId]) -> Graph {
    tree_spanning(g, &spf(g, source), members)
}

/// The CBT shared tree as graph-level prediction: every member router
/// joins toward `core` along unicast shortest paths, so the tree is the
/// union of member→core shortest paths (with the same deterministic
/// tie-breaking the protocol's RIB uses).
///
/// The `protocol_equivalence` integration test confirms the packet-level
/// protocol builds exactly this tree on the same topology.
pub fn cbt_shared_tree(g: &Graph, core: NodeId, members: &[NodeId]) -> Graph {
    tree_spanning(g, &spf(g, core), members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::generate;

    #[test]
    fn source_tree_spans_members_minimally() {
        let g = generate::grid(4, 4);
        let members = vec![NodeId(3), NodeId(12), NodeId(15)];
        let tree = source_tree(&g, NodeId(0), &members);
        assert!(tree.is_forest());
        // Every member is connected to the source within the tree.
        let (in_tree, in_graph) = (spf(&tree, NodeId(0)), spf(&g, NodeId(0)));
        for m in &members {
            assert!(in_tree.dist(m.0).is_some(), "{m} attached");
            // Tree distance equals graph distance (shortest-path tree).
            assert_eq!(in_tree.dist(m.0), in_graph.dist(m.0));
        }
    }

    #[test]
    fn shared_tree_differs_from_source_tree_in_general() {
        // On a ring, the tree from the core and the tree from a source
        // on the far side pick different edges.
        let g = generate::ring(8);
        let members = vec![NodeId(2), NodeId(6)];
        let shared = cbt_shared_tree(&g, NodeId(0), &members);
        let src = source_tree(&g, NodeId(4), &members);
        let se: Vec<_> = shared.edges().collect();
        let de: Vec<_> = src.edges().collect();
        assert_ne!(se, de);
    }

    #[test]
    fn empty_member_set_gives_empty_tree() {
        let g = generate::grid(3, 3);
        let tree = cbt_shared_tree(&g, NodeId(4), &[]);
        assert_eq!(tree.edge_count(), 0);
    }

    #[test]
    fn member_at_core_adds_no_edges() {
        let g = generate::grid(3, 3);
        let tree = cbt_shared_tree(&g, NodeId(4), &[NodeId(4)]);
        assert_eq!(tree.edge_count(), 0);
    }
}
