//! Analytic helpers over shortest-path trees: all-pairs distance
//! tables, the centrality measures used for core placement, and the
//! member-spanning tree of the baselines.
//!
//! Every tree here is an [`SpfTree`] over the graph's CSR form — the
//! same Dijkstra the routing tables run — so the analytic experiments
//! and the protocol's routes break ties identically (smallest-id
//! predecessor) and agree by construction.

use crate::csr::{CsrGraph, SpfScratch, SpfTree, INF_DIST};
use crate::graph::{Graph, NodeId};

/// Distance type; `u64` so summed path weights cannot overflow.
pub type Dist = u64;

/// The union of `tree`'s shortest paths from all `members` to its root
/// — a shortest-path tree (the per-source tree of the baselines, and the
/// "joins follow unicast routing" shape of a CBT tree).
///
/// `tree` must have been computed over `g` (via [`CsrGraph::from_graph`]).
/// Returned as a subgraph of `g` (same node ids, only tree edges);
/// unreachable members add nothing.
pub fn tree_spanning(g: &Graph, tree: &SpfTree, members: &[NodeId]) -> Graph {
    let mut out = Graph::with_nodes(g.node_count());
    for &m in members {
        let Some(path) = tree.path_to_root(m.0) else { continue };
        for hop in path.windows(2) {
            let (a, b) = (NodeId(hop[0]), NodeId(hop[1]));
            let w = g.edge_weight(a, b).expect("path edge exists");
            out.add_edge(a, b, w);
        }
    }
    out
}

/// All-pairs shortest-path distances.
#[derive(Debug, Clone)]
pub struct AllPairs {
    n: usize,
    /// Row-major `n × n`: row `a` holds the distances from `a`,
    /// [`INF_DIST`] where unreachable.
    dist: Vec<Dist>,
}

impl AllPairs {
    /// Runs one [`SpfTree`] per node over the CSR form of `g`.
    pub fn compute(g: &Graph) -> Self {
        let n = g.node_count();
        let csr = CsrGraph::from_graph(g);
        let mut scratch = SpfScratch::new();
        let mut dist = Vec::with_capacity(n * n);
        for root in 0..n as u32 {
            let tree = SpfTree::full(&csr, root, &mut scratch);
            dist.extend((0..n as u32).map(|x| tree.dist(x).unwrap_or(INF_DIST)));
        }
        AllPairs { n, dist }
    }

    /// Distances from `a` to every node.
    fn row(&self, a: NodeId) -> &[Dist] {
        &self.dist[a.idx() * self.n..][..self.n]
    }

    /// Distance between two nodes, if connected.
    pub fn dist(&self, a: NodeId, b: NodeId) -> Option<Dist> {
        if a.idx() >= self.n || b.idx() >= self.n {
            return None;
        }
        Some(self.row(a)[b.idx()]).filter(|&d| d != INF_DIST)
    }

    /// Eccentricity of `n`: its largest distance to any node.
    pub fn eccentricity(&self, n: NodeId) -> Option<Dist> {
        self.row(n).iter().try_fold(0, |acc, &d| (d != INF_DIST).then_some(acc.max(d)))
    }

    /// Graph center: the node with minimum eccentricity (smallest id on
    /// ties). `None` if the graph is disconnected or empty.
    pub fn center(&self) -> Option<NodeId> {
        (0..self.n as u32)
            .map(NodeId)
            .map(|n| Some((self.eccentricity(n)?, n.0)))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .min()
            .map(|(_, n)| NodeId(n))
    }

    /// Medoid of a member set: the node minimising the *sum* of
    /// distances to all members (smallest id on ties). Used by the
    /// group-centric core-placement ablation (Abl-1).
    pub fn medoid(&self, members: &[NodeId]) -> Option<NodeId> {
        if members.is_empty() {
            return None;
        }
        (0..self.n as u32)
            .map(NodeId)
            .map(|n| {
                let sum: Option<Dist> =
                    members.iter().map(|&m| self.dist(n, m)).try_fold(0, |acc, d| Some(acc + d?));
                Some((sum?, n.0))
            })
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .min()
            .map(|(_, n)| NodeId(n))
    }

    /// Graph diameter, if connected.
    pub fn diameter(&self) -> Option<Dist> {
        (0..self.n as u32)
            .map(|n| self.eccentricity(NodeId(n)))
            .try_fold(0, |acc, e| Some(acc.max(e?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 —1— 1 —1— 2 —1— 3 and a heavy chord 0 —5— 3.
    fn path_with_chord() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g.add_edge(NodeId(0), NodeId(3), 5);
        g
    }

    #[test]
    fn all_pairs_distances() {
        let g = path_with_chord();
        let ap = AllPairs::compute(&g);
        assert_eq!(ap.dist(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(ap.dist(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(ap.dist(NodeId(0), NodeId(3)), Some(3), "path beats the weight-5 chord");
        assert_eq!(ap.dist(NodeId(0), NodeId(4)), None, "out of range");
    }

    #[test]
    fn unreachable_nodes_report_none() {
        let mut g = path_with_chord();
        let iso = g.add_node();
        let ap = AllPairs::compute(&g);
        assert_eq!(ap.dist(NodeId(0), iso), None);
        assert_eq!(ap.eccentricity(NodeId(0)), None);
        assert_eq!(ap.eccentricity(iso), None);
    }

    #[test]
    fn spanning_tree_is_a_tree_touching_members() {
        let g = path_with_chord();
        let t = SpfTree::full(&CsrGraph::from_graph(&g), 0, &mut SpfScratch::new());
        let tree = tree_spanning(&g, &t, &[NodeId(2), NodeId(3)]);
        assert!(tree.is_forest());
        assert_eq!(tree.edge_count(), 3);
        assert_eq!(tree.total_weight(), 3);
    }

    #[test]
    fn all_pairs_symmetry() {
        let g = path_with_chord();
        let ap = AllPairs::compute(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(ap.dist(a, b), ap.dist(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn center_of_a_path_is_middle() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1);
        }
        let ap = AllPairs::compute(&g);
        assert_eq!(ap.center(), Some(NodeId(2)));
        assert_eq!(ap.diameter(), Some(4));
        assert_eq!(ap.eccentricity(NodeId(2)), Some(2));
    }

    #[test]
    fn medoid_tracks_the_member_set() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1);
        }
        let ap = AllPairs::compute(&g);
        assert_eq!(ap.medoid(&[NodeId(3), NodeId(4)]), Some(NodeId(3)));
        // {0,4}: every node on the path sums to 4, so the smallest id wins.
        assert_eq!(ap.medoid(&[NodeId(0), NodeId(4)]), Some(NodeId(0)));
        assert_eq!(ap.medoid(&[]), None);
    }

    #[test]
    fn disconnected_graph_has_no_center_or_diameter() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        let ap = AllPairs::compute(&g);
        assert_eq!(ap.center(), None);
        assert_eq!(ap.diameter(), None);
    }
}
