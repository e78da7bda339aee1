//! An undirected weighted graph over dense integer node ids.
//!
//! Kept deliberately simple (adjacency lists over a `Vec`) — topology
//! sizes in the evaluation are a few hundred routers, and determinism
//! matters more than asymptotics: neighbour iteration order is the
//! insertion order, so every algorithm downstream is reproducible.

use std::fmt;

/// Dense node identifier: index into the graph's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Edge weight (unicast metric). Integer weights keep comparisons exact.
pub type EdgeWeight = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    to: NodeId,
    weight: EdgeWeight,
}

/// An undirected weighted graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId(self.adj.len() as u32 - 1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All node ids in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Adds an undirected edge. Parallel edges are rejected (the lower
    /// weight wins); self-loops are ignored.
    ///
    /// Returns `true` if a new edge was inserted.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: EdgeWeight) -> bool {
        assert!(a.idx() < self.adj.len() && b.idx() < self.adj.len(), "edge endpoints must exist");
        if a == b {
            return false;
        }
        if let Some(e) = self.adj[a.idx()].iter_mut().find(|e| e.to == b) {
            let w = e.weight.min(weight);
            e.weight = w;
            if let Some(rev) = self.adj[b.idx()].iter_mut().find(|e| e.to == a) {
                rev.weight = w;
            }
            return false;
        }
        self.adj[a.idx()].push(Edge { to: b, weight });
        self.adj[b.idx()].push(Edge { to: a, weight });
        self.edge_count += 1;
        true
    }

    /// True if an edge `a — b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.get(a.idx()).is_some_and(|es| es.iter().any(|e| e.to == b))
    }

    /// The weight of edge `a — b`, if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<EdgeWeight> {
        self.adj.get(a.idx())?.iter().find(|e| e.to == b).map(|e| e.weight)
    }

    /// Neighbours of `n` with edge weights, in insertion order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        self.adj[n.idx()].iter().map(|e| (e.to, e.weight))
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.idx()].len()
    }

    /// Every undirected edge once, as `(a, b, weight)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, es)| {
            let a = NodeId(i as u32);
            es.iter().filter(move |e| a < e.to).map(move |e| (a, e.to, e.weight))
        })
    }

    /// True if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u.idx()] {
                    seen[u.idx()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Total weight of all edges — the "tree cost" metric when the graph
    /// is a delivery tree (experiment S93-T2).
    pub fn total_weight(&self) -> u64 {
        self.edges().map(|(_, _, w)| u64::from(w)).sum()
    }

    /// True if the graph is a forest (acyclic).
    pub fn is_forest(&self) -> bool {
        // A forest has exactly (nodes - components) edges.
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            let mut stack = vec![NodeId(start as u32)];
            while let Some(v) = stack.pop() {
                for (u, _) in self.neighbors(v) {
                    if !seen[u.idx()] {
                        seen[u.idx()] = true;
                        stack.push(u);
                    }
                }
            }
        }
        self.edge_count == n - components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 2);
        g.add_edge(NodeId(2), NodeId(0), 3);
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn parallel_edge_keeps_lower_weight() {
        let mut g = triangle();
        assert!(!g.add_edge(NodeId(0), NodeId(1), 7));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1));
        assert!(!g.add_edge(NodeId(0), NodeId(1), 0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(0), "symmetric update");
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = Graph::with_nodes(1);
        assert!(!g.add_edge(NodeId(0), NodeId(0), 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn connectivity() {
        let mut g = triangle();
        assert!(g.is_connected());
        let d = g.add_node();
        assert!(!g.is_connected());
        g.add_edge(NodeId(0), d, 1);
        assert!(g.is_connected());
        assert!(Graph::new().is_connected(), "empty graph is trivially connected");
    }

    #[test]
    fn forest_detection() {
        let mut g = Graph::with_nodes(4);
        assert!(g.is_forest(), "no edges");
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        assert!(g.is_forest(), "two disjoint edges");
        g.add_edge(NodeId(1), NodeId(2), 1);
        assert!(g.is_forest(), "a path");
        g.add_edge(NodeId(3), NodeId(0), 1);
        assert!(!g.is_forest(), "a cycle");
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }
}
