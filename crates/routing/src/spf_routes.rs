//! The route core both route tables share: SPF trees over one masked
//! CSR graph, repaired in place, and the hop rule read from them.
//!
//! Trees are kept sorted by root, so a lookup is one binary search and
//! allocates nothing; it yields the tree's index, which stays valid
//! until the next tree is built. What nodes and slots mean stays with
//! the caller: [`crate::Rib`] maps a slot to a `NetworkSpec` interface
//! and peer address and builds trees on first use; the netscale
//! `FleetRib` maps it to its offset in the node's slot range (the
//! world's port) and keeps one tree per core. A caller masks a liveness
//! delta through [`SpfRoutes::graph_mut`] and repairs in two phases,
//! [`SpfRoutes::repair_removals`] first, so no improvement through a
//! restored element shows while detached subtrees reattach. Repairs are
//! exact (bit-identical to a from-scratch SPF), so replays stay
//! deterministic no matter when a tree was built or repaired.

use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};

/// SPF trees over one masked graph, sorted by root.
#[derive(Debug)]
pub struct SpfRoutes {
    /// The graph; its masks are the liveness the trees reflect.
    graph: CsrGraph,
    /// One tree per root, sorted by root.
    trees: Vec<SpfTree>,
}

impl SpfRoutes {
    /// Routes over `graph` from `trees` (any order) computed over it.
    pub fn new(graph: CsrGraph, mut trees: Vec<SpfTree>) -> Self {
        trees.sort_by_key(SpfTree::root);
        SpfRoutes { graph, trees }
    }

    /// The graph, with the liveness applied so far.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The graph, to set a delta's masks on before its repair.
    pub fn graph_mut(&mut self) -> &mut CsrGraph {
        &mut self.graph
    }

    /// The index of the tree rooted at `root`, if one is kept.
    pub fn find(&self, root: u32) -> Option<usize> {
        self.trees.binary_search_by_key(&root, SpfTree::root).ok()
    }

    /// The index of the tree rooted at `root`, computed and kept on
    /// first use. `None` when `root` is not a node of the graph.
    pub fn find_or_build(&mut self, root: u32, scratch: &mut SpfScratch) -> Option<usize> {
        match self.trees.binary_search_by_key(&root, SpfTree::root) {
            Ok(i) => Some(i),
            Err(_) if root as usize >= self.graph.node_count() => None,
            Err(i) => {
                self.trees.insert(i, SpfTree::full(&self.graph, root, scratch));
                Some(i)
            }
        }
    }

    /// The tree at index `i`.
    pub fn tree(&self, i: usize) -> &SpfTree {
        &self.trees[i]
    }

    /// The hop rule from `from` toward the root of tree `i`: the next
    /// router (`via` if the caller forces one, else the predecessor),
    /// the tree distance, and the lowest interface `iface(slot)` over
    /// `from`'s *live* slots toward that router — so when one of two
    /// parallel adjacencies fails, the hop moves to the live one.
    /// `None` when `from` is unreached, or no live slot leads to the
    /// next router (a mask applied mid-flap).
    pub fn hop<I: Ord>(
        &self,
        i: usize,
        from: u32,
        via: Option<u32>,
        iface: impl Fn(u32) -> I,
    ) -> Option<(u32, u64, I)> {
        let tree = &self.trees[i];
        let dist = tree.dist(from)?;
        let next = via.or_else(|| tree.toward_root(from))?;
        let toward_next = self.graph.live_slots(from).filter(|&(_, v, _)| v == next);
        Some((next, dist, toward_next.map(|(s, ..)| iface(s)).min()?))
    }

    /// Repairs every tree for removed edges, ended by `pairs`, and
    /// `downed` nodes, all already masked. Returns the nodes touched.
    pub fn repair_removals(
        &mut self,
        pairs: &[(u32, u32)],
        downed: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let graph = &self.graph;
        self.trees.iter_mut().map(|t| t.repair_removals(graph, pairs, downed, scratch)).sum()
    }

    /// Counterpart of [`SpfRoutes::repair_removals`] for added edges
    /// and `restored` nodes, already unmasked.
    pub fn repair_additions(
        &mut self,
        pairs: &[(u32, u32)],
        restored: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let graph = &self.graph;
        self.trees.iter_mut().map(|t| t.repair_additions(graph, pairs, restored, scratch)).sum()
    }

    /// Hard-asserts every kept tree equals a from-scratch SPF over the
    /// graph's current masks.
    pub fn assert_matches_full_spf(&self, scratch: &mut SpfScratch) {
        for tree in &self.trees {
            tree.assert_matches_full(&self.graph, scratch);
        }
    }
}
