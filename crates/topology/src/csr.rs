//! Arena-backed graph + incremental shortest-path trees.
//!
//! [`CsrGraph`] is a flat, `u32`-indexed compressed-sparse-row view of
//! an undirected weighted graph: one `offsets` array, one directed
//! "slot" per edge direction, and in-place **liveness masks** (per slot
//! and per node) so failures apply without rebuilding anything.
//!
//! [`SpfTree`] is a single-destination shortest-path tree over a
//! `CsrGraph` that supports **incremental repair**: when edges/nodes go
//! down, only the detached subtrees are recomputed (seeded from the
//! still-valid frontier); when they come back, improvements propagate
//! from the restored elements. Both repairs are *exact*: the repaired
//! tree is bit-identical to a from-scratch recompute, because the
//! predecessor rule — `pred[x]` = the smallest-id usable neighbour `u`
//! with `dist[u] + w(u,x) == dist[x]` — is a pure function of the
//! distance field and the live edge set, independent of processing
//! order. That property is what keeps every replay deterministic no
//! matter how the failure schedule was batched.
//!
//! Every run pops distances in non-decreasing order, so the priority
//! queue is a monotone radix heap: a push is one bucket append, and an
//! entry moves between buckets at most 64 times before it pops. A full
//! run builds only the distance and predecessor columns (12 B per
//! node); a tree's first removal repair builds, from `pred`, the child
//! lists it detaches subtrees with.
//!
//! All scratch state (heap, DFS stack, affected list, stamp array)
//! lives in a reusable [`SpfScratch`], so steady-state repairs and
//! full recomputes perform no per-query allocation.

use crate::graph::Graph;

/// Sentinel for "no node" in `u32` arenas.
pub const NO_NODE: u32 = u32::MAX;
/// Sentinel distance for unreachable nodes.
pub const INF_DIST: u64 = u64::MAX;

/// Flat CSR adjacency with in-place edge/node liveness masks.
///
/// Parallel edges are kept as distinct slots (e.g. a point-to-point
/// link *and* a shared LAN between the same router pair): each can be
/// masked independently, and Dijkstra's relaxation takes the minimum
/// live weight naturally.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` indexes `targets`/`weights`/`live`.
    offsets: Vec<u32>,
    /// Directed slot targets (two slots per undirected edge).
    targets: Vec<u32>,
    /// Directed slot weights (mirrored across the edge's two slots).
    weights: Vec<u32>,
    /// Per-slot liveness; both of an edge's slots are masked together.
    live: Vec<bool>,
    /// Per-node liveness (a down node carries no traffic).
    node_up: Vec<bool>,
}

impl CsrGraph {
    /// Builds the CSR form of an undirected edge list over `n` nodes.
    ///
    /// Returns the graph plus, per input edge, its two directed slot
    /// indices `[a→b, b→a]` — callers keep these to mask specific
    /// edges later (e.g. per-link / per-LAN-pair failure application).
    /// Self-loops are skipped (their slot pair is `[NO_NODE; 2]`).
    pub fn from_edges(n: usize, edges: &[(u32, u32, u32)]) -> (Self, Vec<[u32; 2]>) {
        let mut deg = vec![0u32; n + 1];
        for &(a, b, _) in edges {
            if a != b {
                deg[a as usize + 1] += 1;
                deg[b as usize + 1] += 1;
            }
        }
        for i in 1..deg.len() {
            deg[i] += deg[i - 1];
        }
        let offsets = deg;
        let slots = offsets[n] as usize;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NO_NODE; slots];
        let mut weights = vec![0u32; slots];
        let mut pairs = Vec::with_capacity(edges.len());
        for &(a, b, w) in edges {
            if a == b {
                pairs.push([NO_NODE, NO_NODE]);
                continue;
            }
            let sa = cursor[a as usize];
            cursor[a as usize] += 1;
            targets[sa as usize] = b;
            weights[sa as usize] = w;
            let sb = cursor[b as usize];
            cursor[b as usize] += 1;
            targets[sb as usize] = a;
            weights[sb as usize] = w;
            pairs.push([sa, sb]);
        }
        let g =
            CsrGraph { offsets, targets, weights, live: vec![true; slots], node_up: vec![true; n] };
        (g, pairs)
    }

    /// Builds the CSR form of a [`Graph`] (everything live).
    pub fn from_graph(g: &Graph) -> Self {
        let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        Self::from_edges(g.node_count(), &edges).0
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_up.len()
    }

    /// Number of directed slots (2× undirected edge count).
    pub fn slot_count(&self) -> usize {
        self.targets.len()
    }

    /// Masks or unmasks one directed slot. Callers mask both of an
    /// edge's slots (from the pair returned by [`CsrGraph::from_edges`]).
    pub fn set_slot_live(&mut self, slot: u32, up: bool) {
        if slot != NO_NODE {
            self.live[slot as usize] = up;
        }
    }

    /// Is this slot live?
    pub fn slot_live(&self, slot: u32) -> bool {
        slot != NO_NODE && self.live[slot as usize]
    }

    /// Marks a node up or down in place.
    pub fn set_node_up(&mut self, node: u32, up: bool) {
        self.node_up[node as usize] = up;
    }

    /// Is this node up?
    pub fn is_node_up(&self, node: u32) -> bool {
        self.node_up[node as usize]
    }

    /// Copies `other`'s slot and node liveness onto this graph, which
    /// must have the same shape (a clone of it, typically).
    pub fn copy_masks_from(&mut self, other: &CsrGraph) {
        self.live.copy_from_slice(&other.live);
        self.node_up.copy_from_slice(&other.node_up);
    }

    /// Do both graphs carry the same slot and node liveness?
    pub fn masks_eq(&self, other: &CsrGraph) -> bool {
        self.live == other.live && self.node_up == other.node_up
    }

    /// The slot index range of node `u`.
    #[inline]
    fn slot_range(&self, u: u32) -> std::ops::Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }

    /// First slot index of node `u`. `slot − slot_base(u)` is `u`'s
    /// local interface number for that slot — the contract the netscale
    /// world and its route table share: interface `k` of `u` is the
    /// `k`-th entry of `u`'s slot range, in CSR order.
    #[inline]
    pub fn slot_base(&self, u: u32) -> u32 {
        self.offsets[u as usize]
    }

    /// `(slot, target, weight)` triples of `u`'s live slots, in slot
    /// order. Like [`CsrGraph::live_neighbors`] but keeps the slot
    /// index so callers can derive the local interface number.
    #[inline]
    pub fn live_slots(&self, u: u32) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.slot_range(u).filter_map(move |s| {
            let v = self.targets[s];
            (self.live[s] && self.node_up[v as usize]).then_some((s as u32, v, self.weights[s]))
        })
    }

    /// Live, up-target neighbours of `u` as `(node, weight)`. The
    /// caller is responsible for checking `u` itself is up.
    #[inline]
    pub fn live_neighbors(&self, u: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.slot_range(u).filter_map(move |s| {
            let v = self.targets[s];
            (self.live[s] && self.node_up[v as usize]).then_some((v, self.weights[s]))
        })
    }

    /// Approximate heap footprint in bytes (arena arrays only).
    pub fn mem_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.targets.len() * 4
            + self.weights.len() * 4
            + self.live.len()
            + self.node_up.len()
    }
}

/// A monotone priority queue of `(key, node)` entries: every key pushed
/// is at least the last key popped. Dijkstra keeps that promise — it
/// pushes `d + w` after popping `d`, and the repairs push their seeds
/// before the first pop.
///
/// Bucket 0 holds the keys equal to `last`, the last key popped; bucket
/// `i > 0` the keys whose highest bit differing from `last` is bit
/// `i − 1`. A pop from an empty bucket 0 takes the first non-empty
/// bucket, makes its smallest key the new `last` and redistributes the
/// bucket into strictly lower ones, so an entry moves at most 64 times.
/// Entries with equal keys pop in no particular order.
#[derive(Debug)]
struct RadixHeap {
    buckets: [Vec<(u64, u32)>; 65],
    last: u64,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap { buckets: std::array::from_fn(|_| Vec::new()), last: 0 }
    }
}

impl RadixHeap {
    /// Empties the heap, keeping the buckets' capacity.
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        debug_assert!(key >= self.last, "key {key} below the last popped key {}", self.last);
        let b = self.bucket(key);
        self.buckets[b].push((key, node));
    }

    /// Removes an entry with the smallest key.
    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.buckets[0].is_empty() {
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[i]);
            self.last = moved.iter().map(|&(k, _)| k).min().expect("bucket is non-empty");
            for &(k, x) in &moved {
                let b = self.bucket(k);
                self.buckets[b].push((k, x));
            }
            moved.clear();
            self.buckets[i] = moved;
        }
        self.buckets[0].pop()
    }
}

/// Reusable scratch state for full SPF runs and incremental repairs.
///
/// One instance serves any number of trees over graphs of any size —
/// arrays grow to the largest graph seen and are reset in O(1) via a
/// stamp counter. Its priority queue is a monotone radix heap (see the
/// module docs), whose buckets keep their capacity between runs.
#[derive(Debug, Default)]
pub struct SpfScratch {
    heap: RadixHeap,
    stack: Vec<u32>,
    affected: Vec<u32>,
    seeds: Vec<u32>,
    stamp: Vec<u32>,
    cur: u32,
}

impl SpfScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        SpfScratch::default()
    }

    /// Sizes the stamp array for an `n`-node graph and clears
    /// per-call state.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.cur == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 0;
        }
        self.cur += 1;
        self.heap.clear();
        self.stack.clear();
        self.affected.clear();
        self.seeds.clear();
    }

    #[inline]
    fn mark(&mut self, x: u32) -> bool {
        let slot = &mut self.stamp[x as usize];
        if *slot == self.cur {
            false
        } else {
            *slot = self.cur;
            true
        }
    }

    #[inline]
    fn marked(&self, x: u32) -> bool {
        self.stamp[x as usize] == self.cur
    }
}

/// A single-destination shortest-path tree with incremental repair —
/// the repo's only Dijkstra. Both route tables and the analytic trees
/// ([`crate::AllPairs`], [`crate::tree_spanning`]) read it.
///
/// Dijkstra over the failure-filtered graph: the root always has
/// distance 0 (even when down — mirroring how the RIB treats
/// `dist(dst, dst)`), no path traverses a down node or a masked slot,
/// and ties resolve to the smallest-id predecessor. On an undirected
/// graph the distance toward the root is also the distance from it.
///
/// A full run keeps 12 B per node (`dist`, `pred`). The first
/// [`SpfTree::repair_removals`] adds three child-list columns (12 B
/// more per node), which later repairs keep in step with `pred`.
#[derive(Debug, Clone)]
pub struct SpfTree {
    root: u32,
    dist: Vec<u64>,
    pred: Vec<u32>,
    /// Intrusive child lists (`child_head[p]` → `child_next`/`child_prev`
    /// chain) used to detach whole subtrees in O(size). Empty until the
    /// first removal repair builds them from `pred`; from then on they
    /// mirror `pred`.
    child_head: Vec<u32>,
    child_next: Vec<u32>,
    child_prev: Vec<u32>,
}

impl SpfTree {
    /// Runs a full Dijkstra toward `root`, reusing `scratch`.
    pub fn full(g: &CsrGraph, root: u32, scratch: &mut SpfScratch) -> Self {
        let mut t = SpfTree {
            root,
            dist: Vec::new(),
            pred: Vec::new(),
            child_head: Vec::new(),
            child_next: Vec::new(),
            child_prev: Vec::new(),
        };
        t.recompute_full(g, scratch);
        t
    }

    /// From-scratch recompute in place; returns the number of nodes
    /// settled (the cost a repair is compared against). Drops the child
    /// lists, keeping their capacity for the next removal repair.
    pub fn recompute_full(&mut self, g: &CsrGraph, scratch: &mut SpfScratch) -> u64 {
        let n = g.node_count();
        scratch.begin(n);
        self.dist.clear();
        self.dist.resize(n, INF_DIST);
        self.pred.clear();
        self.pred.resize(n, NO_NODE);
        self.child_head.clear();
        self.child_next.clear();
        self.child_prev.clear();
        if n == 0 {
            return 0;
        }
        self.dist[self.root as usize] = 0;
        let mut settled = 1u64;
        if g.is_node_up(self.root) {
            scratch.heap.push(0, self.root);
        }
        while let Some((d, x)) = scratch.heap.pop() {
            if self.dist[x as usize] != d {
                continue; // stale entry
            }
            for (y, w) in g.live_neighbors(x) {
                let nd = d + u64::from(w);
                let old = self.dist[y as usize];
                if nd < old {
                    if old == INF_DIST {
                        settled += 1;
                    }
                    self.dist[y as usize] = nd;
                    self.pred[y as usize] = x;
                    scratch.heap.push(nd, y);
                } else if nd == old && x < self.pred[y as usize] && y != self.root {
                    self.pred[y as usize] = x;
                }
            }
        }
        settled
    }

    /// The tree root (destination).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Distance from `n` to the root, if reachable.
    pub fn dist(&self, n: u32) -> Option<u64> {
        match self.dist.get(n as usize) {
            Some(&d) if d != INF_DIST => Some(d),
            _ => None,
        }
    }

    /// Next hop from `n` toward the root (its predecessor). `None` for
    /// the root itself or unreachable nodes.
    pub fn toward_root(&self, n: u32) -> Option<u32> {
        match self.pred.get(n as usize) {
            Some(&p) if p != NO_NODE => Some(p),
            _ => None,
        }
    }

    /// Full path `n → … → root`, inclusive, if `n` is reachable.
    pub fn path_to_root(&self, n: u32) -> Option<Vec<u32>> {
        self.dist(n)?;
        let mut path = vec![n];
        let mut cur = n;
        while let Some(p) = self.toward_root(cur) {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.root);
        Some(path)
    }

    /// Hard-asserts this tree equals a from-scratch SPF over `g`'s
    /// current masks — the repair paths' bit-identity contract.
    pub fn assert_matches_full(&self, g: &CsrGraph, scratch: &mut SpfScratch) {
        let fresh = SpfTree::full(g, self.root, scratch);
        let differs = |&u: &usize| (self.dist[u], self.pred[u]) != (fresh.dist[u], fresh.pred[u]);
        let first = (0..g.node_count()).find(differs);
        assert_eq!(first, None, "first node whose (dist, pred) differs, root {}", self.root);
    }

    /// Number of reachable nodes (root inclusive).
    pub fn reached(&self) -> u64 {
        self.dist.iter().filter(|&&d| d != INF_DIST).count() as u64
    }

    /// Heap footprint in bytes: 12 per node, 24 once a removal repair
    /// has built the child lists.
    pub fn mem_bytes(&self) -> usize {
        let columns = [&self.pred, &self.child_head, &self.child_next, &self.child_prev];
        self.dist.capacity() * 8 + columns.iter().map(|c| c.capacity() * 4).sum::<usize>()
    }

    /// Builds the child lists from `pred`, once per tree: they are
    /// kept in step from then on.
    fn ensure_child_lists(&mut self) {
        if !self.child_head.is_empty() {
            return;
        }
        let n = self.pred.len();
        self.child_head.resize(n, NO_NODE);
        self.child_next.resize(n, NO_NODE);
        self.child_prev.resize(n, NO_NODE);
        for x in 0..n as u32 {
            let p = self.pred[x as usize];
            if p != NO_NODE {
                self.link_child(p, x);
            }
        }
    }

    #[inline]
    fn link_child(&mut self, p: u32, x: u32) {
        let head = self.child_head[p as usize];
        self.child_prev[x as usize] = NO_NODE;
        self.child_next[x as usize] = head;
        if head != NO_NODE {
            self.child_prev[head as usize] = x;
        }
        self.child_head[p as usize] = x;
    }

    #[inline]
    fn unlink_child(&mut self, x: u32) {
        let p = self.pred[x as usize];
        if p == NO_NODE {
            return;
        }
        let prev = self.child_prev[x as usize];
        let next = self.child_next[x as usize];
        if prev == NO_NODE {
            self.child_head[p as usize] = next;
        } else {
            self.child_next[prev as usize] = next;
        }
        if next != NO_NODE {
            self.child_prev[next as usize] = prev;
        }
        self.child_prev[x as usize] = NO_NODE;
        self.child_next[x as usize] = NO_NODE;
    }

    /// Re-points `pred[x]` to `p`, keeping the child lists consistent
    /// once they exist.
    #[inline]
    fn set_pred(&mut self, x: u32, p: u32) {
        if self.pred[x as usize] == p {
            return;
        }
        if self.child_head.is_empty() {
            self.pred[x as usize] = p;
            return;
        }
        self.unlink_child(x);
        self.pred[x as usize] = p;
        if p != NO_NODE {
            self.link_child(p, x);
        }
    }

    /// Exact predecessor for a node with a settled finite distance:
    /// the smallest-id usable neighbour on a tight edge.
    #[inline]
    fn exact_pred(&self, g: &CsrGraph, x: u32) -> u32 {
        let dx = self.dist[x as usize];
        let mut best = NO_NODE;
        for s in g.slot_range(x) {
            let u = g.targets[s];
            if !g.live[s] || !g.node_up[u as usize] || u >= best {
                continue;
            }
            let du = self.dist[u as usize];
            if du != INF_DIST && du + u64::from(g.weights[s]) == dx {
                best = u;
            }
        }
        best
    }

    /// Repairs the tree after edges/nodes went **down**. The caller has
    /// already masked the slots / node flags in `g`; `removed_pairs`
    /// lists the undirected endpoints of every masked edge and `downed`
    /// the newly-down nodes. Returns the number of nodes touched.
    ///
    /// Only the subtrees hanging off the removed elements are
    /// recomputed, seeded from the unaffected frontier: distances
    /// outside the detached set cannot change (their tree paths avoid
    /// every removed element), and their predecessors stay minimal
    /// because removal only shrinks candidate sets.
    ///
    /// The first call on a tree builds its child lists from `pred`.
    pub fn repair_removals(
        &mut self,
        g: &CsrGraph,
        removed_pairs: &[(u32, u32)],
        downed: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let n = g.node_count();
        if n == 0 {
            return 0;
        }
        scratch.begin(n);
        self.ensure_child_lists();
        // 1. Detach points: tree edges crossing a removed pair, plus
        // every newly-down node (and, for a down root, its children).
        for &(a, b) in removed_pairs {
            if self.pred[a as usize] == b {
                scratch.seeds.push(a);
            }
            if self.pred[b as usize] == a {
                scratch.seeds.push(b);
            }
        }
        for &r in downed {
            if r == self.root {
                let mut c = self.child_head[r as usize];
                while c != NO_NODE {
                    scratch.seeds.push(c);
                    c = self.child_next[c as usize];
                }
            } else if self.dist[r as usize] != INF_DIST {
                scratch.seeds.push(r);
            }
        }
        // 2. Flood each detach point's subtree via the child lists.
        for i in 0..scratch.seeds.len() {
            let d = scratch.seeds[i];
            if !scratch.mark(d) {
                continue; // already inside another detached subtree
            }
            self.unlink_child(d);
            scratch.affected.push(d);
            scratch.stack.push(d);
            while let Some(x) = scratch.stack.pop() {
                let mut c = self.child_head[x as usize];
                while c != NO_NODE {
                    if scratch.mark(c) {
                        scratch.affected.push(c);
                        scratch.stack.push(c);
                    }
                    c = self.child_next[c as usize];
                }
                self.child_head[x as usize] = NO_NODE;
            }
        }
        for i in 0..scratch.affected.len() {
            let x = scratch.affected[i] as usize;
            self.dist[x] = INF_DIST;
            self.pred[x] = NO_NODE;
            self.child_next[x] = NO_NODE;
            self.child_prev[x] = NO_NODE;
        }
        // 3. Seed every affected node from its best unaffected, settled
        // neighbour, then run Dijkstra restricted to the affected set.
        for i in 0..scratch.affected.len() {
            let x = scratch.affected[i];
            if !g.is_node_up(x) {
                continue;
            }
            let mut best = INF_DIST;
            for s in g.slot_range(x) {
                let u = g.targets[s];
                if !g.live[s] || !g.node_up[u as usize] || scratch.marked(u) {
                    continue;
                }
                let du = self.dist[u as usize];
                if du != INF_DIST {
                    best = best.min(du + u64::from(g.weights[s]));
                }
            }
            if best != INF_DIST {
                self.dist[x as usize] = best;
                scratch.heap.push(best, x);
            }
        }
        while let Some((d, x)) = scratch.heap.pop() {
            if self.dist[x as usize] != d {
                continue;
            }
            for s in g.slot_range(x) {
                let y = g.targets[s];
                if !g.live[s] || !g.node_up[y as usize] || !scratch.marked(y) {
                    continue;
                }
                let nd = d + u64::from(g.weights[s]);
                if nd < self.dist[y as usize] {
                    self.dist[y as usize] = nd;
                    scratch.heap.push(nd, y);
                }
            }
        }
        // 4. Exact predecessors for everything reattached.
        for i in 0..scratch.affected.len() {
            let x = scratch.affected[i];
            if self.dist[x as usize] != INF_DIST {
                let p = self.exact_pred(g, x);
                debug_assert_ne!(p, NO_NODE);
                self.set_pred(x, p);
            }
        }
        scratch.affected.len() as u64
    }

    /// Repairs the tree after edges/nodes came back **up**. The caller
    /// has already unmasked slots / node flags in `g`; `added_pairs`
    /// lists the undirected endpoints of every unmasked edge and
    /// `restored` the newly-up nodes. Returns the number of nodes
    /// touched (distance decreased or predecessor re-tied).
    ///
    /// Improvements are seeded across the restored elements and
    /// propagate as a multi-source Dijkstra of strict decreases; an
    /// equal-distance event only re-ties the predecessor (no
    /// propagation needed — the neighbour's own distance is unchanged,
    /// so nothing downstream can change).
    pub fn repair_additions(
        &mut self,
        g: &CsrGraph,
        added_pairs: &[(u32, u32)],
        restored: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let n = g.node_count();
        if n == 0 {
            return 0;
        }
        scratch.begin(n);
        for &(a, b) in added_pairs {
            self.seed_across(g, a, b, scratch);
            self.seed_across(g, b, a, scratch);
        }
        for &r in restored {
            if !g.is_node_up(r) {
                continue;
            }
            // Best way *into* r from any settled neighbour…
            for s in g.slot_range(r) {
                let u = g.targets[s];
                if !g.live[s] || !g.node_up[u as usize] {
                    continue;
                }
                let du = self.dist[u as usize];
                if du != INF_DIST {
                    self.relax(r, du + u64::from(g.weights[s]), u, scratch);
                }
            }
            // …and let r itself relax outward (covers a restored root,
            // whose distance is 0 without any inbound improvement, and
            // new equal-cost candidacies r creates for its neighbours).
            if self.dist[r as usize] != INF_DIST {
                scratch.heap.push(self.dist[r as usize], r);
            }
        }
        while let Some((d, x)) = scratch.heap.pop() {
            if self.dist[x as usize] != d {
                continue;
            }
            for s in g.slot_range(x) {
                let y = g.targets[s];
                if !g.live[s] || !g.node_up[y as usize] {
                    continue;
                }
                self.relax(y, d + u64::from(g.weights[s]), x, scratch);
            }
        }
        // Exact predecessors for every touched node.
        for i in 0..scratch.affected.len() {
            let x = scratch.affected[i];
            debug_assert_ne!(self.dist[x as usize], INF_DIST);
            let p = self.exact_pred(g, x);
            debug_assert_ne!(p, NO_NODE);
            self.set_pred(x, p);
        }
        scratch.affected.len() as u64
    }

    /// Seeds an improvement of `b` across the newly-usable pair edge
    /// from `a`, scanning `a`'s slots for live edges to `b`.
    fn seed_across(&mut self, g: &CsrGraph, a: u32, b: u32, scratch: &mut SpfScratch) {
        if !g.is_node_up(a) || !g.is_node_up(b) {
            return;
        }
        let da = self.dist[a as usize];
        if da == INF_DIST {
            return;
        }
        for s in g.slot_range(a) {
            if g.targets[s] == b && g.live[s] {
                self.relax(b, da + u64::from(g.weights[s]), a, scratch);
            }
        }
    }

    /// One improvement relaxation: strict decrease propagates; an
    /// equal-distance tie with a smaller-id candidate marks the node
    /// for the exact-pred post-pass without propagating.
    #[inline]
    fn relax(&mut self, x: u32, nd: u64, via: u32, scratch: &mut SpfScratch) {
        if x == self.root {
            return; // the root's distance is pinned at 0
        }
        let old = self.dist[x as usize];
        if nd < old {
            self.dist[x as usize] = nd;
            if scratch.mark(x) {
                scratch.affected.push(x);
            }
            scratch.heap.push(nd, x);
        } else if nd == old && via < self.pred[x as usize] && scratch.mark(x) {
            scratch.affected.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, WaxmanParams};

    /// 0 —1— 1 —1— 2 —1— 3 and a heavy chord 0 —5— 3.
    fn path_with_chord() -> (CsrGraph, Vec<[u32; 2]>) {
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5)])
    }

    fn assert_matches_reference(g: &CsrGraph, t: &SpfTree, label: &str) {
        let mut scratch = SpfScratch::new();
        let fresh = SpfTree::full(g, t.root(), &mut scratch);
        assert_eq!(t.dist, fresh.dist, "{label}: dist mismatch");
        assert_eq!(t.pred, fresh.pred, "{label}: pred mismatch");
    }

    #[test]
    fn radix_heap_pops_like_a_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // xorshift64*: random monotone push/pop runs whose increments
        // include zero (equal keys), small steps and jumps past 2^32.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut radix = RadixHeap::default();
        for run in 0..200 {
            radix.clear();
            let mut model: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut last = 0u64;
            for _ in 0..1 + next() % 300 {
                if next() % 3 == 0 {
                    let popped = radix.pop();
                    let expected = model.pop().map(|Reverse(e)| e);
                    assert_eq!(popped.map(|e| e.0), expected.map(|e| e.0), "run {run}");
                    if let (Some(p), Some(e)) = (popped, expected) {
                        last = p.0;
                        got.push(p);
                        want.push(e);
                    }
                    continue;
                }
                let step = match next() % 4 {
                    0 => 0,
                    1 => next() % 16,
                    2 => next() % 100_000,
                    _ => next() % (1 << 40),
                };
                let node = (next() % 64) as u32;
                radix.push(last + step, node);
                model.push(Reverse((last + step, node)));
            }
            while let Some(p) = radix.pop() {
                let Reverse(e) = model.pop().expect("model holds as many entries");
                assert_eq!(p.0, e.0, "run {run}: key order");
                got.push(p);
                want.push(e);
            }
            assert_eq!(model.pop(), None, "run {run}: radix heap ran dry first");
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "run {run}: nodes per key");
        }
    }

    #[test]
    fn full_distances_and_paths() {
        let (g, _) = path_with_chord();
        let t = SpfTree::full(&g, 0, &mut SpfScratch::new());
        assert_eq!(t.dist(3), Some(3), "the path beats the weight-5 chord");
        assert_eq!(t.path_to_root(3), Some(vec![3, 2, 1, 0]));
        assert_eq!(t.path_to_root(0), Some(vec![0]));
        let (g, _) = CsrGraph::from_edges(3, &[(0, 1, 1)]);
        let t = SpfTree::full(&g, 0, &mut SpfScratch::new());
        assert_eq!((t.dist(2), t.path_to_root(2)), (None, None), "isolated node");
    }

    #[test]
    fn mask_and_repair_reroutes() {
        let (mut g, pairs) = path_with_chord();
        let mut scratch = SpfScratch::new();
        let mut t = SpfTree::full(&g, 0, &mut scratch);
        assert_eq!(t.dist(3), Some(3));
        // Cut 1—2: node 2 and 3 must reroute over the chord.
        for s in pairs[1] {
            g.set_slot_live(s, false);
        }
        let touched = t.repair_removals(&g, &[(1, 2)], &[], &mut scratch);
        assert_eq!(t.dist(3), Some(5), "via the chord");
        assert_eq!(t.dist(2), Some(6));
        assert_eq!(t.dist(1), Some(1), "unaffected side untouched");
        assert_eq!(touched, 2, "only nodes 2 and 3 touched");
        assert_matches_reference(&g, &t, "after removal");
        // Restore it.
        for s in pairs[1] {
            g.set_slot_live(s, true);
        }
        t.repair_additions(&g, &[(1, 2)], &[], &mut scratch);
        assert_eq!(t.dist(3), Some(3));
        assert_matches_reference(&g, &t, "after restore");
    }

    #[test]
    fn node_down_and_restore() {
        let (mut g, _) = path_with_chord();
        let mut scratch = SpfScratch::new();
        let mut t = SpfTree::full(&g, 0, &mut scratch);
        g.set_node_up(1, false);
        t.repair_removals(&g, &[], &[1], &mut scratch);
        assert_eq!(t.dist(1), None, "down node unreachable");
        assert_eq!(t.dist(2), Some(6), "around the chord");
        assert_matches_reference(&g, &t, "node down");
        g.set_node_up(1, true);
        t.repair_additions(&g, &[], &[1], &mut scratch);
        assert_eq!(t.dist(2), Some(2));
        assert_matches_reference(&g, &t, "node restored");
    }

    #[test]
    fn down_root_keeps_zero_and_strands_everyone() {
        let (mut g, _) = path_with_chord();
        let mut scratch = SpfScratch::new();
        let mut t = SpfTree::full(&g, 0, &mut scratch);
        g.set_node_up(0, false);
        t.repair_removals(&g, &[], &[0], &mut scratch);
        assert_eq!(t.dist(0), Some(0), "root distance stays pinned");
        for x in 1..4 {
            assert_eq!(t.dist(x), None, "node {x}");
        }
        assert_matches_reference(&g, &t, "root down");
        g.set_node_up(0, true);
        t.repair_additions(&g, &[], &[0], &mut scratch);
        assert_eq!(t.dist(3), Some(3));
        assert_matches_reference(&g, &t, "root restored");
    }

    #[test]
    fn equal_cost_tie_retied_on_restore() {
        // 0—1—3 and 0—2—3, all weight 1: pred(3) must be the
        // smallest-id candidate, and must re-tie when 1 comes back.
        let (mut g, pairs) = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let mut scratch = SpfScratch::new();
        let mut t = SpfTree::full(&g, 0, &mut scratch);
        assert_eq!(t.toward_root(3), Some(1));
        for s in pairs[2] {
            g.set_slot_live(s, false);
        }
        t.repair_removals(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(t.toward_root(3), Some(2));
        assert_eq!(t.dist(3), Some(2), "distance unchanged through the tie");
        for s in pairs[2] {
            g.set_slot_live(s, true);
        }
        let touched = t.repair_additions(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(t.toward_root(3), Some(1), "tie re-broken to the smaller id");
        assert!(touched >= 1);
        assert_matches_reference(&g, &t, "tie restore");
    }

    #[test]
    fn parallel_slots_mask_independently() {
        // Two parallel edges 0—1: weight 5 (a "link") and weight 1 (a
        // "LAN"). Masking the cheap one must re-route over the dear one
        // even though pred stays the same node.
        let (mut g, pairs) = CsrGraph::from_edges(2, &[(0, 1, 5), (0, 1, 1)]);
        let mut scratch = SpfScratch::new();
        let mut t = SpfTree::full(&g, 0, &mut scratch);
        assert_eq!(t.dist(1), Some(1));
        for s in pairs[1] {
            g.set_slot_live(s, false);
        }
        t.repair_removals(&g, &[(0, 1)], &[], &mut scratch);
        assert_eq!(t.dist(1), Some(5), "falls back to the live parallel slot");
        assert_matches_reference(&g, &t, "parallel mask");
        for s in pairs[1] {
            g.set_slot_live(s, true);
        }
        t.repair_additions(&g, &[(0, 1)], &[], &mut scratch);
        assert_eq!(t.dist(1), Some(1));
        assert_matches_reference(&g, &t, "parallel restore");
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let (g, _) = CsrGraph::from_edges(0, &[]);
        let mut scratch = SpfScratch::new();
        // Zero-node graph: nothing to do, nothing to panic on.
        let mut t = SpfTree {
            root: 0,
            dist: Vec::new(),
            pred: Vec::new(),
            child_head: Vec::new(),
            child_next: Vec::new(),
            child_prev: Vec::new(),
        };
        assert_eq!(t.recompute_full(&g, &mut scratch), 0);
        assert_eq!(t.repair_removals(&g, &[], &[], &mut scratch), 0);
        let (g1, _) = CsrGraph::from_edges(1, &[]);
        let t1 = SpfTree::full(&g1, 0, &mut scratch);
        assert_eq!(t1.dist(0), Some(0));
        assert_eq!(t1.toward_root(0), None);
    }

    #[test]
    fn self_loops_skipped() {
        let (g, pairs) = CsrGraph::from_edges(2, &[(0, 0, 1), (0, 1, 2)]);
        assert_eq!(pairs[0], [NO_NODE, NO_NODE]);
        assert_eq!(g.slot_count(), 2);
        let mut scratch = SpfScratch::new();
        let t = SpfTree::full(&g, 0, &mut scratch);
        assert_eq!(t.dist(1), Some(2));
    }

    #[test]
    fn batched_flaps_match_full_recompute() {
        // A denser random graph with a batch of simultaneous removals
        // followed by a batch of restores, at several roots.
        let g0 = generate::waxman(WaxmanParams { n: 80, alpha: 0.4, beta: 0.3 }, 5);
        let edges: Vec<(u32, u32, u32)> = g0.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        let (mut g, pairs) = CsrGraph::from_edges(g0.node_count(), &edges);
        let mut scratch = SpfScratch::new();
        let kill: Vec<usize> = (0..edges.len()).step_by(7).collect();
        for root in [0u32, 13, 79] {
            let mut t = SpfTree::full(&g, root, &mut scratch);
            let mut removed = Vec::new();
            for &e in &kill {
                for s in pairs[e] {
                    g.set_slot_live(s, false);
                }
                removed.push((edges[e].0, edges[e].1));
            }
            g.set_node_up(40, false);
            t.repair_removals(&g, &removed, &[40], &mut scratch);
            assert_matches_reference(&g, &t, "batch removal");
            for &e in &kill {
                for s in pairs[e] {
                    g.set_slot_live(s, true);
                }
            }
            g.set_node_up(40, true);
            t.repair_additions(&g, &removed, &[40], &mut scratch);
            assert_matches_reference(&g, &t, "batch restore");
        }
    }
}
