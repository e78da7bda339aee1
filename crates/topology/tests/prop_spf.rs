//! Property suite for the incremental SPF layer: after any
//! xorshift-random link/node flap schedule, the incrementally repaired
//! tree must be **identical** (distances and predecessors) to a
//! from-scratch recompute over the same masked graph — plus a
//! regression test pinning that a single flap touches a small fraction
//! of the graph, which is the entire point of incremental SPF. The full
//! recompute itself is checked against an independent Bellman–Ford over
//! the harness's own edge list. Both checks also run with edge weights
//! drawn across all of `u32`, so distances pass 2^32 and the high
//! buckets of the SPF's radix heap fill.

use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::generate::{self, WaxmanParams};

/// Tiny deterministic xorshift64* — same style as the obs-merge
/// property suite; no external RNG needed.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Harness {
    g: CsrGraph,
    pairs: Vec<[u32; 2]>,
    /// `(a, b, weight)` per undirected edge, parallel to `pairs`.
    edges: Vec<(u32, u32, u32)>,
    edge_down: Vec<bool>,
    node_down: Vec<bool>,
}

impl Harness {
    /// A Waxman graph; `wide` redraws every edge weight from
    /// `1..=u32::MAX`.
    fn new(n: usize, alpha: f64, seed: u64, wide: bool) -> Self {
        let g0 = generate::waxman(WaxmanParams { n, alpha, beta: 0.3 }, seed);
        let mut edges: Vec<(u32, u32, u32)> = g0.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        if wide {
            let mut rng = XorShift::new(seed ^ 0x5eed);
            for e in &mut edges {
                e.2 = 1 + (rng.next() % u64::from(u32::MAX)) as u32;
            }
        }
        let (g, pairs) = CsrGraph::from_edges(n, &edges);
        Harness { g, pairs, edge_down: vec![false; edges.len()], node_down: vec![false; n], edges }
    }

    /// Toggles a random batch of edges/nodes and applies it to `tree`
    /// in the two-phase (removals, then additions) order the RIB uses.
    /// Returns the number of nodes the repairs touched.
    fn random_batch(&mut self, rng: &mut XorShift, tree: &mut SpfTree, s: &mut SpfScratch) -> u64 {
        let batch = 1 + rng.below(4);
        let mut removed = Vec::new();
        let mut downed = Vec::new();
        let mut added = Vec::new();
        let mut restored = Vec::new();
        for _ in 0..batch {
            if rng.below(4) == 0 {
                // Node flap (rarer, like real router crash/restart).
                let v = rng.below(self.node_down.len()) as u32;
                if self.node_down[v as usize] {
                    self.node_down[v as usize] = false;
                    self.g.set_node_up(v, true);
                    restored.push(v);
                } else {
                    self.node_down[v as usize] = true;
                    self.g.set_node_up(v, false);
                    downed.push(v);
                }
            } else {
                let e = rng.below(self.edges.len());
                let (a, b, _) = self.edges[e];
                if self.edge_down[e] {
                    self.edge_down[e] = false;
                    for slot in self.pairs[e] {
                        self.g.set_slot_live(slot, true);
                    }
                    added.push((a, b));
                } else {
                    self.edge_down[e] = true;
                    for slot in self.pairs[e] {
                        self.g.set_slot_live(slot, false);
                    }
                    removed.push((a, b));
                }
            }
        }
        let mut touched = tree.repair_removals(&self.g, &removed, &downed, s);
        touched += tree.repair_additions(&self.g, &added, &restored, s);
        touched
    }
}

fn assert_identical(g: &CsrGraph, t: &SpfTree, label: &str) {
    let mut scratch = SpfScratch::new();
    let fresh = SpfTree::full(g, t.root(), &mut scratch);
    for x in 0..g.node_count() as u32 {
        assert_eq!(t.dist(x), fresh.dist(x), "{label}: dist of node {x}");
        assert_eq!(t.toward_root(x), fresh.toward_root(x), "{label}: pred of node {x}");
    }
}

#[test]
fn incremental_repair_equals_full_recompute_under_random_flaps() {
    for (seed, wide) in (0..24u64).flat_map(|s| [(s, false), (s, true)]) {
        let n = 40 + (seed as usize % 5) * 25;
        let mut h = Harness::new(n, 0.15 + 0.05 * (seed % 3) as f64, seed, wide);
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
        let root = rng.below(n) as u32;
        let mut scratch = SpfScratch::new();
        let mut tree = SpfTree::full(&h.g, root, &mut scratch);
        for step in 0..30 {
            h.random_batch(&mut rng, &mut tree, &mut scratch);
            assert_identical(&h.g, &tree, &format!("seed {seed} wide {wide} step {step}"));
        }
    }
}

#[test]
fn additions_before_the_first_removal_stay_exact() {
    // A tree built while edges and nodes are down meets their return
    // first: the addition repair re-points `pred` before any removal
    // repair has built the child lists, and the first removal builds
    // them from the re-pointed `pred`.
    for (seed, wide) in (0..8u64).flat_map(|s| [(s, false), (s, true)]) {
        let n = 60;
        let mut h = Harness::new(n, 0.2, seed, wide);
        let mut rng = XorShift::new(seed.wrapping_add(555));
        let mut down: Vec<usize> = (0..8).map(|_| rng.below(h.edges.len())).collect();
        down.sort_unstable();
        down.dedup();
        let v = 1 + rng.below(n - 1) as u32;
        // The harness's down flags stay false: everything is back up
        // before `random_batch` reads them.
        let mask = |h: &mut Harness, up: bool| {
            for &e in &down {
                h.pairs[e].iter().for_each(|&slot| h.g.set_slot_live(slot, up));
            }
            h.g.set_node_up(v, up);
        };
        mask(&mut h, false);
        let mut scratch = SpfScratch::new();
        let mut tree = SpfTree::full(&h.g, 0, &mut scratch);
        mask(&mut h, true);
        let added: Vec<(u32, u32)> = down.iter().map(|&e| (h.edges[e].0, h.edges[e].1)).collect();
        tree.repair_additions(&h.g, &added, &[v], &mut scratch);
        assert_identical(&h.g, &tree, &format!("seed {seed} wide {wide} fresh additions"));
        for step in 0..10 {
            h.random_batch(&mut rng, &mut tree, &mut scratch);
            assert_identical(&h.g, &tree, &format!("seed {seed} wide {wide} step {step}"));
        }
    }
}

#[test]
fn flapping_the_root_itself_stays_exact() {
    // The root is special-cased (distance pinned at 0 even when down):
    // hammer specifically root flaps mixed with edge flaps.
    let mut h = Harness::new(60, 0.2, 99, false);
    let mut rng = XorShift::new(4242);
    let root = 17u32;
    let mut scratch = SpfScratch::new();
    let mut tree = SpfTree::full(&h.g, root, &mut scratch);
    for step in 0..20 {
        // Toggle the root every other step.
        if step % 2 == 0 {
            let downed = !h.node_down[root as usize];
            h.node_down[root as usize] = downed;
            h.g.set_node_up(root, !downed);
            if downed {
                tree.repair_removals(&h.g, &[], &[root], &mut scratch);
            } else {
                tree.repair_additions(&h.g, &[], &[root], &mut scratch);
            }
        } else {
            h.random_batch(&mut rng, &mut tree, &mut scratch);
        }
        assert_identical(&h.g, &tree, &format!("root-flap step {step}"));
    }
}

#[test]
fn single_flap_touches_a_small_fraction_of_the_graph() {
    // Regression pin for the incremental win: across many single-edge
    // flaps on a 2000-node Waxman graph, the average number of touched
    // nodes must stay well below n — a full recompute touches all n
    // every time. Deterministic seed, so the numbers are stable.
    let n = 2000;
    let mut h = Harness::new(n, 0.05, 7, false);
    let mut scratch = SpfScratch::new();
    let mut tree = SpfTree::full(&h.g, 0, &mut scratch);
    let mut rng = XorShift::new(31337);
    let flaps = 100;
    let mut total_touched = 0u64;
    for _ in 0..flaps {
        let e = rng.below(h.edges.len());
        let (a, b, _) = h.edges[e];
        for slot in h.pairs[e] {
            h.g.set_slot_live(slot, false);
        }
        total_touched += tree.repair_removals(&h.g, &[(a, b)], &[], &mut scratch);
        for slot in h.pairs[e] {
            h.g.set_slot_live(slot, true);
        }
        total_touched += tree.repair_additions(&h.g, &[(a, b)], &[], &mut scratch);
    }
    assert_identical(&h.g, &tree, "after flap storm");
    let avg = total_touched as f64 / (2 * flaps) as f64;
    assert!(
        avg < n as f64 / 10.0,
        "single flap touched {avg:.1} nodes on average — incremental SPF \
         should touch ≪ n = {n}"
    );
}

/// Test-only reference: Bellman–Ford over the harness's edge list and
/// down flags (not the CSR), then the predecessor rule — the smallest-id
/// usable neighbour on a tight edge. The root keeps distance 0 even when
/// down, and no path crosses a down node or a down edge.
fn bellman_ford(h: &Harness, root: u32) -> (Vec<Option<u64>>, Vec<Option<u32>>) {
    let n = h.node_down.len();
    let up = |x: u32| !h.node_down[x as usize];
    let usable: Vec<(u32, u32, u64)> = h
        .edges
        .iter()
        .zip(&h.edge_down)
        .filter(|&(&(a, b, _), &down)| !down && up(a) && up(b))
        .map(|(&(a, b, w), _)| (a, b, u64::from(w)))
        .collect();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    dist[root as usize] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b, w) in &usable {
            for (u, v) in [(a, b), (b, a)] {
                let Some(du) = dist[u as usize] else { continue };
                if v != root && dist[v as usize].is_none_or(|dv| du + w < dv) {
                    dist[v as usize] = Some(du + w);
                    changed = true;
                }
            }
        }
    }
    let pred = (0..n as u32)
        .map(|x| {
            let dx = dist[x as usize].filter(|_| x != root)?;
            usable
                .iter()
                .filter_map(|&(a, b, w)| {
                    let u = if x == a {
                        b
                    } else if x == b {
                        a
                    } else {
                        return None;
                    };
                    dist[u as usize].is_some_and(|du| du + w == dx).then_some(u)
                })
                .min()
        })
        .collect();
    (dist, pred)
}

#[test]
fn full_spf_matches_an_independent_bellman_ford() {
    for (seed, wide) in (0..12u64).flat_map(|s| [(s, false), (s, true)]) {
        let n = 30 + (seed as usize % 4) * 30;
        let mut h = Harness::new(n, 0.2, seed, wide);
        let mut rng = XorShift::new(seed.wrapping_add(101));
        let mut scratch = SpfScratch::new();
        let mut repaired = SpfTree::full(&h.g, 0, &mut scratch);
        // Round 0 has everything up; later rounds mask random batches of
        // slots and nodes (the repaired tree only carries the masks).
        for round in 0..6 {
            if round > 0 {
                h.random_batch(&mut rng, &mut repaired, &mut scratch);
            }
            for root in [0, rng.below(n) as u32] {
                let t = SpfTree::full(&h.g, root, &mut scratch);
                let (dist, pred) = bellman_ford(&h, root);
                for x in 0..n as u32 {
                    let at = format!("seed {seed} wide {wide} round {round} root {root} node {x}");
                    assert_eq!(t.dist(x), dist[x as usize], "dist, {at}");
                    assert_eq!(t.toward_root(x), pred[x as usize], "pred, {at}");
                }
            }
        }
    }
}
