//! Topology generators.
//!
//! The SIGCOMM-'93-era multicast evaluations ran on random graphs in
//! the Waxman / Doar–Leslie tradition: nodes scattered on a unit
//! square, edge probability decaying with Euclidean distance. We
//! reproduce that, plus the regular shapes unit tests want. All
//! generators take an explicit seed and are deterministic.

use crate::graph::{Graph, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters for [`waxman`].
#[derive(Debug, Clone, Copy)]
pub struct WaxmanParams {
    /// Number of nodes.
    pub n: usize,
    /// Edge-density parameter α (higher ⇒ more edges). Typical 0.15–0.3.
    pub alpha: f64,
    /// Locality parameter β (higher ⇒ longer edges likelier). Typical 0.1–0.3.
    pub beta: f64,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams { n: 100, alpha: 0.25, beta: 0.2 }
    }
}

/// Generates a connected Waxman random graph.
///
/// Nodes are placed uniformly on the unit square; each pair `(u,v)` gets
/// an edge with probability `α · exp(−d(u,v) / (β · L))` where `L` is
/// the maximum possible distance (√2). If the draw leaves the graph
/// disconnected, each stranded component is stitched to its Euclidean
/// nearest neighbour in the main component — the standard repair that
/// keeps degree distributions Waxman-like while guaranteeing the
/// connectivity every multicast experiment needs.
///
/// Edge weights are 1 (hop-count metric), matching how the '93
/// evaluation measured tree cost and delay in hops.
///
/// Scaling: nodes are bucketed into a spatial grid and each cell pair
/// is sampled with a geometric skip (success probability = the pair's
/// distance-lower-bound edge probability) followed by an accept test
/// at the true probability — an exact per-pair Bernoulli draw without
/// the O(n²) pairwise scan, so 100k-node graphs generate in well under
/// a second at internet-like densities.
pub fn waxman(params: WaxmanParams, seed: u64) -> Graph {
    let WaxmanParams { n, alpha, beta } = params;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pos: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let l = 2f64.sqrt();
    let mut g = Graph::with_nodes(n);
    if n >= 2 && alpha > 0.0 {
        let grid = SpatialGrid::build(&pos);
        let beta_l = beta * l;
        for i in 0..grid.occupied.len() {
            for j in i..grid.occupied.len() {
                let (ca, cb) = (grid.occupied[i], grid.occupied[j]);
                sample_cell_pair(&mut g, &mut rng, &grid, &pos, ca, cb, alpha, beta_l);
            }
        }
    }
    stitch_components(&mut g, &pos);
    g
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Uniform grid over the unit square bucketing node indices by
/// position. Cell side is chosen so the number of cell *pairs* stays
/// bounded (≤ ~1.3M at 100k nodes) while cells stay small enough that
/// the distance lower bound is tight for the sampling skip.
struct SpatialGrid {
    /// Cells per axis.
    c: usize,
    /// `buckets[cy * c + cx]` = node indices in that cell, in id order.
    buckets: Vec<Vec<u32>>,
    /// Non-empty cell indices, ascending.
    occupied: Vec<u32>,
}

impl SpatialGrid {
    fn build(pos: &[(f64, f64)]) -> Self {
        let n = pos.len();
        let c = (((n as f64).sqrt() / 8.0) as usize).clamp(1, 40);
        let mut buckets = vec![Vec::new(); c * c];
        for (i, &p) in pos.iter().enumerate() {
            buckets[Self::cell_of(c, p)].push(i as u32);
        }
        let occupied =
            (0..buckets.len() as u32).filter(|&i| !buckets[i as usize].is_empty()).collect();
        SpatialGrid { c, buckets, occupied }
    }

    fn cell_of(c: usize, p: (f64, f64)) -> usize {
        let clamp = |v: f64| ((v * c as f64) as usize).min(c - 1);
        clamp(p.1) * c + clamp(p.0)
    }

    /// Lower bound on the distance between any point of cell `a` and
    /// any point of cell `b` (0 for identical or adjacent cells).
    fn min_dist(&self, a: u32, b: u32) -> f64 {
        let (ax, ay) = ((a as usize % self.c) as f64, (a as usize / self.c) as f64);
        let (bx, by) = ((b as usize % self.c) as f64, (b as usize / self.c) as f64);
        let gap = |u: f64, v: f64| ((u - v).abs() - 1.0).max(0.0) / self.c as f64;
        let (dx, dy) = (gap(ax, bx), gap(ay, by));
        (dx * dx + dy * dy).sqrt()
    }
}

/// Samples every node pair across one cell pair (or within one cell
/// when `ca == cb`): a geometric skip at the cell pair's maximum edge
/// probability selects candidate pairs, each thinned down to its true
/// probability — together an exact Bernoulli draw per pair.
#[allow(clippy::too_many_arguments)]
fn sample_cell_pair(
    g: &mut Graph,
    rng: &mut ChaCha8Rng,
    grid: &SpatialGrid,
    pos: &[(f64, f64)],
    ca: u32,
    cb: u32,
    alpha: f64,
    beta_l: f64,
) {
    let a = &grid.buckets[ca as usize];
    let b = &grid.buckets[cb as usize];
    let same = ca == cb;
    let total: u64 = if same {
        (a.len() as u64) * (a.len() as u64 - 1) / 2
    } else {
        (a.len() as u64) * (b.len() as u64)
    };
    if total == 0 {
        return;
    }
    let p_max = (alpha * (-grid.min_dist(ca, cb) / beta_l).exp()).min(1.0);
    if p_max <= 0.0 {
        return;
    }
    let mut idx: u64 = 0;
    while idx < total {
        // Geometric skip to the next candidate pair. `ln_1p` keeps the
        // denominator exact for tiny p_max — naive `ln(1.0 - p_max)`
        // rounds to 0 below ~1e-16, which would degenerate the skip to
        // a full scan *and* turn the accept ratio p/p_max into ≥ 1 for
        // every far pair (a distance-1.4 "Waxman" edge storm).
        let step = if p_max >= 1.0 {
            1
        } else {
            let u: f64 = rng.gen();
            let skip = (1.0 - u).ln() / (-p_max).ln_1p();
            // Compare in f64: the skip can exceed u64::MAX long before
            // the cast would saturate into a bogus in-range index.
            if skip >= (total - idx) as f64 {
                break;
            }
            1 + skip as u64
        };
        let Some(sel) = idx.checked_add(step - 1) else { break };
        if sel >= total {
            break;
        }
        let (ni, nj) = if same { triangle_pair(a, sel) } else { cross_pair(a, b, sel) };
        let d = dist(pos[ni as usize], pos[nj as usize]);
        let p = alpha * (-d / beta_l).exp();
        // Thinning: accept at the pair's true probability (p ≤ p_max
        // because d ≥ the cell pair's distance lower bound).
        if rng.gen::<f64>() < p / p_max {
            g.add_edge(NodeId(ni), NodeId(nj), 1);
        }
        idx = sel + 1;
    }
}

/// The `k`-th pair `(i, j)` with `i < j` of one bucket, lexicographic.
fn triangle_pair(bucket: &[u32], k: u64) -> (u32, u32) {
    let mut k = k;
    let mut i = 0usize;
    loop {
        let row = (bucket.len() - 1 - i) as u64;
        if k < row {
            return (bucket[i], bucket[i + 1 + k as usize]);
        }
        k -= row;
        i += 1;
    }
}

/// The `k`-th pair of the cross product of two buckets.
fn cross_pair(a: &[u32], b: &[u32], k: u64) -> (u32, u32) {
    (a[(k / b.len() as u64) as usize], b[(k % b.len() as u64) as usize])
}

/// Connects a possibly-disconnected graph by joining each secondary
/// component to the already-connected body (the component of node 0
/// plus everything stitched before it) via the geometrically closest
/// node pair, found with a grid ring search instead of an O(n²) scan.
/// Components are processed in order of their smallest node id; exact
/// distance ties break to the smaller (connected, stranded) id pair.
fn stitch_components(g: &mut Graph, pos: &[(f64, f64)]) {
    let n = g.node_count();
    if n == 0 {
        return;
    }
    // Label components with one flood per component.
    let mut comp = vec![u32::MAX; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        let id = comps.len() as u32;
        comps.push(vec![start as u32]);
        comp[start] = id;
        stack.push(NodeId(start as u32));
        while let Some(v) = stack.pop() {
            for (u, _) in g.neighbors(v) {
                if comp[u.idx()] == u32::MAX {
                    comp[u.idx()] = id;
                    comps[id as usize].push(u.0);
                    stack.push(u);
                }
            }
        }
    }
    if comps.len() <= 1 {
        return;
    }
    // Grid of connected nodes; starts as component 0, grows per stitch.
    let c = (((n as f64).sqrt() / 8.0) as usize).clamp(1, 40);
    let mut buckets = vec![Vec::new(); c * c];
    for &a in &comps[0] {
        buckets[SpatialGrid::cell_of(c, pos[a as usize])].push(a);
    }
    for stranded in &comps[1..] {
        // Nearest (connected, stranded) pair via expanding cell rings.
        let mut best: Option<(f64, u32, u32)> = None;
        for &b in stranded {
            let p = pos[b as usize];
            let (bcx, bcy) = (SpatialGrid::cell_of(c, p) % c, SpatialGrid::cell_of(c, p) / c);
            for r in 0..c {
                // A hit at ring r can still be beaten by ring r+1
                // (corner vs. face distance), so only stop once the
                // ring's minimum possible distance exceeds the best.
                let ring_floor = (r as f64 - 1.0).max(0.0) / c as f64;
                if best.is_some_and(|(bd, _, _)| ring_floor > bd) {
                    break;
                }
                for (cx, cy) in ring_cells(bcx, bcy, r, c) {
                    for &a in &buckets[cy * c + cx] {
                        let d = dist(pos[a as usize], p);
                        let cand = (d, a, b);
                        if best.is_none_or(|(bd, ba, bb)| (cand.0, cand.1, cand.2) < (bd, ba, bb)) {
                            best = Some(cand);
                        }
                    }
                }
            }
        }
        let (_, a, b) = best.expect("connected body is non-empty");
        g.add_edge(NodeId(a), NodeId(b), 1);
        for &m in stranded {
            buckets[SpatialGrid::cell_of(c, pos[m as usize])].push(m);
        }
    }
}

/// The cells on the Chebyshev ring of radius `r` around `(cx, cy)`,
/// clipped to the grid, in deterministic row-major order.
fn ring_cells(cx: usize, cy: usize, r: usize, c: usize) -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    let (x0, x1) = (cx.saturating_sub(r), (cx + r).min(c - 1));
    let (y0, y1) = (cy.saturating_sub(r), (cy + r).min(c - 1));
    for y in y0..=y1 {
        for x in x0..=x1 {
            let on_ring = y.abs_diff(cy) == r || x.abs_diff(cx) == r;
            if on_ring {
                cells.push((x, y));
            }
        }
    }
    cells
}

/// Parameters for [`transit_stub`] — a GT-ITM-style two-level
/// hierarchy: a backbone of transit domains, each transit router
/// hosting several stub domains, numbered **transit first** so core
/// placement can target the backbone by id range.
#[derive(Debug, Clone, Copy)]
pub struct TransitStubParams {
    /// Number of transit (backbone) domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_size: usize,
    /// Stub domains hanging off each transit router.
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain.
    pub stub_size: usize,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_domains: 4,
            transit_size: 8,
            stubs_per_transit_node: 3,
            stub_size: 8,
        }
    }
}

impl TransitStubParams {
    /// Number of transit routers (they occupy ids `0..transit_nodes()`).
    pub fn transit_nodes(&self) -> usize {
        self.transit_domains * self.transit_size
    }

    /// Total router count.
    pub fn total_nodes(&self) -> usize {
        self.transit_nodes() * (1 + self.stubs_per_transit_node * self.stub_size)
    }
}

/// Generates a connected transit-stub hierarchical graph.
///
/// Transit domains form a backbone ring with chords (inter-domain
/// weight 4, intra-domain ring+chords weight 2); every transit router
/// hosts `stubs_per_transit_node` stub domains (intra-stub random
/// connected graphs, weight 1) attached by a weight-2 uplink, with a
/// 25% chance of a second weight-4 uplink to another router of the
/// same transit domain (multihomed stubs). O(n) generation,
/// deterministic per seed.
pub fn transit_stub(params: TransitStubParams, seed: u64) -> Graph {
    let TransitStubParams {
        transit_domains: t,
        transit_size: nt,
        stubs_per_transit_node: s,
        stub_size: ns,
    } = params;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::with_nodes(params.total_nodes());
    if t == 0 || nt == 0 {
        return g;
    }
    let id = |v: usize| NodeId(v as u32);
    // Intra-transit-domain: ring + one random chord per router.
    for dom in 0..t {
        let base = dom * nt;
        for k in 0..nt {
            if nt > 1 {
                g.add_edge(id(base + k), id(base + (k + 1) % nt), 2);
            }
            if nt > 2 {
                let other = rng.gen_range(0..nt);
                if other != k {
                    g.add_edge(id(base + k), id(base + other), 2);
                }
            }
        }
    }
    // Inter-domain backbone: ring over domains + one chord per domain.
    for dom in 0..t {
        if t > 1 {
            let next = (dom + 1) % t;
            let a = dom * nt + rng.gen_range(0..nt);
            let b = next * nt + rng.gen_range(0..nt);
            g.add_edge(id(a), id(b), 4);
        }
        if t > 2 {
            let other = rng.gen_range(0..t);
            if other != dom {
                let a = dom * nt + rng.gen_range(0..nt);
                let b = other * nt + rng.gen_range(0..nt);
                g.add_edge(id(a), id(b), 4);
            }
        }
    }
    // Stub domains, numbered after the whole backbone.
    let transit_total = t * nt;
    let mut next_id = transit_total;
    for transit in 0..transit_total {
        let dom = transit / nt;
        for _ in 0..s {
            let base = next_id;
            next_id += ns;
            if ns == 0 {
                continue;
            }
            // Random connected intra-stub graph: attachment tree + extras.
            for k in 1..ns {
                let parent = rng.gen_range(0..k);
                g.add_edge(id(base + k), id(base + parent), 1);
            }
            for _ in 0..ns / 4 {
                let (a, b) = (rng.gen_range(0..ns), rng.gen_range(0..ns));
                if a != b {
                    g.add_edge(id(base + a), id(base + b), 1);
                }
            }
            // Uplink(s) into the transit domain.
            let gw = base + rng.gen_range(0..ns);
            g.add_edge(id(transit), id(gw), 2);
            if nt > 1 && rng.gen::<f64>() < 0.25 {
                let alt = dom * nt + rng.gen_range(0..nt);
                if alt != transit {
                    let gw2 = base + rng.gen_range(0..ns);
                    g.add_edge(id(alt), id(gw2), 4);
                }
            }
        }
    }
    g
}

/// A line (path) of `n` nodes.
pub fn line(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), 1);
    }
    g
}

/// A ring of `n` nodes.
pub fn ring(n: usize) -> Graph {
    let mut g = line(n);
    if n > 2 {
        g.add_edge(NodeId(0), NodeId(n as u32 - 1), 1);
    }
    g
}

/// A `rows × cols` grid.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), 1);
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), 1);
            }
        }
    }
    g
}

/// A star: node 0 is the hub, nodes `1..n` are spokes.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u32), 1);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_is_connected_and_deterministic() {
        for seed in 0..10 {
            let g1 = waxman(WaxmanParams { n: 60, ..Default::default() }, seed);
            let g2 = waxman(WaxmanParams { n: 60, ..Default::default() }, seed);
            assert!(g1.is_connected(), "seed {seed}");
            assert_eq!(g1.node_count(), 60);
            let e1: Vec<_> = g1.edges().collect();
            let e2: Vec<_> = g2.edges().collect();
            assert_eq!(e1, e2, "same seed must give identical graphs");
        }
    }

    #[test]
    fn waxman_seeds_differ() {
        let g1 = waxman(WaxmanParams::default(), 1);
        let g2 = waxman(WaxmanParams::default(), 2);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn waxman_density_tracks_alpha() {
        let sparse = waxman(WaxmanParams { n: 80, alpha: 0.05, beta: 0.2 }, 7);
        let dense = waxman(WaxmanParams { n: 80, alpha: 0.6, beta: 0.2 }, 7);
        assert!(
            dense.edge_count() > sparse.edge_count(),
            "dense {} vs sparse {}",
            dense.edge_count(),
            sparse.edge_count()
        );
    }

    #[test]
    fn waxman_survives_pathological_params() {
        // α = 0 draws no edges at all: the stitcher must still deliver a
        // connected graph (a geometric tree).
        let g = waxman(WaxmanParams { n: 20, alpha: 0.0, beta: 0.2 }, 3);
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 19);
    }

    #[test]
    fn regular_shapes() {
        assert_eq!(line(5).edge_count(), 4);
        assert_eq!(ring(5).edge_count(), 5);
        assert_eq!(grid(3, 4).edge_count(), 17);
        assert_eq!(star(6).edge_count(), 5);
        assert!(grid(3, 4).is_connected());
        assert!(ring(3).is_connected());
    }

    #[test]
    fn transit_stub_shape() {
        let p = TransitStubParams::default();
        for seed in 0..3 {
            let g = transit_stub(p, seed);
            assert_eq!(g.node_count(), p.total_nodes());
            assert!(g.is_connected(), "seed {seed}");
            let g2 = transit_stub(p, seed);
            assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        }
        let g = transit_stub(p, 1);
        // Transit routers are numbered first and are better connected
        // than the average stub router.
        let transit = p.transit_nodes();
        let t_deg: usize = (0..transit).map(|i| g.degree(NodeId(i as u32))).sum();
        let s_deg: usize = (transit..p.total_nodes()).map(|i| g.degree(NodeId(i as u32))).sum();
        assert!(
            t_deg as f64 / transit as f64 > s_deg as f64 / (p.total_nodes() - transit) as f64,
            "backbone routers should out-degree stub routers"
        );
    }

    #[test]
    fn transit_stub_degenerate_params() {
        let empty = transit_stub(TransitStubParams { transit_domains: 0, ..Default::default() }, 0);
        assert_eq!(empty.node_count(), 0);
        let no_stubs = transit_stub(
            TransitStubParams {
                transit_domains: 2,
                transit_size: 3,
                stubs_per_transit_node: 0,
                stub_size: 5,
            },
            0,
        );
        assert_eq!(no_stubs.node_count(), 6);
        assert!(no_stubs.is_connected());
        let single = transit_stub(
            TransitStubParams {
                transit_domains: 1,
                transit_size: 1,
                stubs_per_transit_node: 1,
                stub_size: 1,
            },
            0,
        );
        assert_eq!(single.node_count(), 2);
        assert!(single.is_connected());
    }

    #[test]
    fn waxman_grid_sampling_matches_expected_density() {
        // The grid-sampled edge count must track the analytic
        // expectation Σ α·exp(−d/βL): check it lands within a loose
        // band instead of pinning exact counts (the draw is random).
        let params = WaxmanParams { n: 400, alpha: 0.2, beta: 0.15 };
        let g = waxman(params, 42);
        let per_node = 2.0 * g.edge_count() as f64 / 400.0;
        assert!(
            per_node > 2.0 && per_node < 40.0,
            "avg degree {per_node} outside plausibility band"
        );
    }

    #[test]
    fn waxman_tiny_probability_cells_stay_empty() {
        // Regression: at internet scale (large n, small β) far cell
        // pairs have p_max below f64's 1-ulp (~1e-16). A naive
        // `ln(1 - p_max)` rounds to 0 there, which degenerated the
        // geometric skip into a full scan accepting at p/p_max ≈
        // e^{-(d-d_min)/βL} — millions of near-diameter "Waxman"
        // edges and O(n²) runtime. Pin both symptoms: no long edges,
        // and the count near the analytic α·2π(βL)²·C(n,2) ≈ 16k.
        let params = WaxmanParams { n: 10_000, alpha: 0.25, beta: 0.01 };
        let seed = 11;
        let g = waxman(params, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pos: Vec<(f64, f64)> =
            (0..params.n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let long =
            g.edges().filter(|&(a, b, _)| dist(pos[a.0 as usize], pos[b.0 as usize]) > 0.3).count();
        // p(0.3) ≈ 2e-10: expect zero; allow a couple of component
        // stitches, which connect nearest pairs and stay short.
        assert!(long <= 2, "{long} edges longer than 0.3 at βL = 0.014");
        assert!(
            (8_000..40_000).contains(&g.edge_count()),
            "edge count {} far from the ~16k analytic expectation",
            g.edge_count()
        );
    }

    #[test]
    fn tiny_sizes_do_not_panic() {
        for n in 0..3 {
            let _ = line(n);
            let _ = ring(n);
            let _ = star(n.max(1));
            let _ = waxman(WaxmanParams { n, ..Default::default() }, 0);
        }
    }
}
