//! Substrate microbenches: topology generation, SPF and the baseline
//! tree constructions the evaluation sweeps lean on.

use cbt_baselines::{cbt_shared_tree, flood_and_prune};
use cbt_topology::{generate, AllPairs, CsrGraph, NodeId, SpfScratch, SpfTree};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_waxman(c: &mut Criterion) {
    for n in [50usize, 200] {
        c.bench_function(&format!("graph/waxman_n{n}"), |b| {
            b.iter(|| {
                generate::waxman(generate::WaxmanParams { n, ..Default::default() }, black_box(42))
            })
        });
    }
}

fn bench_spf(c: &mut Criterion) {
    let g = generate::waxman(generate::WaxmanParams { n: 200, ..Default::default() }, 1);
    let csr = CsrGraph::from_graph(&g);
    let mut scratch = SpfScratch::new();
    c.bench_function("graph/dijkstra_n200", |b| {
        b.iter(|| SpfTree::full(black_box(&csr), 0, &mut scratch))
    });
    c.bench_function("graph/allpairs_n200", |b| b.iter(|| AllPairs::compute(black_box(&g))));
}

fn bench_trees(c: &mut Criterion) {
    let g = generate::waxman(generate::WaxmanParams { n: 200, ..Default::default() }, 1);
    let members: Vec<NodeId> = (0..32).map(|i| NodeId(i * 6)).collect();
    c.bench_function("tree/cbt_shared_n200_m32", |b| {
        b.iter(|| cbt_shared_tree(black_box(&g), NodeId(100), black_box(&members)))
    });
    c.bench_function("tree/flood_prune_n200_m32", |b| {
        b.iter(|| flood_and_prune(black_box(&g), NodeId(3), black_box(&members)))
    });
}

criterion_group!(benches, bench_waxman, bench_spf, bench_trees);
criterion_main!(benches);
