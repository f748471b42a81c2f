//! Criterion: cluster-substrate aggregation primitives (Lemmas 3.2–3.3).

use cgc_cluster::{dfs_preorder, prefix_sums, BfsForest, ClusterNet, OrderedTree};
use cgc_graphs::{gnp_spec, realize, Layout};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    for n in [200usize, 800] {
        let spec = gnp_spec(n, 10.0 / n as f64, 3);
        let h = realize(&spec, Layout::Star(3), 1, 3);

        g.bench_with_input(BenchmarkId::new("neighbor_fold", n), &n, |b, _| {
            b.iter(|| {
                let mut net = ClusterNet::with_log_budget(&h, 32);
                let vals: Vec<u64> = (0..h.n_vertices() as u64).collect();
                let mut out = Vec::new();
                net.neighbor_fold_into(
                    16,
                    16,
                    &vals,
                    |_, _, _, qu| Some(*qu),
                    |_| 0u64,
                    |a, c| *a = (*a).max(c),
                    |a, b| *a = (*a).max(b),
                    &mut out,
                );
                black_box(out)
            });
        });

        g.bench_with_input(BenchmarkId::new("exact_degrees", n), &n, |b, _| {
            b.iter(|| {
                let mut net = ClusterNet::with_log_budget(&h, 32);
                black_box(net.exact_degrees())
            });
        });

        g.bench_with_input(BenchmarkId::new("bfs_forest", n), &n, |b, _| {
            b.iter(|| {
                let mut net = ClusterNet::with_log_budget(&h, 32);
                let members: Vec<usize> = (0..h.n_vertices()).collect();
                black_box(BfsForest::run(&mut net, &[members], &[0], 12))
            });
        });

        g.bench_with_input(BenchmarkId::new("prefix_sums", n), &n, |b, _| {
            let mut net = ClusterNet::with_log_budget(&h, 32);
            let members: Vec<usize> = (0..h.n_vertices()).collect();
            let forest = BfsForest::run(&mut net, &[members], &[0], 12);
            let tree = OrderedTree::from_bfs(&forest.trees[0]);
            let _ = dfs_preorder(&forest.trees[0]);
            let values = vec![1i64; h.n_vertices()];
            let in_s = vec![true; h.n_vertices()];
            b.iter(|| {
                let mut net = ClusterNet::with_log_budget(&h, 32);
                black_box(prefix_sums(
                    &mut net,
                    std::slice::from_ref(&tree),
                    &values,
                    &in_s,
                ))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
