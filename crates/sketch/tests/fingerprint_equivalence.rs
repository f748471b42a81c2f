//! Differential test for the fingerprint aggregation: `own`, `agg` and the
//! meter report of `neighborhood_fingerprints` must be bit-identical at
//! threads {1, 2, 4, 8}, and equal to a serial edge-table max loop kept
//! here as the reference model. The instances include a one-hub star, so
//! the segmented plan cuts inside the hub's row and the fragment merge
//! runs, and a multi-link cluster layout; the predicates include one that
//! filters neighbors asymmetrically.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_net::{CommGraph, CostReport, SeedStream};
use cgc_sketch::{encoded_bits, neighborhood_fingerprints, Fingerprint};
use rand::RngExt;

const T: usize = 96;
const SALT: u64 = 5;

/// Random clusters of path-connected machines plus random inter-cluster
/// links (repeats make parallel links).
fn clustered(seed: u64) -> ClusterGraph {
    let mut rng = SeedStream::new(seed).rng_for(0xF1A6, 0);
    let k = rng.random_range(20..60usize);
    let m = rng.random_range(1..4usize);
    let n_machines = k * m;
    let mut edges = Vec::new();
    for c in 0..k {
        for j in 1..m {
            edges.push((c * m + j - 1, c * m + j));
        }
    }
    for _ in 0..rng.random_range(2 * k..10 * k) {
        let a = rng.random_range(0..n_machines);
        let b = rng.random_range(0..n_machines);
        if a / m != b / m {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let comm = CommGraph::from_edges(n_machines, &edges).unwrap();
    ClusterGraph::build(comm, (0..n_machines).map(|x| x / m).collect()).unwrap()
}

/// The serial edge-table loop `neighborhood_fingerprints` used before it
/// ran on the executor: sample every vertex in order, max-merge along
/// `h_edges()` in both directions, then charge the encoded sizes.
fn reference(
    g: &ClusterGraph,
    seeds: &SeedStream,
    pred: impl Fn(VertexId, VertexId) -> bool,
) -> (Vec<Fingerprint>, Vec<Fingerprint>, CostReport) {
    let n = g.n_vertices();
    let own: Vec<Fingerprint> = (0..n)
        .map(|v| Fingerprint::sample(&mut seeds.rng_for(v as u64, SALT), T))
        .collect();
    let mut agg: Vec<Fingerprint> = (0..n).map(|_| Fingerprint::empty(T)).collect();
    for (u, v) in g.h_edges() {
        if pred(v, u) {
            agg[v].merge(&own[u]);
        }
        if pred(u, v) {
            agg[u].merge(&own[v]);
        }
    }
    let max_bits = |fs: &[Fingerprint]| fs.iter().map(|f| encoded_bits(f.maxima())).max();
    let (qbits, rbits) = (max_bits(&own).unwrap_or(0), max_bits(&agg).unwrap_or(0));
    let mut net = ClusterNet::with_log_budget(g, 32);
    net.charge_broadcast(qbits);
    net.charge_link_round(qbits);
    net.charge_converge(rbits);
    (own, agg, net.meter.report())
}

/// Whether some cut of `net`'s segmented plan lands inside a row.
fn splits_a_row(net: &ClusterNet<'_>) -> bool {
    let plan = net.segmented_plan();
    let (offsets, _) = net.g.adjacency_csr();
    (1..plan.n_segments()).any(|s| {
        let (r, e) = plan.cut(s);
        e > offsets[r]
    })
}

type Pred = fn(VertexId, VertexId) -> bool;

fn check(name: &str, g: &ClusterGraph, seed: u64) -> bool {
    let seeds = SeedStream::new(seed);
    let preds: [(&str, Pred); 2] = [
        ("all", |_, _| true),
        ("filtered", |v, u| (u + 2 * v) % 3 != 0 || u < v),
    ];
    let mut split = false;
    for (pred_name, pred) in preds {
        let (own, agg, report) = reference(g, &seeds, pred);
        for threads in [1usize, 2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
            split |= splits_a_row(&net);
            let fps = neighborhood_fingerprints(&mut net, T, &seeds, SALT, pred);
            let at = format!("{name} pred={pred_name} threads={threads}");
            assert_eq!(fps.own, own, "{at}: own");
            assert_eq!(fps.agg, agg, "{at}: agg");
            assert_eq!(net.meter.report(), report, "{at}: meter");
        }
    }
    split
}

#[test]
fn fingerprint_aggregation_is_thread_invariant() {
    let star = ClusterGraph::singletons(CommGraph::star(300));
    assert!(
        check("star", &star, 1),
        "the one-hub star must split its hub row across segments"
    );
    for seed in 0..6u64 {
        check(&format!("clustered seed {seed}"), &clustered(seed), seed);
    }
}
