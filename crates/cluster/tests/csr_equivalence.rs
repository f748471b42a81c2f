//! Differential test for the flat-CSR edge-table refactor: on random
//! multi-link instances, `link_multiplicity`, `h_edges()` order and
//! `neighbor_fold_into` results must be bit-identical to the original
//! `BTreeMap<(u, v), usize>` semantics (which this test reimplements as
//! the reference model).

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_net::{CommGraph, SeedStream};
use rand::RngExt;
use std::collections::BTreeMap;

struct Instance {
    comm_edges: Vec<(usize, usize)>,
    assignment: Vec<VertexId>,
    n_machines: usize,
}

/// A random cluster instance: `k` clusters of `m` path-connected machines,
/// plus random inter-cluster links (duplicates allowed — `CommGraph`
/// deduplicates them, exactly as the seed implementation did).
fn random_instance(seed: u64) -> Instance {
    let mut rng = SeedStream::new(seed).rng_for(0xC5A, 0);
    let k = rng.random_range(2..12usize);
    let m = rng.random_range(1..5usize);
    let n_machines = k * m;
    let mut comm_edges = Vec::new();
    for c in 0..k {
        for j in 1..m {
            comm_edges.push((c * m + j - 1, c * m + j));
        }
    }
    // Random inter-cluster machine pairs; repeats create parallel links
    // between the same cluster pair (Figure 1's phenomenon).
    let attempts = rng.random_range(k..6 * k);
    for _ in 0..attempts {
        let a = rng.random_range(0..n_machines);
        let b = rng.random_range(0..n_machines);
        if a / m != b / m {
            comm_edges.push((a.min(b), a.max(b)));
        }
    }
    Instance {
        comm_edges,
        assignment: (0..n_machines).map(|x| x / m).collect(),
        n_machines,
    }
}

/// The seed implementation's reference model: a BTreeMap multiplicity
/// table built straight from the deduplicated communication edges.
fn reference_multiplicity(
    comm: &CommGraph,
    assignment: &[VertexId],
) -> BTreeMap<(VertexId, VertexId), usize> {
    let mut multiplicity = BTreeMap::new();
    for &(a, b) in comm.edges() {
        let (ca, cb) = (assignment[a], assignment[b]);
        if ca != cb {
            *multiplicity.entry((ca.min(cb), ca.max(cb))).or_insert(0) += 1;
        }
    }
    multiplicity
}

#[test]
fn flat_table_matches_btreemap_reference_on_random_instances() {
    for seed in 0..80u64 {
        let inst = random_instance(seed);
        let comm = CommGraph::from_edges(inst.n_machines, &inst.comm_edges).unwrap();
        let reference = reference_multiplicity(&comm, &inst.assignment);
        let h = match ClusterGraph::build(comm, inst.assignment.clone()) {
            Ok(h) => h,
            // A cluster can end up without internal connectivity only when
            // m == 1 paths degenerate; singletons are always connected, so
            // build never fails here — but keep the guard explicit.
            Err(e) => panic!("seed {seed}: build failed: {e:?}"),
        };

        // h_edges() must iterate exactly the BTreeMap key order.
        let flat: Vec<_> = h.h_edges().collect();
        let reference_keys: Vec<_> = reference.keys().copied().collect();
        assert_eq!(flat, reference_keys, "seed {seed}: edge order diverged");
        assert_eq!(h.n_h_edges(), reference.len(), "seed {seed}");

        // link_multiplicity on every vertex pair (including non-edges and
        // the diagonal).
        let k = h.n_vertices();
        for u in 0..k {
            for v in 0..k {
                let want = if u == v {
                    0
                } else {
                    reference.get(&(u.min(v), u.max(v))).copied().unwrap_or(0)
                };
                assert_eq!(
                    h.link_multiplicity(u, v),
                    want,
                    "seed {seed}: multiplicity({u}, {v})"
                );
            }
        }

        // Out-of-range ids behave like the reference map lookup: plain 0.
        assert_eq!(h.link_multiplicity(0, k + 3), 0, "seed {seed}");
        assert_eq!(h.link_multiplicity(k + 3, k + 9), 0, "seed {seed}");

        // The multiplicity column tracks the reference values in order.
        let col: Vec<usize> = h
            .h_edge_multiplicities()
            .iter()
            .map(|&m| m as usize)
            .collect();
        let want_col: Vec<usize> = reference.values().copied().collect();
        assert_eq!(col, want_col, "seed {seed}: multiplicity column");
    }
}

#[test]
fn neighbor_fold_matches_btreemap_edge_sweep() {
    let mut split_rows = 0usize;
    for seed in 0..40u64 {
        let inst = random_instance(seed ^ 0xF00D);
        let comm = CommGraph::from_edges(inst.n_machines, &inst.comm_edges).unwrap();
        let reference = reference_multiplicity(&comm, &inst.assignment);
        let h = ClusterGraph::build(comm, inst.assignment.clone()).unwrap();
        let n = h.n_vertices();
        let queries: Vec<u64> = (0..n as u64).map(|v| v * 7 + 3).collect();

        // Reference fold: iterate the BTreeMap keys exactly like the seed
        // implementation of neighbor_fold did.
        let mut want = vec![0u64; n];
        for &(u, v) in reference.keys() {
            // contribution (v receives from u, u receives from v)
            want[v] = want[v].wrapping_mul(31).wrapping_add(queries[u]);
            want[u] = want[u].wrapping_mul(31).wrapping_add(queries[v]);
        }

        for threads in [1usize, 2, 4, 8] {
            let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(threads));
            let plan = net.segmented_plan();
            let (offsets, _) = h.adjacency_csr();
            split_rows += (1..plan.n_segments())
                .filter(|&s| {
                    let (r, e) = plan.cut(s);
                    e > offsets[r]
                })
                .count();
            // The fold is order-sensitive by construction (non-commutative
            // accumulator), so equality proves every vertex sees its
            // neighbors in the edge sweep's order, fragments included.
            let mut got: Vec<(u64, u64)> = Vec::new();
            net.neighbor_fold_into(
                16,
                16,
                &queries,
                |_, _, _, qu| Some(*qu),
                |_| ORDERED_IDENTITY,
                ordered_fold,
                ordered_merge,
                &mut got,
            );
            let got: Vec<u64> = got.iter().map(|&(h, _)| h).collect();
            assert_eq!(got, want, "seed {seed} threads {threads}: fold diverged");

            // And exact degrees equal the deduplicated CSR degrees.
            let degs = net.exact_degrees();
            for (v, &d) in degs.iter().enumerate() {
                assert_eq!(d, h.neighbors(v).len(), "seed {seed}: degree({v})");
            }
        }
    }
    assert!(
        split_rows > 0,
        "no cut landed inside a row: the merge went untested"
    );
}

/// An associative but order-sensitive monoid: `(h, p)` is the hash
/// `h = Σ c_i · 31^(k-1-i)` of a contribution sequence plus `p = 31^k`, so
/// a split fold `(h₁, p₁) ⋅ (h₂, p₂) = (h₁·p₂ + h₂, p₁·p₂)` continues it
/// exactly, while any reordering changes `h`.
const ORDERED_IDENTITY: (u64, u64) = (0, 1);

fn ordered_fold(acc: &mut (u64, u64), c: u64) {
    *acc = (
        acc.0.wrapping_mul(31).wrapping_add(c),
        acc.1.wrapping_mul(31),
    );
}

fn ordered_merge(acc: &mut (u64, u64), part: (u64, u64)) {
    *acc = (
        acc.0.wrapping_mul(part.1).wrapping_add(part.0),
        acc.1.wrapping_mul(part.1),
    );
}
