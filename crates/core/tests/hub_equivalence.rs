//! Hub-proof segmentation differential suite: intra-row segmented plans
//! must leave results untouched at any thread count. On hub-heavy
//! instances — a Chung–Lu power law at β = 2.1, a star-layout
//! realization, and a synthetic one-hub star spec — the full pipeline
//! (instance build, driver run, cost report) must be **byte-identical**
//! between the serial executor and the executor at every swept thread
//! count, where the monoid folds, collects and the build's row sort cut
//! inside the hub rows. And segmentation must actually fix the
//! imbalance: on the one-hub instance the per-shard entry mass at 4
//! shards is near-flat under [`cgc_cluster::SegmentedPlan`] while the
//! row-granular plan is pinned by the hub row.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, ShardPlan, VertexId};
use cgc_core::{color_cluster_graph_with, DriverOptions, Params, RunResult};
use cgc_graphs::{power_law_spec, realize_with, HSpec, Layout, PowerLawConfig};

/// A spec dominated by one hub: vertex 0 adjacent to everyone, plus a
/// thin cycle through the leaves so components stay interesting.
fn one_hub_spec(n: usize) -> HSpec {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    for v in 1..n - 1 {
        edges.push((v, v + 1));
    }
    HSpec::new(n, edges)
}

fn power_law_hub_spec() -> HSpec {
    let cfg = PowerLawConfig {
        n: 220,
        exponent: 2.1,
        avg_degree: 6.0,
    };
    power_law_spec(&cfg, 42, &ParallelConfig::with_threads(4))
}

/// Builds the instance at `par` (generation + canonical ingest +
/// `ClusterGraph::build_with` all honor the config).
fn build(h: &HSpec, seed: u64, par: &ParallelConfig) -> ClusterGraph {
    realize_with(h, Layout::Star(3), 2, seed, par)
}

fn run(g: &ClusterGraph, seed: u64, par: ParallelConfig) -> RunResult {
    let params = Params::laptop(g.n_vertices());
    let mut net = ClusterNet::with_log_budget(g, 32);
    color_cluster_graph_with(
        &mut net,
        &params,
        seed,
        DriverOptions {
            oracle_acd: false,
            parallel: par,
        },
    )
}

/// Instance construction: the segmented build must reproduce the serial
/// build full-struct, including CSR layout, support trees and link
/// tables, at every thread count.
#[test]
fn segmented_build_is_byte_identical_to_serial() {
    for (label, h) in [
        ("one-hub", one_hub_spec(260)),
        ("powerlaw-2.1", power_law_hub_spec()),
    ] {
        let reference = build(&h, 9, &ParallelConfig::serial());
        for threads in [2usize, 3, 4, 8] {
            let got = build(&h, 9, &ParallelConfig::with_threads(threads));
            assert_eq!(
                got, reference,
                "{label}: build drifted at threads={threads}"
            );
        }
    }
}

/// Full driver runs: coloring vector and cost report at threads
/// {2, 3, 4, 8} must match the serial run.
#[test]
fn segmented_runs_match_serial_runs() {
    for (label, h) in [
        ("one-hub", one_hub_spec(260)),
        ("powerlaw-2.1", power_law_hub_spec()),
    ] {
        let g = build(&h, 9, &ParallelConfig::serial());
        let reference = run(&g, 1234, ParallelConfig::serial());
        assert!(
            reference.coloring.is_total() && reference.coloring.is_proper(&g),
            "{label}: reference run must color properly"
        );
        for threads in [2usize, 3, 4, 8] {
            let got = run(&g, 1234, ParallelConfig::with_threads(threads));
            assert_eq!(
                got.coloring, reference.coloring,
                "{label}: coloring drifted at threads={threads}"
            );
            assert_eq!(
                got.report, reference.report,
                "{label}: cost report drifted at threads={threads}"
            );
        }
    }
}

/// The point of the whole exercise: on the one-hub instance, per-shard
/// entry mass at 4 shards is near-flat under segmentation (< 1.5
/// max/mean) where the row-granular plan is pinned by the hub row.
#[test]
fn segmentation_flattens_the_hub_imbalance() {
    let h = one_hub_spec(50_000 / 3);
    let g = build(&h, 9, &ParallelConfig::serial());
    let (offsets, _) = g.adjacency_csr();
    let entries = offsets[offsets.len() - 1];

    let entry_mass = |lo: usize, hi: usize| offsets[hi] - offsets[lo];
    let shards = 4usize;
    let mean = entries as f64 / shards as f64;

    // Row granularity cannot split the hub row.
    let row_plan = ShardPlan::from_prefix(offsets, shards);
    let row_max = (0..row_plan.n_shards())
        .map(|s| {
            let r = row_plan.range(s);
            entry_mass(r.start, r.end)
        })
        .max()
        .unwrap() as f64;

    // Segmented cuts land inside the hub row and flatten the masses.
    let seg = g.segmented_plan(&ParallelConfig::with_threads(shards));
    let seg_max = (0..seg.n_segments())
        .map(|s| seg.cut(s + 1).1 - seg.cut(s).1)
        .max()
        .unwrap() as f64;

    assert!(
        seg_max / mean < 1.5,
        "segmented max/mean {:.3} must be < 1.5 (row-granular was {:.3})",
        seg_max / mean,
        row_max / mean
    );
    assert!(
        seg_max <= row_max,
        "segmentation must never be more imbalanced than row granularity"
    );
}

/// The metered aggregation rounds themselves (the driver's hot path) are
/// bit-identical between segmented and serial dispatch, including
/// `CostMeter` totals — checked directly on the typed fold wrappers.
#[test]
fn segmented_folds_and_meter_match_serial() {
    let h = one_hub_spec(400);
    let g = build(&h, 9, &ParallelConfig::serial());
    let queries: Vec<u64> = (0..g.n_vertices() as u64).map(|v| v * 7 + 3).collect();

    let fold_all =
        |par: ParallelConfig| {
            let mut net = ClusterNet::with_parallel(&g, 64, par);
            let flags = net
                .neighbor_fold_flags(16, 1, &queries, |_, _, qv, qu| qu > qv)
                .to_vec();
            let counts =
                net.neighbor_fold_counts(16, 16, &queries, |_: VertexId, _, _, qu| {
                    if qu % 3 == 0 {
                        Some(1)
                    } else {
                        None
                    }
                })
                .to_vec();
            let words = net
                .neighbor_fold_words(16, 64, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)))
                .to_vec();
            let degs = net.exact_degrees();
            (flags, counts, words, degs, net.meter.report())
        };

    let reference = fold_all(ParallelConfig::serial());
    for threads in [2usize, 3, 4, 8] {
        let got = fold_all(ParallelConfig::with_threads(threads));
        assert_eq!(got, reference, "threads={threads}");
    }
}
