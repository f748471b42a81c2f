//! Seeded determinism under the sharded executor: the same master seed
//! must yield the **identical final coloring vector and cost report** at
//! every thread count, on both algorithmic paths and on skewed/spatial
//! workloads. This is the end-to-end reading of the executor's
//! bit-identity contract — if any phase's aggregation depended on thread
//! scheduling, the colorings would drift.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig};
use cgc_core::{color_cluster_graph_with, DriverOptions, Params};
use cgc_graphs::{
    geometric_spec, gnp_spec, mixture_spec, power_law_spec, realize, Layout, MixtureConfig,
    PowerLawConfig,
};

fn assert_thread_count_invariant(g: &ClusterGraph, seed: u64, label: &str) {
    let params = Params::laptop(g.n_vertices());
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        let mut net = ClusterNet::with_log_budget(g, 32);
        let run = color_cluster_graph_with(
            &mut net,
            &params,
            seed,
            DriverOptions {
                oracle_acd: false,
                parallel: ParallelConfig::with_threads(threads),
            },
        );
        assert!(
            run.coloring.is_total() && run.coloring.is_proper(g),
            "{label}"
        );
        match &reference {
            None => reference = Some((run.coloring, run.report)),
            Some((coloring, report)) => {
                assert_eq!(
                    &run.coloring, coloring,
                    "{label}: coloring drifted at threads={threads}"
                );
                assert_eq!(
                    &run.report, report,
                    "{label}: cost report drifted at threads={threads}"
                );
            }
        }
    }
}

#[test]
fn low_degree_path_is_thread_count_invariant() {
    let spec = gnp_spec(110, 0.05, 21);
    let g = realize(&spec, Layout::Star(3), 2, 21);
    assert_thread_count_invariant(&g, 77, "gnp low-degree");
}

#[test]
fn high_degree_path_is_thread_count_invariant() {
    let cfg = MixtureConfig {
        n_cliques: 3,
        clique_size: 24,
        anti_edge_prob: 0.04,
        external_per_vertex: 2,
        sparse_n: 30,
        sparse_p: 0.1,
    };
    let (spec, _) = mixture_spec(&cfg, 8);
    let g = realize(&spec, Layout::Singleton, 1, 8);
    assert!(g.max_degree() > 16, "must exercise the high-degree path");
    assert_thread_count_invariant(&g, 88, "mixture high-degree");
}

#[test]
fn power_law_workload_is_thread_count_invariant() {
    let cfg = PowerLawConfig {
        n: 160,
        exponent: 2.3,
        avg_degree: 7.0,
    };
    let spec = power_law_spec(&cfg, 4, &ParallelConfig::with_threads(4));
    let g = realize(&spec, Layout::Path(3), 1, 4);
    assert_thread_count_invariant(&g, 99, "power-law");
}

#[test]
fn geometric_workload_is_thread_count_invariant() {
    let spec = geometric_spec(150, 0.12, 6, &ParallelConfig::with_threads(4));
    let g = realize(&spec, Layout::BinaryTree(4), 1, 6);
    assert_thread_count_invariant(&g, 111, "geometric");
}
