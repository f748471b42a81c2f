//! Coloring after edge contraction — the flow-algorithm scenario (§1.1).
//!
//! Maximum-flow and network-decomposition algorithms repeatedly *contract*
//! connected machine sets; the contracted graph is exactly a cluster graph
//! over the original network, with clusters of wildly uneven shapes and
//! many parallel links between the same pair of clusters. The
//! `contraction` workload family builds such an instance — a grid network
//! contracted along seeded blobs — so the scenario is string-addressable
//! like every other workload: the spec below reproduces this exact
//! instance anywhere.
//!
//! ```sh
//! cargo run --release --example contracted_flow_network
//! ```

use cluster_coloring::prelude::*;

fn main() {
    // A 24x24 grid network — the canonical flow substrate — contracted
    // along random connected blobs of 4–12 machines, exactly what a
    // blocking-flow phase produces.
    let mut session = SessionBuilder::parse("contraction:side=24,lo=4,hi=12,seed=3141")
        .expect("valid workload spec")
        .build();
    let h = session.graph();
    println!(
        "contracted graph: {} clusters over {} machines, Δ = {}, dilation {}",
        h.n_vertices(),
        h.n_machines(),
        h.max_degree(),
        h.dilation()
    );
    let max_mult = h
        .h_edges()
        .map(|(u, v)| h.link_multiplicity(u, v))
        .max()
        .unwrap_or(0);
    println!("max parallel links per contracted edge: {max_mult} (Figure 1)");

    let out = session.run(17);
    let h = session.graph();
    assert!(out.run.coloring.is_total() && out.run.coloring.is_proper(h));
    let stats = coloring_stats(h, &out.run.coloring);
    println!(
        "colored {} clusters with {} colors in {} H-rounds / {} G-rounds",
        stats.n_vertices, stats.colors_used, out.run.report.h_rounds, out.run.report.g_rounds
    );
    println!(
        "bandwidth: max message {} bits within budget {} ({} oversized)",
        out.run.report.max_msg_bits, out.run.report.budget_bits, out.run.report.oversized_msgs
    );
    println!(
        "setup: generate {:.3}s, canonicalize {:.3}s, build {:.3}s (spec `{}`)",
        out.generate_secs, out.canonicalize_secs, out.graph_build_secs, out.spec_string
    );
}
