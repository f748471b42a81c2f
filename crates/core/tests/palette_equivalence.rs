//! The bitset palette engine differential, property-tested. For random
//! G(n, p), power-law and contraction instances colored by a real run:
//!
//! * every packed-word palette query ([`Coloring::palette_oracle`] and
//!   its `_into` variant, `first_fit_color`, `slack_oracle`,
//!   `reuse_slack`/`_into`, the `used_colors_into` count/select
//!   primitive) matches a plain `Vec<bool>` + sorted-free-list
//!   reference — on the total coloring *and* on a partial coloring with
//!   a deterministic subset of vertices cleared;
//! * [`CliquePalette`] ranged count/select queries (Lemma 4.8) match
//!   brute force over every boundary pair from a stress list, including
//!   `hi` past `q`;
//! * [`Coloring::has_conflict`] agrees with the materialized
//!   [`Coloring::conflicts`] — on proper colorings and on colorings with
//!   an injected monochromatic edge;
//! * [`Session::query_palettes`] — the sharded query sweep — is **fully
//!   equal** across thread counts {1, 2, 4, 8} (threads = 1 runs one
//!   shard inline, so this is sharded-vs-serial bit-identity) and per-slot
//!   equal to the per-vertex oracles.

use cgc_cluster::{BitsScratch, ClusterGraph, ParallelConfig};
use cgc_core::{CliquePalette, Coloring, PaletteQueryOutcome, SessionBuilder};
use cgc_graphs::WorkloadSpec;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The `Vec<bool>` reference view of one vertex's palette.
struct VertexRef {
    free: Vec<usize>,
    colored: usize,
    distinct: usize,
}

fn vertex_reference(g: &ClusterGraph, coloring: &Coloring, v: usize) -> VertexRef {
    let q = coloring.q();
    let mut used = vec![false; q];
    let mut colored = 0usize;
    let mut distinct = 0usize;
    for &u in g.neighbors(v) {
        if let Some(c) = coloring.get(u) {
            colored += 1;
            if !used[c] {
                used[c] = true;
                distinct += 1;
            }
        }
    }
    VertexRef {
        free: (0..q).filter(|&c| !used[c]).collect(),
        colored,
        distinct,
    }
}

/// Pins every per-vertex packed-word query to the bool-vector reference.
fn check_vertex_oracles(g: &ClusterGraph, coloring: &Coloring) -> Result<(), TestCaseError> {
    let mut scratch = BitsScratch::new();
    let mut into_buf: Vec<usize> = Vec::new();
    for v in 0..g.n_vertices() {
        let want = vertex_reference(g, coloring, v);
        let unc = g.neighbors(v).len() - want.colored;
        prop_assert_eq!(coloring.palette_oracle(g, v), want.free.clone());
        coloring.palette_oracle_into(g, v, &mut scratch, &mut into_buf);
        prop_assert_eq!(&into_buf, &want.free);
        prop_assert_eq!(
            coloring.first_fit_color(g, v, &mut scratch),
            want.free.first().copied()
        );
        prop_assert_eq!(coloring.uncolored_degree(g, v), unc);
        prop_assert_eq!(
            coloring.slack_oracle(g, v),
            want.free.len() as i64 - unc as i64
        );
        prop_assert_eq!(coloring.reuse_slack(g, v), want.colored - want.distinct);
        prop_assert_eq!(
            coloring.reuse_slack_into(g, v, &mut scratch),
            want.colored - want.distinct
        );
        // The count/select primitive under all of the above.
        let bits = coloring.used_colors_into(g, v, &mut scratch);
        prop_assert_eq!(bits.count_marked(), want.distinct);
        prop_assert_eq!(bits.count_free(), want.free.len());
        for (i, &c) in want.free.iter().enumerate() {
            prop_assert_eq!(bits.nth_free(i), Some(c));
        }
        prop_assert_eq!(bits.nth_free(want.free.len()), None);
    }
    Ok(())
}

/// Pins [`CliquePalette`] ranged count/select to brute force on `set`.
fn check_clique_palette(coloring: &Coloring, set: &[usize]) -> Result<(), TestCaseError> {
    let q = coloring.q();
    let mut used = vec![false; q];
    let mut colored = 0usize;
    for &v in set {
        if let Some(c) = coloring.get(v) {
            colored += 1;
            used[c] = true;
        }
    }
    let distinct = used.iter().filter(|&&b| b).count();
    let free: Vec<usize> = (0..q).filter(|&c| !used[c]).collect();
    let p = CliquePalette::snapshot_uncharged(coloring, set);
    prop_assert_eq!(p.n_free(), free.len());
    prop_assert_eq!(p.free_colors(), free.clone());
    prop_assert_eq!(p.repeated_colors(), colored - distinct);
    for (c, &u) in used.iter().enumerate() {
        prop_assert_eq!(p.is_free(c), !u);
    }
    // Boundary stress list: word edges, interior cuts, hi past q.
    let marks = [
        0,
        1,
        q / 3,
        q / 2,
        63.min(q),
        64.min(q),
        q.saturating_sub(1),
        q,
        q + 7,
    ];
    for &lo in &marks {
        for &hi in &marks {
            if lo > hi {
                continue;
            }
            let want: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&c| c >= lo && c < hi)
                .collect();
            prop_assert_eq!(p.free_count_in(lo, hi), want.len());
            for (i, &c) in want.iter().enumerate() {
                prop_assert_eq!(p.nth_free_in(i, lo, hi), Some(c));
            }
            prop_assert_eq!(p.nth_free_in(want.len(), lo, hi), None);
        }
    }
    Ok(())
}

fn check_conflicts(g: &ClusterGraph, coloring: &Coloring) -> Result<(), TestCaseError> {
    prop_assert_eq!(coloring.has_conflict(g), !coloring.conflicts(g).is_empty());
    prop_assert_eq!(coloring.is_proper(g), coloring.conflicts(g).is_empty());
    Ok(())
}

/// Everything of a [`PaletteQueryOutcome`] that must be thread-count
/// invariant: the four per-vertex columns.
type SweepView<'a> = (&'a [usize], &'a [usize], &'a [i64], &'a [usize]);

fn sweep_view(out: &PaletteQueryOutcome) -> SweepView<'_> {
    (
        &out.free_counts,
        &out.uncolored_degrees,
        &out.slacks,
        &out.reuse_slacks,
    )
}

fn check_palettes(base: WorkloadSpec, run_seed: u64) -> Result<(), TestCaseError> {
    // -- A real colored instance (serial reference session).
    let mut warm = SessionBuilder::new(base)
        .parallel(ParallelConfig::serial())
        .build();
    warm.run(run_seed);
    let coloring = warm.coloring().expect("session is colored").clone();
    let g = warm.graph().clone();
    let n = g.n_vertices();
    prop_assert!(coloring.is_total() && coloring.is_proper(&g));

    // -- Per-vertex packed queries vs Vec<bool>, total coloring.
    check_vertex_oracles(&g, &coloring)?;
    check_conflicts(&g, &coloring)?;

    // -- Same on a partial coloring: clear a deterministic ~third.
    let mut partial = coloring.clone();
    for v in 0..n {
        let mix = (v as u64)
            .wrapping_add(run_seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if mix.is_multiple_of(3) {
            partial.clear(v);
        }
    }
    check_vertex_oracles(&g, &partial)?;
    check_conflicts(&g, &partial)?;

    // -- An injected monochromatic edge is seen by the short-circuit.
    if let Some((u, v)) = g.h_edges().next() {
        let mut bad = coloring.clone();
        bad.recolor(v, bad.get(u).unwrap());
        prop_assert!(bad.has_conflict(&g));
        check_conflicts(&g, &bad)?;
    }

    // -- Clique-palette ranged queries vs brute force.
    let all: Vec<usize> = (0..n).collect();
    let thirds: Vec<usize> = (0..n).step_by(3).collect();
    for set in [&all[..], &all[..n / 2], &thirds, &[]] {
        check_clique_palette(&coloring, set)?;
        check_clique_palette(&partial, set)?;
    }

    // -- The sharded query sweep: per-slot equal to the oracles,
    //    bit-identical across thread counts.
    let reference = {
        let mut session = SessionBuilder::new(base)
            .parallel(ParallelConfig::with_threads(THREADS[0]))
            .build();
        session.run(run_seed);
        prop_assert!(session.coloring() == Some(&coloring));
        session.query_palettes().expect("colored session answers")
    };
    prop_assert_eq!(reference.free_counts.len(), n);
    for v in 0..n {
        let want = vertex_reference(&g, &coloring, v);
        prop_assert_eq!(reference.free_counts[v], want.free.len());
        prop_assert_eq!(reference.uncolored_degrees[v], 0);
        prop_assert_eq!(reference.slacks[v], coloring.slack_oracle(&g, v));
        prop_assert_eq!(reference.reuse_slacks[v], want.colored - want.distinct);
    }
    for &threads in &THREADS[1..] {
        let mut session = SessionBuilder::new(base)
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        session.run(run_seed);
        prop_assert!(
            session.coloring() == Some(&coloring),
            "coloring depends on thread count: {} threads={}",
            base,
            threads
        );
        let out = session.query_palettes().expect("colored session answers");
        prop_assert!(
            sweep_view(&out) == sweep_view(&reference),
            "palette sweep depends on thread count: {} threads={}",
            base,
            threads
        );
        prop_assert_eq!(out.threads, threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn gnp_palette_queries_match_reference(
        n in 40usize..100,
        p in 0.04f64..0.10,
        workload_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        check_palettes(WorkloadSpec::gnp(n, p, workload_seed), run_seed)?;
    }

    #[test]
    fn powerlaw_palette_queries_match_reference(
        n in 40usize..100,
        exponent in 2.2f64..3.0,
        avg in 4.0f64..8.0,
        workload_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        check_palettes(WorkloadSpec::power_law(n, exponent, avg, workload_seed), run_seed)?;
    }

    #[test]
    fn contraction_palette_queries_match_reference(
        side in 8usize..14,
        lo in 2usize..4,
        extra in 2usize..6,
        workload_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        check_palettes(WorkloadSpec::contraction(side, lo, lo + extra, workload_seed), run_seed)?;
    }
}
