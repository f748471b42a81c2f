//! The untraced operations of each workload: what the end-to-end metrics
//! time, and the checks every timed output must pass.

use crate::util::{
    coloring_ok, derive, guarded, median, nproc, peak_rss_mib, quantile, secs_since, Gauge,
};
use crate::util::{Metrics, Tally};
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_core::{RunOutcome, Session, SessionBuilder};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::CommGraph;
use std::time::Instant;

/// Set-ups per process of `serve_mixed` and of the traced replay;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-ups of `color_dense`, whose set-up is only the build.
const COLOR_SETUP_REPS: usize = 15;

/// Run pairs whose charged cost is averaged into `h_rounds` and
/// `comm_mbits`. A fixed count, run even when the window closes first,
/// so both repeat exactly for a fixed `--seed`.
pub const COST_RUNS: usize = 8;

/// Churn chunks applied between two run pairs of `sparse_churn`.
const BURST_CHUNKS: u64 = 16;

/// Churn chunks in one stretch, the batches between two gauge readings
/// (256 batches, about 0.4 s). Spikes in batch latency come and go over
/// fractions of a second, so the batch metrics are medians over
/// stretches: over 8 processes the quartile distance of `op_s_p90` was
/// 0.056 of its median this way against 0.097 with medians over whole
/// bursts and 0.139 pooled over the window.
const GAUGED_CHUNKS: u64 = 4;

/// Graphs the churn bursts of `sparse_churn` rotate over. The tail of
/// the batch latencies is a property of the graph and its stream (the
/// p90 over p50 of one seed repeated within 5% in two processes, and
/// ranged over 1.17–1.40 between seeds), so one process churns several
/// graphs and reports medians over all their stretches.
const CHURN_GRAPHS: u64 = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SparseChurn,
    ColorDense,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::SparseChurn, Self::ColorDense, Self::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Self::SparseChurn => "sparse_churn",
            Self::ColorDense => "color_dense",
            Self::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The instance the workload colors (for `serve_mixed`, its first hot
    /// spec), with the graph seed derived from the workload seed.
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        let g = derive(seed, 1);
        let s = match self {
            Self::SparseChurn => format!("gnp:n=5000,p=0.0032,seed={g},layout=star3"),
            Self::ColorDense => {
                format!("mixture:c=30,k=60,anti=0.05,ext=3,bg=300,bgp=0.0333,seed={g}")
            }
            Self::ServeMixed => return crate::serve_loop::hot_specs(seed)[0],
        };
        s.parse().expect("workload specs are well formed")
    }
}

/// What one workload's untraced operations produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Mean charged cost per run, for the exact end-to-end metrics.
pub fn put_cost(m: &mut Metrics, runs: &[RunOutcome]) {
    let k = runs.len().max(1) as f64;
    let h: u64 = runs.iter().map(|o| o.run.report.h_rounds).sum();
    let bits: u128 = runs.iter().map(|o| o.run.report.bits).sum();
    m.put("h_rounds", h as f64 / k, "rounds");
    m.put("comm_mbits", bits as f64 / 1e6 / k, "Mbit");
}

/// Operation latencies: p50, p90 and completed operations per second.
pub fn put_ops(m: &mut Metrics, lat: &[f64], wall: f64) {
    m.put("op_s_p50", quantile(lat, 0.5), "s");
    m.put("op_s_p90", quantile(lat, 0.9), "s");
    m.put("ops_per_s", lat.len() as f64 / wall.max(1e-9), "1/s");
}

/// [`put_ops`] per stretch of operations, reporting the median of each
/// figure over the stretches (so one noisy stretch of the window moves
/// them less); throughput counts busy time only.
fn put_ops_per_stretch(m: &mut Metrics, stretches: &[Vec<f64>]) {
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for b in stretches.iter().filter(|b| !b.is_empty()) {
        p50.push(quantile(b, 0.5));
        p90.push(quantile(b, 0.9));
        rate.push(b.len() as f64 / b.iter().sum::<f64>().max(1e-9));
    }
    m.put("op_s_p50", median(&p50), "s");
    m.put("op_s_p90", median(&p90), "s");
    m.put("ops_per_s", median(&rate), "1/s");
}

/// Builds a session for `spec` at `threads` workers, timing the build.
pub fn timed_build(spec: &WorkloadSpec, threads: usize) -> (Session, f64) {
    let t = Instant::now();
    let s = SessionBuilder::new(*spec)
        .parallel(ParallelConfig::with_threads(threads))
        .build();
    (s, secs_since(t))
}

/// One checked, timed `Session::run`: `None` on a panic or a coloring
/// that is not total, proper and within `Δ + 1` colors.
pub fn checked_run(session: &mut Session, seed: u64) -> (Option<RunOutcome>, f64) {
    let t = Instant::now();
    let out = guarded(|| session.run(seed));
    let secs = secs_since(t);
    let out = out.filter(|o| coloring_ok(session.graph(), &o.run.coloring));
    (out, secs)
}

/// Whether two runs of one seed agree bit for bit.
pub fn same_run(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.run.coloring == b.run.coloring && a.run.report == b.run.report
}

/// Runs `seed` at `threads` and then at one thread on the same session,
/// reading `gauge` after each, records both in `tally` (each must be
/// valid and the two identical), and returns the first outcome with both
/// times in reference seconds.
pub fn run_pair(
    session: &mut Session,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
    gauge: &mut Gauge,
) -> (Option<RunOutcome>, f64, f64) {
    session.set_parallel(ParallelConfig::with_threads(threads));
    let (a, ta) = checked_run(session, seed);
    let ta = ta * gauge.factor();
    session.set_parallel(ParallelConfig::with_threads(1));
    let (b, tb) = checked_run(session, seed);
    let tb = tb * gauge.factor();
    session.set_parallel(ParallelConfig::with_threads(threads));
    let agree = matches!((&a, &b), (Some(a), Some(b)) if same_run(a, b));
    tally.record(a.is_some() && agree);
    tally.record(b.is_some() && agree);
    (a, ta, tb)
}

/// `color_dense`: build the session, then run pairs of `Session::run` at
/// `nproc` threads and at one thread on the same seed until the window
/// closes (at least [`COST_RUNS`] pairs). The first pair warms the
/// process: it counts towards the window but not towards the timings.
pub fn color(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Measured {
    let mut r = Measured::default();
    let threads = nproc();
    let mut gauge = Gauge::new();
    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..COLOR_SETUP_REPS {
        let (s, secs) = timed_build(spec, threads);
        setup.push(secs * gauge.factor());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    r.metrics.put("setup_s", median(&setup), "s");

    let (mut par, mut ser, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0..u64::MAX {
        let (a, ta, tb) = run_pair(
            &mut session,
            derive(seed, 100 + i),
            threads,
            &mut r.tally,
            &mut gauge,
        );
        if costs.len() < COST_RUNS {
            costs.extend(a);
        }
        if i > 0 {
            par.push(ta);
            ser.push(tb);
        }
        if i as usize + 1 >= COST_RUNS && secs_since(start) >= seconds {
            break;
        }
    }
    r.metrics.put("peak_rss_mb", peak_rss_mib(), "MiB");
    r.metrics.put("run_s", median(&par), "s");
    r.metrics.put("run_s_serial", median(&ser), "s");
    put_cost(&mut r.metrics, &costs);
    // An operation is a run at either width: both give the same coloring,
    // and the p90 of the ~28 pooled runs is steadier than that of ~14.
    let runs: Vec<f64> = par.iter().chain(&ser).copied().collect();
    put_ops(&mut r.metrics, &runs, runs.iter().sum());
    r.notes.push(format!(
        "runs: {} timed at {threads} threads, {} at 1 thread, after one warm-up pair (spec {spec})",
        par.len(),
        ser.len()
    ));
    r.notes.push(gauge.note());
    r
}

/// Churn batch size: about 0.1% of the instance's network edges.
pub fn churn_batch_size(g: &ClusterGraph) -> usize {
    ((g.comm().edges().len() as f64 * 0.001).round() as usize).max(2)
}

/// Batches generated per schedule chunk (outside the timed window).
const CHURN_CHUNK: usize = 64;

/// The `k`-th chunk of the churn stream, generated against the current
/// graph so every batch applies.
pub fn churn_chunk(session: &Session, seed: u64, k: u64, batch: usize) -> Vec<cgc_net::DeltaBatch> {
    ChurnSpec::balanced(*session.spec(), CHURN_CHUNK, batch, derive(seed, 1000 + k))
        .schedule(session.graph())
}

/// Whether the incrementally mutated graph equals a from-scratch build of
/// its edge set and the session's coloring is still total and proper.
pub fn churn_final_check(session: &Session) -> bool {
    let g = session.graph();
    let rebuilt = CommGraph::from_edges(g.comm().n_machines(), g.comm().edges())
        .ok()
        .and_then(|comm| ClusterGraph::build(comm, g.assignment().to_vec()).ok());
    rebuilt.as_ref() == Some(g) && session.coloring().is_some_and(|c| coloring_ok(g, c))
}

/// `sparse_churn`: build the sparse instance and color it once (the
/// set-up), for the session the runs use and then for each of
/// [`CHURN_GRAPHS`] churned sessions (the workload's instance and
/// instances of further derived seeds). Then alternate until the window
/// closes (at least [`COST_RUNS`] cycles, and whole rotations): a pair of
/// full `Session::run`s at `nproc` threads and at one thread on the run
/// session, whose graph never changes, then [`BURST_CHUNKS`] chunks of
/// `ChurnSpec::balanced` batches on the next churned session in turn,
/// each applied by its own `Session::apply_deltas` call. Runs and
/// batches thus sample the same stretch of time, and every run colors
/// the same graph whatever number of batches the window holds. Every run
/// and batch is checked; after the window each mutated graph must equal
/// a from-scratch build.
pub fn sparse_churn(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Measured {
    let mut r = Measured::default();
    let threads = nproc();
    let mut gauge = Gauge::new();
    let churn_specs = (0..CHURN_GRAPHS).map(|j| match j {
        0 => *spec,
        _ => Workload::SparseChurn.spec(derive(seed, 60 + j)),
    });
    let mut setup = Vec::new();
    let mut sessions = Vec::new();
    for s in std::iter::once(*spec).chain(churn_specs) {
        let t = Instant::now();
        let (mut session, _) = timed_build(&s, threads);
        let (out, _) = checked_run(&mut session, derive(seed, 99));
        setup.push(secs_since(t) * gauge.factor());
        r.tally.record(out.is_some());
        sessions.push(session);
    }
    let mut churned = sessions.split_off(1);
    let mut runs = sessions.pop().expect("the run session");
    r.metrics.put("setup_s", median(&setup), "s");

    let batch: Vec<usize> = churned
        .iter()
        .map(|s| churn_batch_size(s.graph()))
        .collect();
    let (mut par, mut ser, mut costs, mut stretches) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    'window: for i in 0..u64::MAX {
        let (a, ta, tb) = run_pair(
            &mut runs,
            derive(seed, 100 + i),
            threads,
            &mut r.tally,
            &mut gauge,
        );
        par.push(ta);
        ser.push(tb);
        if costs.len() < COST_RUNS {
            costs.extend(a);
        }
        let g = (i % CHURN_GRAPHS) as usize;
        let (session, chunk0) = (&mut churned[g], i / CHURN_GRAPHS * BURST_CHUNKS);
        let stream = derive(seed, 70 + g as u64);
        let mut lat = Vec::new();
        for k in 0..BURST_CHUNKS {
            for b in churn_chunk(session, stream, chunk0 + k, batch[g]) {
                let t = Instant::now();
                let out = guarded(|| session.apply_deltas(std::slice::from_ref(&b)));
                lat.push(secs_since(t));
                let ok = matches!(&out, Some(Ok(o)) if coloring_ok(session.graph(), &o.coloring));
                r.tally.record(ok);
                if !ok {
                    break 'window;
                }
            }
            if (k + 1) % GAUGED_CHUNKS == 0 {
                let f = gauge.factor();
                stretches.push(lat.drain(..).map(|s| s * f).collect::<Vec<f64>>());
            }
        }
        let rotated = (i + 1) % CHURN_GRAPHS == 0;
        if rotated && i as usize + 1 >= COST_RUNS && secs_since(start) >= seconds {
            break;
        }
    }
    r.metrics.put("peak_rss_mb", peak_rss_mib(), "MiB");
    if !churned.iter().all(churn_final_check) {
        r.tally.record(false);
    }
    r.metrics.put("run_s", median(&par), "s");
    r.metrics.put("run_s_serial", median(&ser), "s");
    put_cost(&mut r.metrics, &costs);
    put_ops_per_stretch(&mut r.metrics, &stretches);
    r.notes.push(format!(
        "runs: {} at {threads} threads and {} at 1 thread; batches: {} of {batch:?} edge changes each, in {} bursts of {} stretches over {CHURN_GRAPHS} graphs (spec {spec})",
        par.len(),
        ser.len(),
        stretches.iter().map(Vec::len).sum::<usize>(),
        par.len(),
        BURST_CHUNKS / GAUGED_CHUNKS
    ));
    r.notes.push(gauge.note());
    r
}
