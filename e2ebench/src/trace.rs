//! The traced run: per-layer time measured from outside the program.
//!
//! The replay re-runs `color_cluster_graph_with`'s high-degree path stage
//! by stage through the layers' public functions, with the driver's seed
//! child for each stage, and records a span around every call. A second
//! root splits the sketch layer by calling `buddy_edges`,
//! `neighborhood_fingerprints` and `encoded_bits` on their own with the
//! same seeds. Spans live in memory and are written out at the end.
//!
//! The replay only describes the program if it computes what
//! `Session::run` computes, so its output is gated: same color on every
//! vertex it colored, as many uncolored vertices as the driver's terminal
//! fallback colored, and every non-fallback `CostReport` phase equal.

use crate::util::{derive, guarded, median, nproc, secs_since, Gauge, Metrics, Tally};
use crate::workloads::{
    checked_run, churn_batch_size, churn_chunk, same_run, timed_build, Workload, SETUP_REPS,
};
use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, WorkerPool};
use cgc_core::mct::{multicolor_trial, ColorInterval};
use cgc_core::trycolor::{interval_sampler, try_color_rounds};
use cgc_core::{cabals::color_cabals, noncabal::color_noncabals, slackgen::slack_generation};
use cgc_core::{Coloring, Params, RunOutcome};
use cgc_decomp::{buddy_edges, classify_cabals, compute_acd, degree_profile};
use cgc_graphs::WorkloadSpec;
use cgc_net::{CostReport, SeedStream};
use cgc_sketch::{encoded_bits, neighborhood_fingerprints};
use std::io::Write;
use std::time::Instant;

/// Every phase the high-degree path can charge, in pipeline order. Each
/// gets `net.<phase>.h_rounds` and `net.<phase>.mbits` on every
/// workload (0 where the phase did not run).
pub const PHASES: [&str; 19] = [
    "acd",
    "degrees",
    "slackgen",
    "sparse",
    "noncabal-outliers",
    "noncabal-matching",
    "noncabal-sct",
    "colorful-matching",
    "putaside-compute",
    "putaside-color",
    "complete",
    "sct",
    "cabal-outliers",
    "cabal-matching",
    "fp-matching",
    "fp-matching-color",
    "cabal-sct",
    "cabal-mct",
    "fallback",
];

/// Untraced runs, replays and sketch splits per traced run.
const TRACE_REPS: usize = 3;

/// One recorded interval; times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// An in-memory span recorder. `enter` returns the span's id, `exit`
/// closes it; spans nest by the order of the calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run id (spans of one run share it).
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: secs_since(self.origin),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
        self.spans[id].end = secs_since(self.origin);
    }

    pub fn dur(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Duration minus the time its direct children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(c, _)| self.dur(c))
            .sum();
        self.dur(id) - children
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&id| self.spans[id].name == name)
    }

    /// Median duration of the spans called `name` (0 if none).
    pub fn secs(&self, name: &str) -> f64 {
        median(&self.named(name).map(|id| self.dur(id)).collect::<Vec<_>>())
    }

    /// Median self time of the spans called `name` (0 if none).
    pub fn self_secs(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .map(|id| self.self_time(id))
                .collect::<Vec<_>>(),
        )
    }

    /// Distinct span names in first-seen order, with their nesting depth.
    pub fn names(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for s in &self.spans {
            if !out.iter().any(|(n, _)| *n == s.name) {
                let depth = std::iter::successors(s.parent, |&p| self.spans[p].parent).count();
                out.push((s.name, depth));
            }
        }
        out
    }

    /// Writes one JSON object per span, after a header line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start, s.end, s.run
            )?;
        }
        f.flush()
    }
}

/// What the replayed stages left behind.
struct Replay {
    coloring: Coloring,
    report: CostReport,
    cliques: usize,
    cabals: usize,
    sparse: usize,
}

/// The driver's high-degree path, stage by stage, each in its own span
/// under a `run` root. Mirrors `color_cluster_graph_with` up to (not
/// including) the terminal fallback, which is crate-private.
fn replay(
    tr: &mut Tracer,
    g: &ClusterGraph,
    params: &Params,
    par: ParallelConfig,
    seed: u64,
) -> Replay {
    tr.next_run();
    let root = tr.enter("run");
    let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
    let n = g.n_vertices();
    let delta = g.max_degree();
    let q = delta + 1;
    let mut coloring = Coloring::new(n, q);
    let seeds = SeedStream::new(seed);

    let s = tr.enter("acd");
    let acd = compute_acd(&mut net, &params.acd, &seeds.child(1));
    tr.exit(s);
    let s = tr.enter("degrees");
    let profile = degree_profile(&mut net, &acd, &params.counting, &seeds.child(2));
    tr.exit(s);
    let s = tr.enter("classify");
    let cabal_info = classify_cabals(
        &profile,
        delta,
        params.ell,
        params.rho,
        params.reserve_cap_frac,
    );
    tr.exit(s);

    let s = tr.enter("slackgen");
    let eligible: Vec<bool> = net.par_vertex_map(|v| match acd.clique_of(v) {
        Some(c) => !cabal_info.is_cabal[c],
        None => true,
    });
    if params.ablation.slackgen {
        slack_generation(
            &mut net,
            &mut coloring,
            &seeds.child(3),
            0,
            &eligible,
            params,
        );
    }
    tr.exit(s);

    let s = tr.enter("sparse");
    net.set_phase("sparse");
    let sparse: Vec<bool> = net.par_vertex_map(|v| acd.is_sparse(v));
    let t = tr.enter("trycolor");
    try_color_rounds(
        &mut net,
        &mut coloring,
        &seeds.child(4),
        0,
        &sparse,
        1.0,
        params.trycolor_rounds,
        interval_sampler(0, q),
    );
    tr.exit(t);
    let t = tr.enter("mct");
    let sparse_left: Vec<usize> = (0..n)
        .filter(|&v| sparse[v] && !coloring.is_colored(v))
        .collect();
    multicolor_trial(
        &mut net,
        &mut coloring,
        &seeds.child(5),
        0,
        &sparse_left,
        |_| ColorInterval::new(0, q),
        params.mct_max_rounds,
    );
    tr.exit(t);
    tr.exit(s);

    let s = tr.enter("noncabal");
    color_noncabals(
        &mut net,
        &mut coloring,
        &seeds.child(6),
        params,
        &acd,
        &profile,
        &cabal_info,
    );
    tr.exit(s);
    let s = tr.enter("cabal");
    color_cabals(
        &mut net,
        &mut coloring,
        &seeds.child(7),
        params,
        &acd,
        &profile,
        &cabal_info,
    );
    tr.exit(s);
    tr.exit(root);

    Replay {
        coloring,
        report: net.meter.report(),
        cliques: acd.n_cliques(),
        cabals: cabal_info.n_cabals(),
        sparse: acd.sparse_vertices().len(),
    }
}

/// The fidelity gate: `None` when the replay matches `reference`,
/// otherwise the first mismatch.
fn fidelity(rep: &Replay, reference: &RunOutcome) -> Option<String> {
    let refc = &reference.run.coloring;
    let mut uncolored = 0usize;
    for v in 0..rep.coloring.len() {
        match rep.coloring.get(v) {
            Some(c) if refc.get(v) != Some(c) => {
                return Some(format!("vertex {v} colored differently"))
            }
            Some(_) => {}
            None => uncolored += 1,
        }
    }
    let st = &reference.run.stats;
    if uncolored != st.fallback_colored {
        return Some(format!(
            "{uncolored} vertices left uncolored, the driver's fallback colored {}",
            st.fallback_colored
        ));
    }
    if (rep.cliques, rep.cabals, rep.sparse) != (st.n_cliques, st.n_cabals, st.n_sparse) {
        return Some("decomposition differs".to_owned());
    }
    let phases = rep
        .report
        .phases
        .keys()
        .chain(reference.run.report.phases.keys());
    for p in phases.filter(|p| *p != "fallback") {
        if rep.report.phases.get(p) != reference.run.report.phases.get(p) {
            return Some(format!("phase {p} charged differently"));
        }
    }
    None
}

/// Calls the sketch layer on its own, with the seeds `compute_acd` gives
/// `buddy_edges`, under a `sketch` root: `buddy_edges` whole, then
/// `neighborhood_fingerprints` at buddy's trial count, then
/// `encoded_bits` over the aggregated rows.
fn sketch_split(
    tr: &mut Tracer,
    g: &ClusterGraph,
    params: &Params,
    par: ParallelConfig,
    seed: u64,
) -> usize {
    tr.next_run();
    let root = tr.enter("sketch");
    let buddy_seeds = SeedStream::new(seed).child(1).child(11);
    let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
    let s = tr.enter("buddy");
    let answers = buddy_edges(&mut net, &params.acd.buddy, &buddy_seeds);
    tr.exit(s);
    drop(answers);

    let t = params.acd.buddy.counting.trials(g.n_vertices());
    let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
    let s = tr.enter("fingerprints");
    let fps = neighborhood_fingerprints(&mut net, t, &buddy_seeds.child(1), 0, |_, _| true);
    tr.exit(s);
    let s = tr.enter("encode");
    let bits = fps.agg.iter().map(|f| encoded_bits(f.maxima())).max();
    tr.exit(s);
    std::hint::black_box(bits);
    tr.exit(root);
    t
}

/// Per-batch medians and means of a short churn stream.
fn mutate_layer(m: &mut Metrics, tally: &mut Tally, session: &mut cgc_core::Session, seed: u64) {
    let batch = churn_batch_size(session.graph());
    let (mut apply, mut recolor) = (Vec::new(), Vec::new());
    let (mut dirty, mut waves, mut fb, mut rounds) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..4 {
        for b in churn_chunk(session, seed, k, batch) {
            match guarded(|| session.apply_deltas(std::slice::from_ref(&b))) {
                Some(Ok(o)) => {
                    tally.record(crate::util::coloring_ok(session.graph(), &o.coloring));
                    apply.push(o.apply_secs);
                    recolor.push(o.recolor_secs);
                    dirty += o.dirty_vertices as f64;
                    waves += o.waves_run as f64;
                    fb += o.fallback_recolored as f64;
                    rounds += o.recolor_rounds as f64;
                }
                _ => tally.record(false),
            }
        }
    }
    let k = apply.len().max(1) as f64;
    m.put("mutate.apply_s", median(&apply), "s");
    m.put("mutate.recolor_s", median(&recolor), "s");
    m.put("mutate.dirty_vertices", dirty / k, "count");
    m.put("mutate.waves_run", waves / k, "count");
    m.put("mutate.fallback_recolored", fb / k, "count");
    m.put("mutate.recolor_rounds", rounds / k, "rounds");
}

fn put_zero(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for (n, u) in names {
        m.put(*n, 0.0, u);
    }
}

const MUTATE_METRICS: [(&str, &str); 6] = [
    ("mutate.apply_s", "s"),
    ("mutate.recolor_s", "s"),
    ("mutate.dirty_vertices", "count"),
    ("mutate.waves_run", "count"),
    ("mutate.fallback_recolored", "count"),
    ("mutate.recolor_rounds", "rounds"),
];

const SERVE_METRICS: [(&str, &str); 8] = [
    ("serve.admission_s", "s"),
    ("serve.hit_s_p50", "s"),
    ("serve.miss_s_p50", "s"),
    ("serve.write_s_p50", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.builds", "count"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
];

/// The traced run's result.
pub struct Traced {
    pub metrics: Metrics,
    pub tally: Tally,
    pub notes: Vec<String>,
    /// `None` when the replay passed its fidelity gate.
    pub fidelity_error: Option<String>,
    pub tracer: Tracer,
}

/// Runs `w`'s traced measurement: the setup split, untraced reference
/// runs, the gated replays, the sketch splits, and the workload's own
/// layer (mutations or the server). `instance` replaces the workload's
/// instance (to trace larger specs by hand).
pub fn traced(w: Workload, seed: u64, seconds: f64, instance: Option<WorkloadSpec>) -> Traced {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let threads = nproc();
    let spec = instance.unwrap_or_else(|| w.spec(seed));
    let run_seed = match w {
        Workload::ServeMixed => crate::serve_loop::hot_seed(seed, 0, 0),
        _ => derive(seed, 100),
    };

    let (mut gen, mut canon, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let (s, _) = timed_build(&spec, threads);
        let t = s.setup_timings();
        gen.push(t.generate_secs);
        canon.push(t.canonicalize_secs);
        build.push(t.build_secs);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    m.put("graphs.generate_s", median(&gen), "s");
    m.put("graphs.canonicalize_s", median(&canon), "s");
    m.put("graphs.build_s", median(&build), "s");

    // Untraced reference runs, then the traced replays and sketch splits,
    // `TRACE_REPS` of each; span times are medians over the repeats.
    let mut reference: Option<RunOutcome> = None;
    let mut untraced = Vec::new();
    for _ in 0..TRACE_REPS {
        let (out, secs) = checked_run(&mut session, run_seed);
        untraced.push(secs);
        let agree = match (&out, &reference) {
            (Some(o), Some(r)) => same_run(o, r),
            (o, _) => o.is_some(),
        };
        tally.record(agree);
        if reference.is_none() {
            reference = out;
        }
    }
    let untraced_s = median(&untraced);
    let g = session.graph().clone();
    let params = session.params().clone();
    let par = ParallelConfig::with_threads(threads);
    let mut tr = Tracer::new();
    let mut fidelity_error = None;
    let mut rep = None;
    for _ in 0..TRACE_REPS {
        let r = guarded(|| replay(&mut tr, &g, &params, par, run_seed));
        tally.record(r.is_some());
        let err = match (&r, &reference) {
            (Some(r), Some(reference)) => fidelity(r, reference),
            _ => Some("the replay or the reference run failed".to_owned()),
        };
        fidelity_error = fidelity_error.or(err);
        rep = rep.or(r);
    }
    let mut t = 0;
    for _ in 0..TRACE_REPS {
        t = sketch_split(&mut tr, &g, &params, par, run_seed);
    }

    let n = g.n_vertices();
    m.put("sketch.fingerprints_s", tr.secs("fingerprints"), "s");
    m.put("sketch.encode_s", tr.secs("encode"), "s");
    m.put("sketch.trials", t as f64, "count");
    m.put(
        "sketch.matrix_mb",
        (n * t * std::mem::size_of::<i16>()) as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    m.put("decomp.acd_s", tr.secs("acd"), "s");
    m.put("decomp.buddy_s", tr.secs("buddy"), "s");
    m.put(
        "decomp.buddy_joint_s",
        tr.secs("buddy") - tr.secs("fingerprints"),
        "s",
    );
    m.put(
        "decomp.degrees_s",
        tr.secs("degrees") + tr.secs("classify"),
        "s",
    );
    let (cliques, cabals, sparse) = rep
        .as_ref()
        .map_or((0, 0, 0), |r| (r.cliques, r.cabals, r.sparse));
    m.put("decomp.cliques", cliques as f64, "count");
    m.put("decomp.cabals", cabals as f64, "count");
    m.put("decomp.sparse", sparse as f64, "count");

    let empty = CostReport::default();
    let report = reference.as_ref().map_or(&empty, |r| &r.run.report);
    for p in PHASES {
        let c = report.phases.get(p);
        m.put(
            format!("net.{p}.h_rounds"),
            c.map_or(0.0, |c| c.h_rounds as f64),
            "rounds",
        );
        m.put(
            format!("net.{p}.mbits"),
            c.map_or(0.0, |c| c.bits as f64 / 1e6),
            "Mbit",
        );
    }
    for p in report
        .phases
        .keys()
        .filter(|p| !PHASES.contains(&p.as_str()))
    {
        notes.push(format!("warning: phase {p} has no per-layer metric"));
    }

    m.put("core.slackgen_s", tr.secs("slackgen"), "s");
    m.put("core.sparse_s", tr.secs("sparse"), "s");
    m.put("core.noncabal_s", tr.secs("noncabal"), "s");
    m.put("core.cabal_s", tr.secs("cabal"), "s");
    let fallback = reference
        .as_ref()
        .map_or(0, |r| r.run.stats.fallback_colored);
    m.put("core.fallback_colored", fallback as f64, "count");

    match w {
        Workload::SparseChurn => {
            mutate_layer(&mut m, &mut tally, &mut session, seed);
            put_zero(&mut m, &SERVE_METRICS);
        }
        Workload::ServeMixed => {
            put_zero(&mut m, &MUTATE_METRICS);
            let res =
                crate::serve_loop::run_loop(seed, seconds / 2.0, &mut Gauge::off(), |_, _| false);
            tally.absorb(res.tally);
            res.put_layer(&mut m);
        }
        _ => {
            put_zero(&mut m, &MUTATE_METRICS);
            put_zero(&mut m, &SERVE_METRICS);
        }
    }
    m.put(
        "par.threads_spawned",
        (WorkerPool::total_threads_spawned() + cgc_cluster::total_scoped_threads_spawned()) as f64,
        "count",
    );

    let (unattributed, total) = (tr.self_secs("run"), tr.secs("run"));
    m.put(
        "trace.unattributed_frac",
        unattributed / total.max(1e-12),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        total / untraced_s.max(1e-12) - 1.0,
        "ratio",
    );

    notes.push(format!(
        "traced replay of {spec}, run seed {run_seed}: {total:.4} s traced, {untraced_s:.4} s untraced (medians of {TRACE_REPS})"
    ));
    notes.push(format!(
        "{:<16} {:>10} {:>10} {:>9}",
        "span", "wall_s", "self_s", "of run_s"
    ));
    for (name, depth) in tr.names() {
        notes.push(format!(
            "{:<16} {:>10.4} {:>10.4} {:>8.1}%",
            format!("{}{name}", "  ".repeat(depth)),
            tr.secs(name),
            tr.self_secs(name),
            100.0 * tr.self_secs(name) / untraced_s.max(1e-12)
        ));
    }
    Traced {
        metrics: m,
        tally,
        notes,
        fidelity_error,
        tracer: tr,
    }
}
