//! `serve_mixed`: one `SessionServer` driven as a closed loop.
//!
//! `nproc` client threads share the server, whose executor runs one
//! thread per request, so clients × executor threads = `nproc`. Each
//! client sends its next operation only after the previous one returned.
//! The read mix follows the closed loop of the repository's
//! `bench_traffic` binary: one operation in eight is a cold spec never
//! requested before (every eighth of each client, where `bench_traffic`
//! draws one in eight at random: a fixed slot keeps the cold share, on
//! which `op_s_p90` and `ops_per_s` hang, the same in every process),
//! the rest go to the hot set (a spec chosen uniformly,
//! then one of six run seeds). On top of that, each drawn from the
//! workload seed:
//!
//! * every second cold request is a coalesced pair: the client and a
//!   helper thread request the same new cold spec at once, so one builds
//!   and one waits;
//! * client 0 owns the write spec: its hot draws that land on that spec
//!   are `apply_deltas` writes, while the other clients read it. One
//!   writer keeps the epochs in batch order, so every served epoch has a
//!   known write history for the check below.
//!
//! The window is a train of bursts; between two bursts, with the clients
//! stopped, the benchmark times three pairs of standalone runs.
//!
//! After the window, every distinct served `(spec, delta epoch, seed)`
//! is re-run on a standalone `Session` carrying the same delta history
//! and must match bit for bit.

use crate::util::{
    coloring_ok, derive, guarded, median, nproc, peak_rss_mib, quantile, secs_since, Gauge,
};
use crate::util::{Metrics, Tally};
use crate::workloads::{
    put_cost, put_ops, run_pair, same_run, timed_build, Measured, COST_RUNS, SETUP_REPS,
};
use cgc_cluster::ParallelConfig;
use cgc_core::{RunOutcome, ServerConfig, ServerStats, SessionBuilder, SessionServer};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::DeltaBatch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One operation in this many is cold, as in `bench_traffic`'s closed
/// loop.
const COLD_EVERY: u64 = 8;
/// Run seeds each hot spec is requested with, as in `bench_traffic`.
const HOT_SEEDS: u64 = 6;
/// Ready graphs the server may cache: twice the hot set. The hot specs,
/// each requested far more often than any cold one, stay resident under
/// LRU, and each cold spec evicts an older cold one, so the cache is
/// bounded and `serve.evictions` counts cold traffic.
const CACHE_ENTRIES: usize = 6;
/// Index of the hot spec that receives the writes.
const WRITE_SPEC: usize = 2;
/// The client that sends the writes.
const WRITER: usize = 0;
/// Length of one closed-loop burst. With [`PAIRS_PER_GAP`] standalone
/// run pairs (about 1.3 s with their gauge readings) after each, 8
/// cycles fill a window of 32 s.
const BURST_S: f64 = 2.5;
/// Standalone run pairs timed between two bursts.
const PAIRS_PER_GAP: usize = 3;
/// Pre-generated write batches (more than a window can use).
const WRITE_BATCHES: usize = 512;

/// The hot set: two gnp instances and one power-law instance, each with
/// Δ above `delta_low` = 16 so the high-degree path runs.
pub fn hot_specs(seed: u64) -> [WorkloadSpec; 3] {
    let s = |i: u64| derive(seed, 10 + i);
    [
        format!("gnp:n=1000,p=0.02,seed={}", s(0)),
        format!("powerlaw:n=1000,beta=2.5,avg=16,seed={}", s(1)),
        format!("gnp:n=1000,p=0.02,seed={}", s(2)),
    ]
    .map(|x| x.parse().expect("hot specs are well formed"))
}

pub fn hot_seed(seed: u64, spec: usize, j: u64) -> u64 {
    derive(seed, 200 + 1000 * spec as u64 + j)
}

fn cold_spec(seed: u64, client: usize, k: u64) -> WorkloadSpec {
    let s = derive(seed, 1_000_000 * (client as u64 + 1) + k);
    format!("gnp:n=1000,p=0.02,seed={s}")
        .parse()
        .expect("cold specs are well formed")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Warm,
    Hit,
    Miss,
    Coalesced,
    Write,
}

/// One served operation as the client saw it.
struct Record {
    class: Class,
    latency: f64,
    admission: f64,
    /// The server found the spec's graph ready in its cache.
    cache_hit: bool,
    /// `(spec, delta epoch, seed, outcome)` of a served run; `None` for
    /// writes and for requests that panicked.
    served: Option<(String, u64, u64, RunOutcome)>,
    ok: bool,
}

fn request(server: &SessionServer, class: Class, spec: &WorkloadSpec, seed: u64) -> Record {
    let t = Instant::now();
    let out = guarded(|| server.run(spec, seed));
    let latency = secs_since(t);
    match out {
        Some(o) => Record {
            class,
            latency,
            admission: o.admission_secs,
            cache_hit: o.cache_hit,
            served: Some((spec.to_string(), o.outcome.delta_epoch, seed, o.outcome)),
            ok: true,
        },
        None => Record {
            class,
            latency,
            admission: 0.0,
            cache_hit: false,
            served: None,
            ok: false,
        },
    }
}

/// Everything one closed-loop window produced.
pub struct LoopResult {
    pub setup_s: f64,
    pub window_s: f64,
    /// `VmHWM` when the window closed, before the check re-runs requests.
    pub peak_rss_mb: f64,
    pub stats: ServerStats,
    records: Vec<Record>,
    pub tally: Tally,
    pub clients: usize,
}

impl LoopResult {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.class != Class::Warm && class.is_none_or(|c| r.class == c))
            .map(|r| r.latency)
            .collect()
    }

    /// The per-layer view of the server.
    pub fn put_layer(&self, m: &mut Metrics) {
        let reads: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| !matches!(r.class, Class::Write | Class::Warm))
            .collect();
        let adm: Vec<f64> = reads.iter().map(|r| r.admission).collect();
        m.put(
            "serve.admission_s",
            adm.iter().sum::<f64>() / adm.len().max(1) as f64,
            "s",
        );
        m.put(
            "serve.hit_s_p50",
            median(&self.latencies(Some(Class::Hit))),
            "s",
        );
        m.put(
            "serve.miss_s_p50",
            median(&self.latencies(Some(Class::Miss))),
            "s",
        );
        m.put(
            "serve.write_s_p50",
            median(&self.latencies(Some(Class::Write))),
            "s",
        );
        let hits = reads.iter().filter(|r| r.cache_hit).count();
        m.put(
            "serve.hit_ratio",
            hits as f64 / reads.len().max(1) as f64,
            "ratio",
        );
        let s = self.stats;
        m.put("serve.builds", s.builds_started as f64, "count");
        m.put("serve.coalesced", s.coalesced_waits as f64, "count");
        m.put("serve.evictions", s.evictions as f64, "count");
    }
}

fn server_config(exec_threads: usize) -> ServerConfig {
    ServerConfig::default()
        .parallel(ParallelConfig::with_threads(exec_threads))
        .max_entries(CACHE_ENTRIES)
}

/// What one client thread carries from burst to burst.
#[derive(Default)]
struct ClientState {
    next_op: u64,
    cold: u64,
}

/// Shared inputs of the client threads.
struct Loop<'a> {
    seed: u64,
    server: &'a SessionServer,
    hot: &'a [WorkloadSpec; 3],
    batches: &'a [DeltaBatch],
    writes_done: &'a AtomicUsize,
    write_epochs: &'a Mutex<Vec<u64>>,
}

impl Loop<'_> {
    /// Client `c`'s operations until `deadline`, each sent after the
    /// previous one returned.
    fn burst(&self, c: usize, st: &mut ClientState, deadline: Instant) -> Vec<Record> {
        let (seed, server, hot) = (self.seed, self.server, self.hot);
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let op = st.next_op;
            st.next_op += 1;
            let x = derive(seed, 100_000 * (c as u64 + 1) + op);
            let spec = (x / COLD_EVERY) as usize % hot.len();
            if op % COLD_EVERY == COLD_EVERY - 1 {
                st.cold += 1;
                let cold = cold_spec(seed, c, st.cold);
                if st.cold % 2 == 1 {
                    out.push(request(server, Class::Miss, &cold, derive(seed, 5)));
                    continue;
                }
                let run_seed = derive(seed, 6);
                let helper = std::thread::scope(|h| {
                    let other = h.spawn(|| request(server, Class::Coalesced, &cold, run_seed));
                    out.push(request(server, Class::Coalesced, &cold, run_seed));
                    other.join()
                });
                out.push(helper.unwrap_or(Record {
                    class: Class::Coalesced,
                    latency: 0.0,
                    admission: 0.0,
                    cache_hit: false,
                    served: None,
                    ok: false,
                }));
            } else if c == WRITER && spec == WRITE_SPEC {
                let w = self.writes_done.fetch_add(1, Ordering::Relaxed);
                let Some(batch) = self.batches.get(w) else {
                    continue;
                };
                let t = Instant::now();
                let res =
                    guarded(|| server.apply_deltas(&hot[WRITE_SPEC], std::slice::from_ref(batch)));
                let latency = secs_since(t);
                let ok = matches!(res, Some(Ok(e)) if e == w as u64 + 1);
                if let Some(Ok(e)) = res {
                    self.write_epochs
                        .lock()
                        .expect("no writer panics holding the lock")
                        .push(e);
                }
                out.push(Record {
                    class: Class::Write,
                    latency,
                    admission: 0.0,
                    cache_hit: false,
                    served: None,
                    ok,
                });
            } else {
                let j = x / COLD_EVERY / hot.len() as u64 % HOT_SEEDS;
                out.push(request(
                    server,
                    Class::Hit,
                    &hot[spec],
                    hot_seed(seed, spec, j),
                ));
            }
        }
        out
    }
}

/// Starts servers and warms the hot set `SETUP_REPS` times (the median
/// is `setup_s`), then drives the closed loop in bursts of `BURST_S`
/// until `seconds` have passed and `between` has asked for no more
/// cycles. `gauge` is read after each set-up and each burst, and times
/// are in its reference seconds. `between(cycle, gauge)` runs with the
/// clients stopped and returns whether it needs another cycle.
/// Afterwards every served run is checked against a standalone session.
pub fn run_loop(
    seed: u64,
    seconds: f64,
    gauge: &mut Gauge,
    mut between: impl FnMut(usize, &mut Gauge) -> bool,
) -> LoopResult {
    let hot = hot_specs(seed);
    let exec_threads = 1;
    let clients = (nproc() / exec_threads).max(1);

    // The write stream, generated against the write spec's base graph.
    let write_base = hot[WRITE_SPEC].build_with(&ParallelConfig::with_threads(1));
    let bs = crate::workloads::churn_batch_size(&write_base);
    let batches = ChurnSpec::balanced(hot[WRITE_SPEC], WRITE_BATCHES, bs, derive(seed, 3000))
        .schedule(&write_base);
    drop(write_base);

    let mut records = Vec::new();
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let srv = SessionServer::new(server_config(exec_threads));
        let warm: Vec<Record> = hot
            .iter()
            .enumerate()
            .map(|(i, spec)| request(&srv, Class::Warm, spec, hot_seed(seed, i, 0)))
            .collect();
        setup.push(secs_since(t) * gauge.factor());
        records = warm;
        server = Some(srv);
    }
    let server = server.expect("at least one set-up");

    let writes_done = AtomicUsize::new(0);
    let write_epochs = Mutex::new(Vec::new());
    let lp = Loop {
        seed,
        server: &server,
        hot: &hot,
        batches: &batches,
        writes_done: &writes_done,
        write_epochs: &write_epochs,
    };
    let mut states: Vec<ClientState> = (0..clients).map(|_| ClientState::default()).collect();
    let mut window_s = 0.0;
    let start = Instant::now();
    let mut more = true;
    for cycle in 0.. {
        if secs_since(start) >= seconds && !more {
            break;
        }
        let t = Instant::now();
        let deadline = t + std::time::Duration::from_secs_f64(BURST_S);
        let per_client: Vec<Vec<Record>> = std::thread::scope(|s| {
            let lp = &lp;
            let handles: Vec<_> = states
                .iter_mut()
                .enumerate()
                .map(|(c, st)| s.spawn(move || lp.burst(c, st, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let secs = secs_since(t);
        let f = gauge.factor();
        window_s += secs * f;
        records.extend(per_client.into_iter().flatten().map(|mut r| {
            r.latency *= f;
            r
        }));
        more = between(cycle, gauge);
    }
    let peak_rss_mb = peak_rss_mib();
    let stats = server.stats();
    drop(server);

    let n_writes = write_epochs.into_inner().expect("writers finished").len();
    verify(&mut records, &batches[..n_writes.min(batches.len())]);
    let mut tally = Tally::default();
    for r in &records {
        tally.record(r.ok);
    }
    LoopResult {
        setup_s: median(&setup),
        window_s,
        peak_rss_mb,
        stats,
        records,
        tally,
        clients,
    }
}

/// Re-runs every distinct served `(spec, epoch, seed)` on a standalone
/// one-thread `Session` (with the write history applied up to `epoch`)
/// and marks every served copy that differs, or whose coloring is not
/// total and proper, as failed. Verifiers run on `nproc` threads.
fn verify(records: &mut [Record], history: &[DeltaBatch]) {
    // spec -> (epoch, seed) -> indices of the served copies.
    let mut groups: BTreeMap<String, BTreeMap<(u64, u64), Vec<usize>>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if let Some((spec, epoch, seed, _)) = &r.served {
            groups
                .entry(spec.clone())
                .or_default()
                .entry((*epoch, *seed))
                .or_default()
                .push(i);
        }
    }
    let groups: Vec<_> = groups.into_iter().collect();
    let next = AtomicUsize::new(0);
    let bad: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some((spec, triples)) = groups.get(g) else {
                    break;
                };
                let mut failed = Vec::new();
                let ok = guarded(|| {
                    let mut session = SessionBuilder::parse(spec)
                        .expect("served specs parse")
                        .parallel(ParallelConfig::with_threads(1))
                        .build();
                    let mut epoch = 0u64;
                    for (&(e, seed), idx) in triples {
                        if e > epoch {
                            let Some(batches) = history.get(epoch as usize..e as usize) else {
                                failed.extend(idx);
                                continue;
                            };
                            if session.apply_deltas(batches).is_err() {
                                failed.extend(idx);
                                continue;
                            }
                            epoch = e;
                        }
                        let reference = session.run(seed);
                        let good = coloring_ok(session.graph(), &reference.run.coloring);
                        for &i in idx {
                            let served = &records[i].served.as_ref().expect("grouped").3;
                            if !good || !same_run(served, &reference) {
                                failed.push(i);
                            }
                        }
                    }
                });
                if ok.is_none() {
                    failed.extend(triples.values().flatten());
                }
                bad.lock()
                    .expect("verifiers do not panic holding the lock")
                    .extend(failed);
            });
        }
    });
    for i in bad.into_inner().expect("verifiers finished") {
        records[i].ok = false;
    }
}

/// `serve_mixed` end to end: the closed loop's request metrics, and
/// between its bursts [`PAIRS_PER_GAP`] pairs of standalone runs of the
/// first hot spec at `nproc` and at one thread (at least [`COST_RUNS`]
/// pairs), so requests
/// and runs sample the same stretch of time.
pub fn serve(seed: u64, seconds: f64) -> Measured {
    let mut r = Measured::default();
    let spec = hot_specs(seed)[0];
    let (mut session, _) = timed_build(&spec, nproc());
    let (mut par, mut ser, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs = Tally::default();
    let mut gauge = Gauge::new();
    let res = run_loop(seed, seconds, &mut gauge, |cycle, gauge| {
        for j in 0..PAIRS_PER_GAP {
            let (a, ta, tb) = run_pair(
                &mut session,
                hot_seed(seed, 0, (cycle * PAIRS_PER_GAP + j) as u64),
                nproc(),
                &mut pairs,
                gauge,
            );
            par.push(ta);
            ser.push(tb);
            if costs.len() < COST_RUNS {
                costs.extend(a);
            }
        }
        (cycle + 1) * PAIRS_PER_GAP < COST_RUNS
    });
    r.tally.absorb(res.tally);
    r.tally.absorb(pairs);
    r.metrics.put("setup_s", res.setup_s, "s");
    r.metrics.put("peak_rss_mb", res.peak_rss_mb, "MiB");
    r.metrics.put("run_s", median(&par), "s");
    r.metrics.put("run_s_serial", median(&ser), "s");
    put_cost(&mut r.metrics, &costs);
    let lat = res.latencies(None);
    put_ops(&mut r.metrics, &lat, res.window_s);
    r.notes.push(format!(
        "requests: {} over {:.1} s of bursts from {} clients (hits {}, misses {}, coalesced {}, writes {}), p99 {:.4} s; standalone run pairs: {}",
        lat.len(),
        res.window_s,
        res.clients,
        res.latencies(Some(Class::Hit)).len(),
        res.latencies(Some(Class::Miss)).len(),
        res.latencies(Some(Class::Coalesced)).len(),
        res.latencies(Some(Class::Write)).len(),
        quantile(&lat, 0.99),
        par.len()
    ));
    r.notes.push(gauge.note());
    r
}
