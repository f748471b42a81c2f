//! Multi-tenant traffic generator for the [`cgc_core::serve`] session
//! server (default `BENCH_PR7.json`): drives a deterministic open- and
//! closed-loop request mix — a small **hot set** of workload specs
//! swept over run seeds plus a stream of **cold** one-shot specs —
//! through one [`SessionServer`] shared by concurrent tenant threads,
//! and reports throughput plus p50/p95/p99 request latency split by
//! how the cache treated the request (hit / miss / coalesced).
//!
//! Usage: `cargo run --release -p cgc_bench --bin bench_traffic [out.json]`
//!
//! Environment: `CGC_BENCH_N` overrides the hot-spec instance size (CI
//! smoke runs use a small `n`); `CGC_TRAFFIC_TENANTS` /
//! `CGC_TRAFFIC_REQUESTS` override the closed-loop shape; `CGC_THREADS`
//! sets the executor width every build and run shares.
//!
//! Besides timing, the binary **asserts** the server's contract:
//!
//! * every served outcome is **bit-identical** (coloring + cost report)
//!   to a standalone [`Session`](cgc_core::Session) run with the same
//!   spec, seed and thread count — checked for every distinct
//!   `(spec, seed)` pair the traffic produced;
//! * the steady-state hot phase performs **no rebuild**: the server's
//!   build counter must not move once the hot set is resident (the
//!   cache-hit path never rebuilds);
//! * single-flight holds: builds started never exceed the number of
//!   distinct specs requested.

use cgc_bench::{bench_report, write_json, Json};
use cgc_cluster::ParallelConfig;
use cgc_core::{ServeOutcome, ServerConfig, SessionBuilder, SessionServer};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const DEFAULT_N: usize = 20_000;
const AVG_DEG: f64 = 12.0;

/// One finished request: what was asked, how long it took, how the
/// cache treated it, and the outcome for the differential check.
struct Sample {
    spec: String,
    seed: u64,
    latency_secs: f64,
    out: ServeOutcome,
}

/// Deterministic per-tenant request mixer (splitmix64 — the bench must
/// replay identically across runs and machines).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `p`-th percentile (nearest-rank on the sorted slice), in
/// milliseconds.
fn percentile_ms(sorted_secs: &[f64], p: f64) -> f64 {
    if sorted_secs.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_secs.len() - 1) as f64).round() as usize;
    sorted_secs[idx] * 1e3
}

/// Latency summary of one request class as a JSON row.
fn latency_row(label: &str, secs: &mut [f64]) -> (String, Json) {
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (
        label.to_owned(),
        Json::obj(vec![
            ("count", Json::from(secs.len())),
            ("p50_ms", Json::from(percentile_ms(secs, 50.0))),
            ("p95_ms", Json::from(percentile_ms(secs, 95.0))),
            ("p99_ms", Json::from(percentile_ms(secs, 99.0))),
        ]),
    )
}

/// Splits samples into hit / coalesced / miss latency classes and
/// summarizes each plus the phase throughput.
fn phase_report(samples: &[Sample], wall_secs: f64) -> Json {
    let (mut hit, mut miss, mut coalesced) = (Vec::new(), Vec::new(), Vec::new());
    for s in samples {
        if s.out.cache_hit {
            hit.push(s.latency_secs);
        } else if s.out.coalesced {
            coalesced.push(s.latency_secs);
        } else {
            miss.push(s.latency_secs);
        }
    }
    let mut pairs = vec![
        ("requests", Json::from(samples.len())),
        ("wall_secs", Json::from(wall_secs)),
        (
            "throughput_rps",
            Json::from(samples.len() as f64 / wall_secs),
        ),
    ];
    let rows = [
        latency_row("cache_hit", &mut hit),
        latency_row("cache_miss", &mut miss),
        latency_row("coalesced", &mut coalesced),
    ];
    for (label, row) in &rows {
        pairs.push((label.as_str(), row.clone()));
    }
    Json::obj(pairs)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR7.json".to_owned());
    let n = env_usize("CGC_BENCH_N", DEFAULT_N);
    let tenants = env_usize("CGC_TRAFFIC_TENANTS", 4).max(1);
    let requests_per_tenant = env_usize("CGC_TRAFFIC_REQUESTS", 24).max(1);
    let parallel = ParallelConfig::from_env();
    let p = AVG_DEG / n as f64;

    // The hot set: the specs tenants keep coming back to. Mixed families
    // and layouts so the cache holds genuinely different instances.
    let hot_specs: Vec<String> = vec![
        format!("gnp:n={n},p={p},seed=1"),
        format!("gnp:n={n},p={p},seed=2,layout=star3"),
        format!("gnp:n={},p={},seed=3,layout=path4", n / 2, 2.0 * p),
        "cabal:c=2,k=14,anti=2,ext=3,seed=5".to_owned(),
    ];
    // Cold one-shots: every spec distinct, so each one is a cache miss
    // by construction (smaller than the hot set — a cold tenant, not a
    // cold giant).
    let cold_spec = move |k: u64| format!("gnp:n={},p={},seed={}", n / 4, 4.0 * p, 1000 + k);
    let seeds: Vec<u64> = (1..=6).collect();

    let server = Arc::new(SessionServer::new(
        ServerConfig::default().parallel(parallel),
    ));
    eprintln!(
        "traffic: {tenants} tenants x {requests_per_tenant} requests, {} hot specs, threads={}",
        hot_specs.len(),
        parallel.threads()
    );

    // --- phase 1: closed loop, mixed hot/cold ---------------------------
    // Each tenant issues its requests back-to-back (arrival waits for
    // completion); ~1 in 8 requests is a unique cold spec.
    let barrier = Arc::new(Barrier::new(tenants));
    let phase_start = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let hot_specs = hot_specs.clone();
            let seeds = seeds.clone();
            std::thread::spawn(move || {
                let mut rng = 0x5eed_0000 + t as u64;
                barrier.wait();
                (0..requests_per_tenant)
                    .map(|i| {
                        let r = mix(&mut rng);
                        let cold = r.is_multiple_of(8);
                        let spec = if cold {
                            cold_spec((t * requests_per_tenant + i) as u64)
                        } else {
                            hot_specs[(r / 8) as usize % hot_specs.len()].clone()
                        };
                        let seed = seeds[(r / 64) as usize % seeds.len()];
                        let start = Instant::now();
                        let out = server.run_str(&spec, seed).expect("spec parses");
                        Sample {
                            spec,
                            seed,
                            latency_secs: start.elapsed().as_secs_f64(),
                            out,
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut closed_samples: Vec<Sample> = Vec::new();
    for handle in handles {
        closed_samples.extend(handle.join().expect("tenant thread must not panic"));
    }
    let closed_wall = phase_start.elapsed().as_secs_f64();
    eprintln!(
        "closed loop: {} requests in {closed_wall:.2}s ({:.1} req/s)",
        closed_samples.len(),
        closed_samples.len() as f64 / closed_wall
    );

    // --- phase 2: open loop, hot-only burst -----------------------------
    // All requests released at one instant (arrivals independent of
    // completions); the build counter must not move — the steady-state
    // hot path performs no rebuild.
    let builds_before_hot = server.stats().builds_started;
    let burst = tenants * hot_specs.len() * 2;
    let release = Arc::new(Barrier::new(burst));
    let phase_start = Instant::now();
    let handles: Vec<_> = (0..burst)
        .map(|i| {
            let server = Arc::clone(&server);
            let release = Arc::clone(&release);
            let spec = hot_specs[i % hot_specs.len()].clone();
            let seed = seeds[i % seeds.len()];
            std::thread::spawn(move || {
                release.wait();
                let start = Instant::now();
                let out = server.run_str(&spec, seed).expect("spec parses");
                Sample {
                    spec,
                    seed,
                    latency_secs: start.elapsed().as_secs_f64(),
                    out,
                }
            })
        })
        .collect();
    let open_samples: Vec<Sample> = handles
        .into_iter()
        .map(|h| h.join().expect("burst thread must not panic"))
        .collect();
    let open_wall = phase_start.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(
        stats.builds_started, builds_before_hot,
        "hot-only traffic must not rebuild: the cache-hit path never builds"
    );
    assert!(
        open_samples.iter().all(|s| s.out.cache_hit),
        "every hot-burst request must be served from cache"
    );
    eprintln!(
        "open burst: {} requests in {open_wall:.2}s ({:.1} req/s), 0 rebuilds",
        open_samples.len(),
        open_samples.len() as f64 / open_wall
    );

    // --- contract checks over everything the traffic produced -----------
    let all: Vec<&Sample> = closed_samples.iter().chain(open_samples.iter()).collect();
    let distinct_specs: HashSet<&str> = all.iter().map(|s| s.spec.as_str()).collect();
    assert!(
        stats.builds_started <= distinct_specs.len() as u64,
        "single-flight: {} builds for {} distinct specs",
        stats.builds_started,
        distinct_specs.len()
    );

    // Differential: every distinct (spec, seed) pair served must equal a
    // standalone session with the same spec, seed and thread count —
    // coloring and cost report, bit for bit.
    let mut truth: HashMap<(String, u64), cgc_core::RunOutcome> = HashMap::new();
    let mut pairs: Vec<(&String, u64)> = all.iter().map(|s| (&s.spec, s.seed)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut by_spec: HashMap<&String, Vec<u64>> = HashMap::new();
    for (spec, seed) in pairs {
        by_spec.entry(spec).or_default().push(seed);
    }
    let check_start = Instant::now();
    let mut checked = 0usize;
    for (spec, spec_seeds) in by_spec {
        let mut session = SessionBuilder::parse(spec)
            .expect("served spec parses")
            .parallel(parallel)
            .build();
        for seed in spec_seeds {
            truth.insert((spec.clone(), seed), session.run(seed));
            checked += 1;
        }
    }
    for s in &all {
        let want = &truth[&(s.spec.clone(), s.seed)];
        assert_eq!(
            s.out.outcome.run.coloring, want.run.coloring,
            "served coloring differs from standalone for {} seed {}",
            s.spec, s.seed
        );
        assert_eq!(
            s.out.outcome.run.report, want.run.report,
            "served cost report differs from standalone for {} seed {}",
            s.spec, s.seed
        );
    }
    eprintln!(
        "identity: {} served requests == standalone across {checked} (spec, seed) pairs ({:.2}s)",
        all.len(),
        check_start.elapsed().as_secs_f64()
    );

    let cache_json = Json::obj(vec![
        ("builds_started", Json::from(stats.builds_started)),
        ("cache_hits", Json::from(stats.cache_hits)),
        ("cache_misses", Json::from(stats.cache_misses)),
        ("coalesced_waits", Json::from(stats.coalesced_waits)),
        ("evictions", Json::from(stats.evictions)),
        ("cached_entries", Json::from(stats.cached_entries)),
        ("cached_bytes", Json::from(stats.cached_bytes)),
        ("distinct_specs", Json::from(distinct_specs.len())),
        ("hot_phase_builds", Json::from(0u64)),
    ]);
    let report = bench_report(
        parallel.threads(),
        vec![
            (
                "traffic",
                Json::obj(vec![
                    ("n", Json::from(n)),
                    ("tenants", Json::from(tenants)),
                    ("requests_per_tenant", Json::from(requests_per_tenant)),
                    ("hot_specs", Json::from(hot_specs.len())),
                    ("seeds", Json::from(seeds.len())),
                ]),
            ),
            (
                "closed_loop_mixed",
                phase_report(&closed_samples, closed_wall),
            ),
            (
                "open_loop_hot_burst",
                phase_report(&open_samples, open_wall),
            ),
            ("cache", cache_json),
            (
                "identity",
                Json::obj(vec![
                    ("served_requests_checked", Json::from(all.len())),
                    ("spec_seed_pairs", Json::from(checked)),
                    ("bit_identical_to_standalone", Json::from(true)),
                    ("hot_path_rebuilds", Json::from(0u64)),
                ]),
            ),
        ],
    );
    write_json(&out_path, &report);
    eprintln!("wrote {out_path}");
}
