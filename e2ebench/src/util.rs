//! Small shared pieces: seed derivation, order statistics, the operation
//! tally, the metric list, correctness predicates and the environment
//! record.

use cgc_cluster::{available_threads, ClusterGraph};
use cgc_core::{coloring_stats, Coloring};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed derived from the workload seed and a tag naming its use, so
/// every graph, run, churn and request seed repeats for a fixed
/// `--seed`. Kept below 2^53 so it survives any JSON consumer.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix64(mix64(seed) ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)) >> 11
}

/// The executor width every timed run uses: one thread per core.
pub fn nproc() -> usize {
    available_threads()
}

/// Linear-interpolated quantile of `xs` at `q ∈ [0, 1]` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds [`gauge_kernel`] takes on the reference core: one vCPU of a
/// 2-vCPU Intel Xeon VM (2 MiB L2 per core) with the other vCPU idle.
pub const REFERENCE_GAUGE_S: f64 = 0.055;

/// A fixed amount of the benchmark's own work, timed in wall seconds:
/// 400k xorshift-keyed `BTreeMap` updates on up to 64k keys (about
/// 2 MiB, so it outgrows L1 and fills L2), the pointer-chasing,
/// branchy kind of work the colorer's hot loops do. Of the kernels tried
/// (integer hashing, random reads of a 16 MiB table, smaller maps) its
/// readings followed the drift of `Session::run` and churn batch times
/// most closely. It never changes with the library, so its time measures
/// only how fast the core runs now.
pub fn gauge_kernel() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = std::collections::BTreeMap::new();
    for k in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 65_536).or_insert(0u64) += k;
    }
    std::hint::black_box(map.len());
    secs_since(t)
}

/// Turns wall seconds into reference seconds. On a shared host the speed
/// of a core drifts by tens of percent over seconds to minutes with what
/// other tenants run, which no median over one process removes. The
/// gauge runs [`gauge_kernel`] between timed operations; an operation's
/// reference time is its wall time × [`REFERENCE_GAUGE_S`] over the mean
/// of the two readings around it: what it would have taken on the
/// reference core. The library's own speed still shows in full, since
/// the kernel is the benchmark's and does not change with it.
pub struct Gauge {
    /// The latest reading; `None` when the gauge is off.
    last: Option<f64>,
    readings: Vec<f64>,
}

impl Gauge {
    /// A gauge that has read once (after a warm-up reading).
    pub fn new() -> Self {
        gauge_kernel();
        Self {
            last: Some(gauge_kernel()),
            readings: Vec::new(),
        }
    }

    /// A gauge whose factor is always 1: times stay wall seconds.
    pub fn off() -> Self {
        Self {
            last: None,
            readings: Vec::new(),
        }
    }

    /// Reads the gauge again and returns the factor that turns the wall
    /// seconds of what was timed since the previous reading into
    /// reference seconds.
    pub fn factor(&mut self) -> f64 {
        let Some(last) = self.last else {
            return 1.0;
        };
        let now = gauge_kernel();
        self.last = Some(now);
        self.readings.push(now);
        2.0 * REFERENCE_GAUGE_S / (last + now)
    }

    /// One line on the machine's speed during the window.
    pub fn note(&self) -> String {
        let m = median(&self.readings);
        format!(
            "gauge: median {m:.4} s over {} readings against {REFERENCE_GAUGE_S} s on the reference core, so this core ran at {:.2}× reference speed; every time metric is in reference seconds",
            self.readings.len(),
            REFERENCE_GAUGE_S / m.max(1e-9)
        )
    }
}

/// Attempted and failed operations (runs, batches, requests).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still goes
/// to stderr through the default hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// A total proper coloring of `g` with at most `Δ(g) + 1` colors.
pub fn coloring_ok(g: &ClusterGraph, c: &Coloring) -> bool {
    let q = g.max_degree() + 1;
    let s = coloring_stats(g, c);
    c.len() == g.n_vertices() && s.is_valid_total() && s.max_color.is_none_or(|m| m < q)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|k| k.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"k": "v", ...}` from string pairs.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// FNV-1a over the library sources and lock file, in path order: names
/// the measured code when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The machine and toolchain the numbers were taken on, plus the
/// executor-related environment this process found (and cleared).
pub fn environment(cleared: &[(String, String)]) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_owned(), |s| s.trim().to_owned());
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{base}/level")),
            read_trimmed(&format!("{base}/type")),
            read_trimmed(&format!("{base}/size")),
        ) else {
            continue;
        };
        caches.push(format!("L{level} {kind} {size}"));
    }
    let ram = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .map(|l| l.trim_start_matches("MemTotal:").trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env_vars = cleared
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    json_object(&[
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("caches", caches.join(", ")),
        ("ram", ram),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_commit",
            std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
        ),
        ("source_digest", source_digest()),
        ("cleared_env", env_vars),
    ])
}
