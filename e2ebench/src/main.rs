//! End-to-end and per-layer benchmark of the cluster-graph coloring
//! workspace. See `README.md` beside this package for the workloads, the
//! metrics and how to read them.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sparse_churn --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` runs only the workload's untraced operations and prints
//! the end-to-end metrics; `--trace 1` runs the traced replay and prints
//! the per-layer metrics; with `--spec <instance>` it traces that
//! instance instead of the workload's. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod serve_loop;
mod trace;
mod util;
mod workloads;

use util::{Metrics, Tally};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Traced runs only: an instance to trace instead of the workload's.
    spec: Option<cgc_graphs::WorkloadSpec>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut spec) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spec" => spec = Some(value.parse().map_err(|e| format!("--spec: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spec,
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "run_s",
    "run_s_serial",
    "peak_rss_mb",
    "h_rounds",
    "comm_mbits",
    "op_s_p50",
    "op_s_p90",
    "ops_per_s",
];

/// The names the operation metrics carry where an operation is a churn
/// batch or a served request. On `color_dense` an operation is a run, so
/// `op_s_*` and `ops_per_s` restate the runs of `run_s` and
/// `run_s_serial` and get no other name.
fn op_aliases(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::SparseChurn => &[("batch_s_p50", "op_s_p50"), ("batch_s_p90", "op_s_p90")],
        Workload::ServeMixed => &[
            ("req_s_p50", "op_s_p50"),
            ("req_s_p90", "op_s_p90"),
            ("req_per_s", "ops_per_s"),
        ],
        Workload::ColorDense => &[],
    }
}

fn print_metrics(metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: --workload <sparse_churn|color_dense|serve_mixed> --seed <n> --seconds <s> --trace <0|1> [--spec <instance>]");
            std::process::exit(2);
        }
    };
    // The library reads these on some paths; every session here pins its
    // executor explicitly, and clearing them keeps any other path from
    // picking them up.
    let mut cleared = Vec::new();
    for key in ["CGC_THREADS", "CGC_SEG_THRESHOLD"] {
        if let Ok(v) = std::env::var(key) {
            cleared.push((key.to_owned(), v));
            std::env::remove_var(key);
        }
    }
    let env = util::environment(&cleared);
    println!("env: {env}");
    let name = args.workload.name();
    println!(
        "workload {name}, seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );

    let (correct, tally, metrics): (bool, Tally, Metrics) = if args.trace {
        let t = trace::traced(args.workload, args.seed, args.seconds, args.spec);
        for line in &t.notes {
            println!("{line}");
        }
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        match t.tracer.write_jsonl(&path, &format!("{{\"env\": {env}}}")) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        if let Some(err) = &t.fidelity_error {
            println!("FIDELITY GATE FAILED: {err}; the per-layer numbers are refused");
        } else {
            println!("fidelity gate passed: the replay matches Session::run");
        }
        println!("per-layer metrics:");
        print_metrics(&t.metrics);
        (
            t.fidelity_error.is_none() && t.tally.failed == 0,
            t.tally,
            t.metrics,
        )
    } else {
        let spec = args.workload.spec(args.seed);
        let r = match args.workload {
            Workload::SparseChurn => workloads::sparse_churn(&spec, args.seed, args.seconds),
            Workload::ColorDense => workloads::color(&spec, args.seed, args.seconds),
            Workload::ServeMixed => serve_loop::serve(args.seed, args.seconds),
        };
        for line in &r.notes {
            println!("{line}");
        }
        let mut ordered = Metrics::default();
        for key in END_TO_END {
            let (n, v, u) = r
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == key)
                .cloned()
                .expect("every workload reports every end-to-end metric");
            ordered.put(n, v, u);
        }
        println!("end-to-end metrics:");
        print_metrics(&ordered);
        for (alias, key) in op_aliases(args.workload) {
            println!(
                "  {alias:<32} {:>16.6} (= {key})",
                ordered.get(key).unwrap_or(0.0)
            );
        }
        let failed_frac = r.tally.failed as f64 / r.tally.attempted.max(1) as f64;
        println!(
            "  {:<32} {failed_frac:>16.6} ratio ({} of {} operations)",
            "failed_frac", r.tally.failed, r.tally.attempted
        );
        (r.tally.failed == 0, r.tally, ordered)
    };
    println!("{}", util::result_line(correct, tally, &metrics));
}
