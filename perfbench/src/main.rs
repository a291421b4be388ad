//! Fresh-traffic benchmark with a layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an environment stamp and a metric table, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same traffic, replays its layers and reports the
//! per-layer metrics.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod check;
mod deploy;
mod facade;
mod fresh;
mod ledger;
mod market;
mod service;
mod stats;

use std::process::ExitCode;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), named by module. A layer a workload
/// does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("num.modexp_1024.us", "us"),
    ("num.modexp_384.us", "us"),
    ("crypto.sign.count", "count"),
    ("crypto.sign.us", "us"),
    ("crypto.sign.share", "ratio"),
    ("crypto.sign.memo_hits", "count"),
    ("crypto.block_sign.count", "count"),
    ("crypto.dataset.ms", "ms"),
    ("crypto.verify.count", "count"),
    ("crypto.verify.us", "us"),
    ("crypto.encode_hash.us", "us"),
    ("crypto.encode_hash.bytes", "bytes"),
    ("crypto.keygen.ms", "ms"),
    ("dlt.solve.us", "us"),
    ("dlt.splice.us", "us"),
    ("mechanism.payments.us", "us"),
    ("mechanism.quote.us", "us"),
    ("mechanism.settle.us", "us"),
    ("mechanism.multiload_update.us", "us"),
    ("referee.adjudicate.us", "us"),
    ("executor.messages.count", "count"),
    ("executor.bytes", "bytes"),
    ("executor.residual.ms", "ms"),
    ("ledger.coverage", "ratio"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.steals", "count"),
    ("service.queue_depth_hwm", "count"),
    ("service.worker_imbalance", "ratio"),
    ("service.attempts_per_ticket", "count"),
    ("service.backlog_end", "count"),
    ("generator.lateness_ms.max", "ms"),
    ("runtime.transport.ms", "ms"),
    ("runtime.threads_per_session", "count"),
    ("trace.overhead_ms", "ms"),
];

const WORKLOADS: &[&str] = &[
    "fresh-sessions",
    "service-open",
    "market-stream",
    "facade-threaded",
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 120),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// The commit of the checkout, read from `.git` without leaving it; a
/// source export without git metadata reads "none".
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none".into(),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let load_before = loadavg();
    let result = match args.workload.as_str() {
        "fresh-sessions" => fresh::run(&args),
        "service-open" => service::run(&args),
        "market-stream" => market::run(&args),
        _ => facade::run(&args),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        outcome.metric("num.modexp_1024.us", ledger::modexp_us(1024, 40));
        outcome.metric("num.modexp_384.us", ledger::modexp_us(384, 200));
    }

    let env = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", rustc_version()),
        ("git_rev", git_rev()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("loadavg_before", load_before),
        ("loadavg_after", loadavg()),
    ];
    let fields: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .chain(
            outcome
                .notes
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))),
        )
        .collect();
    println!("{{\"env\": {{{}}}}}", fields.join(", "));

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|m| m.1)
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = match value(name) {
            Some(v) => v,
            // Every end-to-end metric must be measured; a layer the
            // workload bypasses reads 0.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        println!("  {name:<32} {v:>14.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("  {:<32} {failed_share:>14.4} share", "failed_share");
    for p in outcome.problems.iter().take(5) {
        println!("  failure: {p}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
