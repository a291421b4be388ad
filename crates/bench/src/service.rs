//! Service tail-latency sweep: the data source for `BENCH_service.json`.
//!
//! Where [`crate::sessions`] asks "how fast does a *batch* go through the
//! pool", this harness asks the production question: sessions arriving
//! continuously, how long does each one *wait*? One cell =
//! (workload mix) × (drive mode) × (execution path):
//!
//! **Mixes.** `"uniform"` — every session a light, fault-free `m = 4`
//! market. `"skewed"` — the same stream with every `heavy_period`-th
//! session replaced by a heavy one: `m = heavy_m` with a `CrashAt(Bidding)`
//! fault, so the round runs verdicts, a fine, and a full survivor re-run.
//! The heavy phase is chosen so that under static `ticket mod workers`
//! placement *every* heavy lands on the same worker — the adversarial
//! stream for a static shard, and an ordinary one for work stealing.
//!
//! **Modes.** `"closed"` — windowed streaming: the driver keeps at most
//! `window` sessions in flight, submitting the next as it retires the
//! oldest. Measures saturated throughput and the memory wall (the
//! config/outcome working set is bounded by the window, so batches sweep
//! to 10⁵–10⁶ sessions). `"paced"` — open loop: arrivals follow a fixed
//! schedule at `paced_utilization` of the measured capacity, submission
//! never waits for completions, and every session's enqueue→complete
//! latency is recorded. This is the mode where placement policy shows up:
//! a static shard lets lights pile up behind the heavy worker's backlog
//! while stealing drains them through idle workers — on any core count,
//! because the effect is queue discipline, not parallelism.
//!
//! **Paths.** `"service-steal"` — [`dls_protocol::service::ServiceHandle`]
//! with shortest-queue placement and steal-half. `"service-static"` — the
//! same service with `ticket mod workers` placement and no stealing.
//! `"pooled-static"` — the batch entry point
//! [`dls_protocol::executor::run_session_pooled_with`] as the closed-mode
//! baseline (no queue, no latency; its latency columns are zero).
//!
//! The `scratch` column discloses the per-worker arena: `"reused"` keeps
//! one [`VmScratch`](dls_protocol::executor::VmScratch) per worker across
//! sessions, `"fresh"` rebuilds it per session (the pre-arena behaviour).
//!
//! Honest-measurement notes, reflected in the JSON:
//!
//! * each cell is a single timed stream, not min-of-reps — cells are
//!   10³–10⁶ sessions long and self-average; the paced arrival schedule
//!   is identical for both service paths (same rate, same bursts);
//! * paced capacity is calibrated per mix from a short closed-loop run on
//!   the stealing path, and the resulting arrival rate is recorded in the
//!   entry (`arrival_per_sec`);
//! * all cells share one process, so the deterministic key and data-set
//!   caches are warm for everyone after the first few sessions — exactly
//!   the steady state an always-on service runs in (protocol signatures
//!   are computed fresh in every session);
//! * `rss_mb` is the process resident set after the cell (from
//!   `/proc/self/statm`; zero where unavailable), a coarse memory-wall
//!   indicator across the batch sweep.
//!
//! **Kill-churn cells (schema v2).** When `kill_every > 0`, the skewed
//! closed cell is re-run on both service paths under a deterministic
//! [`ServiceFaultPlan`] that kills the active worker at every
//! `kill_every`-th job start. The supervisor respawns each one and
//! requeues the orphaned session, so the stream still completes with
//! zero lost tickets (`lost` is computed from the retire loop, which
//! fails the whole sweep if any ticket vanishes); the cell discloses the
//! price: `kills`, `respawns`, worst death→respawn `recovery_max_ns`,
//! and the usual latency percentiles now including re-run sessions.
//!
//! Covered by the workspace no-panic lint gate: measurement never
//! unwraps — session errors surface as the harness error string.

use std::time::{Duration, Instant};

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::executor::run_session_pooled_with;
use dls_protocol::referee::Phase;
use dls_protocol::service::{Placement, ServiceConfig, ServiceHandle};
use dls_protocol::supervisor::{ServiceFaultPlan, ServiceStats};
use dls_protocol::FaultPlan;

use crate::workloads::quantized_rates;

/// Schema identifier written into the JSON header; bump when the layout of
/// the file changes incompatibly.
pub const SCHEMA: &str = "dls-bench-service-v2";

/// Everything that determines a service sweep; the workload stream is
/// reproducible from the config alone (wall-clock numbers aside).
#[derive(Debug, Clone)]
pub struct ServiceBenchConfig {
    /// Seed for market rates and all session key material.
    pub seed: u64,
    /// Bus communication rate `z` (dyadic).
    pub z: f64,
    /// Lower bound of the log-uniform rate range.
    pub lo: f64,
    /// Upper bound of the log-uniform rate range.
    pub hi: f64,
    /// Rates are quantized to multiples of `1/denom`.
    pub denom: u32,
    /// Market size of a light session.
    pub light_m: usize,
    /// Market size of a heavy session.
    pub heavy_m: usize,
    /// Blocks in a light session's load.
    pub light_blocks: usize,
    /// Blocks in a heavy session's load.
    pub heavy_blocks: usize,
    /// In the skewed mix, session `k` is heavy when
    /// `k % heavy_period == heavy_period - 1`. Chosen together with
    /// `workers` so `heavy_period - 1 ≡ workers - 1 (mod workers)` pins
    /// every heavy to one worker under static placement.
    pub heavy_period: usize,
    /// RSA modulus width. The sweep is about scheduling, not crypto, so
    /// it runs the minimum width; `BENCH_sessions.json` owns the crypto
    /// cost story.
    pub key_bits: usize,
    /// Service worker threads (also the pooled baseline's worker count).
    pub workers: usize,
    /// Closed-mode in-flight window.
    pub window: usize,
    /// Uniform-mix closed-mode batch sizes (the memory/throughput wall
    /// sweep).
    pub closed_batches: Vec<usize>,
    /// Skewed-mix closed-mode batch sizes.
    pub skewed_closed_batches: Vec<usize>,
    /// Paced-mode stream length (skewed mix).
    pub paced_batch: usize,
    /// Paced arrival rate as a fraction of measured capacity.
    pub paced_utilization: f64,
    /// Closed-loop sessions used to calibrate paced capacity per mix.
    pub calibration_sessions: usize,
    /// Largest batch the pooled baseline runs (it materializes the whole
    /// batch of configs and outcomes at once, so it does not sweep to the
    /// service's largest cells).
    pub pooled_batch_cap: usize,
    /// Kill-churn period for the faulted cells: the active worker is
    /// killed at every `kill_every`-th job start of the skewed closed
    /// stream (0 disables the faulted cells).
    pub kill_every: usize,
}

impl ServiceBenchConfig {
    /// The full sweep behind the committed `BENCH_service.json`.
    pub fn full() -> Self {
        ServiceBenchConfig {
            seed: 42,
            z: 0.0625,
            lo: 1.0,
            hi: 8.0,
            denom: 64,
            light_m: 4,
            heavy_m: 64,
            light_blocks: 12,
            heavy_blocks: 64,
            heavy_period: 200,
            key_bits: dls_crypto::rsa::MIN_MODULUS_BITS,
            workers: 5,
            window: 1024,
            closed_batches: vec![100_000, 1_000_000],
            skewed_closed_batches: vec![100_000],
            paced_batch: 20_000,
            paced_utilization: 0.8,
            calibration_sessions: 2_000,
            pooled_batch_cap: 100_000,
            kill_every: 2_000,
        }
    }

    /// A seconds-scale subset used by the tier-1 schema/sanity test.
    pub fn quick() -> Self {
        ServiceBenchConfig {
            heavy_m: 16,
            heavy_blocks: 16,
            heavy_period: 20,
            workers: 5,
            window: 64,
            closed_batches: vec![240],
            skewed_closed_batches: vec![200],
            paced_batch: 200,
            calibration_sessions: 60,
            pooled_batch_cap: 240,
            kill_every: 25,
            ..ServiceBenchConfig::full()
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServiceEntry {
    /// `"uniform"` or `"skewed"`.
    pub mix: &'static str,
    /// `"closed"` (windowed streaming) or `"paced"` (open-loop arrivals).
    pub mode: &'static str,
    /// `"service-steal"`, `"service-static"`, or `"pooled-static"`.
    pub path: &'static str,
    /// `"reused"` (per-worker arena) or `"fresh"` (arena rebuilt per
    /// session). The pooled baseline always reuses.
    pub scratch: &'static str,
    /// Sessions in the stream.
    pub batch: usize,
    /// Worker threads.
    pub workers: usize,
    /// Paced arrival rate, sessions/sec (zero in closed mode).
    pub arrival_per_sec: u128,
    /// Completed sessions per second over the whole stream.
    pub sessions_per_sec: u128,
    /// Median enqueue→complete latency, ns (zero on the pooled path,
    /// which has no queue to measure).
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Worst observed latency, ns.
    pub max_ns: u64,
    /// Process resident set after the cell, MiB (zero if unreadable).
    pub rss_mb: u64,
    /// Kill-churn period driving this cell (0 on fault-free cells).
    pub kill_every: usize,
    /// Worker kills taken during the cell.
    pub kills: u64,
    /// Workers respawned by the supervisor during the cell.
    pub respawns: u64,
    /// Worst worker death→respawn latency observed, ns.
    pub recovery_max_ns: u64,
    /// Accepted tickets that failed to resolve. The retire loop fails
    /// the whole sweep on the first lost ticket, so a written entry
    /// always reads 0 — the column exists so the committed file states
    /// the invariant explicitly.
    pub lost: u64,
}

/// `true` when session `k` of `mix` is a heavy session.
fn is_heavy(cfg: &ServiceBenchConfig, mix: &str, k: usize) -> bool {
    mix == "skewed" && cfg.heavy_period > 0 && k % cfg.heavy_period == cfg.heavy_period - 1
}

/// Builds session `k` of the stream. Lights are fault-free compliant
/// `light_m`-markets; heavies are `heavy_m`-markets whose last processor
/// crashes in Bidding, forcing verdicts, a fine, and a survivor re-run.
pub fn stream_session(
    cfg: &ServiceBenchConfig,
    mix: &str,
    k: usize,
) -> Result<SessionConfig, String> {
    let (m, blocks) = if is_heavy(cfg, mix, k) {
        (cfg.heavy_m, cfg.heavy_blocks)
    } else {
        (cfg.light_m, cfg.light_blocks)
    };
    let rates = quantized_rates(m, cfg.lo, cfg.hi, cfg.seed, cfg.denom);
    let mut procs: Vec<ProcessorConfig> = rates
        .iter()
        .map(|&w| ProcessorConfig::new(w, Behavior::Compliant))
        .collect();
    if is_heavy(cfg, mix, k) {
        if let Some(p) = procs.last_mut() {
            p.fault = FaultPlan::CrashAt(Phase::Bidding);
        }
    }
    SessionConfig::builder(SystemModel::NcpFe, cfg.z)
        .processors(procs)
        .blocks(blocks)
        .seed(cfg.seed)
        .key_bits(cfg.key_bits)
        .build()
        .map_err(|e| format!("stream session {k} ({mix}) failed to build: {e}"))
}

/// Nearest-rank percentile of an unsorted latency sample (`q` in 0..=1).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(0)
}

/// Resident set size in MiB from `/proc/self/statm`; zero when the file
/// is missing or malformed (non-Linux).
fn rss_mb() -> u64 {
    let statm = match std::fs::read_to_string("/proc/self/statm") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096 / (1024 * 1024)
}

fn per_sec(count: u128, ns: u128) -> u128 {
    if ns == 0 {
        return 0;
    }
    (count as f64 * 1e9 / ns as f64).round() as u128
}

/// Latency digest of one finished stream.
struct Digest {
    elapsed_ns: u128,
    latencies: Vec<u64>,
}

impl Digest {
    fn entry(
        self,
        mix: &'static str,
        mode: &'static str,
        path: &'static str,
        scratch: &'static str,
        batch: usize,
        workers: usize,
        arrival_per_sec: u128,
    ) -> ServiceEntry {
        let mut lat = self.latencies;
        lat.sort_unstable();
        ServiceEntry {
            mix,
            mode,
            path,
            scratch,
            batch,
            workers,
            arrival_per_sec,
            sessions_per_sec: per_sec(batch as u128, self.elapsed_ns),
            p50_ns: percentile_ns(&lat, 0.50),
            p95_ns: percentile_ns(&lat, 0.95),
            p99_ns: percentile_ns(&lat, 0.99),
            max_ns: lat.last().copied().unwrap_or(0),
            rss_mb: rss_mb(),
            kill_every: 0,
            kills: 0,
            respawns: 0,
            recovery_max_ns: 0,
            lost: 0,
        }
    }
}

impl ServiceEntry {
    /// Fills the kill-churn disclosure columns from the service's stats.
    fn churn(mut self, kill_every: usize, stats: &ServiceStats) -> ServiceEntry {
        self.kill_every = kill_every;
        self.kills = stats.killed;
        self.respawns = stats.respawns;
        self.recovery_max_ns = stats.recovery_ns_max;
        self
    }
}

/// Takes one completed session off the service, recording its latency and
/// surfacing a failed outcome as the harness error.
fn retire(svc: &ServiceHandle, ticket: u64, latencies: &mut Vec<u64>) -> Result<(), String> {
    match svc.wait(ticket) {
        Some(done) => {
            done.outcome
                .map_err(|e| format!("service session {ticket} failed: {e}"))?;
            latencies.push(done.latency_ns);
            Ok(())
        }
        None => Err(format!("service lost ticket {ticket}")),
    }
}

/// Closed-loop windowed stream: at most `window` sessions in flight.
/// Returns the latency digest plus the service's lifetime stats (the
/// kill-churn disclosure columns for faulted cells).
fn run_closed(
    cfg: &ServiceBenchConfig,
    mix: &'static str,
    placement: Placement,
    reuse_scratch: bool,
    batch: usize,
    plan: ServiceFaultPlan,
) -> Result<(Digest, ServiceStats), String> {
    let svc = ServiceHandle::start(ServiceConfig {
        workers: cfg.workers,
        placement,
        reuse_scratch,
        fault_plan: plan,
        ..ServiceConfig::stealing(cfg.workers)
    })
    .map_err(|e| format!("service failed to start: {e}"))?;
    let window = cfg.window.max(1);
    let mut latencies = Vec::with_capacity(batch);
    let t0 = Instant::now();
    for k in 0..batch {
        let ticket = svc
            .submit(stream_session(cfg, mix, k)?)
            .map_err(|e| format!("closed-mode submit {k} refused: {e}"))?;
        if ticket >= window as u64 {
            retire(&svc, ticket - window as u64, &mut latencies)?;
        }
    }
    let issued = batch as u64;
    for ticket in issued.saturating_sub(window.min(batch) as u64)..issued {
        retire(&svc, ticket, &mut latencies)?;
    }
    let elapsed_ns = t0.elapsed().as_nanos();
    let stats = svc.stats();
    svc.shutdown();
    Ok((
        Digest {
            elapsed_ns,
            latencies,
        },
        stats,
    ))
}

/// Open-loop paced stream: arrival `k` fires at `k / rate` regardless of
/// completions; everything drains (and is latency-stamped) afterwards.
fn run_paced(
    cfg: &ServiceBenchConfig,
    mix: &'static str,
    placement: Placement,
    batch: usize,
    arrivals_per_sec: f64,
) -> Result<Digest, String> {
    if arrivals_per_sec <= 0.0 {
        return Err("paced mode needs a positive arrival rate".into());
    }
    let svc = ServiceHandle::start(ServiceConfig {
        placement,
        ..ServiceConfig::stealing(cfg.workers)
    })
    .map_err(|e| format!("service failed to start: {e}"))?;
    // Build the stream up front so construction cost never perturbs the
    // arrival schedule.
    let stream: Vec<SessionConfig> = (0..batch)
        .map(|k| stream_session(cfg, mix, k))
        .collect::<Result<_, _>>()?;
    let gap_ns = 1e9 / arrivals_per_sec;
    let mut latencies = Vec::with_capacity(batch);
    let t0 = Instant::now();
    for (k, session) in stream.into_iter().enumerate() {
        let due = Duration::from_nanos((k as f64 * gap_ns) as u64);
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        svc.submit(session)
            .map_err(|e| format!("paced submit {k} refused: {e}"))?;
    }
    for ticket in 0..batch as u64 {
        retire(&svc, ticket, &mut latencies)?;
    }
    let elapsed_ns = t0.elapsed().as_nanos();
    svc.shutdown();
    Ok(Digest {
        elapsed_ns,
        latencies,
    })
}

/// Measures closed-loop capacity (sessions/sec) of the stealing path on
/// `mix`, used to set the paced arrival rate. Both paced paths then
/// receive the *same* schedule, so the comparison is apples to apples.
fn calibrate_capacity(cfg: &ServiceBenchConfig, mix: &'static str) -> Result<f64, String> {
    let n = cfg.calibration_sessions.max(cfg.heavy_period).max(1);
    let (d, _) = run_closed(
        cfg,
        mix,
        Placement::Stealing,
        true,
        n,
        ServiceFaultPlan::default(),
    )?;
    if d.elapsed_ns == 0 {
        return Err("calibration stream finished in zero time".into());
    }
    Ok(n as f64 * 1e9 / d.elapsed_ns as f64)
}

/// Warms the process-wide deterministic caches (seeded RSA keys and
/// data sets) for both session shapes so the first timed cell measures
/// the same steady state as the last — cells are single timed streams, so
/// unlike a min-of-reps harness nothing else hides the warmup.
fn warm_caches(cfg: &ServiceBenchConfig) -> Result<(), String> {
    let sessions = vec![
        stream_session(cfg, "uniform", 0)?,
        stream_session(cfg, "skewed", cfg.heavy_period.saturating_sub(1))?,
    ];
    crate::workloads::warm_session_caches(&sessions, 2)
}

/// Runs the whole sweep, emitting progress on stderr.
pub fn run_sweep(cfg: &ServiceBenchConfig) -> Result<Vec<ServiceEntry>, String> {
    let mut entries = Vec::new();
    warm_caches(cfg)?;
    let report = |e: &ServiceEntry| {
        eprintln!(
            "{:7} {:6} {:14} {:6} batch={:7} {:>9} sess/s  p50={:>12} p95={:>12} p99={:>12} ns  rss={}MiB  kills={} respawns={} rec_max={}ns",
            e.mix, e.mode, e.path, e.scratch, e.batch, e.sessions_per_sec, e.p50_ns, e.p95_ns, e.p99_ns, e.rss_mb, e.kills, e.respawns, e.recovery_max_ns
        );
    };

    // --- Closed-loop throughput / memory-wall sweep -----------------------
    for (mix, batches) in [
        ("uniform", &cfg.closed_batches),
        ("skewed", &cfg.skewed_closed_batches),
    ] {
        for &batch in batches.iter() {
            if batch == 0 {
                continue;
            }
            for (path, placement) in [
                ("service-steal", Placement::Stealing),
                ("service-static", Placement::StaticShard),
            ] {
                let (d, _) = run_closed(cfg, mix, placement, true, batch, ServiceFaultPlan::default())?;
                let e = d.entry(mix, "closed", path, "reused", batch, cfg.workers, 0);
                report(&e);
                entries.push(e);
            }
        }
    }

    // --- Scratch-arena disclosure: same cell, fresh arena per session -----
    if let Some(&batch) = cfg.closed_batches.iter().min().filter(|&&b| b > 0) {
        let (d, _) = run_closed(
            cfg,
            "uniform",
            Placement::Stealing,
            false,
            batch,
            ServiceFaultPlan::default(),
        )?;
        let e = d.entry("uniform", "closed", "service-steal", "fresh", batch, cfg.workers, 0);
        report(&e);
        entries.push(e);
    }

    // --- Kill-churn disclosure: the skewed closed cell under worker kills -
    if cfg.kill_every > 0 {
        if let Some(&batch) = cfg.skewed_closed_batches.iter().min().filter(|&&b| b > 0) {
            for (path, placement) in [
                ("service-steal", Placement::Stealing),
                ("service-static", Placement::StaticShard),
            ] {
                let plan = ServiceFaultPlan::kill_every(cfg.kill_every as u64, batch as u64);
                let (d, stats) = run_closed(cfg, "skewed", placement, true, batch, plan)?;
                let e = d
                    .entry("skewed", "closed", path, "reused", batch, cfg.workers, 0)
                    .churn(cfg.kill_every, &stats);
                report(&e);
                entries.push(e);
            }
        }
    }

    // --- Pooled baseline (closed batch, no queue/latency machinery) -------
    if let Some(&batch) = cfg
        .closed_batches
        .iter()
        .filter(|&&b| b > 0 && b <= cfg.pooled_batch_cap)
        .max()
    {
        let cfgs: Vec<SessionConfig> = (0..batch)
            .map(|k| stream_session(cfg, "uniform", k))
            .collect::<Result<_, _>>()?;
        let t0 = Instant::now();
        for r in run_session_pooled_with(&cfgs, cfg.workers) {
            r.map_err(|e| format!("pooled session failed: {e}"))?;
        }
        let elapsed_ns = t0.elapsed().as_nanos();
        let e = ServiceEntry {
            mix: "uniform",
            mode: "closed",
            path: "pooled-static",
            scratch: "reused",
            batch,
            workers: cfg.workers,
            arrival_per_sec: 0,
            sessions_per_sec: per_sec(batch as u128, elapsed_ns),
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            max_ns: 0,
            rss_mb: rss_mb(),
            kill_every: 0,
            kills: 0,
            respawns: 0,
            recovery_max_ns: 0,
            lost: 0,
        };
        report(&e);
        entries.push(e);
    }

    // --- Paced tail-latency comparison (the headline) ---------------------
    if cfg.paced_batch > 0 {
        let capacity = calibrate_capacity(cfg, "skewed")?;
        let rate = capacity * cfg.paced_utilization;
        eprintln!(
            "skewed calibration: capacity {:.1} sess/s -> pacing at {:.1} sess/s",
            capacity, rate
        );
        for (path, placement) in [
            ("service-steal", Placement::Stealing),
            ("service-static", Placement::StaticShard),
        ] {
            let d = run_paced(cfg, "skewed", placement, cfg.paced_batch, rate)?;
            let e = d.entry(
                "skewed",
                "paced",
                path,
                "reused",
                cfg.paced_batch,
                cfg.workers,
                rate.round() as u128,
            );
            report(&e);
            entries.push(e);
        }
    }

    Ok(entries)
}

/// p99 ratio static/steal on the paced skewed cell — the headline number
/// for the placement work; `None` when either entry is missing or
/// degenerate.
pub fn p99_improvement(entries: &[ServiceEntry]) -> Option<f64> {
    let find = |path: &str| {
        entries
            .iter()
            .find(|e| e.mix == "skewed" && e.mode == "paced" && e.path == path)
            .map(|e| e.p99_ns)
    };
    let (steal, stat) = (find("service-steal")?, find("service-static")?);
    if steal == 0 {
        return None;
    }
    Some(stat as f64 / steal as f64)
}

/// p99 ratio kill-churn/fault-free on the skewed closed stealing cell at
/// the same batch — how much tail latency worker kill-churn costs once
/// the supervisor has respawned and requeued around every kill. `None`
/// when either cell is missing or degenerate.
pub fn churn_p99_ratio(entries: &[ServiceEntry]) -> Option<f64> {
    let churn = entries.iter().find(|e| {
        e.mix == "skewed" && e.mode == "closed" && e.path == "service-steal" && e.kill_every > 0
    })?;
    let base = entries.iter().find(|e| {
        e.mix == "skewed"
            && e.mode == "closed"
            && e.path == "service-steal"
            && e.kill_every == 0
            && e.batch == churn.batch
    })?;
    if base.p99_ns == 0 {
        return None;
    }
    Some(churn.p99_ns as f64 / base.p99_ns as f64)
}

/// Worst worker death→respawn latency across the kill-churn cells, ns.
pub fn worst_recovery_ns(entries: &[ServiceEntry]) -> Option<u64> {
    entries
        .iter()
        .filter(|e| e.kill_every > 0)
        .map(|e| e.recovery_max_ns)
        .max()
}

/// Sessions/sec ratio service-steal / pooled-static on the uniform closed
/// control at the pooled baseline's batch; `None` when either entry is
/// missing or degenerate.
pub fn uniform_throughput_ratio(entries: &[ServiceEntry]) -> Option<f64> {
    let pooled = entries
        .iter()
        .find(|e| e.mix == "uniform" && e.mode == "closed" && e.path == "pooled-static")?;
    let steal = entries.iter().find(|e| {
        e.mix == "uniform"
            && e.mode == "closed"
            && e.path == "service-steal"
            && e.scratch == "reused"
            && e.batch == pooled.batch
    })?;
    if pooled.sessions_per_sec == 0 {
        return None;
    }
    Some(steal.sessions_per_sec as f64 / pooled.sessions_per_sec as f64)
}

/// Renders the sweep as the committed `BENCH_service.json` document.
/// Hand-rolled writer (the workspace deliberately has no JSON dependency);
/// all dynamic values are numbers and short slugs, so escaping is not
/// needed.
pub fn render_json(cfg: &ServiceBenchConfig, entries: &[ServiceEntry]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!(
        "  \"config\": {{\"seed\": {}, \"z\": {:?}, \"lo\": {:?}, \"hi\": {:?}, \"denom\": {}, \"light_m\": {}, \"heavy_m\": {}, \"light_blocks\": {}, \"heavy_blocks\": {}, \"heavy_period\": {}, \"key_bits\": {}, \"workers\": {}, \"window\": {}, \"paced_utilization\": {:?}, \"pooled_batch_cap\": {}, \"kill_every\": {}}},\n",
        cfg.seed,
        cfg.z,
        cfg.lo,
        cfg.hi,
        cfg.denom,
        cfg.light_m,
        cfg.heavy_m,
        cfg.light_blocks,
        cfg.heavy_blocks,
        cfg.heavy_period,
        cfg.key_bits,
        cfg.workers,
        cfg.window,
        cfg.paced_utilization,
        cfg.pooled_batch_cap,
        cfg.kill_every
    ));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"mix\": \"{}\", \"mode\": \"{}\", \"path\": \"{}\", \"scratch\": \"{}\", \"batch\": {}, \"workers\": {}, \"arrival_per_sec\": {}, \"sessions_per_sec\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"rss_mb\": {}, \"kill_every\": {}, \"kills\": {}, \"respawns\": {}, \"recovery_max_ns\": {}, \"lost\": {}}}{sep}\n",
            e.mix,
            e.mode,
            e.path,
            e.scratch,
            e.batch,
            e.workers,
            e.arrival_per_sec,
            e.sessions_per_sec,
            e.p50_ns,
            e.p95_ns,
            e.p99_ns,
            e.max_ns,
            e.rss_mb,
            e.kill_every,
            e.kills,
            e.respawns,
            e.recovery_max_ns,
            e.lost
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_stream_pins_heavies_to_one_static_worker() {
        let cfg = ServiceBenchConfig::full();
        // heavy_period - 1 must be ≡ workers - 1 (mod workers), so static
        // `ticket mod workers` placement sends every heavy to the last
        // worker — the adversarial case the sweep is built around.
        assert_eq!(
            (cfg.heavy_period - 1) % cfg.workers,
            cfg.workers - 1,
            "full config no longer concentrates heavies on one worker"
        );
        let q = ServiceBenchConfig::quick();
        assert_eq!((q.heavy_period - 1) % q.workers, q.workers - 1);
        for k in 0..cfg.heavy_period * 2 {
            let heavy = is_heavy(&cfg, "skewed", k);
            assert_eq!(heavy, k % cfg.heavy_period == cfg.heavy_period - 1);
            assert!(!is_heavy(&cfg, "uniform", k));
        }
    }

    #[test]
    fn stream_sessions_are_deterministic_and_well_formed() {
        let cfg = ServiceBenchConfig::quick();
        let a = stream_session(&cfg, "skewed", cfg.heavy_period - 1).unwrap();
        let b = stream_session(&cfg, "skewed", cfg.heavy_period - 1).unwrap();
        assert_eq!(a.processors, b.processors);
        assert_eq!(a.processors.len(), cfg.heavy_m);
        assert!(a
            .processors
            .last()
            .is_some_and(|p| p.fault != FaultPlan::None));
        let light = stream_session(&cfg, "skewed", 0).unwrap();
        assert_eq!(light.processors.len(), cfg.light_m);
        assert!(light.processors.iter().all(|p| p.fault == FaultPlan::None));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 0.50), 50);
        assert_eq!(percentile_ns(&sorted, 0.95), 95);
        assert_eq!(percentile_ns(&sorted, 0.99), 99);
        assert_eq!(percentile_ns(&sorted, 1.0), 100);
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[7], 0.99), 7);
    }

    #[test]
    fn render_json_has_schema_and_balanced_braces() {
        let cfg = ServiceBenchConfig::quick();
        let entries = vec![ServiceEntry {
            mix: "skewed",
            mode: "paced",
            path: "service-steal",
            scratch: "reused",
            batch: 20_000,
            workers: 5,
            arrival_per_sec: 3210,
            sessions_per_sec: 3199,
            p50_ns: 400_000,
            p95_ns: 900_000,
            p99_ns: 1_500_000,
            max_ns: 9_000_000,
            rss_mb: 120,
            kill_every: 25,
            kills: 3,
            respawns: 3,
            recovery_max_ns: 7_000_000,
            lost: 0,
        }];
        let json = render_json(&cfg, &entries);
        assert!(json.contains("\"schema\": \"dls-bench-service-v2\""));
        assert!(json.contains("\"path\": \"service-steal\""));
        assert!(json.contains("\"p99_ns\": 1500000"));
        assert!(json.contains("\"scratch\": \"reused\""));
        assert!(json.contains("\"kill_every\": 25"));
        assert!(json.contains("\"respawns\": 3"));
        assert!(json.contains("\"recovery_max_ns\": 7000000"));
        assert!(json.contains("\"lost\": 0"));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(opens, 3, "root + config + one entry");
    }

    #[test]
    fn ratio_helpers_read_matching_entries() {
        let mk = |mix: &'static str,
                  mode: &'static str,
                  path: &'static str,
                  batch: usize,
                  sessions_per_sec: u128,
                  p99_ns: u64| ServiceEntry {
            mix,
            mode,
            path,
            scratch: "reused",
            batch,
            workers: 5,
            arrival_per_sec: 0,
            sessions_per_sec,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns,
            max_ns: p99_ns,
            rss_mb: 0,
            kill_every: 0,
            kills: 0,
            respawns: 0,
            recovery_max_ns: 0,
            lost: 0,
        };
        let entries = vec![
            mk("skewed", "paced", "service-steal", 100, 50, 1_000),
            mk("skewed", "paced", "service-static", 100, 50, 4_000),
            mk("uniform", "closed", "service-steal", 200, 95, 0),
            mk("uniform", "closed", "pooled-static", 200, 100, 0),
        ];
        assert_eq!(p99_improvement(&entries), Some(4.0));
        assert_eq!(uniform_throughput_ratio(&entries), Some(0.95));
        assert_eq!(p99_improvement(&entries[2..]), None);
        assert_eq!(uniform_throughput_ratio(&entries[..2]), None);
    }

    #[test]
    fn churn_helpers_pair_cells_by_batch() {
        let mk = |kill_every: usize, p99_ns: u64, recovery_max_ns: u64| ServiceEntry {
            mix: "skewed",
            mode: "closed",
            path: "service-steal",
            scratch: "reused",
            batch: 200,
            workers: 5,
            arrival_per_sec: 0,
            sessions_per_sec: 100,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns,
            max_ns: p99_ns,
            rss_mb: 0,
            kill_every,
            kills: if kill_every > 0 { 7 } else { 0 },
            respawns: if kill_every > 0 { 7 } else { 0 },
            recovery_max_ns,
            lost: 0,
        };
        let entries = vec![mk(0, 2_000, 0), mk(25, 5_000, 9_000_000)];
        assert_eq!(churn_p99_ratio(&entries), Some(2.5));
        assert_eq!(worst_recovery_ns(&entries), Some(9_000_000));
        // No fault-free cell at the same batch -> no ratio.
        assert_eq!(churn_p99_ratio(&entries[1..]), None);
        assert_eq!(worst_recovery_ns(&entries[..1]), None);
    }
}
