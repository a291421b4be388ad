//! `service-open`: an open loop at a fixed offered rate into a
//! `ServiceHandle` (`workers = nproc`, stealing placement, default
//! admission). Light sessions are m = 4, 384-bit, fresh bids, cycling
//! through eight behaviour/fault scenarios over a few loads warmed in
//! set-up; every `HEAVY_PERIOD`-th session is a heavy m = 32 market.
//! Latency runs from each session's due time, so a stall also charges
//! the sessions queued behind it.

use crate::check;
use crate::deploy::{fresh_rates, off_grid, Deployment, Rng};
use crate::ledger::{extra_threads, Executor, Ledger};
use crate::stats::{mean, ms_since, peak_rss_mb, percentile, Outcome, Round, Setup};
use crate::Args;
use dls::dlt::SystemModel;
use dls::protocol::blocks::DataSet;
use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::fault::FaultPlan;
use dls::protocol::referee::Phase;
use dls::protocol::{run_session, run_session_vm, Completed, ServiceConfig, ServiceHandle};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const LIGHT_M: usize = 4;
const HEAVY_M: usize = 32;
const KEY_BITS: usize = 384;
const KEY_SEED: u64 = 0x0005_e5c1_ce00_0384;
const Z: f64 = 0.2;
/// Offered load, sessions per second: about 40 % of the measured
/// two-worker capacity.
const OFFERED_PER_S: f64 = 300.0;
const HEAVY_PERIOD: usize = 200;
/// Rounds are consecutive windows of the schedule, each holding the same
/// number of heavy sessions when the run is a multiple of 10 s.
const ROUNDS: usize = 10;
/// Compliant light sessions the traced run also sends through the
/// threaded runtime.
const RUNTIME_PROBE: usize = 200;
/// The few loads light sessions draw from, prepared in set-up.
const LIGHT_BLOCKS: [usize; 4] = [16, 24, 32, 40];
const HEAVY_BLOCKS: usize = 96;
/// A session not done this long after its due time missed its deadline.
const LATENCY_LIMIT_MS: f64 = 250.0;

/// The chaos cycle: one deviant (never the originator) per session.
const SCENARIOS: usize = 8;

fn scenario(p: &mut ProcessorConfig, k: usize) {
    match k {
        1 => p.behavior = Behavior::Misreport { factor: 1.5 },
        2 => p.behavior = Behavior::Slack { factor: 1.25 },
        3 => p.fault = FaultPlan::CrashAt(Phase::Allocating),
        4 => p.fault = FaultPlan::DelayAt(Phase::Bidding, 40),
        5 => p.fault = FaultPlan::GarbageAt(Phase::Bidding),
        6 => {
            p.behavior = Behavior::CorruptPayments {
                target: 0,
                factor: 1.5,
            }
        }
        7 => p.fault = FaultPlan::MuteAt(Phase::Payments),
        _ => {}
    }
}

/// One planned session: its size and the seeded draws.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub heavy: bool,
    pub blocks: usize,
    pub scenario: usize,
    pub deviant: usize,
    pub rates: Vec<f64>,
}

/// `n` sessions. The multiset of (heavy, m, blocks, scenario) is fixed by
/// `n`; the seed orders the lights and draws bids and deviants.
pub fn plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let heavy = |k: usize| k % HEAVY_PERIOD == HEAVY_PERIOD - 1;
    let lights = (0..n).filter(|&k| !heavy(k)).count();
    let mut shapes: Vec<(usize, usize)> = (0..lights)
        .map(|j| {
            (
                j % SCENARIOS,
                LIGHT_BLOCKS[(j / SCENARIOS) % LIGHT_BLOCKS.len()],
            )
        })
        .collect();
    rng.shuffle(&mut shapes);
    let mut shapes = shapes.into_iter();
    let mut used = BTreeSet::new();
    (0..n)
        .map(|k| {
            let (heavy, (scenario, blocks)) = if heavy(k) {
                (true, (0, HEAVY_BLOCKS))
            } else {
                (false, shapes.next().unwrap_or((0, LIGHT_BLOCKS[0])))
            };
            let m = if heavy { HEAVY_M } else { LIGHT_M };
            Planned {
                heavy,
                blocks,
                scenario,
                deviant: 1 + rng.below(m - 1),
                rates: fresh_rates(&mut rng, m, &mut used),
            }
        })
        .collect()
}

fn config(p: &Planned, rates: &[f64]) -> Result<SessionConfig, String> {
    let mut procs: Vec<ProcessorConfig> = rates
        .iter()
        .map(|&w| ProcessorConfig::new(w, Behavior::Compliant))
        .collect();
    if let Some(d) = procs.get_mut(p.deviant) {
        scenario(d, p.scenario);
    }
    SessionConfig::builder(SystemModel::NcpFe, Z)
        .processors(procs)
        .blocks(p.blocks)
        .key_bits(KEY_BITS)
        .seed(KEY_SEED)
        .build()
        .map_err(|e| e.to_string())
}

fn setup() -> Result<Deployment, String> {
    let dep = Deployment::generate(KEY_SEED, KEY_BITS, HEAVY_M)?;
    for blocks in LIGHT_BLOCKS.into_iter().chain([HEAVY_BLOCKS]) {
        DataSet::prepare(&dep.user, blocks, 32).map_err(|e| e.to_string())?;
    }
    Ok(dep)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut timer = Setup::default();
    let dep = timer.time(4, setup)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let svc = ServiceHandle::start(ServiceConfig::stealing(workers)).map_err(|e| e.to_string())?;
    let start_s = t.elapsed().as_secs_f64();
    // Registration: derive the keys and sign the warm loads into the
    // protocol's registry, off the bid grid the traffic draws from.
    let mut warmed = Vec::new();
    for (heavy, blocks) in LIGHT_BLOCKS
        .map(|b| (false, b))
        .into_iter()
        .chain([(true, HEAVY_BLOCKS)])
    {
        let m = if heavy { HEAVY_M } else { LIGHT_M };
        let warm = Planned {
            heavy,
            blocks,
            scenario: 0,
            deviant: 1,
            rates: (0..m).map(|i| off_grid(1.0 + (i % 7) as f64)).collect(),
        };
        let cfg = config(&warm, &warm.rates)?;
        let o = run_session_vm(&cfg).map_err(|e| format!("warm-up: {e}"))?;
        warmed.push((cfg, o));
    }

    let n = ((args.seconds as f64 * OFFERED_PER_S).round() as usize).max(1);
    let planned = plan(args.seed, n);
    let cfgs = planned
        .iter()
        .map(|p| config(p, &p.rates))
        .collect::<Result<Vec<_>, _>>()?;

    // One generator (this thread) submits on schedule; one collector
    // waits on tickets in order. Latency comes from the service's own
    // enqueue-to-completion time plus how late the submit was.
    let mut lateness_ms = vec![0.0; n];
    let mut done: Vec<Option<Completed>> = Vec::new();
    let mut rejected = vec![false; n];
    let (backlog, stats) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, u64)>();
        let svc = &svc;
        let collector = scope.spawn(move || {
            let mut done: Vec<Option<Completed>> = (0..n).map(|_| None).collect();
            for (k, ticket) in rx {
                if let Some(slot) = done.get_mut(k) {
                    *slot = svc.wait(ticket);
                }
            }
            done
        });
        let interval = Duration::from_secs_f64(1.0 / OFFERED_PER_S);
        let t0 = Instant::now() + Duration::from_millis(5);
        for (k, cfg) in cfgs.iter().enumerate() {
            let due = t0 + interval * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness_ms[k] = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            match svc.submit(cfg.clone()) {
                Ok(ticket) => {
                    let _ = tx.send((k, ticket));
                }
                Err(_) => rejected[k] = true,
            }
        }
        let backlog = svc.in_flight();
        drop(tx);
        let joined = collector.join();
        let stats = svc.stats();
        done = joined.unwrap_or_default();
        (backlog, stats)
    });
    svc.shutdown();

    // A round's wall time runs from its first due time to its last
    // completion, both relative to the schedule start.
    let window = (n / ROUNDS).max(1);
    let mut rounds: Vec<Round> = (0..n.div_ceil(window)).map(|_| Round::default()).collect();
    let mut heavy_ms = Vec::new();
    let mut per_worker = vec![0u64; workers];
    let mut attempts = Vec::with_capacity(n);
    for (k, cfg) in cfgs.iter().enumerate() {
        let round = rounds
            .get_mut(k / window)
            .ok_or("round index out of range")?;
        let problem = match (rejected[k], done.get(k).and_then(Option::as_ref)) {
            (true, _) => Some("rejected at admission".to_string()),
            (false, None) => Some("accepted ticket never resolved".to_string()),
            (false, Some(c)) => {
                let ms = lateness_ms[k] + c.latency_ns as f64 / 1e6;
                round.latency_ms.push(ms);
                let due_s = k as f64 / OFFERED_PER_S;
                let first_due_s = (k / window * window) as f64 / OFFERED_PER_S;
                round.wall_s = round.wall_s.max(due_s + ms / 1e3 - first_due_s);
                if planned[k].heavy {
                    heavy_ms.push(ms);
                }
                attempts.push(f64::from(c.attempts));
                if let Some(w) = per_worker.get_mut(c.worker) {
                    *w += 1;
                }
                match (&c.outcome, run_session_vm(cfg)) {
                    (Ok(got), Ok(oracle)) => {
                        check::chaos_session(cfg, got, &oracle).or_else(|| {
                            (ms > LATENCY_LIMIT_MS).then(|| format!("{ms:.1} ms over the limit"))
                        })
                    }
                    (Err(e), _) => Some(format!("service error: {e}")),
                    (_, Err(e)) => Some(format!("vm oracle failed: {e}")),
                }
            }
        };
        if problem.is_none() {
            round.correct += 1;
        }
        out.check(problem.map(|p| format!("session {k}: {p}")));
    }
    timer.time(3, setup)?;
    out.metric("setup_s", timer.median_s() + start_s);
    out.round_metrics(&mut rounds);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.note("sessions", n);
    out.note("offered_per_s", OFFERED_PER_S);
    out.note("latency_limit_ms", LATENCY_LIMIT_MS);
    out.note("key_bits", KEY_BITS);
    out.note("workers", workers);
    out.note("backlog_end", backlog);
    out.note(
        "heavy_latency_ms_p50",
        format!("{:.3}", percentile(&mut heavy_ms, 0.5)),
    );
    out.note(
        "heavy_latency_ms_max",
        format!("{:.3}", percentile(&mut heavy_ms, 1.0)),
    );
    let late_max = lateness_ms.iter().copied().fold(0.0, f64::max);
    out.note("generator_lateness_ms_max", format!("{late_max:.3}"));

    if args.trace {
        // Service time of each session, replayed on the vm with the same
        // shape but off-grid bids (the real bids are signature-cached by
        // now); what the latency holds beyond it is queueing.
        let t = Instant::now();
        let mut ledger = Ledger::default();
        for (cfg, o) in &warmed {
            ledger.warm(&dep, cfg, o, Executor::Vm)?;
        }
        let mut wait = Vec::with_capacity(n);
        let mut twin_ms = Vec::with_capacity(n);
        for (k, p) in planned.iter().enumerate() {
            let rates: Vec<f64> = p.rates.iter().map(|&w| off_grid(w)).collect();
            let twin = config(p, &rates)?;
            let t = Instant::now();
            let res = run_session_vm(&twin);
            let ms = ms_since(t);
            twin_ms.push(ms);
            if let Some(c) = done.get(k).and_then(Option::as_ref) {
                wait.push(lateness_ms[k] + c.latency_ns as f64 / 1e6 - ms);
            }
            if let (Ok(o), 0) = (res, p.scenario) {
                ledger.replay(&dep, &twin, &o, ms, false, Executor::Vm)?;
            }
        }
        ledger.emit(&mut out);
        out.metric("trace.overhead_ms", ms_since(t) / n as f64);
        out.metric("service.queue_wait_ms.p99", percentile(&mut wait, 0.99));

        // The threaded transport, on compliant light sessions: each runs
        // through `runtime::run_session` and through the vm, each time
        // with bids no other session signed; the difference in medians is
        // the transport's cost.
        let shifted = |p: &Planned, steps: usize| {
            let rates: Vec<f64> = p
                .rates
                .iter()
                .map(|&w| (0..steps).fold(w, |x, _| off_grid(x)))
                .collect();
            config(p, &rates)
        };
        let probe: Vec<&Planned> = planned
            .iter()
            .filter(|p| p.scenario == 0 && !p.heavy)
            .take(RUNTIME_PROBE)
            .collect();
        let (mut threaded_ms, mut vm_ms) = (Vec::new(), Vec::new());
        for (k, p) in probe.iter().enumerate() {
            let cfg = shifted(p, 2)?;
            let t = Instant::now();
            run_session(&cfg).map_err(|e| e.to_string())?;
            threaded_ms.push(ms_since(t));
            let cfg = shifted(p, 3)?;
            let t = Instant::now();
            run_session_vm(&cfg).map_err(|e| e.to_string())?;
            vm_ms.push(ms_since(t));
            if k + 1 == probe.len() {
                let cfg = shifted(p, 4)?;
                let threads =
                    extra_threads(|| run_session(&cfg).map(drop).map_err(|e| e.to_string()))?;
                out.metric("runtime.threads_per_session", threads);
            }
        }
        out.metric(
            "runtime.transport.ms",
            percentile(&mut threaded_ms, 0.5) - percentile(&mut vm_ms, 0.5),
        );
        out.metric("service.steals", stats.steals as f64);
        out.metric("service.queue_depth_hwm", stats.queue_depth_hwm as f64);
        let lo = per_worker.iter().copied().min().unwrap_or(0).max(1) as f64;
        let hi = per_worker.iter().copied().max().unwrap_or(0) as f64;
        out.metric("service.worker_imbalance", hi / lo);
        out.metric("service.attempts_per_ticket", mean(&attempts));
        out.metric("service.backlog_end", backlog as f64);
        out.metric("generator.lateness_ms.max", late_max);
        out.metric(
            "crypto.keygen.ms",
            timer.median_s() * 1e3 / (HEAVY_M + 1) as f64,
        );
        out.note(
            "vm_service_ms_p50",
            format!("{:.3}", percentile(&mut twin_ms, 0.5)),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fixes_the_size_multiset_across_seeds() {
        let shape = |p: &[Planned]| {
            let mut s: Vec<(bool, usize, usize, usize)> = p
                .iter()
                .map(|x| (x.heavy, x.rates.len(), x.blocks, x.scenario))
                .collect();
            s.sort_unstable();
            s
        };
        let (a, b) = (plan(1, 1000), plan(2, 1000));
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(a, b);
        assert_eq!(a.iter().filter(|p| p.heavy).count(), 1000 / HEAVY_PERIOD);
        assert!(a.iter().all(|p| (1..p.rates.len()).contains(&p.deviant)));
    }
}
