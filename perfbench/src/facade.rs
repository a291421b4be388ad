//! `facade-threaded`: closed loop, one client, through `dls::Session::run`
//! with the facade's defaults (384-bit keys, 60 blocks, one fixed seed),
//! m = 4 and fresh rates every session. The only workload on the threaded
//! transport (`protocol::runtime`), which spawns m + 1 threads a session.

use crate::check;
use crate::deploy::{fresh_rates, off_grid, Deployment, Rng};
use crate::ledger::{extra_threads, Executor, Ledger};
use crate::stats::{closed_loop, peak_rss_mb, split_rounds, Outcome, Setup};
use crate::Args;
use dls::crypto::rsa::MIN_MODULUS_BITS;
use dls::protocol::run_session_vm;
use dls::Session;
use std::collections::BTreeSet;

const M: usize = 4;
/// The facade's defaults: minimum key size and 60 blocks.
const KEY_BITS: usize = MIN_MODULUS_BITS;
const BLOCKS: usize = 60;
const KEY_SEED: u64 = 0x00fa_cade_5eed_0004;
const Z: f64 = 0.2;
const SESSIONS_PER_SECOND: f64 = 200.0;
const ROUNDS: usize = 10;

fn session(rates: &[f64]) -> Session {
    rates
        .iter()
        .fold(Session::ncp_fe(Z).seed(KEY_SEED), |s, &w| s.worker(w))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let keygen = || Deployment::generate(KEY_SEED, KEY_BITS, M);
    let dep = setup.time(11, keygen)?;
    // Registration and the facade's one load: the first session derives
    // the keys and signs the 60 blocks every later session reuses.
    let warm = session(&(0..M).map(|i| off_grid(1.0 + i as f64)).collect::<Vec<_>>());
    let warm_out = warm.run().map_err(|e| format!("warm-up: {e}"))?;

    let n = ((args.seconds as f64 * SESSIONS_PER_SECOND).round() as usize).max(1);
    let mut rng = Rng::new(args.seed);
    let mut used = BTreeSet::new();
    let sessions: Vec<Session> = (0..n)
        .map(|_| session(&fresh_rates(&mut rng, M, &mut used)))
        .collect();

    // Traced runs replay each session's layers right behind it.
    let mut ledger = Ledger::default();
    if args.trace {
        let warm_cfg = warm.config().map_err(|e| e.to_string())?;
        ledger.warm(&dep, &warm_cfg, &warm_out, Executor::Threaded)?;
    }
    let lp = closed_loop(&sessions, Session::run, |s, r, ms| match (args.trace, r) {
        (true, Ok(o)) => {
            let cfg = s.config().map_err(|e| e.to_string())?;
            ledger.replay(&dep, &cfg, o, ms, false, Executor::Threaded)
        }
        _ => Ok(()),
    })?;

    let mut ok = Vec::with_capacity(n);
    for (s, r) in sessions.iter().zip(&lp.results) {
        let cfg = s.config().map_err(|e| e.to_string())?;
        let problem = match r {
            Ok(o) => match run_session_vm(&cfg) {
                Ok(vm) => check::identical(&vm, o)
                    .map(|p| format!("differs from run_session_vm: {p}"))
                    .or_else(|| check::compliant_session(&cfg, o)),
                Err(e) => Some(format!("vm oracle failed: {e}")),
            },
            Err(e) => Some(e.to_string()),
        };
        ok.push(problem.is_none());
        out.check(problem);
    }
    setup.time(10, keygen)?;
    out.metric("setup_s", setup.median_s());
    out.round_metrics(&mut split_rounds(&ok, &lp.latency_ms, &lp.ends_s, ROUNDS));
    out.metric("peak_rss_mb", peak_rss_mb());
    out.note("sessions", n);
    out.note("key_bits", KEY_BITS);
    out.note("m", M);
    out.note("blocks", BLOCKS);

    if args.trace {
        ledger.emit(&mut out);
        out.metric("trace.overhead_ms", lp.after_ms / n as f64);
        out.note("ledger_within_15pct", ledger.covers(0.15));
        let probe: Vec<Session> = (0..20)
            .map(|_| session(&fresh_rates(&mut rng, M, &mut used)))
            .collect();
        let threads = extra_threads(|| {
            probe
                .iter()
                .try_for_each(|s| s.run().map(drop).map_err(|e| e.to_string()))
        })?;
        out.metric("runtime.threads_per_session", threads);
        out.metric("crypto.keygen.ms", setup.median_s() * 1e3 / (M + 1) as f64);
    }
    Ok(out)
}
