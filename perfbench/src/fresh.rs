//! `fresh-sessions`: closed loop, one client, vm executor, NCP-FE, m = 8
//! compliant processors with 1024-bit keys registered once in set-up.
//! Every session brings fresh bids and a fresh load, so no process-wide
//! memo (signatures, data sets) can answer for it.

use crate::check;
use crate::deploy::{fresh_plan, off_grid, Deployment};
use crate::ledger::{Executor, Ledger};
use crate::stats::{closed_loop, peak_rss_mb, split_rounds, Outcome, Setup};
use crate::Args;
use dls::dlt::SystemModel;
use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::run_session_vm;

const M: usize = 8;
const KEY_BITS: usize = 1024;
/// Deployment configuration, not workload input: the same keys every run.
const KEY_SEED: u64 = 0x00f5_e55e_d0de_9107;
const Z: f64 = 0.2;
/// Sessions per second of `--seconds`: the run's fixed session count.
const SESSIONS_PER_SECOND: f64 = 5.0;
/// Block counts are `BLOCK_BASE..BLOCK_BASE + n`; the warm-up session
/// uses a count below the range.
const BLOCK_BASE: usize = 8;
/// Rounds the run is split into; the session count is a multiple of it.
const ROUNDS: usize = 5;

fn session(rates: &[f64], blocks: usize) -> Result<SessionConfig, String> {
    SessionConfig::builder(SystemModel::NcpFe, Z)
        .processors(
            rates
                .iter()
                .map(|&w| ProcessorConfig::new(w, Behavior::Compliant)),
        )
        .blocks(blocks)
        .key_bits(KEY_BITS)
        .seed(KEY_SEED)
        .build()
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let keygen = || Deployment::generate(KEY_SEED, KEY_BITS, M);
    let dep = setup.time(3, keygen)?;
    // Registration: the first session derives the same keys into the
    // protocol's key registry. Off-grid rates and a block count below the
    // measured range keep it from warming anything the traffic uses.
    let warm: Vec<f64> = (0..M).map(|i| off_grid(1.0 + i as f64)).collect();
    run_session_vm(&session(&warm, BLOCK_BASE - 1)?).map_err(|e| format!("warm-up: {e}"))?;

    let per_round =
        ((args.seconds as f64 * SESSIONS_PER_SECOND / ROUNDS as f64).round() as usize).max(1);
    let n = per_round * ROUNDS;
    let cfgs = fresh_plan(args.seed, n, M, BLOCK_BASE, ROUNDS)
        .iter()
        .map(|(rates, blocks)| session(rates, *blocks))
        .collect::<Result<Vec<_>, _>>()?;

    // Traced runs replay each session's layers right behind it.
    let mut ledger = Ledger::default();
    let lp = closed_loop(&cfgs, run_session_vm, |cfg, r, ms| match (args.trace, r) {
        (true, Ok(o)) => ledger.replay(&dep, cfg, o, ms, true, Executor::Vm),
        _ => Ok(()),
    })?;

    let mut ok = Vec::with_capacity(n);
    for (cfg, r) in cfgs.iter().zip(&lp.results) {
        let problem = match r {
            Ok(o) => check::compliant_session(cfg, o),
            Err(e) => Some(e.to_string()),
        };
        ok.push(problem.is_none());
        out.check(problem);
    }
    setup.time(2, keygen)?;
    out.metric("setup_s", setup.median_s());
    out.round_metrics(&mut split_rounds(&ok, &lp.latency_ms, &lp.ends_s, ROUNDS));
    out.metric("peak_rss_mb", peak_rss_mb());
    out.note("sessions", n);
    out.note("key_bits", KEY_BITS);
    out.note("m", M);
    out.note(
        "block_counts",
        format!("{}..{}", BLOCK_BASE, BLOCK_BASE + n),
    );

    if args.trace {
        ledger.emit(&mut out);
        out.metric("trace.overhead_ms", lp.after_ms / n as f64);
        out.note("ledger_within_15pct", ledger.covers(0.15));
        out.metric("crypto.keygen.ms", setup.median_s() * 1e3 / (M + 1) as f64);
    }
    Ok(out)
}
