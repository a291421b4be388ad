//! `market-stream`: one seeded stream of steps over an m = 1024 market, no
//! crypto. A step is a bid update (`AuctionEngine::submit_bid`, a chain
//! splice) and a quote (`evaluate`); every `SETTLE_EVERY`-th step also
//! settles (`payments` against the observed rates) and applies the same
//! update plus one per-load quote to a k = 8 `MultiLoadEngine`.

use crate::deploy::{grid_rate, Rng};
use crate::stats::{peak_rss_mb, percentile, Outcome, Round, Setup};
use crate::Args;
use dls::dlt::{optimal, BusParams, LoadSpec, SystemModel};
use dls::mechanism::{compute_payments, AuctionEngine, MultiLoadEngine};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const M: usize = 1024;
const K: usize = 8;
const MODEL: SystemModel = SystemModel::NcpFe;
const Z: f64 = 0.2;
/// The opening book is deployment state, not workload input.
const BOOK_SEED: u64 = 0x0b00_c5ee_d102_4000;
const STEPS_PER_SECOND: f64 = 90_000.0;
const SETTLE_EVERY: usize = 8;
const CHECKPOINTS: usize = 32;
const ROUNDS: usize = 10;

struct Market {
    engine: AuctionEngine,
    multi: MultiLoadEngine,
    observed: Vec<f64>,
}

fn loads() -> Vec<LoadSpec> {
    (0..K)
        .map(|l| LoadSpec::new(1.0 + l as f64, Z * (1.0 + 0.25 * l as f64)))
        .collect()
}

fn open_market() -> Result<Market, String> {
    let mut rng = Rng::new(BOOK_SEED);
    let bids: Vec<f64> = (0..M).map(|_| grid_rate(&mut rng)).collect();
    Ok(Market {
        engine: AuctionEngine::new(MODEL, Z, bids.clone()).map_err(|e| e.to_string())?,
        multi: MultiLoadEngine::new(MODEL, &bids, &loads()).map_err(|e| format!("{e:?}"))?,
        observed: bids,
    })
}

/// Per-operation times (ns) of a traced pass.
#[derive(Default)]
struct OpTimes {
    splice: f64,
    quote: f64,
    settle: f64,
    multiload: f64,
}

/// Adds the time since the lap started to `slot` and restarts the lap;
/// a no-op on untraced steps, which carry no lap.
fn split(lap: &mut Option<Instant>, slot: Option<&mut f64>) {
    if let (Some(start), Some(slot)) = (lap.as_mut(), slot) {
        let now = Instant::now();
        *slot += (now - *start).as_nanos() as f64;
        *start = now;
    }
}

impl Market {
    /// Step `s`: update bidder `i` to `w`, quote, and every
    /// `SETTLE_EVERY`-th step settle and update the multi-load engine.
    /// With `ops`, each part is timed on its own (the traced pass).
    fn step(
        &mut self,
        s: usize,
        i: usize,
        w: f64,
        mut ops: Option<&mut OpTimes>,
    ) -> Result<(), String> {
        let mut lap = ops.is_some().then(Instant::now);
        self.engine.submit_bid(i, w).map_err(|e| e.to_string())?;
        split(&mut lap, ops.as_deref_mut().map(|o| &mut o.splice));
        black_box(self.engine.evaluate().makespan);
        split(&mut lap, ops.as_deref_mut().map(|o| &mut o.quote));
        if let Some(x) = self.observed.get_mut(i) {
            *x = w;
        }
        if s % SETTLE_EVERY == SETTLE_EVERY - 1 {
            black_box(
                self.engine
                    .payments(&self.observed)
                    .map_err(|e| e.to_string())?,
            );
            split(&mut lap, ops.as_deref_mut().map(|o| &mut o.settle));
            let load = (s / SETTLE_EVERY) % K;
            self.multi.submit_bid(i, w).map_err(|e| format!("{e:?}"))?;
            black_box(
                self.multi
                    .load_makespan(load)
                    .map_err(|e| format!("{e:?}"))?,
            );
            black_box(self.multi.fractions(load).map_err(|e| format!("{e:?}"))?);
            split(&mut lap, ops.map(|o| &mut o.multiload));
        }
        Ok(())
    }

    /// From-scratch oracle: fractions and payments bit-equal to a fresh
    /// `optimal::fractions` and `compute_payments` on the current book,
    /// and every load's fractions to a fresh solve at its intensity.
    fn check(&mut self) -> Option<String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let params = BusParams::new(Z, self.engine.bids().to_vec()).ok()?;
        let alpha = optimal::fractions(MODEL, &params);
        if bits(self.engine.fractions()) != bits(&alpha) {
            return Some("spliced fractions differ from a fresh solve".into());
        }
        let want = compute_payments(MODEL, &params, &alpha, &self.observed);
        let got = self.engine.payments(&self.observed).ok()?;
        let pay = |p: &[dls::mechanism::Payment]| {
            p.iter()
                .map(|q| (q.compensation.to_bits(), q.bonus.to_bits()))
                .collect::<Vec<_>>()
        };
        if pay(got) != pay(&want) {
            return Some("engine payments differ from compute_payments".into());
        }
        let bids = self.multi.bids().to_vec();
        for (l, spec) in loads().iter().enumerate() {
            let fresh = optimal::fractions(MODEL, &BusParams::new(spec.z, bids.clone()).ok()?);
            match self.multi.fractions(l) {
                Ok(f) if bits(f) == bits(&fresh) => {}
                _ => return Some(format!("load {l} fractions differ from a fresh solve")),
            }
        }
        None
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let mut market = setup.time(11, open_market)?;
    let n = ((args.seconds as f64 * STEPS_PER_SECOND).round() as usize).max(CHECKPOINTS);
    // The stream is regenerated from the seed for each pass.
    let stream = || {
        let mut rng = Rng::new(args.seed);
        (0..n).map(move |_| (rng.below(M), grid_rate(&mut rng)))
    };
    let mut rng = Rng::new(!args.seed);
    let checkpoints: BTreeSet<usize> = (0..CHECKPOINTS).map(|_| rng.below(n)).collect();

    let size = (n / ROUNDS).max(1);
    let mut rounds: Vec<Round> = Vec::with_capacity(ROUNDS + 1);
    let mut round = Round::default();
    let mut round_start = Instant::now();
    let mut checking = 0.0;
    for (s, (i, w)) in stream().enumerate() {
        let t = Instant::now();
        let res = market.step(s, i, w, None);
        round.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        round.correct += usize::from(res.is_ok());
        out.check(res.err());
        if checkpoints.contains(&s) {
            let t = Instant::now();
            out.check(market.check());
            checking += t.elapsed().as_secs_f64();
        }
        if s % size == size - 1 || s + 1 == n {
            round.wall_s = round_start.elapsed().as_secs_f64() - checking;
            rounds.push(std::mem::take(&mut round));
            // Set-up repetitions between rounds sample the host across
            // the whole run; a sub-millisecond build timed in one burst
            // lands in whatever state the host is in at that moment.
            setup.time(10, open_market)?;
            round_start = Instant::now();
            checking = 0.0;
        }
    }
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    out.metric("setup_s", setup.median_s());
    out.round_metrics(&mut rounds);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.note("steps", n);
    out.note("m", M);
    out.note("k", K);

    if args.trace {
        // The same stream again on a fresh book, each part timed apart.
        let mut market = open_market()?;
        let mut ops = OpTimes::default();
        let t = Instant::now();
        for (s, (i, w)) in stream().enumerate() {
            market.step(s, i, w, Some(&mut ops))?;
        }
        let traced_ns = t.elapsed().as_nanos() as f64;
        let settles = (n / SETTLE_EVERY).max(1) as f64;
        out.metric("dlt.splice.us", ops.splice / n as f64 / 1e3);
        out.metric("mechanism.quote.us", ops.quote / n as f64 / 1e3);
        out.metric("mechanism.settle.us", ops.settle / settles / 1e3);
        out.metric(
            "mechanism.multiload_update.us",
            ops.multiload / settles / 1e3,
        );
        let layers = ops.splice + ops.quote + ops.settle + ops.multiload;
        out.metric("ledger.coverage", layers / traced_ns);
        out.metric(
            "executor.residual.ms",
            (traced_ns - layers) / n as f64 / 1e6,
        );
        out.metric(
            "trace.overhead_ms",
            (traced_ns / 1e9 - wall_s) / n as f64 * 1e3,
        );
        let params = BusParams::new(Z, market.engine.bids().to_vec()).map_err(|e| e.to_string())?;
        let mut solve = Vec::new();
        let mut pay = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            let alpha = optimal::fractions(MODEL, black_box(&params));
            solve.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(compute_payments(MODEL, &params, &alpha, &market.observed));
            pay.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.metric("dlt.solve.us", percentile(&mut solve, 0.5));
        out.metric("mechanism.payments.us", percentile(&mut pay, 0.5));
    }
    Ok(out)
}
