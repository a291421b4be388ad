//! The layer ledger: after a session ran, replay each layer's public
//! functions on the inputs that session used and time them from outside.
//! The replayed layers should add back up to the session's wall time; the
//! remainder belongs to the executor (vm) or the transport (threaded).

use crate::deploy::Deployment;
use crate::stats::{median, Outcome};
use dls::crypto::pki::Signed;
use dls::crypto::{canon, sha256, VerifyCache};
use dls::dlt::{optimal, BusParams};
use dls::num::{BigUint, MontgomeryCtx};
use dls::protocol::blocks::{integer_allocation, DataSet};
use dls::protocol::messages::{BidBody, GrantBody, PaymentEntry, PaymentVectorBody};
use dls::protocol::referee::Referee;
use dls::protocol::{SessionConfig, SessionOutcome};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Instant;

/// Which executor ran the session: the replay mirrors its crypto work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `run_session_vm`: one payment computation, grants verified once.
    Vm,
    /// `runtime::run_session`: every processor solves and pays, and every
    /// granted block is verified on receipt.
    Threaded,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Accumulated replay times (ms) and operation counts over many sessions.
#[derive(Debug, Default)]
pub struct Ledger {
    pub sessions: u64,
    /// Sum of the measured (untraced) session wall times.
    pub session_ms: f64,
    sign_ms: Vec<f64>,
    block_signs: u64,
    dataset_ms: f64,
    verifies: u64,
    verify_ms: f64,
    encode_hash_ms: f64,
    encode_hash_bytes: u64,
    encodes: u64,
    solves: u64,
    solve_ms: f64,
    payments: u64,
    payments_ms: f64,
    adjudicate_ms: f64,
    messages: u64,
    bytes: u64,
    warm_loads: BTreeMap<usize, DataSet>,
    signatures: BTreeMap<(String, [u8; 32]), Vec<u8>>,
    sign_hits: u64,
    transport_ms: f64,
}

impl Ledger {
    /// Replays one session that took `session_ms`. `fresh_load` says the
    /// session had to sign its blocks (a data-set cache miss).
    pub fn replay(
        &mut self,
        dep: &Deployment,
        cfg: &SessionConfig,
        out: &SessionOutcome,
        session_ms: f64,
        fresh_load: bool,
        executor: Executor,
    ) -> Result<(), String> {
        let m = cfg.m();
        let bids = cfg.bids();
        let params = BusParams::new(cfg.z, bids.clone()).map_err(|e| e.to_string())?;
        let solvers = match executor {
            Executor::Vm => 1,
            Executor::Threaded => m + 1,
        };
        let mut alpha = Vec::new();
        for _ in 0..solvers {
            let (a, ms) = timed(|| optimal::fractions(cfg.model, &params));
            alpha = a;
            self.solve_ms += ms;
        }
        self.solves += solvers as u64;

        let dataset = if fresh_load {
            let (dataset, ms) = timed(|| DataSet::prepare(&dep.user, cfg.blocks, 32));
            self.dataset_ms += ms;
            self.block_signs += cfg.blocks as u64;
            dataset.map_err(|e| e.to_string())?
        } else {
            // A warm load: the session reused a prepared data set, and so
            // does the replay.
            match self.warm_loads.get(&cfg.blocks) {
                Some(d) => d.clone(),
                None => {
                    let d =
                        DataSet::prepare(&dep.user, cfg.blocks, 32).map_err(|e| e.to_string())?;
                    self.warm_loads.insert(cfg.blocks, d.clone());
                    d
                }
            }
        };

        // The referee's view of execution: metered time over allocation.
        let observed: Vec<f64> = out
            .processors
            .iter()
            .zip(&alpha)
            .zip(&bids)
            .map(|((p, a), b)| {
                if *a > 0.0 && p.meter > 0.0 {
                    p.meter / a
                } else {
                    *b
                }
            })
            .collect();
        let q: Vec<PaymentEntry> = out
            .processors
            .iter()
            .map(|p| p.payment.ok_or("a processor has no payment"))
            .collect::<Result<_, _>>()?;
        let payers = match executor {
            Executor::Vm => 1,
            Executor::Threaded => m,
        };
        for _ in 0..payers {
            let (pay, ms) =
                timed(|| dls::mechanism::compute_payments(cfg.model, &params, &alpha, &observed));
            black_box(pay);
            self.payments_ms += ms;
        }
        self.payments += payers as u64;

        // Receipts per envelope, as each executor verifies them: the vm
        // collects every bid once and runs no per-block check on genuine
        // blocks; the threaded runtime verifies at every receiver and
        // every granted block. The referee checks each payment vector in
        // its batch sweep, on delivery and in the equality check.
        let cache = VerifyCache::new();
        let bid_lookups = match executor {
            Executor::Vm => 1,
            Executor::Threaded => m - 1,
        };
        let key = |i: usize| dep.keys.get(i).ok_or("deployment has too few keys");
        for (i, &bid) in bids.iter().enumerate() {
            self.sign_verify(
                key(i)?,
                dep,
                &cache,
                bid_lookups,
                BidBody { processor: i, bid },
            )?;
        }
        let originator = cfg.originator().ok_or("model has no originator")?;
        let counts = integer_allocation(&alpha, cfg.blocks);
        for (to, blocks) in dataset.split(&counts).into_iter().enumerate() {
            if to == originator {
                continue;
            }
            let grant =
                self.sign_verify(key(originator)?, dep, &cache, 1, GrantBody { to, blocks })?;
            if executor == Executor::Threaded {
                for block in &grant.body_unverified().blocks {
                    self.verify(block, dep, &cache, 1)?;
                }
            }
        }
        let mut vectors = Vec::with_capacity(m);
        for i in 0..m {
            let body = PaymentVectorBody {
                processor: i,
                q: q.clone(),
            };
            vectors.push(self.sign_verify(key(i)?, dep, &cache, 3, body)?);
        }

        // Adjudication is the dispute path; compliant sessions skip it, so
        // it is reported beside the ledger rather than summed into it.
        let referee = Referee::new(
            dep.registry.clone(),
            cfg.model,
            cfg.z,
            m,
            cfg.fine,
            cfg.blocks,
        );
        let (verdict, ms) = timed(|| referee.adjudicate_payments(&vectors, &bids, &observed));
        let (verdict, _) = verdict.map_err(|e| e.to_string())?;
        if !verdict.fined.is_empty() {
            return Err("referee fines a replayed compliant session".into());
        }
        self.adjudicate_ms += ms;

        if executor == Executor::Threaded {
            let (res, ms) =
                timed(|| transport(m, out.messages.total_messages(), out.messages.total_bytes()));
            res?;
            self.transport_ms += ms;
        }
        self.messages += out.messages.total_messages();
        self.bytes += out.messages.total_bytes();
        self.sessions += 1;
        self.session_ms += session_ms;
        Ok(())
    }

    /// Replays the protocol's signing of `body` — the canonical encoding and
    /// digest its signature cache keys on, then the signature — and the
    /// envelope's `lookups` verifications.
    fn sign_verify<T: Serialize>(
        &mut self,
        key: &dls::crypto::KeyPair,
        dep: &Deployment,
        cache: &VerifyCache,
        lookups: usize,
        body: T,
    ) -> Result<Signed<T>, String> {
        let (bytes, ms) = timed(|| canon::to_bytes(&body).map(|b| (sha256::digest(&b), b.len())));
        let (digest, len) = bytes.map_err(|e| e.to_string())?;
        self.encode_hash_ms += ms;
        self.encode_hash_bytes += len as u64;
        self.encodes += 1;
        // The protocol memoizes signatures by (signer, digest); a body
        // signed before in this process costs it no modexp, and none here.
        let memo = (key.identity().to_string(), digest);
        let signed = match self.signatures.get(&memo) {
            Some(sig) => {
                self.sign_hits += 1;
                Signed::forge(body, key.identity(), sig.clone())
            }
            None => {
                let (signed, ms) = timed(|| key.sign(body));
                let signed = signed.map_err(|e| e.to_string())?;
                self.sign_ms.push(ms);
                self.signatures.insert(memo, signed.signature().0.clone());
                signed
            }
        };
        self.verify(&signed, dep, cache, lookups)?;
        Ok(signed)
    }

    /// `lookups` receipts of one envelope through the session's shared
    /// verification cache: the first pays the modexp, the rest re-encode
    /// and hash the envelope to find the memoized verdict.
    fn verify<T: Serialize>(
        &mut self,
        signed: &Signed<T>,
        dep: &Deployment,
        cache: &VerifyCache,
        lookups: usize,
    ) -> Result<(), String> {
        for _ in 0..lookups {
            let (ok, ms) = timed(|| signed.verify_cached(&dep.registry, cache).is_ok());
            if !ok {
                return Err("replayed signature fails to verify".into());
            }
            self.verify_ms += ms;
            self.verifies += 1;
        }
        Ok(())
    }

    /// Replays a warm-up session only for what it leaves behind (signed
    /// bodies, prepared loads), without accounting it.
    pub fn warm(
        &mut self,
        dep: &Deployment,
        cfg: &SessionConfig,
        out: &SessionOutcome,
        executor: Executor,
    ) -> Result<(), String> {
        let mut scratch = Ledger {
            signatures: std::mem::take(&mut self.signatures),
            warm_loads: std::mem::take(&mut self.warm_loads),
            ..Ledger::default()
        };
        let res = scratch.replay(dep, cfg, out, 0.0, false, executor);
        self.signatures = scratch.signatures;
        self.warm_loads = scratch.warm_loads;
        res
    }

    /// Sum of the replayed layers that sessions execute, in ms.
    pub fn layer_ms(&self) -> f64 {
        self.sign_ms.iter().sum::<f64>()
            + self.dataset_ms
            + self.verify_ms
            + self.encode_hash_ms
            + self.solve_ms
            + self.payments_ms
            + self.transport_ms
    }

    /// Emits the per-layer metrics of a session workload.
    pub fn emit(&self, out: &mut Outcome) {
        let n = self.sessions.max(1) as f64;
        let per = |x: f64| x / n;
        let mut signs = self.sign_ms.clone();
        let sign_total: f64 = signs.iter().sum();
        out.metric("crypto.sign.count", per(signs.len() as f64));
        out.metric("crypto.sign.us", median(&mut signs) * 1e3);
        out.metric("crypto.sign.share", sign_total / self.session_ms.max(1e-9));
        out.metric("crypto.block_sign.count", per(self.block_signs as f64));
        out.metric("crypto.dataset.ms", per(self.dataset_ms));
        out.metric("crypto.verify.count", per(self.verifies as f64));
        out.metric(
            "crypto.verify.us",
            self.verify_ms * 1e3 / self.verifies.max(1) as f64,
        );
        out.metric(
            "crypto.encode_hash.us",
            self.encode_hash_ms * 1e3 / self.encodes.max(1) as f64,
        );
        out.metric(
            "crypto.encode_hash.bytes",
            per(self.encode_hash_bytes as f64),
        );
        out.metric(
            "dlt.solve.us",
            self.solve_ms * 1e3 / self.solves.max(1) as f64,
        );
        out.metric(
            "mechanism.payments.us",
            self.payments_ms * 1e3 / self.payments.max(1) as f64,
        );
        out.metric("referee.adjudicate.us", per(self.adjudicate_ms) * 1e3);
        out.metric("executor.messages.count", per(self.messages as f64));
        out.metric("executor.bytes", per(self.bytes as f64));
        out.metric("crypto.sign.memo_hits", per(self.sign_hits as f64));
        if self.transport_ms > 0.0 {
            out.metric("runtime.transport.ms", per(self.transport_ms));
        }
        let layers = per(self.layer_ms());
        let session = per(self.session_ms);
        out.metric("executor.residual.ms", session - layers);
        out.metric("ledger.coverage", layers / session.max(1e-9));
    }

    /// `true` when the replayed layers cover the session time within
    /// ±`tolerance` (ROADMAP item 1 asks for ±15 %). Reported beside the
    /// metrics rather than counted as a failed output: it checks the
    /// measurement, and host noise moves it.
    pub fn covers(&self, tolerance: f64) -> bool {
        (self.layer_ms() / self.session_ms.max(1e-9) - 1.0).abs() <= tolerance
    }
}

/// Barrier generations of one threaded round (B1–B12 in `runtime.rs`).
const TRANSPORT_ROUNDS: u64 = 12;

/// Replays the threaded runtime's transport mechanics for one session:
/// m + 1 fresh threads (processors and referee) that pass the session's
/// messages, as byte buffers of its mean wire size, over channels and
/// meet at every phase barrier.
fn transport(m: usize, messages: u64, bytes: u64) -> Result<(), String> {
    let parties = m + 1;
    let size = (bytes / messages.max(1)) as usize;
    let barrier = Barrier::new(parties);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..parties).map(|_| mpsc::channel::<Vec<u8>>()).unzip();
    std::thread::scope(|scope| {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let (txs, barrier) = (txs.clone(), &barrier);
                scope.spawn(move || {
                    for round in 0..TRANSPORT_ROUNDS {
                        // Message j goes out from party j mod parties, in
                        // round (j / parties) mod TRANSPORT_ROUNDS.
                        let mut j = round * parties as u64 + id as u64;
                        while j < messages {
                            let to = (id + 1 + (j as usize % m.max(1))) % parties;
                            if let Some(tx) = txs.get(to) {
                                let _ = tx.send(vec![0u8; size]);
                            }
                            j += TRANSPORT_ROUNDS * parties as u64;
                        }
                        barrier.wait();
                        rx.try_iter().for_each(|b| drop(black_box(b)));
                    }
                })
            })
            .collect();
        drop(txs);
        for h in handles {
            h.join().map_err(|_| "transport replay thread panicked")?;
        }
        Ok(())
    })
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak number of threads beyond this one and the sampler while `run`
/// runs, sampled from outside via `/proc/self/status`.
pub fn extra_threads(run: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::yield_now();
            }
            peak
        });
        let base = thread_count();
        let res = run();
        stop.store(true, Ordering::Relaxed);
        let peak = sampler.join().map_err(|_| "thread sampler panicked")?;
        res.map(|()| peak.saturating_sub(base) as f64)
    })
}

/// Median time (µs) of one full-width Montgomery exponentiation at `bits`
/// with a deterministic odd modulus, base and exponent.
pub fn modexp_us(bits: usize, reps: usize) -> f64 {
    let mut rng = crate::deploy::Rng::new(bits as u64);
    let mut random = || {
        let bytes: Vec<u8> = (0..bits / 8).map(|_| rng.next_u64() as u8).collect();
        let mut x = BigUint::from_bytes_be(&bytes);
        x.set_bit(bits - 1, true);
        x
    };
    let mut n = random();
    n.set_bit(0, true);
    let base = random().divrem(&n).1;
    let exp = random();
    let Ok(ctx) = MontgomeryCtx::new(&n) else {
        return 0.0;
    };
    let mut times: Vec<f64> = (0..reps)
        .map(|_| timed(|| black_box(ctx.pow(black_box(&base), black_box(&exp)))).1 * 1e3)
        .collect();
    median(&mut times)
}
