//! Correctness oracles, run outside the timed window. Each one is
//! independent of the code path it checks: exact-rational payments for the
//! vm executor, the vm executor for the service and the threaded runtime,
//! from-scratch solves for the incremental engines.

use dls::dlt::exact::{self, ExactParams};
use dls::mechanism::exact::{compute_payments_exact, ExactPayment};
use dls::num::Rational;
use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::fault::FaultPlan;
use dls::protocol::referee::payments_agree;
use dls::protocol::{SessionOutcome, SessionStatus};
use std::collections::BTreeSet;

/// `None` when `b` is bit-identical to `a` in every reported field.
pub fn identical(a: &SessionOutcome, b: &SessionOutcome) -> Option<String> {
    if a.status != b.status {
        return Some(format!("status {:?} != {:?}", a.status, b.status));
    }
    if a.fine.to_bits() != b.fine.to_bits() || a.messages != b.messages {
        return Some("fine or message stats differ".into());
    }
    if a.processors.len() != b.processors.len() {
        return Some("processor count differs".into());
    }
    for (i, (p, q)) in a.processors.iter().zip(&b.processors).enumerate() {
        let same = p.participated == q.participated
            && p.bid.map(f64::to_bits) == q.bid.map(f64::to_bits)
            && p.alloc_fraction.to_bits() == q.alloc_fraction.to_bits()
            && p.blocks_granted == q.blocks_granted
            && p.meter.to_bits() == q.meter.to_bits()
            && p.payment
                .map(|e| (e.compensation.to_bits(), e.bonus.to_bits()))
                == q.payment
                    .map(|e| (e.compensation.to_bits(), e.bonus.to_bits()))
            && p.fined.to_bits() == q.fined.to_bits()
            && p.rewarded.to_bits() == q.rewarded.to_bits()
            && p.cost.to_bits() == q.cost.to_bits()
            && p.utility.to_bits() == q.utility.to_bits();
        if !same {
            return Some(format!("P{} differs", i + 1));
        }
    }
    None
}

/// Ledger conservation: every fine, reward and payment balances.
pub fn conserved(out: &SessionOutcome) -> Option<String> {
    let err = out.ledger.conservation_error();
    let scale = 1.0
        + out
            .ledger
            .journal()
            .iter()
            .map(|t| t.amount.abs())
            .sum::<f64>();
    (err.abs() > 1e-9 * scale).then(|| format!("ledger conservation error {err:e}"))
}

/// A compliant session: completes without fines, conserves the ledger,
/// grants every block, and pays each processor what the exact-rational
/// mechanism pays on the true rates (within the referee's tolerance).
pub fn compliant_session(cfg: &SessionConfig, out: &SessionOutcome) -> Option<String> {
    if out.status != SessionStatus::Completed {
        return Some(format!("status {:?}", out.status));
    }
    if let Some(p) = conserved(out) {
        return Some(p);
    }
    let granted: usize = out.processors.iter().map(|p| p.blocks_granted).sum();
    if granted != cfg.blocks {
        return Some(format!("{granted} of {} blocks granted", cfg.blocks));
    }
    let exact = match exact_payments(cfg, out) {
        Ok(e) => e,
        Err(e) => return Some(format!("exact oracle failed: {e}")),
    };
    for (i, (p, want)) in out.processors.iter().zip(&exact).enumerate() {
        let want = want.total().to_f64();
        match p.payment {
            Some(q) if payments_agree(q.total(), want) => {}
            got => return Some(format!("P{} paid {got:?}, exact oracle {want}", i + 1)),
        }
    }
    None
}

/// Exact-rational DLS-BL payments for a compliant session. The meter
/// reading follows from the execution facts alone — processor `i` ran
/// `blocks_i / blocks` of the load at its true rate — so the observed rate
/// the mechanism settles on is that reading over the exact allocation.
fn exact_payments(cfg: &SessionConfig, out: &SessionOutcome) -> Result<Vec<ExactPayment>, String> {
    let rational = |x: f64| Rational::from_f64(x).map_err(|e| format!("{e}"));
    let z = rational(cfg.z)?;
    let bids = cfg
        .processors
        .iter()
        .map(|p| rational(p.true_w))
        .collect::<Result<Vec<_>, _>>()?;
    let alpha = exact::fractions(cfg.model, &ExactParams::new(z.clone(), bids.clone()));
    let total = Rational::from_int(cfg.blocks as i64);
    let observed: Vec<Rational> = out
        .processors
        .iter()
        .zip(&bids)
        .zip(&alpha)
        .map(|((p, w), a)| {
            if p.blocks_granted == 0 {
                w.clone()
            } else {
                &(&(&Rational::from_int(p.blocks_granted as i64) / &total) * w) / a
            }
        })
        .collect();
    compute_payments_exact(cfg.model, &z, &bids, &observed).map_err(|e| format!("{e:?}"))
}

/// Processors that must be fined (Lemma 5.2: fines fall on deviants
/// only). Misreporting and slacking are legal strategies and a delay
/// under the phase budget is a tolerated straggler; corrupted payment
/// vectors and crash, mute or garbage faults are finable.
pub fn deviants(cfg: &SessionConfig) -> BTreeSet<usize> {
    cfg.processors
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            p.behavior.is_finable_offence()
                || matches!(
                    p.fault,
                    FaultPlan::CrashAt(_) | FaultPlan::MuteAt(_) | FaultPlan::GarbageAt(_)
                )
        })
        .map(|(i, _)| i)
        .collect()
}

/// A service outcome: bit-identical to the vm oracle, fines exactly on
/// the deviants, ledger conserved.
pub fn chaos_session(
    cfg: &SessionConfig,
    got: &SessionOutcome,
    oracle: &SessionOutcome,
) -> Option<String> {
    if let Some(p) = identical(oracle, got) {
        return Some(format!("differs from run_session_vm: {p}"));
    }
    let fined: BTreeSet<usize> = got.fined_processors().into_iter().collect();
    let want = deviants(cfg);
    if fined != want {
        return Some(format!("fined {fined:?}, deviants {want:?}"));
    }
    let honest =
        |p: &ProcessorConfig| p.behavior == Behavior::Compliant && p.fault == FaultPlan::None;
    if cfg.processors.iter().all(honest) {
        return compliant_session(cfg, got);
    }
    conserved(got)
}
