//! Differential suite for the two session drivers: the threaded runtime
//! ([`dls_protocol::run_session`]) and the pooled executor
//! ([`dls_protocol::run_session_pooled_with`] /
//! [`dls_protocol::run_session_vm`]) step the same round machines, and
//! must agree on every [`SessionOutcome`] **bit for bit** — allocations,
//! payments, fines, rewards, utilities, message accounting, ledger
//! journal, timeline, and fault-plan degradation reports. What this pins
//! is the drivers: delivery, barriers, deadlines and delays. The protocol's
//! own correctness is checked against independent oracles elsewhere
//! (`end_to_end.rs` against the trusted mechanism, `adversarial.rs`).
//!
//! Float equality here is `to_bits` (or whole-structure `Debug` equality,
//! which formats floats as their shortest round-trip representation and is
//! therefore also bit-exact); nothing is compared with a tolerance.
//!
//! The matrix: both NCP models × {truthful, each strategic behavior, each
//! liveness-fault plan}, plus the uneven-shard regression (5 sessions on
//! 4 workers — the shape of the PR-3 batch-sizing bug).

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::fault::FaultPlan;
use dls_protocol::referee::Phase;
use dls_protocol::{run_session, run_session_pooled_with, run_session_vm, SessionOutcome};

const Z: f64 = 0.25;
const W: [f64; 4] = [1.0, 1.6, 2.2, 3.1];
const SEED: u64 = 23;
/// Small budget so threaded crash detection costs milliseconds, not the
/// default 5 s, keeping the fault matrix fast.
const BUDGET_MS: u64 = 400;

const MODELS: [SystemModel; 2] = [SystemModel::NcpFe, SystemModel::NcpNfe];

fn session(
    model: SystemModel,
    behavior_of: impl Fn(usize) -> Behavior,
    fault_of: impl Fn(usize) -> FaultPlan,
) -> SessionConfig {
    let mut b = SessionConfig::builder(model, Z)
        .seed(SEED)
        .blocks(12)
        .phase_budget_ms(BUDGET_MS);
    for (i, &w) in W.iter().enumerate() {
        b = b.processor(ProcessorConfig::new(w, behavior_of(i)).with_fault(fault_of(i)));
    }
    b.build().expect("differential config must be builder-valid")
}

/// Bit-exact outcome equality: targeted per-field assertions first (for
/// readable failures), then whole-structure `Debug` equality as the
/// catch-all (covers ledger journal, timeline, every degradation field).
fn assert_outcomes_identical(oracle: &SessionOutcome, candidate: &SessionOutcome, what: &str) {
    assert_eq!(oracle.status, candidate.status, "{what}: status");
    assert_eq!(
        oracle.fine.to_bits(),
        candidate.fine.to_bits(),
        "{what}: fine"
    );
    assert_eq!(oracle.messages, candidate.messages, "{what}: message stats");
    assert_eq!(
        oracle.processors.len(),
        candidate.processors.len(),
        "{what}: processor count"
    );
    for (i, (a, b)) in oracle
        .processors
        .iter()
        .zip(&candidate.processors)
        .enumerate()
    {
        assert_eq!(a.participated, b.participated, "{what}: P{i} participated");
        assert_eq!(a.bid, b.bid, "{what}: P{i} bid");
        assert_eq!(
            a.alloc_fraction.to_bits(),
            b.alloc_fraction.to_bits(),
            "{what}: P{i} alloc fraction"
        );
        assert_eq!(a.blocks_granted, b.blocks_granted, "{what}: P{i} blocks");
        assert_eq!(a.meter.to_bits(), b.meter.to_bits(), "{what}: P{i} meter");
        assert_eq!(a.fined.to_bits(), b.fined.to_bits(), "{what}: P{i} fined");
        assert_eq!(
            a.rewarded.to_bits(),
            b.rewarded.to_bits(),
            "{what}: P{i} rewarded"
        );
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: P{i} cost");
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{what}: P{i} utility"
        );
    }
    assert_eq!(
        oracle.makespan.map(f64::to_bits),
        candidate.makespan.map(f64::to_bits),
        "{what}: makespan"
    );
    assert_eq!(
        oracle.degradation.faults, candidate.degradation.faults,
        "{what}: degradation faults"
    );
    assert_eq!(
        oracle.degradation.excluded, candidate.degradation.excluded,
        "{what}: degradation exclusions"
    );
    assert_eq!(
        oracle.degradation.rounds, candidate.degradation.rounds,
        "{what}: rounds"
    );
    assert_eq!(
        oracle.degradation.withheld_payments, candidate.degradation.withheld_payments,
        "{what}: withheld payments"
    );
    assert_eq!(
        format!("{oracle:?}"),
        format!("{candidate:?}"),
        "{what}: full-structure Debug equality"
    );
}

fn assert_vm_matches_threaded(cfg: &SessionConfig, what: &str) {
    let oracle = run_session(cfg).unwrap_or_else(|e| panic!("{what}: threaded failed: {e}"));
    let vm = run_session_vm(cfg).unwrap_or_else(|e| panic!("{what}: vm failed: {e}"));
    assert_outcomes_identical(&oracle, &vm, what);
}

#[test]
fn truthful_sessions_bit_identical_both_models() {
    for model in MODELS {
        let cfg = session(model, |_| Behavior::Compliant, |_| FaultPlan::None);
        assert_vm_matches_threaded(&cfg, &format!("truthful/{model:?}"));
    }
}

#[test]
fn strategic_behaviors_bit_identical_both_models() {
    for model in MODELS {
        let m = W.len();
        let orig = model
            .originator(m)
            .expect("NCP models always have an originator");
        let victim = (orig + 1) % m;
        // One deviant per session; the deviant index is chosen so the
        // behavior actually bites (originator offences on the originator,
        // everything else on a non-originator).
        let scenarios: Vec<(&str, usize, Behavior)> = vec![
            ("misreport", victim, Behavior::Misreport { factor: 1.4 }),
            ("slack", victim, Behavior::Slack { factor: 1.5 }),
            (
                "equivocate",
                victim,
                Behavior::EquivocateBids { factor: 1.3 },
            ),
            (
                "short-allocate",
                orig,
                Behavior::ShortAllocate {
                    victim,
                    shortfall: 1,
                },
            ),
            (
                "over-allocate",
                orig,
                Behavior::OverAllocate { victim, excess: 2 },
            ),
            (
                "corrupt-payments",
                victim,
                Behavior::CorruptPayments {
                    target: orig,
                    factor: 2.0,
                },
            ),
            (
                "false-accusation",
                victim,
                Behavior::FalselyAccuseAllocation,
            ),
            (
                "forged-bid",
                victim,
                Behavior::ForgeExtraBid {
                    impersonate: (victim + 1) % m,
                },
            ),
            ("non-participant", victim, Behavior::NonParticipant),
        ];
        for (name, deviant, behavior) in scenarios {
            let cfg = session(
                model,
                |i| if i == deviant { behavior } else { Behavior::Compliant },
                |_| FaultPlan::None,
            );
            assert_vm_matches_threaded(&cfg, &format!("strategic/{name}/{model:?}"));
        }
    }
}

#[test]
fn fault_plans_bit_identical_including_degradation_reports() {
    for model in MODELS {
        let m = W.len();
        let orig = model
            .originator(m)
            .expect("NCP models always have an originator");
        let faulty = (orig + 2) % m;
        let plans: Vec<(&str, FaultPlan)> = vec![
            ("crash-bidding", FaultPlan::CrashAt(Phase::Bidding)),
            ("crash-allocating", FaultPlan::CrashAt(Phase::Allocating)),
            ("crash-processing", FaultPlan::CrashAt(Phase::Processing)),
            ("crash-payments", FaultPlan::CrashAt(Phase::Payments)),
            ("mute-bidding", FaultPlan::MuteAt(Phase::Bidding)),
            ("garbage-payments", FaultPlan::GarbageAt(Phase::Payments)),
            ("delay-bidding", FaultPlan::DelayAt(Phase::Bidding, 50)),
        ];
        for (name, plan) in plans {
            let cfg = session(
                model,
                |_| Behavior::Compliant,
                |i| if i == faulty { plan } else { FaultPlan::None },
            );
            let what = format!("fault/{name}/{model:?}");
            let oracle = run_session(&cfg).unwrap_or_else(|e| panic!("{what}: threaded: {e}"));
            let vm = run_session_vm(&cfg).unwrap_or_else(|e| panic!("{what}: vm: {e}"));
            assert_outcomes_identical(&oracle, &vm, &what);
            // The crash/mute/garbage plans must actually degrade — a
            // vacuously clean pair of reports would not test the claim.
            let expect_clean = name.starts_with("delay");
            assert_eq!(
                vm.degradation.is_clean(),
                expect_clean,
                "{what}: degradation cleanliness"
            );
        }
    }
}

#[test]
fn uneven_shard_pooled_matches_threaded_per_session() {
    // 5 sessions over 4 workers: worker 0 owns sessions {0, 4}, the rest
    // one each — the non-tiling shape from the PR-3 batch-sizing bug.
    // Sessions differ (varying seeds and one injected fault) so a
    // misrouted or dropped shard cannot pass by accident.
    let cfgs: Vec<SessionConfig> = (0..5u64)
        .map(|k| {
            let mut cfg = session(
                SystemModel::NcpFe,
                |i| {
                    if k == 2 && i == 1 {
                        Behavior::Misreport { factor: 1.2 }
                    } else {
                        Behavior::Compliant
                    }
                },
                |i| {
                    if k == 3 && i == 2 {
                        FaultPlan::CrashAt(Phase::Processing)
                    } else {
                        FaultPlan::None
                    }
                },
            );
            cfg.seed = SEED + k;
            cfg
        })
        .collect();
    let pooled = run_session_pooled_with(&cfgs, 4);
    assert_eq!(pooled.len(), cfgs.len());
    for (k, (cfg, got)) in cfgs.iter().zip(&pooled).enumerate() {
        let oracle = run_session(cfg).unwrap_or_else(|e| panic!("session {k}: threaded: {e}"));
        let got = got
            .as_ref()
            .unwrap_or_else(|e| panic!("session {k}: pooled: {e}"));
        assert_outcomes_identical(&oracle, got, &format!("uneven-shard session {k}"));
    }
}
