//! Event-driven session executor: the DLS-BL-NCP round stepped by one
//! deterministic loop in virtual time, multiplexed over a fixed worker
//! pool.
//!
//! The threaded runtime ([`crate::runtime::run_session`]) spends its time
//! on OS machinery — m+1 thread spawns, condvar parks at twelve phase
//! barriers, real `thread::sleep` for injected delays — none of which is
//! the mechanism's arithmetic. This driver steps the same processor and
//! referee machines ([`crate::round`]) without any of it:
//!
//! * for each step of the round's schedule it acts on every machine in
//!   index order, delivering each outbox into per-processor `VecDeque`
//!   inboxes (garbage frames are counted and dropped at intake);
//! * each of the twelve lock-step barriers becomes a call to
//!   [`crate::sched::resolve_barrier`] on a per-session virtual
//!   millisecond clock: `DelayAt` faults post late arrival events and the
//!   phase budget posts a deadline event, so a party whose arrival misses
//!   the deadline is removed exactly like the threaded referee's
//!   `wait_deadline_as` removal — in microseconds of real time instead of
//!   a real-time budget wait.
//!
//! [`run_session_pooled`] shards N independent sessions across a fixed
//! `std::thread::scope` pool (session `s` → worker `s mod workers`, no
//! work stealing) with one event loop per worker.
//!
//! ## Bit-exactness
//!
//! For every builder-validated configuration this driver produces a
//! [`SessionOutcome`] bit-identical to [`crate::runtime::run_session`] —
//! allocations, payments, fines, message accounting, and fault-plan
//! degradation reports. The agreement is structural: both drivers run
//! `run_session_with` around the same round machines, which sign with the
//! deterministic [`dls_crypto::pki::KeyPair::sign`] and compute every
//! float from the same inputs in the same code. The drivers differ only in
//! delivery order across senders and in how a barrier's deadline is
//! enforced; see DESIGN.md §12 for the two configurations outside the
//! builder's validation where that shows.

use crate::config::SessionConfig;
use crate::messages::Msg;
use crate::round::{self, admits, Outgoing, SCHEDULE};
use crate::runtime::{
    run_session_with, MessageStats, ProtocolViolation, RoundOutput, RunError, SessionOutcome,
};
use crate::sched::{resolve_barrier, shard, EventQueue, VirtualClock};
use std::collections::VecDeque;

pub use crate::round::{ProcessorState, RefereeState};

// ---------------------------------------------------------------------------
// The event-driven round
// ---------------------------------------------------------------------------

/// Per-worker scratch reused across sessions: the event heap, the barrier
/// arrival list, the outbox, and the virtual transport's queues all
/// allocate once per worker instead of once per session (or, for arrivals,
/// once per barrier — twelve times a round). A long-lived service worker
/// therefore reaches a steady state where per-session work allocates
/// messages and outcomes but no container churn.
#[derive(Default)]
pub struct VmScratch {
    queue: EventQueue,
    /// `(party, delay_ms)` staging for each barrier resolution.
    arrivals: Vec<(usize, u64)>,
    /// Per-processor inboxes; they only ever grow to the largest `m` the
    /// worker has seen.
    inboxes: Vec<VecDeque<Msg>>,
    /// The referee's inbox.
    ref_inbox: Vec<(usize, Msg)>,
    /// What the acting machine sends, before delivery.
    outbox: Vec<Outgoing>,
}

impl VmScratch {
    /// Fresh scratch for one worker's event loop.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One DLS-BL-NCP round on the virtual clock: every step of the schedule
/// acts on every machine, in index order and then the referee, and the
/// barrier after it resolves in virtual time.
/// Crashed machines keep their partial result; live machines removed at a
/// deadline default, like a threaded zombie released with `Defaulted`.
pub(crate) fn run_round_vm(
    cfg: &SessionConfig,
    active: &[usize],
    scratch: &mut VmScratch,
) -> Result<RoundOutput, RunError> {
    let round::Round {
        ctx,
        procs,
        mut machines,
        mut referee,
    } = round::setup(cfg, active)?;
    let VmScratch {
        queue,
        arrivals,
        inboxes,
        ref_inbox,
        outbox,
    } = scratch;
    if inboxes.len() < ctx.m {
        inboxes.resize_with(ctx.m, VecDeque::new);
    }
    inboxes.iter_mut().for_each(VecDeque::clear);
    ref_inbox.clear();
    let mut stats = MessageStats::default();
    let mut clock = VirtualClock::new();
    let budget_ms = ctx.budget_ms;

    for (step, phase) in SCHEDULE {
        for p in machines.iter_mut() {
            if let Some(inbox) = inboxes.get_mut(p.i) {
                p.act(step, &ctx, inbox, outbox)?;
            }
            deliver(ctx.m, p.i, outbox, inboxes, ref_inbox, &mut stats);
        }
        referee.act(step, &ctx, ref_inbox, outbox)?;
        deliver(ctx.m, ctx.m, outbox, inboxes, ref_inbox, &mut stats);
        arrivals.clear();
        arrivals.extend(
            machines
                .iter_mut()
                .filter(|p| !p.removed)
                // A machine that never arrives posts exactly the deadline,
                // which the deadline event outranks: it is always removed.
                .map(|p| (p.i, p.arrival_delay().unwrap_or(budget_ms))),
        );
        let out = resolve_barrier(queue, clock.now_ms(), budget_ms, arrivals);
        clock.advance_to(out.completed_at_ms);
        for p in machines.iter_mut() {
            if out.removed.binary_search(&p.i).is_ok() {
                p.remove();
            }
        }
        referee.record_removed(phase, &out.removed);
        if referee.settled() {
            break;
        }
    }
    for p in machines.iter_mut() {
        if let Some(inbox) = inboxes.get_mut(p.i) {
            p.finish(inbox);
        }
    }
    Ok(RoundOutput {
        procs,
        proc_results: machines.into_iter().map(|p| p.result).collect(),
        rr: referee.into_result(),
        messages: stats,
    })
}

/// Delivers everything party `from` just sent, in send order, into the
/// in-memory queues; garbage frames are dropped at processor intake.
fn deliver(
    m: usize,
    from: usize,
    outbox: &mut Vec<Outgoing>,
    inboxes: &mut [VecDeque<Msg>],
    ref_inbox: &mut Vec<(usize, Msg)>,
    stats: &mut MessageStats,
) {
    for out in outbox.drain(..) {
        out.deliver(
            m,
            from,
            stats,
            |j, msg| {
                if let Some(q) = inboxes.get_mut(j).filter(|_| admits(&msg)) {
                    q.push_back(msg);
                }
            },
            |msg| ref_inbox.push((from, msg)),
        );
    }
}

// ---------------------------------------------------------------------------
// Session-level entry points
// ---------------------------------------------------------------------------

/// The one per-session driver every execution path shares: the static
/// pooled path, the work-stealing service ([`crate::service`]), and the
/// single-session entry point all call this, so placement policies cannot
/// drift from each other — they differ only in *which worker* and *when*
/// `drive_session` runs, never in what it computes.
pub(crate) fn drive_session(
    cfg: &SessionConfig,
    scratch: &mut VmScratch,
) -> Result<SessionOutcome, RunError> {
    run_session_with(cfg, |c, active| run_round_vm(c, active, scratch))
}

/// [`drive_session`] behind a panic barrier: a panic anywhere in the
/// session drivers is contained to `None` so callers that own long-lived
/// threads (the service worker loop, its supervisor) can translate it
/// into a typed, retryable failure instead of unwinding the thread. The
/// scratch arena is rebuilt by the caller after a `None` — a panicked
/// driver may have left it mid-session.
pub(crate) fn drive_session_caught(
    cfg: &SessionConfig,
    scratch: &mut VmScratch,
) -> Option<Result<SessionOutcome, RunError>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive_session(cfg, scratch))).ok()
}

/// Runs one session on the event-driven executor. Same contract and
/// results as [`crate::runtime::run_session`], in microseconds instead of
/// thread time; the session-level loop (degraded re-runs, ledger,
/// timeline) is shared with the threaded path.
pub fn run_session_vm(cfg: &SessionConfig) -> Result<SessionOutcome, RunError> {
    let mut scratch = VmScratch::new();
    drive_session(cfg, &mut scratch)
}

/// Runs a batch of independent sessions across a fixed worker pool:
/// session `s` is executed by worker `s mod workers` on that worker's own
/// event loop — no work stealing, so results and scheduling are
/// deterministic for any worker count. Workers default to the machine's
/// available parallelism.
pub fn run_session_pooled(cfgs: &[SessionConfig]) -> Vec<Result<SessionOutcome, RunError>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_session_pooled_with(cfgs, workers)
}

/// [`run_session_pooled`] with an explicit worker count (floored at 1 and
/// capped at the batch size).
pub fn run_session_pooled_with(
    cfgs: &[SessionConfig],
    workers: usize,
) -> Vec<Result<SessionOutcome, RunError>> {
    let n = cfgs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return cfgs.iter().map(run_session_vm).collect();
    }

    let mut slots: Vec<Option<Result<SessionOutcome, RunError>>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = VmScratch::new();
                    let mut out: Vec<(usize, Result<SessionOutcome, RunError>)> = Vec::new();
                    for idx in shard(n, workers, w) {
                        if let Some(cfg) = cfgs.get(idx) {
                            out.push((idx, drive_session(cfg, &mut scratch)));
                        }
                    }
                    out
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(results) => {
                    for (idx, r) in results {
                        if let Some(slot) = slots.get_mut(idx) {
                            *slot = Some(r);
                        }
                    }
                }
                Err(_) => {
                    // A panicked worker loses its whole shard; report each
                    // of its sessions as a typed failure.
                    for idx in shard(n, workers, w) {
                        if let Some(slot) = slots.get_mut(idx) {
                            *slot = Some(Err(RunError::Protocol(
                                ProtocolViolation::invalid_state("session worker panicked"),
                            )));
                        }
                    }
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                Err(RunError::Protocol(ProtocolViolation::invalid_state(
                    "session result missing from every worker shard",
                )))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Behavior, CryptoProfile, ProcessorConfig};
    use crate::fault::FaultPlan;
    use crate::referee::Phase;
    use crate::runtime::run_session;
    use dls_crypto::rsa::MIN_MODULUS_BITS;
    use dls_dlt::SystemModel;

    fn base_cfg(behaviors: &[Behavior]) -> SessionConfig {
        let ws = [3.0, 2.0, 4.0, 5.0];
        SessionConfig::builder(SystemModel::NcpFe, 1.0)
            .processors(
                ws.iter()
                    .zip(behaviors)
                    .map(|(&w, &b)| ProcessorConfig::new(w, b)),
            )
            .blocks(12)
            .key_bits(MIN_MODULUS_BITS)
            .seed(7)
            .build()
            .expect("valid config")
    }

    fn outcomes_equal(a: &SessionOutcome, b: &SessionOutcome) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.processors.len(), b.processors.len());
        for (x, y) in a.processors.iter().zip(&b.processors) {
            assert_eq!(x.bid, y.bid);
            assert_eq!(x.alloc_fraction.to_bits(), y.alloc_fraction.to_bits());
            assert_eq!(x.blocks_granted, y.blocks_granted);
            assert_eq!(x.meter.to_bits(), y.meter.to_bits());
            assert_eq!(x.fined.to_bits(), y.fined.to_bits());
            assert_eq!(x.rewarded.to_bits(), y.rewarded.to_bits());
            assert_eq!(x.utility.to_bits(), y.utility.to_bits());
        }
        assert_eq!(a.makespan.map(f64::to_bits), b.makespan.map(f64::to_bits));
        assert_eq!(a.degradation.faults, b.degradation.faults);
    }

    #[test]
    fn truthful_session_matches_threaded_bit_for_bit() {
        let cfg = base_cfg(&[Behavior::Compliant; 4]);
        let threaded = run_session(&cfg).expect("threaded");
        let vm = run_session_vm(&cfg).expect("vm");
        outcomes_equal(&threaded, &vm);
    }

    #[test]
    fn crash_fault_degradation_matches_threaded() {
        let mut cfg = base_cfg(&[Behavior::Compliant; 4]);
        if let Some(p) = cfg.processors.get_mut(2) {
            p.fault = FaultPlan::CrashAt(Phase::Bidding);
        }
        let threaded = run_session(&cfg).expect("threaded");
        let vm = run_session_vm(&cfg).expect("vm");
        outcomes_equal(&threaded, &vm);
        assert!(!vm.degradation.is_clean());
    }

    #[test]
    fn pooled_matches_sequential_vm_with_uneven_shards() {
        let cfgs: Vec<SessionConfig> = (0..5)
            .map(|k| {
                let mut c = base_cfg(&[Behavior::Compliant; 4]);
                c.seed = 100 + k;
                c
            })
            .collect();
        let pooled = run_session_pooled_with(&cfgs, 4);
        assert_eq!(pooled.len(), 5);
        for (cfg, got) in cfgs.iter().zip(&pooled) {
            let want = run_session_vm(cfg).expect("vm");
            let got = got.as_ref().expect("pooled");
            outcomes_equal(&want, got);
        }
    }

    #[test]
    fn per_receiver_profile_is_outcome_neutral() {
        // The crypto profile changes how many modexps verification spends,
        // never a verdict: amortized and per-receiver sessions must be
        // bit-identical, on both executors, across a clean run, an
        // equivocation abort, and a payment dispute (the dispute exercises
        // the profiled bid-view adjudication path).
        let scenarios: [&[Behavior]; 3] = [
            &[Behavior::Compliant; 4],
            &[
                Behavior::EquivocateBids { factor: 1.5 },
                Behavior::Compliant,
                Behavior::Compliant,
                Behavior::Compliant,
            ],
            &[
                Behavior::Compliant,
                Behavior::CorruptPayments {
                    target: 0,
                    factor: 0.25,
                },
                Behavior::Compliant,
                Behavior::Compliant,
            ],
        ];
        for behaviors in scenarios {
            let amortized = base_cfg(behaviors);
            let mut naive = base_cfg(behaviors);
            naive.crypto_profile = CryptoProfile::PerReceiverNaive;
            let a = run_session_vm(&amortized).expect("amortized vm");
            let b = run_session_vm(&naive).expect("per-receiver vm");
            outcomes_equal(&a, &b);
            let threaded = run_session(&naive).expect("per-receiver threaded");
            outcomes_equal(&threaded, &b);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(run_session_pooled_with(&[], 4).is_empty());
    }
}
