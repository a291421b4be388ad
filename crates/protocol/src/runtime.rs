//! Threaded message-passing execution of DLS-BL-NCP, and the session loop
//! both drivers share.
//!
//! [`run_session`] steps the round's processor and referee machines
//! ([`crate::round`]) on real threads: one per processor plus one for the
//! referee, connected by `std::sync::mpsc` channels that model the
//! paper's network assumptions:
//!
//! * **tamper-proof network / protocols** — transport is provided by the
//!   runtime; agents can choose *what* to send, never to alter delivery;
//! * **reliable atomic broadcast** — a broadcast is delivered to every peer
//!   under a lock, so all receivers observe broadcasts in a consistent
//!   order and a sender cannot transmit different values within one
//!   broadcast (equivocation requires *two* broadcasts, which peers detect
//!   exactly as in §4);
//! * **lock-step phases** — threads synchronize on a barrier at each of
//!   the round's twelve boundaries, modelling the known communication
//!   rounds of the protocol.
//!
//! The event-driven executor ([`crate::executor`]) steps the same machines
//! in virtual time; this driver adds only what real concurrency needs —
//! channels, a deadline barrier, real sleeps for injected delays — and so
//! is the path to run when wall-clock behaviour itself is under test.
//! Every message is counted by category and (approximate) wire size, which
//! is the measurement behind experiment E10 (Theorem 5.4: Θ(m²)).
//!
//! ## Liveness faults and degradation
//!
//! The paper assumes every processor shows up at every phase. This runtime
//! drops that assumption: each processor carries a
//! [`crate::fault::FaultPlan`]
//! (crash/mute/delay/garbage, orthogonal to its strategy), and only the
//! **referee** waits at barriers with a wall-clock deadline
//! ([`crate::config::SessionConfig::phase_budget_ms`]). A party missing at
//! the deadline is removed from the barrier — the survivors advance
//! instead of hanging — and recorded as a [`LivenessFault`]. Faults
//! detected before Processing default the absentee (fined `F` per the §4
//! schedule) and the survivors re-run the session over the remaining bid
//! set; faults during/after Processing complete degraded (meter hole,
//! missing payment vector fined by the ordinary payment adjudication,
//! payment withheld). Every session reports what happened in
//! [`SessionOutcome::degradation`].

use crate::config::{Behavior, ProcessorConfig, SessionConfig};
use crate::fault::{DegradationReport, LivenessFault};
use crate::ledger::{Account, Ledger, TransferReason};
use crate::messages::{Msg, MsgCategory, PaymentEntry};
use crate::referee::Phase;
use crate::round::{
    self, admits, Outgoing, ProcMachine, ProcResult, RefResult, RefereeMachine, RoundCtx, SCHEDULE,
};
use dls_dlt::{BusParams, SystemModel};
use dls_netsim::{simulate, SessionSpec as NetSessionSpec, Timeline};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Which actor a failure is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorRole {
    /// An unidentified actor (failure observed by a drop guard).
    Actor,
    /// A strategic processor thread.
    Processor,
    /// The referee thread.
    Referee,
}

/// What kind of lock-step invariant broke.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// An expected message was missing at a phase boundary.
    MissingMessage(&'static str),
    /// An actor thread panicked (e.g. in a dependency).
    ActorPanicked(ActorRole),
    /// A runtime invariant broke: an internal index was out of range, a
    /// value that was validated upstream turned out invalid, or an
    /// adjudication step could not run.
    InvalidState(String),
    /// The party was declared defaulted at a deadline and must stop
    /// participating (surfaced only inside actor threads; a defaulted
    /// party's session result is a partial outcome, not this error).
    Defaulted,
    /// Liveness defaults left fewer than the two live processors the
    /// protocol needs.
    QuorumLost {
        /// How many live processors remained.
        survivors: usize,
    },
}

/// A structured protocol-runtime violation: *what* broke
/// ([`ViolationKind`]), and — when known — *where* ([`Phase`]) and *who*
/// (processor index).
///
/// [`fmt::Display`] prints only the kind's message (identical to the
/// historical stringly-typed errors); phase and processor are structured
/// context for programmatic matching.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolViolation {
    /// Phase at which the violation surfaced, if known.
    pub phase: Option<Phase>,
    /// Processor the violation is attributed to, if any.
    pub processor: Option<usize>,
    /// What broke.
    pub kind: ViolationKind,
}

impl ProtocolViolation {
    /// An invalid-state violation with a free-form description.
    pub fn invalid_state(msg: impl Into<String>) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::InvalidState(msg.into()),
        }
    }

    /// A missing-message violation (`what` names the expected message).
    pub fn missing_message(what: &'static str) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::MissingMessage(what),
        }
    }

    /// A panicked-actor violation.
    pub fn panicked(role: ActorRole) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::ActorPanicked(role),
        }
    }

    /// A quorum-lost violation.
    pub fn quorum_lost(survivors: usize) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::QuorumLost { survivors },
        }
    }

    /// Attaches the phase the violation surfaced at.
    pub fn at_phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Attaches the processor the violation is attributed to.
    pub fn by_processor(mut self, processor: usize) -> Self {
        self.processor = Some(processor);
        self
    }
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ViolationKind::MissingMessage(what) => {
                write!(f, "expected {what} missing at phase boundary")
            }
            ViolationKind::ActorPanicked(ActorRole::Actor) => {
                write!(f, "an actor thread panicked")
            }
            ViolationKind::ActorPanicked(ActorRole::Processor) => {
                write!(f, "a processor thread panicked")
            }
            ViolationKind::ActorPanicked(ActorRole::Referee) => {
                write!(f, "the referee thread panicked")
            }
            ViolationKind::InvalidState(msg) => write!(f, "{msg}"),
            ViolationKind::Defaulted => {
                write!(f, "party declared defaulted at a phase deadline")
            }
            ViolationKind::QuorumLost { survivors } => write!(
                f,
                "liveness defaults left {survivors} live processor(s), below the required two"
            ),
        }
    }
}

/// Errors when running a session.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The protocol needs at least two *participating* processors.
    TooFewParticipants,
    /// The CP model has a trusted external originator and is not subject to
    /// the NCP protocol; use `dls-mechanism` directly for CP baselines.
    UnsupportedModel,
    /// Key generation failed (modulus too small).
    Crypto(String),
    /// A lock-step invariant broke at runtime: an expected message was
    /// missing at a phase boundary, an internal index was out of range, or
    /// an actor thread failed. Sessions surface this instead of panicking
    /// (a panicking actor would strand its peers at the next barrier).
    Protocol(ProtocolViolation),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TooFewParticipants => {
                write!(f, "fewer than two processors participate")
            }
            RunError::UnsupportedModel => write!(
                f,
                "the NCP protocol runs on NCP-FE / NCP-NFE; CP has a trusted control processor"
            ),
            RunError::Crypto(e) => write!(f, "crypto setup failed: {e}"),
            RunError::Protocol(v) => write!(f, "protocol runtime failure: {v}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A missing-message error at a lock-step phase boundary.
pub(crate) fn missing(what: &'static str, phase: Phase) -> RunError {
    RunError::Protocol(ProtocolViolation::missing_message(what).at_phase(phase))
}

/// The violation carried by an error, for propagating through a barrier
/// abort (non-protocol errors degrade to an invalid-state description).
fn violation_of(e: &RunError) -> ProtocolViolation {
    match e {
        RunError::Protocol(v) => v.clone(),
        other => ProtocolViolation::invalid_state(other.to_string()),
    }
}

/// `true` when the error is the defaulted-party signal a removed zombie
/// thread receives; it terminates that thread without failing the round.
fn is_defaulted(e: &RunError) -> bool {
    matches!(e, RunError::Protocol(v) if v.kind == ViolationKind::Defaulted)
}

/// Per-category message accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    counts: BTreeMap<&'static str, (u64, u64)>,
}

impl MessageStats {
    /// Records `copies` deliveries of a message of `bytes_each` bytes.
    pub fn record(&mut self, category: MsgCategory, copies: u64, bytes_each: u64) {
        let key = match category {
            MsgCategory::Bid => "bid",
            MsgCategory::Grant => "grant",
            MsgCategory::PaymentVector => "payment-vector",
            MsgCategory::Control => "control",
        };
        let e = self.counts.entry(key).or_insert((0, 0));
        e.0 += copies;
        e.1 += copies * bytes_each;
    }

    /// Accumulates another stats block into this one (used to total the
    /// traffic of a multi-round degraded session).
    pub(crate) fn merge(&mut self, other: &MessageStats) {
        for (key, (copies, bytes)) in &other.counts {
            let e = self.counts.entry(key).or_insert((0, 0));
            e.0 += copies;
            e.1 += bytes;
        }
    }

    /// `(message count, total bytes)` for a category key
    /// (`"bid"`, `"grant"`, `"payment-vector"`, `"control"`).
    pub fn category(&self, key: &str) -> (u64, u64) {
        self.counts.get(key).copied().unwrap_or((0, 0))
    }

    /// Total messages delivered.
    pub fn total_messages(&self) -> u64 {
        self.counts.values().map(|(c, _)| c).sum()
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.counts.values().map(|(_, b)| b).sum()
    }
}

/// Outcome status of a session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// All phases completed, no fines.
    Completed,
    /// The work completed but deviants (or liveness defaulters) were fined
    /// along the way.
    CompletedWithFines,
    /// The protocol terminated early at `phase` because fines were raised.
    Aborted {
        /// Phase at which the verdict terminated the session.
        phase: Phase,
    },
}

/// Per-processor results, indexed like the *original* configuration.
#[derive(Debug, Clone)]
pub struct ProcessorOutcome {
    /// The configuration this processor played.
    pub config: ProcessorConfig,
    /// `false` for [`Behavior::NonParticipant`].
    pub participated: bool,
    /// First broadcast bid, if any.
    pub bid: Option<f64>,
    /// Real-valued allocation fraction `α_i(b)` (0 if the session aborted
    /// during bidding or the processor did not participate).
    pub alloc_fraction: f64,
    /// Blocks actually granted.
    pub blocks_granted: usize,
    /// Tamper-proof meter reading `φ_i` (0 unless processing ran).
    pub meter: f64,
    /// Final payment entry from the forwarded vector `Q`, if the session
    /// reached payments and the entry was not withheld for a
    /// during-/after-Processing liveness default.
    pub payment: Option<PaymentEntry>,
    /// Total fines paid.
    pub fined: f64,
    /// Total rewards received from the fine pool.
    pub rewarded: f64,
    /// Cost incurred (computation time actually spent).
    pub cost: f64,
    /// Net utility: ledger balance − cost.
    pub utility: f64,
}

/// Everything a session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Completion status.
    pub status: SessionStatus,
    /// Per-processor outcomes (original indexing).
    pub processors: Vec<ProcessorOutcome>,
    /// The fine `F` in force.
    pub fine: f64,
    /// Message accounting (totalled across every round of a degraded
    /// session).
    pub messages: MessageStats,
    /// Conservation-checked money movements.
    pub ledger: Ledger,
    /// Realized execution timeline (only when processing ran).
    pub timeline: Option<Timeline>,
    /// Realized makespan (only when processing ran).
    pub makespan: Option<f64>,
    /// Liveness faults observed and how the session degraded around them
    /// ([`DegradationReport::is_clean`] for a fault-free session).
    pub degradation: DegradationReport,
}

impl SessionOutcome {
    /// Utility of processor `i` (original indexing).
    ///
    /// # Panics
    /// Panics if `i` is not an original processor index, like any slice
    /// access with a caller-supplied index.
    pub fn utility(&self, i: usize) -> f64 {
        // dls-lint: allow(no-panic-in-protocol) -- public accessor with a documented index contract; callers pass indices from the configs they built
        self.processors[i].utility
    }

    /// Indices fined during the session.
    pub fn fined_processors(&self) -> Vec<usize> {
        self.processors
            .iter()
            .enumerate()
            .filter(|(_, p)| p.fined > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

struct Net {
    proc_txs: Vec<Sender<Msg>>,
    referee_tx: Sender<(usize, Msg)>,
    /// The wire: its lock makes each broadcast atomic (every receiver
    /// observes broadcasts in one order and no sender can split one), and
    /// it guards the traffic count.
    wire: Mutex<MessageStats>,
}

impl Net {
    /// Delivers everything party `from` just sent, in send order.
    fn deliver(&self, from: usize, outbox: &mut Vec<Outgoing>) {
        for out in outbox.drain(..) {
            let mut stats = self.wire.lock().unwrap_or_else(PoisonError::into_inner);
            out.deliver(
                self.proc_txs.len(),
                from,
                &mut stats,
                |j, msg| {
                    if let Some(tx) = self.proc_txs.get(j) {
                        let _ = tx.send(msg);
                    }
                },
                |msg| {
                    let _ = self.referee_tx.send((from, msg));
                },
            );
        }
    }
}

/// Moves everything that has arrived on a processor's channel into its
/// inbox, dropping garbage frames at receipt.
fn intake(rx: &Receiver<Msg>, inbox: &mut VecDeque<Msg>) {
    inbox.extend(rx.try_iter().filter(admits));
}

/// A reusable phase barrier with per-party identity, abort, and
/// deadline-bounded waits.
///
/// `std::sync::Barrier` deadlocks the whole session if one actor exits
/// early (error, panic, or injected crash): everyone else parks at the
/// next boundary with one party missing, forever. This barrier adds:
///
/// * [`PhaseBarrier::abort`] — wakes every current and future waiter with
///   the abort violation so all actors unwind cleanly;
/// * [`PhaseBarrier::wait_deadline_as`] — a wall-clock-bounded wait that,
///   on expiry, **removes** every still-missing party from the barrier
///   and reports them, so survivors advance instead of hanging. Only the
///   referee waits with a deadline; processors wait indefinitely and are
///   released when the referee removes the dead.
struct PhaseBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    /// Parties still participating in the barrier.
    active: Vec<bool>,
    /// Arrival flags for the current generation.
    arrived: Vec<bool>,
    generation: u64,
    aborted: Option<ProtocolViolation>,
}

impl PhaseBarrier {
    fn new(parties: usize) -> Self {
        PhaseBarrier {
            state: Mutex::new(BarrierState {
                active: vec![true; parties],
                arrived: vec![false; parties],
                generation: 0,
                aborted: None,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Completes the current generation if every active party has arrived:
    /// resets arrival flags, bumps the generation, wakes all waiters.
    fn release_if_complete(st: &mut BarrierState, cvar: &Condvar) -> bool {
        let complete = st
            .active
            .iter()
            .zip(&st.arrived)
            .all(|(active, arrived)| !*active || *arrived);
        if complete {
            for a in &mut st.arrived {
                *a = false;
            }
            st.generation = st.generation.wrapping_add(1);
            cvar.notify_all();
        }
        complete
    }

    /// Blocks until all active parties arrive (Ok) or the session is
    /// aborted (Err carrying the first abort violation). A party that was
    /// removed at a deadline gets [`ViolationKind::Defaulted`], which its
    /// thread treats as "stop participating", not as a session failure.
    fn wait_as(&self, id: usize) -> Result<(), RunError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = &st.aborted {
            return Err(RunError::Protocol(v.clone()));
        }
        if !st.active.get(id).copied().unwrap_or(false) {
            return Err(RunError::Protocol(ProtocolViolation {
                phase: None,
                processor: Some(id),
                kind: ViolationKind::Defaulted,
            }));
        }
        if let Some(slot) = st.arrived.get_mut(id) {
            *slot = true;
        }
        if Self::release_if_complete(&mut st, &self.cvar) {
            return Ok(());
        }
        let generation = st.generation;
        let st = self
            .cvar
            .wait_while(st, |s| s.generation == generation && s.aborted.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        match &st.aborted {
            Some(v) => Err(RunError::Protocol(v.clone())),
            None => Ok(()),
        }
    }

    /// Deadline-bounded wait. Returns the (possibly empty) list of parties
    /// that were **removed** because they had not arrived when the budget
    /// expired. Removal happens under the same lock acquisition that
    /// observed the timeout, so a party arriving concurrently with the
    /// timeout can never be removed retroactively: either it arrived
    /// (and is not missing) or it is removed (and its next `wait_as`
    /// reports it defaulted).
    ///
    /// `budget` is a real wall-clock deadline, measured from this call;
    /// `wait_timeout_while` keeps it across spurious wakeups. The virtual
    /// executor mirrors it in virtual time (`sched::VirtualClock`).
    fn wait_deadline_as(&self, id: usize, budget: Duration) -> Result<Vec<usize>, RunError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = &st.aborted {
            return Err(RunError::Protocol(v.clone()));
        }
        if let Some(slot) = st.arrived.get_mut(id) {
            *slot = true;
        }
        if Self::release_if_complete(&mut st, &self.cvar) {
            return Ok(Vec::new());
        }
        let generation = st.generation;
        let (mut st, _) = self
            .cvar
            .wait_timeout_while(st, budget, |s| {
                s.generation == generation && s.aborted.is_none()
            })
            .unwrap_or_else(PoisonError::into_inner);
        if st.generation != generation {
            return Ok(Vec::new());
        }
        if let Some(v) = &st.aborted {
            return Err(RunError::Protocol(v.clone()));
        }
        // The budget expired with the generation still open: remove the
        // missing parties under this same guard.
        let missing: Vec<usize> = st
            .active
            .iter()
            .zip(&st.arrived)
            .enumerate()
            .filter(|(_, (active, arrived))| **active && !**arrived)
            .map(|(idx, _)| idx)
            .collect();
        for &idx in &missing {
            if let Some(a) = st.active.get_mut(idx) {
                *a = false;
            }
        }
        Self::release_if_complete(&mut st, &self.cvar);
        Ok(missing)
    }

    /// Marks the session aborted (first violation wins) and wakes all
    /// waiters.
    fn abort(&self, violation: ProtocolViolation) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.aborted.is_none() {
            st.aborted = Some(violation);
        }
        self.cvar.notify_all();
    }
}

/// Drop guard: if an actor unwinds by panic (e.g. from a dependency), the
/// barrier is aborted so the remaining actors do not hang.
struct AbortOnPanic<'a>(&'a PhaseBarrier);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort(ProtocolViolation::panicked(ActorRole::Actor));
        }
    }
}

// ---------------------------------------------------------------------------
// The session runner
// ---------------------------------------------------------------------------

/// Original index of an active-position, falling back to the position
/// itself so a money movement is never silently dropped.
fn orig_of(active: &[usize], pos: usize) -> usize {
    active.get(pos).copied().unwrap_or(pos)
}

/// Total fines paid / rewards received by `orig` per the ledger journal.
fn ledger_sums(ledger: &Ledger, orig: usize) -> (f64, f64) {
    let account = Account::Processor(orig);
    let fined: f64 = ledger
        .journal()
        .iter()
        .filter(|t| t.reason == TransferReason::Fine && t.from == account)
        .map(|t| t.amount)
        .sum();
    let rewarded: f64 = ledger
        .journal()
        .iter()
        .filter(|t| t.reason == TransferReason::Reward && t.to == account)
        .map(|t| t.amount)
        .sum();
    (fined, rewarded)
}

/// Runs one DLS-BL-NCP session end to end.
///
/// Non-participants are excluded from the active market (they receive
/// utility 0, per §4); behaviours whose `victim`/`target` indices point at
/// non-participants degrade to [`Behavior::Compliant`].
///
/// A liveness fault detected before Processing defaults the absentee:
/// it is fined `F`, excluded, and the survivors re-run the protocol over
/// the remaining bid set (allocations and payments over the survivor set
/// are identical to a from-scratch session without the defaulter, because
/// each round re-derives keys, blocks and bids from the same seed). A
/// fault during/after Processing completes the session degraded instead.
/// If exclusions leave fewer than two live processors the session errors
/// with [`ViolationKind::QuorumLost`].
pub fn run_session(cfg: &SessionConfig) -> Result<SessionOutcome, RunError> {
    run_session_with(cfg, run_round)
}

/// The session loop shared by the threaded runtime and the event-driven
/// executor: degradation bookkeeping, ledger movements, withheld payments,
/// the realized timeline and outcome assembly are literally the same code
/// for both paths — only the round runner differs. This is the structural
/// half of the executor's bit-exactness argument.
pub(crate) fn run_session_with(
    cfg: &SessionConfig,
    mut round_fn: impl FnMut(&SessionConfig, &[usize]) -> Result<RoundOutput, RunError>,
) -> Result<SessionOutcome, RunError> {
    if cfg.model == SystemModel::Cp {
        return Err(RunError::UnsupportedModel);
    }
    // Active set in original indices; shrinks as defaulters are excluded.
    let mut active: Vec<usize> = cfg
        .processors
        .iter()
        .enumerate()
        .filter(|(_, p)| p.behavior != Behavior::NonParticipant)
        .map(|(i, _)| i)
        .collect();
    if active.len() < 2 {
        return Err(RunError::TooFewParticipants);
    }

    let mut degradation = DegradationReport::default();
    let mut ledger = Ledger::new();
    let mut messages = MessageStats::default();
    // Partial results of defaulted processors, keyed by original index.
    let mut halted: BTreeMap<usize, ProcResult> = BTreeMap::new();
    let mut any_fines = false;

    let (round_active, round) = loop {
        degradation.rounds += 1;
        let round_active = active.clone();
        let round = round_fn(cfg, &round_active)?;
        any_fines |= round.rr.any_fines;
        messages.merge(&round.messages);

        // Verdict fines/rewards land on the ledger in original indexing,
        // no matter how the session ends.
        for (_, verdict) in &round.rr.verdicts {
            for &(i, amount) in &verdict.fined {
                ledger.transfer(
                    Account::Processor(orig_of(&round_active, i)),
                    Account::FinePool,
                    amount,
                    TransferReason::Fine,
                );
            }
            for &(i, amount) in &verdict.rewards {
                ledger.transfer(
                    Account::FinePool,
                    Account::Processor(orig_of(&round_active, i)),
                    amount,
                    TransferReason::Reward,
                );
            }
        }
        for f in &round.rr.faults {
            degradation.faults.push(LivenessFault {
                phase: f.phase,
                processor: orig_of(&round_active, f.processor),
                kind: f.kind,
            });
        }

        let defaulted: Vec<usize> = round
            .rr
            .defaulted_pre
            .iter()
            .map(|&pos| orig_of(&round_active, pos))
            .collect();
        let liveness_only_abort =
            round.rr.aborted.is_some() && !round.rr.strategic_abort && !defaulted.is_empty();
        if liveness_only_abort {
            // Default the absentees (their fines are already on the
            // ledger via the merged verdict) and re-solve around them.
            for &orig in &defaulted {
                degradation.default_fines.push((orig, cfg.fine));
                degradation.excluded.push(orig);
                if let Some(pos) = round_active.iter().position(|&o| o == orig) {
                    halted.insert(
                        orig,
                        round.proc_results.get(pos).cloned().unwrap_or_default(),
                    );
                }
            }
            active.retain(|orig| !defaulted.contains(orig));
            if active.len() < 2 {
                return Err(RunError::Protocol(ProtocolViolation::quorum_lost(
                    active.len(),
                )));
            }
            continue;
        }
        break (round_active, round);
    };
    let RoundOutput {
        procs,
        proc_results,
        rr,
        messages: _,
    } = round;
    degradation.excluded.sort_unstable();

    // Payments for processors that defaulted during/after Processing are
    // withheld: they delivered no verified payment vector of their own and
    // cannot be paid through the forwarded `Q`.
    let withheld_pos: BTreeSet<usize> = rr
        .faults
        .iter()
        .filter(|f| f.phase >= Phase::Processing && !rr.delivered_vectors.contains(&f.processor))
        .map(|f| f.processor)
        .collect();
    degradation.withheld_payments = withheld_pos
        .iter()
        .map(|&pos| orig_of(&round_active, pos))
        .collect();

    if let Some(q) = &rr.final_q {
        for (i, entry) in q.iter().enumerate() {
            if withheld_pos.contains(&i) {
                continue;
            }
            let total = entry.total();
            if total >= 0.0 {
                ledger.transfer(
                    Account::User,
                    Account::Processor(orig_of(&round_active, i)),
                    total,
                    TransferReason::Payment,
                );
            } else {
                ledger.transfer(
                    Account::Processor(orig_of(&round_active, i)),
                    Account::User,
                    -total,
                    TransferReason::Payment,
                );
            }
        }
    }

    // --- Realized timeline (only when processing ran) ----------------------
    let (timeline, makespan) = if rr.meters.is_some() {
        let exec: Vec<f64> = procs.iter().map(|p| p.exec_w()).collect();
        let alloc: Vec<f64> = proc_results.iter().map(|r| r.alloc_fraction).collect();
        // Realized rates come from validated configs (finite, positive).
        let params = BusParams::new(cfg.z, exec).map_err(|_| {
            RunError::Protocol(ProtocolViolation::invalid_state(
                "realized execution rates invalid",
            ))
        })?;
        let tl = simulate(&NetSessionSpec::new(cfg.model, params, alloc));
        let mk = tl.makespan;
        (Some(tl), Some(mk))
    } else {
        (None, None)
    };

    // --- Per-processor outcomes in original indexing ------------------------
    let to_final: BTreeMap<usize, usize> = round_active
        .iter()
        .enumerate()
        .map(|(pos, &orig)| (orig, pos))
        .collect();
    let mut processors = Vec::with_capacity(cfg.m());
    for (orig, &config) in cfg.processors.iter().enumerate() {
        let outcome = if config.behavior == Behavior::NonParticipant {
            ProcessorOutcome {
                config,
                participated: false,
                bid: None,
                alloc_fraction: 0.0,
                blocks_granted: 0,
                meter: 0.0,
                payment: None,
                fined: 0.0,
                rewarded: 0.0,
                cost: 0.0,
                utility: 0.0,
            }
        } else if let Some(&pos) = to_final.get(&orig) {
            let Some(r) = proc_results.get(pos) else {
                return Err(RunError::Protocol(ProtocolViolation::invalid_state(
                    format!("active position {pos} has no processor result"),
                )));
            };
            let (fined, rewarded) = ledger_sums(&ledger, orig);
            let cost = r.meter;
            let utility = ledger.balance(&Account::Processor(orig)) - cost;
            ProcessorOutcome {
                config,
                participated: true,
                bid: r.bid,
                alloc_fraction: r.alloc_fraction,
                blocks_granted: r.blocks_granted,
                meter: r.meter,
                payment: if withheld_pos.contains(&pos) {
                    None
                } else {
                    rr.final_q.as_ref().and_then(|q| q.get(pos).copied())
                },
                fined,
                rewarded,
                cost,
                utility,
            }
        } else {
            // Excluded mid-session: partial results from the round it
            // defaulted in, payment withheld by construction.
            let r = halted.get(&orig).cloned().unwrap_or_default();
            let (fined, rewarded) = ledger_sums(&ledger, orig);
            let cost = r.meter;
            let utility = ledger.balance(&Account::Processor(orig)) - cost;
            ProcessorOutcome {
                config,
                participated: true,
                bid: r.bid,
                alloc_fraction: r.alloc_fraction,
                blocks_granted: r.blocks_granted,
                meter: r.meter,
                payment: None,
                fined,
                rewarded,
                cost,
                utility,
            }
        };
        processors.push(outcome);
    }

    let status = match rr.aborted {
        Some(phase) => SessionStatus::Aborted { phase },
        None if any_fines => SessionStatus::CompletedWithFines,
        None => SessionStatus::Completed,
    };

    Ok(SessionOutcome {
        status,
        processors,
        fine: cfg.fine,
        messages,
        ledger,
        timeline,
        makespan,
        degradation,
    })
}

/// Everything one protocol round produced (active-set indexing).
pub(crate) struct RoundOutput {
    /// The remapped configs the round's processors played, active order.
    pub(crate) procs: Vec<ProcessorConfig>,
    /// Per-processor partial results, active order.
    pub(crate) proc_results: Vec<ProcResult>,
    /// The referee's round result.
    pub(crate) rr: RefResult,
    /// Traffic of this round alone.
    pub(crate) messages: MessageStats,
}

/// Runs one protocol round over `active` (original indices) on threads:
/// one per processor machine plus one for the referee machine, connected
/// by channels, synchronized by a [`PhaseBarrier`] whose deadline only the
/// referee enforces.
fn run_round(cfg: &SessionConfig, active: &[usize]) -> Result<RoundOutput, RunError> {
    let round::Round {
        ctx,
        procs,
        machines,
        referee,
    } = round::setup(cfg, active)?;
    let m = ctx.m;
    let (proc_txs, proc_rxs): (Vec<_>, Vec<_>) = (0..m).map(|_| mpsc::channel()).unzip();
    let (referee_tx, referee_rx) = mpsc::channel();
    let net = Net {
        proc_txs,
        referee_tx,
        wire: Mutex::new(MessageStats::default()),
    };
    // Parties 0..m are processors; party m is the referee.
    let barrier = PhaseBarrier::new(m + 1);

    let (proc_results, rr) = std::thread::scope(|scope| {
        let (ctx, net, barrier) = (&ctx, &net, &barrier);
        let handles: Vec<_> = machines
            .into_iter()
            .zip(proc_rxs)
            .map(|(machine, rx)| {
                scope.spawn(move || {
                    actor(barrier, || drive_processor(machine, ctx, net, barrier, rx))
                })
            })
            .collect();
        let referee = scope.spawn(move || {
            actor(barrier, || {
                drive_referee(referee, ctx, net, barrier, referee_rx)
            })
        });
        let procs: Vec<_> = handles
            .into_iter()
            .map(|h| joined(h.join(), ActorRole::Processor))
            .collect();
        (procs, joined(referee.join(), ActorRole::Referee))
    });
    let proc_results = proc_results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rr = rr?;
    let messages = net
        .wire
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    Ok(RoundOutput {
        procs,
        proc_results,
        rr,
        messages,
    })
}

/// Runs one actor: a failing actor aborts the barrier so the rest unwind
/// instead of deadlocking, and a panicking one aborts it through the drop
/// guard. The defaulted-party signal is the one error that does NOT abort
/// the round: it only ends a zombie thread the referee already removed.
fn actor<T>(
    barrier: &PhaseBarrier,
    body: impl FnOnce() -> Result<T, RunError>,
) -> Result<T, RunError> {
    let _guard = AbortOnPanic(barrier);
    let r = body();
    if let Err(e) = &r {
        if !is_defaulted(e) {
            barrier.abort(violation_of(e));
        }
    }
    r
}

/// An actor's joined result: a removed zombie keeps what little it
/// produced (nothing), and a panicked actor fails the round instead of
/// the runner.
fn joined<T: Default>(
    r: std::thread::Result<Result<T, RunError>>,
    role: ActorRole,
) -> Result<T, RunError> {
    match r {
        Ok(Err(e)) if is_defaulted(&e) => Ok(T::default()),
        Ok(r) => r,
        Err(_) => Err(RunError::Protocol(ProtocolViolation::panicked(role))),
    }
}

/// A processor thread: at each step, drain the channel, act, deliver,
/// then wait at the barrier. A crashed or halted machine leaves without
/// arriving; a delay fault sleeps before arriving, bounded by the phase
/// budget so a hand-assembled config cannot stall a run past the deadline
/// the referee already enforces.
fn drive_processor(
    mut machine: ProcMachine,
    ctx: &RoundCtx,
    net: &Net,
    barrier: &PhaseBarrier,
    rx: Receiver<Msg>,
) -> Result<ProcResult, RunError> {
    let mut inbox = VecDeque::new();
    let mut outbox = Vec::new();
    for (step, _) in SCHEDULE {
        intake(&rx, &mut inbox);
        machine.act(step, ctx, &mut inbox, &mut outbox)?;
        net.deliver(machine.i, &mut outbox);
        if machine.stopped() {
            return Ok(machine.result);
        }
        if let Some(ms) = machine.arrival_delay().filter(|&ms| ms > 0) {
            // dls-lint: allow(determinism) -- injected delay fault must burn real time
            std::thread::sleep(Duration::from_millis(ms.min(ctx.budget_ms)));
        }
        barrier.wait_as(machine.i)?;
    }
    intake(&rx, &mut inbox);
    machine.finish(&mut inbox);
    Ok(machine.result)
}

/// The referee thread: at each step, drain the channel, act and deliver,
/// then wait at the barrier with the phase deadline and record the parties
/// still missing at it as crashed.
fn drive_referee(
    mut referee: RefereeMachine,
    ctx: &RoundCtx,
    net: &Net,
    barrier: &PhaseBarrier,
    rx: Receiver<(usize, Msg)>,
) -> Result<RefResult, RunError> {
    let budget = Duration::from_millis(ctx.budget_ms);
    let mut inbox = Vec::new();
    let mut outbox = Vec::new();
    for (step, phase) in SCHEDULE {
        inbox.extend(rx.try_iter());
        referee.act(step, ctx, &mut inbox, &mut outbox)?;
        net.deliver(ctx.m, &mut outbox);
        let removed = barrier.wait_deadline_as(ctx.m, budget)?;
        referee.record_removed(phase, &removed);
        if referee.settled() {
            break;
        }
    }
    Ok(referee.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BidBody, Verdict};
    use crate::round::{generate_keys_cached, take_all_msgs, take_verdict};
    use dls_crypto::Signed;
    use std::sync::Arc;

    fn bid_msg(processor: usize, bid: f64) -> Msg {
        // A syntactically valid (unverifiable) bid message for transport
        // tests; the inbox does not verify, only routes.
        Msg::Bid(Signed::forge(
            BidBody { processor, bid },
            format!("P{}", processor + 1),
            vec![0u8; 8],
        ))
    }

    fn bid_senders(inbox: &mut VecDeque<Msg>) -> Vec<usize> {
        take_all_msgs(inbox, |m| match m {
            Msg::Bid(b) => Some(b.body_unverified().processor),
            _ => None,
        })
    }

    #[test]
    fn inbox_drain_returns_pending_first() {
        let (tx, rx) = mpsc::channel();
        let mut inbox = VecDeque::new();
        tx.send(bid_msg(0, 1.0)).unwrap();
        tx.send(Msg::Verdict(Verdict::ok())).unwrap();
        // Take the verdict; the bid must be held back...
        intake(&rx, &mut inbox);
        let v = take_verdict(&mut inbox).unwrap();
        assert!(v.proceed);
        // ...and surface on the next take, ahead of newer messages.
        tx.send(bid_msg(1, 2.0)).unwrap();
        intake(&rx, &mut inbox);
        assert_eq!(bid_senders(&mut inbox), vec![0, 1]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn inbox_take_first_scans_pending_before_channel() {
        let (tx, rx) = mpsc::channel();
        let mut inbox = VecDeque::new();
        tx.send(Msg::Verdict(Verdict::ok())).unwrap();
        tx.send(bid_msg(3, 4.0)).unwrap();
        // First take consumes the verdict and holds the bid back.
        intake(&rx, &mut inbox);
        let _ = take_verdict(&mut inbox);
        tx.send(Msg::Verdict(Verdict {
            proceed: false,
            fined: vec![(1, 5.0)],
            rewards: vec![],
        }))
        .unwrap();
        intake(&rx, &mut inbox);
        let v = take_verdict(&mut inbox).unwrap();
        assert!(!v.proceed);
        // The bid survived two verdict takes.
        assert_eq!(bid_senders(&mut inbox), vec![3]);
    }

    #[test]
    fn inbox_take_first_none_when_absent() {
        let (_tx, rx) = mpsc::channel::<Msg>();
        let mut inbox = VecDeque::new();
        intake(&rx, &mut inbox);
        assert!(take_verdict(&mut inbox).is_none());
        inbox.push_back(bid_msg(0, 1.0));
        assert!(take_verdict(&mut inbox).is_none());
        assert_eq!(inbox.len(), 1, "a miss holds every message back");
    }

    #[test]
    fn inbox_drops_garbage_at_receipt() {
        let (tx, rx) = mpsc::channel();
        let mut inbox = VecDeque::new();
        tx.send(Msg::Garbage { from: 1 }).unwrap();
        tx.send(bid_msg(0, 1.0)).unwrap();
        tx.send(Msg::Garbage { from: 2 }).unwrap();
        intake(&rx, &mut inbox);
        assert_eq!(inbox.len(), 1);
        assert!(matches!(inbox.front(), Some(Msg::Bid(_))));
        // Later intakes never surface or hold back garbage either.
        tx.send(Msg::Garbage { from: 1 }).unwrap();
        tx.send(Msg::Verdict(Verdict::ok())).unwrap();
        intake(&rx, &mut inbox);
        assert!(take_verdict(&mut inbox).is_some());
        assert_eq!(bid_senders(&mut inbox), vec![0]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn violation_display_matches_legacy_text() {
        // Satellite contract: the structured errors render exactly the
        // strings the stringly-typed RunError::Protocol(String) produced.
        let cases = [
            (
                RunError::Protocol(ProtocolViolation::missing_message("bidding verdict")),
                "protocol runtime failure: expected bidding verdict missing at phase boundary",
            ),
            (
                RunError::Protocol(ProtocolViolation::panicked(ActorRole::Processor)),
                "protocol runtime failure: a processor thread panicked",
            ),
            (
                RunError::Protocol(ProtocolViolation::panicked(ActorRole::Referee)),
                "protocol runtime failure: the referee thread panicked",
            ),
            (
                RunError::Protocol(ProtocolViolation::panicked(ActorRole::Actor)),
                "protocol runtime failure: an actor thread panicked",
            ),
            (
                RunError::Protocol(ProtocolViolation::invalid_state(
                    "realized execution rates invalid",
                )),
                "protocol runtime failure: realized execution rates invalid",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
        // Structured context is attached without changing the rendering.
        let v = ProtocolViolation::missing_message("meter vector")
            .at_phase(Phase::Processing)
            .by_processor(2);
        assert_eq!(v.phase, Some(Phase::Processing));
        assert_eq!(v.processor, Some(2));
        assert_eq!(
            v.to_string(),
            "expected meter vector missing at phase boundary"
        );
    }

    #[test]
    fn phase_barrier_abort_releases_waiters() {
        let barrier = Arc::new(PhaseBarrier::new(2));
        let waiter = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.wait_as(0))
        };
        barrier.abort(ProtocolViolation::invalid_state("fixture failure"));
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, RunError::Protocol(ref v) if v.to_string() == "fixture failure"));
        // Late arrivals observe the sticky abort immediately.
        assert!(barrier.wait_as(1).is_err());
    }

    #[test]
    fn phase_barrier_releases_all_parties_per_generation() {
        let barrier = Arc::new(PhaseBarrier::new(3));
        let spawn_waiter = |b: &Arc<PhaseBarrier>, id: usize| {
            let b = Arc::clone(b);
            std::thread::spawn(move || b.wait_as(id).and_then(|()| b.wait_as(id)))
        };
        let a = spawn_waiter(&barrier, 0);
        let b = spawn_waiter(&barrier, 1);
        assert!(barrier.wait_as(2).is_ok());
        assert!(barrier.wait_as(2).is_ok());
        assert!(a.join().unwrap().is_ok());
        assert!(b.join().unwrap().is_ok());
    }

    #[test]
    fn phase_barrier_deadline_removes_missing_parties() {
        // Three parties; party 1 never shows up. The deadline waiter (2)
        // removes it, and both live parties keep synchronizing afterwards.
        let barrier = Arc::new(PhaseBarrier::new(3));
        let live = {
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || b.wait_as(0).and_then(|()| b.wait_as(0)))
        };
        let removed = barrier
            .wait_deadline_as(2, Duration::from_millis(50))
            .unwrap();
        assert_eq!(removed, vec![1]);
        // Next generation completes without the removed party, well before
        // this generous deadline.
        let removed = barrier.wait_deadline_as(2, Duration::from_secs(5)).unwrap();
        assert!(removed.is_empty());
        assert!(live.join().unwrap().is_ok());
        // The removed party's thread, were it alive, would be told it
        // defaulted rather than being allowed to rejoin.
        let err = barrier.wait_as(1).unwrap_err();
        assert!(matches!(
            err,
            RunError::Protocol(ref v) if v.kind == ViolationKind::Defaulted
        ));
    }

    #[test]
    fn phase_barrier_recovers_from_a_panic_under_its_lock() {
        // Each helper thread panics holding the barrier state; with `abort`
        // it unwinds through `AbortOnPanic`, which locks the poisoned state.
        let barrier = Arc::new(PhaseBarrier::new(2));
        let panic_under_lock = |abort: bool| {
            let b = Arc::clone(&barrier);
            let t = std::thread::spawn(move || {
                let _abort = abort.then(|| AbortOnPanic(&b));
                let _st = b.state.lock().unwrap_or_else(PoisonError::into_inner);
                panic!("fixture panic under the barrier lock");
            });
            assert!(t.join().is_err() && barrier.state.is_poisoned());
        };
        panic_under_lock(false);
        let removed = barrier.wait_deadline_as(1, Duration::from_millis(20));
        assert_eq!(removed.unwrap(), vec![0]);
        assert!(barrier.wait_as(1).is_ok(), "the lone survivor passes");
        panic_under_lock(true);
        let panicked = |r: Result<(), RunError>| {
            matches!(r, Err(RunError::Protocol(v))
                if v.kind == ViolationKind::ActorPanicked(ActorRole::Actor))
        };
        assert!(panicked(barrier.wait_as(1)));
        let timed = barrier.wait_deadline_as(1, Duration::from_secs(5));
        assert!(panicked(timed.map(drop)));
    }

    #[test]
    fn message_stats_accumulate_by_category() {
        let mut s = MessageStats::default();
        s.record(MsgCategory::Bid, 3, 100);
        s.record(MsgCategory::Bid, 1, 50);
        s.record(MsgCategory::PaymentVector, 2, 400);
        assert_eq!(s.category("bid"), (4, 350));
        assert_eq!(s.category("payment-vector"), (2, 800));
        assert_eq!(s.category("grant"), (0, 0));
        assert_eq!(s.total_messages(), 6);
        assert_eq!(s.total_bytes(), 1150);
    }

    #[test]
    fn message_stats_merge_sums_rounds() {
        let mut a = MessageStats::default();
        a.record(MsgCategory::Bid, 2, 10);
        a.record(MsgCategory::Control, 5, 8);
        let mut b = MessageStats::default();
        b.record(MsgCategory::Bid, 3, 10);
        b.record(MsgCategory::Grant, 1, 100);
        a.merge(&b);
        assert_eq!(a.category("bid"), (5, 50));
        assert_eq!(a.category("grant"), (1, 100));
        assert_eq!(a.category("control"), (5, 40));
    }

    #[test]
    fn key_cache_is_deterministic_and_identity_scoped() {
        let ids = vec!["P1".to_string(), "P2".to_string()];
        let a = generate_keys_cached(&ids, 384, 99).unwrap();
        let b = generate_keys_cached(&ids, 384, 99).unwrap();
        assert_eq!(a[0].public(), b[0].public());
        assert_eq!(a[1].public(), b[1].public());
        assert_ne!(a[0].public(), a[1].public(), "identities get distinct keys");
        let c = generate_keys_cached(&ids, 384, 100).unwrap();
        assert_ne!(a[0].public(), c[0].public(), "seeds get distinct keys");
    }
}
