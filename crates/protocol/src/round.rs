//! One DLS-BL-NCP round, written once: the processor and referee state
//! machines, the shared round setup, and the twelve-step lock-step
//! schedule both session drivers walk.
//!
//! A round of §4 is a fixed script. Before each of the twelve barriers
//! B1–B12 exactly one side acts ([`SCHEDULE`]): the processors before B1,
//! B2, B4, B5, B7, B9 and B11; the referee before B3, B6, B8, B10 and B12.
//! Each machine reads only its own inbox and writes only to an outbox of
//! [`Outgoing`] messages. A driver owns delivery and the barriers:
//!
//! * the event-driven executor ([`crate::executor`]) acts on every machine
//!   in index order, delivers, then resolves the barrier in virtual time;
//! * the threaded runtime ([`crate::runtime`]) runs each machine on its own
//!   thread, delivers over channels, and waits at a wall-clock barrier
//!   whose deadline only the referee enforces.
//!
//! Both drivers therefore run the same code on the same inputs for every
//! bid view, α, grant check, meter, payment vector and verdict; the two
//! paths can differ only in transport and timing, never in arithmetic.

use crate::blocks::{integer_allocation, DataSet, SignedBlock, USER_IDENTITY};
use crate::config::{Behavior, CryptoProfile, ProcessorConfig, SessionConfig};
use crate::fault::{FaultKind, FaultPlan, LivenessFault};
use crate::messages::{
    BidBody, Evidence, GrantBody, Msg, PaymentEntry, PaymentVectorBody, PhaseReport, Verdict,
};
use crate::referee::{payments_agree, Phase, Referee};
use crate::runtime::{missing, MessageStats, ProtocolViolation, RunError};
use dls_crypto::pki::{KeyPair, Registry, SignatureError};
use dls_crypto::{Signed, VerifyCache};
use dls_dlt::{BusParams, SystemModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

// ---------------------------------------------------------------------------
// The schedule
// ---------------------------------------------------------------------------

/// One step of the round: the action taken before the barrier that
/// follows it (step `k` of [`SCHEDULE`] precedes barrier `B(k+1)`). Each
/// step belongs to one side; the other side's machines ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Processors sign and broadcast their bids (B1).
    Bid,
    /// Processors collect peer bids and report equivocation (B2).
    ReportBids,
    /// The referee adjudicates bidding and broadcasts its verdict (B3).
    BiddingVerdict,
    /// The originator splits the data set and grants blocks (B4).
    Grant,
    /// Processors check their grants and report (B5).
    ReportGrant,
    /// The referee adjudicates the allocation (B6).
    AllocationVerdict,
    /// Meters report `φ_i` to the referee (B7).
    Meter,
    /// The referee broadcasts the meter vector (B8).
    Meters,
    /// Processors submit signed payment vectors (B9).
    PaymentVector,
    /// The referee checks the vectors for equality: an ok verdict or a
    /// bid request (B10).
    PaymentCheck,
    /// Processors answer a bid request with their bid views (B11).
    BidView,
    /// The referee issues the final payment verdict (B12).
    FinalVerdict,
}

/// The round's twelve steps in order, each with the phase of the barrier
/// that follows it: barrier `B(k+1)` follows step `k`, and a party missing
/// at its deadline is recorded as crashed in that phase.
pub(crate) const SCHEDULE: [(Step, Phase); 12] = [
    (Step::Bid, Phase::Bidding),
    (Step::ReportBids, Phase::Bidding),
    (Step::BiddingVerdict, Phase::Bidding),
    (Step::Grant, Phase::Allocating),
    (Step::ReportGrant, Phase::Allocating),
    (Step::AllocationVerdict, Phase::Allocating),
    (Step::Meter, Phase::Processing),
    (Step::Meters, Phase::Processing),
    (Step::PaymentVector, Phase::Payments),
    (Step::PaymentCheck, Phase::Payments),
    (Step::BidView, Phase::Payments),
    (Step::FinalVerdict, Phase::Payments),
];

// ---------------------------------------------------------------------------
// Messages in and out
// ---------------------------------------------------------------------------

/// A message a machine hands its driver for delivery. The referee sends
/// as party `m` (one past the last processor), so "every processor but the
/// sender" reaches m−1 peers from a processor and all m from the referee.
#[derive(Debug, Clone)]
pub(crate) enum Outgoing {
    /// Atomic broadcast to every processor except the sender.
    Broadcast(Msg),
    /// Point-to-point frame to one processor; an out-of-range destination
    /// drops, like a frame sent to an absent station.
    Unicast(usize, Msg),
    /// Processor (or its meter) to the referee.
    ToReferee(Msg),
}

impl Outgoing {
    /// Delivers this send from party `from`: `to_proc(j, msg)` for each
    /// receiving processor, `to_referee(msg)` for the referee. The wire
    /// count goes to `stats`: a broadcast counts one copy per receiving
    /// processor, every other frame one copy, and garbage frames count like
    /// any other (the wire carried them even though receivers drop them).
    pub(crate) fn deliver(
        self,
        m: usize,
        from: usize,
        stats: &mut MessageStats,
        mut to_proc: impl FnMut(usize, Msg),
        to_referee: impl FnOnce(Msg),
    ) {
        let (msg, copies) = match &self {
            Outgoing::Broadcast(msg) => (msg, m - usize::from(from < m)),
            Outgoing::Unicast(_, msg) | Outgoing::ToReferee(msg) => (msg, 1),
        };
        stats.record(msg.category(), copies as u64, msg.wire_size() as u64);
        match self {
            Outgoing::Broadcast(msg) => {
                for j in (0..m).filter(|&j| j != from) {
                    to_proc(j, msg.clone());
                }
            }
            Outgoing::Unicast(to, msg) if to < m => to_proc(to, msg),
            Outgoing::Unicast(..) => {}
            Outgoing::ToReferee(msg) => to_referee(msg),
        }
    }
}

/// `false` for frames a processor drops at intake: a garbage payload is
/// discarded on receipt, exactly like one that fails signature
/// verification (§4).
pub(crate) fn admits(msg: &Msg) -> bool {
    !matches!(msg, Msg::Garbage { .. })
}

/// Removes and returns the first message `f` maps to `Some`, holding
/// everything else back in order: a fast peer's next-phase message may
/// already sit behind the one a slow machine is looking for.
pub(crate) fn take_first_msg<T>(
    q: &mut VecDeque<Msg>,
    mut f: impl FnMut(&Msg) -> Option<T>,
) -> Option<T> {
    let (pos, v) = q
        .iter()
        .enumerate()
        .find_map(|(pos, m)| f(m).map(|v| (pos, v)))?;
    q.remove(pos);
    Some(v)
}

/// Removes and returns every message `f` maps to `Some`, in order,
/// holding the rest back in place.
pub(crate) fn take_all_msgs<T>(
    q: &mut VecDeque<Msg>,
    mut f: impl FnMut(&Msg) -> Option<T>,
) -> Vec<T> {
    let mut out = Vec::new();
    q.retain(|m| match f(m) {
        Some(v) => {
            out.push(v);
            false
        }
        None => true,
    });
    out
}

/// The next referee verdict in the inbox.
pub(crate) fn take_verdict(q: &mut VecDeque<Msg>) -> Option<Verdict> {
    take_first_msg(q, |m| match m {
        Msg::Verdict(v) => Some(v.clone()),
        _ => None,
    })
}

// ---------------------------------------------------------------------------
// Round setup
// ---------------------------------------------------------------------------

/// The read-only facts of one round every machine consults.
pub(crate) struct RoundCtx {
    /// Processors in the round.
    pub(crate) m: usize,
    model: SystemModel,
    z: f64,
    blocks_total: usize,
    originator: usize,
    /// Phase budget in milliseconds.
    pub(crate) budget_ms: u64,
    registry: Registry,
    /// Round-scoped memo of signature verdicts, shared by every receiver.
    verify_cache: VerifyCache,
    profile: CryptoProfile,
    /// The user's signed data set: the originator splits it, and every
    /// machine uses it as the verified-once memo of genuine blocks.
    dataset: Arc<DataSet>,
}

/// Everything one round starts from.
pub(crate) struct Round {
    pub(crate) ctx: RoundCtx,
    /// The remapped configs the round's processors play, active order.
    pub(crate) procs: Vec<ProcessorConfig>,
    pub(crate) machines: Vec<ProcMachine>,
    pub(crate) referee: RefereeMachine,
}

/// Builds one round over `active` (original indices). Each round is
/// self-contained: identities `P1..Pk`, keys, registry and data set are
/// re-derived from the session seed, so a survivor re-run is bit-identical
/// to a from-scratch session over the same participant set.
pub(crate) fn setup(cfg: &SessionConfig, active: &[usize]) -> Result<Round, RunError> {
    let m = active.len();
    if m < 2 {
        return Err(RunError::TooFewParticipants);
    }
    let procs = remap_active_configs(cfg, active);

    // Initialization phase: PKI + user-signed data set.
    let mut identities: Vec<String> = (1..=m).map(|i| format!("P{i}")).collect();
    identities.push(USER_IDENTITY.to_string());
    let mut keys = generate_keys_cached(&identities, cfg.key_bits, cfg.seed)?;
    let user = keys
        .pop()
        .ok_or_else(|| RunError::Crypto("key generation returned no user key".into()))?;
    if keys.len() != m {
        return Err(RunError::Crypto(format!(
            "generated {} processor keys for {m} processors",
            keys.len()
        )));
    }
    let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
    let dataset = dataset_cached(cfg.seed, cfg.key_bits, cfg.blocks, &user)?;
    // Only the CP model lacks an originator, and sessions reject it.
    let originator = cfg.model.originator(m).ok_or(RunError::UnsupportedModel)?;
    let referee = Referee::new(registry.clone(), cfg.model, cfg.z, m, cfg.fine, cfg.blocks);
    let machines = procs
        .iter()
        .zip(keys)
        .enumerate()
        .map(|(i, (pcfg, key))| ProcMachine::new(i, *pcfg, key, m))
        .collect();
    Ok(Round {
        ctx: RoundCtx {
            m,
            model: cfg.model,
            z: cfg.z,
            blocks_total: cfg.blocks,
            originator,
            budget_ms: cfg.phase_budget_ms,
            registry,
            // Per-ROUND, never per-session: survivor re-runs rebind
            // identities `P1..Pk` to different processors, so the same
            // envelope can verify under a different key next round.
            verify_cache: VerifyCache::new(),
            profile: cfg.crypto_profile,
            dataset,
        },
        procs,
        machines,
        referee: RefereeMachine::new(referee, m),
    })
}

/// Remaps index-bearing behaviours into active coordinates. A behaviour
/// whose victim/target is not active degrades to Compliant.
fn remap_active_configs(cfg: &SessionConfig, active: &[usize]) -> Vec<ProcessorConfig> {
    let to_active: BTreeMap<usize, usize> = active
        .iter()
        .enumerate()
        .map(|(pos, &orig)| (orig, pos))
        .collect();
    active
        .iter()
        .filter_map(|&orig| cfg.processors.get(orig))
        .map(|p| {
            let behavior = match p.behavior {
                Behavior::ShortAllocate { victim, shortfall } => to_active
                    .get(&victim)
                    .map(|&v| Behavior::ShortAllocate {
                        victim: v,
                        shortfall,
                    })
                    .unwrap_or(Behavior::Compliant),
                Behavior::OverAllocate { victim, excess } => to_active
                    .get(&victim)
                    .map(|&v| Behavior::OverAllocate { victim: v, excess })
                    .unwrap_or(Behavior::Compliant),
                Behavior::CorruptPayments { target, factor } => to_active
                    .get(&target)
                    .map(|&t| Behavior::CorruptPayments { target: t, factor })
                    .unwrap_or(Behavior::Compliant),
                Behavior::ForgeExtraBid { impersonate } => to_active
                    .get(&impersonate)
                    .map(|&t| Behavior::ForgeExtraBid { impersonate: t })
                    .unwrap_or(Behavior::Compliant),
                other => other,
            };
            ProcessorConfig {
                true_w: p.true_w,
                behavior,
                fault: p.fault,
            }
        })
        .collect()
}

/// Parallel, cached deterministic key generation. Each `(identity, seed,
/// bits)` triple always yields the same key pair within a process, so
/// repeated sessions and survivor re-runs reuse key pairs.
pub(crate) fn generate_keys_cached(
    identities: &[String],
    bits: usize,
    seed: u64,
) -> Result<Vec<KeyPair>, RunError> {
    type Cache = BTreeMap<(String, usize, u64), KeyPair>;
    static CACHE: Mutex<Option<Cache>> = Mutex::new(None);

    let mut misses: Vec<(usize, String)> = Vec::new();
    let mut out: Vec<Option<KeyPair>> = vec![None; identities.len()];
    {
        let mut guard = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = guard.get_or_insert_with(Cache::new);
        for (idx, (slot, id)) in out.iter_mut().zip(identities).enumerate() {
            match cache.get(&(id.clone(), bits, seed)) {
                Some(kp) => *slot = Some(kp.clone()),
                None => misses.push((idx, id.clone())),
            }
        }
    }
    if !misses.is_empty() {
        let generated: Result<Vec<(usize, Result<KeyPair, RunError>)>, RunError> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = misses
                    .iter()
                    .map(|(idx, id)| {
                        let idx = *idx;
                        let id = id.clone();
                        scope.spawn(move || {
                            // Distinct deterministic stream per identity.
                            let mut h = dls_crypto::sha256::Sha256::new();
                            h.update(&seed.to_le_bytes());
                            h.update(id.as_bytes());
                            let digest = h.finalize();
                            // Little-endian fold of the first 8 digest
                            // bytes (equals u64::from_le_bytes without the
                            // panicking slice-to-array conversion).
                            let sub_seed = digest
                                .iter()
                                .take(8)
                                .rev()
                                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
                            let mut rng = StdRng::seed_from_u64(sub_seed);
                            let kp = KeyPair::generate(id, bits, &mut rng)
                                .map_err(|e| RunError::Crypto(e.to_string()));
                            (idx, kp)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| RunError::Crypto("keygen thread panicked".into()))
                    })
                    .collect()
            });
        let mut guard = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = guard.get_or_insert_with(Cache::new);
        for (idx, kp) in generated? {
            let kp = kp?;
            cache.insert((kp.identity().to_string(), bits, seed), kp.clone());
            if let Some(slot) = out.get_mut(idx) {
                *slot = Some(kp);
            }
        }
    }
    out.into_iter()
        .map(|kp| kp.ok_or_else(|| RunError::Crypto("missing generated key".into())))
        .collect()
}

/// Process-wide cache of user-signed data sets keyed by
/// `(seed, key_bits, blocks)`. [`DataSet::prepare`] is deterministic in
/// the user key (itself deterministic in `(seed, key_bits)`) and the block
/// count, so rounds and sessions sharing a setup share the prepared set —
/// the data-set analogue of the seeded key cache.
pub(crate) fn dataset_cached(
    seed: u64,
    key_bits: usize,
    blocks: usize,
    user: &KeyPair,
) -> Result<Arc<DataSet>, RunError> {
    type Cache = BTreeMap<(u64, usize, usize), Arc<DataSet>>;
    static CACHE: Mutex<Option<Cache>> = Mutex::new(None);
    if let Some(ds) = CACHE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_or_insert_with(Cache::new)
        .get(&(seed, key_bits, blocks))
    {
        return Ok(Arc::clone(ds));
    }
    // Prepared outside the lock: concurrent workers may race to build the
    // same set, but preparation is deterministic so the duplicates are
    // identical and last-write-wins is harmless.
    let ds =
        Arc::new(DataSet::prepare(user, blocks, 32).map_err(|e| RunError::Crypto(e.to_string()))?);
    CACHE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_or_insert_with(Cache::new)
        .insert((seed, key_bits, blocks), Arc::clone(&ds));
    Ok(ds)
}

// ---------------------------------------------------------------------------
// Shared checks
// ---------------------------------------------------------------------------

fn sign_err(e: SignatureError) -> RunError {
    RunError::Crypto(e.to_string())
}

/// Outbound-message hook: `None` drops the message (mute), a garbage
/// frame replaces it for a garbling fault, otherwise it passes through.
fn faulted_send(fault: &FaultPlan, phase: Phase, from: usize, msg: Msg) -> Option<Msg> {
    if fault.garbles(phase) {
        Some(Msg::Garbage { from })
    } else if fault.silences(phase) {
        None
    } else {
        Some(msg)
    }
}

/// Routes one envelope verification through the session's crypto profile:
/// `Amortized` memoizes the verdict in the round-shared [`VerifyCache`]
/// (one modexp per distinct envelope, every later receiver hits the
/// cache); `PerReceiverNaive` re-verifies via plain `pow_mod` every time,
/// modelling the pre-Montgomery per-receiver cost. Verification is
/// deterministic, so both routes return identical verdicts — the profile
/// changes only how many modexps are spent, never the outcome.
fn verify_profiled<'a, T: serde::Serialize>(
    signed: &'a Signed<T>,
    registry: &Registry,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> Result<&'a T, SignatureError> {
    match profile {
        CryptoProfile::Amortized => signed.verify_cached(registry, cache),
        CryptoProfile::PerReceiverNaive => signed.verify_naive(registry),
    }
}

/// Counts the valid user-signed blocks in a verified grant. Blocks that
/// are byte-identical to the data set's original at the same id verified
/// once when the set was prepared, so equality substitutes for the RSA
/// check; anything else (tampered or foreign) gets a real verification.
fn count_valid_blocks(body: &GrantBody, dataset: &DataSet, registry: &Registry) -> usize {
    let same_block = |a: &SignedBlock, b: &SignedBlock| {
        a.signer() == b.signer()
            && a.signature() == b.signature()
            && a.body_unverified() == b.body_unverified()
    };
    body.blocks
        .iter()
        .filter(|b| {
            let id = b.body_unverified().id as usize;
            match dataset.blocks().get(id) {
                Some(orig) if same_block(orig, b) => true,
                _ => b.verify(registry).is_ok(),
            }
        })
        .count()
}

// ---------------------------------------------------------------------------
// Processor machine
// ---------------------------------------------------------------------------

/// Where a processor machine stands in the protocol. The active states are
/// keyed by the protocol phases; the terminal states record how the
/// machine stopped participating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorState {
    /// Computing/broadcasting its bid (pre-B1) or collecting peers' bids
    /// and reporting (pre-B2).
    Bidding,
    /// Waiting for the referee's bidding verdict (B3).
    AwaitBidVerdict,
    /// Allocation phase: the originator splits and grants, everyone else
    /// awaits a grant (around B4/B5).
    Allocating,
    /// Waiting for the referee's allocation verdict (B6).
    AwaitAllocationVerdict,
    /// Executing its installment; meter emitted (around B7).
    Processing,
    /// Waiting for the referee's meter broadcast (B8).
    AwaitMeters,
    /// Computing and submitting its payment vector (around B9).
    Payments,
    /// Waiting for payment settlement (B10–B12).
    AwaitSettlement,
    /// Terminal: crashed via an injected `CrashAt` fault; the partial
    /// result survives.
    Crashed,
    /// Terminal: removed at a barrier deadline while still live (only
    /// reachable with delays at/beyond the budget); the result defaults.
    Defaulted,
    /// Terminal: stopped by a non-proceed verdict.
    Halted,
    /// Terminal: ran the full protocol.
    Done,
}

/// A processor's partial or final results, active-set indexing.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcResult {
    pub(crate) bid: Option<f64>,
    pub(crate) alloc_fraction: f64,
    pub(crate) blocks_granted: usize,
    pub(crate) meter: f64,
}

/// When the machine arrives at the next barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalPlan {
    OnTime,
    /// An injected `DelayAt` for the entered phase: late by this many
    /// milliseconds at the next barrier only.
    Delayed(u64),
    /// A crashed machine never arrives (it is removed at the deadline).
    Never,
}

/// The outcome of bidding every processor derives from its own view once
/// the bidding verdict lets the round proceed.
struct Agreed {
    signed_bids: Vec<Signed<BidBody>>,
    /// The agreed bids as bus parameters.
    params: BusParams,
    alpha: Vec<f64>,
    counts: Vec<usize>,
}

impl Agreed {
    fn of(agreed: &Option<Agreed>, phase: Phase) -> Result<&Agreed, RunError> {
        agreed.as_ref().ok_or_else(|| {
            RunError::Protocol(
                ProtocolViolation::invalid_state("no agreed bid vector after bidding")
                    .at_phase(phase),
            )
        })
    }
}

/// One processor as an explicit state machine.
pub(crate) struct ProcMachine {
    pub(crate) i: usize,
    cfg: ProcessorConfig,
    key: KeyPair,
    state: ProcessorState,
    /// Removed from the barrier set (crashed or deadline-defaulted).
    pub(crate) removed: bool,
    arrival: ArrivalPlan,
    pub(crate) result: ProcResult,
    /// First verified bid per sender, own bid included (Bidding).
    bid_view: Vec<Option<Signed<BidBody>>>,
    agreed: Option<Agreed>,
    /// Length of the block list this machine holds (its own grant).
    my_blocks_len: usize,
}

impl ProcMachine {
    fn new(i: usize, cfg: ProcessorConfig, key: KeyPair, m: usize) -> Self {
        ProcMachine {
            i,
            cfg,
            key,
            state: ProcessorState::Bidding,
            removed: false,
            arrival: ArrivalPlan::OnTime,
            result: ProcResult::default(),
            bid_view: vec![None; m],
            agreed: None,
            my_blocks_len: 0,
        }
    }

    /// `true` once the machine has stopped for good (crashed, defaulted,
    /// halted by a verdict, or done).
    pub(crate) fn stopped(&self) -> bool {
        matches!(
            self.state,
            ProcessorState::Crashed
                | ProcessorState::Defaulted
                | ProcessorState::Halted
                | ProcessorState::Done
        )
    }

    /// Acts on one step of the schedule; referee steps are no-ops.
    pub(crate) fn act(
        &mut self,
        step: Step,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        match step {
            Step::Bid => self.bid(out),
            Step::ReportBids => self.report_bids(ctx, inbox, out),
            Step::Grant => self.grant(ctx, inbox, out),
            Step::ReportGrant => self.report_grant(ctx, inbox, out),
            Step::Meter => self.meter(ctx, inbox, out),
            Step::PaymentVector => self.payment_vector(ctx, inbox, out),
            Step::BidView => self.send_bid_view(inbox, out),
            Step::BiddingVerdict
            | Step::AllocationVerdict
            | Step::Meters
            | Step::PaymentCheck
            | Step::FinalVerdict => Ok(()),
        }
    }

    /// After the last barrier: takes the final verdict.
    pub(crate) fn finish(&mut self, inbox: &mut VecDeque<Msg>) {
        if self.state != ProcessorState::AwaitSettlement {
            return;
        }
        let _ = take_verdict(inbox);
        self.state = ProcessorState::Done;
    }

    /// Removal at a barrier deadline: a crashed machine keeps its partial
    /// result; a live one defaults and its result is discarded.
    pub(crate) fn remove(&mut self) {
        self.removed = true;
        if self.state != ProcessorState::Crashed {
            self.state = ProcessorState::Defaulted;
            self.result = ProcResult::default();
        }
    }

    /// How late this machine arrives at the next barrier, in
    /// milliseconds; `None` when it never arrives. A delay is consumed on
    /// use.
    pub(crate) fn arrival_delay(&mut self) -> Option<u64> {
        match self.arrival {
            ArrivalPlan::OnTime => Some(0),
            ArrivalPlan::Delayed(ms) => {
                self.arrival = ArrivalPlan::OnTime;
                Some(ms)
            }
            ArrivalPlan::Never => None,
        }
    }

    /// Applies the phase-entry fault hook: `true` means the machine
    /// crashed and must stop; a delay makes it late at the next barrier.
    fn phase_entry(&mut self, phase: Phase) -> bool {
        match self.cfg.fault {
            FaultPlan::CrashAt(p) if p == phase => {
                self.state = ProcessorState::Crashed;
                self.arrival = ArrivalPlan::Never;
                true
            }
            FaultPlan::DelayAt(p, ms) if p == phase => {
                self.arrival = ArrivalPlan::Delayed(ms);
                false
            }
            _ => false,
        }
    }

    fn to_referee(&self, phase: Phase, out: &mut Vec<Outgoing>, msg: Msg) {
        if let Some(msg) = faulted_send(&self.cfg.fault, phase, self.i, msg) {
            out.push(Outgoing::ToReferee(msg));
        }
    }

    /// Pre-B1: sign and broadcast the bid (twice for an equivocator, plus a
    /// forged extra for an impersonator).
    fn bid(&mut self, out: &mut Vec<Outgoing>) -> Result<(), RunError> {
        if self.state != ProcessorState::Bidding {
            return Ok(());
        }
        if self.phase_entry(Phase::Bidding) {
            return Ok(());
        }
        let my_bid = self.cfg.bid().ok_or_else(|| {
            RunError::Protocol(
                ProtocolViolation::invalid_state("a non-participant reached the bidding phase")
                    .at_phase(Phase::Bidding),
            )
        })?;
        let first = self
            .key
            .sign(BidBody {
                processor: self.i,
                bid: my_bid,
            })
            .map_err(sign_err)?;
        if let Some(slot) = self.bid_view.get_mut(self.i) {
            *slot = Some(first.clone());
        }
        match faulted_send(&self.cfg.fault, Phase::Bidding, self.i, Msg::Bid(first)) {
            Some(garbage @ Msg::Garbage { .. }) => out.push(Outgoing::Broadcast(garbage)),
            Some(msg) => {
                self.result.bid = Some(my_bid);
                out.push(Outgoing::Broadcast(msg));
                match self.cfg.behavior {
                    Behavior::EquivocateBids { factor } => {
                        let second = self
                            .key
                            .sign(BidBody {
                                processor: self.i,
                                bid: my_bid * factor,
                            })
                            .map_err(sign_err)?;
                        out.push(Outgoing::Broadcast(Msg::Bid(second)));
                    }
                    Behavior::ForgeExtraBid { impersonate } => {
                        // A bid claiming to come from someone else, with
                        // garbage signature bytes (signature forgery is
                        // assumed impossible, Lemma 5.2). Receivers must
                        // discard it.
                        let forged = Signed::forge(
                            BidBody {
                                processor: impersonate,
                                bid: 0.01,
                            },
                            format!("P{}", impersonate + 1),
                            vec![0x5a; 48],
                        );
                        out.push(Outgoing::Broadcast(Msg::Bid(forged)));
                    }
                    _ => {}
                }
            }
            None => {} // mute: the bid is withheld
        }
        Ok(())
    }

    /// Pre-B2: collect peer bids from the inbox and report equivocation.
    fn report_bids(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::Bidding {
            return Ok(());
        }
        let mut equivocation: Option<(usize, Signed<BidBody>, Signed<BidBody>)> = None;
        let incoming = take_all_msgs(inbox, |m| match m {
            Msg::Bid(signed) => Some(signed.clone()),
            _ => None,
        });
        for signed in incoming {
            // Under the amortized profile the round-shared cache answers
            // every receiver after the first; the naive profile verifies
            // per receiver as a baseline.
            let Ok(body) = verify_profiled(&signed, &ctx.registry, &ctx.verify_cache, ctx.profile)
            else {
                continue; // failed verification: discarded (§4)
            };
            let sender = body.processor;
            if signed.signer() != format!("P{}", sender + 1) {
                continue;
            }
            // Only finite positive rates form valid bus parameters, so
            // everything downstream (α, counts, payments) is infallible on
            // the agreed vector; an invalid value is discarded like a
            // failed signature.
            if !(body.bid.is_finite() && body.bid > 0.0) {
                continue;
            }
            // `get_mut` also rejects out-of-range sender indices.
            let Some(slot) = self.bid_view.get_mut(sender) else {
                continue;
            };
            match slot {
                Some(existing) => {
                    if existing.body_unverified() != signed.body_unverified() {
                        equivocation = Some((sender, existing.clone(), signed));
                    }
                }
                None => *slot = Some(signed),
            }
        }
        let report = match equivocation {
            Some((accused, first, second)) => PhaseReport::Accuse {
                accused,
                evidence: Evidence::Equivocation { first, second },
            },
            None => PhaseReport::Ok,
        };
        let msg = Msg::Report {
            from: self.i,
            report,
        };
        self.to_referee(Phase::Bidding, out, msg);
        self.state = ProcessorState::AwaitBidVerdict;
        Ok(())
    }

    /// Pre-B4: take the bidding verdict, derive α and the block counts from
    /// the agreed bids; the originator splits the data set and grants.
    fn grant(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::AwaitBidVerdict {
            return Ok(());
        }
        let verdict =
            take_verdict(inbox).ok_or_else(|| missing("bidding verdict", Phase::Bidding))?;
        if !verdict.proceed {
            self.state = ProcessorState::Halted;
            return Ok(());
        }
        self.state = ProcessorState::Allocating;
        if self.phase_entry(Phase::Allocating) {
            return Ok(());
        }
        // Everyone has exactly one bid per peer now (otherwise the session
        // would have aborted); assemble the agreed bid vector.
        let mut signed_bids: Vec<Signed<BidBody>> = Vec::with_capacity(ctx.m);
        for b in std::mem::take(&mut self.bid_view) {
            signed_bids.push(
                b.ok_or_else(|| missing("peer bid after clean bidding phase", Phase::Bidding))?,
            );
        }
        let bids: Vec<f64> = signed_bids
            .iter()
            .map(|s| s.body_unverified().bid)
            .collect();
        // Infallible: every collected bid was validated finite-positive.
        let params = BusParams::new(ctx.z, bids).map_err(|_| {
            RunError::Protocol(
                ProtocolViolation::invalid_state("agreed bids do not form valid bus parameters")
                    .at_phase(Phase::Allocating),
            )
        })?;
        let alpha = dls_dlt::optimal::fractions(ctx.model, &params);
        let counts = integer_allocation(&alpha, ctx.blocks_total);
        self.result.alloc_fraction = alpha.get(self.i).copied().unwrap_or(0.0);

        if self.i == ctx.originator {
            // The originator holds the data set (it received it from the
            // user out of band). Deviant originators tamper with the
            // counts here.
            for (to, mut blocks) in ctx.dataset.split(&counts).into_iter().enumerate() {
                if to == self.i {
                    self.my_blocks_len = blocks.len();
                    continue;
                }
                match self.cfg.behavior {
                    Behavior::ShortAllocate { victim, shortfall } if victim == to => {
                        let keep = blocks.len().saturating_sub(shortfall);
                        blocks.truncate(keep);
                    }
                    Behavior::OverAllocate { victim, excess } if victim == to => {
                        // Pad with duplicates of the victim's first block
                        // (or block 0 of the data set when the grant is
                        // empty).
                        if let Some(pad) = blocks
                            .first()
                            .or_else(|| ctx.dataset.blocks().first())
                            .cloned()
                        {
                            for _ in 0..excess {
                                blocks.push(pad.clone());
                            }
                        }
                    }
                    _ => {}
                }
                let grant = self.key.sign(GrantBody { to, blocks }).map_err(sign_err)?;
                if let Some(msg) = faulted_send(
                    &self.cfg.fault,
                    Phase::Allocating,
                    self.i,
                    Msg::Grant(grant),
                ) {
                    out.push(Outgoing::Unicast(to, msg));
                }
            }
            self.result.blocks_granted = self.my_blocks_len;
        }
        self.agreed = Some(Agreed {
            signed_bids,
            params,
            alpha,
            counts,
        });
        Ok(())
    }

    /// Pre-B5: check the grant against the agreed counts and report.
    fn report_grant(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::Allocating {
            return Ok(());
        }
        let agreed = Agreed::of(&self.agreed, Phase::Allocating)?;
        let mut report = PhaseReport::Ok;
        let granted = if self.i == ctx.originator {
            None
        } else {
            take_all_msgs(inbox, |m| match m {
                Msg::Grant(g) => Some(g.clone()),
                _ => None,
            })
            .pop()
        };
        // No grant at all means the originator deviated silently or
        // defaulted: nothing signed exists to accuse with, so the
        // processor stays silent and the referee's own deadline and
        // message sweeps catch a defaulted originator.
        if let Some(grant) = granted {
            let valid_blocks =
                match verify_profiled(&grant, &ctx.registry, &ctx.verify_cache, ctx.profile) {
                    Ok(body) => count_valid_blocks(body, &ctx.dataset, &ctx.registry),
                    Err(_) => 0,
                };
            let expected = agreed.counts.get(self.i).copied().unwrap_or(0);
            let mismatch = valid_blocks != expected;
            let false_accusation =
                self.cfg.behavior == Behavior::FalselyAccuseAllocation && !mismatch;
            self.result.blocks_granted = valid_blocks;
            self.my_blocks_len = grant.body_unverified().blocks.len();
            if mismatch || false_accusation {
                report = PhaseReport::Accuse {
                    accused: ctx.originator,
                    evidence: Evidence::WrongAllocation {
                        grant,
                        bid_view: agreed.signed_bids.clone(),
                        expected_blocks: expected,
                    },
                };
            }
        }
        let msg = Msg::Report {
            from: self.i,
            report,
        };
        self.to_referee(Phase::Allocating, out, msg);
        self.state = ProcessorState::AwaitAllocationVerdict;
        Ok(())
    }

    /// Pre-B7: take the allocation verdict, process the blocks and emit
    /// the meter reading.
    fn meter(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::AwaitAllocationVerdict {
            return Ok(());
        }
        let verdict =
            take_verdict(inbox).ok_or_else(|| missing("allocation verdict", Phase::Allocating))?;
        if !verdict.proceed {
            self.state = ProcessorState::Halted;
            return Ok(());
        }
        self.state = ProcessorState::Processing;
        if self.phase_entry(Phase::Processing) {
            return Ok(()); // crash: the blocks are never processed
        }
        // The tamper-proof meter measures the time actually spent
        // computing: φ_i = (granted blocks / total) · w̃_i. The agent cannot
        // influence it — but a dead or wedged node's meter frame can still
        // be absent or corrupted, which is what the fault hook models.
        let real_fraction = self.my_blocks_len as f64 / ctx.blocks_total as f64;
        let phi = real_fraction * self.cfg.exec_w();
        self.result.meter = phi;
        let msg = Msg::Meter { of: self.i, phi };
        self.to_referee(Phase::Processing, out, msg);
        self.state = ProcessorState::AwaitMeters;
        Ok(())
    }

    /// Pre-B9: compute the payment vector from the broadcast meters and
    /// submit it signed.
    fn payment_vector(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::AwaitMeters {
            return Ok(());
        }
        let meters = take_first_msg(inbox, |m| match m {
            Msg::Meters(v) => Some(v.clone()),
            _ => None,
        })
        .ok_or_else(|| missing("meter vector", Phase::Processing))?;
        self.state = ProcessorState::Payments;
        if self.phase_entry(Phase::Payments) {
            return Ok(());
        }
        let agreed = Agreed::of(&self.agreed, Phase::Payments)?;
        // w̃_j = φ_j / α_j (per §4, Computing Payments), guarded with the
        // bid for zero-block processors and absent meter readings.
        let observed: Vec<f64> = meters
            .iter()
            .zip(&agreed.alpha)
            .zip(agreed.params.w())
            .map(|((phi, a), b)| {
                let o = if *a > 0.0 { phi / a } else { 0.0 };
                if o > 0.0 {
                    o
                } else {
                    *b
                }
            })
            .collect();
        let mut q: Vec<PaymentEntry> =
            dls_mechanism::compute_payments(ctx.model, &agreed.params, &agreed.alpha, &observed)
                .into_iter()
                .map(|p| PaymentEntry {
                    compensation: p.compensation,
                    bonus: p.bonus,
                })
                .collect();
        if let Behavior::CorruptPayments { target, factor } = self.cfg.behavior {
            if let Some(entry) = q.get_mut(target) {
                entry.compensation *= factor;
            }
        }
        let pv = self
            .key
            .sign(PaymentVectorBody {
                processor: self.i,
                q,
            })
            .map_err(sign_err)?;
        self.to_referee(Phase::Payments, out, Msg::PaymentVector(pv));
        self.state = ProcessorState::AwaitSettlement;
        Ok(())
    }

    /// Pre-B11: answer a bid request with the collected bid view.
    fn send_bid_view(
        &mut self,
        inbox: &mut VecDeque<Msg>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.state != ProcessorState::AwaitSettlement {
            return Ok(());
        }
        let requested =
            !take_all_msgs(inbox, |m| matches!(m, Msg::BidRequest).then_some(())).is_empty();
        if let Some(agreed) = self.agreed.as_ref().filter(|_| requested) {
            let msg = Msg::BidView {
                from: self.i,
                view: agreed.signed_bids.clone(),
            };
            self.to_referee(Phase::Payments, out, msg);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Referee machine
// ---------------------------------------------------------------------------

/// Where the referee stands; advanced with a checked transition so a
/// sequencing bug surfaces as a typed error instead of a silently wrong
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefereeState {
    /// Collecting bids and bidding reports (B1–B3).
    Bidding,
    /// Collecting allocation reports (B4–B6).
    Allocating,
    /// Collecting meters (B7–B8).
    Processing,
    /// Collecting payment vectors / bid views (B9–B12).
    Payments,
    /// Round finished (verdict issued or aborted).
    Settled,
}

fn advance_referee(
    state: &mut RefereeState,
    from: RefereeState,
    to: RefereeState,
) -> Result<(), RunError> {
    expect_referee(*state, from)?;
    *state = to;
    Ok(())
}

fn expect_referee(state: RefereeState, want: RefereeState) -> Result<(), RunError> {
    if state == want {
        return Ok(());
    }
    Err(RunError::Protocol(ProtocolViolation::invalid_state(
        format!("referee state machine expected {want:?}, was {state:?}"),
    )))
}

/// The referee's round result (active-set indexing).
#[derive(Debug, Default)]
pub(crate) struct RefResult {
    pub(crate) aborted: Option<Phase>,
    pub(crate) any_fines: bool,
    pub(crate) verdicts: Vec<(Phase, Verdict)>,
    pub(crate) meters: Option<Vec<f64>>,
    pub(crate) final_q: Option<Vec<PaymentEntry>>,
    /// Liveness faults detected this round.
    pub(crate) faults: Vec<LivenessFault>,
    /// Parties defaulted by the verdict that aborted the round
    /// (pre-Processing liveness faults).
    pub(crate) defaulted_pre: Vec<usize>,
    /// Processors that delivered a verified payment vector of their own.
    pub(crate) delivered_vectors: BTreeSet<usize>,
    /// `true` when the aborting verdict also fined a *strategic* deviant
    /// (evidence-based offence); such a session ends aborted instead of
    /// re-running.
    pub(crate) strategic_abort: bool,
}

/// The referee's liveness bookkeeping for one round: which parties are
/// still alive, who sent garbage, and every fault detected so far. A party
/// missing at a barrier deadline is a crash; an alive party absent from a
/// collection point is an omission, or garbage if it delivered a garbage
/// frame.
struct Watch {
    alive: Vec<bool>,
    garbage: BTreeSet<usize>,
    faults: Vec<LivenessFault>,
}

impl Watch {
    fn new(m: usize) -> Self {
        Watch {
            alive: vec![true; m],
            garbage: BTreeSet::new(),
            faults: Vec::new(),
        }
    }

    fn record_crash(&mut self, phase: Phase, id: usize) {
        if let Some(slot) = self.alive.get_mut(id) {
            if *slot {
                *slot = false;
                self.faults.push(LivenessFault {
                    phase,
                    processor: id,
                    kind: FaultKind::Crash,
                });
            }
        }
    }

    fn note_garbage(&mut self, from: usize) {
        if from < self.alive.len() {
            self.garbage.insert(from);
        }
    }

    /// Expected-sender sweep at a collection point: every alive party not
    /// in `senders` is recorded as an omission (or garbage) fault.
    fn sweep(&mut self, phase: Phase, senders: &BTreeSet<usize>) {
        for (id, alive) in self.alive.iter().enumerate() {
            if *alive && !senders.contains(&id) {
                let kind = if self.garbage.contains(&id) {
                    FaultKind::Garbage
                } else {
                    FaultKind::Omission
                };
                self.faults.push(LivenessFault {
                    phase,
                    processor: id,
                    kind,
                });
            }
        }
    }

    fn defaulted_at(&self, phase: Phase) -> BTreeSet<usize> {
        self.faults
            .iter()
            .filter(|f| f.phase == phase)
            .map(|f| f.processor)
            .collect()
    }
}

/// The referee as an explicit state machine.
pub(crate) struct RefereeMachine {
    referee: Referee,
    state: RefereeState,
    watch: Watch,
    result: RefResult,
    vectors: Vec<Signed<PaymentVectorBody>>,
    /// The payment vectors all agreed at B10 (no bid request was sent).
    vectors_agree: bool,
}

impl RefereeMachine {
    fn new(referee: Referee, m: usize) -> Self {
        RefereeMachine {
            referee,
            state: RefereeState::Bidding,
            watch: Watch::new(m),
            result: RefResult::default(),
            vectors: Vec::new(),
            vectors_agree: false,
        }
    }

    /// `true` once the round is over (a verdict aborted it, or payments
    /// settled).
    pub(crate) fn settled(&self) -> bool {
        self.state == RefereeState::Settled
    }

    /// Records the parties removed at a barrier deadline in `phase` as
    /// crashed.
    pub(crate) fn record_removed(&mut self, phase: Phase, removed: &[usize]) {
        for &id in removed {
            self.watch.record_crash(phase, id);
        }
    }

    /// The round's result, with every fault detected up to the last
    /// barrier.
    pub(crate) fn into_result(self) -> RefResult {
        let mut result = self.result;
        result.faults = self.watch.faults;
        result
    }

    /// Acts on one step of the schedule; processor steps are no-ops.
    pub(crate) fn act(
        &mut self,
        step: Step,
        ctx: &RoundCtx,
        inbox: &mut Vec<(usize, Msg)>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        match step {
            Step::BiddingVerdict => {
                let proceed = self.adjudicate_reports(Phase::Bidding, ctx, inbox, out);
                if proceed {
                    advance_referee(
                        &mut self.state,
                        RefereeState::Bidding,
                        RefereeState::Allocating,
                    )
                } else {
                    advance_referee(
                        &mut self.state,
                        RefereeState::Bidding,
                        RefereeState::Settled,
                    )
                }
            }
            Step::AllocationVerdict => {
                let proceed = self.adjudicate_reports(Phase::Allocating, ctx, inbox, out);
                if proceed {
                    advance_referee(
                        &mut self.state,
                        RefereeState::Allocating,
                        RefereeState::Processing,
                    )
                } else {
                    advance_referee(
                        &mut self.state,
                        RefereeState::Allocating,
                        RefereeState::Settled,
                    )
                }
            }
            Step::Meters => {
                self.broadcast_meters(ctx, inbox, out);
                advance_referee(
                    &mut self.state,
                    RefereeState::Processing,
                    RefereeState::Payments,
                )
            }
            Step::PaymentCheck => {
                expect_referee(self.state, RefereeState::Payments)?;
                self.check_payments(ctx, inbox, out);
                Ok(())
            }
            Step::FinalVerdict => {
                self.settle_payments(ctx, inbox, out)?;
                advance_referee(
                    &mut self.state,
                    RefereeState::Payments,
                    RefereeState::Settled,
                )
            }
            Step::Bid
            | Step::ReportBids
            | Step::Grant
            | Step::ReportGrant
            | Step::Meter
            | Step::PaymentVector
            | Step::BidView => Ok(()),
        }
    }

    fn record_verdict(&mut self, phase: Phase, verdict: &Verdict) {
        if !verdict.fined.is_empty() {
            self.result.any_fines = true;
        }
        self.result.verdicts.push((phase, verdict.clone()));
    }

    /// Pre-B3 / pre-B6: adjudicate the phase's reports, fold in liveness
    /// defaulters, broadcast the verdict. Returns whether the round
    /// proceeds.
    fn adjudicate_reports(
        &mut self,
        phase: Phase,
        ctx: &RoundCtx,
        inbox: &mut Vec<(usize, Msg)>,
        out: &mut Vec<Outgoing>,
    ) -> bool {
        let mut reports = Vec::new();
        for (from, msg) in inbox.drain(..) {
            match msg {
                Msg::Report { report, .. } => reports.push((from, report)),
                Msg::Garbage { .. } => self.watch.note_garbage(from),
                _ => {}
            }
        }
        reports.sort_by_key(|(from, _)| *from);
        let senders: BTreeSet<usize> = reports.iter().map(|(from, _)| *from).collect();
        self.watch.sweep(phase, &senders);
        let strategic = match phase {
            Phase::Bidding => self.referee.adjudicate_bidding(&reports),
            _ => self.referee.adjudicate_allocation(&reports, &ctx.dataset),
        };
        let defaulted = self.watch.defaulted_at(phase);
        let (verdict, strategic_fines) = merge_defaults(&self.referee, strategic, &defaulted);
        self.record_verdict(phase, &verdict);
        let proceed = verdict.proceed;
        out.push(Outgoing::Broadcast(Msg::Verdict(verdict)));
        if !proceed {
            self.result.aborted = Some(phase);
            self.result.strategic_abort = strategic_fines;
            self.result.defaulted_pre = defaulted.into_iter().collect();
        }
        proceed
    }

    /// Pre-B8: collect meter readings and broadcast the meter vector.
    /// Liveness faults from here on cannot abort the round: a missing
    /// meter reads 0 and the observed rate falls back to the bid.
    fn broadcast_meters(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<(usize, Msg)>,
        out: &mut Vec<Outgoing>,
    ) {
        let mut slots: Vec<Option<f64>> = vec![None; ctx.m];
        for (from, msg) in inbox.drain(..) {
            match msg {
                // `get_mut` discards readings with an out-of-range subject.
                Msg::Meter { of, phi } => {
                    if let Some(slot) = slots.get_mut(of) {
                        *slot = Some(phi);
                    }
                }
                Msg::Garbage { .. } => self.watch.note_garbage(from),
                _ => {}
            }
        }
        let senders: BTreeSet<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.map(|_| id))
            .collect();
        self.watch.sweep(Phase::Processing, &senders);
        let meters: Vec<f64> = slots.iter().map(|s| s.unwrap_or(0.0)).collect();
        self.result.meters = Some(meters.clone());
        out.push(Outgoing::Broadcast(Msg::Meters(meters)));
    }

    /// Pre-B10: collect payment vectors; forward an agreed vector, or
    /// request the bids (§4).
    fn check_payments(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<(usize, Msg)>,
        out: &mut Vec<Outgoing>,
    ) {
        for (from, msg) in inbox.drain(..) {
            match msg {
                Msg::PaymentVector(v) => self.vectors.push(v),
                Msg::Garbage { .. } => self.watch.note_garbage(from),
                _ => {}
            }
        }
        // Each vector is verified once; `None` marks one whose signature
        // fails or that is not signed by the processor it speaks for.
        let registry = self.referee.registry();
        let bodies: Vec<Option<&PaymentVectorBody>> = self
            .vectors
            .iter()
            .map(|sv| {
                verify_profiled(sv, registry, &ctx.verify_cache, ctx.profile)
                    .ok()
                    .filter(|b| {
                        b.processor < ctx.m && sv.signer() == format!("P{}", b.processor + 1)
                    })
            })
            .collect();
        let delivered: BTreeSet<usize> = bodies.iter().flatten().map(|b| b.processor).collect();
        self.watch.sweep(Phase::Payments, &delivered);
        self.result.delivered_vectors = delivered;

        let agreed_q = vectors_all_equal(&bodies, ctx.m)
            .then(|| bodies.first().copied().flatten().map(|b| b.q.clone()))
            .flatten();
        match agreed_q {
            Some(q) => {
                self.result.final_q = Some(q);
                self.vectors_agree = true;
                out.push(Outgoing::Broadcast(Msg::Verdict(Verdict::ok())));
                self.record_verdict(Phase::Payments, &Verdict::ok());
            }
            None => out.push(Outgoing::Broadcast(Msg::BidRequest)),
        }
    }

    /// Pre-B12: the final verdict — a second ok when the vectors agreed,
    /// otherwise payments recomputed from a verified bid view, with the
    /// wrong vectors fined.
    fn settle_payments(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<(usize, Msg)>,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), RunError> {
        if self.vectors_agree {
            out.push(Outgoing::Broadcast(Msg::Verdict(Verdict::ok())));
            return Ok(());
        }
        let mut bids: Option<Vec<f64>> = None;
        for (from, msg) in inbox.drain(..) {
            match msg {
                Msg::BidView { view, .. } if bids.is_none() => {
                    bids = verify_bid_view(
                        &view,
                        ctx.m,
                        self.referee.registry(),
                        &ctx.verify_cache,
                        ctx.profile,
                    );
                }
                Msg::Garbage { .. } => self.watch.note_garbage(from),
                _ => {}
            }
        }
        // At least one honest processor exists under the fault model (§5);
        // if every submitted view is unverifiable the session cannot be
        // adjudicated and errors out instead of panicking the referee.
        let bids = bids.ok_or_else(|| {
            RunError::Protocol(
                ProtocolViolation::invalid_state(
                    "no verifiable bid view received for payment adjudication",
                )
                .at_phase(Phase::Payments),
            )
        })?;
        let params = BusParams::new(self.referee.z(), bids).map_err(|_| {
            RunError::Protocol(
                ProtocolViolation::invalid_state("verified bid view has invalid rates")
                    .at_phase(Phase::Payments),
            )
        })?;
        let alpha = dls_dlt::optimal::fractions(self.referee.model(), &params);
        let meters = self.result.meters.as_deref().unwrap_or_default();
        let observed: Vec<f64> = meters
            .iter()
            .zip(&alpha)
            .zip(params.w())
            .map(|((phi, a), b)| if *a > 0.0 && *phi > 0.0 { phi / a } else { *b })
            .collect();
        let (verdict, correct) = self
            .referee
            .adjudicate_payments(&self.vectors, params.w(), &observed)
            .map_err(|e| {
                RunError::Protocol(
                    ProtocolViolation::invalid_state(e.to_string()).at_phase(Phase::Payments),
                )
            })?;
        self.result.final_q = Some(correct);
        self.record_verdict(Phase::Payments, &verdict);
        out.push(Outgoing::Broadcast(Msg::Verdict(verdict)));
        Ok(())
    }
}

/// Folds liveness defaulters into a strategic verdict: the merged deviant
/// set is fined per the §4 schedule (`F` each, pot split among survivors)
/// and the verdict aborts. Returns the merged verdict and whether the
/// *strategic* verdict alone already fined someone.
fn merge_defaults(
    referee: &Referee,
    strategic: Verdict,
    defaulted: &BTreeSet<usize>,
) -> (Verdict, bool) {
    let strategic_fines = !strategic.fined.is_empty();
    if defaulted.is_empty() {
        return (strategic, strategic_fines);
    }
    let mut deviants: BTreeSet<usize> = strategic.fined.iter().map(|&(i, _)| i).collect();
    deviants.extend(defaulted.iter().copied());
    (referee.verdict_for(&deviants, true), strategic_fines)
}

/// Equality check across submitted payment vectors, given each one's
/// verified body (`None` where the signature or the signer rule failed):
/// requires exactly one valid vector from each of the `m` processors, all
/// numerically equal. Any invalid vector means no agreement.
fn vectors_all_equal(bodies: &[Option<&PaymentVectorBody>], m: usize) -> bool {
    let mut per_proc: Vec<Option<&PaymentVectorBody>> = vec![None; m];
    for body in bodies {
        let Some(body) = *body else {
            return false;
        };
        // `get_mut` rejects out-of-range indices; duplicates also fail.
        let Some(slot) = per_proc.get_mut(body.processor) else {
            return false;
        };
        if slot.is_some() {
            return false;
        }
        *slot = Some(body);
    }
    let Some(first) = per_proc.first().and_then(|b| *b) else {
        return false;
    };
    per_proc.iter().all(|b| match b {
        Some(body) => {
            body.q.len() == first.q.len()
                && body.q.iter().zip(&first.q).all(|(a, b)| {
                    payments_agree(a.compensation, b.compensation)
                        && payments_agree(a.bonus, b.bonus)
                })
        }
        None => false,
    })
}

/// The bid vector of a submitted view, if every envelope verifies, each
/// processor appears once, and every rate is finite and positive.
fn verify_bid_view(
    view: &[Signed<BidBody>],
    m: usize,
    registry: &Registry,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> Option<Vec<f64>> {
    if view.len() != m {
        return None;
    }
    let mut bids = vec![f64::NAN; m];
    for sb in view {
        let body = verify_profiled(sb, registry, cache, profile).ok()?;
        if sb.signer() != format!("P{}", body.processor + 1) {
            return None;
        }
        if !(body.bid.is_finite() && body.bid > 0.0) {
            return None;
        }
        // `get_mut` also rejects out-of-range indices; a non-NaN slot is
        // a duplicate.
        let slot = bids.get_mut(body.processor)?;
        if !slot.is_nan() {
            return None;
        }
        *slot = body.bid;
    }
    Some(bids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_crypto::rsa::MIN_MODULUS_BITS;

    #[test]
    fn vector_signed_for_a_silent_processor_blocks_agreement() {
        // P3 stays silent and P2 fills its slot with a vector P2 signed:
        // the three equal vectors must not count as agreed.
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 1.0)
            .processors([2.0, 3.0, 4.0].map(|w| ProcessorConfig::new(w, Behavior::Compliant)))
            .key_bits(MIN_MODULUS_BITS)
            .build()
            .unwrap();
        let round = setup(&cfg, &[0, 1, 2]).unwrap();
        let mut inbox: Vec<(usize, Msg)> = [(0, 0), (1, 1), (1, 2)]
            .map(|(signer, processor)| {
                let (key, q) = (&round.machines[signer].key, Vec::new());
                let sv = key.sign(PaymentVectorBody { processor, q }).unwrap();
                (signer, Msg::PaymentVector(sv))
            })
            .into();
        let (ctx, mut referee, mut out) = (round.ctx, round.referee, Vec::new());
        referee.check_payments(&ctx, &mut inbox, &mut out);
        assert!(matches!(
            out.as_slice(),
            [Outgoing::Broadcast(Msg::BidRequest)]
        ));
        assert_eq!(referee.result.delivered_vectors, BTreeSet::from([0, 1]));
    }
}
