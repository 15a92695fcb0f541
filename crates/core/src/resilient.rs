//! A hardened Theorem 1.1 reduction driver that survives misbehaving
//! oracles.
//!
//! [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis) *trusts* its
//! oracle: the paper's analysis assumes every call returns a genuine
//! independent set of size `≥ |E_i|/λ`. [`reduce_cf_resilient`] drops
//! that trust and re-validates every answer before committing a phase:
//!
//! * **independence** — range check plus a full adjacency re-check of
//!   the claimed set against the phase's conflict graph;
//! * **delivery** — the Lemma 2.1 quota `|I_i| ≥ ⌈|E_i|/λ⌉` against
//!   the calling oracle's *certified* λ (skipped for heuristics, whose
//!   λ claims nothing);
//! * **liveness** — panics are caught and isolated
//!   ([`std::panic::catch_unwind`]); stalls reported through
//!   [`MaxIsOracle::stalled_steps`] are billed against a per-attempt
//!   step budget that doubles on every retry (exponential backoff).
//!
//! A rejected answer costs one attempt; attempts walk a configurable
//! **fallback chain** (typically `primary → GreedyOracle`) with
//! [`ResilientConfig::max_retries`] retries per oracle. Every rejection
//! is recorded as a [`FaultEvent`]. If a phase exhausts the whole
//! chain, the driver fails *with salvage*: the
//! [`PartialOutcome`] carries the verified partial coloring, the still
//! unhappy edges, and the per-phase records accumulated so far.
//!
//! The driver is the shared phase loop of [`crate::reduction`] under a
//! resilient **acquisition policy**: everything above happens inside
//! one chain-walk function that runs on whatever graph the oracle is
//! called on — the whole conflict graph, or one component of it when
//! the phase runs component-parallel (a fault then retries only its
//! component). Budget, decay gate, journal, deadline, commit and
//! restriction are the loop's, identical to the trusting driver's.
//!
//! The driver's contract — the chaos-test invariant — is:
//!
//! > For **every** fault schedule, `reduce_cf_resilient` either returns
//! > a verified conflict-free multicoloring or a typed error with a
//! > salvageable partial outcome. It never panics and never returns an
//! > invalid coloring. With no faults it reproduces
//! > [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis) exactly
//! > (byte-identical [`PhaseRecord`]s).

use crate::recovery::{Checkpointing, DriverKind, RecoveryReport};
use crate::reduction::{
    is_certified, lemma_2_1_quota, run_phases, Acquisition, PhaseRecord, ReductionConfig,
    ReductionError, ReductionOutcome, Site, Solved,
};
use crate::workspace::PhaseWorkspace;
use pslocal_cfcolor::Multicoloring;
use pslocal_graph::{HyperedgeId, Hypergraph};
use pslocal_maxis::{CrashSignal, MaxIsOracle};
use pslocal_telemetry::{names, span, Counter, Histogram, Sink, Telemetry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The stall budget of attempt `retry` under exponential backoff:
/// `base · 2^retry`, **saturating at `usize::MAX`** once the doubling
/// would overflow. The naive `base << retry` wraps (to 0 in release
/// builds once the set bits shift out), after which every oracle call
/// is falsely rejected as stalled and the fallback chain is burned for
/// nothing; saturation keeps the budget monotone non-decreasing in
/// `retry`, which is what backoff means.
pub fn stall_budget(base: usize, retry: usize) -> usize {
    if base == 0 {
        // Zero tolerance stays zero: backoff multiplies the budget, and
        // 0 · 2^retry = 0.
        return 0;
    }
    // `base << retry` is lossless iff every set bit survives, i.e. the
    // shift fits within `base`'s leading zeros; `checked_shl` alone is
    // not enough (it only rejects shifts ≥ the bit width, not shifts
    // that discard set bits).
    if retry <= base.leading_zeros() as usize {
        base << retry
    } else {
        usize::MAX
    }
}

/// Why the resilient driver rejected (or routed around) an oracle call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultEventKind {
    /// The call panicked; the panic was caught and isolated.
    OraclePanicked,
    /// The claimed independent set failed re-validation (out-of-range
    /// vertex or adjacent pair).
    OracleInvalidOutput,
    /// The set was valid but below the Lemma 2.1 quota its certified λ
    /// promises.
    OracleUnderDelivered {
        /// Vertices actually delivered.
        delivered: usize,
        /// The quota `⌈|E_i|/λ⌉`.
        required: usize,
    },
    /// The call stalled longer than the attempt's step budget.
    OracleStalled {
        /// Steps the call stalled for.
        steps: usize,
        /// The budget it exceeded.
        tolerance: usize,
    },
    /// The driver moved on to the next oracle in the fallback chain.
    FallbackEngaged,
    /// A phase ran out of oracles and retries (terminal; mirrored by
    /// [`ReductionError::RetriesExhausted`]).
    RetriesExhausted {
        /// Attempts spent in the phase.
        attempts: usize,
    },
}

impl fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEventKind::OraclePanicked => write!(f, "oracle-panicked"),
            FaultEventKind::OracleInvalidOutput => write!(f, "oracle-invalid-output"),
            FaultEventKind::OracleUnderDelivered { delivered, required } => {
                write!(f, "oracle-under-delivered ({delivered} < {required})")
            }
            FaultEventKind::OracleStalled { steps, tolerance } => {
                write!(f, "oracle-stalled ({steps} > {tolerance})")
            }
            FaultEventKind::FallbackEngaged => write!(f, "fallback-engaged"),
            FaultEventKind::RetriesExhausted { attempts } => {
                write!(f, "retries-exhausted ({attempts} attempts)")
            }
        }
    }
}

/// One entry of the resilient driver's fault log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Phase the event occurred in.
    pub phase: usize,
    /// 0-based attempt index within the phase (on the parallel path,
    /// within the component).
    pub attempt: usize,
    /// Name of the oracle involved.
    pub oracle: &'static str,
    /// The conflict-graph component the event occurred in, when the
    /// phase ran component-parallel; `None` on the serial path.
    pub component: Option<usize>,
    /// What happened.
    pub kind: FaultEventKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase {}", self.phase)?;
        if let Some(c) = self.component {
            write!(f, " component {c}")?;
        }
        write!(f, " attempt {} [{}]: {}", self.attempt, self.oracle, self.kind)
    }
}

/// Configuration of [`reduce_cf_resilient`].
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// The underlying reduction configuration (promised `k`, optional λ
    /// override, phase cap).
    pub base: ReductionConfig,
    /// Retries per oracle per phase *beyond* the first attempt.
    pub max_retries: usize,
    /// Base step budget for stalled calls; attempt `j` of an oracle
    /// tolerates `stall_tolerance << j` steps (exponential backoff).
    pub stall_tolerance: usize,
}

impl ResilientConfig {
    /// Default resilience (2 retries, stall tolerance 8) for a promised
    /// palette size `k`.
    pub fn new(k: usize) -> Self {
        ResilientConfig { base: ReductionConfig::new(k), max_retries: 2, stall_tolerance: 8 }
    }
}

/// What could be salvaged from a failed resilient run.
///
/// The coloring is *verified partial progress*: every phase that
/// committed did so with a re-validated independent set, so the
/// coloring is conflict-free on all edges outside
/// [`residual_edges`](Self::residual_edges).
#[derive(Debug, Clone)]
pub struct PartialOutcome {
    /// The partial multicoloring built by the committed phases.
    pub coloring: Multicoloring,
    /// Hyperedges still unhappy under the partial coloring.
    pub residual_edges: Vec<HyperedgeId>,
    /// Per-phase records of the committed phases.
    pub records: Vec<PhaseRecord>,
}

/// Successful resilient run: the base outcome plus fault accounting.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The verified reduction outcome (same shape as the trusting
    /// driver's).
    pub reduction: ReductionOutcome,
    /// Every fault observed and routed around, in order.
    pub fault_log: Vec<FaultEvent>,
    /// Attempts beyond the first across all phases.
    pub retries: usize,
    /// Times the driver fell back to a later oracle in the chain.
    pub fallbacks_engaged: usize,
}

/// Failed resilient run: the typed error, the salvage, and the log.
#[derive(Debug, Clone)]
pub struct ResilientFailure {
    /// Why the run failed.
    pub error: ReductionError,
    /// Verified partial progress at the point of failure.
    pub partial: PartialOutcome,
    /// Every fault observed, in order.
    pub fault_log: Vec<FaultEvent>,
}

impl fmt::Display for ResilientFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} faults logged, {} edges salvageable)",
            self.error,
            self.fault_log.len(),
            self.partial.residual_edges.len()
        )
    }
}

impl Error for ResilientFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs the Theorem 1.1 reduction against an untrusted oracle
/// **chain** (`chain[0]` is the primary; later entries are fallbacks,
/// tried left to right).
///
/// Every oracle answer is re-validated before the phase commits; see
/// the [module docs](self) for the validation, retry, and salvage
/// semantics. With well-behaved oracles the result's
/// [`reduction`](ResilientOutcome::reduction) is identical to
/// [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis)'s on the primary.
///
/// # Errors
///
/// [`ResilientFailure`] wraps the [`ReductionError`] with the
/// salvageable [`PartialOutcome`] and the fault log. An empty `chain`
/// fails immediately with
/// [`ReductionError::RetriesExhausted`]`{ phase: 0, attempts: 0 }`.
// The large `Err` variant is the point: it carries the salvaged
// partial coloring and the fault log for post-mortem use.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
) -> Result<ResilientOutcome, ResilientFailure> {
    reduce_cf_resilient_traced(h, chain, config, &Telemetry::disabled())
}

/// [`reduce_cf_resilient`] under a telemetry pipeline: the same
/// `reduction` / `phase` / `oracle` / `commit` / `restrict` span tree
/// as the trusting driver's traced variant, except each phase carries
/// one `oracle` span **per attempt** (indexed by attempt number), and
/// the `retries` / `fallbacks` / `stalled_steps` / `fault_events`
/// counters mirror the fault log. With a disabled pipeline this is
/// exactly `reduce_cf_resilient`.
///
/// # Errors
///
/// See [`reduce_cf_resilient`].
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient_traced<S: Sink>(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    tel: &Telemetry<S>,
) -> Result<ResilientOutcome, ResilientFailure> {
    reduce_cf_resilient_with_workspace(h, chain, config, tel, &mut PhaseWorkspace::new(), None)
}

/// [`reduce_cf_resilient_traced`] lending a caller-owned
/// [`PhaseWorkspace`] and honoring an optional wall-clock `deadline` —
/// the batch service's entry point (`crate::service`), whose workers
/// hold one long-lived workspace each and cancel overdue requests
/// cooperatively.
///
/// The deadline is checked at every **phase boundary** (before the
/// phase's oracle work starts), never mid-call: an overdue run fails
/// with [`ReductionError::DeadlineExceeded`] and the usual salvage — a
/// whole number of committed, verified phases. A workspace carries no
/// semantic state, so the next request through the same workspace is
/// unaffected (pinned by the batch deadline tests).
///
/// # Errors
///
/// See [`reduce_cf_resilient`], plus
/// [`ReductionError::DeadlineExceeded`] when `deadline` passes.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient_with_workspace<S: Sink>(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    tel: &Telemetry<S>,
    ws: &mut PhaseWorkspace,
    deadline: Option<Instant>,
) -> Result<ResilientOutcome, ResilientFailure> {
    run_phases(h, &Resilient { chain, config }, config.base, tel, None, ws, deadline)
        .map(|(outcome, _)| outcome)
}

/// [`reduce_cf_resilient_traced`] with crash-safe checkpointing: every
/// committed phase — including its fault events, per-slot oracle-call
/// positions, and the quota actually enforced on the accepted set — is
/// durably appended to the
/// [`PhaseJournal`](crate::recovery::PhaseJournal) in
/// `checkpoint.dir`; with
/// [`Checkpointing::resume`] an existing journal is replayed
/// (corruption-tolerant, each record re-validated — see
/// [`crate::recovery`]) and the run continues from the last good
/// phase, with every oracle in the chain fast-forwarded through
/// [`MaxIsOracle::resume_at`] so fault schedules stay aligned and the
/// outcome is **byte-identical** to an uninterrupted run.
///
/// Injected *process* crashes (panics whose payload is a
/// [`CrashSignal`]) are re-raised, never swallowed as retryable oracle
/// faults — a process death must actually kill the run for the
/// journal's durability to mean anything.
///
/// # Errors
///
/// See [`reduce_cf_resilient`]; journal I/O failures surface as
/// [`ReductionError::CheckpointFailed`] with salvage.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient_resumable<S: Sink>(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    checkpoint: &Checkpointing,
    tel: &Telemetry<S>,
) -> Result<(ResilientOutcome, RecoveryReport), ResilientFailure> {
    let ws = &mut PhaseWorkspace::new();
    run_phases(h, &Resilient { chain, config }, config.base, tel, Some(checkpoint), ws, None)
}

/// The resilient policy: walk the chain left to right, retrying each
/// oracle up to [`ResilientConfig::max_retries`] times with a doubling
/// stall budget, and accept the first answer that survives validation.
struct Resilient<'c> {
    chain: &'c [&'c dyn MaxIsOracle],
    config: ResilientConfig,
}

impl<'c> Acquisition for Resilient<'c> {
    const DRIVER: DriverKind = DriverKind::Resilient;
    type Primary = dyn MaxIsOracle + 'c;

    fn primary(&self) -> &(dyn MaxIsOracle + 'c) {
        self.chain[0]
    }

    fn chain_names(&self) -> Vec<&'static str> {
        self.chain.iter().map(|o| o.name()).collect()
    }

    fn resume_at(&self, chain_calls: &[u64]) {
        for (oracle, &calls) in self.chain.iter().zip(chain_calls) {
            oracle.resume_at(calls as usize);
        }
    }

    /// The chain walk, the same on the serial and the component path:
    /// each attempt opens an `oracle` span (indexed by attempt number),
    /// and its answer is rejected — costing one attempt and one
    /// [`FaultEvent`] — if the call panicked, stalled past the
    /// attempt's budget, returned a non-independent set, or fell short
    /// of the Lemma 2.1 quota `⌈edges/λ⌉` of the calling oracle's own
    /// certified λ on the site's graph (heuristic and asymptotic
    /// guarantees promise no per-instance quota, so only certified ones
    /// gate). An injected *process* crash ([`CrashSignal`]) is not an
    /// oracle fault and is re-raised so it kills the run.
    fn solve<S: Sink>(
        &self,
        mut site: Site<'_, S>,
        calls: &mut [u64],
        fault: &mut impl FnMut(FaultEvent),
    ) -> Solved {
        let (phase, component) = (site.phase, site.component);
        let event = |attempt: usize, oracle: &dyn MaxIsOracle, kind: FaultEventKind| FaultEvent {
            phase,
            attempt,
            oracle: oracle.name(),
            component,
            kind,
        };
        let mut attempt = 0usize;
        for (slot, &oracle) in self.chain.iter().enumerate() {
            if slot > 0 {
                fault(event(attempt, oracle, FaultEventKind::FallbackEngaged));
            }
            for retry in 0..=self.config.max_retries {
                let this_attempt = attempt;
                attempt += 1;
                let tolerance = stall_budget(self.config.stall_tolerance, retry);
                let oracle_span = span!(site.span, names::ORACLE, this_attempt);
                site.span.add(site.calls_counter, 1);
                calls[slot] += 1;
                let set = match catch_unwind(AssertUnwindSafe(|| site.graph.call(oracle))) {
                    Ok(set) => set,
                    Err(payload) => {
                        if payload.downcast_ref::<CrashSignal>().is_some() {
                            resume_unwind(payload);
                        }
                        drop(oracle_span);
                        fault(event(this_attempt, oracle, FaultEventKind::OraclePanicked));
                        continue;
                    }
                };
                // On the component path a single *stateful* oracle is
                // shared by all workers, so stall readings may
                // interleave across components; the budget still bounds
                // every reading it acts on.
                let stalled = oracle.stalled_steps();
                oracle_span.add(Counter::StalledSteps, stalled as u64);
                oracle_span.sample(Histogram::IndependentSetSize, set.len() as u64);
                drop(oracle_span);
                if stalled > tolerance {
                    let kind = FaultEventKind::OracleStalled { steps: stalled, tolerance };
                    fault(event(this_attempt, oracle, kind));
                    continue;
                }
                if !site.graph.is_independent(&set) {
                    fault(event(this_attempt, oracle, FaultEventKind::OracleInvalidOutput));
                    continue;
                }
                let mut required = 0usize;
                if is_certified(oracle.guarantee()) {
                    if let Some(l) = site.graph.lambda(oracle).filter(|&l| l >= 1.0) {
                        required = lemma_2_1_quota(site.edges, l);
                        if set.len() < required {
                            let delivered = set.len();
                            let kind = FaultEventKind::OracleUnderDelivered { delivered, required };
                            fault(event(this_attempt, oracle, kind));
                            continue;
                        }
                    }
                }
                return Solved { accepted: Some((set, slot, required)), attempts: attempt };
            }
        }
        Solved { accepted: None, attempts: attempt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::CrashPlan;
    use crate::reduction::reduce_cf_to_maxis;
    use pslocal_cfcolor::checker;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_maxis::{
        CrashPoint, ExactOracle, FaultKind, FaultPlan, FaultyOracle, GreedyOracle, PrecisionOracle,
        WorstWitnessOracle,
    };
    use rand::SeedableRng;

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    #[test]
    fn clean_run_matches_trusting_driver_exactly() {
        let k = 3;
        let h = planted(1, 36, 15, k);
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let res = reduce_cf_resilient(&h, &[&GreedyOracle], ResilientConfig::new(k)).unwrap();
        assert_eq!(res.reduction.records, base.records, "byte-identical phase records");
        assert_eq!(res.reduction.coloring, base.coloring);
        assert_eq!(res.reduction.lambda, base.lambda);
        assert_eq!(res.reduction.rho, base.rho);
        assert_eq!(res.reduction.total_colors, base.total_colors);
        // Both drivers charge the oracle the same ⌈log₂ n⌉ view radius
        // — the shared `oracle_locality` helper cannot drift.
        assert_eq!(res.reduction.locality, base.locality);
        assert!(res.fault_log.is_empty());
        assert_eq!(res.retries, 0);
        assert_eq!(res.fallbacks_engaged, 0);
    }

    #[test]
    fn every_single_fault_kind_is_survived_by_retry() {
        let k = 2;
        let h = planted(2, 28, 10, k);
        for kind in [
            FaultKind::InvalidSet,
            FaultKind::EmptySet,
            FaultKind::Panic,
            FaultKind::Stall(1_000_000),
        ] {
            let plan = FaultPlan::scripted(vec![Some(kind)]);
            let faulty = FaultyOracle::new(GreedyOracle, plan);
            let out = reduce_cf_resilient(&h, &[&faulty], ResilientConfig::new(k))
                .unwrap_or_else(|e| panic!("fault {kind:?} not survived: {e}"));
            assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
            assert!(out.retries >= 1, "fault {kind:?} must cost a retry");
            assert!(!out.fault_log.is_empty());
        }
    }

    #[test]
    fn under_delivery_below_certified_quota_is_caught() {
        let k = 2;
        let h = planted(8, 28, 10, k);
        // Exact's certified quota on a CF-k-colorable instance is the
        // full |E_i| (α(G_k) = m); halving it must trip the Lemma 2.1
        // delivery check, and the clean retry completes the run.
        let plan = FaultPlan::scripted(vec![Some(FaultKind::UnderDeliver)]);
        let faulty = FaultyOracle::new(ExactOracle, plan);
        let out = reduce_cf_resilient(&h, &[&faulty], ResilientConfig::new(k)).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert_eq!(out.retries, 1);
        assert!(out
            .fault_log
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::OracleUnderDelivered { .. })));
    }

    #[test]
    fn fallback_rescues_an_always_failing_primary() {
        let k = 2;
        let h = planted(3, 24, 8, k);
        // Primary panics on every call; Greedy fallback must carry the run.
        let broken =
            FaultyOracle::new(ExactOracle, FaultPlan::scripted(vec![Some(FaultKind::Panic); 64]));
        let cfg = ResilientConfig::new(k);
        let out = reduce_cf_resilient(&h, &[&broken, &GreedyOracle], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out.fallbacks_engaged >= 1);
        assert!(out.fault_log.iter().any(|e| e.kind == FaultEventKind::FallbackEngaged));
        assert!(out.fault_log.iter().any(|e| e.kind == FaultEventKind::OraclePanicked));
    }

    #[test]
    fn exhausted_chain_salvages_partial_progress() {
        let k = 2;
        // 8 disjoint edges: a 1-triple-per-phase oracle removes exactly
        // one edge per phase, so the run cannot finish in phase 0.
        let h =
            Hypergraph::from_edges(16, (0..8).map(|i| vec![2 * i, 2 * i + 1]).collect::<Vec<_>>())
                .unwrap();
        // First call succeeds (phase 0 commits), everything after panics.
        let mut script = vec![None];
        script.extend(std::iter::repeat_n(Some(FaultKind::Panic), 64));
        let faulty = FaultyOracle::new(PrecisionOracle::new(1000.0), FaultPlan::scripted(script));
        let mut cfg = ResilientConfig::new(k);
        cfg.base.lambda_override = Some(3.0);
        let err = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap_err();
        let ReductionError::RetriesExhausted { phase, attempts } = err.error else {
            panic!("expected RetriesExhausted, got {}", err.error);
        };
        assert_eq!(phase, 1, "phase 0 committed before the failures began");
        assert_eq!(attempts, cfg.max_retries + 1);
        assert_eq!(err.partial.records.len(), 1);
        assert!(!err.partial.residual_edges.is_empty());
        // Salvage is verified progress: edges outside the residual are
        // happy under the partial coloring.
        for e in h.edge_ids() {
            if !err.partial.residual_edges.contains(&e) {
                assert!(checker::is_edge_happy(&h, &err.partial.coloring, e));
            }
        }
        assert!(err.to_string().contains("salvageable"));
        assert!(err.source().is_some());
    }

    #[test]
    fn heuristic_primary_without_override_is_refused() {
        let h = planted(5, 20, 6, 2);
        let err =
            reduce_cf_resilient(&h, &[&WorstWitnessOracle], ResilientConfig::new(2)).unwrap_err();
        assert_eq!(err.error, ReductionError::NoLambdaAvailable);
        assert!(err.partial.records.is_empty());
        assert_eq!(err.partial.residual_edges.len(), h.edge_count());
    }

    #[test]
    fn empty_chain_fails_gracefully() {
        let h = planted(6, 20, 6, 2);
        let err = reduce_cf_resilient(&h, &[], ResilientConfig::new(2)).unwrap_err();
        assert!(matches!(err.error, ReductionError::RetriesExhausted { phase: 0, attempts: 0 }));
    }

    #[test]
    fn stall_backoff_admits_slow_oracle_on_retry() {
        let k = 2;
        let h = planted(7, 24, 8, k);
        // Stalls of 20 exceed tolerance 8 but fit 16 on the first
        // retry (8 << 1); a permanently-slow oracle still completes.
        let script = vec![Some(FaultKind::Stall(12)); 64];
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::scripted(script));
        let cfg = ResilientConfig { stall_tolerance: 8, ..ResilientConfig::new(k) };
        let out = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out
            .fault_log
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::OracleStalled { .. })));
    }

    #[test]
    fn stall_budget_saturates_instead_of_wrapping() {
        // The regression: `base << retry` wraps once the set bits shift
        // out — for base = 2^62 the old code handed retry 2 a budget of
        // 0 and rejected every call as stalled. Saturation must keep
        // the budget monotone non-decreasing across retries.
        for base in [1usize, 8, usize::MAX / 3, 1 << 62, usize::MAX] {
            let mut prev = 0usize;
            for retry in 0..=300 {
                let budget = stall_budget(base, retry);
                assert!(
                    budget >= prev,
                    "budget wrapped: base={base} retry={retry}: {budget} < {prev}"
                );
                assert!(budget >= base, "backoff may never shrink below the base");
                prev = budget;
            }
            assert_eq!(stall_budget(base, 300), usize::MAX, "large retries saturate");
        }
        // Exact doubling while it fits…
        assert_eq!(stall_budget(8, 0), 8);
        assert_eq!(stall_budget(8, 3), 64);
        assert_eq!(stall_budget(1, 63), 1 << 63);
        // …saturation exactly at the first lossy shift…
        assert_eq!(stall_budget(1, 64), usize::MAX);
        assert_eq!(stall_budget(1 << 62, 2), usize::MAX);
        // …and zero tolerance stays zero (0 · 2^retry = 0).
        assert_eq!(stall_budget(0, 100), 0);
    }

    #[test]
    fn huge_stall_tolerance_never_false_rejects() {
        // Driver-level regression: with stall_tolerance = 2^62 and many
        // retries, the pre-fix budget wrapped to 0 from retry 2 on, so
        // a clean oracle whose simulated stall fits the *base* budget
        // was falsely rejected forever. Post-fix the saturated budget
        // admits it on every attempt.
        let k = 2;
        let h = planted(9, 24, 8, k);
        let script = vec![Some(FaultKind::Stall(usize::MAX)); 64];
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::scripted(script));
        let cfg =
            ResilientConfig { stall_tolerance: 1 << 62, max_retries: 8, ..ResilientConfig::new(k) };
        // A stall of usize::MAX steps exceeds tolerance 2^62 on attempt
        // 0, but retry 1's budget is 2^63 — still short — and retry 2
        // saturates at usize::MAX, admitting the call. Pre-fix, retry 2
        // wrapped to 0 and the run died with RetriesExhausted.
        let out = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out
            .fault_log
            .iter()
            .all(|e| !matches!(e.kind, FaultEventKind::RetriesExhausted { .. })));
    }

    #[test]
    fn traced_resilient_run_attributes_attempts_and_faults() {
        use pslocal_telemetry::{Counter, MemorySink, Telemetry};
        let k = 2;
        let h = planted(10, 28, 10, k);
        let plan = FaultPlan::scripted(vec![Some(FaultKind::Panic), Some(FaultKind::Stall(50))]);
        let faulty = FaultyOracle::new(GreedyOracle, plan);
        let tel = Telemetry::new(MemorySink::new());
        let out =
            reduce_cf_resilient_traced(&h, &[&faulty], ResilientConfig::new(k), &tel).unwrap();
        let sink = tel.into_sink();
        assert!(sink.open_spans().is_empty(), "caught panic must not orphan the oracle span");
        assert_eq!(sink.counter_total(Counter::FaultEvents), out.fault_log.len() as u64);
        assert_eq!(sink.counter_total(Counter::Retries), out.retries as u64);
        let spans = sink.spans();
        let oracle_spans =
            spans.iter().filter(|s| s.name == pslocal_telemetry::names::ORACLE).count();
        // Every committed phase spends one accepted attempt, plus one
        // span per rejected attempt (= retries).
        let attempts = out.reduction.phases_used + out.retries;
        assert_eq!(oracle_spans, attempts, "one oracle span per attempt");
    }

    #[test]
    fn fault_event_display_is_informative() {
        let e = FaultEvent {
            phase: 2,
            attempt: 1,
            oracle: "greedy",
            component: None,
            kind: FaultEventKind::OracleUnderDelivered { delivered: 1, required: 4 },
        };
        let s = e.to_string();
        assert!(s.contains("phase 2"));
        assert!(s.contains("greedy"));
        assert!(s.contains("under-delivered"));
        assert!(!s.contains("component"), "serial events stay component-free");
        let p = FaultEvent { component: Some(3), ..e };
        assert!(p.to_string().contains("component 3"));
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pslocal-resilient-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resumable_clean_run_matches_the_plain_resilient_run() {
        let k = 3;
        let h = planted(31, 36, 15, k);
        let base = reduce_cf_resilient(&h, &[&GreedyOracle], ResilientConfig::new(k)).unwrap();
        let dir = ckpt_dir("clean");
        let tel = Telemetry::disabled();
        let (out, report) = reduce_cf_resilient_resumable(
            &h,
            &[&GreedyOracle],
            ResilientConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        assert_eq!(out.reduction.records, base.reduction.records);
        assert_eq!(out.reduction.coloring, base.reduction.coloring);
        assert!(!report.resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_crash_replays_faults_and_stays_byte_identical() {
        // A flaky primary (panics on its 2nd call) forces retries, so
        // the journal must carry both the fault events and the oracle's
        // cumulative call count for the resumed run to realign the
        // schedule. Fresh FaultyOracle instances before each run keep
        // the schedule itself deterministic.
        let k = 3;
        let h = planted(32, 40, 18, k);
        // λ = 4 keeps the run multi-phase (Greedy would finish planted
        // instances in one).
        let plan = || {
            FaultPlan::scripted(vec![None, Some(FaultKind::Panic), None, None, None, None, None])
        };
        let cfg = || ResilientConfig { max_retries: 2, ..ResilientConfig::new(k) };
        let baseline = {
            let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
            reduce_cf_resilient(&h, &[&flaky], cfg()).unwrap()
        };
        assert!(baseline.reduction.phases_used >= 2, "need phases to interrupt");
        assert_eq!(baseline.retries, 1, "the scripted panic must actually fire");
        let dir = ckpt_dir("crash");
        let tel = Telemetry::disabled();
        {
            let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
            let ckpt = Checkpointing::new(&dir)
                .with_crash(CrashPlan::panicking(1, CrashPoint::BeforeJournal));
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(reduce_cf_resilient_resumable(&h, &[&flaky], cfg(), &ckpt, &tel));
            }))
            .expect_err("kill point fires");
            assert!(
                died.downcast_ref::<CrashSignal>().is_some(),
                "process crashes must escape as CrashSignal, not be retried"
            );
        }
        let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
        let (out, report) = reduce_cf_resilient_resumable(
            &h,
            &[&flaky],
            cfg(),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, 1);
        assert_eq!(out.reduction.records, baseline.reduction.records);
        assert_eq!(out.reduction.coloring, baseline.reduction.coloring);
        assert_eq!(out.retries, baseline.retries);
        assert_eq!(out.fault_log, baseline.fault_log, "fault log survives the crash");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
