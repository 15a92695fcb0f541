//! The hardness direction of Theorem 1.1: solving conflict-free
//! multicoloring through a `λ`-approximate MaxIS oracle.
//!
//! Following the paper's proof verbatim: fix `k` such that `H` admits a
//! conflict-free `k`-coloring, set `ρ = λ·ln m + 1`, and run phases
//! `i = 1..ρ`. In phase `i`, build the conflict graph `G_k^i` of the
//! residual hypergraph `H_i = (V, E_i)`, obtain a `λ`-approximate
//! independent set `I_i`, color each vertex `v` with `(v,?,c) ∈ I_i`
//! using color `c` from a **fresh palette**, and remove the happy edges.
//! Per Lemma 2.1, `|I_i| ≥ |E_i|/λ`, so
//! `|E_{i+1}| ≤ (1 − 1/λ)·|E_i|` and after `ρ` phases
//! `(1 − 1/λ)^ρ · m < 1` — no edge remains. The output multicoloring is
//! conflict-free with at most `k·ρ` colors.
//!
//! [`reduce_cf_to_maxis`] implements exactly that loop, recording every
//! per-phase quantity the experiment suite (T4, F1, F2) tabulates, plus
//! the [`LocalityBudget`] that certifies the reduction's
//! polylogarithmic overhead.
//!
//! The loop itself (`run_phases`) is shared by every driver: it owns
//! λ, ρ and the budget, the certified-decay gate, journal replay and
//! appends, the deadline check, the crash points, the commit, and the
//! restriction. The drivers differ only in their **acquisition
//! policy** — how one phase's independent set is obtained at a call
//! site (the whole conflict graph, or one component of it). The
//! trusting policy here makes one oracle call and takes the answer;
//! the resilient policy ([`crate::resilient`]) walks a fallback chain
//! with retries, validation, and panic isolation; the distributed
//! pipeline ([`crate::distributed`]) bills each call's LOCAL rounds.

use crate::components::{largest_first, HyperedgePartition, ParallelismOptions};
use crate::conflict_graph::{ConflictGraph, ConflictGraphOptions};
use crate::correspondence;
use crate::recovery::{
    self, Checkpointing, DriverKind, JournalPhase, PhaseJournal, RecoveryReport, StoredFaultEvent,
};
use crate::resilient::{
    FaultEvent, FaultEventKind, PartialOutcome, ResilientFailure, ResilientOutcome,
};
use crate::workspace::PhaseWorkspace;
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_graph::{
    BitsetScratch, HyperedgeId, Hypergraph, IndependentSet, KernelStrategy, Palette,
};
use pslocal_maxis::{ApproxGuarantee, CrashPoint, MaxIsOracle};
use pslocal_slocal::LocalityBudget;
use pslocal_telemetry::{names, span, Counter, Histogram, Sink, Span, Telemetry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// The locality charged to one oracle invocation in the reduction's
/// [`LocalityBudget`]: `⌈log₂(max(n, 2))⌉` for an `n`-vertex input —
/// the polylogarithmic view radius footnote 2 grants the P-SLOCAL
/// oracle. Shared by the trusting and resilient drivers so their
/// accounting cannot drift.
pub fn oracle_locality(n: usize) -> usize {
    ((n.max(2) as f64).log2().ceil()) as usize
}

/// The Lemma 2.1 delivery quota `⌈edges / λ⌉`, computed exactly.
///
/// For integral λ (every certified oracle: λ = 1, Δ+1, or a color
/// count) the quotient is pure integer `div_ceil`. Fractional λ is
/// decomposed into its exact IEEE-754 rational `mant · 2^exp`
/// (`mant < 2^53`, and `λ ≥ 1` forces `exp ≥ -52`), so the quota is
/// the integer `⌈edges · 2^{-exp} / mant⌉` over `u128` — no round trip
/// through `edges as f64`, which loses bits past `2^53` and used to
/// under-count the quota by 1 at the boundary.
///
/// # Panics
///
/// Panics if `lambda < 1.0` (no λ-approximation is better than exact).
pub fn lemma_2_1_quota(edges: usize, lambda: f64) -> usize {
    assert!(lambda >= 1.0, "approximation factor λ must be ≥ 1, got {lambda}");
    if edges == 0 {
        return 0;
    }
    if lambda.fract() == 0.0 && lambda <= usize::MAX as f64 {
        return edges.div_ceil(lambda as usize);
    }
    // λ is finite and ≥ 1, hence normal: λ = mant · 2^exp exactly.
    let bits = lambda.to_bits();
    let mant = (1u128 << 52) | (bits as u128 & ((1 << 52) - 1));
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1075;
    if exp >= 0 {
        // Every f64 with a nonnegative unbiased mantissa exponent is an
        // integer, so reaching here means λ > usize::MAX ≥ edges.
        return 1;
    }
    // `exp ∈ [-52, -1]`: the numerator is < 2^(64+52), comfortably u128.
    let num = (edges as u128) << (-exp as u32);
    num.div_ceil(mant) as usize
}

/// The largest residual edge count a phase may leave behind under the
/// Lemma 2.1 geometric-decay invariant: `⌊(1 − 1/λ)·|E_i|⌋`. Shared by
/// both drivers' decay checks and the recovery layer's replay
/// re-check, so the three enforcement sites cannot drift.
pub(crate) fn decay_allowed(edges_before: usize, lambda: f64) -> usize {
    ((1.0 - 1.0 / lambda) * edges_before as f64).floor() as usize
}

/// One phase's commit, exactly as both drivers (and journal replay)
/// perform it: decode the partial coloring from the accepted
/// independent set (Lemma 2.1 b), merge it under the phase's fresh
/// palette, and drop the edges it made happy. `keep_pos` holds the
/// survivors' positions *within the incoming residual* — their
/// hyperedge ids inside `cg`'s hypergraph, which is what the
/// incremental conflict-graph restriction consumes.
pub(crate) struct PhaseCommit {
    pub keep_pos: Vec<HyperedgeId>,
    pub edges_after: usize,
}

/// The single shared implementation of the phase commit. The trusting
/// driver, the resilient driver, and journal replay all call this one
/// function, which is what makes a resumed run byte-identical to an
/// uninterrupted one *by construction* rather than by parallel
/// maintenance of three copies.
pub(crate) fn commit_phase(
    h: &Hypergraph,
    cg: &ConflictGraph,
    set: &IndependentSet,
    k: usize,
    phase: usize,
    coloring: &mut Multicoloring,
    residual: &mut Vec<HyperedgeId>,
) -> PhaseCommit {
    // Lemma 2.1 b): decode the partial coloring f_{I_i}, under a fresh
    // palette per phase.
    let decoded = correspondence::lemma_2_1b(cg, set);
    let phase_colors = correspondence::apply_palette(&decoded.coloring, Palette::phase(k, phase));
    coloring.merge(&phase_colors);
    // Remove happy edges (at least |I_i| of them by the lemma; new
    // colors never un-happy an edge, so checking the cumulative
    // coloring is sound).
    let mut keep_pos: Vec<HyperedgeId> = Vec::new();
    let mut survivors: Vec<HyperedgeId> = Vec::new();
    for (pos, &e) in residual.iter().enumerate() {
        if !checker::is_edge_happy(h, coloring, e) {
            keep_pos.push(HyperedgeId::new(pos));
            survivors.push(e);
        }
    }
    *residual = survivors;
    PhaseCommit { keep_pos, edges_after: residual.len() }
}

/// Configuration of the reduction.
#[derive(Debug, Clone, Copy)]
pub struct ReductionConfig {
    /// The palette size `k` for which the instance is promised to admit
    /// a conflict-free `k`-coloring (known by construction for planted
    /// instances).
    pub k: usize,
    /// Overrides the oracle's theoretical λ in the phase budget
    /// (useful to probe tightness; `None` = use the oracle's own λ on
    /// the first-phase conflict graph).
    pub lambda_override: Option<f64>,
    /// Hard cap on phases regardless of the computed `ρ` (safety for
    /// heuristic oracles); `None` = exactly `ρ`.
    pub max_phases: Option<usize>,
    /// Component-parallel phase execution (see [`crate::components`]).
    /// The serial default keeps the driver on its historical one-call-
    /// per-phase path; with `threads > 1`, phases whose conflict graph
    /// is disconnected solve each component concurrently and merge —
    /// sound because Lemma 2.1 applies per component and the phase
    /// budget `ρ` is unaffected.
    pub parallelism: ParallelismOptions,
    /// Which adjacency kernel the phase conflict graphs run on:
    /// [`KernelStrategy::Auto`] (the default) takes the word-parallel
    /// bit-row route when the density heuristic favors it, `Csr` and
    /// `Bitset` force a route. Every kernel produces byte-identical
    /// phase outputs (the bitset equivalence suite proves it); only the
    /// cost differs.
    pub kernel: KernelStrategy,
}

impl ReductionConfig {
    /// Default configuration for a promised palette size `k`.
    pub fn new(k: usize) -> Self {
        ReductionConfig {
            k,
            lambda_override: None,
            max_phases: None,
            parallelism: ParallelismOptions::serial(),
            kernel: KernelStrategy::Auto,
        }
    }

    /// Returns the configuration with component-parallel phase
    /// execution on up to `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = ParallelismOptions::with_threads(threads);
        self
    }

    /// Computes the paper's phase budget `ρ = ⌈λ·ln m⌉ + 1`.
    pub fn rho(lambda: f64, m: usize) -> usize {
        if m <= 1 {
            // (1 - 1/λ)^ρ · 1 < 1 after a single phase.
            return 1;
        }
        (lambda * (m as f64).ln()).ceil() as usize + 1
    }
}

/// Per-phase record of the reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index (0-based).
    pub phase: usize,
    /// Residual edges `|E_i|` at phase start.
    pub edges_before: usize,
    /// Vertices of the phase's conflict graph `G_k^i`.
    pub conflict_nodes: usize,
    /// Edges of `G_k^i`.
    pub conflict_edges: usize,
    /// Size of the oracle's independent set `|I_i|`.
    pub independent_set_size: usize,
    /// Happy edges removed this phase (`≥ |I_i|` by Lemma 2.1 b).
    pub edges_removed: usize,
    /// Residual edges `|E_{i+1}|` after the phase.
    pub edges_after: usize,
}

/// Result of a successful reduction run.
#[derive(Debug, Clone)]
pub struct ReductionOutcome {
    /// The conflict-free multicoloring of the input hypergraph.
    pub coloring: Multicoloring,
    /// The λ used for the phase budget.
    pub lambda: f64,
    /// The paper's phase budget `ρ = ⌈λ ln m⌉ + 1`.
    pub rho: usize,
    /// Phases actually executed (`≤ rho`).
    pub phases_used: usize,
    /// Total distinct colors used (`≤ k·phases_used ≤ k·ρ`).
    pub total_colors: usize,
    /// Per-phase records.
    pub records: Vec<PhaseRecord>,
    /// Locality accounting of the local reduction (footnote 2): one
    /// oracle call per phase; the pre/post-processing (building `G_k^i`
    /// and decoding `f_{I_i}`) is locality 1 in the primal graph of `H`
    /// (see `simulation`).
    pub locality: LocalityBudget,
}

/// Failure modes of the reduction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReductionError {
    /// Edges survived the phase budget — the supplied oracle did not
    /// deliver its promised λ (impossible for certified oracles on
    /// CF-k-colorable instances, by the paper's analysis).
    PhaseBudgetExhausted {
        /// The budget that was exhausted.
        rho: usize,
        /// Edges still unhappy.
        remaining_edges: usize,
    },
    /// The oracle claims no guarantee and no override was supplied.
    NoLambdaAvailable,
    /// A phase failed the geometric-decay invariant
    /// `|E_{i+1}| ≤ (1 − 1/λ)|E_i|` promised by Lemma 2.1 — only
    /// reportable when λ is the oracle's *certified* factor.
    DecayViolated {
        /// The offending phase.
        phase: usize,
        /// Edges before.
        before: usize,
        /// Edges after.
        after: usize,
        /// The certified λ.
        lambda: f64,
    },
    /// The resilient driver (`crate::resilient`) spent its entire
    /// retry/fallback budget inside one phase without obtaining an
    /// acceptable independent set from any oracle in the chain.
    RetriesExhausted {
        /// The phase that could not complete.
        phase: usize,
        /// Total oracle attempts spent in that phase.
        attempts: usize,
    },
    /// The caller's deadline passed before the reduction finished. Only
    /// raised at a phase boundary (cooperative cancellation — a running
    /// oracle call is never interrupted), so the partial outcome is
    /// always a whole number of committed phases.
    DeadlineExceeded {
        /// The first phase that did not run.
        phase: usize,
    },
    /// A checkpointing run could not read or durably write its phase
    /// journal, or the journal belongs to a different run
    /// configuration. The reduction state itself is fine — this is the
    /// recovery layer (`crate::recovery`) refusing to continue without
    /// durability rather than silently degrading to a non-resumable
    /// run.
    CheckpointFailed {
        /// The underlying journal error, stringified.
        message: String,
    },
}

impl fmt::Display for ReductionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionError::PhaseBudgetExhausted { rho, remaining_edges } => write!(
                f,
                "phase budget ρ = {rho} exhausted with {remaining_edges} unhappy edges left"
            ),
            ReductionError::NoLambdaAvailable => {
                write!(f, "oracle provides no guarantee and no λ override was given")
            }
            ReductionError::DecayViolated { phase, before, after, lambda } => write!(
                f,
                "phase {phase}: {before} → {after} edges violates the (1 - 1/{lambda}) decay"
            ),
            ReductionError::RetriesExhausted { phase, attempts } => write!(
                f,
                "phase {phase}: no oracle produced an acceptable set in {attempts} attempts"
            ),
            ReductionError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded at the boundary of phase {phase}")
            }
            ReductionError::CheckpointFailed { message } => {
                write!(f, "checkpointing failed: {message}")
            }
        }
    }
}

impl Error for ReductionError {}

/// Runs the Theorem 1.1 reduction: conflict-free multicoloring of `h`
/// via the MaxIS-approximation `oracle`.
///
/// # Errors
///
/// See [`ReductionError`]. On success the returned coloring is
/// conflict-free (additionally re-verified internally).
pub fn reduce_cf_to_maxis<O: MaxIsOracle + ?Sized>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
) -> Result<ReductionOutcome, ReductionError> {
    reduce_cf_to_maxis_traced(h, oracle, config, &Telemetry::disabled())
}

/// [`reduce_cf_to_maxis`] under a telemetry pipeline: a `reduction`
/// root span contains the initial `conflict-graph` build and one
/// `phase i` span per phase, each with `oracle`/`commit`/`restrict`
/// children and `edges_removed`/`oracle_calls` counters — the span tree
/// [`PhaseTimeline`](pslocal_telemetry::PhaseTimeline) aggregates.
/// With a disabled pipeline this is exactly `reduce_cf_to_maxis`.
///
/// # Errors
///
/// See [`ReductionError`].
pub fn reduce_cf_to_maxis_traced<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    tel: &Telemetry<S>,
) -> Result<ReductionOutcome, ReductionError> {
    reduce_cf_to_maxis_with_workspace(h, oracle, config, tel, &mut PhaseWorkspace::new())
}

/// [`reduce_cf_to_maxis_traced`] running through a caller-owned
/// [`PhaseWorkspace`], so repeated reductions (benchmark iterations,
/// experiment sweeps) recycle the phase loop's scratch buffers instead
/// of re-allocating them per run. The outcome is byte-identical to the
/// workspace-less entry points — the workspace carries no semantic
/// state (see [`crate::workspace`]).
///
/// # Errors
///
/// See [`ReductionError`].
pub fn reduce_cf_to_maxis_with_workspace<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    tel: &Telemetry<S>,
    ws: &mut PhaseWorkspace,
) -> Result<ReductionOutcome, ReductionError> {
    reduce_trusting(h, oracle, config, tel, None, ws).map(|(outcome, _)| outcome)
}

/// [`reduce_cf_to_maxis_traced`] with crash-safe checkpointing: every
/// committed phase is durably appended to the [`PhaseJournal`] in
/// `checkpoint.dir`, and with [`Checkpointing::resume`] an existing
/// journal is replayed (each record re-validated against the instance —
/// see [`crate::recovery`]) so the run continues from the last good
/// phase. The outcome is **byte-identical** to an uninterrupted run:
/// replay re-commits through the same code path and
/// [`MaxIsOracle::resume_at`] repositions per-call oracle state.
///
/// # Errors
///
/// See [`ReductionError`]; additionally
/// [`ReductionError::CheckpointFailed`] when the journal cannot be
/// read or durably written, or belongs to a different run
/// configuration.
pub fn reduce_cf_to_maxis_resumable<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    checkpoint: &Checkpointing,
    tel: &Telemetry<S>,
) -> Result<(ReductionOutcome, RecoveryReport), ReductionError> {
    reduce_trusting(h, oracle, config, tel, Some(checkpoint), &mut PhaseWorkspace::new())
}

/// The trusting driver: [`run_phases`] under the [`Trusting`] policy,
/// keeping only the error of a failure (it has no fault log to
/// salvage).
fn reduce_trusting<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    tel: &Telemetry<S>,
    checkpoint: Option<&Checkpointing>,
    ws: &mut PhaseWorkspace,
) -> Result<(ReductionOutcome, RecoveryReport), ReductionError> {
    run_phases(h, &Trusting(oracle), config, tel, checkpoint, ws, None)
        .map(|(outcome, report)| (outcome.reduction, report))
        .map_err(|failure| failure.error)
}

/// Whether `guarantee` holds per instance: exact (λ = 1) and
/// maximal-IS-based (λ = Δ+1). Only these gate the decay invariant and
/// the Lemma 2.1 delivery quota. Asymptotic guarantees (clique
/// removal's O(n/log²n)) and conditional ones (decomposition with
/// greedy fallback) are measured by the experiments instead.
pub(crate) fn is_certified(guarantee: ApproxGuarantee) -> bool {
    matches!(guarantee, ApproxGuarantee::Exact | ApproxGuarantee::MaxDegreePlusOne)
}

/// The oracle's concrete λ on a phase conflict graph, preferring the
/// dense route ([`MaxIsOracle::lambda_for_dense`]) when the graph was
/// built on the bitset kernel, so the budget computation does not
/// force a CSR materialization.
pub(crate) fn lambda_for_phase<O: MaxIsOracle + ?Sized>(
    cg: &ConflictGraph,
    oracle: &O,
) -> Option<f64> {
    if let Some(bits) = cg.bitset() {
        if let Some(l) = oracle.lambda_for_dense(bits) {
            return Some(l);
        }
    }
    oracle.lambda_for(cg.graph())
}

/// The graph one oracle call runs on: a phase conflict graph — the
/// whole one on the serial path, one component's own `G_k` on the
/// component path. Calls take the word-parallel dense kernel
/// ([`MaxIsOracle::independent_set_dense`], byte-identical by the
/// oracle's dense contract) when the graph was built on the bitset
/// route and the oracle supports it. The scratch is state-free across
/// calls, so a caught panic mid-kernel cannot poison a retry.
pub(crate) struct CallSite<'a> {
    /// The conflict graph the oracle is called on.
    pub cg: &'a ConflictGraph,
    /// The dense kernel's scratch (one per worker).
    pub scratch: &'a mut BitsetScratch,
}

impl CallSite<'_> {
    /// Asks `oracle` for an independent set of this site's graph.
    pub(crate) fn call<O: MaxIsOracle + ?Sized>(&mut self, oracle: &O) -> IndependentSet {
        match self.cg.bitset() {
            Some(bits) if oracle.supports_dense() => {
                oracle.independent_set_dense(bits, self.scratch)
            }
            _ => oracle.independent_set(self.cg.graph()),
        }
    }

    /// Whether `set` is independent in this site's graph (range check
    /// plus full adjacency re-check).
    pub(crate) fn is_independent(&self, set: &IndependentSet) -> bool {
        self.cg.verify_independent(set)
    }

    /// `oracle`'s concrete λ on this site's graph.
    pub(crate) fn lambda<O: MaxIsOracle + ?Sized>(&self, oracle: &O) -> Option<f64> {
        lambda_for_phase(self.cg, oracle)
    }
}

/// One oracle call site of a phase, as an [`Acquisition`] policy sees
/// it.
pub(crate) struct Site<'a, S: Sink> {
    /// The graph the oracle is called on.
    pub graph: CallSite<'a>,
    /// The phase being acquired.
    pub phase: usize,
    /// The component, on the component path; `None` on the serial path.
    pub component: Option<usize>,
    /// Residual hyperedges the site covers: the Lemma 2.1 quota base
    /// (the hyperedges of the site's graph).
    pub edges: usize,
    /// Parent of the site's `oracle` spans (the phase or component span).
    pub span: &'a Span<'a, S>,
    /// Counter ticked on `span` per oracle call.
    pub calls_counter: Counter,
}

/// What an [`Acquisition`] policy got out of one [`Site`].
pub(crate) struct Solved {
    /// The accepted set, the chain slot that produced it, and the
    /// Lemma 2.1 quota enforced on it (0 = none); `None` when every
    /// attempt was rejected.
    pub accepted: Option<(IndependentSet, usize, usize)>,
    /// Oracle calls made at the site.
    pub attempts: usize,
}

/// How one phase's independent set is obtained — the only thing the
/// drivers do differently. [`run_phases`] owns everything else.
///
/// A policy holds a **chain** of oracles (slot 0 is the primary). The
/// primary's λ on the first conflict graph sets the phase budget and
/// its certification ([`is_certified`]) gates the decay invariant;
/// [`solve`](Self::solve) is called once per call site
/// — once per phase on the serial path, once per component on the
/// component path, possibly concurrently.
/// The defaults describe a single-oracle chain.
pub(crate) trait Acquisition: Sync {
    /// The driver tag journaled in the header.
    const DRIVER: DriverKind = DriverKind::Trusting;

    /// The primary oracle's type.
    type Primary: MaxIsOracle + ?Sized;

    /// The primary oracle (slot 0). Only called on a non-empty chain.
    fn primary(&self) -> &Self::Primary;

    /// The chain's oracles, primary first.
    fn chain_names(&self) -> Vec<&'static str> {
        vec![self.primary().name()]
    }

    /// Repositions every slot's per-call state at its cumulative call
    /// count after a journal replay ([`MaxIsOracle::resume_at`]).
    fn resume_at(&self, chain_calls: &[u64]) {
        self.primary().resume_at(chain_calls[0] as usize);
    }

    /// Obtains an independent set at `site`, adding each slot's oracle
    /// invocations to `calls` and reporting every fault to `fault`.
    fn solve<S: Sink>(
        &self,
        site: Site<'_, S>,
        calls: &mut [u64],
        fault: &mut impl FnMut(FaultEvent),
    ) -> Solved;
}

/// The trusting policy: one oracle, one call per site, no validation.
/// The paper's analysis assumes every answer is a genuine independent
/// set of size `≥ |E_i|/λ`, and this policy takes it at its word.
struct Trusting<'o, O: ?Sized>(&'o O);

impl<O: MaxIsOracle + ?Sized> Acquisition for Trusting<'_, O> {
    type Primary = O;

    fn primary(&self) -> &O {
        self.0
    }

    fn solve<S: Sink>(
        &self,
        mut site: Site<'_, S>,
        calls: &mut [u64],
        _fault: &mut impl FnMut(FaultEvent),
    ) -> Solved {
        let oracle_span = span!(site.span, names::ORACLE, 0);
        let set = site.graph.call(self.0);
        oracle_span.sample(Histogram::IndependentSetSize, set.len() as u64);
        oracle_span.close();
        site.span.add(site.calls_counter, 1);
        calls[0] += 1;
        Solved { accepted: Some((set, 0, 0)), attempts: 1 }
    }
}

/// The oracle accounting a run journals and resumes from.
struct Ledger {
    /// Cumulative `independent_set` invocations per chain slot: the
    /// positions [`MaxIsOracle::resume_at`] restores on resume.
    chain_calls: Vec<u64>,
    /// Attempts beyond the first, summed over phases.
    retries: usize,
    /// Times a later chain slot was engaged.
    fallbacks: usize,
    /// Every fault observed, in order. Each entry is mirrored as a
    /// `fault_events` tick on the root span so a sink can cross-check
    /// the log length without seeing the log.
    fault_log: Vec<FaultEvent>,
}

/// The Theorem 1.1 phase loop behind every driver.
///
/// Following the paper, fix λ from the primary oracle on the first
/// conflict graph (the largest one — λ for Δ+1-type guarantees only
/// shrinks as edges vanish), set the budget `ρ`, then per phase:
/// check the deadline, acquire an independent set through `policy`,
/// commit it by Lemma 2.1, check the decay invariant, journal the
/// phase, and restrict the conflict graph to the surviving hyperedges.
/// The four [`CrashPoint`]s bracket those steps. Failures carry the
/// verified partial progress; the trusting driver keeps only the error.
///
/// The decay invariant `|E_{i+1}| ≤ (1 − 1/λ)|E_i|` is enforced only
/// for a certified primary without a λ override, and only on phases
/// the primary answered (fallback commits are already annotated in the
/// fault log). Journal replay re-checks under the same gate.
#[allow(clippy::result_large_err)]
pub(crate) fn run_phases<P: Acquisition, S: Sink>(
    h: &Hypergraph,
    policy: &P,
    config: ReductionConfig,
    tel: &Telemetry<S>,
    checkpoint: Option<&Checkpointing>,
    ws: &mut PhaseWorkspace,
    deadline: Option<Instant>,
) -> Result<(ResilientOutcome, RecoveryReport), ResilientFailure> {
    let root = span!(tel, names::REDUCTION);
    let k = config.k;
    let slots = policy.chain_names().len();
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();
    let mut records: Vec<PhaseRecord> = Vec::new();
    let mut ledger =
        Ledger { chain_calls: vec![0; slots], retries: 0, fallbacks: 0, fault_log: Vec::new() };

    macro_rules! fail {
        ($error:expr) => {
            return Err(ResilientFailure {
                error: $error,
                partial: PartialOutcome { coloring, residual_edges: residual, records },
                fault_log: ledger.fault_log,
            })
        };
    }

    if slots == 0 {
        fail!(ReductionError::RetriesExhausted { phase: 0, attempts: 0 });
    }

    let first_cg =
        ConflictGraph::build_traced(h, k, ConflictGraphOptions::with_kernel(config.kernel), &root);
    let lambda = match config.lambda_override {
        Some(l) => l,
        None => match lambda_for_phase(&first_cg, policy.primary()) {
            Some(l) => l,
            None => fail!(ReductionError::NoLambdaAvailable),
        },
    };
    let rho = ReductionConfig::rho(lambda, h.edge_count());
    let budget = config.max_phases.unwrap_or(rho).min(rho);
    let enforce_decay = is_certified(policy.primary().guarantee())
        && config.lambda_override.is_none()
        && lambda >= 1.0;

    // Phase-incremental pipeline: `G_k^{i+1}` is the induced subgraph
    // of `G_k^i` on the surviving hyperedges' triple blocks (removing
    // edges never creates conflicts), so each later phase filters the
    // retained CSR rows of the previous graph instead of re-running the
    // construction kernel — see `ConflictGraph::restrict_to_edges`.
    let mut cg = first_cg;
    let mut phase = 0usize;
    let mut report = RecoveryReport::default();
    let mut journal: Option<PhaseJournal> = None;
    let crash = checkpoint.and_then(|c| c.crash.as_ref());

    if let Some(ckpt) = checkpoint {
        let ctx = recovery::ReplayCtx {
            h,
            driver: P::DRIVER,
            k,
            lambda,
            rho,
            budget,
            threads: config.parallelism.threads,
            enforce_decay,
            chain_names: policy.chain_names(),
        };
        let replayed = match recovery::open_or_replay(
            &ctx,
            ckpt,
            &mut cg,
            &mut coloring,
            &mut residual,
            &root,
        ) {
            Ok(replayed) => replayed,
            Err(e) => fail!(ReductionError::CheckpointFailed { message: e.to_string() }),
        };
        phase = replayed.phase;
        records = replayed.records;
        // Replayed events re-enter the log (and the mirror counter, so
        // `fault_events == fault_log.len()` still holds on resume).
        root.add(Counter::FaultEvents, replayed.fault_log.len() as u64);
        ledger = Ledger {
            chain_calls: replayed.chain_calls,
            retries: replayed.retries as usize,
            fallbacks: replayed.fallbacks as usize,
            fault_log: replayed.fault_log,
        };
        report = replayed.report;
        journal = Some(replayed.journal);
        policy.resume_at(&ledger.chain_calls);
    }

    while !residual.is_empty() && phase < budget {
        // Cooperative cancellation: overdue runs stop at the phase
        // boundary with salvage (whole committed phases only).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            fail!(ReductionError::DeadlineExceeded { phase });
        }
        let phase_span = span!(root, names::PHASE, phase);
        let edges_before = residual.len();
        let phase_log_start = ledger.fault_log.len();
        // The journal stores the conflict graph's fingerprint *at phase
        // start* — the graph the set is about to be chosen on. The
        // dense and CSR routes fingerprint to the same value, so the
        // journal stays kernel-agnostic.
        let cg_fingerprint = journal.as_ref().map(|_| cg.fingerprint());
        recovery::maybe_crash(crash, phase, CrashPoint::MidOracle);
        let acquired = acquire_phase(
            policy,
            &cg,
            phase,
            edges_before,
            config.parallelism,
            ws,
            &mut ledger,
            &phase_span,
            &root,
        );
        let (set, primary, quota_required) = match acquired {
            Ok(acquired) => acquired,
            Err(error) => fail!(error),
        };
        recovery::maybe_crash(crash, phase, CrashPoint::AfterOracle);

        let commit_span = span!(phase_span, names::COMMIT);
        let commit = commit_phase(h, &cg, &set, k, phase, &mut coloring, &mut residual);
        let edges_after = commit.edges_after;
        commit_span.add(Counter::HappyEdges, (edges_before - edges_after) as u64);
        commit_span.close();
        phase_span.add(Counter::EdgesRemoved, (edges_before - edges_after) as u64);
        root.add(Counter::Phases, 1);

        records.push(PhaseRecord {
            phase,
            edges_before,
            conflict_nodes: cg.node_count(),
            conflict_edges: cg.edge_count(),
            independent_set_size: set.len(),
            edges_removed: edges_before - edges_after,
            edges_after,
        });

        if primary && enforce_decay && edges_after > decay_allowed(edges_before, lambda) {
            fail!(ReductionError::DecayViolated {
                phase,
                before: edges_before,
                after: edges_after,
                lambda,
            });
        }

        if let Some(j) = journal.as_mut() {
            recovery::maybe_crash(crash, phase, CrashPoint::BeforeJournal);
            let write_span = span!(phase_span, names::CHECKPOINT_WRITE);
            let entry = JournalPhase {
                phase,
                // pslocal: allow(panic-path, "the fingerprint is computed earlier in this same journaling branch; None here is a control-flow bug")
                cg_fingerprint: cg_fingerprint.expect("computed while journaling"),
                set: set.vertices().iter().map(|v| v.index() as u64).collect(),
                // pslocal: allow(panic-path, "records.push happened unconditionally a few lines up, so last() always exists")
                record: records.last().expect("just pushed").clone(),
                quota_required,
                primary,
                chain_calls: ledger.chain_calls.clone(),
                retries: ledger.retries as u64,
                fallbacks: ledger.fallbacks as u64,
                events: ledger.fault_log[phase_log_start..]
                    .iter()
                    .map(StoredFaultEvent::from_event)
                    .collect(),
            };
            let bytes = match j.append_phase(entry) {
                Ok(bytes) => bytes,
                Err(e) => fail!(ReductionError::CheckpointFailed { message: e.to_string() }),
            };
            write_span.add(Counter::JournalBytes, bytes);
            write_span.close();
            report.journal_bytes = bytes;
            recovery::maybe_crash(crash, phase, CrashPoint::AfterJournal);
        }

        phase += 1;
        if !residual.is_empty() && phase < budget {
            let restrict_span = span!(phase_span, names::RESTRICT);
            let restricted =
                cg.restrict_to_edges_in(&commit.keep_pos, &mut ws.arena, &mut ws.nodes);
            // Recycle the retired graph's CSR buffers (if materialized)
            // into the arena for the next phase's build.
            if let Some(old) = std::mem::replace(&mut cg, restricted).into_graph() {
                ws.arena.recycle(old);
            }
            restrict_span.add(Counter::CsrBytes, cg.csr_bytes());
        }
    }

    if !residual.is_empty() {
        fail!(ReductionError::PhaseBudgetExhausted {
            rho: budget,
            remaining_edges: residual.len()
        });
    }

    debug_assert!(checker::is_conflict_free(h, &coloring));
    let total_colors = coloring.total_color_count();
    Ok((
        ResilientOutcome {
            reduction: ReductionOutcome {
                coloring,
                lambda,
                rho,
                phases_used: phase,
                total_colors,
                records,
                locality: LocalityBudget {
                    own_locality: 1,
                    oracle_calls: phase,
                    oracle_locality: oracle_locality(h.node_count()),
                },
            },
            fault_log: ledger.fault_log,
            retries: ledger.retries,
            fallbacks_engaged: ledger.fallbacks,
        },
        report,
    ))
}

/// Obtains one phase's independent set through `policy`.
///
/// The serial path (one thread, or a connected/empty conflict graph) is
/// one [`Site`] on the whole graph, with its `oracle` spans directly
/// under the phase span. With `threads > 1` and at least two residual
/// hyperedges, a `partition` span splits the phase's hypergraph into
/// the components of `G_k` ([`HyperedgePartition`]). If there are
/// several, each component is one site on its own `G_k`, built in the
/// worker that claims it (a fault retries only its component, never its
/// siblings): the phase span gains `components` / `largest_component`
/// counters and one `component` span per component holding that
/// component's `conflict-graph` build and its site's `oracle` spans,
/// and the per-component sets merge under the machine-checked
/// disjointness and independence checks. `Counter::OracleCalls` counts
/// every oracle invocation either way.
///
/// Returns the set, whether the primary answered everywhere, and the
/// Lemma 2.1 quota enforced on it, which the journal records so replay
/// re-demands exactly what the run demanded. The component path records
/// 0: per-component quotas ⌈m_c/λ_c⌉, possibly met by fallback slots,
/// do not reduce to one whole-graph number. A site whose attempts were
/// all rejected fails the whole phase — no partial commit, so salvage
/// stays a whole-phase boundary.
#[allow(clippy::too_many_arguments)]
fn acquire_phase<P: Acquisition, S: Sink>(
    policy: &P,
    cg: &ConflictGraph,
    phase: usize,
    edges_before: usize,
    parallelism: ParallelismOptions,
    ws: &mut PhaseWorkspace,
    ledger: &mut Ledger,
    phase_span: &Span<'_, S>,
    root: &Span<'_, S>,
) -> Result<(IndependentSet, bool, usize), ReductionError> {
    let Ledger { chain_calls, retries, fallbacks, fault_log } = ledger;
    // `Err((component, attempts))`: a site had every attempt rejected.
    let acquired = 'acquire: {
        // One residual hyperedge is one component: nothing to split.
        if parallelism.is_parallel() && cg.hypergraph().edge_count() > 1 {
            let partition_span = span!(phase_span, names::PARTITION);
            let split = HyperedgePartition::of(cg);
            partition_span.close();
            if split.len() > 1 {
                let parts = split.len();
                phase_span.add(Counter::Components, parts as u64);
                phase_span.add(Counter::LargestComponent, split.largest_size() as u64);
                let sizes: Vec<usize> = (0..parts).map(|c| split.node_count(c)).collect();
                let slots = chain_calls.len();
                let results =
                    largest_first(&sizes, parallelism.threads, BitsetScratch::new, |scratch, c| {
                        let comp_span = span!(phase_span, names::COMPONENT, c);
                        // The component's own G_k, on whichever kernel
                        // Auto picks for it: the induced subgraph of `cg`
                        // on the component's blocks, renumbered monotonely.
                        let (h_c, _) = cg.hypergraph().restrict_edges(split.edges(c));
                        let comp_cg =
                            ConflictGraph::build_traced(&h_c, cg.k(), cg.options(), &comp_span);
                        let site = Site {
                            graph: CallSite { cg: &comp_cg, scratch },
                            phase,
                            component: Some(c),
                            edges: split.edges(c).len(),
                            span: &comp_span,
                            calls_counter: Counter::ParallelOracleCalls,
                        };
                        let mut calls = vec![0u64; slots];
                        let mut events = Vec::new();
                        let solved = policy.solve(site, &mut calls, &mut |ev| events.push(ev));
                        (solved, calls, events)
                    });
                // Aggregate in component-id order: the fault log, counters,
                // and merge result are deterministic regardless of how
                // workers interleaved.
                let mut total_attempts = 0usize;
                let mut accepted_count = 0usize;
                let mut all_primary = true;
                let mut first_failed: Option<usize> = None;
                let mut locals = Vec::with_capacity(parts);
                for (c, (solved, calls, events)) in results.into_iter().enumerate() {
                    total_attempts += solved.attempts;
                    let engaged = events
                        .iter()
                        .filter(|ev| ev.kind == FaultEventKind::FallbackEngaged)
                        .count();
                    *fallbacks += engaged;
                    phase_span.add(Counter::Fallbacks, engaged as u64);
                    for (total, n) in chain_calls.iter_mut().zip(calls) {
                        *total += n;
                    }
                    for ev in events {
                        root.add(Counter::FaultEvents, 1);
                        fault_log.push(ev);
                    }
                    match solved.accepted {
                        Some((set, slot, _)) => {
                            accepted_count += 1;
                            all_primary &= slot == 0;
                            locals.push(set);
                        }
                        None => {
                            first_failed.get_or_insert(c);
                            locals.push(IndependentSet::empty());
                        }
                    }
                }
                phase_span.add(Counter::OracleCalls, total_attempts as u64);
                let phase_retries = total_attempts - accepted_count;
                *retries += phase_retries;
                phase_span.add(Counter::Retries, phase_retries as u64);
                if let Some(c) = first_failed {
                    break 'acquire Err((Some(c), total_attempts));
                }
                break 'acquire Ok((split.merge(cg, locals), all_primary, 0));
            }
        }

        let site = Site {
            graph: CallSite { cg, scratch: &mut ws.scratch },
            phase,
            component: None,
            edges: edges_before,
            span: phase_span,
            calls_counter: Counter::OracleCalls,
        };
        let solved = policy.solve(site, chain_calls, &mut |ev| {
            if ev.kind == FaultEventKind::FallbackEngaged {
                *fallbacks += 1;
                phase_span.add(Counter::Fallbacks, 1);
            }
            root.add(Counter::FaultEvents, 1);
            fault_log.push(ev);
        });
        let phase_retries = solved.attempts.saturating_sub(1);
        *retries += phase_retries;
        phase_span.add(Counter::Retries, phase_retries as u64);
        match solved.accepted {
            Some((set, slot, quota)) => Ok((set, slot == 0, quota)),
            None => Err((None, solved.attempts)),
        }
    };
    acquired.map_err(|(component, attempts)| {
        root.add(Counter::FaultEvents, 1);
        fault_log.push(FaultEvent {
            phase,
            attempt: attempts.saturating_sub(1),
            oracle: policy.chain_names().last().copied().unwrap_or(""),
            component,
            kind: FaultEventKind::RetriesExhausted { attempts },
        });
        ReductionError::RetriesExhausted { phase, attempts }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::CrashPlan;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_maxis::{
        CliqueRemovalOracle, DecompositionOracle, ExactOracle, GreedyOracle, LubyOracle,
    };
    use rand::SeedableRng;

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    fn check_outcome(h: &Hypergraph, k: usize, out: &ReductionOutcome) {
        assert!(checker::is_conflict_free(h, &out.coloring), "output must be conflict-free");
        assert!(out.phases_used <= out.rho);
        assert!(out.total_colors <= k * out.phases_used.max(1));
        // Palette discipline: only phase palettes appear.
        let palettes: Vec<Palette> = (0..out.phases_used).map(|i| Palette::phase(k, i)).collect();
        assert!(out.coloring.uses_only_palettes(&palettes));
        // Records are consistent.
        let mut prev = h.edge_count();
        for r in &out.records {
            assert_eq!(r.edges_before, prev);
            assert_eq!(r.edges_before - r.edges_removed, r.edges_after);
            assert!(r.edges_removed >= r.independent_set_size);
            prev = r.edges_after;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn exact_oracle_needs_one_phase() {
        let k = 3;
        let h = planted(1, 30, 12, k);
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(k)).unwrap();
        check_outcome(&h, k, &out);
        // α(G_k) = m and exact finds it: every edge happy after phase 0.
        assert_eq!(out.phases_used, 1);
        assert_eq!(out.records[0].independent_set_size, 12);
        assert!((out.lambda - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_oracle_completes_within_budget() {
        let k = 3;
        let h = planted(2, 36, 15, k);
        let out = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        check_outcome(&h, k, &out);
        assert!(out.phases_used >= 1);
        assert!(out.lambda > 1.0, "greedy's λ = Δ(G_k)+1 > 1");
    }

    #[test]
    fn luby_and_clique_removal_complete() {
        let k = 2;
        let h = planted(3, 24, 10, k);
        for oracle in
            [Box::new(LubyOracle::new(5)) as Box<dyn MaxIsOracle>, Box::new(CliqueRemovalOracle)]
        {
            let out = reduce_cf_to_maxis(&h, oracle.as_ref(), ReductionConfig::new(k))
                .unwrap_or_else(|e| panic!("oracle {} failed: {e}", oracle.name()));
            check_outcome(&h, k, &out);
        }
    }

    #[test]
    fn decomposition_oracle_completes() {
        let k = 2;
        let h = planted(4, 24, 8, k);
        let out = reduce_cf_to_maxis(&h, &DecompositionOracle::default(), ReductionConfig::new(k))
            .unwrap();
        check_outcome(&h, k, &out);
    }

    #[test]
    fn rho_formula_matches_paper() {
        // ρ = ⌈λ ln m⌉ + 1.
        assert_eq!(ReductionConfig::rho(1.0, 20), (20f64).ln().ceil() as usize + 1);
        assert_eq!(ReductionConfig::rho(2.0, 100), (2.0 * (100f64).ln()).ceil() as usize + 1);
        assert_eq!(ReductionConfig::rho(5.0, 1), 1);
        assert_eq!(ReductionConfig::rho(5.0, 0), 1);
    }

    #[test]
    fn lambda_override_controls_budget() {
        let k = 2;
        let h = planted(5, 20, 6, k);
        let config = ReductionConfig { lambda_override: Some(1.0), ..ReductionConfig::new(k) };
        // Exact oracle with λ = 1: budget ρ = ln 6 + 1 ≈ 3; exact
        // finishes in 1.
        let out = reduce_cf_to_maxis(&h, &ExactOracle, config).unwrap();
        assert_eq!(out.phases_used, 1);
        assert_eq!(out.rho, ReductionConfig::rho(1.0, 6));
    }

    #[test]
    fn starving_budget_reports_exhaustion() {
        let k = 3;
        let h = planted(6, 36, 20, k);
        let config = ReductionConfig {
            lambda_override: Some(1000.0), // huge ρ, but…
            max_phases: Some(0),           // …no phases allowed
            ..ReductionConfig::new(k)
        };
        let err = reduce_cf_to_maxis(&h, &ExactOracle, config).unwrap_err();
        assert!(matches!(err, ReductionError::PhaseBudgetExhausted { remaining_edges: 20, .. }));
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn empty_hypergraph_is_trivially_colored() {
        let h = Hypergraph::from_edges(5, Vec::<Vec<usize>>::new()).unwrap();
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(2)).unwrap();
        assert_eq!(out.phases_used, 0);
        assert_eq!(out.total_colors, 0);
        assert!(out.records.is_empty());
    }

    #[test]
    fn locality_budget_is_polylog() {
        let k = 3;
        let h = planted(7, 40, 18, k);
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(k)).unwrap();
        // 1 phase · log-locality oracle + 1: comfortably polylog.
        assert!(out.locality.is_polylog(h.node_count(), 4.0, 2));
    }

    #[test]
    fn quota_is_exact_at_integral_boundaries() {
        // ⌈edges/λ⌉ at edges = k·λ and k·λ ± 1 for integral λ.
        for lambda in [1usize, 2, 3, 7, 64] {
            let l = lambda as f64;
            for k in [0usize, 1, 5, 1000] {
                assert_eq!(lemma_2_1_quota(k * lambda, l), k, "edges = {k}·{lambda}");
                assert_eq!(lemma_2_1_quota(k * lambda + 1, l), k + 1, "edges = {k}·{lambda}+1");
                if k >= 1 {
                    let expect = if lambda == 1 { k - 1 } else { k };
                    assert_eq!(
                        lemma_2_1_quota(k * lambda - 1, l),
                        expect,
                        "edges = {k}·{lambda}-1"
                    );
                }
            }
        }
    }

    #[test]
    fn quota_survives_f64_precision_loss() {
        // 2^53 + 1 is not representable in f64: the old epsilon-fudged
        // float ceiling rounded it down and under-demanded by one. The
        // integer path is exact.
        let edges = (1usize << 53) + 1;
        assert_eq!(lemma_2_1_quota(edges, 1.0), edges);
        assert_eq!(lemma_2_1_quota(edges, 2.0), edges.div_ceil(2));
    }

    #[test]
    fn quota_fractional_lambda_is_exact_ceiling() {
        assert_eq!(lemma_2_1_quota(10, 2.5), 4);
        assert_eq!(lemma_2_1_quota(7, 2.5), 3); // ⌈2.8⌉
        assert_eq!(lemma_2_1_quota(0, 2.5), 0);
    }

    #[test]
    fn quota_fractional_lambda_survives_f64_precision_loss() {
        // 2^53 + 1 is unrepresentable in f64, so the old fractional
        // path computed ⌈(2^53) / 2.5⌉ = 3602879701896397 — one short
        // of the true ⌈(2^53 + 1) / 2.5⌉ = ⌈(2^54 + 2) / 5⌉. The exact
        // rational path gets the boundary right.
        let edges = (1usize << 53) + 1;
        assert_eq!(lemma_2_1_quota(edges, 2.5), 3_602_879_701_896_398);
        // And the quota stays monotone across the 2^53 boundary.
        assert!(lemma_2_1_quota(edges, 2.5) >= lemma_2_1_quota(1usize << 53, 2.5));
    }

    #[test]
    fn quota_handles_extreme_lambdas() {
        // λ larger than any edge count: one surviving phase delivers all.
        assert_eq!(lemma_2_1_quota(10, 1e300), 1);
        assert_eq!(lemma_2_1_quota(usize::MAX, 2.0f64.powi(64) * 1.5), 1);
        // λ barely above 1 still demands everything.
        let just_above_one = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(lemma_2_1_quota(1usize << 40, just_above_one), 1usize << 40);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn quota_rejects_sub_unit_lambda() {
        let _ = lemma_2_1_quota(10, 0.5);
    }

    #[test]
    fn oracle_locality_is_ceil_log2() {
        assert_eq!(oracle_locality(0), 1);
        assert_eq!(oracle_locality(1), 1);
        assert_eq!(oracle_locality(2), 1);
        assert_eq!(oracle_locality(3), 2);
        assert_eq!(oracle_locality(1024), 10);
        assert_eq!(oracle_locality(1025), 11);
    }

    #[test]
    fn traced_run_produces_a_consistent_span_tree() {
        use pslocal_telemetry::{MemorySink, PhaseTimeline};
        let k = 3;
        let h = planted(9, 36, 16, k);
        let tel = Telemetry::new(MemorySink::new());
        let out = reduce_cf_to_maxis_traced(&h, &GreedyOracle, ReductionConfig::new(k), &tel)
            .expect("clean run");
        let sink = tel.into_sink();
        assert!(sink.open_spans().is_empty(), "all spans closed");
        let spans = sink.spans();
        let timeline = PhaseTimeline::from_spans(&spans).expect("reduction root");
        assert_eq!(timeline.phases.len(), out.phases_used);
        assert_eq!(sink.counter_total(Counter::Phases), out.phases_used as u64);
        assert_eq!(sink.counter_total(Counter::OracleCalls), out.phases_used as u64);
        assert_eq!(sink.counter_total(Counter::EdgesRemoved), h.edge_count() as u64);
        // Each phase's span-side edges_removed matches its record.
        for (timing, record) in timeline.phases.iter().zip(&out.records) {
            assert_eq!(timing.phase as usize, record.phase);
            assert_eq!(timing.edges_removed as usize, record.edges_removed);
            assert_eq!(timing.oracle_attempts, 1);
        }
        // The untraced entry point yields the identical outcome.
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        assert_eq!(base.records, out.records);

        // On the component path the oracle spans nest under `component`
        // spans; the timeline must still attribute every one of them.
        use pslocal_graph::generators::hyper::multi_component_cf_instance;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let h = multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 10, k), 4);
        let tel = Telemetry::new(MemorySink::new());
        let config = ReductionConfig::new(k).with_threads(2);
        reduce_cf_to_maxis_traced(&h.hypergraph, &GreedyOracle, config, &tel).unwrap();
        let sink = tel.into_sink();
        // The per-phase counters are those of the graph-level partition.
        let first_cg = ConflictGraph::build(&h.hypergraph, k);
        let graph_level = crate::ComponentPartition::of(first_cg.graph());
        let phase0 = sink
            .spans()
            .into_iter()
            .find(|s| s.name == names::PHASE && s.index == Some(0))
            .expect("phase 0");
        assert_eq!(phase0.counter(Counter::Components), graph_level.len() as u64);
        assert_eq!(phase0.counter(Counter::LargestComponent), graph_level.largest_size() as u64);
        let spans = sink.spans();
        assert!(spans.iter().any(|s| s.name == names::COMPONENT), "component path taken");
        let oracle_spans: Vec<_> = spans.iter().filter(|s| s.name == names::ORACLE).collect();
        let oracle_ns: u64 = oracle_spans.iter().map(|s| s.duration_ns()).sum();
        assert!(oracle_ns > 0);
        let timeline = PhaseTimeline::from_spans(&spans).expect("reduction root");
        assert_eq!(timeline.oracle_ns, oracle_ns);
        let attempts: usize = timeline.phases.iter().map(|p| p.oracle_attempts).sum();
        assert_eq!(attempts, oracle_spans.len());
        // The partition hangs under its phase, and each component builds
        // its own conflict graph under its `component` span; the timeline
        // attributes both (component builds fold into `build_ns`).
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let parent_name = |s: &pslocal_telemetry::SpanRecord| {
            spans.iter().find(|p| Some(p.id) == s.parent).map(|p| p.name)
        };
        assert!(named(names::PARTITION).count() > 0);
        assert!(named(names::PARTITION).all(|s| parent_name(s) == Some(names::PHASE)));
        let partition_ns: u64 = named(names::PARTITION).map(|s| s.duration_ns()).sum();
        assert_eq!(timeline.partition_ns, partition_ns);
        let components = named(names::COMPONENT).count();
        let component_builds: Vec<_> = named(names::CONFLICT_GRAPH)
            .filter(|s| parent_name(s) == Some(names::COMPONENT))
            .collect();
        assert_eq!(component_builds.len(), components, "one build per component");
        let build_ns: u64 = named(names::CONFLICT_GRAPH)
            .chain(named(names::RESTRICT))
            .map(|s| s.duration_ns())
            .sum();
        assert_eq!(timeline.build_ns, build_ns);
    }

    #[test]
    fn parallel_config_reproduces_the_serial_run() {
        // Greedy decomposes over components (its global pick sequence
        // restricted to a component equals the local sequence), so the
        // parallel driver must reproduce the serial run verbatim —
        // whether a phase takes the fast path or actually decomposes.
        let k = 3;
        let h = planted(11, 36, 16, k);
        let serial = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let par =
            reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k).with_threads(4)).unwrap();
        assert_eq!(serial.records, par.records);
        assert_eq!(serial.coloring, par.coloring);
        assert_eq!(serial.total_colors, par.total_colors);
    }

    #[test]
    fn luby_parallel_config_reproduces_the_serial_run() {
        // Luby derives each component's RNG stream from the component's
        // own fingerprint, so — like every other oracle — it must not
        // care whether the executor decomposes a phase or not.
        use pslocal_graph::generators::hyper::multi_component_cf_instance;
        let k = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let h = multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 8, k), 4).hypergraph;
        let oracle = LubyOracle::new(5);
        let serial = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k)).unwrap();
        let par = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k).with_threads(4)).unwrap();
        assert_eq!(serial.records, par.records);
        assert_eq!(serial.coloring, par.coloring);
    }

    #[test]
    fn phase_colors_never_unhappy_previous_edges() {
        // Regression for the monotonicity argument: once an edge leaves
        // the residual set it stays happy to the end.
        let k = 3;
        let h = planted(8, 36, 16, k);
        let out = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        assert!(checker::is_conflict_free(&h, &out.coloring));
        // Re-derive cumulative unhappy counts from records.
        let final_unhappy = out.records.last().unwrap().edges_after;
        assert_eq!(final_unhappy, 0);
    }

    #[test]
    fn forced_kernels_produce_identical_runs() {
        // Csr and Bitset pin opposite routes; Auto picks one of them.
        // All three runs must be byte-identical — the kernels differ in
        // cost only.
        let k = 3;
        for (seed, n, m) in [(34u64, 36, 15), (35, 24, 40)] {
            let h = planted(seed, n, m, k);
            let run = |kernel| {
                reduce_cf_to_maxis(
                    &h,
                    &GreedyOracle,
                    ReductionConfig { kernel, ..ReductionConfig::new(k) },
                )
                .unwrap()
            };
            let csr = run(KernelStrategy::Csr);
            let dense = run(KernelStrategy::Bitset);
            let auto = run(KernelStrategy::Auto);
            assert_eq!(csr.records, dense.records);
            assert_eq!(csr.coloring, dense.coloring);
            assert_eq!(csr.lambda, dense.lambda);
            assert_eq!(csr.records, auto.records);
            assert_eq!(csr.coloring, auto.coloring);
        }
    }

    #[test]
    fn workspace_reuse_is_byte_identical() {
        // Two back-to-back reductions through ONE workspace must equal
        // two fresh-allocation runs — the workspace carries buffers,
        // never semantic state. PrecisionOracle(4) forces multi-phase
        // runs so the restriction arena actually gets recycled.
        let k = 3;
        let h1 = planted(31, 40, 18, k);
        let h2 = planted(32, 36, 15, k);
        let oracle = pslocal_maxis::PrecisionOracle::new(4.0);
        let base1 = reduce_cf_to_maxis(&h1, &oracle, ReductionConfig::new(k)).unwrap();
        assert!(base1.phases_used >= 2, "need a multi-phase run to exercise reuse");
        let base2 = reduce_cf_to_maxis(&h2, &oracle, ReductionConfig::new(k)).unwrap();
        let tel = Telemetry::disabled();
        let mut ws = PhaseWorkspace::new();
        let out1 =
            reduce_cf_to_maxis_with_workspace(&h1, &oracle, ReductionConfig::new(k), &tel, &mut ws)
                .unwrap();
        let out2 =
            reduce_cf_to_maxis_with_workspace(&h2, &oracle, ReductionConfig::new(k), &tel, &mut ws)
                .unwrap();
        assert_eq!(out1.records, base1.records);
        assert_eq!(out1.coloring, base1.coloring);
        assert_eq!(out2.records, base2.records);
        assert_eq!(out2.coloring, base2.coloring);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pslocal-reduction-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_as_noop() {
        let k = 3;
        let h = planted(21, 36, 15, k);
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let dir = ckpt_dir("clean");
        let tel = Telemetry::disabled();
        let (out, report) = reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        assert_eq!(out.records, base.records);
        assert_eq!(out.coloring, base.coloring);
        assert!(!report.resumed);
        assert!(report.journal_bytes > 0);
        // Resuming the *completed* journal replays every phase and runs
        // zero new ones — the outcome is byte-identical.
        let (again, report) = reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, base.records.len());
        assert_eq!(again.records, base.records);
        assert_eq!(again.coloring, base.coloring);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_injected_crash_is_byte_identical() {
        // A deliberately weak (λ = 4) oracle guarantees a multi-phase
        // run; Greedy would finish planted instances in one phase.
        let k = 3;
        let h = planted(22, 40, 18, k);
        let oracle = pslocal_maxis::PrecisionOracle::new(4.0);
        let base = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k)).unwrap();
        assert!(base.phases_used >= 2, "need a multi-phase run to interrupt");
        let dir = ckpt_dir("crash");
        let tel = Telemetry::disabled();
        // Kill the run right before phase 1's journal append: phase 1's
        // work is lost, phase 0 survives on disk.
        let ckpt =
            Checkpointing::new(&dir).with_crash(CrashPlan::panicking(1, CrashPoint::BeforeJournal));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reduce_cf_to_maxis_resumable(&h, &oracle, ReductionConfig::new(k), &ckpt, &tel)
        }))
        .expect_err("kill point fires");
        assert!(died.downcast_ref::<pslocal_maxis::CrashSignal>().is_some());
        let (out, report) = reduce_cf_to_maxis_resumable(
            &h,
            &oracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, 1);
        assert_eq!(out.records, base.records);
        assert_eq!(out.coloring, base.coloring);
        assert_eq!(out.total_colors, base.total_colors);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_under_a_different_config_is_refused() {
        let k = 3;
        let h = planted(23, 36, 15, k);
        let dir = ckpt_dir("mismatch");
        let tel = Telemetry::disabled();
        reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        // Same journal, different oracle: the header no longer matches
        // and the layer refuses rather than silently clobbering it.
        let err = reduce_cf_to_maxis_resumable(
            &h,
            &ExactOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap_err();
        assert!(matches!(err, ReductionError::CheckpointFailed { .. }), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
