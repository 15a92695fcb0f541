//! The three reduce workloads: one caller, one reduction in flight.
//!
//! The timed runs call the program's reduction entry points exactly as
//! a library user would. The traced run replays the same phase loop
//! from the public per-layer calls, each wrapped in a benchmark span,
//! and must reproduce the timed runs' coloring, phase records and (for
//! the journaled workload) journal bytes — so the layer times describe
//! the route the timed runs took, with the same kernel, no oracle cache
//! and the same thread count.

use crate::metrics::{mean, median, ms, peak_rss_mb, percentile, reset_peak_rss, Metrics, Outcome};
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_core::{
    apply_palette, fingerprint_hypergraph, lemma_2_1b, reduce_cf_to_maxis,
    reduce_cf_to_maxis_resumable, Checkpointing, ComponentExecutor, ConflictGraph,
    ConflictGraphOptions, DriverKind, JournalHeader, JournalPhase, ParallelismOptions,
    PhaseJournal, PhaseRecord, ReductionConfig,
};
use pslocal_graph::generators::hyper::{
    multi_component_cf_instance, planted_cf_instance, PlantedCfParams,
};
use pslocal_graph::{BitsetScratch, HyperedgeId, Hypergraph, KernelStrategy, Palette};
use pslocal_maxis::{GreedyOracle, MaxIsOracle};
use pslocal_telemetry::Telemetry;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Planted sizes of the dense pool (`m = 8n`, `k = 4`).
const DENSE_SIZES: [usize; 3] = [96, 128, 160];
/// Instances per size in the dense pool.
const DENSE_PER_SIZE: usize = 8;
const DENSE_K: usize = 4;
/// Each component instance is this many disjoint copies of (128, 64, 8).
const COMPONENT_COPIES: usize = 8;
const COMPONENT_POOL: usize = 16;
const COMPONENT_K: usize = 8;
/// Worker threads of the component-parallel workload.
pub const COMPONENT_THREADS: usize = 2;
/// Times set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Which reduce workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serial `reduce_cf_to_maxis` over the dense planted pool.
    Dense,
    /// `reduce_cf_to_maxis(..).with_threads(2)` on multi-component instances.
    Components,
    /// The dense pool through `reduce_cf_to_maxis_resumable`, fresh journal.
    Journaled,
}

impl Kind {
    fn threads(self) -> usize {
        match self {
            Kind::Components => COMPONENT_THREADS,
            Kind::Dense | Kind::Journaled => 1,
        }
    }

    fn config(self, k: usize) -> ReductionConfig {
        ReductionConfig::new(k).with_threads(self.threads())
    }
}

/// One input of the pool.
pub struct Instance {
    h: Hypergraph,
    k: usize,
}

/// Derives the generator seed of pool entry `i` from the workload seed
/// (SplitMix64 finaliser), so every entry is independent of the others.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's input pool for `seed`.
pub fn pool(kind: Kind, seed: u64) -> Vec<Instance> {
    match kind {
        Kind::Dense | Kind::Journaled => DENSE_SIZES
            .iter()
            .flat_map(|&n| (0..DENSE_PER_SIZE).map(move |j| (n, j)))
            .enumerate()
            .map(|(i, (n, _))| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, i as u64));
                let params = PlantedCfParams::new(n, 8 * n, DENSE_K);
                Instance { h: planted_cf_instance(&mut rng, params).hypergraph, k: DENSE_K }
            })
            .collect(),
        Kind::Components => (0..COMPONENT_POOL)
            .map(|i| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, i as u64));
                let params = PlantedCfParams::new(128, 64, COMPONENT_K);
                let inst = multi_component_cf_instance(&mut rng, params, COMPONENT_COPIES);
                Instance { h: inst.hypergraph, k: COMPONENT_K }
            })
            .collect(),
    }
}

/// A work directory inside the benchmark's own tree, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<package>/.work/<name>-<pid>-<n>` (emptied first).
    pub fn new(name: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one reduction produced, as compared across routes.
#[derive(Debug, Clone, PartialEq)]
struct Produced {
    coloring: Multicoloring,
    records: Vec<PhaseRecord>,
    rho: usize,
    phases: usize,
    colors: usize,
    /// The journal file's bytes (journaled workload only).
    journal: Option<Vec<u8>>,
}

/// The set-up state of one run: the pool and the journal directories.
struct Runner {
    kind: Kind,
    pool: Vec<Instance>,
    /// `(timed-run dir, replay dir)` for the journaled workload.
    dirs: Option<(WorkDir, WorkDir)>,
}

impl Runner {
    /// Generates the pool and warms up with one reduction.
    fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        let dirs = match kind {
            Kind::Journaled => Some((
                WorkDir::new("journal-timed").map_err(|e| e.to_string())?,
                WorkDir::new("journal-replay").map_err(|e| e.to_string())?,
            )),
            _ => None,
        };
        let runner = Runner { kind, pool: pool(kind, seed), dirs };
        runner.drive(0)?;
        Ok(runner)
    }

    fn journal_dir(&self, replay: bool) -> Option<&Path> {
        self.dirs.as_ref().map(|(d, r)| if replay { r.path() } else { d.path() })
    }

    /// The untraced library call on pool entry `i` — the timed operation.
    fn drive(&self, i: usize) -> Result<(Produced, Duration), String> {
        let inst = &self.pool[i];
        let config = self.kind.config(inst.k);
        let start = Instant::now();
        let result = match self.journal_dir(false) {
            None => reduce_cf_to_maxis(&inst.h, &GreedyOracle, config),
            Some(dir) => reduce_cf_to_maxis_resumable(
                &inst.h,
                &GreedyOracle,
                config,
                &Checkpointing::new(dir),
                &Telemetry::disabled(),
            )
            .map(|(out, _)| out),
        };
        let elapsed = start.elapsed();
        let out = result.map_err(|e| format!("instance {i}: reduction failed: {e}"))?;
        let journal = match self.journal_dir(false) {
            Some(dir) => Some(read_journal(dir)?),
            None => None,
        };
        let produced = Produced {
            coloring: out.coloring,
            records: out.records,
            rho: out.rho,
            phases: out.phases_used,
            colors: out.total_colors,
            journal,
        };
        Ok((produced, elapsed))
    }
}

fn read_journal(dir: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(PhaseJournal::file_path(dir)).map_err(|e| format!("reading journal: {e}"))
}

/// Checks an output against the paper's contract and, when given, the
/// reference output of the same instance.
fn check(inst: &Instance, got: &Produced, reference: Option<&Produced>) -> Result<(), String> {
    if !checker::is_conflict_free(&inst.h, &got.coloring) {
        return Err("coloring is not conflict-free".into());
    }
    if got.phases > got.rho {
        return Err(format!("{} phases exceed rho = {}", got.phases, got.rho));
    }
    if let Some(r) = reference {
        if got.coloring != r.coloring || got.records != r.records {
            return Err("output differs from the reference run".into());
        }
        if got.journal != r.journal {
            return Err("journal bytes differ from the reference run".into());
        }
    }
    Ok(())
}

/// Busy time per layer of one or more traced reductions.
#[derive(Debug, Default, Clone)]
struct Layers {
    total: Duration,
    build: Duration,
    lambda: Duration,
    oracle: Duration,
    partition: Duration,
    executor: Duration,
    /// Oracle time summed over the executor's threads (CPU, not wall).
    oracle_cpu: Duration,
    commit: Duration,
    fingerprint: Duration,
    journal: Duration,
    restrict: Duration,
    /// Phase-0 conflict-graph edges.
    edges: u64,
    phases: u64,
    bitset_phases: u64,
    calls: u64,
    components: u64,
    decomposed_phases: u64,
    largest_share: f64,
}

impl Layers {
    /// The layers that partition the traced wall time (oracle CPU is
    /// inside the executor's wall time, so it is not part of the sum).
    fn attributed(&self) -> Duration {
        self.build
            + self.lambda
            + self.oracle
            + self.partition
            + self.executor
            + self.commit
            + self.fingerprint
            + self.journal
            + self.restrict
    }

    fn add(&mut self, o: &Layers) {
        self.total += o.total;
        self.build += o.build;
        self.lambda += o.lambda;
        self.oracle += o.oracle;
        self.partition += o.partition;
        self.executor += o.executor;
        self.oracle_cpu += o.oracle_cpu;
        self.commit += o.commit;
        self.fingerprint += o.fingerprint;
        self.journal += o.journal;
        self.restrict += o.restrict;
        self.edges += o.edges;
        self.phases += o.phases;
        self.bitset_phases += o.bitset_phases;
        self.calls += o.calls;
        self.components += o.components;
        self.decomposed_phases += o.decomposed_phases;
        self.largest_share += o.largest_share;
    }
}

/// Times `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// The phase loop of `reduce_cf_to_maxis` rebuilt from public calls, each in
/// its own span. Mirrors `reduce_cf_to_maxis` (and the resumable entry
/// point's fresh-journal path) step for step with the same
/// configuration: Auto kernel, greedy oracle, no oracle cache.
fn replay(
    h: &Hypergraph,
    k: usize,
    threads: usize,
    journal_dir: Option<&Path>,
) -> Result<(Produced, Layers), String> {
    let oracle = GreedyOracle;
    let mut l = Layers::default();
    let start = Instant::now();
    let m = h.edge_count();
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();
    let mut scratch = BitsetScratch::new();

    let options = ConflictGraphOptions::with_kernel(KernelStrategy::Auto);
    let mut cg = timed(&mut l.build, || ConflictGraph::build_with_options(h, k, options));
    l.edges = cg.edge_count() as u64;
    let lambda = timed(&mut l.lambda, || match cg.bitset() {
        Some(bits) => oracle.lambda_for_dense(bits),
        None => None,
    })
    .or_else(|| timed(&mut l.lambda, || oracle.lambda_for(cg.graph())))
    .ok_or("greedy oracle gave no lambda")?;
    let rho = ReductionConfig::rho(lambda, m);
    let mut journal = match journal_dir {
        Some(dir) => Some(timed(&mut l.journal, || {
            let header = JournalHeader {
                driver: DriverKind::Trusting,
                k,
                lambda_bits: lambda.to_bits(),
                rho,
                budget: rho,
                threads,
                instance_fingerprint: fingerprint_hypergraph(h),
                oracle_names: vec![oracle.name().to_string()],
            };
            PhaseJournal::create(dir, header).map_err(|e| format!("journal create: {e}"))
        })?),
        None => None,
    };

    let mut records = Vec::new();
    let mut phase = 0usize;
    let mut oracle_calls = 0u64;
    while !residual.is_empty() && phase < rho {
        let edges_before = residual.len();
        l.phases += 1;
        l.bitset_phases += u64::from(cg.bitset().is_some());
        let cg_fingerprint =
            journal.as_ref().map(|_| timed(&mut l.fingerprint, || cg.fingerprint()));

        let mut set = None;
        if threads > 1 {
            let graph = timed(&mut l.build, || cg.graph());
            let exec = timed(&mut l.partition, || {
                ComponentExecutor::new(graph, ParallelismOptions::with_threads(threads))
            });
            if exec.should_decompose() {
                let parts = exec.partition().len();
                l.components += parts as u64;
                l.decomposed_phases += 1;
                l.largest_share += exec.partition().largest_size() as f64 / cg.node_count() as f64;
                let cpu = AtomicU64::new(0);
                set = Some(timed(&mut l.executor, || {
                    let locals = exec.run(|_, sub| {
                        let t = Instant::now();
                        let s = oracle.independent_set(sub);
                        cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        s
                    });
                    exec.merge(locals)
                }));
                l.oracle_cpu += Duration::from_nanos(cpu.into_inner());
                oracle_calls += parts as u64;
            }
        }
        let set = match set {
            Some(set) => set,
            None => {
                oracle_calls += 1;
                timed(&mut l.oracle, || match cg.bitset() {
                    Some(bits) if oracle.supports_dense() => {
                        oracle.independent_set_dense(bits, &mut scratch)
                    }
                    _ => oracle.independent_set(cg.graph()),
                })
            }
        };

        let keep_pos = timed(&mut l.commit, || {
            let decoded = lemma_2_1b(&cg, &set);
            coloring.merge(&apply_palette(&decoded.coloring, Palette::phase(k, phase)));
            let mut keep_pos = Vec::new();
            let mut survivors = Vec::new();
            for (pos, &e) in residual.iter().enumerate() {
                if !checker::is_edge_happy(h, &coloring, e) {
                    keep_pos.push(HyperedgeId::new(pos));
                    survivors.push(e);
                }
            }
            residual = survivors;
            keep_pos
        });
        let edges_after = residual.len();
        records.push(PhaseRecord {
            phase,
            edges_before,
            conflict_nodes: cg.node_count(),
            conflict_edges: cg.edge_count(),
            independent_set_size: set.len(),
            edges_removed: edges_before - edges_after,
            edges_after,
        });
        // The certified (Δ+1) decay bound of Lemma 2.1.
        if edges_after > ((1.0 - 1.0 / lambda) * edges_before as f64).floor() as usize {
            return Err(format!("phase {phase}: decay {edges_before} -> {edges_after} violated"));
        }
        if let (Some(j), Some(fp)) = (journal.as_mut(), cg_fingerprint) {
            let entry = JournalPhase {
                phase,
                cg_fingerprint: fp,
                set: set.vertices().iter().map(|v| v.index() as u64).collect(),
                record: records[records.len() - 1].clone(),
                quota_required: 0,
                primary: true,
                chain_calls: vec![oracle_calls],
                retries: 0,
                fallbacks: 0,
                events: Vec::new(),
            };
            timed(&mut l.journal, || j.append_phase(entry))
                .map_err(|e| format!("journal append: {e}"))?;
        }
        phase += 1;
        if !residual.is_empty() && phase < rho {
            cg = timed(&mut l.restrict, || cg.restrict_to_edges(&keep_pos));
        }
    }
    l.total = start.elapsed();
    l.calls = oracle_calls;
    if !residual.is_empty() {
        return Err(format!("{} edges left after rho = {rho} phases", residual.len()));
    }
    let colors = coloring.total_color_count();
    let journal = match journal_dir {
        Some(dir) => Some(read_journal(dir)?),
        None => None,
    };
    Ok((Produced { coloring, records, rho, phases: phase, colors, journal }, l))
}

/// Runs whole passes `pass(0), pass(1), ..` while another pass as long
/// as the last one still fits in `budget` — at least one pass, so every
/// run weighs the pool's instances equally.
fn passes(
    budget: Duration,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    for p in 0.. {
        let began = Instant::now();
        pass(p)?;
        if start.elapsed() + began.elapsed() > budget {
            break;
        }
    }
    Ok(())
}

/// One run of reduce workload `kind`: set-up, untraced passes for
/// `seconds` (or half of it with `trace`), then traced passes for the
/// other half.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut runner = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first, so its directories are gone.
        drop(runner.take());
        let start = Instant::now();
        match Runner::setup(kind, seed) {
            Ok(r) => runner = Some(r),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(runner) = runner else { return out };
    let n = runner.pool.len();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    // Untraced passes; the first pass's outputs are the references.
    let mut references: Vec<Produced> = Vec::with_capacity(n);
    let mut op_ms = Vec::new();
    // Peak RSS per pass: one window per pass, reported as the median.
    let mut rss_mb = Vec::new();
    let untraced = passes(budget, |pass| {
        reset_peak_rss();
        for (i, inst) in runner.pool.iter().enumerate() {
            out.attempted += 1;
            let (produced, elapsed) = runner.drive(i)?;
            op_ms.push(ms(elapsed));
            if let Err(e) = check(inst, &produced, references.get(i)) {
                out.fail(format!("instance {i}: {e}"));
            }
            if pass == 0 {
                references.push(produced);
            }
        }
        rss_mb.extend(peak_rss_mb());
        Ok(())
    });
    if let Err(e) = untraced {
        out.fail(e);
        return out;
    }

    if !trace {
        let total_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s), "s");
        m.set("op_ms_p50", median(&op_ms), "ms");
        m.set("op_ms_p90", percentile(&op_ms, 90.0), "ms");
        m.set("op_ms_p99", percentile(&op_ms, 99.0), "ms");
        m.set("ops_per_s", op_ms.len() as f64 / total_s, "1/s");
        m.set(
            "phases_mean",
            mean(&references.iter().map(|r| r.phases as f64).collect::<Vec<_>>()),
            "count",
        );
        m.set(
            "colors_mean",
            mean(&references.iter().map(|r| r.colors as f64).collect::<Vec<_>>()),
            "count",
        );
        return out;
    }

    // Traced passes of the identical configuration.
    let mut layers = Layers::default();
    let mut first_pass = Layers::default();
    let mut traced_ms = Vec::new();
    let mut traced = 0u64;
    let traced_run = passes(budget, |pass| {
        for (i, inst) in runner.pool.iter().enumerate() {
            out.attempted += 1;
            let (produced, l) = replay(&inst.h, inst.k, kind.threads(), runner.journal_dir(true))
                .map_err(|e| format!("traced instance {i}: {e}"))?;
            traced_ms.push(ms(l.total));
            traced += 1;
            if let Err(e) = check(inst, &produced, references.get(i)) {
                out.fail(format!("traced instance {i}: {e}"));
            }
            if pass == 0 {
                first_pass.add(&l);
            }
            layers.add(&l);
        }
        Ok(())
    });
    if let Err(e) = traced_run {
        out.fail(e);
        return out;
    }
    out.metrics = layer_metrics(&layers, traced, &first_pass, n, &references);
    let overhead = median(&traced_ms) / median(&op_ms);
    out.metrics.set("telemetry.trace_overhead", overhead, "ratio");
    out.metrics.set("peak_rss_mb", median(&rss_mb), "MB");
    out
}

/// Per-reduction layer means of the traced passes, plus the exact
/// counts of the first traced pass over the pool.
fn layer_metrics(
    l: &Layers,
    reductions: u64,
    first: &Layers,
    pool: usize,
    references: &[Produced],
) -> Metrics {
    let per = |d: Duration| if reductions == 0 { 0.0 } else { ms(d) / reductions as f64 };
    let per_pool = |c: f64| c / pool.max(1) as f64;
    let mut m = Metrics::default();
    let build_ms = per(l.build);
    let edges = per_pool(first.edges as f64);
    m.set("conflict_graph.build_ms", build_ms, "ms");
    m.set("conflict_graph.build_ns_per_edge", build_ms * 1e6 / edges.max(1.0), "ns");
    m.set("conflict_graph.edges", edges, "count");
    m.set(
        "conflict_graph.bitset_share",
        first.bitset_phases as f64 / first.phases.max(1) as f64,
        "ratio",
    );
    m.set("conflict_graph.restrict_ms", per(l.restrict), "ms");
    m.set("conflict_graph.fingerprint_ms", per(l.fingerprint), "ms");
    m.set("correspondence.commit_ms", per(l.commit), "ms");
    m.set("maxis.lambda_ms", per(l.lambda), "ms");
    m.set("maxis.oracle_ms", per(l.oracle), "ms");
    m.set("maxis.calls", per_pool(first.calls as f64), "count");
    let decay: Vec<f64> = references
        .iter()
        .flat_map(|r| &r.records)
        .map(|rec| rec.edges_after as f64 / rec.edges_before as f64)
        .collect();
    m.set("maxis.decay", mean(&decay), "ratio");
    m.set("components.partition_ms", per(l.partition), "ms");
    m.set("components.executor_ms", per(l.executor), "ms");
    m.set("components.oracle_cpu_ms", per(l.oracle_cpu), "ms");
    let efficiency = if l.executor.is_zero() {
        0.0
    } else {
        l.oracle_cpu.as_secs_f64() / (COMPONENT_THREADS as f64 * l.executor.as_secs_f64())
    };
    m.set("components.parallel_efficiency", efficiency, "ratio");
    m.set("components.count", per_pool(first.components as f64), "count");
    let largest = if first.decomposed_phases == 0 {
        0.0
    } else {
        first.largest_share / first.decomposed_phases as f64
    };
    m.set("components.largest_share", largest, "ratio");
    m.set("recovery.journal_ms", per(l.journal), "ms");
    let journal_bytes: Vec<f64> =
        references.iter().map(|r| r.journal.as_ref().map_or(0, Vec::len) as f64).collect();
    m.set("recovery.journal_bytes", mean(&journal_bytes), "bytes");
    let total = per(l.total);
    let unattributed = total - per(l.attributed());
    m.set("reduction.traced_ms", total, "ms");
    m.set("reduction.unattributed_ms", unattributed, "ms");
    m.set(
        "reduction.unattributed_share",
        if total > 0.0 { unattributed / total } else { 0.0 },
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact counts of a traced run, which must repeat per seed.
    const EXACT: [&str; 5] = [
        "conflict_graph.edges",
        "maxis.calls",
        "components.count",
        "recovery.journal_bytes",
        "maxis.decay",
    ];

    fn layer_sum(m: &Metrics) -> f64 {
        [
            "conflict_graph.build_ms",
            "maxis.lambda_ms",
            "maxis.oracle_ms",
            "components.partition_ms",
            "components.executor_ms",
            "correspondence.commit_ms",
            "conflict_graph.fingerprint_ms",
            "recovery.journal_ms",
            "conflict_graph.restrict_ms",
            "reduction.unattributed_ms",
        ]
        .iter()
        .map(|n| m.get(n).unwrap_or(0.0))
        .sum()
    }

    fn traced(kind: Kind, seed: u64) -> Outcome {
        let out = run(kind, seed, 0.01, true);
        assert_eq!(out.failed, 0, "{kind:?}: {:?}", out.errors);
        out
    }

    #[test]
    fn traced_replay_matches_the_timed_run_and_layers_reconcile() {
        for kind in [Kind::Dense, Kind::Components, Kind::Journaled] {
            let m = traced(kind, 11).metrics;
            let total = m.get("reduction.traced_ms").expect("traced total");
            assert!(total > 0.0);
            assert!(m.get("reduction.unattributed_ms").is_some(), "unattributed is reported");
            assert!((layer_sum(&m) - total).abs() < 1e-6 * total, "{kind:?}: layers != total");
            let on = |name: &str| m.get(name).unwrap_or(0.0) > 0.0;
            assert_eq!(on("components.executor_ms"), kind == Kind::Components, "{kind:?}");
            assert_eq!(on("recovery.journal_ms"), kind == Kind::Journaled, "{kind:?}");
            assert_eq!(on("conflict_graph.fingerprint_ms"), kind == Kind::Journaled, "{kind:?}");
        }
    }

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        for kind in [Kind::Components, Kind::Journaled] {
            let (a, b) = (traced(kind, 5).metrics, traced(kind, 5).metrics);
            for name in EXACT {
                assert_eq!(a.get(name), b.get(name), "{kind:?}: {name}");
            }
            let (a, b) = (run(kind, 5, 0.01, false).metrics, run(kind, 5, 0.01, false).metrics);
            for name in ["phases_mean", "colors_mean"] {
                assert_eq!(a.get(name), b.get(name), "{kind:?}: {name}");
            }
        }
        // A second seed is a different pool.
        let other = traced(Kind::Components, 6).metrics;
        assert_ne!(
            other.get("conflict_graph.edges"),
            traced(Kind::Components, 5).metrics.get("conflict_graph.edges")
        );
    }

    #[test]
    fn a_differing_output_fails_the_check() {
        let inst = &pool(Kind::Components, 3)[0];
        let (produced, _) = replay(&inst.h, inst.k, 1, None).expect("replay runs");
        assert!(check(inst, &produced, Some(&produced)).is_ok());
        let mut other = produced.clone();
        other.records[0].independent_set_size += 1;
        assert!(check(inst, &produced, Some(&other)).is_err());
        let mut other = produced.clone();
        other.journal = Some(vec![0]);
        assert!(check(inst, &produced, Some(&other)).is_err());
    }
}
