//! Bitset-kernel equivalence suite.
//!
//! The dense (word-parallel) pipeline must be a pure cost knob: the
//! direct bit-row conflict-graph build, the dense greedy oracle route,
//! and a phase loop running through a reused [`PhaseWorkspace`] all
//! have to reproduce the CSR reference **byte-for-byte** — same
//! adjacency, same phase records, same coloring. These properties are
//! what lets `KernelStrategy::Auto` switch routes per graph without
//! anyone downstream noticing.

use proptest::prelude::*;
use pslocal::cfcolor::checker::is_conflict_free;
use pslocal::core::{
    reduce_cf_to_maxis, reduce_cf_to_maxis_traced, reduce_cf_to_maxis_with_workspace,
    BuildStrategy, ConflictGraph, ConflictGraphOptions, PhaseWorkspace, ReductionConfig,
    ReductionOutcome, ResilientConfig, Service, ServiceConfig, ServiceRequest,
};
use pslocal::graph::bitset::{BITSET_MAX_NODES, BITSET_MIN_AVG_DEGREE};
use pslocal::graph::generators::classic::{complete, complete_bipartite, star};
use pslocal::graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal::graph::{BitsetGraph, BitsetScratch, Graph, Hypergraph, KernelStrategy, NodeId};
use pslocal::maxis::{ApproxGuarantee, GreedyOracle, MaxIsOracle};
use pslocal::telemetry::{names, MemorySink, Telemetry};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// The CSR degree-bucket greedy of `GreedyOracle`, returning its picks
/// in pick order (the oracle itself returns them sorted): one bucket
/// push per degree decrement, stale entries skipped at pop.
fn csr_pick_sequence(g: &Graph) -> Vec<NodeId> {
    let mut alive = vec![true; g.node_count()];
    let mut degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let maxdeg = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); maxdeg + 1];
    for v in g.nodes() {
        buckets[degree[v.index()]].push(v);
    }
    let (mut picks, mut cursor) = (Vec::new(), 0usize);
    while cursor <= maxdeg {
        let Some(v) = buckets[cursor].pop() else {
            cursor += 1;
            continue;
        };
        if !alive[v.index()] || degree[v.index()] != cursor {
            continue;
        }
        picks.push(v);
        alive[v.index()] = false;
        for &u in g.neighbors(v) {
            if alive[u.index()] {
                alive[u.index()] = false;
                for &w in g.neighbors(u) {
                    if alive[w.index()] {
                        degree[w.index()] -= 1;
                        buckets[degree[w.index()]].push(w);
                        cursor = cursor.min(degree[w.index()]);
                    }
                }
            }
        }
    }
    picks
}

/// The dense greedy's pick sequence on `g`'s bit rows.
fn dense_pick_sequence(bits: &BitsetGraph) -> Vec<NodeId> {
    bits.min_degree_greedy(&mut BitsetScratch::new())
}

/// A random hypergraph: `m` edges of 1–4 distinct vertices over `n ≤ 40`
/// vertices (sizes and members seeded, so failures replay exactly).
fn random_hypergraph(seed: u64, n: usize, m: usize) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let size = rng.gen_range(1..=4usize.min(n));
        let mut members: Vec<usize> = Vec::new();
        while members.len() < size {
            let v = rng.gen_range(0..n);
            if !members.contains(&v) {
                members.push(v);
            }
        }
        edges.push(members);
    }
    Hypergraph::from_edges(n, edges).expect("generated edges are valid")
}

fn instance() -> impl Strategy<Value = (Hypergraph, usize)> {
    (0u64..10_000, 2usize..=40, 1usize..=12, 1usize..=5)
        .prop_map(|(seed, n, m, k)| (random_hypergraph(seed, n, m), k))
}

fn kernel_options(literal_ecolor: bool, kernel: KernelStrategy) -> ConflictGraphOptions {
    ConflictGraphOptions { literal_ecolor, strategy: BuildStrategy::Auto, kernel }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The direct bit-row build equals the CSR reference converted to
    /// bit rows, and its lazily materialized CSR equals the reference
    /// CSR — in both `E_color` readings. This is the structural half of
    /// kernel equivalence: everything downstream reads one of these two
    /// representations.
    #[test]
    fn dense_build_matches_csr_reference((h, k) in instance(), literal_bit in 0u8..2) {
        let literal = literal_bit == 1;
        let reference = ConflictGraph::build_with_options(
            &h, k, ConflictGraphOptions {
                literal_ecolor: literal,
                strategy: BuildStrategy::Reference,
                kernel: KernelStrategy::Csr,
            });
        let dense = ConflictGraph::build_with_options(
            &h, k, kernel_options(literal, KernelStrategy::Bitset));
        let bits = dense.bitset().expect("forced bitset kernel builds bit rows");
        prop_assert_eq!(bits, &reference.graph().to_bitset());
        prop_assert_eq!(dense.node_count(), reference.node_count());
        prop_assert_eq!(dense.edge_count(), reference.edge_count());
        prop_assert_eq!(dense.fingerprint(), reference.fingerprint());
        // Materializing the CSR on demand reproduces the reference CSR.
        prop_assert_eq!(dense.graph(), reference.graph());
    }

    /// The dense greedy route picks the identical vertex sequence as
    /// the CSR route on arbitrary graphs, and reports the same λ.
    #[test]
    fn dense_greedy_matches_csr_greedy(seed in 0u64..10_000, n in 1usize..60, p_pct in 5u32..60) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = pslocal::graph::generators::random::gnp(&mut rng, n, f64::from(p_pct) / 100.0);
        let bits = BitsetGraph::from_graph(&g);
        let mut scratch = BitsetScratch::default();
        let dense = GreedyOracle.independent_set_dense(&bits, &mut scratch);
        let csr = GreedyOracle.independent_set(&g);
        prop_assert_eq!(dense.vertices(), csr.vertices());
        prop_assert_eq!(dense_pick_sequence(&bits), csr_pick_sequence(&g));
        prop_assert_eq!(
            GreedyOracle.lambda_for_dense(&bits),
            GreedyOracle.lambda_for(&g)
        );
    }

    /// End-to-end: forcing `Csr`, forcing `Bitset`, and letting `Auto`
    /// decide all produce the identical reduction — records, coloring,
    /// color count.
    #[test]
    fn reduction_is_kernel_invariant((h, k) in instance()) {
        let run = |kernel| {
            let mut config = ReductionConfig::new(k);
            config.kernel = kernel;
            reduce_cf_to_maxis(&h, &GreedyOracle, config).unwrap()
        };
        let csr = run(KernelStrategy::Csr);
        let bitset = run(KernelStrategy::Bitset);
        let auto = run(KernelStrategy::Auto);
        prop_assert_eq!(&csr.records, &bitset.records);
        prop_assert_eq!(&csr.coloring, &bitset.coloring);
        prop_assert_eq!(csr.total_colors, bitset.total_colors);
        prop_assert_eq!(&csr.records, &auto.records);
        prop_assert_eq!(&csr.coloring, &auto.coloring);
    }

    /// A `PhaseWorkspace` carries no semantic state: running instance B
    /// through a workspace warmed by instance A equals running B fresh.
    #[test]
    fn workspace_reuse_is_byte_identical(
        (ha, ka) in instance(),
        (hb, kb) in instance(),
    ) {
        let tel = Telemetry::disabled();
        let mut ws = PhaseWorkspace::new();
        let warm_a = reduce_cf_to_maxis_with_workspace(
            &ha, &GreedyOracle, ReductionConfig::new(ka), &tel, &mut ws).unwrap();
        let warm_b = reduce_cf_to_maxis_with_workspace(
            &hb, &GreedyOracle, ReductionConfig::new(kb), &tel, &mut ws).unwrap();
        let fresh_a = reduce_cf_to_maxis(&ha, &GreedyOracle, ReductionConfig::new(ka)).unwrap();
        let fresh_b = reduce_cf_to_maxis(&hb, &GreedyOracle, ReductionConfig::new(kb)).unwrap();
        prop_assert_eq!(&warm_a.records, &fresh_a.records);
        prop_assert_eq!(&warm_a.coloring, &fresh_a.coloring);
        prop_assert_eq!(&warm_b.records, &fresh_b.records);
        prop_assert_eq!(&warm_b.coloring, &fresh_b.coloring);
    }
}

/// `Auto`'s crossover: dense only when the graph is both small enough
/// for quadratic bit rows and dense enough for word scans to win —
/// where "dense enough" scales with the row length (`⌈n/64⌉` words)
/// once the flat degree floor is cleared.
#[test]
fn auto_crossover_boundaries() {
    let auto = KernelStrategy::Auto;
    let threshold = BITSET_MIN_AVG_DEGREE / 2;
    // Dense and small: bitset (16 row words, so the flat floor rules).
    assert!(auto.use_bitset(1000, 1000 * threshold));
    // Too sparse at the same size: CSR.
    assert!(!auto.use_bitset(1000, 1000 * threshold - 1000));
    // Dense but past the node cap: CSR.
    assert!(!auto.use_bitset(BITSET_MAX_NODES + 1, (BITSET_MAX_NODES + 1) * threshold));
    // At the node cap the scaling condition governs: 512 row words
    // demand average degree ≥ 256, not just the flat floor.
    assert!(!auto.use_bitset(BITSET_MAX_NODES, BITSET_MAX_NODES * threshold));
    assert!(auto.use_bitset(BITSET_MAX_NODES, BITSET_MAX_NODES * 256));
    // Degenerate empty graph: CSR.
    assert!(!auto.use_bitset(0, 0));
    // Forced strategies ignore the heuristic entirely.
    assert!(!KernelStrategy::Csr.use_bitset(1000, 1000 * threshold));
    assert!(KernelStrategy::Bitset.use_bitset(3, 0));
}

/// The dense bench configuration (`n128/m64/k8`, the planted instance
/// the perf work targets) actually crosses the `Auto` threshold — the
/// 2× speedup claim rides on this graph taking the bitset route — and
/// the full reduction on it is identical under all three kernels.
#[test]
fn bench_instance_takes_the_dense_route() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(128, 64, 8));
    let cg = ConflictGraph::build_with_options(
        &inst.hypergraph,
        8,
        kernel_options(false, KernelStrategy::Auto),
    );
    assert!(cg.bitset().is_some(), "dense bench instance must resolve to the bitset kernel");

    let run = |kernel| {
        let mut config = ReductionConfig::new(8);
        config.kernel = kernel;
        reduce_cf_to_maxis(&inst.hypergraph, &GreedyOracle, config).expect("reduction completes")
    };
    let csr = run(KernelStrategy::Csr);
    assert!(is_conflict_free(&inst.hypergraph, &csr.coloring));
    for kernel in [KernelStrategy::Bitset, KernelStrategy::Auto] {
        let out = run(kernel);
        assert_eq!(out.records, csr.records, "{kernel:?}");
        assert_eq!(out.coloring, csr.coloring, "{kernel:?}");
    }
}

/// Word-boundary shapes for the dense greedy's kill sweep: alive row
/// words holding 0 bits (empty graphs, and every word past a star
/// leaf's hub bit), 1, 2 and 3 bits (the small side of `K_{s,n-s}`,
/// seen from the large side) and 64 bits (complete graphs, the large
/// side of a bipartite graph) — at sizes just below, on and just past
/// the 64-bit word boundaries.
#[test]
fn dense_greedy_matches_csr_pick_sequence_on_word_boundary_shapes() {
    let mut graphs = vec![Graph::empty(0), Graph::empty(1)];
    for n in [63, 64, 65, 128, 129] {
        graphs.push(Graph::empty(n));
        graphs.push(complete(n));
        graphs.push(star(n));
        for s in [1, 2, 3, n / 2] {
            graphs.push(complete_bipartite(s, n - s));
        }
    }
    for g in &graphs {
        let csr = csr_pick_sequence(g);
        assert_eq!(
            dense_pick_sequence(&BitsetGraph::from_graph(g)),
            csr,
            "n = {}, m = {}",
            g.node_count(),
            g.edge_count()
        );
        assert!(!csr.is_empty() || g.node_count() == 0);
    }
}

/// The dense and CSR greedy pick the same sequence on a conflict graph
/// of the `reduce-dense` benchmark pool's size (n = 96, m = 768, k = 4),
/// where most alive row words hold no bit and a few hold many.
#[test]
fn dense_greedy_matches_csr_pick_sequence_on_a_pool_sized_instance() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(96, 768, 4));
    let cg = ConflictGraph::build(&inst.hypergraph, 4);
    let bits = cg.bitset().expect("the pool-sized instance takes the dense route");
    assert_eq!(dense_pick_sequence(bits), csr_pick_sequence(cg.graph()));
}

/// Every bit row of the direct dense build holds exactly its stored
/// degree (and no self bit), in both `E_color` readings. The build
/// derives each row's length in closed form, and `from_raw_parts`
/// re-checks it only in debug builds; this test keeps the check under
/// `--release`.
#[test]
fn dense_build_row_popcounts_equal_stored_degrees() {
    for (seed, (n, m, k)) in
        [(40, 20, 3), (96, 48, 4), (128, 64, 8), (64, 256, 2)].into_iter().enumerate()
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k));
        for literal in [false, true] {
            let cg = ConflictGraph::build_with_options(
                &inst.hypergraph,
                k,
                kernel_options(literal, KernelStrategy::Bitset),
            );
            let bits = cg.bitset().expect("forced bitset kernel builds bit rows");
            for v in (0..bits.node_count()).map(NodeId::new) {
                let ones: usize = bits.row(v).iter().map(|w| w.count_ones() as usize).sum();
                assert_eq!(ones, bits.degree(v), "({n}, {m}, {k}) literal = {literal}, node {v:?}");
                assert!(!bits.has_edge(v, v), "({n}, {m}, {k}) literal = {literal}, node {v:?}");
            }
        }
    }
}

/// A greedy oracle that, on its first call, runs a whole dense greedy
/// reduction of `h` on the thread calling it — a service worker — and
/// sends the outcome back.
struct ReduceOnWorker {
    h: Arc<Hypergraph>,
    ran: AtomicBool,
    out: Mutex<mpsc::Sender<ReductionOutcome>>,
}

impl MaxIsOracle for ReduceOnWorker {
    fn name(&self) -> &'static str {
        "reduce-on-worker"
    }

    fn independent_set(&self, graph: &Graph) -> pslocal::graph::IndependentSet {
        if !self.ran.swap(true, Ordering::SeqCst) {
            let out = reduce_cf_to_maxis(&self.h, &GreedyOracle, ReductionConfig::new(4))
                .expect("reduction on a service worker completes");
            self.out.lock().unwrap().send(out).unwrap();
        }
        GreedyOracle.independent_set(graph)
    }

    fn guarantee(&self) -> ApproxGuarantee {
        GreedyOracle.guarantee()
    }
}

/// A dense greedy reduction of a `reduce-dense` pool-sized instance
/// (n = 96, m = 768, k = 4) is the same wherever it runs: on the
/// calling thread, whose bit-row builds shard across all its CPUs;
/// with two component threads; and inside a 2-worker `Service`, whose
/// workers each get half the CPUs — identical records and coloring.
#[test]
fn dense_reduction_is_identical_across_cpu_shares() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let h = Arc::new(planted_cf_instance(&mut rng, PlantedCfParams::new(96, 768, 4)).hypergraph);
    let tel = Telemetry::new(MemorySink::new());
    let caller = reduce_cf_to_maxis_traced(&h, &GreedyOracle, ReductionConfig::new(4), &tel)
        .expect("reduction on the calling thread completes");
    let spans = tel.sink().spans();
    let phase0 = spans.iter().find(|s| s.name == names::CONFLICT_GRAPH).expect("phase 0 build");
    let shards = spans.iter().filter(|s| s.name == names::SHARD && s.parent == Some(phase0.id));
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert!(cpus < 2 || shards.count() >= 2, "phase 0 builds on several shards");
    let threaded = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(4).with_threads(2))
        .expect("reduction with two threads completes");

    let service = Service::start(ServiceConfig::new(2), Telemetry::disabled());
    let (tx, rx) = mpsc::channel();
    for (i, seed) in [1u64, 2].into_iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let small = planted_cf_instance(&mut rng, PlantedCfParams::new(24, 8, 3)).hypergraph;
        let oracle = ReduceOnWorker {
            h: Arc::clone(&h),
            ran: AtomicBool::new(false),
            out: Mutex::new(tx.clone()),
        };
        let request = ServiceRequest::new(
            format!("r{i}"),
            small,
            vec![Box::new(oracle)],
            ResilientConfig::new(3),
        );
        service.submit(request).unwrap();
    }
    drop(tx);
    let report = service.shutdown();
    assert!(report.drained.iter().all(|r| r.outcome.label() == "ok"));
    let served: Vec<ReductionOutcome> = rx.iter().collect();
    assert_eq!(served.len(), 2);

    assert!(is_conflict_free(&h, &caller.coloring));
    for (route, out) in [("threads 2", &threaded), ("service", &served[0]), ("service", &served[1])]
    {
        assert_eq!(out.records, caller.records, "{route}");
        assert_eq!(out.coloring, caller.coloring, "{route}");
    }
}
