//! Serial/parallel equivalence of component-parallel phase execution.
//!
//! The contract under test (see `pslocal::core::components`): the
//! number of worker threads is an *execution* parameter, never a
//! *semantic* one. For every instance and every thread count, both
//! drivers produce byte-identical outcomes to their serial runs —
//! same `PhaseRecord`s, same coloring, same color budget.
//!
//! The drivers find a phase's components on the hypergraph
//! ([`HyperedgePartition`]) and build each component's `G_k` on its
//! own kernel; a property pins that partition to the conflict graph's
//! own components, and a fixed instance pins the route where the whole
//! graph is CSR but every component is bitset.
//!
//! Two regression guards ride along: graphs that do not decompose
//! (single-component or empty conflict graphs) must take the serial
//! fast path even when threads are requested — verified through
//! telemetry, which records no `component` spans and no decomposition
//! counters on the fast path.

use proptest::prelude::*;
use pslocal::cfcolor::checker;
use pslocal::core::{
    reduce_cf_resilient, reduce_cf_to_maxis, reduce_cf_to_maxis_traced, ComponentPartition,
    ConflictGraph, ConflictGraphOptions, FaultEvent, HyperedgePartition, ReductionConfig,
    ResilientConfig,
};
use pslocal::graph::generators::hyper::{
    multi_component_cf_instance, PlantedCfInstance, PlantedCfParams,
};
use pslocal::graph::{HyperedgeId, Hypergraph, HypergraphBuilder, NodeId};
use pslocal::maxis::{
    CliqueRemovalOracle, FaultKind, FaultPlan, FaultyOracle, GreedyOracle, LubyOracle, MaxIsOracle,
};
use pslocal::telemetry::{names, Counter, MemorySink, Telemetry};
use rand::{Rng, SeedableRng};

/// The thread counts every equivalence property sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Vertex-disjoint planted copies, so `G_k` has ≥ `copies` components.
fn multi() -> impl Strategy<Value = PlantedCfInstance> {
    (0u64..5000, 2usize..5, 2usize..4, 4usize..8).prop_map(|(seed, copies, k, m)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        multi_component_cf_instance(&mut rng, PlantedCfParams::new(8 * k, m, k), copies)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trusting driver: every thread count reproduces the serial run
    /// byte-for-byte on multi-component instances.
    #[test]
    fn trusting_driver_is_thread_count_invariant(inst in multi()) {
        let serial = reduce_cf_to_maxis(
            &inst.hypergraph,
            &GreedyOracle,
            ReductionConfig::new(inst.k),
        ).expect("greedy completes on planted instances");
        prop_assert!(checker::is_conflict_free(&inst.hypergraph, &serial.coloring));
        for &threads in &THREADS {
            let par = reduce_cf_to_maxis(
                &inst.hypergraph,
                &GreedyOracle,
                ReductionConfig::new(inst.k).with_threads(threads),
            ).expect("parallel run completes whenever serial does");
            prop_assert_eq!(&par.records, &serial.records, "records differ at {} threads", threads);
            prop_assert_eq!(&par.coloring, &serial.coloring, "coloring differs at {} threads", threads);
            prop_assert_eq!(par.lambda, serial.lambda);
            prop_assert_eq!(par.rho, serial.rho);
            prop_assert_eq!(par.phases_used, serial.phases_used);
            prop_assert_eq!(par.total_colors, serial.total_colors);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resilient driver (clean oracle): every thread count reproduces
    /// the serial run — same reduction, empty fault log, zero retries.
    #[test]
    fn resilient_driver_is_thread_count_invariant(inst in multi()) {
        let chain: Vec<&dyn MaxIsOracle> = vec![&GreedyOracle];
        let serial = reduce_cf_resilient(
            &inst.hypergraph,
            &chain,
            ResilientConfig::new(inst.k),
        ).expect("clean serial run completes");
        for &threads in &THREADS {
            let mut config = ResilientConfig::new(inst.k);
            config.base = config.base.with_threads(threads);
            let par = reduce_cf_resilient(&inst.hypergraph, &chain, config)
                .expect("clean parallel run completes");
            prop_assert_eq!(&par.reduction.records, &serial.reduction.records);
            prop_assert_eq!(&par.reduction.coloring, &serial.reduction.coloring);
            prop_assert_eq!(par.reduction.total_colors, serial.reduction.total_colors);
            prop_assert!(par.fault_log.is_empty());
            prop_assert_eq!(par.retries, 0);
            prop_assert_eq!(par.fallbacks_engaged, 0);
        }
    }
}

/// Asserts the telemetry of a run that must have taken the serial fast
/// path: no `component` spans, no decomposition counters. (This is the
/// machine-checkable proxy for "no worker threads were spawned" — the
/// decomposed path always records both.)
fn assert_serial_fast_path(sink: &MemorySink) {
    assert!(sink.open_spans().is_empty());
    assert!(
        !sink.spans().iter().any(|s| s.name == names::COMPONENT),
        "fast path must not open component spans"
    );
    assert_eq!(sink.counter_total(Counter::Components), 0);
    assert_eq!(sink.counter_total(Counter::ParallelOracleCalls), 0);
}

/// A single hyperedge's conflict-graph block is an `E_edge` clique, so
/// `G_k` is connected: requesting 8 threads must hit the
/// single-component fast path and match the serial run exactly.
#[test]
fn single_component_takes_the_serial_fast_path() {
    let mut b = HypergraphBuilder::new(3);
    b.add_edge([NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    let h = b.build();
    let k = 3;

    let serial_sink = Telemetry::new(MemorySink::new());
    let serial =
        reduce_cf_to_maxis_traced(&h, &GreedyOracle, ReductionConfig::new(k), &serial_sink)
            .expect("serial run completes");

    let par_sink = Telemetry::new(MemorySink::new());
    let par = reduce_cf_to_maxis_traced(
        &h,
        &GreedyOracle,
        ReductionConfig::new(k).with_threads(8),
        &par_sink,
    )
    .expect("parallel run completes");

    assert_eq!(par.records, serial.records);
    assert_eq!(par.coloring, serial.coloring);
    assert_serial_fast_path(par_sink.sink());
    // And the span trees agree shape-for-shape with the serial run.
    assert_eq!(par_sink.sink().spans().len(), serial_sink.sink().spans().len());
}

/// An edgeless hypergraph reduces in zero phases; with threads
/// requested, nothing decomposes and nothing spawns.
#[test]
fn empty_graph_takes_the_serial_fast_path() {
    let h = HypergraphBuilder::new(4).build();
    let sink = Telemetry::new(MemorySink::new());
    let out = reduce_cf_to_maxis_traced(
        &h,
        &GreedyOracle,
        ReductionConfig::new(2).with_threads(8),
        &sink,
    )
    .expect("empty instance is trivially done");
    assert_eq!(out.phases_used, 0);
    assert_eq!(out.total_colors, 0);
    assert_serial_fast_path(sink.sink());
}

/// The resilient driver's fast path mirrors the trusting one: a
/// connected instance with threads requested records the serial span
/// shape and a clean outcome.
#[test]
fn resilient_single_component_takes_the_serial_fast_path() {
    let mut b = HypergraphBuilder::new(3);
    b.add_edge([NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    let h = b.build();

    let mut config = ResilientConfig::new(3);
    config.base = config.base.with_threads(8);
    let chain: Vec<&dyn MaxIsOracle> = vec![&GreedyOracle];
    let sink = Telemetry::new(MemorySink::new());
    let out = pslocal::core::reduce_cf_resilient_traced(&h, &chain, config, &sink)
        .expect("clean run completes");
    assert!(out.fault_log.is_empty());
    assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
    assert_serial_fast_path(sink.sink());
}

/// A small random hypergraph from `seed` in one of three shapes:
/// arbitrary edges of size 1–4 over few vertices (one-vertex and
/// repeated hyperedges, isolated vertices); disjoint random blocks
/// joined only through one shared vertex each (the `E_vertex` bridge
/// for `k ≥ 2`, the `E_color` bridge for `k = 1`), plus one-vertex
/// hyperedges on the shared vertices; and disjoint planted copies.
fn small_hypergraph(seed: u64, shape: u8) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let random_edge = |rng: &mut rand::rngs::StdRng, lo: usize, hi: usize| {
        let size = rng.gen_range(1..=4usize.min(hi - lo));
        let mut edge: Vec<usize> = (0..size).map(|_| rng.gen_range(lo..hi)).collect();
        edge.sort_unstable();
        edge.dedup();
        edge
    };
    match shape {
        0 => {
            let n = rng.gen_range(1..14usize);
            let m = rng.gen_range(0..12usize);
            let edges: Vec<Vec<usize>> = (0..m).map(|_| random_edge(&mut rng, 0, n)).collect();
            Hypergraph::from_edges(n, edges).expect("valid edges")
        }
        1 => {
            // Blocks of 5 vertices; block b > 0 reuses one vertex of
            // block b − 1 in place of its own first vertex.
            let blocks = rng.gen_range(2..5usize);
            let mut edges: Vec<Vec<usize>> = Vec::new();
            let mut shared = Vec::new();
            for b in 0..blocks {
                let bridge = (b > 0).then(|| rng.gen_range(5 * (b - 1)..5 * b));
                for _ in 0..rng.gen_range(1..4usize) {
                    let mut edge = random_edge(&mut rng, 5 * b, 5 * b + 5);
                    if let Some(w) = bridge {
                        for v in edge.iter_mut().filter(|v| **v == 5 * b) {
                            *v = w;
                        }
                        edge.sort_unstable();
                    }
                    edges.push(edge);
                }
                // Make sure the bridge is actually used by this block.
                if let Some(w) = bridge {
                    edges.push(vec![w, 5 * b + 1]);
                    shared.push(w);
                }
            }
            for w in shared {
                edges.push(vec![w]);
            }
            Hypergraph::from_edges(5 * blocks, edges).expect("valid edges")
        }
        _ => {
            let k = rng.gen_range(2..4usize);
            let copies = rng.gen_range(2..5usize);
            let params = PlantedCfParams::new(8 * k, rng.gen_range(2..6usize), k);
            multi_component_cf_instance(&mut rng, params, copies).hypergraph
        }
    }
}

/// The hypergraph partition of `cg` is the BFS partition of its CSR:
/// same component ids, same sorted member lists, every hyperedge's
/// block inside its component, every hyperedge in exactly one.
fn assert_partition_matches(cg: &ConflictGraph) {
    let split = HyperedgePartition::of(cg);
    let reference = ComponentPartition::of(cg.graph());
    assert_eq!(split.len(), reference.len(), "component count");
    assert_eq!(split.largest_size(), reference.largest_size());
    let mut seen: Vec<HyperedgeId> = Vec::new();
    for c in 0..split.len() {
        assert_eq!(split.members(cg, c), reference.members(c), "members of component {c}");
        assert_eq!(split.node_count(c), reference.members(c).len());
        for &e in split.edges(c) {
            assert_eq!(reference.component_of(cg.block_start(e)), c, "block of {e:?}");
        }
        seen.extend_from_slice(split.edges(c));
    }
    seen.sort_unstable();
    assert_eq!(seen, cg.hypergraph().edge_ids().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Union-find over the hypergraph finds exactly the connected
    /// components of `G_k`, for k = 1..3, both `E_color` readings, and
    /// restricted later-phase residuals.
    #[test]
    fn hyperedge_partition_matches_the_conflict_graph_components(
        (seed, shape, k, literal, keep_seed) in (0u64..1 << 40, 0u8..3, 1usize..4, 0u8..2, 0u64..1 << 40)
    ) {
        let h = small_hypergraph(seed, shape);
        let options = ConflictGraphOptions { literal_ecolor: literal == 1, ..Default::default() };
        let cg = ConflictGraph::build_with_options(&h, k, options);
        assert_partition_matches(&cg);
        // A residual: a random subset of the hyperedges survives.
        let mut rng = rand::rngs::StdRng::seed_from_u64(keep_seed);
        let keep: Vec<HyperedgeId> = h.edge_ids().filter(|_| rng.gen_bool(0.6)).collect();
        assert_partition_matches(&cg.restrict_to_edges(&keep));
    }
}

/// The benchmark's shape, scaled down: the whole `G_k` resolves to the
/// CSR route while every component's own `G_k` resolves to bitset, so
/// the component path runs the dense kernels the serial path does not.
/// Every driver, oracle and thread count must reproduce `threads = 1`.
#[test]
fn csr_whole_graph_with_bitset_components_is_thread_count_invariant() {
    let k = 4;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let h = multi_component_cf_instance(&mut rng, PlantedCfParams::new(32, 16, k), 11).hypergraph;
    let cg = ConflictGraph::build(&h, k);
    assert!(cg.bitset().is_none(), "whole graph must take the CSR route");
    let split = HyperedgePartition::of(&cg);
    assert_eq!(split.len(), 11);
    for c in 0..split.len() {
        let (h_c, _) = h.restrict_edges(split.edges(c));
        assert!(
            ConflictGraph::build(&h_c, k).bitset().is_some(),
            "component {c} must take the bitset route"
        );
    }

    let luby = LubyOracle::new(5);
    let oracles: [&dyn MaxIsOracle; 3] = [&GreedyOracle, &luby, &CliqueRemovalOracle];
    for oracle in oracles {
        let name = oracle.name();
        let serial = reduce_cf_to_maxis(&h, oracle, ReductionConfig::new(k))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let resilient_serial = reduce_cf_resilient(&h, &[oracle], ResilientConfig::new(k))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(resilient_serial.reduction.records, serial.records, "{name}");
        assert_eq!(resilient_serial.reduction.coloring, serial.coloring, "{name}");
        for threads in [2, 4] {
            let par = reduce_cf_to_maxis(&h, oracle, ReductionConfig::new(k).with_threads(threads))
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            assert_eq!(par.records, serial.records, "{name} records at {threads} threads");
            assert_eq!(par.coloring, serial.coloring, "{name} coloring at {threads} threads");
            let mut config = ResilientConfig::new(k);
            config.base = config.base.with_threads(threads);
            let res = reduce_cf_resilient(&h, &[oracle], config)
                .unwrap_or_else(|e| panic!("{name} resilient at {threads} threads: {e}"));
            assert_eq!(res.reduction.records, serial.records, "{name} resilient records");
            assert_eq!(res.reduction.coloring, serial.coloring, "{name} resilient coloring");
            assert!(res.fault_log.is_empty(), "{name}: clean run logs no faults");
        }
    }

    // A primary whose every call returns an invalid set: each site burns
    // its retries, falls back to greedy, and commits greedy's answer.
    // The plan is the same for every call, so the log is schedule-free.
    let run_invalid = |threads: usize| {
        let invalid = FaultyOracle::new(
            GreedyOracle,
            FaultPlan::scripted(vec![Some(FaultKind::InvalidSet); 1 << 12]),
        );
        let mut config = ResilientConfig::new(k);
        config.base = config.base.with_threads(threads);
        reduce_cf_resilient(&h, &[&invalid, &GreedyOracle], config).expect("fallback rescues")
    };
    let serial = run_invalid(1);
    assert_eq!(serial.reduction.phases_used, 1, "one phase, so one partition to expect");
    assert_eq!(serial.fallbacks_engaged, 1);
    // The parallel log is the serial site's log once per component, in
    // component order.
    let expected: Vec<FaultEvent> = (0..split.len())
        .flat_map(|c| {
            serial.fault_log.iter().map(move |e| FaultEvent { component: Some(c), ..e.clone() })
        })
        .collect();
    for threads in [2, 4] {
        let par = run_invalid(threads);
        assert_eq!(par.reduction.records, serial.reduction.records, "{threads} threads");
        assert_eq!(par.reduction.coloring, serial.reduction.coloring, "{threads} threads");
        assert_eq!(par.fault_log, expected, "{threads} threads");
        assert_eq!(par.fallbacks_engaged, split.len());
    }
}
