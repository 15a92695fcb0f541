//! Component-parallel phase execution: connected components of the
//! conflict graph, a deterministic largest-first scoped-thread
//! scheduler, and the disjointness-checked independent-set merge.
//!
//! Independent sets compose across connected components: if
//! `G = C_0 ⊎ C_1 ⊎ …` and `I_j` is an independent set of `C_j`, then
//! `⋃_j I_j` is an independent set of `G` (no edge crosses components),
//! and `α(G) = Σ_j α(C_j)`. A λ-approximation obtained per component is
//! therefore a λ-approximation of the whole graph, and Lemma 2.1's
//! delivery bound `|I| ≥ |E_i|/λ` holds per component (each hyperedge's
//! triple block is an `E_edge` clique, so blocks never split across
//! components and the hyperedges of a phase *partition* across the
//! conflict graph's components). The Theorem 1.1 phase budget
//! `ρ = ⌈λ·ln m⌉ + 1` is unaffected — the reduction drivers may solve
//! components concurrently inside a phase without changing what the
//! phase commits.
//!
//! The components of `G_k` need not be searched for in `G_k`: every
//! edge between two different hyperedges' blocks requires `e ∩ g ≠ ∅`,
//! and (for `k ≥ 2`) one shared vertex suffices for an `E_vertex`
//! edge. So the components of `G_k` are the components of the residual
//! hypergraph's hyperedge-intersection structure.
//!
//! * [`HyperedgePartition`] — those components, by union-find over the
//!   hypergraph's vertices in `O(n + Σ|e|)`, without reading `G_k`'s
//!   adjacency. Ids and member lists are exactly
//!   [`ComponentPartition::of`]`(cg.graph())`'s. The reduction drivers
//!   use it: each component's `G_k` is **built directly** from its own
//!   hyperedges in the worker that claims it, so the kernel choice
//!   (`KernelStrategy::Auto`) applies per component, and the whole
//!   graph's CSR is never materialized for the split. The per-component
//!   sets merge back through block offsets
//!   ([`HyperedgePartition::merge`]).
//! * [`ComponentPartition`] — connected components of any [`Graph`]
//!   off its sorted CSR rows in `O(V + E)` (iterative BFS; component ids
//!   are ordered by smallest member node, so the labeling is canonical).
//!   [`ComponentExecutor`] runs one job per component on an **extracted**
//!   induced subgraph; the CLI's `maxis --threads N` uses it on plain
//!   graphs.
//! * Both run on one scheduler: one job per component on up to `N`
//!   scoped worker threads, **largest component first** (classic
//!   longest-processing-time scheduling to bound the makespan), with
//!   results slotted by component id, so the output is independent of
//!   the worker count and bit-reproducible.
//! * Both merges map per-component independent sets back to global
//!   vertex ids and re-verify disjointness (a machine-checked
//!   invariant: every global vertex claimed exactly once, by its own
//!   component) and independence on the whole graph.
//!
//! [`ParallelismOptions`] is the opt-in knob shared by
//! [`ReductionConfig`](crate::ReductionConfig) (and, through its `base`
//! field, the resilient driver): the default of one thread keeps both
//! drivers on their exact historical serial path.

use crate::conflict_graph::{kernel, ConflictGraph};
use pslocal_graph::{csr, Graph, HyperedgeId, IndependentSet, NodeId};
use pslocal_maxis::MaxIsOracle;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a reduction driver may use inside a phase.
///
/// `threads == 1` (the default) is the serial path: one oracle call on
/// the whole conflict graph, byte-identical to the drivers' historical
/// behavior. `threads > 1` opts into component decomposition; phases
/// whose conflict graph is connected (or empty) still take the serial
/// fast path with no thread spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismOptions {
    /// Upper bound on concurrent component solves per phase (≥ 1).
    pub threads: usize,
}

impl Default for ParallelismOptions {
    fn default() -> Self {
        ParallelismOptions::serial()
    }
}

impl ParallelismOptions {
    /// The serial default: whole-graph oracle calls, no decomposition.
    pub fn serial() -> Self {
        ParallelismOptions { threads: 1 }
    }

    /// Component-parallel execution on up to `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be positive");
        ParallelismOptions { threads }
    }

    /// Whether component decomposition is enabled at all.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// The connected components of a [`Graph`], extracted in `O(V + E)`.
///
/// Component ids are canonical: component `c` is the one containing the
/// `c`-th smallest "first" node, i.e. ids increase with each
/// component's minimum member. Member lists are sorted ascending (they
/// are collected by a scan over `0..n`), which is exactly the strictly
/// increasing keep-set [`csr::induced_sorted`] requires.
#[derive(Debug, Clone)]
pub struct ComponentPartition {
    /// `comp[v]` = component id of node `v`.
    comp: Vec<u32>,
    /// Per-component sorted member lists.
    members: Vec<Vec<NodeId>>,
}

impl ComponentPartition {
    /// Labels `graph`'s connected components with an iterative
    /// breadth-first search over the CSR rows.
    pub fn of(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut comp = vec![u32::MAX; n];
        let mut queue: Vec<usize> = Vec::new();
        let mut count = 0u32;
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = count;
            queue.push(start);
            while let Some(v) = queue.pop() {
                for &u in graph.neighbors(NodeId::new(v)) {
                    if comp[u.index()] == u32::MAX {
                        comp[u.index()] = count;
                        queue.push(u.index());
                    }
                }
            }
            count += 1;
        }
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); count as usize];
        for v in 0..n {
            members[comp[v] as usize].push(NodeId::new(v));
        }
        ComponentPartition { comp, members }
    }

    /// Number of components (0 for the empty graph).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the underlying graph had no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The component id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp[v.index()] as usize
    }

    /// The sorted member nodes of component `c`.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[c]
    }

    /// Node count of the largest component (0 if there are none).
    pub fn largest_size(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The induced subgraph of component `c`, renumbered
    /// `0..members(c).len()` in ascending global-node order (the
    /// renumbering is monotone, so per-component solutions map back via
    /// `members(c)[local.index()]`).
    pub fn subgraph(&self, graph: &Graph, c: usize) -> Graph {
        csr::induced_sorted(graph, &self.members[c])
    }
}

/// The connected components of a phase conflict graph `G_k`, read off
/// its hypergraph by union-find over the vertices in `O(n + Σ|e|)`.
///
/// Two hyperedges' blocks are adjacent in `G_k` exactly when the
/// hyperedges share a vertex `w`: `(e,w,0)`–`(g,w,1)` is an `E_vertex`
/// edge for `k ≥ 2`. For `k = 1` (no `E_vertex` edges) the `E_color`
/// family joins them instead, unless both are the same one-vertex
/// hyperedge `{w}`: the proof-faithful `E_color` needs two distinct
/// vertices, so such a hyperedge joins `w`'s component only through a
/// larger hyperedge containing `w`. Each block is an `E_edge` clique.
///
/// Component `c` is the one containing the `c`-th smallest "first"
/// hyperedge. Blocks are contiguous and ordered by hyperedge, so these
/// are the ids, and [`members`](Self::members) the sorted member lists,
/// of [`ComponentPartition::of`]`(cg.graph())`.
#[derive(Debug, Clone)]
pub struct HyperedgePartition {
    /// Per-component hyperedges (ids of `cg.hypergraph()`), ascending.
    edges: Vec<Vec<HyperedgeId>>,
    /// Per-component `G_k` node counts (`k · Σ_{e ∈ c} |e|`).
    nodes: Vec<usize>,
}

impl HyperedgePartition {
    /// Partitions `cg`'s hypergraph into the components of `cg`.
    pub fn of(cg: &ConflictGraph) -> Self {
        let h = cg.hypergraph();
        let k = cg.k();
        // One-vertex hyperedges need a larger hyperedge through their
        // vertex to join its component when k = 1 (see the type docs).
        let any_shared_vertex_joins = k >= 2 || cg.options().literal_ecolor;
        let mut parent: Vec<u32> = (0..h.node_count() as u32).collect();
        let mut in_larger = vec![false; if any_shared_vertex_joins { 0 } else { h.node_count() }];
        for e in h.edge_ids() {
            let members = h.edge(e);
            if members.len() < 2 {
                continue;
            }
            let root = find(&mut parent, members[0].index());
            for &v in &members[1..] {
                let r = find(&mut parent, v.index());
                parent[r as usize] = root;
            }
            if !any_shared_vertex_joins {
                for &v in members {
                    in_larger[v.index()] = true;
                }
            }
        }
        // Label components in first-hyperedge order: `label[root]` is
        // the component id of a vertex root, once seen.
        let mut label = vec![u32::MAX; h.node_count()];
        let mut edges: Vec<Vec<HyperedgeId>> = Vec::new();
        let mut nodes: Vec<usize> = Vec::new();
        for e in h.edge_ids() {
            let members = h.edge(e);
            let joins =
                any_shared_vertex_joins || members.len() >= 2 || in_larger[members[0].index()];
            let root = joins.then(|| find(&mut parent, members[0].index()) as usize);
            let c = match root.map(|r| label[r]) {
                Some(c) if c != u32::MAX => c as usize,
                _ => {
                    if let Some(r) = root {
                        label[r] = edges.len() as u32;
                    }
                    edges.push(Vec::new());
                    nodes.push(0);
                    edges.len() - 1
                }
            };
            edges[c].push(e);
            nodes[c] += members.len() * k;
        }
        HyperedgePartition { edges, nodes }
    }

    /// Number of components (0 for a hypergraph without hyperedges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether there are no components at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The hyperedges of component `c`, ascending — the residual edges
    /// its Lemma 2.1 quota counts, and the keep-list whose
    /// [`restrict_edges`](pslocal_graph::Hypergraph::restrict_edges)
    /// builds the component's own `G_k`.
    pub fn edges(&self, c: usize) -> &[HyperedgeId] {
        &self.edges[c]
    }

    /// `G_k` node count of component `c`.
    pub fn node_count(&self, c: usize) -> usize {
        self.nodes[c]
    }

    /// Node count of the largest component (0 if there are none).
    pub fn largest_size(&self) -> usize {
        self.nodes.iter().copied().max().unwrap_or(0)
    }

    /// The sorted global `G_k` nodes of component `c`: its hyperedges'
    /// blocks, concatenated in hyperedge order. Local node `i` of the
    /// component's own `G_k` is `members(cg, c)[i]`.
    pub fn members(&self, cg: &ConflictGraph, c: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes[c]);
        for &e in &self.edges[c] {
            let start = cg.block_start(e).index();
            let len = cg.hypergraph().edge_size(e) * cg.k();
            out.extend((start..start + len).map(NodeId::new));
        }
        out
    }

    /// Merges per-component independent sets (local node ids of each
    /// component's own `G_k`, indexed by component id) into one
    /// verified independent set of `cg`. Local ids map to global ones
    /// through [`members`](Self::members); the map is monotone.
    ///
    /// # Panics
    ///
    /// Panics if the merge violates its machine-checked invariants: a
    /// local vertex out of its component's range, a global vertex
    /// claimed twice, or — impossible for genuinely disjoint components
    /// — a cross-component adjacency surfacing in the final
    /// [`ConflictGraph::verify_independent`] re-check.
    pub fn merge(&self, cg: &ConflictGraph, locals: Vec<IndependentSet>) -> IndependentSet {
        assert_eq!(locals.len(), self.len(), "one set per component");
        let mut claimed = vec![false; cg.node_count()];
        let mut global: Vec<NodeId> = Vec::with_capacity(locals.iter().map(|s| s.len()).sum());
        for (c, local) in locals.iter().enumerate() {
            let members = self.members(cg, c);
            for v in local.iter() {
                let g = *members
                    .get(v.index())
                    // pslocal: allow(panic-path, "a local vertex past the component's last block is an oracle or partition bug; merging it would corrupt the global set")
                    .unwrap_or_else(|| panic!("component {c}: local vertex {v} out of range"));
                assert!(
                    !claimed[g.index()],
                    "disjointness violated: vertex {g} claimed twice during merge"
                );
                claimed[g.index()] = true;
                global.push(g);
            }
        }
        let set = IndependentSet::new_unchecked(global);
        assert!(
            cg.verify_independent(&set),
            "union of per-component independent sets is independent"
        );
        set
    }
}

/// Union-find root of `v`, halving the path on the way.
fn find(parent: &mut [u32], mut v: usize) -> u32 {
    while parent[v] as usize != v {
        let grand = parent[parent[v] as usize];
        parent[v] = grand;
        v = grand as usize;
    }
    v as u32
}

/// Runs `job(worker_state, c)` for every component `c` of the given
/// `sizes`, **largest first** (ties by id), on up to `threads` scoped
/// workers, and returns the results indexed by component id.
///
/// Workers atomically claim the next unclaimed component from that
/// fixed order, so big components start as early as possible and the
/// wall clock approaches `max(largest, total / N)`; every worker owns
/// one `new_worker()` state it lends to each of its jobs. The result
/// vector is the same for every thread count. A panic inside `job`
/// propagates to the caller once all workers have been joined.
pub(crate) fn largest_first<W, T, F>(
    sizes: &[usize],
    threads: usize,
    new_worker: impl Fn() -> W + Sync,
    job: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let jobs = sizes.len();
    let mut order: Vec<usize> = (0..jobs).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = new_worker();
        while let Some(&c) = order.get(cursor.fetch_add(1, Ordering::SeqCst)) {
            let out = job(&mut state, c);
            // pslocal: allow(panic-path, "each slot is written exactly once by one worker, so the lock can only poison if job() already panicked on this thread")
            *slots[c].lock().expect("component result slot") = Some(out);
        }
    };
    let pool = threads.min(jobs);
    if pool <= 1 {
        work();
    } else {
        // Each worker gets its share of the caller's CPUs, so a kernel
        // build inside a job does not nest a full-width shard per worker.
        let share = kernel::pool_share(pool);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| {
                    kernel::enter_pool(share);
                    work()
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            // pslocal: allow(panic-path, "all workers joined before collection: a None slot or poisoned lock means a scheduling bug that must not be silently dropped")
            slot.into_inner().expect("slot lock").expect("every scheduled component ran")
        })
        .collect()
}

/// Runs one job per connected component of a [`Graph`] on up to `N`
/// scoped worker threads, deterministically, each on the component's
/// extracted induced subgraph.
///
/// Scheduling is the shared **largest component first** scheduler
/// (ties broken by component id). Results are slotted by component id,
/// so the returned vector — and anything merged from it — is identical
/// for every worker count, including 1: runs are bit-reproducible and a
/// thread-count sweep is a pure performance experiment.
#[derive(Debug)]
pub struct ComponentExecutor<'g> {
    graph: &'g Graph,
    partition: ComponentPartition,
    threads: usize,
}

impl<'g> ComponentExecutor<'g> {
    /// Partitions `graph` and prepares an executor honoring `options`.
    pub fn new(graph: &'g Graph, options: ParallelismOptions) -> Self {
        ComponentExecutor {
            graph,
            partition: ComponentPartition::of(graph),
            threads: options.threads,
        }
    }

    /// The component partition driving the executor.
    pub fn partition(&self) -> &ComponentPartition {
        &self.partition
    }

    /// Whether running per component is worthwhile at all: more than
    /// one worker is allowed *and* there is more than one component.
    /// When `false`, callers should take their serial whole-graph path
    /// (single-component and empty inputs never spawn a thread).
    pub fn should_decompose(&self) -> bool {
        self.threads > 1 && self.partition.len() > 1
    }

    /// Runs `job(c, subgraph_of_c)` for every component `c`, largest
    /// first, on up to the configured number of workers; returns the
    /// results indexed by component id. Subgraph extraction happens
    /// inside the claiming worker, so it parallelizes with the solves.
    ///
    /// A panic inside `job` propagates to the caller once all workers
    /// have been joined (resilient callers wrap their jobs in
    /// [`std::panic::catch_unwind`] instead).
    pub fn run<T, F>(&self, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &Graph) -> T + Sync,
    {
        let sizes: Vec<usize> =
            (0..self.partition.len()).map(|c| self.partition.members(c).len()).collect();
        largest_first(
            &sizes,
            self.threads,
            || (),
            |_, c| job(c, &self.partition.subgraph(self.graph, c)),
        )
    }

    /// Merges per-component independent sets (local vertex ids, indexed
    /// by component id) into one verified independent set of the whole
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if the merge violates its machine-checked invariants: a
    /// local vertex out of its component's range, a global vertex
    /// claimed twice, or — impossible for genuinely disjoint components
    /// — a cross-component adjacency surfacing in the final
    /// [`IndependentSet::new`] re-verification.
    pub fn merge(&self, locals: Vec<IndependentSet>) -> IndependentSet {
        assert_eq!(locals.len(), self.partition.len(), "one set per component");
        let mut claimed = vec![false; self.graph.node_count()];
        let mut global: Vec<NodeId> = Vec::with_capacity(locals.iter().map(|s| s.len()).sum());
        for (c, local) in locals.iter().enumerate() {
            let members = self.partition.members(c);
            for v in local.iter() {
                let g = *members
                    .get(v.index())
                    // pslocal: allow(panic-path, "a subgraph vertex outside its component's member list is a partition-construction bug; merging it would corrupt the global set")
                    .unwrap_or_else(|| panic!("component {c}: local vertex {v} out of range"));
                assert!(
                    !claimed[g.index()],
                    "disjointness violated: vertex {g} claimed twice during merge"
                );
                claimed[g.index()] = true;
                global.push(g);
            }
        }
        IndependentSet::new(self.graph, global)
            // pslocal: allow(panic-path, "invariant: components are vertex-disjoint with no cross edges, so the union stays independent; a violation is a partition bug")
            .expect("union of per-component independent sets is independent")
    }

    /// Convenience composition of [`run`](Self::run) and
    /// [`merge`](Self::merge): one plain oracle call per component.
    /// (The reduction drivers inline this to attach telemetry spans;
    /// the CLI's `maxis --threads N` uses it directly.)
    pub fn independent_set<O: MaxIsOracle + ?Sized>(&self, oracle: &O) -> IndependentSet {
        let locals = self.run(|_, sub| oracle.independent_set(sub));
        self.merge(locals)
    }
}

/// Computes an independent set of `graph` with `oracle`, solving
/// connected components concurrently on up to `options.threads`
/// workers. With one thread, a connected graph, or an empty graph this
/// is exactly `oracle.independent_set(graph)` — no partition survives
/// and no thread is spawned on the fast path.
///
/// For oracles whose output on a disconnected graph is the union of
/// their per-component outputs (e.g. the degree-bucket greedy, whose
/// global pick sequence restricted to a component equals the local pick
/// sequence), the result is *identical* to the serial call; for all
/// oracles it is a verified independent set with the same per-component
/// approximation guarantee.
pub fn parallel_independent_set<O: MaxIsOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
    options: ParallelismOptions,
) -> IndependentSet {
    if !options.is_parallel() {
        return oracle.independent_set(graph);
    }
    let exec = ComponentExecutor::new(graph, options);
    if !exec.should_decompose() {
        return oracle.independent_set(graph);
    }
    exec.independent_set(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::cycle;
    use pslocal_graph::GraphBuilder;
    use pslocal_maxis::{ExactOracle, GreedyOracle};

    /// A graph with three components: C_5 on 0..5, K_4 on 5..9, and the
    /// isolated vertex 9.
    fn three_components() -> Graph {
        let mut b = GraphBuilder::new(10);
        for i in 0..5 {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 5));
        }
        for u in 5..9 {
            for v in (u + 1)..9 {
                b.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        b.build()
    }

    #[test]
    fn partition_labels_components_canonically() {
        let g = three_components();
        let p = ComponentPartition::of(&g);
        assert_eq!(p.len(), 3);
        assert_eq!(p.largest_size(), 5);
        // Component ids ordered by smallest member: cycle first.
        assert_eq!(p.members(0), (0..5).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(p.members(1), (5..9).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(p.members(2), &[NodeId::new(9)]);
        for v in 0..5 {
            assert_eq!(p.component_of(NodeId::new(v)), 0);
        }
        assert_eq!(p.component_of(NodeId::new(9)), 2);
    }

    #[test]
    fn partition_of_empty_and_connected_graphs() {
        assert!(ComponentPartition::of(&Graph::empty(0)).is_empty());
        let edgeless = ComponentPartition::of(&Graph::empty(4));
        assert_eq!(edgeless.len(), 4, "every isolated vertex is its own component");
        assert_eq!(ComponentPartition::of(&cycle(7)).len(), 1);
    }

    #[test]
    fn subgraphs_preserve_structure() {
        let g = three_components();
        let p = ComponentPartition::of(&g);
        let c0 = p.subgraph(&g, 0);
        assert_eq!((c0.node_count(), c0.edge_count()), (5, 5)); // C_5
        let c1 = p.subgraph(&g, 1);
        assert_eq!((c1.node_count(), c1.edge_count()), (4, 6)); // K_4
        let c2 = p.subgraph(&g, 2);
        assert_eq!((c2.node_count(), c2.edge_count()), (1, 0));
    }

    #[test]
    fn executor_results_are_thread_count_independent() {
        let g = three_components();
        let mut baseline: Option<Vec<(usize, usize)>> = None;
        for threads in [1, 2, 4, 8] {
            let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(threads));
            let out = exec.run(|c, sub| (c, sub.node_count()));
            assert_eq!(out, vec![(0, 5), (1, 4), (2, 1)]);
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(&out, b, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn merge_reassembles_and_verifies() {
        let g = three_components();
        let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(4));
        let set = exec.independent_set(&ExactOracle);
        // α(C_5) + α(K_4) + α(K_1) = 2 + 1 + 1.
        assert_eq!(set.len(), 4);
        assert!(g.is_independent_set(set.vertices()));
    }

    #[test]
    fn parallel_matches_serial_for_greedy_on_disjoint_unions() {
        let g = three_components();
        let serial = GreedyOracle.independent_set(&g);
        for threads in [2, 3, 8] {
            let par = parallel_independent_set(
                &g,
                &GreedyOracle,
                ParallelismOptions::with_threads(threads),
            );
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn fast_paths_skip_decomposition() {
        let connected = cycle(9);
        let exec = ComponentExecutor::new(&connected, ParallelismOptions::with_threads(8));
        assert!(!exec.should_decompose(), "one component: serial fast path");
        let disconnected = three_components();
        let serial = ComponentExecutor::new(&disconnected, ParallelismOptions::serial());
        assert!(!serial.should_decompose(), "one thread: serial fast path");
        assert!(!ParallelismOptions::serial().is_parallel());
        assert!(ParallelismOptions::default() == ParallelismOptions::serial());
    }

    #[test]
    fn hyperedge_merge_maps_local_ids_through_block_offsets() {
        // {0,1} and {2} share no vertex: two components, blocks 0..4
        // and 4..6 at k = 2.
        let h = pslocal_graph::Hypergraph::from_edges(3, [vec![0, 1], vec![2]]).unwrap();
        let cg = ConflictGraph::build(&h, 2);
        let split = HyperedgePartition::of(&cg);
        assert_eq!(split.len(), 2);
        assert_eq!(split.members(&cg, 1), vec![NodeId::new(4), NodeId::new(5)]);
        let local = |v: usize| IndependentSet::new_unchecked(vec![NodeId::new(v)]);
        let set = split.merge(&cg, vec![local(1), local(0)]);
        assert_eq!(set.vertices(), &[NodeId::new(1), NodeId::new(4)]);
        let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            split.merge(&cg, vec![IndependentSet::empty(), local(2)])
        }));
        assert!(out_of_range.is_err(), "component 1 has two local nodes");
    }

    #[test]
    fn pool_workers_get_their_share_of_the_callers_cpus() {
        let cpus = kernel::worker_count();
        let share = (cpus / 2).max(1);
        let shares = largest_first(&[1; 4], 2, || (), |_, _| kernel::cpu_share());
        assert_eq!(shares, vec![share; 4]);
        assert_eq!(kernel::cpu_share(), cpus, "the caller keeps its own share");
        // A 1-thread pool runs on the calling thread and leaves its
        // share as it was — the caller's, or a pool worker's.
        assert_eq!(largest_first(&[1; 3], 1, || (), |_, _| kernel::cpu_share()), vec![cpus; 3]);
        let nested = largest_first(
            &[1; 2],
            2,
            || (),
            |_, _| {
                let serial = largest_first(&[1; 2], 1, || (), |_, _| kernel::cpu_share());
                let pooled = largest_first(&[1; 2], 2, || (), |_, _| kernel::cpu_share());
                (serial, pooled)
            },
        );
        for (serial, pooled) in nested {
            assert_eq!(serial, vec![share; 2]);
            assert_eq!(pooled, vec![(share / 2).max(1); 2]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn merge_rejects_out_of_range_local_vertex() {
        let g = Graph::empty(2);
        let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(2));
        // Component 0 = {0} has exactly one local vertex; local id 5 is
        // out of range and must trip the merge invariant.
        let locals =
            vec![IndependentSet::new_unchecked(vec![NodeId::new(5)]), IndependentSet::empty()];
        let _ = exec.merge(locals);
    }
}
