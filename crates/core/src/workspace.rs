//! Reusable per-run scratch for the multi-phase reduction loop.
//!
//! Every phase of the Theorem 1.1 reduction restricts the conflict
//! graph, runs the oracle, and commits — a loop whose steady state
//! used to allocate a fresh CSR (offsets + targets), a fresh keep-list,
//! and fresh oracle scratch per phase. [`PhaseWorkspace`] owns all of
//! that once per *run*: the shared phase loop behind both drivers
//! threads it through [`ConflictGraph::restrict_to_edges_in`] (CSR
//! arena + keep-list) and the dense oracle dispatch
//! ([`MaxIsOracle::independent_set_dense`] gets the
//! [`BitsetScratch`]), so later phases recycle the earlier phases'
//! buffers instead of hitting the allocator.
//!
//! A workspace carries **no semantic state**: running two reductions
//! back-to-back through one workspace yields byte-identical outcomes
//! to two fresh-allocation runs (the workspace-reuse tests pin this).
//!
//! [`ConflictGraph::restrict_to_edges_in`]: crate::ConflictGraph::restrict_to_edges
//! [`MaxIsOracle::independent_set_dense`]: pslocal_maxis::MaxIsOracle::independent_set_dense

use pslocal_graph::{csr, BitsetScratch, NodeId};

/// Per-run scratch buffers for the phase loop — see the module docs.
///
/// Construct once ([`PhaseWorkspace::new`] or `Default`), lend to any
/// number of reduction runs via
/// [`reduce_cf_to_maxis_with_workspace`](crate::reduction::reduce_cf_to_maxis_with_workspace).
#[derive(Debug, Default)]
pub struct PhaseWorkspace {
    /// CSR induced-subgraph build arena: the position map and retired
    /// offsets/targets buffers `csr::induced_sorted_in` fills the next
    /// restricted graph into.
    pub(crate) arena: csr::InducedArena,
    /// The restriction keep-list (surviving triple nodes), rebuilt in
    /// place each phase.
    pub(crate) nodes: Vec<NodeId>,
    /// Word-parallel scratch for the dense oracle kernels.
    pub(crate) scratch: BitsetScratch,
}

impl PhaseWorkspace {
    /// An empty workspace; buffers grow to steady-state size during the
    /// first run and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }
}
