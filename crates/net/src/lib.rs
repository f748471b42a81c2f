//! Communication-network substrate for the cluster-graph coloring system.
//!
//! This crate models the *communication network* `G = (V_G, E_G)` of the
//! paper "Decentralized Distributed Graph Coloring: Cluster Graphs"
//! (Flin–Halldórsson–Nolin, PODC 2025), Section 3.2: an `n`-machine graph
//! whose links carry `O(log n)`-bit messages in synchronous rounds.
//!
//! It provides four things used by every higher layer:
//!
//! * [`CommGraph`] — the static machine/link topology, with a sharded,
//!   thread-count-independent bulk edge ingest
//!   ([`CommGraph::from_edges_with`]),
//! * [`CostMeter`] — honest accounting of rounds (both cluster-level
//!   "H-rounds" and network-level "G-rounds") and of bits per link per round,
//!   including automatic pipelining charges for oversized messages,
//! * [`SeedStream`] — deterministic, replayable per-entity random streams so
//!   every experiment row can be regenerated from a single seed,
//! * [`par`] — the shared parallel executor: [`ParallelConfig`],
//!   [`ShardPlan`], the persistent [`WorkerPool`] and the deterministic
//!   fill/map-reduce/k-way-merge primitives every sharded phase above
//!   (aggregation rounds, `ClusterGraph::build`, the generators) runs on.
//!   `cgc_cluster` re-exports all of it, so either crate path works.
//!
//! # Example
//!
//! ```
//! use cgc_net::{CommGraph, CostMeter};
//!
//! let g = CommGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! assert_eq!(g.degree(1), 2);
//! let mut meter = CostMeter::new(64);
//! meter.charge_message(48); // within budget: one sub-round
//! assert_eq!(meter.report().h_rounds, 0); // rounds are charged explicitly
//! ```

pub mod bandwidth;
pub mod bits;
pub mod delta;
pub mod error;
pub mod graph;
pub mod par;
pub mod rng;

pub use bandwidth::{CostMeter, CostReport, PhaseCost};
pub use bits::{BitMatrix, BitsScratch, PaletteBits};
pub use delta::{DeltaBatch, DeltaEffect};
pub use error::NetError;
pub use graph::{BfsScratch, CommGraph, MachineId};
pub use par::{
    available_threads, fill_segmented_with_offsets, fold_rows_segmented, kway_merge_counted,
    kway_merge_dedup, map_reduce_on, merge_sorted_runs, patch_csr_rows, run_waves,
    total_scoped_threads_spawned, ParallelConfig, SegmentedPlan, ShardPlan, WaveSchedule,
    WaveStats, WorkerPool,
};
pub use rng::SeedStream;
