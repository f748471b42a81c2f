//! The shared parallel executor, re-exported from [`cgc_net::par`].
//!
//! The shard plans, [`ParallelConfig`], the persistent [`WorkerPool`] and
//! the deterministic fill/map-reduce/k-way-merge primitives historically
//! lived here; they moved down to `cgc_net` so the network layer's sharded
//! edge ingest ([`cgc_net::CommGraph::from_edges_with`]) and the
//! generators in `cgc_graphs` can run on the same machinery without a
//! dependency cycle. Every existing `cgc_cluster::par::…` /
//! `cgc_cluster::…` import keeps working through this re-export.
//!
//! The one cluster-specific piece is planning from a built topology:
//! [`crate::ClusterGraph::shard_plan`] and
//! [`crate::ClusterGraph::segmented_plan`] wrap [`ShardPlan::from_prefix`]
//! and [`SegmentedPlan::from_prefix`] over the `H`-adjacency CSR.

pub use cgc_net::par::*;
