//! Cluster-graph topology (Definition 3.1).
//!
//! Builds, from a communication network and a machine→cluster assignment:
//! the clusters, a BFS support tree per cluster (leader = smallest machine
//! id, matching the paper's "assume each cluster elected a leader"), the
//! dilation `d`, the deduplicated adjacency of `H`, and the inter-cluster
//! link table with multiplicities. The link table is what makes the paper's
//! Figure 1 phenomenon observable: two clusters can be joined by many links
//! yet contribute a single edge of `H`.

use crate::par::{
    for_each_shard, map_reduce_on, merge_sorted_runs, patch_csr_rows, run_waves, ParallelConfig,
    SegmentedPlan, SendPtr, ShardPlan, WaveSchedule, WorkerPool,
};
use cgc_net::{BfsScratch, CommGraph, DeltaBatch, MachineId, NetError};
use std::time::Instant;

/// Identifier of a node of the cluster graph `H` (a cluster of machines).
pub type VertexId = usize;

/// A BFS tree spanning one cluster in the communication graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportTree {
    /// The cluster's leader (root of the tree).
    pub leader: MachineId,
    /// Machines of the cluster, sorted.
    pub machines: Vec<MachineId>,
    /// Parent of each machine in the tree (`None` for the leader), indexed
    /// positionally in parallel with `machines`.
    pub parent: Vec<Option<MachineId>>,
    /// Depth of each machine, positionally parallel with `machines`.
    pub depth: Vec<usize>,
    /// Height of the tree (max depth).
    pub height: usize,
}

impl SupportTree {
    /// Number of machines spanned.
    pub fn size(&self) -> usize {
        self.machines.len()
    }

    /// Number of tree edges (`size - 1`).
    pub fn n_edges(&self) -> usize {
        self.machines.len().saturating_sub(1)
    }
}

/// Wall-clock sub-phase timings of one [`ClusterGraph::build_timed`] call
/// — the build dominates instance setup at large `n`, so the bench
/// baseline records these per thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildTimings {
    /// Support-tree phase: per-cluster BFS (sharded by cluster id).
    pub tree_secs: f64,
    /// Link phase: inter-cluster link collection plus each shard's local
    /// pair sort/dedup (sharded by `G`-edge ranges).
    pub link_secs: f64,
    /// Sort/assembly phase: fixed-order k-way merge of the shard pair
    /// lists, CSR assembly, and the sharded per-row adjacency sorts.
    pub sort_secs: f64,
    /// End-to-end build time.
    pub total_secs: f64,
    /// Configured executor width the build ran under.
    pub threads: usize,
}

/// What one [`ClusterGraph::apply_delta_with`] call changed above the
/// network layer: the effective `G`-edge change plus its projection onto
/// clusters and `H`-edges — the inputs the coloring layer's dirty-region
/// recolor needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// The effective `G`-level change (no-op entries filtered out).
    pub effect: cgc_net::DeltaEffect,
    /// Clusters whose support tree was rebuilt (an intra-cluster edge
    /// changed), ascending.
    pub dirty_clusters: Vec<VertexId>,
    /// `H`-edges that appeared (multiplicity went `0 → >0`), canonical
    /// sorted.
    pub h_inserted: Vec<(VertexId, VertexId)>,
    /// `H`-edges that vanished (multiplicity went `→ 0`), canonical
    /// sorted.
    pub h_removed: Vec<(VertexId, VertexId)>,
    /// `H`-edges whose multiplicity changed but which survived.
    pub h_mult_changed: usize,
}

impl DeltaReport {
    /// Whether the batch changed nothing at any layer.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.effect.is_noop()
    }
}

/// How one [`ClusterGraph::apply_delta_scheduled`] call executed its
/// dirty-cluster support-tree repair. Deliberately **not** part of
/// [`DeltaReport`]: the report is compared byte-for-byte across executors
/// by the differential suites, while these stats describe the execution —
/// `waves`/`largest_wave` are pure functions of the dirty set and the
/// schedule (thread-independent), but `scheduled` depends on whether a
/// schedule was supplied at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Whether the repair ran through the wave executor.
    pub scheduled: bool,
    /// Non-empty waves the dirty clusters grouped into (0 when
    /// unscheduled).
    pub waves: usize,
    /// Dirty clusters in the fullest wave (0 when unscheduled).
    pub largest_wave: usize,
}

impl RepairStats {
    /// Folds a later batch's stats into an aggregate (waves add, the
    /// largest wave takes the max, `scheduled` ORs).
    pub fn absorb(&mut self, other: RepairStats) {
        self.scheduled |= other.scheduled;
        self.waves += other.waves;
        self.largest_wave = self.largest_wave.max(other.largest_wave);
    }
}

/// The cluster graph `H` over a communication network `G`.
///
/// Equality is full structural equality over every derived table — the
/// differential suites use it to pin the sharded build to the serial one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterGraph {
    comm: CommGraph,
    /// machine → cluster id.
    assignment: Vec<VertexId>,
    support: Vec<SupportTree>,
    /// CSR adjacency of `H` (deduplicated, sorted).
    h_offsets: Vec<usize>,
    h_adj: Vec<VertexId>,
    /// Inter-cluster links `(machine_u, machine_v, cluster_u, cluster_v)`
    /// with `cluster_u < cluster_v`.
    links: Vec<(MachineId, MachineId, VertexId, VertexId)>,
    /// Deduplicated `H`-edges `(u, v)` with `u < v`, sorted — rows of the
    /// same lower endpoint are contiguous (CSR-aligned via `edge_offsets`).
    edges: Vec<(VertexId, VertexId)>,
    /// Multiplicity column parallel to `edges` (parallel `G`-links per edge).
    edge_mult: Vec<u32>,
    /// `edges[edge_offsets[u]..edge_offsets[u + 1]]` are the edges whose
    /// lower endpoint is `u`, sorted by upper endpoint.
    edge_offsets: Vec<usize>,
    dilation: usize,
    max_degree: usize,
}

impl ClusterGraph {
    /// Builds the cluster graph from a machine→cluster assignment,
    /// sequentially.
    ///
    /// Cluster ids must form a contiguous range `0..k` (holes are rejected
    /// by the connectivity check since an empty cluster is vacuously
    /// disconnected in spirit; supply contiguous ids).
    ///
    /// # Errors
    ///
    /// * [`NetError::AssignmentLength`] if `assignment.len() != n_machines`,
    /// * [`NetError::DisconnectedCluster`] if some cluster does not induce a
    ///   connected subgraph of `G` (Definition 3.1 requires connectivity).
    pub fn build(comm: CommGraph, assignment: Vec<VertexId>) -> Result<Self, NetError> {
        Self::build_with(comm, assignment, &ParallelConfig::serial())
    }

    /// [`Self::build`] sharded over `par`'s threads (dispatched on the
    /// process-global [`WorkerPool`], so repeated builds reuse the same
    /// parked workers as the aggregation rounds). The three heavy phases
    /// shard independently: support-tree BFS by cluster id (each worker
    /// with its own subset scratch), link collection by `G`-edge ranges
    /// (shard-local sort/dedup, fixed-order k-way merge), and the per-row
    /// adjacency sorts by `H`-row mass. Every derived table is
    /// **byte-identical** to the sequential build at any thread count
    /// (`tests/build_equivalence.rs` pins this), including which error is
    /// reported on invalid input.
    pub fn build_with(
        comm: CommGraph,
        assignment: Vec<VertexId>,
        par: &ParallelConfig,
    ) -> Result<Self, NetError> {
        Self::build_timed(comm, assignment, par).map(|(g, _)| g)
    }

    /// [`Self::build_with`] also returning per-phase [`BuildTimings`].
    pub fn build_timed(
        comm: CommGraph,
        assignment: Vec<VertexId>,
        par: &ParallelConfig,
    ) -> Result<(Self, BuildTimings), NetError> {
        let total_start = Instant::now();
        let n = comm.n_machines();
        if assignment.len() != n {
            return Err(NetError::AssignmentLength {
                expected: n,
                actual: assignment.len(),
            });
        }
        let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let pool = WorkerPool::global(par.threads());
        let pool = pool.as_deref();

        // Member CSR via counting sort: machines ascend within each
        // cluster, so `members(c)[0]` is the smallest machine — the leader.
        let mut member_offsets = vec![0usize; k + 1];
        for &c in &assignment {
            member_offsets[c + 1] += 1;
        }
        for i in 0..k {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor = member_offsets[..k].to_vec();
        let mut member_ids = vec![0usize; n];
        for (m, &c) in assignment.iter().enumerate() {
            member_ids[cursor[c]] = m;
            cursor[c] += 1;
        }

        // ---- Phase 1: support trees, sharded by cluster id ----
        // Shards are contiguous ascending cluster ranges merged in shard
        // order, so the first error (by cluster id) wins exactly as in the
        // sequential walk. A cluster's BFS is an indivisible unit (the
        // traversal is one sequential frontier), so this phase cannot
        // segment inside a row; `from_prefix`'s retargeting keeps the
        // clusters *after* a giant one evenly spread instead of collapsing
        // into it, which is the best a row-granular split can do here.
        let tree_start = Instant::now();
        let tree_plan = ShardPlan::from_prefix(&member_offsets, par.threads());
        let support = map_reduce_on(
            &tree_plan,
            pool,
            |range| build_support_trees(&comm, &member_offsets, &member_ids, range),
            |acc: &mut Result<Vec<SupportTree>, NetError>, part| {
                if let Ok(trees) = acc {
                    match part {
                        Ok(more) => trees.extend(more),
                        Err(e) => *acc = Err(e),
                    }
                }
            },
        )?;
        let tree_secs = tree_start.elapsed().as_secs_f64();

        // ---- Phase 2: inter-cluster links, sharded by G-edge ranges ----
        // Each shard walks its contiguous edge range in order (so the
        // concatenated link table equals the sequential sweep's) and
        // sorts/dedups its own pairs locally. The split is over `G`-edge
        // *entries*, not clusters, so a hub cluster's links already spread
        // across shards — this phase is hub-proof by construction and
        // needs no segmented plan.
        let link_start = Instant::now();
        let link_plan = ShardPlan::even(comm.edges().len(), par.threads());
        let parts: Vec<LinkShard> = map_reduce_on(
            &link_plan,
            pool,
            |range| {
                let mut links = Vec::new();
                let mut raw: Vec<(VertexId, VertexId)> = Vec::new();
                for &(a, b) in &comm.edges()[range] {
                    let (ca, cb) = (assignment[a], assignment[b]);
                    if ca != cb {
                        let (lo, hi, mlo, mhi) = if ca < cb {
                            (ca, cb, a, b)
                        } else {
                            (cb, ca, b, a)
                        };
                        links.push((mlo, mhi, lo, hi));
                        raw.push((lo, hi));
                    }
                }
                raw.sort_unstable();
                let mut pairs: Vec<((VertexId, VertexId), u32)> = Vec::new();
                for p in raw {
                    match pairs.last_mut() {
                        Some((last, mult)) if *last == p => *mult += 1,
                        _ => pairs.push((p, 1)),
                    }
                }
                vec![LinkShard { links, pairs }]
            },
            |acc: &mut Vec<LinkShard>, part| acc.extend(part),
        );
        let link_secs = link_start.elapsed().as_secs_f64();

        // ---- Phase 3: deterministic merge + CSR assembly ----
        let sort_start = Instant::now();
        let mut links = Vec::with_capacity(parts.iter().map(|p| p.links.len()).sum());
        let mut pair_lists = Vec::with_capacity(parts.len());
        for part in parts {
            links.extend(part.links);
            pair_lists.push(part.pairs);
        }
        // Fixed-order k-way merge of the sorted, deduped shard pair lists:
        // the sorted multiset union is unique, so `edges`/`edge_mult` equal
        // the sequential sort+dedup byte for byte.
        let (edges, edge_mult) = cgc_net::kway_merge_counted(pair_lists);

        // CSR row bounds over the lower endpoint (edges are sorted, so rows
        // are contiguous and sorted by upper endpoint).
        let mut edge_offsets = vec![0usize; k + 1];
        for &(u, _) in &edges {
            edge_offsets[u + 1] += 1;
        }
        for i in 0..k {
            edge_offsets[i + 1] += edge_offsets[i];
        }

        let mut deg = vec![0usize; k];
        for &(u, v) in &edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut h_offsets = Vec::with_capacity(k + 1);
        h_offsets.push(0usize);
        for d in &deg {
            h_offsets.push(h_offsets.last().unwrap() + d);
        }
        let mut h_adj = vec![0usize; h_offsets[k]];
        let mut cursor = h_offsets[..k].to_vec();
        for &(u, v) in &edges {
            h_adj[cursor[u]] = v;
            cursor[u] += 1;
            h_adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        // CSR rows are sorted because the edge table is sorted for the `u`
        // side; the `v` side needs a sort. A fully sorted row is unique,
        // making the result independent of the split: each segment of a
        // `SegmentedPlan` sorts its fragments in parallel (a hub row is
        // split into several), and a serial pass merges each split row's
        // sorted runs in ascending segment order.
        let seg = SegmentedPlan::from_prefix(&h_offsets, par.threads());
        {
            let base = SendPtr::new(h_adj.as_mut_ptr());
            let h_offsets = &h_offsets;
            let seg = &seg;
            for_each_shard(pool, seg.n_segments(), &|s| {
                let (r0, e0) = seg.cut(s);
                let (_, e1) = seg.cut(s + 1);
                let mut r = r0;
                let mut lo = e0;
                while lo < e1 {
                    let hi = h_offsets[r + 1].min(e1);
                    if hi > lo {
                        // SAFETY: segment entry ranges are disjoint
                        // sub-slices of `h_adj`.
                        let frag =
                            unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
                        frag.sort_unstable();
                    }
                    lo = h_offsets[r + 1];
                    r += 1;
                }
            });
        }
        // Merge each split row's sorted fragments (distinct neighbor ids,
        // so the merged row equals the full sort).
        let mut scratch: Vec<VertexId> = Vec::new();
        let mut bounds: Vec<usize> = Vec::new();
        let segs = seg.n_segments();
        let mut s = 1;
        while s < segs {
            let (r, e) = seg.cut(s);
            if e <= h_offsets[r] {
                s += 1;
                continue;
            }
            let (lo, hi) = (h_offsets[r], h_offsets[r + 1]);
            bounds.clear();
            bounds.push(0);
            while s < segs {
                let (r2, e2) = seg.cut(s);
                if r2 == r && e2 > lo {
                    bounds.push(e2 - lo);
                    s += 1;
                } else {
                    break;
                }
            }
            bounds.push(hi - lo);
            merge_sorted_runs(&mut h_adj[lo..hi], &bounds, &mut scratch);
        }
        let sort_secs = sort_start.elapsed().as_secs_f64();

        let dilation = support.iter().map(|t| t.height).max().unwrap_or(0).max(1);
        let max_degree = deg.iter().copied().max().unwrap_or(0);
        let timings = BuildTimings {
            tree_secs,
            link_secs,
            sort_secs,
            total_secs: total_start.elapsed().as_secs_f64(),
            threads: par.threads(),
        };
        Ok((
            ClusterGraph {
                comm,
                assignment,
                support,
                h_offsets,
                h_adj,
                links,
                edges,
                edge_mult,
                edge_offsets,
                dilation,
                max_degree,
            },
            timings,
        ))
    }

    /// Applies a `G`-edge delta batch in place, serially. See
    /// [`Self::apply_delta_with`].
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta_with`].
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, NetError> {
        self.apply_delta_with(batch, &ParallelConfig::serial())
    }

    /// Propagates a `G`-edge delta batch through every derived table
    /// incrementally: the communication CSR patches via
    /// [`CommGraph::apply_delta_with`], support trees rebuild **only** for
    /// dirty clusters (those whose intra-cluster edges changed — an
    /// inter-cluster change cannot alter a subset BFS because a sorted CSR
    /// row's intra-cluster subsequence is unchanged), the link table and
    /// the `H`-edge/multiplicity columns merge linearly with the effective
    /// change, and the `H` adjacency re-merges only touched rows. The
    /// result is byte-identical ([`PartialEq`]) to
    /// [`Self::build_with`] on the mutated edge set at any thread count.
    ///
    /// The whole update is compute-then-commit: on error (invalid batch,
    /// or a delete disconnecting a cluster) the graph is left unchanged.
    ///
    /// # Errors
    ///
    /// [`NetError::MachineOutOfRange`] if the batch names a machine the
    /// graph does not have; [`NetError::DisconnectedCluster`] (smallest
    /// failing cluster id, matching the full build) if a deletion
    /// disconnects a cluster's induced subgraph.
    pub fn apply_delta_with(
        &mut self,
        batch: &DeltaBatch,
        par: &ParallelConfig,
    ) -> Result<DeltaReport, NetError> {
        self.apply_delta_scheduled(batch, par, None)
            .map(|(report, _)| report)
    }

    /// [`Self::apply_delta_with`] with an optional **wave schedule** over
    /// the clusters: when `waves` partitions `H`'s vertices into
    /// conflict-free classes (one wave = one color class of a proper
    /// coloring of `H`), the dirty-cluster support-tree repair of stage 2
    /// dispatches wave-parallel over the worker pool instead of walking
    /// the dirty list serially. Clusters in one wave share no `H`-edge, so
    /// the `G`-neighborhoods their subset BFS reads are provably disjoint
    /// from the repairs running beside them — each shard keeps its own
    /// scratch and writes its trees into per-cluster slots, no locks, no
    /// atomics. Every other stage (the sorted-merge commit in particular)
    /// is unchanged, so the mutated graph is byte-identical to the
    /// unscheduled path at any thread count; only the returned
    /// [`RepairStats`] describe how the repair was executed.
    ///
    /// A schedule whose item count does not match `H`'s vertex count is
    /// ignored (the serial repair runs, `RepairStats::scheduled` stays
    /// false).
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta_with`]; when several dirty clusters
    /// disconnect at once the **smallest** failing id is reported on both
    /// paths, so the error is schedule- and thread-independent.
    pub fn apply_delta_scheduled(
        &mut self,
        batch: &DeltaBatch,
        par: &ParallelConfig,
        waves: Option<&WaveSchedule>,
    ) -> Result<(DeltaReport, RepairStats), NetError> {
        // Stage 1: patch G. Nothing mutates until every fallible step has
        // succeeded.
        let (new_comm, effect) = self.comm.with_delta_with(batch, par)?;
        if effect.is_noop() {
            return Ok((
                DeltaReport {
                    effect,
                    ..Default::default()
                },
                RepairStats::default(),
            ));
        }
        let assignment = &self.assignment;
        // Partition the effective change intra/inter by the (unchanged)
        // assignment; both lists stay sorted by canonical machine pair.
        let mut dirty: Vec<VertexId> = Vec::new();
        let mut inter_ins: Vec<(MachineId, MachineId)> = Vec::new();
        let mut inter_del: Vec<(MachineId, MachineId)> = Vec::new();
        for &(a, b) in &effect.inserted {
            if assignment[a] == assignment[b] {
                dirty.push(assignment[a]);
            } else {
                inter_ins.push((a, b));
            }
        }
        for &(a, b) in &effect.deleted {
            if assignment[a] == assignment[b] {
                dirty.push(assignment[a]);
            } else {
                inter_del.push((a, b));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        // Stage 2: support-tree repair for dirty clusters only. The serial
        // walk goes ascending, so the first disconnection (smallest
        // cluster id) is reported — exactly the full build's error, since
        // an unchanged cluster cannot newly fail; the scheduled path
        // reports the minimum over all failures, which is the same id.
        let (rebuilt, repair) = match waves.filter(|ws| ws.n_items() == self.support.len()) {
            Some(ws) if !dirty.is_empty() => {
                self.repair_dirty_scheduled(&new_comm, &dirty, ws, par)?
            }
            _ => (
                self.repair_dirty_serial(&new_comm, &dirty)?,
                RepairStats::default(),
            ),
        };
        // Stage 3: link-table patch. Old links are in `comm.edges()` order,
        // i.e. sorted by their canonical machine pair, so they merge
        // linearly with the effective inter-cluster change.
        let link_for = |(a, b): (MachineId, MachineId)| {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca < cb {
                (a, b, ca, cb)
            } else {
                (b, a, cb, ca)
            }
        };
        let mut links = Vec::with_capacity(self.links.len() + inter_ins.len() - inter_del.len());
        {
            let (mut ii, mut di) = (0usize, 0usize);
            for &l in &self.links {
                let key = (l.0.min(l.1), l.0.max(l.1));
                while ii < inter_ins.len() && inter_ins[ii] < key {
                    links.push(link_for(inter_ins[ii]));
                    ii += 1;
                }
                if di < inter_del.len() && inter_del[di] == key {
                    di += 1;
                    continue;
                }
                links.push(l);
            }
            for &e in &inter_ins[ii..] {
                links.push(link_for(e));
            }
        }
        // Stage 4: per-H-edge multiplicity deltas (net-zero entries drop).
        let mut pair_delta: Vec<((VertexId, VertexId), i64)> =
            Vec::with_capacity(inter_ins.len() + inter_del.len());
        for &(a, b) in &inter_ins {
            let (ca, cb) = (assignment[a], assignment[b]);
            pair_delta.push(((ca.min(cb), ca.max(cb)), 1));
        }
        for &(a, b) in &inter_del {
            let (ca, cb) = (assignment[a], assignment[b]);
            pair_delta.push(((ca.min(cb), ca.max(cb)), -1));
        }
        pair_delta.sort_unstable_by_key(|&(p, _)| p);
        let mut agg: Vec<((VertexId, VertexId), i64)> = Vec::with_capacity(pair_delta.len());
        for (p, d) in pair_delta {
            match agg.last_mut() {
                Some((last, sum)) if *last == p => *sum += d,
                _ => agg.push((p, d)),
            }
        }
        agg.retain(|&(_, d)| d != 0);
        // Stage 5: patch the sorted edge/multiplicity columns, recording
        // which H-edges appeared (multiplicity 0 → >0) and vanished
        // (→ 0).
        let mut h_inserted: Vec<(VertexId, VertexId)> = Vec::new();
        let mut h_removed: Vec<(VertexId, VertexId)> = Vec::new();
        let mut h_mult_changed = 0usize;
        let mut edges = Vec::with_capacity(self.edges.len() + agg.len());
        let mut edge_mult = Vec::with_capacity(self.edges.len() + agg.len());
        {
            let mut pi = 0usize;
            for (i, &e) in self.edges.iter().enumerate() {
                while pi < agg.len() && agg[pi].0 < e {
                    let (p, d) = agg[pi];
                    debug_assert!(d > 0, "negative multiplicity delta on absent H-edge");
                    edges.push(p);
                    edge_mult.push(d as u32);
                    h_inserted.push(p);
                    pi += 1;
                }
                let m = self.edge_mult[i] as i64;
                if pi < agg.len() && agg[pi].0 == e {
                    let m2 = m + agg[pi].1;
                    pi += 1;
                    debug_assert!(m2 >= 0, "multiplicity underflow");
                    if m2 == 0 {
                        h_removed.push(e);
                        continue;
                    }
                    h_mult_changed += 1;
                    edges.push(e);
                    edge_mult.push(m2 as u32);
                } else {
                    edges.push(e);
                    edge_mult.push(m as u32);
                }
            }
            for &(p, d) in &agg[pi..] {
                debug_assert!(d > 0, "negative multiplicity delta on absent H-edge");
                edges.push(p);
                edge_mult.push(d as u32);
                h_inserted.push(p);
            }
        }
        // Stage 6: CSR patches and recomputed scalars, then commit.
        let k = self.support.len();
        let mut edge_offsets = vec![0usize; k + 1];
        for &(u, _) in &edges {
            edge_offsets[u + 1] += 1;
        }
        for i in 0..k {
            edge_offsets[i + 1] += edge_offsets[i];
        }
        let mut ins_pairs = Vec::with_capacity(2 * h_inserted.len());
        for &(u, v) in &h_inserted {
            ins_pairs.push((u, v));
            ins_pairs.push((v, u));
        }
        ins_pairs.sort_unstable();
        let mut del_pairs = Vec::with_capacity(2 * h_removed.len());
        for &(u, v) in &h_removed {
            del_pairs.push((u, v));
            del_pairs.push((v, u));
        }
        del_pairs.sort_unstable();
        let (h_offsets, h_adj) =
            patch_csr_rows(&self.h_offsets, &self.h_adj, &ins_pairs, &del_pairs, par);
        self.comm = new_comm;
        for (c, t) in rebuilt {
            self.support[c] = t;
        }
        self.links = links;
        self.edges = edges;
        self.edge_mult = edge_mult;
        self.edge_offsets = edge_offsets;
        self.h_offsets = h_offsets;
        self.h_adj = h_adj;
        self.dilation = self
            .support
            .iter()
            .map(|t| t.height)
            .max()
            .unwrap_or(0)
            .max(1);
        self.max_degree = (0..k)
            .map(|v| self.h_offsets[v + 1] - self.h_offsets[v])
            .max()
            .unwrap_or(0);
        Ok((
            DeltaReport {
                effect,
                dirty_clusters: dirty,
                h_inserted,
                h_removed,
                h_mult_changed,
            },
            repair,
        ))
    }

    /// Stage 2's serial walk: repairs each dirty cluster's support tree
    /// against the patched communication graph, ascending by cluster id,
    /// returning the rebuilt trees or the **first** disconnection.
    fn repair_dirty_serial(
        &self,
        new_comm: &CommGraph,
        dirty: &[VertexId],
    ) -> Result<Vec<(VertexId, SupportTree)>, NetError> {
        let mut rebuilt: Vec<(VertexId, SupportTree)> = Vec::with_capacity(dirty.len());
        let mut in_subset = vec![false; new_comm.n_machines()];
        let mut scratch = BfsScratch::new();
        for &c in dirty {
            match self.repair_one(new_comm, c, &mut in_subset, &mut scratch) {
                Some(t) => rebuilt.push((c, t)),
                None => return Err(NetError::DisconnectedCluster { cluster: c }),
            }
        }
        Ok(rebuilt)
    }

    /// Stage 2's wave-parallel form: groups the dirty clusters by their
    /// wave (color class) in `ws`, then runs one wave at a time over the
    /// pool — clusters in a wave share no `H`-edge, so their repairs read
    /// disjoint `G`-neighborhoods and write disjoint tree slots. Each
    /// shard owns its own BFS scratch; no locks, no atomics. The rebuilt
    /// trees and the reported error (minimum failing cluster id) are
    /// identical to [`Self::repair_dirty_serial`] at any thread count.
    fn repair_dirty_scheduled(
        &self,
        new_comm: &CommGraph,
        dirty: &[VertexId],
        ws: &WaveSchedule,
        par: &ParallelConfig,
    ) -> Result<(Vec<(VertexId, SupportTree)>, RepairStats), NetError> {
        // Dirty-only wave CSR via a stable counting sort: `dirty` is
        // ascending, so ids stay ascending within each wave.
        let n_waves = ws.n_waves();
        let mut offsets = vec![0usize; n_waves + 1];
        for &c in dirty {
            offsets[ws.wave_of(c) + 1] += 1;
        }
        for w in 0..n_waves {
            offsets[w + 1] += offsets[w];
        }
        let mut next = offsets.clone();
        let mut items = vec![0usize; dirty.len()];
        for &c in dirty {
            let w = ws.wave_of(c);
            items[next[w]] = c;
            next[w] += 1;
        }
        let mut slots: Vec<Option<SupportTree>> = vec![None; dirty.len()];
        let pool = WorkerPool::global(par.threads());
        let stats = {
            let base = SendPtr::new(slots.as_mut_ptr());
            run_waves(
                pool.as_deref(),
                par.threads(),
                &offsets,
                &items,
                &|_w, base_idx, slice| {
                    let mut in_subset = vec![false; new_comm.n_machines()];
                    let mut scratch = BfsScratch::new();
                    for (i, &c) in slice.iter().enumerate() {
                        let tree = self.repair_one(new_comm, c, &mut in_subset, &mut scratch);
                        // SAFETY: slot `base_idx + i` is owned by exactly
                        // this item of this shard's slice.
                        unsafe { *base.get().add(base_idx + i) = tree };
                    }
                },
            )
        };
        let mut rebuilt: Vec<(VertexId, SupportTree)> = Vec::with_capacity(dirty.len());
        let mut failed: Option<VertexId> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(t) => rebuilt.push((items[i], t)),
                None => failed = Some(failed.map_or(items[i], |f| f.min(items[i]))),
            }
        }
        if let Some(cluster) = failed {
            return Err(NetError::DisconnectedCluster { cluster });
        }
        Ok((
            rebuilt,
            RepairStats {
                scheduled: true,
                waves: stats.waves,
                largest_wave: stats.largest_wave,
            },
        ))
    }

    /// Rebuilds one cluster's support tree against `new_comm`, or `None`
    /// when the cluster's induced subgraph is disconnected. `in_subset`
    /// and `scratch` are caller-owned reusable buffers, left clean on
    /// return.
    fn repair_one(
        &self,
        new_comm: &CommGraph,
        c: VertexId,
        in_subset: &mut [bool],
        scratch: &mut BfsScratch,
    ) -> Option<SupportTree> {
        let ms = &self.support[c].machines;
        for &m in ms {
            in_subset[m] = true;
        }
        let leader = ms[0];
        new_comm.bfs_tree_within_scratch(leader, in_subset, scratch);
        let mut parent = Vec::with_capacity(ms.len());
        let mut depth = Vec::with_capacity(ms.len());
        let mut height = 0usize;
        let mut ok = true;
        for &m in ms {
            if scratch.depth(m) == usize::MAX {
                ok = false;
                break;
            }
            parent.push(scratch.parent(m));
            depth.push(scratch.depth(m));
            height = height.max(scratch.depth(m));
        }
        scratch.reset(ms);
        for &m in ms {
            in_subset[m] = false;
        }
        if !ok {
            return None;
        }
        Some(SupportTree {
            leader,
            machines: ms.clone(),
            parent,
            depth,
            height,
        })
    }

    /// The CONGEST special case: every machine is its own cluster
    /// (`H = G`, dilation 1).
    ///
    /// # Panics
    ///
    /// Panics only if the graph is empty, which [`CommGraph`] forbids.
    pub fn singletons(comm: CommGraph) -> Self {
        let n = comm.n_machines();
        Self::build(comm, (0..n).collect()).expect("singleton clusters are always connected")
    }

    /// The underlying communication network.
    #[inline]
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// Approximate heap footprint in bytes of the built instance — the
    /// communication network, assignment, support trees, `H` adjacency and
    /// the link/edge tables (element counts × element sizes; capacity
    /// slack and allocator overhead are ignored, so the figure is
    /// deterministic for a given instance). This is the weight a graph
    /// cache's byte budget charges per entry.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let trees: usize = self
            .support
            .iter()
            .map(|t| {
                size_of_val(&t.machines[..])
                    + size_of_val(&t.parent[..])
                    + size_of_val(&t.depth[..])
            })
            .sum();
        self.comm.approx_heap_bytes()
            + size_of_val(&self.assignment[..])
            + trees
            + size_of_val(&self.h_offsets[..])
            + size_of_val(&self.h_adj[..])
            + size_of_val(&self.links[..])
            + size_of_val(&self.edges[..])
            + size_of_val(&self.edge_mult[..])
            + size_of_val(&self.edge_offsets[..])
    }

    /// Number of nodes of `H`.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.support.len()
    }

    /// Number of machines of `G`.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.comm.n_machines()
    }

    /// The cluster id of a machine.
    #[inline]
    pub fn cluster_of(&self, m: MachineId) -> VertexId {
        self.assignment[m]
    }

    /// The full machine→cluster assignment — what a from-scratch rebuild
    /// of a mutated instance needs alongside the mutated edge set.
    #[inline]
    pub fn assignment(&self) -> &[VertexId] {
        &self.assignment
    }

    /// The support tree of vertex `v`.
    #[inline]
    pub fn support(&self, v: VertexId) -> &SupportTree {
        &self.support[v]
    }

    /// Maximum support-tree height over all clusters (the paper's `d`,
    /// up to the constant factor between height and diameter), minimum 1.
    #[inline]
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Deduplicated neighbors of `v` in `H`, sorted.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.h_adj[self.h_offsets[v]..self.h_offsets[v + 1]]
    }

    /// Degree of `v` in `H` (distinct neighboring clusters).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.h_offsets[v + 1] - self.h_offsets[v]
    }

    /// Maximum degree `Δ` of `H`.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Whether `{u, v}` is an edge of `H`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of parallel `G`-links realizing the `H`-edge `{u, v}`
    /// (0 when not adjacent). Figure 1's multi-link phenomenon.
    ///
    /// Resolved by a binary search over the CSR row of the lower endpoint
    /// in the flat edge table — `O(log deg)` with no pointer chasing.
    pub fn link_multiplicity(&self, u: VertexId, v: VertexId) -> usize {
        // Out-of-range ids are simply non-edges (the seed's map lookup
        // semantics), never an index panic; u < v implies only the larger
        // needs checking.
        if u == v || u.max(v) >= self.n_vertices() {
            return 0;
        }
        let key = (u.min(v), u.max(v));
        let row = &self.edges[self.edge_offsets[key.0]..self.edge_offsets[key.0 + 1]];
        match row.binary_search(&key) {
            Ok(i) => self.edge_mult[self.edge_offsets[key.0] + i] as usize,
            Err(_) => 0,
        }
    }

    /// Number of inter-cluster links incident to cluster `v` — the naive
    /// "degree" a cluster would compute by counting links (§1.1), which can
    /// grossly overestimate [`Self::degree`].
    pub fn incident_links(&self, v: VertexId) -> usize {
        self.links
            .iter()
            .filter(|&&(_, _, cu, cv)| cu == v || cv == v)
            .count()
    }

    /// All inter-cluster links `(machine_u, machine_v, cluster_u, cluster_v)`.
    #[inline]
    pub fn links(&self) -> &[(MachineId, MachineId, VertexId, VertexId)] {
        &self.links
    }

    /// Iterates over the deduplicated edges of `H` with `u < v`, in
    /// lexicographic order — a plain slice walk over the flat edge table.
    pub fn h_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// The flat edge table itself: deduplicated `(u, v)` pairs with
    /// `u < v`, sorted lexicographically.
    #[inline]
    pub fn h_edge_slice(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Multiplicity column parallel to [`Self::h_edge_slice`].
    #[inline]
    pub fn h_edge_multiplicities(&self) -> &[u32] {
        &self.edge_mult
    }

    /// The deduplicated CSR adjacency of `H`: `(offsets, targets)` with
    /// the neighbors of `v` at `targets[offsets[v]..offsets[v + 1]]`,
    /// sorted. This is the layout [`crate::comm::NeighborLists`] mirrors.
    #[inline]
    pub fn adjacency_csr(&self) -> (&[usize], &[VertexId]) {
        (&self.h_offsets, &self.h_adj)
    }

    /// Number of edges of `H`.
    pub fn n_h_edges(&self) -> usize {
        self.edges.len()
    }

    /// Plans row-granular executor shards over the vertices of `H` under
    /// `cfg` — [`ShardPlan::from_prefix`] over the deduplicated
    /// `H`-adjacency, so shards balance by degree mass. A pure function of
    /// `(topology, cfg)`, reproducible across runs.
    pub fn shard_plan(&self, cfg: &ParallelConfig) -> ShardPlan {
        ShardPlan::from_prefix(&self.h_offsets, cfg.threads())
    }

    /// The intra-row [`SegmentedPlan`] over `H`'s deduplicated adjacency
    /// under `cfg`: one segment per thread of even entry mass, cutting
    /// inside hub rows (one segment under the serial config). Like
    /// [`Self::shard_plan`], a pure function of `(topology, cfg)`.
    pub fn segmented_plan(&self, cfg: &ParallelConfig) -> SegmentedPlan {
        SegmentedPlan::from_prefix(&self.h_offsets, cfg.threads())
    }
}

/// One link-collection shard's output: links in edge order, pairs sorted
/// and deduplicated with local multiplicities.
struct LinkShard {
    links: Vec<(MachineId, MachineId, VertexId, VertexId)>,
    pairs: Vec<((VertexId, VertexId), u32)>,
}

/// Builds the support trees of clusters `range` — one shard of the tree
/// phase. The worker owns its subset mask and [`BfsScratch`], touching
/// only member entries per cluster so a cluster costs
/// `O(size + internal edges)` instead of the `O(n_machines)` the old
/// per-cluster map allocations paid. Stops at the first failing cluster,
/// which — with shards merged in ascending cluster order — reproduces the
/// sequential error exactly.
fn build_support_trees(
    comm: &CommGraph,
    member_offsets: &[usize],
    member_ids: &[MachineId],
    range: std::ops::Range<usize>,
) -> Result<Vec<SupportTree>, NetError> {
    let mut in_subset = vec![false; comm.n_machines()];
    let mut scratch = BfsScratch::new();
    let mut out = Vec::with_capacity(range.len());
    for c in range {
        let ms = &member_ids[member_offsets[c]..member_offsets[c + 1]];
        if ms.is_empty() {
            return Err(NetError::DisconnectedCluster { cluster: c });
        }
        for &m in ms {
            in_subset[m] = true;
        }
        // BFS from the smallest member (members are sorted ascending).
        let leader = ms[0];
        comm.bfs_tree_within_scratch(leader, &in_subset, &mut scratch);
        let mut parent = Vec::with_capacity(ms.len());
        let mut depth = Vec::with_capacity(ms.len());
        let mut height = 0usize;
        let mut ok = true;
        for &m in ms {
            if scratch.depth(m) == usize::MAX {
                ok = false;
                break;
            }
            parent.push(scratch.parent(m));
            depth.push(scratch.depth(m));
            height = height.max(scratch.depth(m));
        }
        // Reset only this cluster's entries (the BFS touched no others).
        scratch.reset(ms);
        for &m in ms {
            in_subset[m] = false;
        }
        if !ok {
            return Err(NetError::DisconnectedCluster { cluster: c });
        }
        out.push(SupportTree {
            leader,
            machines: ms.to_vec(),
            parent,
            depth,
            height,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure-1-like instance: two clusters joined by 3 parallel links.
    fn multi_link_instance() -> ClusterGraph {
        // Machines 0,1,2 form cluster 0 (triangle); 3,4,5 cluster 1 (path).
        // Links (0,3), (1,4), (2,5) all join the same pair of clusters.
        let comm = CommGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (4, 5),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        )
        .unwrap();
        ClusterGraph::build(comm, vec![0, 0, 0, 1, 1, 1]).unwrap()
    }

    #[test]
    fn multi_links_collapse_to_one_h_edge() {
        let h = multi_link_instance();
        assert_eq!(h.n_vertices(), 2);
        assert_eq!(h.degree(0), 1);
        assert_eq!(h.degree(1), 1);
        assert_eq!(h.link_multiplicity(0, 1), 3);
        assert_eq!(h.incident_links(0), 3);
        assert!(h.has_edge(0, 1));
        assert_eq!(h.n_h_edges(), 1);
    }

    #[test]
    fn singleton_clusters_reproduce_congest() {
        let comm = CommGraph::complete(5);
        let h = ClusterGraph::singletons(comm);
        assert_eq!(h.n_vertices(), 5);
        assert_eq!(h.max_degree(), 4);
        assert_eq!(h.dilation(), 1);
        for v in 0..5 {
            assert_eq!(h.degree(v), 4);
            assert_eq!(h.incident_links(v), 4);
        }
    }

    #[test]
    fn disconnected_cluster_rejected() {
        let comm = CommGraph::path(4);
        // Machines 0 and 3 are not connected within cluster 0.
        let r = ClusterGraph::build(comm, vec![0, 1, 1, 0]);
        assert!(matches!(
            r,
            Err(NetError::DisconnectedCluster { cluster: 0 })
        ));
    }

    #[test]
    fn assignment_length_checked() {
        let comm = CommGraph::path(4);
        let r = ClusterGraph::build(comm, vec![0, 0, 0]);
        assert!(matches!(
            r,
            Err(NetError::AssignmentLength {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn support_tree_shape_on_path_cluster() {
        // One cluster spanning a path of 5 machines: height 4, leader 0.
        let comm = CommGraph::path(5);
        let h = ClusterGraph::build(comm, vec![0; 5]).unwrap();
        let t = h.support(0);
        assert_eq!(t.leader, 0);
        assert_eq!(t.size(), 5);
        assert_eq!(t.height, 4);
        assert_eq!(h.dilation(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(h.n_vertices(), 1);
        assert_eq!(h.max_degree(), 0);
    }

    #[test]
    fn dilation_is_at_least_one_for_singletons() {
        let comm = CommGraph::path(3);
        let h = ClusterGraph::singletons(comm);
        assert_eq!(h.dilation(), 1);
    }

    #[test]
    fn neighbors_sorted_and_deduped() {
        let h = multi_link_instance();
        assert_eq!(h.neighbors(0), &[1]);
        assert_eq!(h.neighbors(1), &[0]);
        let edges: Vec<_> = h.h_edges().collect();
        assert_eq!(edges, vec![(0, 1)]);
    }

    /// Four path clusters in a link ring, with a proper greedy coloring of
    /// `H` as the schedule.
    fn ring_instance() -> (ClusterGraph, WaveSchedule) {
        let mut edges = Vec::new();
        for c in 0..4usize {
            let b = 3 * c;
            edges.push((b, b + 1));
            edges.push((b + 1, b + 2));
        }
        for c in 0..4usize {
            let (a, b) = (3 * c, 3 * ((c + 1) % 4));
            edges.push((a.min(b), a.max(b)));
        }
        let comm = CommGraph::from_edges(12, &edges).unwrap();
        let g = ClusterGraph::build(comm, (0..12).map(|m| m / 3).collect()).unwrap();
        let mut class_of = vec![usize::MAX; g.n_vertices()];
        for v in 0..g.n_vertices() {
            let used: Vec<usize> = g
                .neighbors(v)
                .iter()
                .filter(|&&u| class_of[u] != usize::MAX)
                .map(|&u| class_of[u])
                .collect();
            class_of[v] = (0..).find(|c| !used.contains(c)).unwrap();
        }
        let n_classes = class_of.iter().max().unwrap() + 1;
        let ws = WaveSchedule::from_class_ids(&class_of, n_classes, &ParallelConfig::serial());
        (g, ws)
    }

    #[test]
    fn scheduled_repair_matches_serial_byte_for_byte() {
        let (g0, ws) = ring_instance();
        // Intra-cluster inserts dirty all four clusters; one inter delete
        // exercises the unchanged link-merge path beside them.
        let batch = DeltaBatch::new(12, &[(0, 2), (3, 5), (6, 8), (9, 11)], &[(0, 3)]).unwrap();
        let mut serial = g0.clone();
        let report = serial
            .apply_delta_with(&batch, &ParallelConfig::serial())
            .unwrap();
        assert_eq!(report.dirty_clusters, vec![0, 1, 2, 3]);
        for threads in [1usize, 4] {
            let mut sched = g0.clone();
            let (r2, stats) = sched
                .apply_delta_scheduled(&batch, &ParallelConfig::with_threads(threads), Some(&ws))
                .unwrap();
            assert_eq!(report, r2, "threads={threads}");
            assert_eq!(serial, sched, "threads={threads}");
            assert!(stats.scheduled);
            assert!(stats.waves >= 2, "a ring needs at least two waves");
            assert_eq!(stats.largest_wave, 2);
        }
    }

    #[test]
    fn scheduled_repair_reports_smallest_disconnection() {
        // Two path clusters, one link; deleting the first edge of each
        // path disconnects both clusters at once.
        let comm = CommGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]).unwrap();
        let g0 = ClusterGraph::build(comm, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let ws = WaveSchedule::from_class_ids(&[0, 1], 2, &ParallelConfig::serial());
        let batch = DeltaBatch::new(6, &[], &[(0, 1), (3, 4)]).unwrap();
        let mut a = g0.clone();
        let e1 = a
            .apply_delta_with(&batch, &ParallelConfig::serial())
            .unwrap_err();
        let mut b = g0.clone();
        let e2 = b
            .apply_delta_scheduled(&batch, &ParallelConfig::with_threads(4), Some(&ws))
            .unwrap_err();
        assert!(matches!(e1, NetError::DisconnectedCluster { cluster: 0 }));
        assert!(matches!(e2, NetError::DisconnectedCluster { cluster: 0 }));
        // Compute-then-commit: the failed applies left both graphs intact.
        assert_eq!(a, g0);
        assert_eq!(b, g0);
    }
}
