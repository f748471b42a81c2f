//! Read-only palette sweeps.
//!
//! One sweep answers, for every vertex, the three palette questions at
//! once — free-color count `|L(v)| = q − |φ(N(v))|`, uncolored degree
//! `deg_φ(v)`, and reuse slack (colored neighbors minus distinct colors)
//! — using the packed word kernels of [`cgc_net::bits`].
//!
//! The sweep only reads the coloring and writes one output slot per
//! vertex, so it simply shards the vertices over the graph's
//! row-granular [`ShardPlan`] (balanced by CSR row mass, since each
//! vertex walks its row) and runs the shards on the persistent pool. The result is a pure function of `(graph, colors)` —
//! bit-identical to the serial sweep at any thread count, which is what
//! lets callers assert equality across thread sweeps.
//!
//! Each worker keeps a private [`BitsScratch`] in `const`-initialized
//! thread-local storage, so a warm sweep performs **zero heap
//! allocations and zero thread spawns** (asserted by the crate's
//! counting-allocator suite): per vertex the scratch resets in
//! `O(q/64)`, the CSR row walk marks neighbor colors word-wise, and the
//! answers land in per-vertex output slots.

use crate::graph::ClusterGraph;
use crate::par::{for_each_shard, SendPtr, ShardPlan, WorkerPool};
use cgc_net::bits::BitsScratch;
use std::cell::RefCell;

thread_local! {
    /// Per-worker palette scratch. `const`-initialized: registering the
    /// TLS slot allocates nothing, and pool workers persist across
    /// sweeps, so after one warm-up pass every worker's scratch already
    /// holds `⌈q/64⌉` words of capacity.
    static SWEEP_SCRATCH: RefCell<BitsScratch> = const { RefCell::new(BitsScratch::new()) };
}

/// Reusable output buffers of one palette/slack sweep (slot `v` = vertex
/// `v`). Hoist one instance across sweeps to keep warm passes
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PaletteSweep {
    /// `|L(v)|` — free colors at `v`.
    pub free_counts: Vec<usize>,
    /// `deg_φ(v)` — uncolored neighbors of `v`.
    pub uncolored_degrees: Vec<usize>,
    /// Reuse slack: colored neighbors minus distinct colors on them.
    pub reuse_slacks: Vec<usize>,
}

impl PaletteSweep {
    /// Empty buffers; the first sweep sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.free_counts.clear();
        self.free_counts.resize(n, 0);
        self.uncolored_degrees.clear();
        self.uncolored_degrees.resize(n, 0);
        self.reuse_slacks.clear();
        self.reuse_slacks.resize(n, 0);
    }
}

/// Runs the palette/slack sweep over every vertex, shard `s` of `plan`
/// (the graph's [`ClusterGraph::shard_plan`]) answering for the vertices
/// of `plan.range(s)` on `pool`. `colors[v]` is the current color of `v`
/// (the raw assignment slice).
///
/// # Panics
///
/// Panics when `colors` or `plan` is not sized to the graph, or a color
/// is `>= q` (debug).
pub fn palette_sweep(
    graph: &ClusterGraph,
    colors: &[Option<usize>],
    q: usize,
    plan: &ShardPlan,
    pool: Option<&WorkerPool>,
    out: &mut PaletteSweep,
) {
    let n = graph.n_vertices();
    assert_eq!(colors.len(), n, "one color slot per vertex");
    assert_eq!(plan.n_vertices(), n, "the plan must cover the graph");
    out.reset(n);
    let free = SendPtr::new(out.free_counts.as_mut_ptr());
    let unc = SendPtr::new(out.uncolored_degrees.as_mut_ptr());
    let reuse = SendPtr::new(out.reuse_slacks.as_mut_ptr());
    for_each_shard(pool, plan.n_shards(), &|s| {
        SWEEP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            for v in plan.range(s) {
                let bits = scratch.bits(q);
                let row = graph.neighbors(v);
                let mut colored = 0usize;
                for &u in row {
                    if let Some(c) = colors[u] {
                        colored += 1;
                        bits.mark(c);
                    }
                }
                let distinct = bits.count_marked();
                // SAFETY: `v < n` (the plan covers exactly the graph's
                // vertices, checked above) and shard ranges are disjoint,
                // so slot `v` is written by this shard alone.
                unsafe {
                    *free.get().add(v) = q - distinct;
                    *unc.get().add(v) = row.len() - colored;
                    *reuse.get().add(v) = colored - distinct;
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParallelConfig;
    use cgc_net::CommGraph;

    /// A 12-vertex instance with a greedy coloring.
    fn instance() -> (ClusterGraph, Vec<Option<usize>>, usize) {
        let mut edges = Vec::new();
        for v in 0..12usize {
            edges.push((v, (v + 1) % 12));
            if v % 3 == 0 {
                edges.push((v, (v + 5) % 12));
            }
        }
        let g = ClusterGraph::singletons(CommGraph::from_edges(12, &edges).unwrap());
        let q = g.max_degree() + 1;
        let mut colors: Vec<Option<usize>> = vec![None; 12];
        for v in 0..12 {
            let used: Vec<usize> = g.neighbors(v).iter().filter_map(|&u| colors[u]).collect();
            colors[v] = Some((0..q).find(|c| !used.contains(c)).unwrap());
        }
        (g, colors, q)
    }

    fn reference(g: &ClusterGraph, colors: &[Option<usize>], q: usize) -> PaletteSweep {
        let n = g.n_vertices();
        let mut out = PaletteSweep::new();
        out.reset(n);
        for v in 0..n {
            let mut used = vec![false; q];
            let mut colored = 0usize;
            let mut distinct = 0usize;
            for &u in g.neighbors(v) {
                if let Some(c) = colors[u] {
                    colored += 1;
                    if !used[c] {
                        used[c] = true;
                        distinct += 1;
                    }
                }
            }
            out.free_counts[v] = q - distinct;
            out.uncolored_degrees[v] = g.neighbors(v).len() - colored;
            out.reuse_slacks[v] = colored - distinct;
        }
        out
    }

    #[test]
    fn sweep_matches_bool_reference_at_any_width() {
        let (g, colors, q) = instance();
        let want = reference(&g, &colors, q);
        for threads in [1usize, 2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let pool = WorkerPool::global(threads);
            let mut out = PaletteSweep::new();
            palette_sweep(
                &g,
                &colors,
                q,
                &g.shard_plan(&par),
                pool.as_deref(),
                &mut out,
            );
            assert_eq!(out.free_counts, want.free_counts, "threads={threads}");
            assert_eq!(out.uncolored_degrees, want.uncolored_degrees);
            assert_eq!(out.reuse_slacks, want.reuse_slacks);
        }
    }

    #[test]
    fn partial_colorings_count_uncolored_degree() {
        let (g, mut colors, q) = instance();
        colors[3] = None;
        colors[7] = None;
        let mut out = PaletteSweep::new();
        palette_sweep(&g, &colors, q, &ShardPlan::serial(12), None, &mut out);
        let want = reference(&g, &colors, q);
        assert_eq!(out.free_counts, want.free_counts);
        assert_eq!(out.uncolored_degrees, want.uncolored_degrees);
        assert_eq!(out.reuse_slacks, want.reuse_slacks);
    }
}
