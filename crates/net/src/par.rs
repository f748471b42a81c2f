//! Sharded multi-threaded execution: shard plans, the persistent worker
//! pool, and deterministic fill/map-reduce helpers.
//!
//! The simulator *models* a distributed network, so its hot loops are
//! embarrassingly parallel by construction: every vertex's fold result
//! depends only on its own CSR row, every generator row on its own RNG
//! substream, every edge shard on its own contiguous input range. This
//! module partitions an index space into contiguous per-thread shards,
//! runs a kernel on each shard, and writes each shard's results into a
//! **disjoint slice** of the output buffer (or merges per-shard results in
//! a fixed shard order). The merge is deterministic, so the parallel
//! result is **bit-identical** to the sequential one at any thread count —
//! the invariant `crates/cluster/tests/parallel_equivalence.rs` and
//! `crates/graphs/tests/gen_equivalence.rs` pin and the property that
//! keeps [`crate::CostMeter`] accounting trustworthy under parallel
//! execution (costs are charged analytically on the calling thread, never
//! inside workers).
//!
//! The module lives in `cgc_net` — the bottom of the crate stack — so that
//! every layer above it shares one executor: [`crate::CommGraph`]'s
//! sharded edge ingest, `cgc_cluster`'s aggregation rounds and sharded
//! `ClusterGraph::build`, and `cgc_graphs`' sharded generators.
//! `cgc_cluster` re-exports everything here, so existing imports keep
//! working.
//!
//! # The persistent worker pool
//!
//! A driver run executes thousands of aggregation rounds, and spawning
//! scoped threads per round costs ~50–150 µs — more than a small round's
//! compute. [`WorkerPool`] therefore keeps the worker threads **parked
//! between rounds**: dispatch publishes a borrowed, type-erased job and
//! bumps an epoch word (seqlock style — workers spin briefly on the
//! epoch, then park) that also carries the round's active worker count in
//! its low bits, unparks exactly the workers the round uses, and waits on
//! a completion countdown. A warm dispatch performs no heap allocation,
//! spawns no threads, and never disturbs parked workers a narrow round
//! skips. Worker `w` always runs shard `w + 1` of the caller's
//! [`ShardPlan`] (the caller itself runs shard 0), so each worker
//! permanently owns a contiguous vertex range of a given plan.
//!
//! Pools come from a process-global cache ([`WorkerPool::global`]) keyed
//! by capacity, so every runtime, every trace executor, every sharded
//! build and every sharded generator in the process reuses the same
//! parked workers — across rounds, runs and seed/thread sweeps. The
//! `std::thread::scope` path remains as the fallback for one-shot calls
//! that have no pool (or need more shards than the pool holds).
//!
//! Determinism contract: kernels must be pure functions of `(index,
//! topology, inputs)` — the `Fn` (not `FnMut`) bounds on the sharded
//! primitives enforce this at the type level.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Thread count of the parallel executor — its only setting.
///
/// `threads == 1` is the sequential path: primitives run inline on the
/// calling thread with zero spawn overhead (and stay allocation-free when
/// warm). Any `threads >= 2` runs shard workers; results are bit-identical
/// either way. Shard plans are derived from the topology, never
/// configured: row-granular jobs balance by CSR entry mass
/// ([`ShardPlan::from_prefix`]) and monoid folds over CSR rows run on
/// even entry segments that may cut inside rows
/// ([`SegmentedPlan::from_prefix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelConfig {
    /// Sequential execution (one shard, calling thread).
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// Explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// One thread per available hardware core.
    pub fn max_parallel() -> Self {
        Self::with_threads(available_threads())
    }

    /// Reads the `CGC_THREADS` environment variable: unset or unparsable
    /// means sequential (an unparsable value additionally warns once on
    /// stderr, naming the value), `0` or `max` means one thread per core,
    /// any other number is taken literally. This is how the CI matrix and
    /// the experiment binaries select their thread count.
    pub fn from_env() -> Self {
        Self::from_env_values(std::env::var("CGC_THREADS").ok().as_deref())
    }

    /// The pure core of [`Self::from_env`], taking the raw variable value
    /// directly so the fallback rules are testable without mutating the
    /// process environment. `None` means the variable is unset; an
    /// unparsable value falls back to [`Self::serial`] and warns on stderr
    /// once per process, naming the rejected value, so a typo in a
    /// service's environment degrades to the documented sequential
    /// behavior instead of being silently misread.
    pub fn from_env_values(threads: Option<&str>) -> Self {
        static WARN_THREADS: std::sync::Once = std::sync::Once::new();
        match threads {
            None => Self::serial(),
            Some(s) => match s.trim() {
                "max" | "0" => Self::max_parallel(),
                other => match other.parse::<usize>() {
                    Ok(t) => Self::with_threads(t),
                    Err(_) => {
                        WARN_THREADS.call_once(|| {
                            eprintln!(
                                "cgc: unparsable CGC_THREADS={other:?}; \
                                 falling back to sequential execution"
                            );
                        });
                        Self::serial()
                    }
                },
            },
        }
    }

    /// Configured worker count (≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this config runs inline on the calling thread.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

/// Detected hardware parallelism (1 when detection fails).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A shard plan over `n` vertices: `bounds` has one entry per shard edge,
/// `bounds[s]..bounds[s + 1]` being shard `s`'s contiguous vertex range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// One shard covering everything — the sequential plan.
    pub fn serial(n: usize) -> Self {
        ShardPlan { bounds: vec![0, n] }
    }

    /// At most `shards` contiguous ranges of (near-)equal item count over
    /// `n` items.
    pub fn even(n: usize, shards: usize) -> Self {
        let shards = shards.min(n.max(1));
        if shards <= 1 {
            return Self::serial(n);
        }
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        for s in 1..shards {
            bounds.push(s * n / shards);
        }
        bounds.push(n);
        ShardPlan { bounds }
    }

    /// At most `shards` contiguous item ranges over the `prefix.len() - 1`
    /// items described by a monotone prefix-sum array, balanced by prefix
    /// mass plus a per-item constant (so edgeless stretches still split).
    /// This is the mass-balanced row-granular planner, used wherever per-item
    /// work is a prefix sum (CSR degrees, cluster member counts, `H`-row widths). A
    /// pure function of `(prefix, shards)`, so plans are reproducible.
    ///
    /// Because cuts land on item boundaries only, a single item heavier
    /// than `total / shards` cannot be subdivided: each bound **retargets**
    /// against the mass actually remaining (rather than walking fixed
    /// absolute targets, which let a hub absorb several shards' quotas and
    /// silently yielded empty shards around it), so the rows *after* a hub
    /// still split evenly across the remaining shards. The shard holding
    /// the hub still carries at least the hub's whole mass — that is the
    /// row-granularity floor [`SegmentedPlan`] exists to break.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` is empty.
    pub fn from_prefix(prefix: &[usize], shards: usize) -> Self {
        let n = prefix.len() - 1;
        let shards = shards.min(n.max(1));
        if shards <= 1 {
            return Self::serial(n);
        }
        let base = prefix[0];
        let mass = |v: usize| (prefix[v] - base) + v;
        let total = mass(n);
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut v = 0usize;
        for s in 1..shards {
            // Give this shard an even share of what is left, not of the
            // original total: after a hub overflows its share, the
            // remaining shards re-balance over the remaining mass.
            let consumed = mass(v);
            let target = consumed + (total - consumed) / (shards - s + 1);
            while v < n && mass(v) < target {
                v += 1;
            }
            bounds.push(v.min(n));
        }
        bounds.push(n);
        // The walk above is monotone; normalize defensively anyway.
        for i in 1..bounds.len() {
            if bounds[i] < bounds[i - 1] {
                bounds[i] = bounds[i - 1];
            }
        }
        // Collapse empty shards (duplicate bounds): dispatching an empty
        // shard wakes — or, on the scoped fallback, spawns — a worker that
        // does nothing, every round. Dropping one removes only a no-op
        // slot: the kept shards' item ranges are unchanged, so fills and
        // shard-ordered reductions produce bit-identical results.
        bounds.dedup();
        ShardPlan { bounds }
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Shard `s`'s vertex range.
    #[inline]
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The raw bounds array (`n_shards + 1` entries).
    #[inline]
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Total vertices covered.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        *self.bounds.last().unwrap()
    }
}

/// A shard plan that may cut **inside** a CSR row: segment `s` covers the
/// half-open entry range `cut(s)..cut(s + 1)`, where a cut is a `(row,
/// entry)` position in the CSR (entry coordinates are absolute indices
/// into the adjacency arena). Cuts land at even entry targets, so a row
/// may be split wherever a target falls; a hub row heavier than one
/// segment's share is divided into consecutive *fragments*, one per
/// segment that overlaps it. With one segment (the serial plan) the walk
/// is the plain row-by-row sweep.
///
/// [`ShardPlan`] guarantees every row lives in exactly one shard, which
/// is what lets `fill_sharded` hand each shard a disjoint output slice —
/// and also what caps speedup at the heaviest row. `SegmentedPlan` trades
/// that for a two-phase protocol: each segment folds its fragments into
/// *partial* accumulators, and [`fold_rows_segmented`] merges the
/// fragments of a split row **in ascending segment order** on the calling
/// thread, so the result (and any `CostMeter` charge derived from it) is
/// bit-identical to the serial left-to-right walk at any thread count.
/// Every CSR job that can merge split rows — monoid folds, per-entry
/// collects, per-row sorts — runs on this plan; [`ShardPlan`] is kept for
/// jobs whose rows must not be split.
///
/// Plans are pure functions of `(offsets, shards)` — reproducible, never
/// load-dependent — like [`ShardPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedPlan {
    /// `cut(s) = (rows[s], entries[s])`; `n_segments() + 1` entries, the
    /// first `(0, 0)` and the last `(n, offsets[n])`.
    rows: Vec<usize>,
    entries: Vec<usize>,
    n_rows: usize,
}

impl SegmentedPlan {
    /// Cuts the entry space `0..offsets[n]` into at most `shards` segments
    /// of (near-)equal entry count, allowed to land inside a row. Cuts
    /// that fall exactly on a row boundary are canonicalized to the
    /// *start* of the following row, and duplicate cuts (possible only
    /// when segments outnumber entries) collapse, so every segment is
    /// nonempty in entry space unless the whole CSR is.
    ///
    /// # Panics
    ///
    /// Panics when `offsets` is empty or `offsets[0] != 0` (entry
    /// coordinates are absolute arena indices, so the prefix must be
    /// rebased by the caller if it does not start at zero).
    pub fn from_prefix(offsets: &[usize], shards: usize) -> Self {
        let n = offsets.len() - 1;
        assert_eq!(offsets[0], 0, "SegmentedPlan needs a zero-based prefix");
        let n_entries = offsets[n];
        let shards = shards.min(n_entries.max(1));
        let mut rows = Vec::with_capacity(shards + 1);
        let mut entries = Vec::with_capacity(shards + 1);
        rows.push(0);
        entries.push(0);
        let mut row = 0usize;
        for s in 1..shards {
            let target = s * n_entries / shards;
            // First row whose entries extend past the target; the cut
            // lands at entry `target` inside (or at the start of) it.
            while row < n && offsets[row + 1] <= target {
                row += 1;
            }
            if rows.last() == Some(&row) && entries.last() == Some(&target) {
                continue; // degenerate: fewer entries than segments
            }
            rows.push(row);
            entries.push(target);
        }
        rows.push(n);
        entries.push(n_entries);
        SegmentedPlan {
            rows,
            entries,
            n_rows: n,
        }
    }

    /// Number of segments.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.rows.len() - 1
    }

    /// Number of CSR rows covered.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Cut `s` as a `(row, entry)` position; segment `s` spans
    /// `cut(s)..cut(s + 1)`.
    #[inline]
    pub fn cut(&self, s: usize) -> (usize, usize) {
        (self.rows[s], self.entries[s])
    }

    /// The entry range of segment `s`.
    #[inline]
    pub fn entry_range(&self, s: usize) -> std::ops::Range<usize> {
        self.entries[s]..self.entries[s + 1]
    }
}

/// Clears `out` and refills it with one `T` per CSR row, folding row `v`'s
/// entries `offsets[v]..offsets[v + 1]` left-to-right — segment-parallel
/// under `plan`, with split rows reduced deterministically.
///
/// Per segment: a row owned from its start is folded `init(v)` then
/// `scan(v, entries, acc)` and written straight to `out[v]`; a row whose
/// start lies in an *earlier* segment (i.e. cut `s` landed inside it)
/// contributes a partial accumulator, also built from `init(v)`, parked in
/// a per-segment slot. A serial pass then merges each partial into its
/// row's accumulator **in ascending segment order**, so the final value is
/// `merge(..merge(frag_0, frag_1).., frag_k)` with fragments in entry
/// order.
///
/// Bit-identity with the serial walk therefore requires `(init, scan,
/// merge)` to satisfy `merge(a, fold(init(v), es)) == fold(a, es)` — i.e.
/// `init(v)` is a left identity for the fold and `merge` continues it.
/// Every monoid fold (max, sum, OR with `init` = identity) qualifies, and
/// so does a non-commutative one: fragments merge in entry order.
///
/// The scratch arena is `n + n_segments` slots of one (re)used allocation
/// (`out`'s spare capacity), so warm calls allocate nothing. With one
/// segment (the serial plan) [`for_each_shard`] runs it inline and the
/// walk is the plain row-by-row fold.
pub fn fold_rows_segmented<T: Send>(
    out: &mut Vec<T>,
    plan: &SegmentedPlan,
    pool: Option<&WorkerPool>,
    offsets: &[usize],
    init: impl Fn(usize) -> T + Sync,
    scan: impl Fn(usize, std::ops::Range<usize>, &mut T) + Sync,
    mut merge: impl FnMut(&mut T, T),
) {
    let n = plan.n_rows();
    debug_assert_eq!(offsets.len(), n + 1);
    let segs = plan.n_segments();
    out.clear();
    out.reserve(n + segs);
    let spare = &mut out.spare_capacity_mut()[..n + segs];
    let (row_slots, part_slots) = spare.split_at_mut(n);
    {
        let rows_base = SendPtr::new(row_slots.as_mut_ptr());
        let parts_base = SendPtr::new(part_slots.as_mut_ptr());
        for_each_shard(pool, segs, &|s| {
            let (r0, e0) = plan.cut(s);
            let (r1, e1) = plan.cut(s + 1);
            // A cut inside row r0 means an earlier segment owns out[r0]:
            // fold this segment's fragment of it into partial slot s.
            let mut v = r0;
            if e0 > offsets[r0] {
                let frag_end = offsets[r0 + 1].min(e1);
                let mut acc = init(r0);
                scan(r0, e0..frag_end, &mut acc);
                // SAFETY: partial slot s is written only by segment s.
                unsafe { (*parts_base.get().add(s)).write(acc) };
                v = r0 + 1;
            }
            // Rows owned from their start; disjoint across segments
            // because consecutive segments' owned ranges tile 0..n.
            while v < r1 {
                let mut acc = init(v);
                scan(v, offsets[v]..offsets[v + 1], &mut acc);
                // SAFETY: row slot v is owned by exactly this segment.
                unsafe { (*rows_base.get().add(v)).write(acc) };
                v += 1;
            }
            // Head fragment of a row split by cut s + 1: this segment owns
            // the row's start, so the (partial) fold goes to out[r1] and
            // later segments' fragments merge into it.
            if e1 > offsets[r1] && v <= r1 {
                let mut acc = init(r1);
                scan(r1, offsets[r1]..e1, &mut acc);
                // SAFETY: as above — v <= r1 < n means this segment owns r1.
                unsafe { (*rows_base.get().add(r1)).write(acc) };
            }
        });
    }
    // Serial merge pass: interior cuts in ascending s are exactly the
    // split-row fragments in ascending entry order.
    for (s, slot) in part_slots.iter().enumerate().skip(1) {
        let (r, e) = plan.cut(s);
        if e > offsets[r] {
            // SAFETY: an interior cut s means segment s wrote partial slot
            // s and some earlier segment wrote row slot r; each partial is
            // consumed exactly once (cuts are strictly increasing).
            let part = unsafe { slot.assume_init_read() };
            let dst = unsafe { row_slots[r].assume_init_mut() };
            merge(dst, part);
        }
    }
    // SAFETY: all n row slots are initialized (every row is owned from its
    // start by exactly one segment); the partial slots beyond index n were
    // consumed by `assume_init_read` above and stay out of the length.
    unsafe { out.set_len(n) };
}

/// CSR output fill under a [`SegmentedPlan`]: clears `out_offsets` and
/// `out_data`, copies the row starts of `offsets` (plus the `offsets[n]`
/// end sentinel) into `out_offsets`, and fills arena entry `e` of
/// `out_data` through `fill`. Segment `s` owns entries
/// `cut(s).1..cut(s + 1).1` of the arena and the row starts of the rows it
/// owns from their start — a split row's start is copied by the segment
/// holding its head — so one [`for_each_shard`] dispatch covers both
/// copies. `fill` receives an absolute entry range that may begin or end
/// mid-row; kernels must derive `(row, column)` from the entry index (the
/// collect kernels do — entry `e` of row `v` is adjacency slot `e`), not
/// assume range starts are row starts. Output is bit-identical to the
/// sequential fill because every entry is written by exactly one segment
/// at its own index. Used by `cgc_cluster`'s `neighbor_collect_into`.
pub fn fill_segmented_with_offsets<T: Send>(
    out_offsets: &mut Vec<usize>,
    out_data: &mut Vec<T>,
    plan: &SegmentedPlan,
    pool: Option<&WorkerPool>,
    offsets: &[usize],
    fill: impl Fn(std::ops::Range<usize>, &mut [MaybeUninit<T>]) + Sync,
) {
    let n = plan.n_rows();
    debug_assert_eq!(offsets.len(), n + 1);
    let n_entries = offsets[n];
    out_offsets.clear();
    out_offsets.reserve(n + 1);
    out_data.clear();
    out_data.reserve(n_entries);
    let offs_base = SendPtr::new(out_offsets.spare_capacity_mut()[..n].as_mut_ptr());
    let data_base = SendPtr::new(out_data.spare_capacity_mut()[..n_entries].as_mut_ptr());
    for_each_shard(pool, plan.n_segments(), &|s| {
        let (r0, e0) = plan.cut(s);
        let (r1, e1) = plan.cut(s + 1);
        // Rows owned from their start (the tail fragment of a split row
        // belongs to the segment holding its head).
        let v0 = if e0 > offsets[r0] { r0 + 1 } else { r0 };
        let v1 = if e1 > offsets[r1] { r1 + 1 } else { r1 };
        for (v, &off) in (v0..v1).zip(&offsets[v0..v1]) {
            // SAFETY: owned-row ranges tile 0..n across segments.
            unsafe { (*offs_base.get().add(v)).write(off) };
        }
        if e1 > e0 {
            // SAFETY: entry ranges are disjoint across segments.
            let slot = unsafe { std::slice::from_raw_parts_mut(data_base.get().add(e0), e1 - e0) };
            fill(e0..e1, slot);
        }
    });
    // SAFETY: the owned-row ranges tile the offsets buffer and the entry
    // ranges tile the arena; a panic on any segment propagates before
    // these lines.
    unsafe {
        out_offsets.set_len(n);
        out_data.set_len(n_entries);
    }
    out_offsets.push(offsets[n]);
}

/// Merges `k` consecutive sorted runs of `data` — `bounds` holds the
/// `k + 1` run boundaries, `bounds[0] == 0` and `bounds[k] ==
/// data.len()` — into one sorted whole via `scratch` (cleared, reused).
/// The serial post-pass behind segmented per-row sorts: each segment
/// sorts its fragment of a split row in parallel, then the fragments
/// merge here. Stable merge with ties taken from the earlier run, so the
/// result equals `data.sort()` for the orderings used (total orders on
/// `Copy` keys).
pub fn merge_sorted_runs<T: Ord + Copy>(data: &mut [T], bounds: &[usize], scratch: &mut Vec<T>) {
    debug_assert!(bounds.len() >= 2);
    debug_assert_eq!(bounds[0], 0);
    debug_assert_eq!(*bounds.last().unwrap(), data.len());
    if bounds.len() == 2 {
        return;
    }
    scratch.clear();
    scratch.reserve(data.len());
    let k = bounds.len() - 1;
    let mut heads: Vec<usize> = bounds[..k].to_vec();
    loop {
        let mut best: Option<(T, usize)> = None;
        for (i, &h) in heads.iter().enumerate() {
            if h < bounds[i + 1] {
                let x = data[h];
                if best.is_none_or(|(b, _)| x < b) {
                    best = Some((x, i));
                }
            }
        }
        let Some((x, i)) = best else { break };
        scratch.push(x);
        heads[i] += 1;
    }
    data.copy_from_slice(scratch);
}

/// How many spin iterations a worker burns on the epoch counter before
/// parking on the condvar. Kept small: back-to-back rounds are caught in
/// the spin window, while an idle pool (or an oversubscribed single-core
/// box) parks quickly instead of burning the caller's CPU.
const SPIN_ROUNDS: u32 = 64;

/// The job pointer published to workers: a borrowed `&dyn Fn(usize)`
/// erased to `'static`. Sound because [`WorkerPool::run`] does not return
/// until every worker finished the job, so the borrow outlives every use.
type RawJob = *const (dyn Fn(usize) + Sync + 'static);

/// Bit split of [`PoolShared::epoch`]: the low [`ACTIVE_BITS`] bits carry
/// the round's active worker count, the high bits the round counter.
const ACTIVE_BITS: u32 = 16;
/// Mask selecting the active-count field of a packed epoch word.
const ACTIVE_MASK: u64 = (1 << ACTIVE_BITS) - 1;

/// Shared pool state. The `job` cell is written by the dispatcher strictly
/// before the epoch bump (and only while the workers of the previous round
/// are quiescent), and read by workers strictly after they observe the new
/// epoch — the acquire/release pair on `epoch` orders the accesses.
struct PoolShared {
    /// Packed round word: round counter in the high `64 - ACTIVE_BITS`
    /// bits, the round's active worker count in the low [`ACTIVE_BITS`]
    /// bits. Packing both into one atomic makes a worker's skip decision
    /// (`slot > active`) part of the same snapshot as the epoch it
    /// consumed. The fields must not be split into separate atomics: a
    /// worker skipping a narrow round is *not* waited on by the
    /// dispatcher, so the next (wider) dispatch can overwrite the round
    /// state while that worker is still between loads — with a split
    /// `active`, the stale worker could join the new round, then observe
    /// the un-consumed epoch bump and run the job a second time (double-
    /// decrementing `remaining`), or read a `None` job after the round
    /// ended.
    epoch: AtomicU64,
    job: UnsafeCell<Option<SendJob>>,
    /// Countdown of the current round's active workers (slots whose packed
    /// `active` covers them; skipping slots never touch it).
    remaining: AtomicUsize,
    panicked: AtomicBool,
    shutdown: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the epoch protocol above makes the UnsafeCell a single-writer /
// quiescent-readers slot; everything else is atomics and sync primitives.
unsafe impl Sync for PoolShared {}

/// A raw job pointer that may cross threads (the dispatch protocol, not
/// the type system, guarantees its validity).
#[derive(Clone, Copy)]
struct SendJob(RawJob);
unsafe impl Send for SendJob {}

/// Counts every OS thread ever spawned by a [`WorkerPool`] in this
/// process — the `alloc_free` suite asserts it stays constant across warm
/// rounds (no per-round spawning).
static POOL_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Counts every pool worker thread that has exited (shutdown or drop).
/// `spawned - exited` is the number of live pool threads — the
/// pool-lifecycle suite pins that growth-by-replacement of
/// [`WorkerPool::global`] does not leak retired, permanently parked
/// worker sets.
static POOL_THREADS_EXITED: AtomicU64 = AtomicU64::new(0);

/// Counts every one-shot scoped thread ever spawned by
/// [`for_each_shard`]'s fallback path. A pooled hot loop must not move
/// this either: a dispatch that silently misses the pool (lost pool
/// handle, plan wider than the pool) regresses to per-round spawning
/// without touching [`POOL_THREADS_SPAWNED`], so benches assert **both**
/// counters stay flat across warm rounds.
static SCOPED_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total one-shot scoped threads ever spawned by the sharded dispatch
/// fallback in this process (see [`WorkerPool::total_threads_spawned`]
/// for the pooled counterpart).
pub fn total_scoped_threads_spawned() -> u64 {
    SCOPED_THREADS_SPAWNED.load(Ordering::Relaxed)
}

std::thread_local! {
    /// True while this thread is executing a pool job (the dispatching
    /// caller on slot 0, a parked worker on its slot, or a scoped thread
    /// transitively spawned from either). A nested dispatch on the — one,
    /// process-global — pool from inside a job would deadlock: same-thread
    /// re-entry self-deadlocks on the dispatch mutex, and a worker-slot
    /// dispatch waits on a round that is itself waiting on that worker. So
    /// [`for_each_shard`] routes nested fan-out to scoped threads instead.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII set/restore of [`IN_POOL_JOB`] (restored on unwind too, so a
/// panicking job does not leave the thread marked busy). Restoring the
/// *prior* value — rather than clearing — keeps the guard correct even if
/// a thread ever enters it while already inside a pool job; clearing
/// there would unmark the thread mid-job and let a later dispatch
/// re-enter the pool it must avoid.
struct PoolJobGuard {
    prev: bool,
}

impl PoolJobGuard {
    fn enter() -> Self {
        PoolJobGuard {
            prev: IN_POOL_JOB.with(|f| f.replace(true)),
        }
    }
}

impl Drop for PoolJobGuard {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|f| f.set(self.prev));
    }
}

/// Process-global pool cache: one pool, grown (replaced) when a larger
/// capacity is requested, shared by every runtime in the process.
static GLOBAL_POOL: Mutex<Option<Arc<WorkerPool>>> = Mutex::new(None);

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent pool of parked worker threads driven by an epoch counter
/// (see the [module docs](self)). One dispatch runs a borrowed job once
/// per *shard slot*: the calling thread takes slot 0, worker `w` takes
/// slot `w + 1`. Dispatches are serialized internally, so a pool may be
/// shared freely (it is — via [`WorkerPool::global`]).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Unpark handles, one per worker — immutable after construction, so
    /// the hot dispatch path wakes workers without taking any lock.
    threads: Vec<std::thread::Thread>,
    /// Join handles, drained by [`WorkerPool::shutdown`] (which the global
    /// cache invokes when growth retires this pool) or by `Drop`.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Serializes dispatches from concurrent callers.
    dispatch: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool serving up to `threads` shard slots (`threads - 1`
    /// parked workers; slot 0 always runs on the dispatching thread).
    pub fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        assert!(
            workers as u64 <= ACTIVE_MASK,
            "WorkerPool supports at most {} workers",
            ACTIVE_MASK
        );
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles: Vec<std::thread::JoinHandle<()>> = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                POOL_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("cgc-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w + 1))
                    .expect("spawning a pool worker")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        WorkerPool {
            shared,
            threads,
            handles: Mutex::new(handles),
            dispatch: Mutex::new(()),
        }
    }

    /// The pool from the process-global cache, lazily created (and grown by
    /// replacement) to serve at least `threads` shard slots. `threads <= 1`
    /// needs no pool and returns `None`. Every runtime acquiring through
    /// here shares the same parked workers.
    ///
    /// Growing replaces the cached pool with a fresh, larger one and
    /// **shuts the retired pool down** ([`WorkerPool::shutdown`]): its
    /// workers are unparked, terminated and joined, so an ascending thread
    /// sweep never accumulates retired parked worker sets — live pool
    /// threads always equal the final capacity. A runtime still holding an
    /// `Arc` to a retired pool stays *correct*: its dispatches fall back
    /// to one-shot scoped threads (see [`WorkerPool::run`]) — re-acquire
    /// through here to get back on parked workers.
    pub fn global(threads: usize) -> Option<Arc<WorkerPool>> {
        if threads <= 1 {
            return None;
        }
        let mut cached = lock_ignore_poison(&GLOBAL_POOL);
        if let Some(pool) = cached.as_ref() {
            if pool.max_shards() >= threads {
                return Some(Arc::clone(pool));
            }
        }
        let pool = Arc::new(WorkerPool::new(threads));
        let retired = cached.replace(Arc::clone(&pool));
        drop(cached);
        // The cache lock is released before joining the retired workers: a
        // job still running on the old pool may itself call
        // `WorkerPool::global`, and joining under the cache lock would
        // deadlock against it.
        if let Some(old) = retired {
            old.shutdown();
        }
        Some(pool)
    }

    /// Terminates and joins this pool's workers: sets the shutdown flag,
    /// unparks everyone, and blocks until every worker thread exited.
    /// Serialized against in-flight dispatches, so a round in progress
    /// completes first. Idempotent. After shutdown, [`WorkerPool::run`]
    /// falls back to one-shot scoped threads, so `Arc` holders that missed
    /// the retirement stay correct (they just lose the parked-worker fast
    /// path). Invoked by [`WorkerPool::global`] when growth retires a pool,
    /// and by `Drop`.
    pub fn shutdown(&self) {
        let _round = lock_ignore_poison(&self.dispatch);
        self.shared.shutdown.store(true, Ordering::Release);
        let mut handles = lock_ignore_poison(&self.handles);
        for h in handles.iter() {
            h.thread().unpark();
        }
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Whether [`WorkerPool::shutdown`] ran (the pool was retired by
    /// global-cache growth or explicitly shut down); dispatches now take
    /// the scoped-thread fallback.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Maximum shard slots one dispatch serves (workers + the caller).
    #[inline]
    pub fn max_shards(&self) -> usize {
        self.threads.len() + 1
    }

    /// Total pool worker threads ever spawned in this process — a
    /// regression sentinel: warm pooled rounds must not move it.
    pub fn total_threads_spawned() -> u64 {
        POOL_THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Pool worker threads currently alive in this process (spawned minus
    /// exited, across every pool). The pool-lifecycle suite pins that
    /// growing [`WorkerPool::global`] keeps this equal to the final
    /// capacity's worker count instead of leaking one parked set per
    /// growth step.
    pub fn live_threads() -> u64 {
        POOL_THREADS_SPAWNED.load(Ordering::Relaxed) - POOL_THREADS_EXITED.load(Ordering::Relaxed)
    }

    /// Runs `job(slot)` once per slot in `0..shards` — slot 0 inline on
    /// the calling thread, the rest on the parked workers — and returns
    /// after **all** active slots finished. Workers beyond `shards` skip
    /// the round entirely, so a narrow dispatch on a wide (grown) pool
    /// only waits on the workers it actually uses. A warm dispatch
    /// allocates nothing and spawns nothing; `shards <= 1` runs fully
    /// inline without touching the pool.
    ///
    /// The job must treat `slot` as its only identity (pure kernels over
    /// disjoint data).
    ///
    /// `run` is **not reentrant**: a job must not dispatch on a pool
    /// (this one or any other) from inside its slot — same-thread re-entry
    /// would self-deadlock on the dispatch mutex, and a dispatch from a
    /// worker slot would wait on a round that is waiting on that worker.
    /// Nested sharded work inside a job should go through
    /// [`for_each_shard`], which detects the nesting and falls back to
    /// one-shot scoped threads.
    ///
    /// On a **shut-down** pool (retired by [`WorkerPool::global`] growth)
    /// the workers are gone, so the round runs on one-shot scoped threads
    /// instead — correct, just not pooled (and visible in
    /// [`total_scoped_threads_spawned`], so benches catch a hot loop stuck
    /// on a retired pool).
    ///
    /// # Panics
    ///
    /// Panics when `shards` exceeds [`Self::max_shards`] — slots the pool
    /// cannot serve would otherwise be silently skipped (use
    /// [`for_each_shard`]'s scoped-thread fallback for oversized fan-out).
    /// Panics on a nested dispatch from inside a pool job (which would
    /// otherwise deadlock). Propagates a panic if the job panicked on any
    /// slot (after all slots quiesced, so borrowed data is never used
    /// after `run` unwinds).
    pub fn run(&self, shards: usize, job: &(dyn Fn(usize) + Sync)) {
        assert!(
            shards <= self.max_shards(),
            "dispatching {shards} shards on a pool serving {}",
            self.max_shards()
        );
        assert!(
            !IN_POOL_JOB.with(|f| f.get()),
            "nested WorkerPool::run from inside a pool job would deadlock; \
             use for_each_shard, whose fallback handles nesting"
        );
        let workers = shards.max(1) - 1;
        if workers == 0 {
            job(0);
            return;
        }
        let round = lock_ignore_poison(&self.dispatch);
        if self.shared.shutdown.load(Ordering::Acquire) {
            // Retired pool: its workers are joined, so publishing a round
            // would wait forever. Scoped threads keep the caller correct.
            drop(round);
            SCOPED_THREADS_SPAWNED.fetch_add(shards as u64 - 1, Ordering::Relaxed);
            std::thread::scope(|scope| {
                for s in 1..shards {
                    scope.spawn(move || job(s));
                }
                job(0);
            });
            return;
        }
        let _round = round;
        let shared = &*self.shared;
        shared.remaining.store(workers, Ordering::Release);
        // SAFETY: every worker the previous round used is quiescent (its
        // dispatch waited for `remaining == 0`), and workers that skipped
        // a round never touch the job cell, so this write does not race;
        // lifetime erasure is sound because we wait below.
        unsafe {
            *shared.job.get() = Some(SendJob(std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                RawJob,
            >(job as *const _)));
        }
        // Publish the new round word — counter bumped, this round's active
        // worker count in the low bits — then unpark exactly the workers
        // the round uses, so a narrow dispatch on a wide (grown) pool never
        // disturbs the parked workers it skips. Publish-then-unpark cannot
        // lose a wake-up: an `unpark` racing a worker's `park` leaves a
        // token that makes the `park` return immediately. Dispatches are
        // serialized by `self.dispatch`, so the read-modify-write below
        // does not race other dispatchers.
        let cur = shared.epoch.load(Ordering::Relaxed);
        let next = (((cur >> ACTIVE_BITS) + 1) << ACTIVE_BITS) | workers as u64;
        shared.epoch.store(next, Ordering::Release);
        for t in &self.threads[..workers] {
            t.unpark();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _busy = PoolJobGuard::enter();
            job(0)
        }));
        // Wait for every worker: spin through the common photo-finish, then
        // park on the done condvar.
        let mut spins = 0u32;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                let mut g = lock_ignore_poison(&shared.done);
                while shared.remaining.load(Ordering::Acquire) != 0 {
                    g = shared
                        .done_cv
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
        unsafe {
            *shared.job.get() = None;
        }
        // Clear the worker-panic flag *before* any early return: a round
        // where both the caller and a worker panicked must not leave the
        // flag set for the next (unrelated) dispatch on this shared pool.
        let worker_panicked = shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a WorkerPool job panicked on a worker thread");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    // Count this worker as exited however the loop unwinds (shutdown
    // return or a propagating panic), so the live-thread accounting the
    // pool-lifecycle suite pins cannot drift.
    struct ExitGuard;
    impl Drop for ExitGuard {
        fn drop(&mut self) {
            POOL_THREADS_EXITED.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _exit = ExitGuard;
    let mut seen = 0u64;
    loop {
        // Wait for the next epoch: spin briefly, then park.
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                // Parked between rounds. The dispatcher publishes the
                // epoch *before* unparking, and an `unpark` racing this
                // `park` leaves a token that makes it return immediately,
                // so the wake-up cannot be lost; spurious returns (stale
                // tokens) just loop back to the epoch check.
                std::thread::park();
            }
        }
        // A round narrower than the pool does not involve this worker:
        // skip the job and leave `remaining` (which only counts active
        // workers) untouched. The active count comes from the *same*
        // packed word as the observed epoch, so the decision cannot pair
        // a stale count with a newer round (see the `epoch` field docs).
        if slot > (seen & ACTIVE_MASK) as usize {
            continue;
        }
        let job = unsafe { (*shared.job.get()).expect("epoch advanced without a published job") };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _busy = PoolJobGuard::enter();
            (unsafe { &*job.0 })(slot)
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock_ignore_poison(&shared.done);
            shared.done_cv.notify_one();
        }
    }
}

/// A raw pointer that may be captured by a `Sync` job closure; shard
/// disjointness (not the type system) rules out aliasing writes. Exposed
/// for the sharded kernels of the crates above (`cgc_cluster`'s build,
/// `cgc_graphs`' generators) — a low-level tool, not a general-purpose
/// cell.
pub struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wraps a raw pointer for capture by a `Sync` closure.
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `job(s)` for every shard `s in 0..shards`: inline when `shards <=
/// 1`, on the pool when one is provided with enough slots (slot 0 on the
/// caller — allocation- and spawn-free when warm), and on one-shot scoped
/// threads otherwise. A call from inside a pool job (which must not
/// re-dispatch on the pool — see [`WorkerPool::run`]) also takes the
/// scoped path, so nested sharded work completes instead of deadlocking.
/// Blocks until every shard completed; propagates panics either way.
pub fn for_each_shard(pool: Option<&WorkerPool>, shards: usize, job: &(dyn Fn(usize) + Sync)) {
    if shards <= 1 {
        job(0);
        return;
    }
    let nested = IN_POOL_JOB.with(|f| f.get());
    match pool {
        Some(pool) if pool.max_shards() >= shards && !nested => pool.run(shards, job),
        _ => {
            SCOPED_THREADS_SPAWNED.fetch_add(shards as u64 - 1, Ordering::Relaxed);
            std::thread::scope(|scope| {
                for s in 1..shards {
                    // Scoped threads inherit the busy flag: work spawned
                    // (transitively) from a pool job must keep avoiding
                    // the pool, or a depth-2 dispatch from a fresh thread
                    // would block on the round it is itself part of.
                    scope.spawn(move || {
                        if nested {
                            let _busy = PoolJobGuard::enter();
                            job(s)
                        } else {
                            job(s)
                        }
                    });
                }
                job(0);
            })
        }
    }
}

/// Clears `out` and refills it with `n` elements, where element `v` is
/// produced by `fill(v)` — shard-parallel, each worker writing its own
/// disjoint slice of the (re)used allocation. Element order is always
/// `0..n` regardless of shard count, and `fill` must be pure, so the
/// result is identical to the sequential `out.extend((0..n).map(fill))`.
///
/// With one shard this runs inline; with a [`WorkerPool`] the dispatch
/// reuses parked workers. Either way the call performs no allocation once
/// `out`'s capacity is warm.
pub fn fill_sharded<T: Send>(
    out: &mut Vec<T>,
    plan: &ShardPlan,
    pool: Option<&WorkerPool>,
    fill: impl Fn(usize, &mut [MaybeUninit<T>]) + Sync,
) {
    let n = plan.n_vertices();
    out.clear();
    out.reserve(n);
    let base = SendPtr::new(out.spare_capacity_mut()[..n].as_mut_ptr());
    for_each_shard(pool, plan.n_shards(), &|s| {
        let range = plan.range(s);
        if range.is_empty() {
            return;
        }
        // SAFETY: shard ranges are disjoint sub-slices of the spare capacity.
        let slot =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        fill(range.start, slot);
    });
    // SAFETY: every shard writes its full slice (one element per index); a
    // panic on any shard propagates out of `for_each_shard` before this
    // line, leaving the length untouched.
    unsafe { out.set_len(n) };
}

/// Runs `work` over every shard of `plan` concurrently, collecting each
/// shard's result and folding them **in shard order** with `merge` — the
/// deterministic reduction used by `cgc_cluster`'s trace executors and
/// sharded `ClusterGraph::build`, the parallel generators in `cgc_graphs`,
/// and [`crate::CommGraph`]'s sharded edge ingest. With one shard, runs
/// inline; with more, dispatches through [`for_each_shard`] — on the
/// persistent `pool` when one is supplied, on scoped threads otherwise.
/// The shard results and their fixed-order reduction are identical either
/// way. A plan always has at least one shard, so the reduction is total.
pub fn map_reduce_on<T: Send>(
    plan: &ShardPlan,
    pool: Option<&WorkerPool>,
    work: impl Fn(std::ops::Range<usize>) -> T + Sync,
    mut merge: impl FnMut(&mut T, T),
) -> T {
    let shards = plan.n_shards();
    if shards <= 1 {
        return work(plan.range(0));
    }
    let mut results: Vec<Option<T>> = (0..shards).map(|_| None).collect();
    {
        let base = SendPtr::new(results.as_mut_ptr());
        let work = &work;
        for_each_shard(pool, shards, &|s| {
            let r = work(plan.range(s));
            // SAFETY: each shard writes only its own pre-initialized slot.
            unsafe { *base.get().add(s) = Some(r) };
        });
    }
    let mut parts = results.into_iter();
    let mut acc = parts
        .next()
        .flatten()
        .expect("shard 0 always produces a result");
    for r in parts {
        merge(&mut acc, r.expect("every shard produced a result"));
    }
    acc
}

/// Fixed-order k-way merge of sorted, locally-deduplicated `(item, count)`
/// lists into the globally sorted item list plus a summed count column.
/// Equal items across lists sum their counts; the output is the unique
/// sorted dedup of the union, independent of how the items were
/// partitioned — the deterministic reduction behind the sharded
/// `ClusterGraph::build` link table and [`crate::CommGraph`]'s sharded
/// edge ingest.
pub fn kway_merge_counted<T: Ord + Copy>(lists: Vec<Vec<(T, u32)>>) -> (Vec<T>, Vec<u32>) {
    if lists.len() == 1 {
        let only = lists.into_iter().next().expect("one list");
        let mut items = Vec::with_capacity(only.len());
        let mut counts = Vec::with_capacity(only.len());
        for (p, m) in only {
            items.push(p);
            counts.push(m);
        }
        return (items, counts);
    }
    let upper: usize = lists.iter().map(Vec::len).sum();
    let mut items = Vec::with_capacity(upper);
    let mut counts = Vec::with_capacity(upper);
    let mut heads = vec![0usize; lists.len()];
    loop {
        let mut best: Option<T> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(p, _)) = list.get(heads[i]) {
                if best.is_none_or(|b| p < b) {
                    best = Some(p);
                }
            }
        }
        let Some(p) = best else { break };
        let mut m = 0u32;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(q, c)) = list.get(heads[i]) {
                if q == p {
                    m += c;
                    heads[i] += 1;
                }
            }
        }
        items.push(p);
        counts.push(m);
    }
    (items, counts)
}

/// [`kway_merge_counted`] without the count column: merges sorted,
/// locally-deduplicated lists into their unique sorted union. Duplicates
/// across lists collapse; the result is independent of the partition.
/// Delegates to the counted merge with unit counts (one merge loop to
/// maintain); the single-list case — every serial pipeline — returns the
/// list untouched.
pub fn kway_merge_dedup<T: Ord + Copy>(lists: Vec<Vec<T>>) -> Vec<T> {
    if lists.len() == 1 {
        return lists.into_iter().next().expect("one list");
    }
    let counted = lists
        .into_iter()
        .map(|l| l.into_iter().map(|p| (p, 1u32)).collect())
        .collect();
    kway_merge_counted(counted).0
}

/// Patches a CSR with **sorted rows** by per-row insertions and deletions,
/// returning the new `(offsets, adj)`. `ins_pairs` / `del_pairs` are
/// `(row, entry)` pairs, sorted lexicographically; inserted entries must
/// be absent from their row and deleted entries present. Untouched rows
/// copy wholesale and touched rows re-merge in one linear pass, sharded
/// over row ranges balanced by new-row mass — a sorted row is unique, so
/// the output is byte-identical to rebuilding the CSR from scratch, at
/// any thread count. This is the shared incremental-maintenance kernel
/// behind `CommGraph::apply_delta` and the cluster layer's `H`-adjacency
/// patch.
pub fn patch_csr_rows(
    offsets: &[usize],
    adj: &[usize],
    ins_pairs: &[(usize, usize)],
    del_pairs: &[(usize, usize)],
    par: &ParallelConfig,
) -> (Vec<usize>, Vec<usize>) {
    let n = offsets.len() - 1;
    debug_assert!(ins_pairs.is_sorted() && del_pairs.is_sorted());
    // New offsets: old degree adjusted by the per-row patch counts.
    let mut new_offsets = vec![0usize; n + 1];
    {
        let (mut ii, mut di) = (0usize, 0usize);
        for v in 0..n {
            let mut deg = offsets[v + 1] - offsets[v];
            while ii < ins_pairs.len() && ins_pairs[ii].0 == v {
                deg += 1;
                ii += 1;
            }
            while di < del_pairs.len() && del_pairs[di].0 == v {
                deg -= 1;
                di += 1;
            }
            new_offsets[v + 1] = new_offsets[v] + deg;
        }
    }
    let mut new_adj = vec![0usize; new_offsets[n]];
    let plan = ShardPlan::from_prefix(&new_offsets, par.threads());
    let pool = WorkerPool::global(par.threads());
    {
        let adj_base = SendPtr::new(new_adj.as_mut_ptr());
        let new_offsets = &new_offsets;
        for_each_shard(pool.as_deref(), plan.n_shards(), &|s| {
            let rows = plan.range(s);
            let mut ii = ins_pairs.partition_point(|p| p.0 < rows.start);
            let mut di = del_pairs.partition_point(|p| p.0 < rows.start);
            let mut out = new_offsets[rows.start];
            for v in rows.clone() {
                let old_row = &adj[offsets[v]..offsets[v + 1]];
                let ins_start = ii;
                while ii < ins_pairs.len() && ins_pairs[ii].0 == v {
                    ii += 1;
                }
                let del_start = di;
                while di < del_pairs.len() && del_pairs[di].0 == v {
                    di += 1;
                }
                // SAFETY: shard `s` writes exactly
                // `new_adj[new_offsets[rows.start]..new_offsets[rows.end]]`
                // — row ranges are disjoint across shards and `out` walks
                // the shard's window front to back.
                if ins_start == ii && del_start == di {
                    // Untouched row: wholesale copy.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            old_row.as_ptr(),
                            adj_base.get().add(out),
                            old_row.len(),
                        );
                    }
                    out += old_row.len();
                } else {
                    // Touched row: merge additions in, skip removals.
                    let ins_row = &ins_pairs[ins_start..ii];
                    let del_row = &del_pairs[del_start..di];
                    let (mut ip, mut dp) = (0usize, 0usize);
                    for &w in old_row {
                        while ip < ins_row.len() && ins_row[ip].1 < w {
                            unsafe { *adj_base.get().add(out) = ins_row[ip].1 };
                            out += 1;
                            ip += 1;
                        }
                        if dp < del_row.len() && del_row[dp].1 == w {
                            dp += 1;
                            continue;
                        }
                        unsafe { *adj_base.get().add(out) = w };
                        out += 1;
                    }
                    for &(_, w) in &ins_row[ip..] {
                        unsafe { *adj_base.get().add(out) = w };
                        out += 1;
                    }
                }
            }
            debug_assert_eq!(out, new_offsets[rows.end]);
        });
    }
    (new_offsets, new_adj)
}

/// A class-indexed CSR over an item space: items carrying the same class
/// id form one contiguous **wave**, ascending by item id within the wave.
/// This is the executor-side shape of "a proper coloring is a conflict-free
/// schedule": when the classes come from a proper coloring of a conflict
/// graph, no two items in one wave conflict, so a wave can run shard-
/// parallel with only read access to other items' state. The higher-level
/// wrapper that actually asserts that disjointness lives in `cgc_core`
/// (`ColorSchedule`); this type is just the partition plus the dispatch
/// order.
///
/// Built shard-parallel by a two-pass counting sort; the output — items
/// ordered by `(class, id)` — is a canonical function of `class_of` alone,
/// so schedules are bit-identical at any thread count like every plan in
/// this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSchedule {
    /// `n_waves + 1` entries; wave `w` spans `items[offsets[w]..offsets[w + 1]]`.
    offsets: Vec<usize>,
    /// Item ids ordered by `(class, id)` ascending.
    items: Vec<usize>,
    /// Inverse map: `class_of[item]` is the wave that runs `item`.
    class_of: Vec<usize>,
}

impl WaveSchedule {
    /// Builds the schedule from a per-item class assignment
    /// (`class_of[item] < n_classes` for every item), shard-parallel under
    /// `cfg`: each shard histograms its contiguous item range per class,
    /// a serial prefix pass turns the `(class, shard)` counts into
    /// disjoint scatter windows, and a second sharded pass scatters item
    /// ids into their windows. Within a wave the windows follow shard
    /// order — i.e. ascending item id — so the result equals the serial
    /// stable counting sort exactly.
    ///
    /// # Panics
    ///
    /// Panics when some `class_of[item] >= n_classes`.
    pub fn from_class_ids(class_of: &[usize], n_classes: usize, cfg: &ParallelConfig) -> Self {
        let n = class_of.len();
        let plan = ShardPlan::even(n, cfg.threads());
        let shards = plan.n_shards();
        let pool = WorkerPool::global(cfg.threads());
        // Pass 1: per-shard per-class histogram, each shard filling its
        // own disjoint `n_classes` window.
        let mut counts = vec![0usize; shards * n_classes];
        {
            let base = SendPtr::new(counts.as_mut_ptr());
            for_each_shard(pool.as_deref(), shards, &|s| {
                let range = plan.range(s);
                // SAFETY: shard `s` writes only its own counts window.
                let slot = unsafe {
                    std::slice::from_raw_parts_mut(base.get().add(s * n_classes), n_classes)
                };
                for &c in &class_of[range] {
                    assert!(
                        c < n_classes,
                        "class id {c} out of range (n_classes {n_classes})"
                    );
                    slot[c] += 1;
                }
            });
        }
        // Serial prefix: wave offsets, plus one scatter cursor per
        // `(shard, class)` so shard windows within a wave follow shard
        // (= ascending item) order.
        let mut offsets = Vec::with_capacity(n_classes + 1);
        let mut starts = vec![0usize; shards * n_classes];
        let mut cursor = 0usize;
        for c in 0..n_classes {
            offsets.push(cursor);
            for s in 0..shards {
                starts[s * n_classes + c] = cursor;
                cursor += counts[s * n_classes + c];
            }
        }
        offsets.push(cursor);
        debug_assert_eq!(cursor, n);
        // Pass 2: scatter item ids into their wave windows.
        let mut items = vec![0usize; n];
        {
            let items_base = SendPtr::new(items.as_mut_ptr());
            let starts_base = SendPtr::new(starts.as_mut_ptr());
            for_each_shard(pool.as_deref(), shards, &|s| {
                let range = plan.range(s);
                // SAFETY: shard `s` owns its cursor window, and the
                // cursors address disjoint `items` ranges by construction.
                let next = unsafe {
                    std::slice::from_raw_parts_mut(starts_base.get().add(s * n_classes), n_classes)
                };
                for v in range {
                    let c = class_of[v];
                    unsafe { *items_base.get().add(next[c]) = v };
                    next[c] += 1;
                }
            });
        }
        WaveSchedule {
            offsets,
            items,
            class_of: class_of.to_vec(),
        }
    }

    /// Number of waves (= classes, including empty ones).
    #[inline]
    pub fn n_waves(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total items scheduled.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// The items of wave `w`, ascending by id.
    #[inline]
    pub fn wave(&self, w: usize) -> &[usize] {
        &self.items[self.offsets[w]..self.offsets[w + 1]]
    }

    /// The wave that runs `item`.
    #[inline]
    pub fn wave_of(&self, item: usize) -> usize {
        self.class_of[item]
    }

    /// Items in the fullest wave (0 when there are no items).
    pub fn largest_wave(&self) -> usize {
        (0..self.n_waves())
            .map(|w| self.offsets[w + 1] - self.offsets[w])
            .max()
            .unwrap_or(0)
    }

    /// The wave-boundary prefix (`n_waves + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// All items, wave-major, ascending by id within a wave.
    #[inline]
    pub fn items(&self) -> &[usize] {
        &self.items
    }
}

/// What [`run_waves`] executed: how many non-empty waves were dispatched,
/// the fullest wave's item count, and the total items run. A pure function
/// of the schedule (never of thread count), so callers may surface it in
/// reports that are compared across thread sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveStats {
    /// Non-empty waves dispatched.
    pub waves: usize,
    /// Items in the fullest dispatched wave.
    pub largest_wave: usize,
    /// Total items executed across all waves.
    pub items: usize,
}

impl WaveStats {
    /// Folds another executor's stats into this one (waves and items add,
    /// the largest wave takes the max) — for callers that dispatch one
    /// [`run_waves`] per batch and report a single aggregate.
    pub fn absorb(&mut self, other: WaveStats) {
        self.waves += other.waves;
        self.largest_wave = self.largest_wave.max(other.largest_wave);
        self.items += other.items;
    }
}

/// The wave executor: dispatches one wave (color class) at a time over the
/// pool, with a full barrier between waves. `offsets`/`items` describe a
/// class-indexed CSR (see [`WaveSchedule`], whose `offsets()`/`items()`
/// feed this directly); within a wave, the items split into contiguous
/// [`ShardPlan::even`] slices and `job(wave, base, slice)` runs once per
/// slice, where `base` is the slice's absolute start index in `items`.
/// Empty waves are skipped without a dispatch.
///
/// The contract mirrors the rest of the module: the job must be a pure
/// kernel over its slice with **read-only** access to neighbor state and
/// writes only to slots its own items own — wave disjointness (the caller's
/// invariant, e.g. a proper coloring) is what makes those writes race-free
/// without locks or atomics. With `threads <= 1` every wave runs inline on
/// the calling thread in the same order, so results are bit-identical at
/// any thread count.
pub fn run_waves(
    pool: Option<&WorkerPool>,
    threads: usize,
    offsets: &[usize],
    items: &[usize],
    job: &(dyn Fn(usize, usize, &[usize]) + Sync),
) -> WaveStats {
    let mut stats = WaveStats::default();
    for w in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[w], offsets[w + 1]);
        if lo == hi {
            continue;
        }
        let wave = &items[lo..hi];
        stats.waves += 1;
        stats.largest_wave = stats.largest_wave.max(wave.len());
        stats.items += wave.len();
        // The slice boundaries reproduce `ShardPlan::even` arithmetically
        // (`s·len/shards`) instead of materializing a bounds Vec: a wave
        // sweep over thousands of classes must not allocate per wave —
        // that keeps warm scheduled passes heap-silent (asserted by the
        // cluster crate's counting-allocator suite).
        let len = wave.len();
        let shards = threads.min(len);
        if shards <= 1 {
            job(w, lo, wave);
        } else {
            // `for_each_shard` blocks until every slice finished — that is
            // the inter-wave barrier.
            for_each_shard(pool, shards, &|s| {
                let start = s * len / shards;
                let end = (s + 1) * len / shards;
                if start == end {
                    return;
                }
                job(w, lo + start, &wave[start..end]);
            });
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that create pools (or dispatch on the global
    /// one): `cargo test` runs sibling tests concurrently in one process,
    /// and the process-global spawn counter / pool cache assertions below
    /// are only meaningful when no sibling spawns workers mid-window.
    static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        lock_ignore_poison(&POOL_TEST_LOCK)
    }

    /// CSR degree offsets of a path on `n` vertices (degrees 1, 2, …, 2, 1)
    /// — the stand-in topology the plan tests cut up.
    fn path_offsets(n: usize) -> Vec<usize> {
        let mut offsets = vec![0usize];
        for v in 0..n {
            let deg = if n == 1 {
                0
            } else if v == 0 || v == n - 1 {
                1
            } else {
                2
            };
            offsets.push(offsets[v] + deg);
        }
        offsets
    }

    fn path_plan(n: usize, threads: usize) -> ShardPlan {
        ShardPlan::from_prefix(&path_offsets(n), threads)
    }

    #[test]
    fn serial_plan_is_one_shard() {
        let p = path_plan(10, 1);
        assert_eq!(p.n_shards(), 1);
        assert_eq!(p.range(0), 0..10);
    }

    #[test]
    fn plans_cover_all_vertices_without_overlap() {
        for threads in [2, 3, 4, 8, 64] {
            let p = path_plan(23, threads);
            assert_eq!(p.bounds()[0], 0);
            assert_eq!(p.n_vertices(), 23);
            for s in 1..p.bounds().len() {
                assert!(p.bounds()[s] >= p.bounds()[s - 1]);
            }
        }
    }

    #[test]
    fn more_threads_than_vertices_collapses() {
        let p = path_plan(3, 16);
        assert!(p.n_shards() <= 3);
        assert_eq!(p.n_vertices(), 3);
    }

    #[test]
    fn balanced_edges_splits_a_skewed_star() {
        // Star: vertex 0 has degree n-1, the rest degree 1. Balanced-edge
        // sharding must not put everything in shard 0.
        let n = 101;
        let mut offsets = vec![0usize, n - 1];
        for v in 1..n {
            offsets.push(offsets[v] + 1);
        }
        let p = ShardPlan::from_prefix(&offsets, 4);
        assert!(p.n_shards() >= 2);
        // The heavy head occupies an early shard; later shards still get
        // nonempty ranges.
        assert!(!p.range(p.n_shards() - 1).is_empty());
    }

    #[test]
    fn fill_sharded_matches_sequential_extend() {
        for threads in [1, 2, 3, 8] {
            let plan = path_plan(57, threads);
            let mut out: Vec<u64> = Vec::new();
            fill_sharded(&mut out, &plan, None, |start, slot| {
                for (i, cell) in slot.iter_mut().enumerate() {
                    cell.write(((start + i) as u64).wrapping_mul(0x9E3779B97F4A7C15));
                }
            });
            let expect: Vec<u64> = (0..57u64)
                .map(|v| v.wrapping_mul(0x9E3779B97F4A7C15))
                .collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_is_shard_ordered() {
        for threads in [1, 2, 4, 7] {
            let plan = path_plan(40, threads);
            // Concatenation is order-sensitive: any non-shard-order merge
            // would scramble the result.
            let got = map_reduce_on(
                &plan,
                None,
                |r| r.collect::<Vec<usize>>(),
                |a, b| a.extend(b),
            );
            assert_eq!(got, (0..40).collect::<Vec<usize>>(), "threads={threads}");
        }
    }

    #[test]
    fn from_prefix_covers_and_balances() {
        // Skewed prefix: one heavy head, long light tail.
        let mut prefix = vec![0usize];
        for v in 0..100 {
            prefix.push(prefix[v] + if v == 0 { 1000 } else { 1 });
        }
        for shards in [1, 2, 4, 8] {
            let p = ShardPlan::from_prefix(&prefix, shards);
            assert_eq!(p.bounds()[0], 0);
            assert_eq!(p.n_vertices(), 100);
            for s in 0..p.n_shards() {
                assert!(
                    !p.range(s).is_empty(),
                    "empty shards must be collapsed (shards={shards}, s={s})"
                );
            }
        }
        // With 2+ shards the heavy head must not absorb everything.
        let p = ShardPlan::from_prefix(&prefix, 4);
        assert!(p.n_shards() >= 2);
        assert!(!p.range(p.n_shards() - 1).is_empty());
    }

    #[test]
    fn pool_runs_every_slot_and_reuses_threads() {
        let _serial = pool_test_lock();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        assert_eq!(pool.max_shards(), 4);
        let spawned = WorkerPool::total_threads_spawned();
        for round in 1..=10usize {
            let hits = AtomicUsize::new(0);
            pool.run(4, &|slot| {
                assert!(slot < 4);
                hits.fetch_add(slot + 1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4, "round {round}");
        }
        // Narrow rounds on the wide pool only run (and wait on) the active
        // slots.
        for shards in [1, 2, 3] {
            let hits = AtomicUsize::new(0);
            pool.run(shards, &|slot| {
                assert!(slot < shards, "slot {slot} beyond {shards} shards");
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), shards);
        }
        assert_eq!(
            WorkerPool::total_threads_spawned(),
            spawned,
            "warm dispatches must not spawn threads"
        );
    }

    #[test]
    fn narrow_then_wide_dispatches_interleave_safely() {
        let _serial = pool_test_lock();
        // Regression: a worker skipping a narrow round is not waited on by
        // the dispatcher, so the next (wider) dispatch races its skip
        // decision. With the round's active count split from the epoch,
        // the stale worker could join the new round and then run its job a
        // second time (hits > shards) or die on a vanished job (deadlock).
        // Alternating widths for many warm rounds makes that window hot.
        let pool = WorkerPool::new(8);
        for round in 0..10_000usize {
            let shards = if round % 2 == 0 { 2 } else { 8 };
            let hits = AtomicUsize::new(0);
            pool.run(shards, &|slot| {
                assert!(slot < shards, "slot {slot} beyond {shards} shards");
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), shards, "round {round}");
        }
    }

    #[test]
    fn run_rejects_oversized_dispatch() {
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(3, &|_| {});
        }));
        assert!(
            r.is_err(),
            "shards beyond max_shards must not be dropped silently"
        );
    }

    #[test]
    fn nested_dispatch_falls_back_to_scoped_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(4);
        // A direct nested `run` is a documented error, not a deadlock.
        let direct = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|_| pool.run(2, &|_| {}));
        }));
        assert!(direct.is_err(), "nested run must fail fast, not deadlock");
        // `for_each_shard` from inside a pool job (any slot) detects the
        // nesting and completes on scoped threads — including depth 2.
        let inner_hits = AtomicUsize::new(0);
        let scoped_before = total_scoped_threads_spawned();
        pool.run(3, &|_| {
            for_each_shard(Some(&pool), 2, &|_| {
                for_each_shard(Some(&pool), 2, &|_| {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 3 * 2 * 2);
        assert!(
            total_scoped_threads_spawned() > scoped_before,
            "nested fan-out must have taken the scoped fallback"
        );
        // The pool still works after the nested rounds.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pooled_fill_matches_scoped_fill() {
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(3);
        let plan = path_plan(91, 3);
        let expect: Vec<u64> = (0..91u64).map(|v| v * 7 + 1).collect();
        let mut scoped: Vec<u64> = Vec::new();
        let mut pooled: Vec<u64> = Vec::new();
        let kernel = |start: usize, slot: &mut [MaybeUninit<u64>]| {
            for (i, cell) in slot.iter_mut().enumerate() {
                cell.write((start + i) as u64 * 7 + 1);
            }
        };
        fill_sharded(&mut scoped, &plan, None, kernel);
        fill_sharded(&mut pooled, &plan, Some(&pool), kernel);
        assert_eq!(scoped, expect);
        assert_eq!(pooled, expect);
    }

    #[test]
    fn pooled_map_reduce_is_shard_ordered() {
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(8);
        for threads in [1, 2, 4, 7] {
            let plan = path_plan(40, threads);
            let got = map_reduce_on(
                &plan,
                Some(&pool),
                |r| r.collect::<Vec<usize>>(),
                |a, b| a.extend(b),
            );
            assert_eq!(got, (0..40).collect::<Vec<usize>>(), "threads={threads}");
        }
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|slot| {
                if slot == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "worker panic must reach the dispatcher");
        // The pool stays usable after a panicked round, and the panic flag
        // does not leak into it — even when caller AND worker both panic.
        pool.run(2, &|_| {});
        let both = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|_| panic!("everyone"));
        }));
        assert!(both.is_err());
        pool.run(2, &|_| {}); // must not spuriously panic
    }

    #[test]
    fn global_pool_is_shared_and_grows() {
        let _serial = pool_test_lock();
        let a = WorkerPool::global(2).expect("parallel config gets a pool");
        let b = WorkerPool::global(2).expect("parallel config gets a pool");
        assert!(Arc::ptr_eq(&a, &b), "same capacity shares one pool");
        assert!(WorkerPool::global(1).is_none(), "serial needs no pool");
        let big = WorkerPool::global(a.max_shards() + 1).unwrap();
        assert!(big.max_shards() > a.max_shards());
        // The grown pool serves smaller requests from then on.
        let c = WorkerPool::global(2).unwrap();
        assert!(Arc::ptr_eq(&big, &c));
    }

    #[test]
    fn kway_merges_are_partition_independent() {
        // The reference: plain sort + dedup of the union.
        let all: Vec<(u32, u32)> = vec![(1, 1), (3, 2), (3, 1), (7, 1), (9, 4), (9, 1)];
        let mut expect_items: Vec<u32> = all.iter().map(|&(p, _)| p).collect();
        expect_items.sort_unstable();
        expect_items.dedup();
        for split in [1usize, 2, 3] {
            let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); split];
            for (i, &(p, c)) in all.iter().enumerate() {
                lists[i % split].push((p, c));
            }
            for l in &mut lists {
                l.sort_unstable();
                // Local dedup with summed counts, as shards do.
                let mut merged: Vec<(u32, u32)> = Vec::new();
                for &(p, c) in l.iter() {
                    match merged.last_mut() {
                        Some((q, m)) if *q == p => *m += c,
                        _ => merged.push((p, c)),
                    }
                }
                *l = merged;
            }
            let plain: Vec<Vec<u32>> = lists
                .iter()
                .map(|l| l.iter().map(|&(p, _)| p).collect())
                .collect();
            let (items, counts) = kway_merge_counted(lists);
            assert_eq!(items, expect_items, "split={split}");
            assert_eq!(counts.iter().sum::<u32>(), 10, "split={split}");
            assert_eq!(kway_merge_dedup(plain), expect_items, "split={split}");
        }
    }

    /// CSR offsets from explicit per-row degrees.
    fn offsets_of(degs: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0usize];
        for (v, &d) in degs.iter().enumerate() {
            offsets.push(offsets[v] + d);
        }
        offsets
    }

    #[test]
    fn from_prefix_retargets_around_a_hub() {
        // One row of mass 1000 then 99 rows of mass 1. The fixed-target
        // walk used to let the hub absorb every intermediate target,
        // collapsing to 2 shards; retargeting re-balances the tail.
        let mut prefix = vec![0usize];
        for v in 0..100 {
            prefix.push(prefix[v] + if v == 0 { 1000 } else { 1 });
        }
        let p = ShardPlan::from_prefix(&prefix, 4);
        assert_eq!(p.n_shards(), 4, "post-hub rows must fill all shards");
        for s in 0..p.n_shards() {
            assert!(!p.range(s).is_empty(), "shard {s} empty: {:?}", p.bounds());
        }
        // The hub is alone in its shard; the ~99 tail rows split evenly.
        assert_eq!(p.range(0), 0..1);
        let tail_sizes: Vec<usize> = (1..4).map(|s| p.range(s).len()).collect();
        let (min, max) = (
            *tail_sizes.iter().min().unwrap(),
            *tail_sizes.iter().max().unwrap(),
        );
        assert!(max - min <= 1, "tail imbalance: {tail_sizes:?}");
    }

    #[test]
    fn segmented_plan_cuts_inside_the_hub_row() {
        // The satellite pin: the degenerate prefix that row-granular
        // sharding cannot balance (one row heavier than total / shards) is
        // exactly balanced by the segmented plan.
        let mut offsets = vec![0usize];
        for v in 0..100 {
            offsets.push(offsets[v] + if v == 0 { 1000 } else { 1 });
        }
        let p = SegmentedPlan::from_prefix(&offsets, 4);
        assert_eq!(p.n_segments(), 4);
        assert_eq!(p.n_rows(), 100);
        assert_eq!(p.cut(0), (0, 0));
        assert_eq!(p.cut(4), (100, 1099));
        let sizes: Vec<usize> = (0..4).map(|s| p.entry_range(s).len()).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(
            (max as f64) / (min as f64) < 1.5,
            "segment entry masses {sizes:?} not balanced"
        );
        // The first three cuts are interior to the hub row.
        for s in 1..=3 {
            let (r, e) = p.cut(s);
            assert_eq!(r, 0, "cut {s} row");
            assert!(e > offsets[0] && e < offsets[1], "cut {s} not interior");
        }
    }

    #[test]
    fn fold_rows_segmented_matches_serial_fold() {
        // Hub at the front, middle and end; enough segments that rows are
        // split into head / middle / tail fragments. Plus the degenerate
        // shapes: no entries at all, one row holding every entry, and
        // fewer entries than segments.
        for degs in [
            vec![40usize, 1, 0, 2, 1],
            vec![1, 2, 40, 0, 3],
            vec![2, 0, 1, 1, 40],
            vec![7, 7, 7, 7, 7],
            vec![0, 0, 0],
            vec![0, 0, 30, 0],
            vec![1, 0, 2],
        ] {
            let offsets = offsets_of(&degs);
            let n = degs.len();
            let expect: Vec<u64> = (0..n)
                .map(|v| {
                    (offsets[v]..offsets[v + 1])
                        .map(|e| (e as u64).wrapping_mul(0x9E37_79B9))
                        .fold(v as u64, u64::wrapping_add)
                })
                .collect();
            for shards in [1, 2, 4, 8, 16] {
                let plan = SegmentedPlan::from_prefix(&offsets, shards);
                let mut out: Vec<u64> = Vec::new();
                fold_rows_segmented(
                    &mut out,
                    &plan,
                    None,
                    &offsets,
                    |v| v as u64,
                    |_v, es, acc| {
                        for e in es {
                            *acc = acc.wrapping_add((e as u64).wrapping_mul(0x9E37_79B9));
                        }
                    },
                    |a, b| *a = a.wrapping_add(b),
                );
                // init(v) = v is NOT the fold identity, so each interior
                // fragment contributes one extra copy of it — exactly the
                // documented deviation for non-monoid folds. Adjust the
                // serial expectation accordingly (the monoid test below
                // checks the bit-identical case).
                let mut expect_adj = expect.clone();
                for s in 1..plan.n_segments() {
                    let (r, e) = plan.cut(s);
                    if e > offsets[r] {
                        expect_adj[r] = expect_adj[r].wrapping_add(r as u64);
                    }
                }
                assert_eq!(out, expect_adj, "degs={degs:?} shards={shards}");
            }
        }
    }

    #[test]
    fn fold_rows_segmented_monoid_is_partition_independent() {
        // With an identity init (the monoid case the ClusterNet wrappers
        // use), every segment count gives the bit-identical serial answer.
        let offsets = offsets_of(&[100, 3, 0, 7, 1, 50]);
        let n = offsets.len() - 1;
        let val = |e: usize| (e as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 8;
        let expect: Vec<u64> = (0..n)
            .map(|v| (offsets[v]..offsets[v + 1]).map(val).max().unwrap_or(0))
            .collect();
        for shards in [1, 2, 3, 4, 8, 32] {
            let plan = SegmentedPlan::from_prefix(&offsets, shards);
            let mut out: Vec<u64> = Vec::new();
            fold_rows_segmented(
                &mut out,
                &plan,
                None,
                &offsets,
                |_| 0u64,
                |_, es, acc| {
                    for e in es {
                        *acc = (*acc).max(val(e));
                    }
                },
                |a, b| *a = (*a).max(b),
            );
            assert_eq!(out, expect, "shards={shards}");
        }
    }

    #[test]
    fn fill_segmented_with_offsets_matches_sequential() {
        for degs in [
            vec![60usize, 2, 0, 3, 1, 2],
            vec![0, 0, 0],
            vec![0, 0, 30, 0],
            vec![1, 0, 2],
        ] {
            let offsets = offsets_of(&degs);
            let n = degs.len();
            // A stand-in adjacency arena; the fill copies a function of
            // each entry, as `neighbor_collect_into` does.
            let adj: Vec<u64> = (0..offsets[n] as u64).map(|e| (e * 7919) % 101).collect();
            let mut expect: Vec<u64> = Vec::new();
            for v in 0..n {
                for &a in &adj[offsets[v]..offsets[v + 1]] {
                    expect.push(a * 31);
                }
            }
            for shards in [1, 2, 4, 8] {
                let plan = SegmentedPlan::from_prefix(&offsets, shards);
                let mut out_offsets: Vec<usize> = Vec::new();
                let mut out_data: Vec<u64> = Vec::new();
                fill_segmented_with_offsets(
                    &mut out_offsets,
                    &mut out_data,
                    &plan,
                    None,
                    &offsets,
                    |es, slot| {
                        for (cell, &a) in slot.iter_mut().zip(&adj[es]) {
                            cell.write(a * 31);
                        }
                    },
                );
                assert_eq!(out_offsets, offsets, "degs={degs:?} shards={shards}");
                assert_eq!(out_data, expect, "degs={degs:?} shards={shards}");
            }
        }
    }

    #[test]
    fn merge_sorted_runs_equals_full_sort() {
        let mut data: Vec<u32> = vec![5, 9, 12, 1, 3, 8, 11, 0, 2, 7];
        let bounds = [0usize, 3, 7, 10];
        for b in bounds.windows(2) {
            data[b[0]..b[1]].sort_unstable();
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = Vec::new();
        merge_sorted_runs(&mut data, &bounds, &mut scratch);
        assert_eq!(data, expect);
        // Degenerate single run is a no-op.
        let mut one = vec![3u32, 1, 2];
        merge_sorted_runs(&mut one, &[0, 3], &mut scratch);
        assert_eq!(one, vec![3, 1, 2]);
    }

    #[test]
    fn env_config_parses() {
        // Only exercises the parser paths that don't depend on the
        // environment (from_env itself is covered by the CI matrix).
        assert!(ParallelConfig::serial().is_serial());
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert!(ParallelConfig::max_parallel().threads() >= 1);
    }

    #[test]
    fn from_env_values_honors_the_documented_fallbacks() {
        // Unset or unparsable means sequential — the documented contract
        // (unparsable used to silently become with_threads(1) without the
        // warning; the values below must all land on serial()).
        assert_eq!(
            ParallelConfig::from_env_values(None),
            ParallelConfig::serial()
        );
        for bad in ["garbage", "-3", "2.5", "1e3", ""] {
            assert_eq!(
                ParallelConfig::from_env_values(Some(bad)),
                ParallelConfig::serial(),
                "CGC_THREADS={bad:?} must fall back to sequential"
            );
        }
        assert_eq!(ParallelConfig::from_env_values(Some(" 4 ")).threads(), 4);
        for all in ["max", "0"] {
            assert_eq!(
                ParallelConfig::from_env_values(Some(all)).threads(),
                available_threads()
            );
        }
    }

    #[test]
    fn shut_down_pool_falls_back_to_scoped_dispatch() {
        let _serial = pool_test_lock();
        let pool = WorkerPool::new(3);
        pool.run(3, &|_| {});
        assert!(!pool.is_shut_down());
        pool.shutdown();
        assert!(pool.is_shut_down());
        // A holder that missed the retirement still completes its rounds.
        let scoped_before = total_scoped_threads_spawned();
        let hits = AtomicUsize::new(0);
        pool.run(3, &|slot| {
            assert!(slot < 3);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert!(
            total_scoped_threads_spawned() > scoped_before,
            "a retired pool must dispatch on scoped threads"
        );
        pool.shutdown(); // idempotent
    }

    /// The canonical wave order — by `(class, id)` — at several thread
    /// counts, against a serial stable counting sort.
    #[test]
    fn wave_schedule_is_canonical_and_thread_invariant() {
        let n = 257;
        let n_classes = 7;
        let class_of: Vec<usize> = (0..n).map(|v| (v * 31 + 5) % n_classes).collect();
        let reference =
            WaveSchedule::from_class_ids(&class_of, n_classes, &ParallelConfig::serial());
        assert_eq!(reference.n_waves(), n_classes);
        assert_eq!(reference.n_items(), n);
        let mut seen = vec![false; n];
        for w in 0..reference.n_waves() {
            let wave = reference.wave(w);
            assert!(
                wave.windows(2).all(|p| p[0] < p[1]),
                "wave {w} not ascending"
            );
            for &v in wave {
                assert_eq!(class_of[v], w);
                assert_eq!(reference.wave_of(v), w);
                assert!(!seen[v], "item {v} scheduled twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every item is scheduled");
        for threads in [2, 3, 8] {
            let par = WaveSchedule::from_class_ids(
                &class_of,
                n_classes,
                &ParallelConfig::with_threads(threads),
            );
            assert_eq!(par, reference, "threads={threads}");
        }
    }

    /// `run_waves` runs every item exactly once, in wave order (the
    /// barrier), with correct absolute base indices and stats.
    #[test]
    fn run_waves_covers_items_with_wave_barrier() {
        let n = 101;
        let n_classes = 5;
        let class_of: Vec<usize> = (0..n).map(|v| v % n_classes).collect();
        for threads in [1usize, 4] {
            let ws = WaveSchedule::from_class_ids(&class_of, n_classes, &ParallelConfig::serial());
            let pool = WorkerPool::global(threads);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
            let wave_counter = AtomicUsize::new(0);
            let stats = run_waves(
                pool.as_deref(),
                threads,
                ws.offsets(),
                ws.items(),
                &|w, base, slice| {
                    // The barrier means no later wave starts while an
                    // earlier one runs: the global wave counter only ever
                    // shows this wave or earlier ones mid-wave.
                    assert!(wave_counter.load(Ordering::SeqCst) <= w);
                    wave_counter.store(w, Ordering::SeqCst);
                    for (i, &v) in slice.iter().enumerate() {
                        assert_eq!(ws.items()[base + i], v);
                        let prev = hits[v].swap(w, Ordering::SeqCst);
                        assert_eq!(prev, usize::MAX, "item {v} ran twice");
                    }
                },
            );
            assert_eq!(stats.waves, n_classes);
            assert_eq!(stats.items, n);
            assert_eq!(stats.largest_wave, ws.largest_wave());
            for (v, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::SeqCst), class_of[v], "item {v}");
            }
        }
    }

    #[test]
    fn run_waves_skips_empty_waves() {
        // Classes 1 and 3 are empty.
        let class_of = [0usize, 0, 2, 4, 4, 4];
        let ws = WaveSchedule::from_class_ids(&class_of, 5, &ParallelConfig::serial());
        let ran = Mutex::new(Vec::new());
        let stats = run_waves(None, 1, ws.offsets(), ws.items(), &|w, _base, slice| {
            lock_ignore_poison(&ran).push((w, slice.to_vec()));
        });
        assert_eq!(stats.waves, 3);
        assert_eq!(stats.largest_wave, 3);
        assert_eq!(stats.items, 6);
        assert_eq!(
            *lock_ignore_poison(&ran),
            vec![(0, vec![0, 1]), (2, vec![2]), (4, vec![3, 4, 5])]
        );
    }
}
