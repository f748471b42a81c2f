//! Verifies the runtime's headline guarantees: after warm-up, the metered
//! aggregation primitives (`neighbor_fold_into`, the typed fold wrappers,
//! `neighbor_collect_into`, `exact_degrees_into`, `charge_full_rounds`)
//! and the sharded palette query sweep (`palette_sweep`)
//! perform **zero heap allocations per round** — under the sequential
//! config *and* under a parallel config dispatching on the persistent
//! [`WorkerPool`], where warm rounds additionally **spawn no threads**
//! (pool workers are created once and parked between rounds).
//!
//! A counting global allocator tallies every allocation made on the test
//! thread and on the pool's workers; each test warms the buffers once,
//! snapshots the counter, runs many rounds, and asserts the counter did
//! not move. Note the allocation counter alone already
//! rules out per-round spawning (`std::thread::spawn` allocates); the
//! pool's spawn counter pins it explicitly.

use cgc_cluster::{
    palette_sweep, ClusterGraph, ClusterNet, NeighborLists, PaletteSweep, ParallelConfig,
    WorkerPool,
};
use cgc_net::CommGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the tests in this binary: every assertion below compares a
/// **process-global** counter (allocations, pool spawns) across a measured
/// window, and the default test harness runs sibling tests concurrently on
/// multicore machines — a sibling's warm-up allocating mid-window would
/// fail the assert spuriously.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the serializing lock and opts the calling test thread into the
/// allocation count.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    COUNTED.with(|c| c.set(true));
    guard
}

/// Opts every worker of `pool` into the allocation count (slot 0 is the
/// calling thread).
fn count_pool_workers(pool: Option<&WorkerPool>) {
    let pool = pool.expect("parallel config must acquire the persistent pool");
    pool.run(pool.max_shards(), &|_| COUNTED.with(|c| c.set(true)));
}

thread_local! {
    /// Whether this thread's allocations are counted. Only the test thread
    /// and the pool workers opt in: the harness's own threads spawn sibling
    /// tests and report results while a measured window is open, and
    /// those allocations are not the runtime's.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A graph with both multi-link edges and non-trivial support trees.
fn instance() -> ClusterGraph {
    // 8 clusters of 3 machines in a path each; ring + chords of links.
    let mut edges = Vec::new();
    for c in 0..8usize {
        let base = 3 * c;
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    for c in 0..8usize {
        let d = (c + 1) % 8;
        edges.push((3 * c, 3 * d + 2)); // ring, one link
        edges.push((3 * c + 1, 3 * d + 1)); // ring, parallel link
    }
    for c in 0..4usize {
        edges.push((3 * c + 2, 3 * (c + 4))); // chords
    }
    let comm = CommGraph::from_edges(24, &edges).unwrap();
    ClusterGraph::build(comm, (0..24).map(|m| m / 3).collect()).unwrap()
}

#[test]
fn neighbor_fold_into_is_allocation_free_when_warm() {
    let _serial = serial();
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    // Warm-up round sizes the buffer.
    net.neighbor_fold_into(
        16,
        16,
        &queries,
        |_, _, _, qu| Some(*qu),
        |_| 0u64,
        |a, c| *a = (*a).max(c),
        |a, b| *a = (*a).max(b),
        &mut out,
    );
    let warm = out.clone();
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            |a, b| *a = (*a).max(b),
            &mut out,
        );
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm neighbor_fold_into must not allocate"
    );
    assert_eq!(out, warm, "results stay identical across reused rounds");
}

#[test]
fn typed_fold_wrappers_are_allocation_free_when_warm() {
    let _serial = serial();
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    // Warm up all three scratch columns.
    net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
    net.neighbor_fold_counts(8, 8, &queries, |_, _, _, _| Some(1));
    net.neighbor_fold_words(8, 8, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)));
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
        net.neighbor_fold_counts(8, 8, &queries, |_, _, _, _| Some(1));
        net.neighbor_fold_words(8, 8, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)));
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm fold wrappers must not allocate"
    );
}

#[test]
fn neighbor_collect_into_is_allocation_free_when_warm() {
    let _serial = serial();
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    net.neighbor_collect_into(16, &queries, &mut lists);
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm neighbor_collect_into must not allocate"
    );
    for v in 0..h.n_vertices() {
        assert_eq!(lists.row(v).len(), h.degree(v));
    }
}

#[test]
fn pooled_rounds_are_allocation_free_and_spawn_no_threads() {
    let _serial = serial();
    let h = instance();
    // An explicitly parallel runtime: dispatches ride the process-global
    // persistent worker pool.
    let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(2));
    count_pool_workers(net.worker_pool());
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    let mut degs: Vec<usize> = Vec::new();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    let fold = |net: &mut ClusterNet<'_>, out: &mut Vec<u64>| {
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            |a, b| *a = (*a).max(b),
            out,
        );
    };
    // Warm-up sizes every buffer (and has already created the pool).
    fold(&mut net, &mut out);
    net.exact_degrees_into(&mut degs);
    net.neighbor_collect_into(16, &queries, &mut lists);
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        fold(&mut net, &mut out);
        net.exact_degrees_into(&mut degs);
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm pooled rounds must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm pooled rounds must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm pooled rounds must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out, warm, "pooled results stay identical across rounds");

    // And the pooled results match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    let mut seq_out: Vec<u64> = Vec::new();
    fold(&mut seq, &mut seq_out);
    assert_eq!(out, seq_out);
    assert_eq!(degs, seq.exact_degrees());
}

#[test]
fn segmented_rounds_are_allocation_free_and_spawn_no_threads() {
    let _serial = serial();
    let h = instance();
    // Two threads give a two-segment plan, so the warm rounds run the
    // segment-parallel fold/collect paths.
    let par = ParallelConfig::with_threads(2);
    let mut net = ClusterNet::with_parallel(&h, 64, par);
    count_pool_workers(net.worker_pool());
    assert_eq!(net.segmented_plan().n_segments(), 2);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    let fold = |net: &mut ClusterNet<'_>, out: &mut Vec<u64>| {
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            |a, b| *a = (*a).max(b),
            out,
        );
    };
    fold(&mut net, &mut out);
    net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
    net.neighbor_collect_into(16, &queries, &mut lists);
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        fold(&mut net, &mut out);
        net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm segmented rounds must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm segmented rounds must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm segmented rounds must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out, warm, "segmented results stay identical across rounds");

    // And the segmented results match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    let mut seq_out: Vec<u64> = Vec::new();
    fold(&mut seq, &mut seq_out);
    assert_eq!(out, seq_out);
}

#[test]
fn palette_query_sweeps_are_allocation_free_and_spawn_no_threads() {
    let _serial = serial();
    let h = instance();
    let n = h.n_vertices();
    let q = h.max_degree() + 1;
    let mut colors: Vec<Option<usize>> = vec![None; n];
    for v in 0..n {
        let used: Vec<usize> = h.neighbors(v).iter().filter_map(|&u| colors[u]).collect();
        colors[v] = Some((0..q).find(|c| !used.contains(c)).unwrap());
    }
    let par = ParallelConfig::with_threads(2);
    let plan = h.shard_plan(&par);
    let pool = WorkerPool::global(par.threads());
    count_pool_workers(pool.as_deref());

    // Warm-up: acquires the pool, sizes the output buffers, and primes
    // each participating worker's thread-local `BitsScratch` (shard-to-
    // worker assignment is deterministic, so the same workers serve the
    // measured sweeps).
    let mut out = PaletteSweep::new();
    palette_sweep(&h, &colors, q, &plan, pool.as_deref(), &mut out);
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        palette_sweep(&h, &colors, q, &plan, pool.as_deref(), &mut out);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm palette-query sweeps must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm palette-query sweeps must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm palette-query sweeps must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out.free_counts, warm.free_counts);
    assert_eq!(out.uncolored_degrees, warm.uncolored_degrees);
    assert_eq!(out.reuse_slacks, warm.reuse_slacks);

    // And the pooled sweep matches the serial one bit for bit.
    let mut seq = PaletteSweep::new();
    let serial_plan = h.shard_plan(&ParallelConfig::serial());
    palette_sweep(&h, &colors, q, &serial_plan, None, &mut seq);
    assert_eq!(out.free_counts, seq.free_counts);
    assert_eq!(out.uncolored_degrees, seq.uncolored_degrees);
    assert_eq!(out.reuse_slacks, seq.reuse_slacks);
}

#[test]
fn exact_degrees_into_and_full_rounds_are_allocation_free_when_warm() {
    let _serial = serial();
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let mut degs: Vec<usize> = Vec::new();
    net.exact_degrees_into(&mut degs);
    // set_phase interns the phase label once; warm it too.
    net.set_phase("steady");
    net.charge_full_rounds(1, 16);
    let before = allocations();
    for _ in 0..100 {
        net.exact_degrees_into(&mut degs);
        net.charge_full_rounds(1000, 16);
    }
    assert_eq!(allocations() - before, 0, "warm metering must not allocate");
}
