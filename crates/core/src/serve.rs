//! Multi-tenant session server over the shared worker pool.
//!
//! A [`SessionServer`] accepts concurrent run requests — `(workload
//! spec, seed)` pairs from any number of tenant threads — and serves
//! them all from one process over the persistent
//! [`cgc_cluster::WorkerPool`]. The canonical [`WorkloadSpec`] string is
//! already a content address (parsing it rebuilds the instance
//! bit-for-bit), so the server keys its **graph cache** by that string:
//!
//! * **cache hit** — the built [`ClusterGraph`] is reused; the request
//!   pays only the coloring run, never a rebuild;
//! * **single-flight** — concurrent requests for the same uncached spec
//!   trigger exactly one build; the rest park on a condvar and reuse the
//!   winner's graph (`coalesced` in the [`ServeOutcome`]);
//! * **admission control** — at most
//!   [`ServerConfig::max_concurrent_builds`] cold builds run at once, so
//!   a stampede of distinct cold specs cannot oversubscribe the pool;
//!   excess builders queue (time spent queueing is reported as
//!   `admission_secs`);
//! * **LRU eviction** — ready entries are charged
//!   [`ClusterGraph::approx_heap_bytes`] against a byte budget and a
//!   slot count against an entry budget; exceeding either evicts the
//!   least-recently-used entries (the entry being served is never
//!   evicted).
//!
//! Served runs go through the same
//! [`run_coloring_on`](crate::session) path as [`Session::run`], so a
//! served [`RunOutcome`] is **bit-identical** (coloring and cost
//! report) to a standalone session with the same spec, seed and thread
//! count — the differential the traffic bench and the concurrency tests
//! pin.
//!
//! Two multi-request forms ride on the same machinery:
//!
//! * **batch runs** — [`SessionServer::run_batch`] serves a whole seed
//!   sweep as *one* request: one admission pass, one cache pin, per-seed
//!   outcomes (seeds after the first are cache hits by construction);
//! * **streaming mutations** — [`SessionServer::apply_deltas`] applies
//!   [`DeltaBatch`]es to a spec's instance and republishes it under a
//!   bumped **delta epoch**. Cache slots are keyed by
//!   `spec string + delta epoch`, the pre-delta slot is dropped the
//!   moment the mutation commits, and every request re-resolves the
//!   spec's current epoch — so a cache hit can never serve a stale
//!   pre-delta graph. Evicted mutated entries rebuild by replaying the
//!   recorded delta history over a fresh base build (deterministic, so
//!   the replay is byte-identical to the evicted graph). When the spec's
//!   latest run left a coloring at the mutated epoch, the mutation runs
//!   its dirty-cluster repair **wave-parallel** through a
//!   [`crate::ColorSchedule`] built from that coloring — byte-identical
//!   to the serial path, counted in [`ServerStats::scheduled_mutations`].
//!
//! ```
//! use cgc_core::{ServerConfig, SessionServer};
//!
//! let server = SessionServer::new(ServerConfig::default());
//! let a = server.run_str("gnp:n=80,p=0.08,seed=3", 7).unwrap();
//! let b = server.run_str("gnp:n=80,p=0.08,seed=3", 7).unwrap();
//! assert!(!a.cache_hit && b.cache_hit);
//! assert_eq!(a.outcome.run.coloring, b.outcome.run.coloring);
//! assert_eq!(server.stats().builds_started, 1);
//! ```

use crate::coloring::Coloring;
use crate::params::Params;
use crate::schedule::ColorSchedule;
use crate::session::{derive_params, run_coloring_on, ParamsProfile, RunOutcome};
use cgc_cluster::{available_threads, ClusterGraph, ParallelConfig, RepairStats};
use cgc_graphs::{PlantedInfo, SetupTimings, WorkloadParseError, WorkloadSpec};
use cgc_net::{DeltaBatch, NetError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a string-addressed write ([`SessionServer::apply_deltas_str`])
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaRequestError {
    /// The workload string did not parse.
    Parse(WorkloadParseError),
    /// The instance rejected the delta batch.
    Net(NetError),
}

impl std::fmt::Display for DeltaRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaRequestError::Parse(e) => e.fmt(f),
            DeltaRequestError::Net(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DeltaRequestError {}

/// Server knobs: cache budgets, admission bound, and the run
/// configuration every tenant shares.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Graph-cache entry budget (ready entries; at least 1 is kept).
    pub max_entries: usize,
    /// Graph-cache byte budget over
    /// [`ClusterGraph::approx_heap_bytes`] of the ready entries (the
    /// most recent entry is kept even when it alone exceeds the budget).
    pub max_bytes: usize,
    /// Cold builds allowed in flight at once (admission control; floor 1).
    pub max_concurrent_builds: usize,
    /// Executor configuration shared by builds and runs.
    pub parallel: ParallelConfig,
    /// [`Params`] preset derived per instance.
    pub profile: ParamsProfile,
    /// Bandwidth budget factor `β` (see [`crate::SessionBuilder::log_budget`]).
    pub beta: u64,
    /// Exact-oracle ACD instead of the fingerprint ACD.
    pub oracle_acd: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_entries: 64,
            max_bytes: usize::MAX,
            max_concurrent_builds: 2,
            parallel: ParallelConfig::from_env(),
            profile: ParamsProfile::Laptop,
            beta: 32,
            oracle_acd: false,
        }
    }
}

impl ServerConfig {
    /// Sets the cache entry budget.
    pub fn max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// Sets the cache byte budget.
    pub fn max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Sets the admission bound on concurrent cold builds.
    pub fn max_concurrent_builds(mut self, builds: usize) -> Self {
        self.max_concurrent_builds = builds;
        self
    }

    /// Overrides the executor configuration (default: honor `CGC_THREADS`).
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Selects the [`Params`] preset (default: laptop).
    pub fn profile(mut self, profile: ParamsProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Bandwidth budget factor `β` (default 32).
    pub fn log_budget(mut self, beta: u64) -> Self {
        self.beta = beta;
        self
    }

    /// Uses the exact-oracle ACD instead of the fingerprint ACD.
    pub fn oracle_acd(mut self, oracle: bool) -> Self {
        self.oracle_acd = oracle;
        self
    }
}

/// One served run: the standard [`RunOutcome`] plus how the cache
/// treated the request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The run itself — bit-identical to a standalone [`crate::Session`]
    /// with the same spec, seed and thread count.
    pub outcome: RunOutcome,
    /// The spec's graph was already cached when the request arrived.
    pub cache_hit: bool,
    /// The request arrived while another tenant was building the same
    /// spec and reused that build (single-flight).
    pub coalesced: bool,
    /// Wall-clock seconds the request queued behind admission control
    /// or an in-flight build before its graph was available.
    pub admission_secs: f64,
}

/// Counter snapshot from [`SessionServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Cold builds the server actually started (one per distinct spec
    /// unless evicted — the single-flight pin).
    pub builds_started: u64,
    /// Requests served from an already-ready cache entry.
    pub cache_hits: u64,
    /// Requests that built (or queued to build) a missing entry.
    pub cache_misses: u64,
    /// Requests that waited on another tenant's in-flight build.
    pub coalesced_waits: u64,
    /// Ready entries evicted to honor the budgets.
    pub evictions: u64,
    /// Ready entries currently cached.
    pub cached_entries: usize,
    /// Approximate heap bytes currently charged to the cache.
    pub cached_bytes: usize,
    /// [`SessionServer::apply_deltas`] calls that ran through the color
    /// schedule of the spec's latest served run (the wave-parallel
    /// mutation path). Mutations of a spec that was never run — no
    /// published coloring — stay serial and are not counted here.
    pub scheduled_mutations: u64,
    /// Non-empty repair waves dispatched by scheduled mutations, summed
    /// over their batches.
    pub repair_waves: u64,
}

/// A built instance plus everything derived from it, shared by every
/// request for the same spec.
struct CachedInstance {
    graph: ClusterGraph,
    #[allow(dead_code)] // parity with Session; planted checks come later
    planted: Option<PlantedInfo>,
    setup: SetupTimings,
    params: Params,
    bytes: usize,
}

enum Slot {
    /// A tenant is building this spec; waiters park on the condvar.
    Building,
    /// Built and servable; `last_used` orders LRU eviction.
    Ready {
        inst: Arc<CachedInstance>,
        last_used: u64,
    },
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<String, Slot>,
    /// Per-base-spec delta history; the spec's current epoch is the
    /// history length. Cold builds at epoch > 0 replay it over a fresh
    /// base build.
    deltas: HashMap<String, Arc<Vec<DeltaBatch>>>,
    /// The coloring of each spec's latest served run, stamped with the
    /// delta epoch it was computed at. A mutation arriving at the same
    /// epoch materializes it into a [`ColorSchedule`] and repairs
    /// wave-parallel; a mutation at any other epoch ignores it (the
    /// entry is stale) and the commit drops it.
    colorings: HashMap<String, (u64, Coloring)>,
    /// Monotone logical clock stamping `last_used`.
    clock: u64,
    ready_bytes: usize,
    ready_entries: usize,
    builds_in_flight: usize,
}

impl CacheState {
    /// The spec's current delta epoch (batches ever applied).
    fn epoch_of(&self, base: &str) -> u64 {
        self.deltas.get(base).map_or(0, |d| d.len() as u64)
    }
}

/// Cache-slot key for `base` at `epoch`: the bare spec string for the
/// pristine build, `spec#deltaN` afterwards — stale pre-delta entries
/// are unreachable by construction because requests always key by the
/// spec's *current* epoch.
fn slot_key(base: &str, epoch: u64) -> String {
    if epoch == 0 {
        base.to_owned()
    } else {
        format!("{base}#delta{epoch}")
    }
}

/// The multi-tenant session server. See the [module docs](self).
///
/// `&self` methods are fully thread-safe; share the server across
/// tenant threads behind an [`Arc`].
pub struct SessionServer {
    cfg: ServerConfig,
    state: Mutex<CacheState>,
    cond: Condvar,
    builds_started: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_waits: AtomicU64,
    evictions: AtomicU64,
    scheduled_mutations: AtomicU64,
    repair_waves: AtomicU64,
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionServer")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// How `acquire` obtained the instance.
struct Acquired {
    inst: Arc<CachedInstance>,
    /// Delta epoch of the served instance (the spec's current epoch at
    /// resolution time).
    epoch: u64,
    cache_hit: bool,
    coalesced: bool,
    admission_secs: f64,
}

impl SessionServer {
    /// A server with `cfg`; no graphs are built until the first request.
    pub fn new(cfg: ServerConfig) -> Self {
        SessionServer {
            cfg,
            state: Mutex::new(CacheState::default()),
            cond: Condvar::new(),
            builds_started: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            scheduled_mutations: AtomicU64::new(0),
            repair_waves: AtomicU64::new(0),
        }
    }

    /// The configuration the server was created with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Serves one run over an already-acquired instance. `treat_cached`
    /// zeroes the setup timings (the graph was not built for this run).
    fn serve_on(&self, acq: &Acquired, base: &str, seed: u64, treat_cached: bool) -> ServeOutcome {
        let (run, color_secs) = run_coloring_on(
            &acq.inst.graph,
            &acq.inst.params,
            self.cfg.beta,
            self.cfg.parallel,
            self.cfg.oracle_acd,
            seed,
        );
        if run.coloring.is_total() && run.coloring.len() == acq.inst.graph.n_vertices() {
            // Publish the coloring for this (spec, epoch): the next
            // mutation materializes it into a wave schedule.
            let mut state = self.state.lock().unwrap();
            state
                .colorings
                .insert(base.to_owned(), (acq.epoch, run.coloring.clone()));
        }
        let setup_or_zero = |secs: f64| if treat_cached { 0.0 } else { secs };
        ServeOutcome {
            outcome: RunOutcome {
                run,
                spec_string: base.to_owned(),
                seed,
                threads: self.cfg.parallel.threads(),
                detected_cores: available_threads(),
                build_secs: setup_or_zero(acq.inst.setup.total_secs),
                generate_secs: setup_or_zero(acq.inst.setup.generate_secs),
                canonicalize_secs: setup_or_zero(acq.inst.setup.canonicalize_secs),
                graph_build_secs: setup_or_zero(acq.inst.setup.build_secs),
                cache_hit: treat_cached,
                delta_epoch: acq.epoch,
                color_secs,
            },
            cache_hit: acq.cache_hit,
            coalesced: acq.coalesced,
            admission_secs: acq.admission_secs,
        }
    }

    /// Serves one run request. Parses nothing — see [`Self::run_str`]
    /// for the string form tenants usually hold.
    pub fn run(&self, spec: &WorkloadSpec, seed: u64) -> ServeOutcome {
        let base = spec.to_string();
        let acq = self.acquire(spec, &base);
        let cached = acq.cache_hit || acq.coalesced;
        self.serve_on(&acq, &base, seed, cached)
    }

    /// Serves one run request addressed by a compact workload string
    /// (`"gnp:n=120,p=0.05,seed=1"`).
    pub fn run_str(&self, spec: &str, seed: u64) -> Result<ServeOutcome, WorkloadParseError> {
        Ok(self.run(&spec.parse()?, seed))
    }

    /// Serves a whole seed sweep over one spec as a **single request**:
    /// the instance is resolved once (one admission pass, one
    /// hit/miss/coalesced tally, one cache pin), then every seed runs on
    /// the pinned graph. Outcomes come back in seed order; seeds after
    /// the first report `cache_hit` with zeroed setup timings (the graph
    /// was already resident for them by construction), and all share the
    /// batch's single admission wait. Each per-seed outcome is still
    /// bit-identical to a standalone [`crate::Session`] run.
    pub fn run_batch(&self, spec: &WorkloadSpec, seeds: &[u64]) -> Vec<ServeOutcome> {
        let base = spec.to_string();
        let Some((&first, rest)) = seeds.split_first() else {
            return Vec::new();
        };
        let acq = self.acquire(spec, &base);
        let cached = acq.cache_hit || acq.coalesced;
        let mut out = Vec::with_capacity(seeds.len());
        out.push(self.serve_on(&acq, &base, first, cached));
        for &seed in rest {
            out.push(self.serve_on(&acq, &base, seed, true));
        }
        out
    }

    /// [`Self::run_batch`] addressed by a compact workload string.
    pub fn run_batch_str(
        &self,
        spec: &str,
        seeds: &[u64],
    ) -> Result<Vec<ServeOutcome>, WorkloadParseError> {
        Ok(self.run_batch(&spec.parse()?, seeds))
    }

    /// Applies `batches` of edge deltas to `spec`'s instance and
    /// republishes it under the bumped delta epoch; returns the new
    /// epoch. The pre-delta cache entry is dropped in the same critical
    /// section that publishes the mutated one, so no request observes
    /// the stale graph afterwards. The recorded history makes evicted
    /// mutated entries rebuildable (cold builds replay it), and the
    /// mutation itself is atomic: a failing batch leaves the published
    /// instance, the history and the epoch untouched.
    ///
    /// Concurrent mutations of the same spec are safe (the commit
    /// revalidates the epoch it mutated and retries on interleaving).
    ///
    /// When the spec's latest served run left a coloring at the acquired
    /// epoch, the mutation materializes it into a [`ColorSchedule`] and
    /// repairs dirty clusters wave-parallel
    /// ([`ClusterGraph::apply_delta_scheduled`]); the published graph is
    /// byte-identical to the serial path, and [`Self::stats`] counts the
    /// scheduled calls and their repair waves.
    pub fn apply_deltas(
        &self,
        spec: &WorkloadSpec,
        batches: &[DeltaBatch],
    ) -> Result<u64, NetError> {
        let base = spec.to_string();
        loop {
            let acq = self.acquire(spec, &base);
            // The latest served run's coloring, if it matches the epoch
            // we acquired, schedules this mutation's repair waves. The
            // result is byte-identical to the serial path either way.
            let run_coloring = {
                let state = self.state.lock().unwrap();
                state.colorings.get(&base).and_then(|(epoch, coloring)| {
                    (*epoch == acq.epoch && coloring.len() == acq.inst.graph.n_vertices())
                        .then(|| coloring.clone())
                })
            };
            let schedule =
                run_coloring.map(|c| ColorSchedule::build(&acq.inst.graph, &c, &self.cfg.parallel));
            let mut graph = acq.inst.graph.clone();
            let mut repair = RepairStats::default();
            for batch in batches {
                let (_, stats) = graph.apply_delta_scheduled(
                    batch,
                    &self.cfg.parallel,
                    schedule.as_ref().map(|s| s.waves()),
                )?;
                repair.absorb(stats);
            }
            let params = derive_params(self.cfg.profile, graph.n_vertices(), None, None);
            let bytes = graph.approx_heap_bytes();
            let inst = Arc::new(CachedInstance {
                graph,
                planted: acq.inst.planted.clone(),
                setup: acq.inst.setup,
                params,
                bytes,
            });
            let mut state = self.state.lock().unwrap();
            if state.epoch_of(&base) != acq.epoch {
                // Another tenant mutated the spec between our acquire and
                // commit; redo the work against the newer instance.
                continue;
            }
            let history = Arc::make_mut(state.deltas.entry(base.clone()).or_default());
            history.extend(batches.iter().cloned());
            let new_epoch = history.len() as u64;
            // The pre-delta coloring no longer describes the published
            // graph; the next run republishes one at the new epoch.
            state.colorings.remove(&base);
            if schedule.is_some() {
                self.scheduled_mutations.fetch_add(1, Ordering::Relaxed);
                self.repair_waves
                    .fetch_add(repair.waves as u64, Ordering::Relaxed);
            }
            // Drop the stale pre-delta entry (coherence) and publish the
            // mutated one in the same critical section.
            let old_key = slot_key(&base, acq.epoch);
            if matches!(state.slots.get(&old_key), Some(Slot::Ready { .. })) {
                if let Some(Slot::Ready { inst: old, .. }) = state.slots.remove(&old_key) {
                    state.ready_bytes -= old.bytes;
                    state.ready_entries -= 1;
                }
            }
            let new_key = slot_key(&base, new_epoch);
            state.clock += 1;
            let stamp = state.clock;
            state.ready_bytes += inst.bytes;
            state.ready_entries += 1;
            state.slots.insert(
                new_key.clone(),
                Slot::Ready {
                    inst,
                    last_used: stamp,
                },
            );
            self.evict_over_budget(&mut state, &new_key);
            drop(state);
            self.cond.notify_all();
            return Ok(new_epoch);
        }
    }

    /// [`Self::apply_deltas`] addressed by a compact workload string.
    ///
    /// # Errors
    ///
    /// [`DeltaRequestError::Parse`] when `spec` does not parse (nothing is
    /// applied), [`DeltaRequestError::Net`] when the batch is rejected as
    /// by [`Self::apply_deltas`].
    pub fn apply_deltas_str(
        &self,
        spec: &str,
        batches: &[DeltaBatch],
    ) -> Result<u64, DeltaRequestError> {
        let spec: WorkloadSpec = spec.parse().map_err(DeltaRequestError::Parse)?;
        self.apply_deltas(&spec, batches)
            .map_err(DeltaRequestError::Net)
    }

    /// Obtains the built instance currently published for `base` —
    /// resolving the spec's **current delta epoch** on every pass, so a
    /// mutation that lands while this request waits is picked up, never
    /// raced past — building it single-flight under admission control
    /// when missing.
    fn acquire(&self, spec: &WorkloadSpec, base: &str) -> Acquired {
        let arrived = Instant::now();
        let mut waited_on_build = false;
        let mut state = self.state.lock().unwrap();
        loop {
            let epoch = state.epoch_of(base);
            let key = slot_key(base, epoch);
            state.clock += 1;
            let stamp = state.clock;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready { inst, last_used }) => {
                    *last_used = stamp;
                    let inst = Arc::clone(inst);
                    if waited_on_build {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                        self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Acquired {
                        inst,
                        epoch,
                        cache_hit: !waited_on_build,
                        coalesced: waited_on_build,
                        admission_secs: arrived.elapsed().as_secs_f64(),
                    };
                }
                Some(Slot::Building) => {
                    // Single-flight: another tenant owns this build.
                    waited_on_build = true;
                    state = self.cond.wait(state).unwrap();
                }
                None => {
                    if state.builds_in_flight >= self.cfg.max_concurrent_builds.max(1) {
                        // Admission control: the build lanes are full.
                        state = self.cond.wait(state).unwrap();
                        continue;
                    }
                    state.slots.insert(key.clone(), Slot::Building);
                    state.builds_in_flight += 1;
                    let replay = state.deltas.get(base).cloned();
                    drop(state);
                    let admission_secs = arrived.elapsed().as_secs_f64();
                    let inst = self.build_instance(spec, &key, replay);
                    self.cache_misses.fetch_add(1, Ordering::Relaxed);
                    return Acquired {
                        inst,
                        epoch,
                        cache_hit: false,
                        coalesced: false,
                        admission_secs,
                    };
                }
            }
        }
    }

    /// Runs the cold build for `key` (the `Building` slot is already
    /// installed and an admission lane held), publishes the result and
    /// wakes every waiter. At epoch > 0 the recorded delta history is
    /// replayed over the fresh base build — both are deterministic, so
    /// the result is byte-identical to the evicted mutated graph. A
    /// panicking build releases the slot and the lane before
    /// propagating, so waiters retry instead of hanging.
    fn build_instance(
        &self,
        spec: &WorkloadSpec,
        key: &str,
        replay: Option<Arc<Vec<DeltaBatch>>>,
    ) -> Arc<CachedInstance> {
        self.builds_started.fetch_add(1, Ordering::Relaxed);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut graph, planted, setup) = spec.build_timed(&self.cfg.parallel);
            if let Some(batches) = &replay {
                for batch in batches.iter() {
                    graph
                        .apply_delta_with(batch, &self.cfg.parallel)
                        .expect("recorded delta history replays over the base build");
                }
            }
            let params = derive_params(self.cfg.profile, graph.n_vertices(), None, None);
            let bytes = graph.approx_heap_bytes();
            Arc::new(CachedInstance {
                graph,
                planted,
                setup,
                params,
                bytes,
            })
        }));
        let mut state = self.state.lock().unwrap();
        state.builds_in_flight -= 1;
        match built {
            Ok(inst) => {
                state.clock += 1;
                let stamp = state.clock;
                state.ready_bytes += inst.bytes;
                state.ready_entries += 1;
                state.slots.insert(
                    key.to_owned(),
                    Slot::Ready {
                        inst: Arc::clone(&inst),
                        last_used: stamp,
                    },
                );
                self.evict_over_budget(&mut state, key);
                drop(state);
                self.cond.notify_all();
                inst
            }
            Err(panic) => {
                state.slots.remove(key);
                drop(state);
                self.cond.notify_all();
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Evicts least-recently-used ready entries until both budgets hold,
    /// never touching `protect` (the entry being served) and always
    /// keeping at least one entry.
    fn evict_over_budget(&self, state: &mut CacheState, protect: &str) {
        while state.ready_entries > 1
            && (state.ready_entries > self.cfg.max_entries.max(1)
                || state.ready_bytes > self.cfg.max_bytes)
        {
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if k != protect => Some((*last_used, k)),
                    _ => None,
                })
                .min()
                .map(|(_, k)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { inst, .. }) = state.slots.remove(&victim) {
                state.ready_bytes -= inst.bytes;
                state.ready_entries -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot: builds, hit/miss/coalesced tallies, evictions,
    /// and the current cache occupancy.
    pub fn stats(&self) -> ServerStats {
        let state = self.state.lock().unwrap();
        ServerStats {
            builds_started: self.builds_started.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached_entries: state.ready_entries,
            cached_bytes: state.ready_bytes,
            scheduled_mutations: self.scheduled_mutations.load(Ordering::Relaxed),
            repair_waves: self.repair_waves.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;

    fn cfg() -> ServerConfig {
        ServerConfig::default().parallel(ParallelConfig::serial())
    }

    #[test]
    fn second_request_for_a_spec_hits_the_cache() {
        let server = SessionServer::new(cfg());
        let spec = "gnp:n=90,p=0.07,seed=2";
        let a = server.run_str(spec, 5).unwrap();
        assert!(!a.cache_hit && !a.coalesced && !a.outcome.cache_hit);
        assert!(a.outcome.build_secs > 0.0);
        let b = server.run_str(spec, 6).unwrap();
        assert!(b.cache_hit && b.outcome.cache_hit);
        assert_eq!(b.outcome.build_secs, 0.0);
        let s = server.stats();
        assert_eq!(s.builds_started, 1, "the hit path must not rebuild");
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.cached_entries, 1);
        assert!(s.cached_bytes > 0);
    }

    #[test]
    fn served_run_is_bit_identical_to_a_standalone_session() {
        let spec = "cabal:c=2,k=14,anti=2,ext=3,seed=5";
        let server = SessionServer::new(cfg());
        let served = server.run_str(spec, 11).unwrap();
        let mut standalone = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        let direct = standalone.run(11);
        assert_eq!(served.outcome.run.coloring, direct.run.coloring);
        assert_eq!(served.outcome.run.report, direct.run.report);
    }

    #[test]
    fn lru_eviction_honors_the_entry_budget() {
        let server = SessionServer::new(cfg().max_entries(2));
        let specs = [
            "gnp:n=60,p=0.1,seed=1",
            "gnp:n=60,p=0.1,seed=2",
            "gnp:n=60,p=0.1,seed=3",
        ];
        server.run_str(specs[0], 1).unwrap();
        server.run_str(specs[1], 1).unwrap();
        // Touch spec 0 so spec 1 is the LRU victim when spec 2 arrives.
        assert!(server.run_str(specs[0], 2).unwrap().cache_hit);
        server.run_str(specs[2], 1).unwrap();
        let s = server.stats();
        assert_eq!((s.cached_entries, s.evictions), (2, 1));
        assert!(server.run_str(specs[0], 3).unwrap().cache_hit);
        assert!(
            !server.run_str(specs[1], 3).unwrap().cache_hit,
            "the LRU entry was evicted and must rebuild"
        );
        assert_eq!(server.stats().builds_started, 4);
    }

    /// A small insert+delete batch over a server-built instance of
    /// `spec` (computed from a standalone build of the same spec).
    fn churn_batch(spec: &str) -> cgc_net::DeltaBatch {
        let session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        let g = session.graph();
        let n = g.comm().n_machines();
        let deletes: Vec<_> = g
            .comm()
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| g.cluster_of(a) != g.cluster_of(b))
            .step_by(4)
            .collect();
        let inserts: Vec<_> = (0..15usize)
            .map(|i| (i, i + 21))
            .filter(|&(a, b)| b < n && !g.comm().has_link(a, b))
            .collect();
        cgc_net::DeltaBatch::new(n, &inserts, &deletes).unwrap()
    }

    #[test]
    fn malformed_delta_spec_is_an_error_not_a_panic() {
        let spec = "gnp:n=60,p=0.1,seed=2";
        let server = SessionServer::new(cfg());
        let batch = churn_batch(spec);
        let err = server
            .apply_deltas_str("gnp:n=sixty", std::slice::from_ref(&batch))
            .unwrap_err();
        assert!(matches!(err, DeltaRequestError::Parse(_)), "{err:?}");
        // The same server keeps answering.
        let out = server.run_str(spec, 1).unwrap();
        assert!(out.outcome.run.coloring.is_total());
        assert_eq!(out.outcome.delta_epoch, 0);
    }

    #[test]
    fn out_of_range_specs_are_errors_not_panics() {
        let bad = [
            "gnp:n=10,p=2,seed=1",
            "gnp:n=10,p=-0.1,seed=1",
            "gnp:n=10,p=NaN,seed=1",
            "square:n=10,p=1.5,seed=1",
            "powerlaw:n=0,beta=2.5,avg=4,seed=1",
            "powerlaw:n=100,beta=1.5,avg=4,seed=1",
            "powerlaw:n=100,beta=2,avg=4,seed=1",
            "powerlaw:n=100,beta=NaN,avg=4,seed=1",
            "powerlaw:n=100,beta=2.5,avg=0,seed=1",
            "rgg:n=0,r=0.1,seed=1",
            "rgg:n=100,r=3,seed=1",
            "rgg:n=100,r=0,seed=1",
            "mixture:c=2,k=10,anti=1.5,ext=1,bg=10,bgp=0.1,seed=1",
            "mixture:c=2,k=10,anti=0.1,ext=1,bg=10,bgp=-1,seed=1",
            "cabal:c=2,k=10,anti=6,ext=1,seed=1",
            "bottleneck:clusters=0,path=3,seed=0",
            "bottleneck:clusters=4,path=1,seed=0",
            "contraction:side=0,lo=1,hi=2,seed=1",
            "contraction:side=8,lo=0,hi=2,seed=1",
            "contraction:side=8,lo=3,hi=2,seed=1",
        ];
        for spec in bad {
            assert!(spec.parse::<WorkloadSpec>().is_err(), "{spec}");
        }
        // The boundary values the generators accept still parse and build.
        for spec in [
            "gnp:n=10,p=0,seed=1",
            "gnp:n=10,p=1,seed=1",
            "rgg:n=10,r=1,seed=1",
            "cabal:c=2,k=10,anti=5,ext=1,seed=1",
            "contraction:side=4,lo=1,hi=1,seed=1",
        ] {
            let parsed: WorkloadSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            parsed.build();
        }
        // A server refuses the request and keeps answering.
        let server = SessionServer::new(cfg());
        assert!(server.run_str(bad[0], 0).is_err());
        let out = server.run_str("gnp:n=60,p=0.1,seed=2", 1).unwrap();
        assert!(out.outcome.run.coloring.is_total());
    }

    /// The coherence regression this PR pins: a cache hit after
    /// `apply_deltas` must serve the *mutated* instance — bit-identical
    /// to a standalone session that applied the same deltas — never the
    /// stale pre-delta graph.
    #[test]
    fn cache_hit_after_apply_deltas_reflects_the_mutation() {
        let spec = "gnp:n=100,p=0.06,seed=4";
        let server = SessionServer::new(cfg());
        let before = server.run_str(spec, 9).unwrap();
        assert_eq!(before.outcome.delta_epoch, 0);
        let batch = churn_batch(spec);
        let epoch = server
            .apply_deltas_str(spec, std::slice::from_ref(&batch))
            .unwrap();
        assert_eq!(epoch, 1);
        let after = server.run_str(spec, 9).unwrap();
        assert!(
            after.cache_hit,
            "the mutated instance is published ready — a hit, not a rebuild"
        );
        assert_eq!(after.outcome.delta_epoch, 1);
        // Ground truth: a standalone session that applied the same batch.
        let mut session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        session.apply_deltas(std::slice::from_ref(&batch)).unwrap();
        let direct = session.run(9);
        assert_eq!(after.outcome.run.coloring, direct.run.coloring);
        assert_eq!(after.outcome.run.report, direct.run.report);
        assert_eq!(server.stats().builds_started, 1, "mutation never rebuilds");
    }

    /// A mutation after a served run rides the run's coloring as a wave
    /// schedule; a mutation of a never-run spec has no coloring and
    /// stays serial. Both publish byte-identical graphs.
    #[test]
    fn mutation_after_a_run_takes_the_scheduled_path() {
        let spec = "gnp:n=100,p=0.06,seed=4";
        let batch = churn_batch(spec);
        // An insert-only follow-up batch that applies on top of `batch`.
        let batch2 = {
            let session = SessionBuilder::parse(spec)
                .unwrap()
                .parallel(ParallelConfig::serial())
                .build();
            let g = session.graph();
            let n = g.comm().n_machines();
            let inserts: Vec<_> = (0..12usize)
                .map(|i| (i, i + 23))
                .filter(|&(a, b)| b < n && !g.comm().has_link(a, b))
                .collect();
            cgc_net::DeltaBatch::new(n, &inserts, &[]).unwrap()
        };
        let warm = SessionServer::new(cfg());
        warm.run_str(spec, 9).unwrap();
        warm.apply_deltas_str(spec, std::slice::from_ref(&batch))
            .unwrap();
        assert_eq!(
            warm.stats().scheduled_mutations,
            1,
            "the run's coloring schedules the mutation"
        );
        // The consumed coloring is dropped at commit: a second mutation
        // without an intervening run is serial again.
        warm.apply_deltas_str(spec, std::slice::from_ref(&batch2))
            .unwrap();
        assert_eq!(warm.stats().scheduled_mutations, 1);
        // A cold server never ran the spec: no coloring, no schedule.
        let cold = SessionServer::new(cfg());
        cold.apply_deltas_str(spec, std::slice::from_ref(&batch))
            .unwrap();
        cold.apply_deltas_str(spec, std::slice::from_ref(&batch2))
            .unwrap();
        assert_eq!(cold.stats().scheduled_mutations, 0);
        // Scheduled and serial mutations publish the same graph: runs
        // over the two servers are bit-identical.
        let a = warm.run_str(spec, 3).unwrap();
        let b = cold.run_str(spec, 3).unwrap();
        assert_eq!(a.outcome.run.coloring, b.outcome.run.coloring);
        assert_eq!(a.outcome.run.report, b.outcome.run.report);
    }

    #[test]
    fn evicted_mutated_entry_rebuilds_by_replaying_the_delta_history() {
        let spec = "gnp:n=90,p=0.07,seed=6";
        let server = SessionServer::new(cfg().max_entries(1));
        server.run_str(spec, 2).unwrap();
        let batch = churn_batch(spec);
        server
            .apply_deltas_str(spec, std::slice::from_ref(&batch))
            .unwrap();
        // Push the mutated entry out of the 1-slot cache...
        server.run_str("gnp:n=60,p=0.1,seed=1", 1).unwrap();
        // ...then come back: a cold build that must replay the history.
        let again = server.run_str(spec, 2).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(again.outcome.delta_epoch, 1);
        let mut session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        session.apply_deltas(std::slice::from_ref(&batch)).unwrap();
        let direct = session.run(2);
        assert_eq!(again.outcome.run.coloring, direct.run.coloring);
        assert_eq!(again.outcome.run.report, direct.run.report);
    }

    #[test]
    fn run_batch_serves_a_seed_sweep_as_one_request() {
        let spec = "gnp:n=90,p=0.07,seed=2";
        let server = SessionServer::new(cfg());
        let seeds = [1u64, 2, 3];
        let outs = server.run_batch_str(spec, &seeds).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(!outs[0].cache_hit && !outs[0].outcome.cache_hit);
        assert!(outs[0].outcome.build_secs > 0.0);
        for o in &outs[1..] {
            assert!(o.outcome.cache_hit, "later seeds reuse the pinned graph");
            assert_eq!(o.outcome.build_secs, 0.0);
        }
        let s = server.stats();
        assert_eq!(s.builds_started, 1);
        assert_eq!(
            (s.cache_hits, s.cache_misses),
            (0, 1),
            "one admission tally for the whole sweep"
        );
        // Per-seed outcomes stay bit-identical to standalone sessions.
        let mut standalone = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        for (out, &seed) in outs.iter().zip(seeds.iter()) {
            let direct = standalone.run(seed);
            assert_eq!(out.outcome.run.coloring, direct.run.coloring);
            assert_eq!(out.outcome.run.report, direct.run.report);
        }
        assert!(server.run_batch_str(spec, &[]).unwrap().is_empty());
    }

    #[test]
    fn byte_budget_keeps_only_what_fits_but_never_empties() {
        // A 1-byte budget cannot hold any graph, yet the most recent
        // entry must survive so the server keeps making progress.
        let server = SessionServer::new(cfg().max_bytes(1));
        server.run_str("gnp:n=50,p=0.1,seed=1", 1).unwrap();
        server.run_str("gnp:n=50,p=0.1,seed=2", 1).unwrap();
        let s = server.stats();
        assert_eq!(
            s.cached_entries, 1,
            "over-budget entries evict to the floor"
        );
        assert_eq!(s.evictions, 1);
    }
}
