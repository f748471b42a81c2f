//! Sub-logarithmic (Δ+1)-coloring of cluster graphs — the primary
//! contribution of "Decentralized Distributed Graph Coloring: Cluster
//! Graphs" (Flin–Halldórsson–Nolin, PODC 2025).
//!
//! The crate implements the full coloring pipeline of the paper:
//!
//! * [`slackgen`] — slack generation (Proposition 4.5, Algorithm 18);
//! * [`trycolor`] — random color trials (Algorithm 17, Lemma D.3);
//! * [`mct`] — MultiColorTrial with pseudorandom color sets
//!   (Lemma D.1, Algorithm 16);
//! * [`palette_query`] — the clique palette as a distributed data
//!   structure (Lemma 4.8);
//! * [`sct`] — the synchronized color trial (Lemma 4.13);
//! * [`matching`] — colorful matchings: the sampling regime (Lemma 4.9)
//!   and the fingerprint regime in densest cabals (§6, Algorithms 6–7);
//! * [`putaside`] — put-aside sets (Lemma 4.18) and their recoloring by
//!   color donation (§7, Algorithms 8–10);
//! * [`complete`] — finishing non-cabals with reserved colors (§8,
//!   Algorithm 11);
//! * [`noncabal`] / [`cabals`] — the per-regime drivers (Algorithms 4–5);
//! * [`lowdeg`] — the low-degree algorithm (§9: shattering, palette
//!   learning, small-instance list coloring);
//! * [`driver`] — the top-level algorithm (Algorithms 2–3, Theorems
//!   1.1–1.2) with validation and honest fallback accounting;
//! * [`session`] — the unified run API: [`Session`]/[`SessionBuilder`]
//!   own a [`cgc_graphs::WorkloadSpec`]-addressed instance, cache its
//!   build across runs, and bundle each run into a [`RunOutcome`] with
//!   timings and thread context. Preferred over calling the driver
//!   directly;
//! * [`serve`] — the multi-tenant session server:
//!   [`SessionServer`](serve::SessionServer) multiplexes concurrent run
//!   requests over the shared worker pool with a content-addressed graph
//!   cache (LRU byte/entry budget), single-flight builds and admission
//!   control on cold builds. Served runs are bit-identical to standalone
//!   [`Session`] runs; `run_batch` serves a whole seed sweep as one
//!   request, and the cache is keyed by spec **plus delta epoch** so a
//!   pre-mutation graph can never be served stale;
//! * [`mutate`] — streaming mutations: [`Session::apply_deltas`] applies
//!   [`cgc_net::DeltaBatch`]es through the incremental
//!   `CommGraph`/`ClusterGraph` maintenance and recolors only the dirty
//!   region, seeded from the previous coloring, returning a
//!   [`MutationOutcome`] with a proper Δ'+1 total coloring and the
//!   metered incremental cost.
//!
//! # Quickstart
//!
//! ```
//! use cgc_core::{color_cluster_graph, Params};
//! use cgc_cluster::{ClusterGraph, ClusterNet};
//! use cgc_net::CommGraph;
//!
//! let g = ClusterGraph::singletons(CommGraph::complete(16));
//! let mut net = ClusterNet::with_log_budget(&g, 32);
//! let params = Params::laptop(g.n_vertices());
//! let run = color_cluster_graph(&mut net, &params, 42);
//! assert!(run.coloring.is_proper(&g));
//! ```

pub mod cabals;
pub mod coloring;
pub mod complete;
pub mod driver;
pub mod lowdeg;
pub mod matching;
pub mod mct;
pub mod mutate;
pub mod noncabal;
pub mod palette_query;
pub mod params;
pub mod putaside;
pub mod rounds;
pub mod schedule;
pub mod sct;
pub mod serve;
pub mod session;
pub mod slackgen;
pub mod trycolor;
pub mod validate;

pub use coloring::{Color, Coloring};
pub use driver::{
    color_cluster_graph, color_cluster_graph_with, AlgoPath, DriverOptions, RunResult, RunStats,
};
pub use mutate::MutationOutcome;
pub use palette_query::CliquePalette;
pub use params::{Ablation, Params};
pub use schedule::ColorSchedule;
pub use serve::{DeltaRequestError, ServeOutcome, ServerConfig, ServerStats, SessionServer};
pub use session::{PaletteQueryOutcome, ParamsProfile, RunOutcome, Session, SessionBuilder};
pub use validate::{coloring_stats, ColoringStats};
