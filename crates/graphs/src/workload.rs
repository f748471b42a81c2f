//! Addressable workload specifications: every generator family behind one
//! typed value with a canonical compact string form.
//!
//! A [`WorkloadSpec`] names a complete, reproducible instance: the
//! generator family and its parameters ([`WorkloadFamily`]), the cluster
//! [`Layout`] it is realized over, the link multiplicity, and the seed
//! that drives both the generator and the realization. `Display` and
//! `FromStr` round-trip exactly (`spec.to_string().parse() == spec`), so a
//! workload is CLI-, env- and JSON-addressable — the string printed in an
//! experiment table is everything needed to rebuild the instance:
//!
//! ```
//! use cgc_graphs::WorkloadSpec;
//!
//! let spec: WorkloadSpec = "powerlaw:n=5000,beta=2.5,avg=8,seed=7".parse().unwrap();
//! assert_eq!(spec.to_string(), "powerlaw:n=5000,beta=2.5,avg=8,seed=7");
//! let g = spec.build();
//! assert_eq!(g.n_vertices(), 5000);
//! ```
//!
//! The grammar is `family:key=value,...` with families `gnp`, `powerlaw`,
//! `rgg`, `planted`, `mixture`, `cabal`, `bottleneck`, `square` and
//! `contraction`, plus the optional cross-family keys `layout` (`single`,
//! `path8`, `star4`, `tree15` — omitted when `single`) and `links`
//! (omitted when `1`). `seed` is always printed: a run is reproducible
//! from its table row.
//!
//! Every family builds through one streaming pipeline (see
//! [`crate::pipeline`]): generate per-shard edge runs → canonicalize →
//! [`cgc_net::CommGraph::from_edge_runs_with`] →
//! [`ClusterGraph::build_with`], all sharded over the caller's
//! [`ParallelConfig`] with thread-count-independent output.
//! [`WorkloadSpec::build_timed`] reports the per-phase wall clock as
//! [`SetupTimings`].

use crate::adversarial::bottleneck_runs;
use crate::contraction::contraction_runs;
use crate::gnp::gnp_runs;
use crate::layouts::{realize_runs, HSpec, Layout};
use crate::pipeline::ShardedEdgeSource;
use crate::planted::{cabal_runs, mixture_runs, planted_cliques_runs, MixtureConfig, PlantedInfo};
use crate::power::square_runs;
use crate::powerlaw::{power_law_runs, PowerLawConfig};
use crate::rgg::geometric_runs;
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_net::CommGraph;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// The generator family and its parameters — one variant per workload
/// family the experiments exercise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadFamily {
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Vertices.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Chung–Lu power-law with exponent `beta` and target average degree.
    PowerLaw {
        /// Vertices.
        n: usize,
        /// Degree exponent `β > 2`.
        beta: f64,
        /// Target average degree.
        avg: f64,
    },
    /// Random geometric graph on the unit square with hard radius `r`.
    Rgg {
        /// Vertices.
        n: usize,
        /// Connection radius in `(0, 1]`.
        r: f64,
    },
    /// `c` disjoint perfect `k`-cliques under a seeded label permutation.
    Planted {
        /// Blocks.
        c: usize,
        /// Members per block.
        k: usize,
    },
    /// Reed-style mixture: dense blocks with anti/external edges plus a
    /// sparse background (see [`MixtureConfig`]).
    Mixture {
        /// Dense blocks.
        c: usize,
        /// Members per block.
        k: usize,
        /// Intra-block edge drop probability.
        anti: f64,
        /// External edges per dense vertex (cap).
        ext: usize,
        /// Background vertex count.
        bg: usize,
        /// Background edge probability.
        bgp: f64,
    },
    /// Cabal-heavy instance: blocks with a planted anti-matching and few
    /// external edges.
    Cabal {
        /// Blocks.
        c: usize,
        /// Members per block.
        k: usize,
        /// Disjoint anti-edge pairs per block.
        anti: usize,
        /// Total inter-block edges.
        ext: usize,
    },
    /// The Figure 2/3 adversarial bottleneck-link instance (complete
    /// conflict graph over path clusters; fixes its own layout).
    Bottleneck {
        /// Clusters (conflict-graph vertices).
        clusters: usize,
        /// Machines per path cluster (`≥ 2`).
        path: usize,
    },
    /// The square `G²` of a `G(n, p)` base graph (distance-2 coloring).
    Square {
        /// Base-graph vertices.
        n: usize,
        /// Base-graph edge probability.
        p: f64,
    },
    /// A `side × side` grid network contracted along seeded connected
    /// blobs of `lo..=hi` machines (the §1.1 flow scenario; fixes its own
    /// layout).
    Contraction {
        /// Grid side length (`side²` machines).
        side: usize,
        /// Minimum blob size (`≥ 1`).
        lo: usize,
        /// Maximum blob size (`≥ lo`).
        hi: usize,
    },
}

impl WorkloadFamily {
    /// Canonical family tag (the part before `:` in the string form).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadFamily::Gnp { .. } => "gnp",
            WorkloadFamily::PowerLaw { .. } => "powerlaw",
            WorkloadFamily::Rgg { .. } => "rgg",
            WorkloadFamily::Planted { .. } => "planted",
            WorkloadFamily::Mixture { .. } => "mixture",
            WorkloadFamily::Cabal { .. } => "cabal",
            WorkloadFamily::Bottleneck { .. } => "bottleneck",
            WorkloadFamily::Square { .. } => "square",
            WorkloadFamily::Contraction { .. } => "contraction",
        }
    }

    /// Rejects the parameter values the family's generator asserts
    /// against, so a parsed spec always builds instead of panicking.
    fn check_realizable(&self) -> Result<(), WorkloadParseError> {
        let unit = |p: f64| (0.0..=1.0).contains(&p); // false for NaN
        let problem = match *self {
            WorkloadFamily::Gnp { p, .. } | WorkloadFamily::Square { p, .. } if !unit(p) => {
                "p must be in [0, 1]"
            }
            WorkloadFamily::PowerLaw { n: 0, .. } | WorkloadFamily::Rgg { n: 0, .. } => {
                "n must be ≥ 1"
            }
            WorkloadFamily::PowerLaw { beta, .. } if beta <= 2.0 || beta.is_nan() => {
                "beta must be > 2"
            }
            WorkloadFamily::PowerLaw { avg, .. } if avg <= 0.0 || avg.is_nan() => "avg must be > 0",
            WorkloadFamily::Rgg { r, .. } if !(r > 0.0 && r <= 1.0) => "r must be in (0, 1]",
            WorkloadFamily::Mixture { anti, bgp, .. } if !unit(anti) || !unit(bgp) => {
                "anti and bgp must be in [0, 1]"
            }
            WorkloadFamily::Cabal { k, anti, .. } if anti > k / 2 => "2·anti must be ≤ k",
            WorkloadFamily::Bottleneck { clusters, path } if clusters == 0 || path < 2 => {
                "bottleneck needs clusters ≥ 1 and path ≥ 2"
            }
            WorkloadFamily::Contraction { side, lo, hi } if side == 0 || lo == 0 || lo > hi => {
                "contraction needs side ≥ 1 and 1 ≤ lo ≤ hi"
            }
            _ => return Ok(()),
        };
        Err(WorkloadParseError(format!("{}: {problem}", self.name())))
    }

    /// Whether this family constructs its [`ClusterGraph`] directly —
    /// the contraction *is* the layout — so `layout`/`links` keys do not
    /// apply (`bottleneck`, `contraction`).
    pub fn fixes_layout(&self) -> bool {
        matches!(
            self,
            WorkloadFamily::Bottleneck { .. } | WorkloadFamily::Contraction { .. }
        )
    }
}

/// A complete instance address: family + layout + link multiplicity +
/// seed. See the [module docs](self) for the string grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Generator family and parameters.
    pub family: WorkloadFamily,
    /// Cluster topology the conflict graph is realized over (ignored — and
    /// required to be [`Layout::Singleton`] — for `bottleneck` and
    /// `contraction`, which fix their own layouts).
    pub layout: Layout,
    /// `G`-links per `H`-edge (Figure 1 multiplicity).
    pub links: usize,
    /// Seed driving generator *and* realization: the single source of
    /// workload randomness.
    pub seed: u64,
}

/// Error from parsing a workload spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadParseError(pub(crate) String);

impl fmt::Display for WorkloadParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload spec: {}", self.0)
    }
}

impl std::error::Error for WorkloadParseError {}

impl WorkloadSpec {
    /// Spec with the given family, singleton layout, single links.
    pub fn new(family: WorkloadFamily, seed: u64) -> Self {
        WorkloadSpec {
            family,
            layout: Layout::Singleton,
            links: 1,
            seed,
        }
    }

    /// `G(n, p)` spec.
    pub fn gnp(n: usize, p: f64, seed: u64) -> Self {
        Self::new(WorkloadFamily::Gnp { n, p }, seed)
    }

    /// Chung–Lu power-law spec.
    pub fn power_law(n: usize, beta: f64, avg: f64, seed: u64) -> Self {
        Self::new(WorkloadFamily::PowerLaw { n, beta, avg }, seed)
    }

    /// Random geometric spec.
    pub fn rgg(n: usize, r: f64, seed: u64) -> Self {
        Self::new(WorkloadFamily::Rgg { n, r }, seed)
    }

    /// Planted perfect cliques spec.
    pub fn planted_cliques(c: usize, k: usize, seed: u64) -> Self {
        Self::new(WorkloadFamily::Planted { c, k }, seed)
    }

    /// Reed-style mixture spec from a [`MixtureConfig`].
    pub fn mixture(cfg: &MixtureConfig, seed: u64) -> Self {
        Self::new(
            WorkloadFamily::Mixture {
                c: cfg.n_cliques,
                k: cfg.clique_size,
                anti: cfg.anti_edge_prob,
                ext: cfg.external_per_vertex,
                bg: cfg.sparse_n,
                bgp: cfg.sparse_p,
            },
            seed,
        )
    }

    /// Cabal-heavy spec.
    pub fn cabal(c: usize, k: usize, anti_pairs: usize, ext_edges: usize, seed: u64) -> Self {
        Self::new(
            WorkloadFamily::Cabal {
                c,
                k,
                anti: anti_pairs,
                ext: ext_edges,
            },
            seed,
        )
    }

    /// Adversarial bottleneck spec (seed kept for string uniformity; the
    /// instance is deterministic).
    pub fn bottleneck(clusters: usize, path_len: usize) -> Self {
        Self::new(
            WorkloadFamily::Bottleneck {
                clusters,
                path: path_len,
            },
            0,
        )
    }

    /// Square-of-`G(n, p)` spec.
    pub fn square_gnp(n: usize, p: f64, seed: u64) -> Self {
        Self::new(WorkloadFamily::Square { n, p }, seed)
    }

    /// Contracted-grid spec (the §1.1 flow scenario): a `side × side`
    /// grid contracted along seeded blobs of `lo..=hi` machines.
    pub fn contraction(side: usize, lo: usize, hi: usize, seed: u64) -> Self {
        Self::new(WorkloadFamily::Contraction { side, lo, hi }, seed)
    }

    /// Replaces the layout (builder style).
    ///
    /// # Panics
    ///
    /// Panics for `bottleneck`/`contraction` specs, which fix their own
    /// layouts.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        assert!(
            !self.family.fixes_layout(),
            "{} fixes its own layout",
            self.family.name()
        );
        self.layout = layout;
        self
    }

    /// Replaces the link multiplicity (builder style).
    pub fn with_links(mut self, links: usize) -> Self {
        assert!(links > 0, "need at least one link per edge");
        self.links = links;
        self
    }

    /// Replaces the seed (builder style) — sweeping instance seeds over a
    /// fixed shape is `spec.with_seed(s)`.
    ///
    /// # Panics
    ///
    /// Panics for `bottleneck` specs: the instance is deterministic, and
    /// keeping its seed pinned at 0 keeps the string address unique.
    pub fn with_seed(mut self, seed: u64) -> Self {
        assert!(
            !matches!(self.family, WorkloadFamily::Bottleneck { .. }),
            "bottleneck instances are deterministic; their seed stays 0"
        );
        self.seed = seed;
        self
    }

    /// The raw per-shard `H`-edge runs plus planted ground truth, before
    /// canonicalization — the generation stage of the pipeline. `None`
    /// for the families that construct their [`ClusterGraph`] directly
    /// (`bottleneck`, `contraction`).
    fn conflict_runs_with(
        &self,
        par: &ParallelConfig,
    ) -> Option<(ShardedEdgeSource, Option<PlantedInfo>)> {
        match self.family {
            WorkloadFamily::Gnp { n, p } => Some((gnp_runs(n, p, self.seed, par), None)),
            WorkloadFamily::PowerLaw { n, beta, avg } => {
                let cfg = PowerLawConfig {
                    n,
                    exponent: beta,
                    avg_degree: avg,
                };
                Some((power_law_runs(&cfg, self.seed, par), None))
            }
            WorkloadFamily::Rgg { n, r } => Some((geometric_runs(n, r, self.seed, par), None)),
            WorkloadFamily::Planted { c, k } => {
                let (src, info) = planted_cliques_runs(c, k, self.seed);
                Some((src, Some(info)))
            }
            WorkloadFamily::Mixture {
                c,
                k,
                anti,
                ext,
                bg,
                bgp,
            } => {
                let cfg = MixtureConfig {
                    n_cliques: c,
                    clique_size: k,
                    anti_edge_prob: anti,
                    external_per_vertex: ext,
                    sparse_n: bg,
                    sparse_p: bgp,
                };
                let (src, info) = mixture_runs(&cfg, self.seed);
                Some((src, Some(info)))
            }
            WorkloadFamily::Cabal { c, k, anti, ext } => {
                let (src, info) = cabal_runs(c, k, anti, ext, self.seed);
                Some((src, Some(info)))
            }
            WorkloadFamily::Bottleneck { .. } | WorkloadFamily::Contraction { .. } => None,
            WorkloadFamily::Square { n, p } => {
                // The base G(n, p) must be canonical before squaring, so
                // its mini-pipeline runs inside the generation stage.
                let base = gnp_runs(n, p, self.seed, par).into_hspec(par);
                Some((square_runs(&base, par), None))
            }
        }
    }

    /// The conflict-graph spec (`H`) plus planted ground truth, before
    /// layout realization. `None` for `bottleneck`/`contraction`, which
    /// construct their [`ClusterGraph`]s directly.
    pub fn conflict_spec_with(&self, par: &ParallelConfig) -> Option<(HSpec, Option<PlantedInfo>)> {
        self.conflict_runs_with(par)
            .map(|(src, info)| (src.into_hspec(par), info))
    }

    /// [`Self::conflict_spec_with`] under the sequential executor.
    pub fn conflict_spec(&self) -> Option<(HSpec, Option<PlantedInfo>)> {
        self.conflict_spec_with(&ParallelConfig::serial())
    }

    /// Builds the instance: generator plus layout realization. The whole
    /// pipeline — generation, canonicalization, `ClusterGraph` build —
    /// shards over `par`'s threads; the result is a pure function of the
    /// spec, never of the thread count.
    ///
    /// # Panics
    ///
    /// Panics when the family parameters violate a generator precondition
    /// (e.g. `p` outside `[0, 1]`, `beta ≤ 2`, an empty spec).
    pub fn build_with(&self, par: &ParallelConfig) -> ClusterGraph {
        self.build_with_info(par).0
    }

    /// [`Self::build_with`] under the sequential executor.
    pub fn build(&self) -> ClusterGraph {
        self.build_with(&ParallelConfig::serial())
    }

    /// Builds the instance and returns the planted ground truth alongside
    /// (for families that have one).
    pub fn build_with_info(&self, par: &ParallelConfig) -> (ClusterGraph, Option<PlantedInfo>) {
        let (graph, info, _) = self.build_timed(par);
        (graph, info)
    }

    /// [`Self::build_with_info`] also reporting per-phase [`SetupTimings`]
    /// — the generate / canonicalize / build split the roadmap's setup
    /// bottleneck is tracked by.
    pub fn build_timed(
        &self,
        par: &ParallelConfig,
    ) -> (ClusterGraph, Option<PlantedInfo>, SetupTimings) {
        let total_start = Instant::now();
        let mut generate_secs = 0.0;
        let mut canonicalize_secs = 0.0;
        let (n_machines, runs, assignment, info) = match self.family {
            WorkloadFamily::Bottleneck { clusters, path } => {
                let t = Instant::now();
                let (n, runs, assignment) = bottleneck_runs(clusters, path, par);
                generate_secs += t.elapsed().as_secs_f64();
                (n, runs, assignment, None)
            }
            WorkloadFamily::Contraction { side, lo, hi } => {
                let t = Instant::now();
                let (n, runs, assignment) = contraction_runs(side, lo, hi, self.seed, par);
                generate_secs += t.elapsed().as_secs_f64();
                (n, runs, assignment, None)
            }
            _ => {
                let t = Instant::now();
                let (src, info) = self
                    .conflict_runs_with(par)
                    .expect("generator families have conflict runs");
                generate_secs += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let h = src.into_hspec(par);
                canonicalize_secs += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (n, runs, assignment) =
                    realize_runs(&h, self.layout, self.links, self.seed, par);
                generate_secs += t.elapsed().as_secs_f64();
                (n, runs, assignment, info)
            }
        };
        let t = Instant::now();
        let comm = CommGraph::from_edge_runs_with(n_machines, &runs.run_slices(), par)
            .expect("generated networks are valid by construction");
        canonicalize_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let graph = ClusterGraph::build_with(comm, assignment, par)
            .expect("clusters are connected by construction");
        let build_secs = t.elapsed().as_secs_f64();
        let timings = SetupTimings {
            generate_secs,
            canonicalize_secs,
            build_secs,
            total_secs: total_start.elapsed().as_secs_f64(),
            threads: par.threads(),
        };
        (graph, info, timings)
    }
}

/// Wall-clock sub-phase timings of one [`WorkloadSpec::build_timed`] call
/// — the instance-setup counterpart of
/// [`cgc_cluster::BuildTimings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTimings {
    /// Raw edge production: family sampling kernels plus layout expansion
    /// (intra-cluster wiring and inter-cluster link placement).
    pub generate_secs: f64,
    /// Canonicalization: shard-local sort/dedup, the deterministic k-way
    /// merges, and CSR assembly (`HSpec` + `CommGraph`).
    pub canonicalize_secs: f64,
    /// The `ClusterGraph::build_with` phase (support trees, link table).
    pub build_secs: f64,
    /// End-to-end setup time.
    pub total_secs: f64,
    /// Configured executor width the setup ran under.
    pub threads: usize,
}

/// Formats a float so `FromStr` recovers it exactly (Rust's shortest
/// round-trip `Display` for `f64`).
pub(crate) fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.family.name())?;
        match self.family {
            WorkloadFamily::Gnp { n, p } => write!(f, "n={n},p={}", fmt_f64(p))?,
            WorkloadFamily::PowerLaw { n, beta, avg } => {
                write!(f, "n={n},beta={},avg={}", fmt_f64(beta), fmt_f64(avg))?;
            }
            WorkloadFamily::Rgg { n, r } => write!(f, "n={n},r={}", fmt_f64(r))?,
            WorkloadFamily::Planted { c, k } => write!(f, "c={c},k={k}")?,
            WorkloadFamily::Mixture {
                c,
                k,
                anti,
                ext,
                bg,
                bgp,
            } => {
                write!(
                    f,
                    "c={c},k={k},anti={},ext={ext},bg={bg},bgp={}",
                    fmt_f64(anti),
                    fmt_f64(bgp)
                )?;
            }
            WorkloadFamily::Cabal { c, k, anti, ext } => {
                write!(f, "c={c},k={k},anti={anti},ext={ext}")?;
            }
            WorkloadFamily::Bottleneck { clusters, path } => {
                write!(f, "clusters={clusters},path={path}")?;
            }
            WorkloadFamily::Square { n, p } => write!(f, "n={n},p={}", fmt_f64(p))?,
            WorkloadFamily::Contraction { side, lo, hi } => {
                write!(f, "side={side},lo={lo},hi={hi}")?;
            }
        }
        write!(f, ",seed={}", self.seed)?;
        if self.layout != Layout::Singleton {
            write!(f, ",layout={}", self.layout)?;
        }
        if self.links != 1 {
            write!(f, ",links={}", self.links)?;
        }
        Ok(())
    }
}

/// Key/value bag for one spec string, consumed key by key so leftovers
/// can be rejected.
pub(crate) struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    pub(crate) fn parse(body: &'a str) -> Result<Self, WorkloadParseError> {
        let mut pairs = Vec::new();
        for item in body.split(',') {
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| WorkloadParseError(format!("expected key=value, got `{item}`")))?;
            if pairs.iter().any(|&(pk, _)| pk == k) {
                return Err(WorkloadParseError(format!("duplicate key `{k}`")));
            }
            pairs.push((k, v));
        }
        Ok(Fields { pairs })
    }

    pub(crate) fn take<T: FromStr>(&mut self, key: &str) -> Result<T, WorkloadParseError> {
        let i = self
            .pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| WorkloadParseError(format!("missing key `{key}`")))?;
        let (_, v) = self.pairs.remove(i);
        v.parse()
            .map_err(|_| WorkloadParseError(format!("bad value `{v}` for `{key}`")))
    }

    pub(crate) fn take_opt<T: FromStr>(
        &mut self,
        key: &str,
    ) -> Result<Option<T>, WorkloadParseError> {
        if self.pairs.iter().any(|&(k, _)| k == key) {
            self.take(key).map(Some)
        } else {
            Ok(None)
        }
    }

    pub(crate) fn finish(self) -> Result<(), WorkloadParseError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(WorkloadParseError(format!("unknown key `{k}`"))),
        }
    }
}

impl FromStr for WorkloadSpec {
    type Err = WorkloadParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, body) = s
            .split_once(':')
            .ok_or_else(|| WorkloadParseError(format!("expected `family:key=value,...`: `{s}`")))?;
        let mut fields = Fields::parse(body)?;
        let family = match name {
            "gnp" => WorkloadFamily::Gnp {
                n: fields.take("n")?,
                p: fields.take("p")?,
            },
            "powerlaw" => WorkloadFamily::PowerLaw {
                n: fields.take("n")?,
                beta: fields.take("beta")?,
                avg: fields.take("avg")?,
            },
            "rgg" => WorkloadFamily::Rgg {
                n: fields.take("n")?,
                r: fields.take("r")?,
            },
            "planted" => WorkloadFamily::Planted {
                c: fields.take("c")?,
                k: fields.take("k")?,
            },
            "mixture" => WorkloadFamily::Mixture {
                c: fields.take("c")?,
                k: fields.take("k")?,
                anti: fields.take("anti")?,
                ext: fields.take("ext")?,
                bg: fields.take("bg")?,
                bgp: fields.take("bgp")?,
            },
            "cabal" => WorkloadFamily::Cabal {
                c: fields.take("c")?,
                k: fields.take("k")?,
                anti: fields.take("anti")?,
                ext: fields.take("ext")?,
            },
            "bottleneck" => WorkloadFamily::Bottleneck {
                clusters: fields.take("clusters")?,
                path: fields.take("path")?,
            },
            "square" => WorkloadFamily::Square {
                n: fields.take("n")?,
                p: fields.take("p")?,
            },
            "contraction" => WorkloadFamily::Contraction {
                side: fields.take("side")?,
                lo: fields.take("lo")?,
                hi: fields.take("hi")?,
            },
            other => return Err(WorkloadParseError(format!("unknown family `{other}`"))),
        };
        let seed: u64 = fields.take("seed")?;
        let layout: Layout = fields
            .take_opt::<String>("layout")?
            .map(|s| s.parse().map_err(WorkloadParseError))
            .transpose()?
            .unwrap_or(Layout::Singleton);
        let links: usize = fields.take_opt("links")?.unwrap_or(1);
        fields.finish()?;
        family.check_realizable()?;
        if links == 0 {
            return Err(WorkloadParseError("links must be ≥ 1".into()));
        }
        if family.fixes_layout() && (layout != Layout::Singleton || links != 1) {
            return Err(WorkloadParseError(format!(
                "{} fixes its own layout; layout/links keys are not allowed",
                family.name()
            )));
        }
        if matches!(family, WorkloadFamily::Bottleneck { .. }) && seed != 0 {
            return Err(WorkloadParseError(
                "bottleneck is deterministic; nonzero seeds are not allowed".into(),
            ));
        }
        Ok(WorkloadSpec {
            family,
            layout,
            links,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: WorkloadSpec) {
        let s = spec.to_string();
        let back: WorkloadSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(back, spec, "{s}");
    }

    #[test]
    fn canonical_examples_roundtrip() {
        roundtrip(WorkloadSpec::gnp(300, 0.02, 14));
        roundtrip(WorkloadSpec::power_law(50_000, 2.5, 16.0, 7));
        roundtrip(WorkloadSpec::rgg(1000, 0.05, 3));
        roundtrip(WorkloadSpec::planted_cliques(4, 16, 9));
        roundtrip(WorkloadSpec::mixture(&MixtureConfig::default(), 2));
        roundtrip(WorkloadSpec::cabal(3, 26, 3, 5, 20));
        roundtrip(WorkloadSpec::bottleneck(10, 6));
        roundtrip(WorkloadSpec::square_gnp(200, 0.03, 12));
        roundtrip(WorkloadSpec::contraction(24, 4, 12, 3141));
        roundtrip(
            WorkloadSpec::gnp(90, 0.07, 1)
                .with_layout(Layout::Star(4))
                .with_links(2),
        );
        roundtrip(WorkloadSpec::cabal(3, 22, 2, 4, 8).with_layout(Layout::Path(6)));
        roundtrip(WorkloadSpec::gnp(40, 0.1, 6).with_layout(Layout::BinaryTree(15)));
    }

    #[test]
    fn issue_example_string_parses() {
        let spec: WorkloadSpec = "powerlaw:n=50000,beta=2.5,avg=16,seed=7".parse().unwrap();
        assert_eq!(
            spec.family,
            WorkloadFamily::PowerLaw {
                n: 50_000,
                beta: 2.5,
                avg: 16.0
            }
        );
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.layout, Layout::Singleton);
    }

    #[test]
    fn build_matches_hand_rolled_path() {
        let spec = WorkloadSpec::cabal(2, 12, 3, 4, 9).with_layout(Layout::Star(3));
        let g = spec.build();
        let (h, _) = crate::planted::cabal_spec(2, 12, 3, 4, 9);
        let legacy = crate::layouts::realize(&h, Layout::Star(3), 1, 9);
        assert_eq!(g.n_vertices(), legacy.n_vertices());
        assert_eq!(g.n_machines(), legacy.n_machines());
        for &(u, v) in &h.edges {
            assert!(g.has_edge(u, v));
            assert_eq!(g.link_multiplicity(u, v), legacy.link_multiplicity(u, v));
        }
    }

    #[test]
    fn bottleneck_builds_its_own_layout() {
        let spec = WorkloadSpec::bottleneck(5, 6);
        let g = spec.build();
        assert_eq!(g.n_vertices(), 5);
        assert_eq!(g.dilation(), 5);
        assert!(spec.conflict_spec().is_none());
        assert!("bottleneck:clusters=5,path=6,seed=0,layout=star3"
            .parse::<WorkloadSpec>()
            .is_err());
        assert!(
            "bottleneck:clusters=5,path=6,seed=7"
                .parse::<WorkloadSpec>()
                .is_err(),
            "nonzero seed would make the deterministic instance's address non-unique"
        );
    }

    #[test]
    fn contraction_builds_its_own_layout() {
        let spec = WorkloadSpec::contraction(12, 3, 8, 9);
        assert_eq!(spec.to_string(), "contraction:side=12,lo=3,hi=8,seed=9");
        let g = spec.build();
        assert_eq!(g.n_machines(), 144);
        assert!(g.n_vertices() >= 144 / 8);
        assert!(spec.conflict_spec().is_none());
        // Seeds reach the blob growth (unlike bottleneck, seeds are live).
        assert_ne!(spec.with_seed(10).build(), g);
        assert!("contraction:side=12,lo=3,hi=8,seed=9,layout=star3"
            .parse::<WorkloadSpec>()
            .is_err());
        assert!("contraction:side=12,lo=3,hi=8,seed=9,links=2"
            .parse::<WorkloadSpec>()
            .is_err());
    }

    #[test]
    fn setup_timings_cover_the_pipeline() {
        let (g, _, t) = WorkloadSpec::gnp(200, 0.05, 3)
            .with_layout(Layout::Star(3))
            .build_timed(&ParallelConfig::serial());
        assert_eq!(g.n_machines(), 600);
        assert_eq!(t.threads, 1);
        assert!(t.generate_secs >= 0.0 && t.canonicalize_secs >= 0.0 && t.build_secs >= 0.0);
        assert!(t.total_secs >= t.generate_secs + t.canonicalize_secs + t.build_secs - 1e-9);
    }

    #[test]
    fn parse_rejects_malformed_strings() {
        for bad in [
            "gnp",                                // no colon
            "gnp:n=10",                           // missing p, seed
            "gnp:n=10,p=0.5,seed=1,n=10",         // duplicate key
            "gnp:n=10,p=0.5,seed=1,bogus=3",      // unknown key
            "gnp:n=ten,p=0.5,seed=1",             // bad value
            "nope:n=10,seed=1",                   // unknown family
            "gnp:n=10,p=0.5,seed=1,layout=blob3", // unknown layout
            "gnp:n=10,p=0.5,seed=1,links=0",      // zero links
            "gnp:n=10,p=0.5",                     // missing seed
        ] {
            assert!(bad.parse::<WorkloadSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn planted_info_travels_with_the_build() {
        let (g, info) =
            WorkloadSpec::planted_cliques(3, 8, 5).build_with_info(&ParallelConfig::serial());
        let info = info.expect("planted families carry ground truth");
        assert_eq!(info.cliques.len(), 3);
        assert_eq!(g.n_vertices(), 24);
    }
}
