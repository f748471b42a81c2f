//! Fingerprint matching in densest cabals (§6, Algorithms 6–7).
//!
//! In cabals with `a_K = O(log n)` the sampling matching fails, so
//! anti-edges are hunted with fingerprints: every member samples `k`
//! geometric variables; in each trial, if the clique-wide maximum is
//! *unique* (probability ≥ 2/3, Lemma 5.3) at a uniformly random vertex
//! `u_i` (Lemma 5.4), then every member whose neighborhood-maximum
//! differs from the clique maximum is an *anti-neighbor* of `u_i`. A
//! min-wise hash (Lemma C.2) samples a near-uniform anti-neighbor `w_i`,
//! and after the Algorithm 7 dedup rules, the pairs `(u_i, w_i)` form a
//! matching of true anti-edges (Lemma 6.2: size `Ω(τ·â_K/ε)` w.h.p.).
//!
//! [`color_anti_matching`] then colors each anti-edge monochromatically
//! with non-reserved colors via pair-level random trials (Algorithm 6
//! steps 2–3; random groups of Lemma 4.4 provide the pair's relay).

use crate::coloring::{Color, Coloring};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use cgc_pseudo::MinWiseHash;
use cgc_sketch::{encoded_bits, sample_geometric};
use rand::RngExt;
use std::collections::BTreeMap;

/// Algorithm 7 (`FingerprintMatching`): finds a matching of anti-edges in
/// one cabal.
///
/// Returns the matched anti-edges `(u_i, w_i)`. Charges: two compressed
/// fingerprint aggregations, `O(1)` bitmap rounds of `k` bits each
/// (pipelined against the budget), and the min-wise rounds — the
/// Lemma 6.3 accounting.
pub fn fingerprint_matching(
    net: &mut ClusterNet<'_>,
    seeds: &SeedStream,
    salt: u64,
    clique: &[VertexId],
    k_trials: usize,
) -> Vec<(VertexId, VertexId)> {
    fingerprint_matching_all(
        net,
        seeds,
        salt,
        std::slice::from_ref(&clique.to_vec()),
        k_trials,
    )
    .pop()
    .unwrap_or_default()
}

/// Runs [`fingerprint_matching`] in *parallel* over vertex-disjoint
/// cabals: one set of round charges covers the whole family, exactly as
/// Lemma 3.2 lets disjoint subgraphs aggregate simultaneously.
pub fn fingerprint_matching_all(
    net: &mut ClusterNet<'_>,
    seeds: &SeedStream,
    salt: u64,
    cliques: &[Vec<VertexId>],
    k_trials: usize,
) -> Vec<Vec<(VertexId, VertexId)>> {
    if cliques.is_empty() || k_trials == 0 {
        return vec![Vec::new(); cliques.len()];
    }
    net.set_phase("fp-matching");
    // Shared round charges (max encoding over the family).
    let mut max_enc = 0u64;
    let out: Vec<Vec<(VertexId, VertexId)>> = cliques
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let (pairs, enc) =
                fp_match_compute(net.g, seeds, salt ^ ((i as u64) << 32), k, k_trials);
            max_enc = max_enc.max(enc);
            pairs
        })
        .collect();
    net.charge_full_rounds(2, max_enc); // fingerprint aggregations
    net.charge_full_rounds(3, k_trials as u64); // Step 4 bitmaps
    net.charge_full_rounds(2, 4 * 61 + 64); // min-wise hash + min
    net.charge_full_rounds(2, k_trials as u64); // Step 10/11 opt-outs
    out
}

/// Pure computation of Algorithm 7 for one cabal; returns the matching
/// and the max compressed-fingerprint size (for the caller's charge).
fn fp_match_compute(
    g: &cgc_cluster::ClusterGraph,
    seeds: &SeedStream,
    salt: u64,
    clique: &[VertexId],
    k_trials: usize,
) -> (Vec<(VertexId, VertexId)>, u64) {
    let kn = clique.len();
    if kn < 2 {
        return (Vec::new(), 0);
    }
    let pos_of: BTreeMap<VertexId, usize> = clique
        .iter()
        .copied()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();

    // Step 2: sample vectors and compute per-vertex / clique maxima.
    let samples: Vec<Vec<i16>> = clique
        .iter()
        .map(|&v| {
            let mut rng = seeds.rng_for(v as u64, salt ^ 0xF9);
            (0..k_trials)
                .map(|_| sample_geometric(&mut rng, 0.5) as i16)
                .collect()
        })
        .collect();

    // Y^K_i: clique-wide maxima (converge-cast on a BFS tree of K).
    let mut y_k = vec![i16::MIN; k_trials];
    for s in &samples {
        for (i, &x) in s.iter().enumerate() {
            y_k[i] = y_k[i].max(x);
        }
    }
    // Y^v_i: maxima over N(v) ∩ K (one aggregation over in-clique edges).
    let mut y_v = vec![vec![i16::MIN; k_trials]; kn];
    for (j, &v) in clique.iter().enumerate() {
        for &u in g.neighbors(v) {
            if let Some(&ju) = pos_of.get(&u) {
                for i in 0..k_trials {
                    y_v[j][i] = y_v[j][i].max(samples[ju][i]);
                }
            }
        }
    }
    // The caller charges the two fingerprint aggregations with the
    // family-wide compressed-encoding maximum.
    let enc_bits = samples
        .iter()
        .map(|s| encoded_bits(s))
        .max()
        .unwrap_or(0)
        .max(encoded_bits(&y_k));

    // Step 4: valid trial indices.
    // unique_max_at[i] = Some(j) iff the max is unique at clique[j].
    let mut unique_max_at: Vec<Option<usize>> = vec![None; k_trials];
    for i in 0..k_trials {
        let mut argmax = None;
        let mut count = 0usize;
        for (j, s) in samples.iter().enumerate() {
            if s[i] == y_k[i] {
                count += 1;
                argmax = Some(j);
            }
        }
        if count == 1 {
            unique_max_at[i] = argmax;
        }
    }

    // Steps 7–11 follow the incremental construction of the Lemma 6.2
    // analysis: the sets `U_i` (useful maxima) and `W_i` (their sampled
    // anti-neighbors) grow trial by trial, and a trial contributes only
    // when both endpoints are still unmatched — the batch reading of the
    // dedup rules would cancel the two discovery trials of a symmetric
    // anti-pair against each other.
    let mut used_as_max = vec![false; kn];
    let mut matched = vec![false; kn];
    let mut out = Vec::new();
    for i in 0..k_trials {
        let Some(uj) = unique_max_at[i] else { continue };
        // Third condition of Step 4: u_i must not have been a unique
        // maximum in an earlier trial.
        if used_as_max[uj] {
            continue;
        }
        used_as_max[uj] = true;
        if matched[uj] {
            continue; // u_i already sampled as some earlier w_j (Step 10)
        }
        // A_i: members whose neighborhood max differs (anti-neighbors of
        // u_i), excluding u_i itself.
        let a_i: Vec<usize> = (0..kn)
            .filter(|&j| j != uj && y_v[j][i] != y_k[i])
            .collect();
        if a_i.is_empty() {
            continue;
        }
        // Min-wise sampling of w_i (Steps 7–9).
        let mut rng = seeds.rng_for(i as u64, salt ^ 0x3117);
        let h = MinWiseHash::new(&mut rng, 0.25, kn as u64);
        let ids: Vec<u64> = a_i.iter().map(|&j| j as u64).collect();
        let Some(w) = h.argmin(&ids).map(|w| w as usize) else {
            continue;
        };
        if matched[w] {
            continue; // Step 11: w already taken by an earlier trial
        }
        matched[uj] = true;
        matched[w] = true;
        let (a, b) = (clique[uj], clique[w]);
        debug_assert!(!g.has_edge(a, b), "matched pair must be an anti-edge");
        out.push((a, b));
    }
    (out, enc_bits)
}

/// Algorithm 6 steps 2–3: colors each anti-edge with one shared
/// non-reserved color via pair-level random trials (the pair communicates
/// through its Lemma 4.4 random group; trials follow the
/// `TryColor`/`MultiColorTrial` schedule).
///
/// Returns pairs still uncolored after `max_rounds` (callers retry).
#[allow(clippy::too_many_arguments)]
pub fn color_anti_matching(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    pairs: &[(VertexId, VertexId)],
    reserve: usize,
    max_rounds: usize,
) -> Vec<(VertexId, VertexId)> {
    let q = coloring.q();
    net.set_phase("fp-matching-color");
    let mut pending: Vec<(VertexId, VertexId)> = pairs
        .iter()
        .copied()
        .filter(|&(a, b)| !coloring.is_colored(a) && !coloring.is_colored(b))
        .collect();
    if reserve >= q {
        return pending;
    }

    for round in 0..max_rounds {
        if pending.is_empty() {
            break;
        }
        // Pair candidates (the higher-id endpoint samples, per §6.1).
        let cands: Vec<Color> = pending
            .iter()
            .map(|&(a, b)| {
                let mut rng = seeds.rng_for(a.max(b) as u64, salt ^ ((round as u64) << 16));
                rng.random_range(reserve..q)
            })
            .collect();
        // One aggregation round: both endpoints test the color against
        // colored neighbors and other pairs' tries (lower pair index wins).
        net.charge_full_rounds(1, net.color_bits() + net.id_bits());
        let mut adopted = vec![false; pending.len()];
        for (pi, (&(a, b), &c)) in pending.iter().zip(&cands).enumerate() {
            let mut ok = true;
            for &v in &[a, b] {
                for &u in net.g.neighbors(v) {
                    if coloring.get(u) == Some(c) {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
            }
            if ok {
                // Conflicts with earlier pairs trying the same color and
                // touching our neighborhood.
                for (pj, (&(a2, b2), &c2)) in pending.iter().zip(&cands).enumerate() {
                    if pj >= pi || c2 != c || !adopted[pj] {
                        continue;
                    }
                    let touch = [a, b]
                        .iter()
                        .any(|&v| net.g.has_edge(v, a2) || net.g.has_edge(v, b2));
                    if touch {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                coloring.set(a, c);
                coloring.set(b, c);
                adopted[pi] = true;
            }
        }
        pending = pending
            .iter()
            .copied()
            .filter(|&(a, _)| !coloring.is_colored(a))
            .collect();
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{cabal_spec, realize, Layout};

    fn cabal(k: usize, anti_pairs: usize, seed: u64) -> (ClusterGraph, Vec<usize>) {
        let (spec, info) = cabal_spec(1, k, anti_pairs, 0, seed);
        let g = realize(&spec, Layout::Singleton, 1, seed);
        (g, info.cliques[0].clone())
    }

    #[test]
    fn finds_planted_anti_edges() {
        let (g, clique) = cabal(24, 6, 5);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(70);
        let m = fingerprint_matching(&mut net, &seeds, 0, &clique, 200);
        assert!(!m.is_empty(), "found no anti-edges");
        for &(a, b) in &m {
            assert!(!g.has_edge(a, b), "({a},{b}) is a real edge");
        }
        // It is a matching: endpoints distinct.
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &m {
            assert!(seen.insert(a), "endpoint {a} repeated");
            assert!(seen.insert(b), "endpoint {b} repeated");
        }
    }

    #[test]
    fn matching_grows_with_trials() {
        let (g, clique) = cabal(30, 8, 6);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(71);
        let small = fingerprint_matching(&mut net, &seeds, 0, &clique, 10).len();
        let large = fingerprint_matching(&mut net, &seeds, 1, &clique, 400).len();
        assert!(large >= small, "small {small}, large {large}");
        assert!(large >= 2, "large run found {large}");
    }

    #[test]
    fn perfect_clique_yields_empty_matching() {
        let (g, clique) = cabal(16, 0, 7);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(72);
        let m = fingerprint_matching(&mut net, &seeds, 0, &clique, 150);
        assert!(m.is_empty(), "found {m:?} in a perfect clique");
    }

    #[test]
    fn coloring_the_matching_is_proper_and_monochromatic_per_pair() {
        let (g, clique) = cabal(24, 6, 8);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(73);
        let m = fingerprint_matching(&mut net, &seeds, 0, &clique, 200);
        assert!(!m.is_empty());
        let mut c = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let left = color_anti_matching(&mut net, &mut c, &seeds, 9, &m, 2, 30);
        assert!(left.is_empty(), "uncolored pairs: {left:?}");
        assert!(c.is_proper(&g), "conflicts: {:?}", c.conflicts(&g));
        for &(a, b) in &m {
            assert_eq!(c.get(a), c.get(b), "pair not monochromatic");
            assert!(c.get(a).unwrap() >= 2, "reserved color used");
        }
    }

    /// Regression: the batch reading of Algorithm 7's Step 10 dedup would
    /// cancel the two discovery trials of a symmetric anti-pair against
    /// each other (both endpoints eventually become unique maxima). The
    /// sequential construction must keep exactly one pair.
    #[test]
    fn symmetric_anti_pair_survives_dedup() {
        let (g, clique) = cabal(20, 1, 13);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(75);
        // Many trials: both endpoints of the single anti-pair will be the
        // unique maximum in some trial.
        let m = fingerprint_matching(&mut net, &seeds, 0, &clique, 500);
        assert_eq!(m.len(), 1, "the planted pair must survive: {m:?}");
        let (a, b) = m[0];
        assert_eq!((a.min(b), a.max(b)), (clique[0], clique[1]));
    }

    #[test]
    fn parallel_family_matches_sequential_runs() {
        let (spec, info) = cabal_spec(3, 20, 3, 0, 14);
        let g = realize(&spec, Layout::Singleton, 1, 14);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(76);
        let all = super::fingerprint_matching_all(&mut net, &seeds, 0, &info.cliques, 200);
        assert_eq!(all.len(), 3);
        for (pairs, k) in all.iter().zip(&info.cliques) {
            assert!(!pairs.is_empty(), "cabal found no anti-edges");
            for &(a, b) in pairs {
                assert!(k.contains(&a) && k.contains(&b), "pair stays in its cabal");
                assert!(!g.has_edge(a, b));
            }
        }
        // One family charge is cheaper than three sequential runs.
        let family_rounds = net.meter.h_rounds();
        let mut net2 = ClusterNet::with_log_budget(&g, 32);
        for k in &info.cliques {
            let _ = fingerprint_matching(&mut net2, &seeds, 0, k, 200);
        }
        assert!(family_rounds < net2.meter.h_rounds());
    }

    #[test]
    fn tiny_inputs_are_safe() {
        let (g, clique) = cabal(4, 0, 9);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(74);
        assert!(fingerprint_matching(&mut net, &seeds, 0, &clique[..1], 10).is_empty());
        assert!(fingerprint_matching(&mut net, &seeds, 0, &clique, 0).is_empty());
        let mut c = Coloring::new(g.n_vertices(), 5);
        assert!(color_anti_matching(&mut net, &mut c, &seeds, 0, &[], 0, 5).is_empty());
    }
}
