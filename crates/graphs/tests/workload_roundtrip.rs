//! Property suite: `WorkloadSpec::from_str(spec.to_string()) == spec`
//! across every family, layout and link multiplicity — the contract that
//! makes the spec string printed in an experiment table a complete,
//! executable address for the instance.

use cgc_graphs::{Layout, WorkloadFamily, WorkloadSpec};
use proptest::prelude::*;

fn roundtrip(spec: WorkloadSpec) -> Result<(), TestCaseError> {
    let s = spec.to_string();
    let back: WorkloadSpec = match s.parse() {
        Ok(b) => b,
        Err(e) => return Err(TestCaseError::fail(format!("`{s}` failed to parse: {e}"))),
    };
    prop_assert!(
        back == spec,
        "`{}` reparsed as {:?}, expected {:?}",
        s,
        back,
        spec
    );
    Ok(())
}

/// Decodes a generated `(kind, size)` pair into a layout (bottleneck
/// excluded — it fixes its own).
fn layout_of(kind: usize, m: usize) -> Layout {
    match kind % 4 {
        0 => Layout::Singleton,
        1 => Layout::Path(m),
        2 => Layout::Star(m),
        _ => Layout::BinaryTree(m),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gnp_roundtrips(
        n in 1usize..1_000_000,
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        lk in 0usize..4,
        m in 2usize..40,
        links in 1usize..9,
    ) {
        let spec = WorkloadSpec::gnp(n, p, seed)
            .with_layout(layout_of(lk, m))
            .with_links(links);
        roundtrip(spec)?;
    }

    #[test]
    fn powerlaw_roundtrips(
        n in 1usize..10_000_000,
        beta in 2.000001f64..4.0,
        avg in 0.5f64..64.0,
        seed in any::<u64>(),
    ) {
        roundtrip(WorkloadSpec::power_law(n, beta, avg, seed))?;
    }

    #[test]
    fn rgg_roundtrips(
        n in 1usize..1_000_000,
        r in 0.0001f64..1.0,
        seed in any::<u64>(),
        lk in 0usize..4,
        m in 2usize..12,
    ) {
        roundtrip(WorkloadSpec::rgg(n, r, seed).with_layout(layout_of(lk, m)))?;
    }

    #[test]
    fn planted_roundtrips(
        c in 1usize..64,
        k in 1usize..256,
        seed in any::<u64>(),
        links in 1usize..5,
    ) {
        roundtrip(WorkloadSpec::planted_cliques(c, k, seed).with_links(links))?;
    }

    #[test]
    fn mixture_roundtrips(
        c in 1usize..16,
        k in 2usize..64,
        anti in 0.0f64..1.0,
        ext in 0usize..8,
        bg in 0usize..512,
        bgp in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::new(
            WorkloadFamily::Mixture { c, k, anti, ext, bg, bgp },
            seed,
        );
        roundtrip(spec)?;
    }

    #[test]
    fn cabal_roundtrips(
        c in 1usize..16,
        k in 4usize..64,
        anti in 0usize..8,
        ext in 0usize..32,
        seed in any::<u64>(),
        lk in 0usize..4,
        m in 2usize..10,
    ) {
        // A block holds at most k / 2 disjoint anti pairs; the parser
        // rejects more, as the generator cannot build them.
        let anti = anti.min(k / 2);
        let spec = WorkloadSpec::cabal(c, k, anti, ext, seed).with_layout(layout_of(lk, m));
        roundtrip(spec)?;
    }

    #[test]
    fn bottleneck_roundtrips(clusters in 1usize..128, path in 2usize..64) {
        roundtrip(WorkloadSpec::bottleneck(clusters, path))?;
    }

    #[test]
    fn square_roundtrips(n in 1usize..100_000, p in 0.0f64..1.0, seed in any::<u64>()) {
        roundtrip(WorkloadSpec::square_gnp(n, p, seed))?;
    }

    #[test]
    fn contraction_roundtrips(
        side in 1usize..256,
        lo in 1usize..16,
        extra in 0usize..16,
        seed in any::<u64>(),
    ) {
        roundtrip(WorkloadSpec::contraction(side, lo, lo + extra, seed))?;
    }

    #[test]
    fn layout_strings_roundtrip(lk in 0usize..4, m in 2usize..1000) {
        let layout = layout_of(lk, m);
        let parsed: Layout = layout.to_string().parse().map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed, layout);
    }
}

#[test]
fn small_specs_build_the_instance_their_string_describes() {
    // Round-trip through the *string* and build both sides: identical
    // topology (spot-checked cheaply — full bit-equality of realized
    // graphs is the build_matches_hand_rolled_path unit test's job).
    for raw in [
        "gnp:n=60,p=0.1,seed=3",
        "rgg:n=80,r=0.2,seed=5,layout=path3",
        "planted:c=2,k=6,seed=1,links=2",
        "cabal:c=2,k=8,anti=2,ext=1,seed=4,layout=star3",
        "mixture:c=2,k=8,anti=0.1,ext=1,bg=10,bgp=0.2,seed=9",
        "bottleneck:clusters=4,path=3,seed=0",
        "square:n=40,p=0.05,seed=2",
        "powerlaw:n=200,beta=2.5,avg=4,seed=6",
        "contraction:side=12,lo=3,hi=9,seed=11",
    ] {
        let spec: WorkloadSpec = raw.parse().unwrap_or_else(|e| panic!("{raw}: {e}"));
        let a = spec.build();
        let b: WorkloadSpec = spec.to_string().parse().unwrap();
        let c = b.build();
        assert_eq!(a.n_vertices(), c.n_vertices(), "{raw}");
        assert_eq!(a.n_machines(), c.n_machines(), "{raw}");
        assert_eq!(a.n_h_edges(), c.n_h_edges(), "{raw}");
        assert_eq!(a.dilation(), c.dilation(), "{raw}");
    }
}
