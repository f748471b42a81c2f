//! Never-panic fuzzing of [`DeltaBatch::new`], the constructor every
//! request-derived write goes through. Arbitrary machine counts (zero,
//! small, near `usize::MAX`) and arbitrary pairs (out of range,
//! self-loops, duplicates, both orientations, the same edge on both
//! sides) must produce exactly what a plain serial reference model
//! produces, `Ok` or `Err`, and the sharded constructor must agree at
//! every thread count.

use cgc_net::{DeltaBatch, NetError, ParallelConfig};
use proptest::prelude::*;

type Pair = (usize, usize);

/// The reference model: validate in input order (inserts first), then
/// canonicalize, sort, dedup, and report the smallest edge on both sides.
fn reference(n: usize, inserts: &[Pair], deletes: &[Pair]) -> Result<DeltaBatch, NetError> {
    if n == 0 {
        return Err(NetError::EmptyGraph);
    }
    let canon = |edges: &[Pair]| -> Result<Vec<Pair>, NetError> {
        let mut out = Vec::new();
        for &(u, v) in edges {
            for machine in [u, v] {
                if machine >= n {
                    return Err(NetError::MachineOutOfRange { machine, n });
                }
            }
            if u == v {
                return Err(NetError::SelfLoop { machine: u });
            }
            out.push((u.min(v), u.max(v)));
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    };
    let ins = canon(inserts)?;
    let del = canon(deletes)?;
    if let Some(&(u, v)) = ins.iter().find(|e| del.binary_search(e).is_ok()) {
        return Err(NetError::ConflictingDelta { u, v });
    }
    let batch = DeltaBatch::new(n, &ins, &del).expect("canonical, disjoint lists are valid");
    assert_eq!((batch.inserts(), batch.deletes()), (&ins[..], &del[..]));
    Ok(batch)
}

/// A machine id: usually small (so pairs collide, repeat and loop), now
/// and then anywhere in `usize`.
fn machine() -> impl Strategy<Value = usize> {
    (any::<u8>(), 0usize..24, any::<usize>()).prop_map(|(sel, small, big)| {
        if sel.is_multiple_of(16) {
            big
        } else {
            small
        }
    })
}

/// A machine count: zero, small, or huge.
fn machine_count() -> impl Strategy<Value = usize> {
    (any::<u8>(), 1usize..26, any::<usize>()).prop_map(|(sel, small, big)| match sel % 8 {
        0 => 0,
        1 => big,
        _ => small,
    })
}

fn pairs() -> impl Strategy<Value = Vec<Pair>> {
    prop::collection::vec((machine(), machine()), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn delta_batch_matches_reference_model(
        n in machine_count(),
        inserts in pairs(),
        deletes in pairs(),
    ) {
        let expected = reference(n, &inserts, &deletes);
        let got = DeltaBatch::new(n, &inserts, &deletes);
        prop_assert_eq!(&got, &expected);
        for threads in [2usize, 3] {
            let sharded =
                DeltaBatch::new_with(n, &inserts, &deletes, &ParallelConfig::with_threads(threads));
            prop_assert!(sharded == expected, "threads={}: {:?}", threads, sharded);
        }
    }

    /// Deletes drawn from the inserts (reversed) always collide, so the
    /// conflict path runs on every case that survives validation.
    #[test]
    fn overlapping_sides_report_the_smallest_conflict(
        n in machine_count(),
        inserts in pairs(),
        extra in pairs(),
    ) {
        let mut deletes: Vec<Pair> = inserts.iter().map(|&(u, v)| (v, u)).collect();
        deletes.extend(extra);
        prop_assert_eq!(
            DeltaBatch::new(n, &inserts, &deletes),
            reference(n, &inserts, &deletes)
        );
    }
}
