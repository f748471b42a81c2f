//! Never-panic fuzzing of the request-facing spec parsers. A served
//! request carries a [`WorkloadSpec`] or [`ChurnSpec`] string verbatim, so
//! `from_str` must answer every input with `Ok` or `Err`, never a panic.
//! Three input shapes:
//!
//! * arbitrary bytes (lossily decoded to UTF-8);
//! * `family:key=value,...` strings built from the grammar's own keys
//!   with plausible and hostile values, which reach the value parsers
//!   and the realizability checks that raw bytes almost never reach;
//! * single-character edits (replace, delete, insert) of valid specs.
//!
//! Whatever parses must also round-trip: `to_string` then `from_str`
//! gives back the same spec.

use cgc_graphs::{ChurnSpec, WorkloadSpec};
use proptest::prelude::*;
use std::str::FromStr;

const VALID_SPECS: [&str; 10] = [
    "gnp:n=120,p=0.05,seed=1",
    "powerlaw:n=5000,beta=2.5,avg=8,seed=7",
    "rgg:n=1000,r=0.05,seed=3",
    "planted:c=4,k=16,seed=9",
    "mixture:c=3,k=16,anti=0.04,ext=1,bg=20,bgp=0.1,seed=7,layout=star4,links=2",
    "cabal:c=3,k=26,anti=3,ext=5,seed=20,layout=path6",
    "bottleneck:clusters=10,path=6,seed=0",
    "square:n=200,p=0.03,seed=12",
    "contraction:side=24,lo=4,hi=12,seed=3141",
    "gnp:n=40,p=0.1,seed=6,layout=tree15",
];

const VALID_CHURNS: [&str; 3] = [
    "churn:batches=6,size=32,ins=0.25,seed=9@powerlaw:n=200,beta=2.5,avg=6,seed=3",
    "churn:batches=1,size=50,ins=0.5,seed=0@gnp:n=5000,p=0.0032,seed=1,layout=star3",
    "churn:batches=3,size=8,ins=1,seed=4@contraction:side=8,lo=2,hi=5,seed=2",
];

/// Each family with its required keys, in order.
const FAMILIES: [(&str, &str); 9] = [
    ("gnp", "n p"),
    ("powerlaw", "n beta avg"),
    ("rgg", "n r"),
    ("planted", "c k"),
    ("mixture", "c k anti ext bg bgp"),
    ("cabal", "c k anti ext"),
    ("bottleneck", "clusters path"),
    ("square", "n p"),
    ("contraction", "side lo hi"),
];

/// Field values, plausible and hostile (signs, exponents, NaN, inf, an
/// integer one past `u64::MAX`, layouts where numbers belong),
/// whitespace-separated.
const VALUES: &str = "0 1 2 3 6 16 -1 -0 +7 0.5 0.05 2.5 1e309 1e-400 NaN inf \
    18446744073709551616 star4 path0 tree1 single x";

/// A `family:key=value,...` string with every required key of the
/// family plus `seed`, values drawn from [`VALUES`] by `vals`; `extra`
/// may append a `layout`, `links`, duplicate or unknown key, and `drop`
/// may remove one key.
fn field_soup(family: usize, vals: &[usize], extra: usize, drop: usize) -> String {
    let values: Vec<&str> = VALUES.split_whitespace().collect();
    let value = |i: usize| values[vals.get(i).copied().unwrap_or(1) % values.len()];
    let (name, keys) = FAMILIES[family % FAMILIES.len()];
    let mut fields: Vec<String> = keys
        .split(' ')
        .chain(["seed"])
        .enumerate()
        .map(|(i, k)| format!("{k}={}", value(i)))
        .collect();
    let extra_key = match extra % 5 {
        0 => Some("layout"),
        1 => Some("links"),
        2 => Some("seed"),
        3 => Some("bogus"),
        _ => None,
    };
    if let Some(k) = extra_key {
        fields.push(format!("{k}={}", value(fields.len())));
    }
    if drop.is_multiple_of(4) {
        fields.remove((drop / 4) % fields.len());
    }
    format!("{name}:{}", fields.join(","))
}

/// Characters a single-character edit draws from.
const EDIT_CHARS: [char; 24] = [
    '0', '1', '2', '9', '=', ',', ':', '@', '.', '-', '+', 'e', 'E', 'n', 'N', 'a', 'p', 's', 'x',
    ' ', '_', 'é', '∞', '\u{0}',
];

/// Parses `s` as `T`; on success asserts the display form parses back
/// to the same value.
fn parses_or_errs<T>(s: &str) -> Result<(), TestCaseError>
where
    T: FromStr + ToString + PartialEq + std::fmt::Debug,
    T::Err: std::fmt::Debug,
{
    if let Ok(spec) = s.parse::<T>() {
        let shown = spec.to_string();
        let back = shown.parse::<T>();
        prop_assert!(
            back.as_ref().is_ok_and(|b| *b == spec),
            "`{}` parsed as {:?}, but its display `{}` reparsed as {:?}",
            s,
            spec,
            shown,
            back
        );
    }
    Ok(())
}

/// Applies one edit to `base`: `op % 3` selects replace, delete or
/// insert at character position `at % len`.
fn edit(base: &str, op: usize, at: usize, ch: usize) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    let c = EDIT_CHARS[ch % EDIT_CHARS.len()];
    let i = at % chars.len();
    match op % 3 {
        0 => chars[i] = c,
        1 => {
            chars.remove(i);
        }
        _ => chars.insert(i, c),
    }
    chars.into_iter().collect()
}

#[test]
fn seed_specs_are_valid() {
    for s in VALID_SPECS {
        assert!(s.parse::<WorkloadSpec>().is_ok(), "{s}");
    }
    for s in VALID_CHURNS {
        assert!(s.parse::<ChurnSpec>().is_ok(), "{s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn workload_spec_never_panics_on_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        parses_or_errs::<WorkloadSpec>(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn workload_spec_never_panics_on_field_soup(
        family in any::<usize>(),
        vals in prop::collection::vec(any::<usize>(), 0..10),
        extra in any::<usize>(),
        drop in any::<usize>(),
    ) {
        parses_or_errs::<WorkloadSpec>(&field_soup(family, &vals, extra, drop))?;
    }

    #[test]
    fn workload_spec_never_panics_on_edited_specs(
        which in any::<usize>(),
        op in any::<usize>(),
        at in any::<usize>(),
        ch in any::<usize>(),
    ) {
        let s = edit(VALID_SPECS[which % VALID_SPECS.len()], op, at, ch);
        parses_or_errs::<WorkloadSpec>(&s)?;
    }

    #[test]
    fn churn_spec_never_panics_on_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut s = String::from("churn:");
        s.push_str(&String::from_utf8_lossy(&bytes));
        parses_or_errs::<ChurnSpec>(&s)?;
        parses_or_errs::<ChurnSpec>(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn churn_spec_never_panics_on_field_soup(
        own in prop::collection::vec(any::<usize>(), 0..5),
        drop_own in any::<usize>(),
        family in any::<usize>(),
        vals in prop::collection::vec(any::<usize>(), 0..10),
        extra in any::<usize>(),
    ) {
        let values: Vec<&str> = VALUES.split_whitespace().collect();
        let mut fields: Vec<String> = ["batches", "size", "ins", "seed"]
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{k}={}", values[own.get(i).copied().unwrap_or(1) % values.len()]))
            .collect();
        if drop_own.is_multiple_of(4) {
            fields.remove((drop_own / 4) % fields.len());
        }
        let base = field_soup(family, &vals, extra, 1);
        parses_or_errs::<ChurnSpec>(&format!("churn:{}@{base}", fields.join(",")))?;
    }

    #[test]
    fn churn_spec_never_panics_on_edited_specs(
        which in any::<usize>(),
        op in any::<usize>(),
        at in any::<usize>(),
        ch in any::<usize>(),
    ) {
        let s = edit(VALID_CHURNS[which % VALID_CHURNS.len()], op, at, ch);
        parses_or_errs::<ChurnSpec>(&s)?;
    }
}
