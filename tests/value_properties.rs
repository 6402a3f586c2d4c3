//! Property tests for the core predicate algebra — the soundness bedrock
//! under order-independence checking, flattening and the equivalence
//! domains.

use mapro::core::Value;
use proptest::prelude::*;

const W: u32 = 16;

/// A width small enough to enumerate every field value, so the ternary
/// algebra can be checked against brute force rather than sampling.
const SMALL_W: u32 = 7;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u64..1 << W).prop_map(Value::Int),
        (0u64..1 << W, 0u8..=W as u8).prop_map(|(b, l)| Value::prefix(b, l, W)),
        (0u64..1 << W, 0u64..1 << W).prop_map(|(b, m)| Value::Ternary {
            bits: b & m,
            mask: m
        }),
        Just(Value::Any),
    ]
}

fn arb_small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u64..1 << SMALL_W).prop_map(Value::Int),
        (0u64..1 << SMALL_W, 0u8..=SMALL_W as u8).prop_map(|(b, l)| Value::prefix(b, l, SMALL_W)),
        (0u64..1 << SMALL_W, 0u64..1 << SMALL_W).prop_map(|(b, m)| Value::Ternary {
            bits: b & m,
            mask: m
        }),
        Just(Value::Any),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `intersects` is exactly "some packet matches both".
    #[test]
    fn intersects_iff_shared_packet(a in arb_value(), b in arb_value(), probes in proptest::collection::vec(0u64..1 << W, 64)) {
        let claim = a.intersects(&b, W);
        let witness = probes.iter().any(|&v| a.matches(v, W) && b.matches(v, W));
        // A witness implies the claim (completeness of intersects).
        if witness {
            prop_assert!(claim, "{a} ∩ {b} missed witness");
        }
    }

    /// `intersect` returns a predicate equal to the conjunction, wherever
    /// it returns one.
    #[test]
    fn intersect_is_conjunction(a in arb_value(), b in arb_value(), v in 0u64..1 << W) {
        match a.intersect(&b, W) {
            Some(i) => {
                prop_assert_eq!(
                    i.matches(v, W),
                    a.matches(v, W) && b.matches(v, W),
                    "{} = {} ∩ {} at {}", i, a, b, v
                );
            }
            None => {
                prop_assert!(!(a.matches(v, W) && b.matches(v, W)),
                    "{} ∩ {} nonempty at {}", a, b, v);
            }
        }
    }

    /// `interval` covers exactly the matching values for interval-shaped
    /// predicates.
    #[test]
    fn interval_is_exact(a in arb_value(), v in 0u64..1 << W) {
        if let Some((lo, hi)) = a.interval(W) {
            prop_assert_eq!(a.matches(v, W), (lo..=hi).contains(&v), "{} at {}", a, v);
        }
    }

    /// Intersection is commutative as a predicate.
    #[test]
    fn intersect_commutes(a in arb_value(), b in arb_value(), v in 0u64..1 << W) {
        let ab = a.intersect(&b, W);
        let ba = b.intersect(&a, W);
        prop_assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(x), Some(y)) = (ab, ba) {
            prop_assert_eq!(x.matches(v, W), y.matches(v, W));
        }
    }

    /// Symmetry of `intersects`.
    #[test]
    fn intersects_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.intersects(&b, W), b.intersects(&a, W));
    }

    /// `subsumes` is *exactly* set containment: checked against full
    /// enumeration of the small domain, in both directions (no missed
    /// covers, no spurious ones). This is the guarantee that lets
    /// shadowed-entry detection and the classifier templates rely on the
    /// ternary algebra without re-verifying per use.
    #[test]
    fn subsumes_iff_containment(a in arb_small_value(), b in arb_small_value()) {
        let contained = (0..1u64 << SMALL_W)
            .all(|v| !b.matches(v, SMALL_W) || a.matches(v, SMALL_W));
        prop_assert_eq!(a.subsumes(&b, SMALL_W), contained, "{} ⊇ {}", a, b);
    }

    /// `as_ternary` denotes the same packet set as the value itself, and
    /// its canonical form makes structural equality semantic.
    #[test]
    fn ternary_form_is_exact(a in arb_small_value(), b in arb_small_value()) {
        if let Some((bits, mask)) = a.as_ternary(SMALL_W) {
            for v in 0..1u64 << SMALL_W {
                prop_assert_eq!(a.matches(v, SMALL_W), v & mask == bits, "{} at {}", a, v);
            }
        }
        if let (Some(ta), Some(tb)) = (a.as_ternary(SMALL_W), b.as_ternary(SMALL_W)) {
            let same_set = (0..1u64 << SMALL_W)
                .all(|v| a.matches(v, SMALL_W) == b.matches(v, SMALL_W));
            prop_assert_eq!(ta == tb, same_set, "{} vs {}", a, b);
        }
    }

    /// Subsumption is reflexive and transitive on predicates (a preorder),
    /// and mutual subsumption coincides with equal ternary forms.
    #[test]
    fn subsumes_is_preorder(a in arb_small_value(), b in arb_small_value(), c in arb_small_value()) {
        prop_assert!(a.subsumes(&a, SMALL_W));
        if a.subsumes(&b, SMALL_W) && b.subsumes(&c, SMALL_W) {
            prop_assert!(a.subsumes(&c, SMALL_W), "{} ⊇ {} ⊇ {}", a, b, c);
        }
        if a.subsumes(&b, SMALL_W) && b.subsumes(&a, SMALL_W) {
            prop_assert_eq!(a.as_ternary(SMALL_W), b.as_ternary(SMALL_W));
        }
    }
}

#[test]
fn prefix_normalization_makes_equality_semantic() {
    // prefix() zeroes the don't-care bits, so structural equality equals
    // predicate equality for prefixes of the same length.
    let a = Value::prefix(0b1010_0000_0000_0000, 3, 16);
    let b = Value::prefix(0b1011_1111_1111_1111, 3, 16);
    assert_eq!(a, b);
}

/// A small-width cell of any kind a table may hold: exact, prefix,
/// ternary, wildcard or symbolic (which matches nothing). Exact cells
/// dominate, as in the tables normalization sees.
fn arb_table_cell() -> impl Strategy<Value = Value> {
    const CW: u32 = 4;
    prop_oneof![
        4 => (0u64..1 << CW).prop_map(Value::Int),
        2 => (0u64..1 << CW, 0u8..=CW as u8).prop_map(|(b, l)| Value::prefix(b, l, CW)),
        1 => (0u64..1 << CW, 0u64..1 << CW).prop_map(|(b, m)| Value::Ternary {
            bits: b & m,
            mask: m
        }),
        2 => Just(Value::Any),
        1 => Just(Value::sym("s")),
    ]
}

/// The all-pairs scan `Table::order_independence` replaced: every pair
/// `i < j` whose cells intersect in every column, in `(i, j)` order.
fn overlapping_pairs_by_scan(t: &mapro::core::Table, widths: &[u32]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..t.entries.len() {
        for j in i + 1..t.entries.len() {
            let (a, b) = (&t.entries[i].matches, &t.entries[j].matches);
            if (0..widths.len()).all(|k| a[k].intersects(&b[k], widths[k])) {
                out.push((i, j));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bucketed 1NF test returns exactly the all-pairs scan's pairs,
    /// in the same order, on tables of zero to three 4-bit columns.
    #[test]
    fn order_independence_equals_the_all_pairs_scan(
        cols in 0usize..4,
        rows in proptest::collection::vec(proptest::collection::vec(arb_table_cell(), 3), 0..24),
    ) {
        use mapro::core::{Catalog, Table};
        let mut c = Catalog::new();
        let attrs: Vec<_> = (0..cols).map(|k| c.field(format!("f{k}"), 4)).collect();
        let mut t = Table::new("t", attrs, vec![]);
        for r in rows {
            t.row(r[..cols].to_vec(), vec![]);
        }
        let got: Vec<(usize, usize)> = t
            .order_independence(&c)
            .into_iter()
            .map(|o| (o.first, o.second))
            .collect();
        prop_assert_eq!(got, overlapping_pairs_by_scan(&t, &vec![4; cols]));
    }
}
