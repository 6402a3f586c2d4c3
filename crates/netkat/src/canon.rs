//! Canonicalization into the *local OpenFlow normal form*.
//!
//! §3 of the paper: "A match-action program in the first normal form
//! generally corresponds to the 'local OpenFlow normal form' from \[1\]" —
//! a parallel composition of sequences, each sequence being tests followed
//! by modifications/actions. This module rewrites an arbitrary policy of
//! the fragment into that shape using the distributivity and unit axioms;
//! its tests check each result semantically against the input:
//!
//! 1. distribute `;` over `+` (both sides) until no `+` sits under a `;`;
//! 2. flatten the resulting sum and drop `0` summands;
//! 3. within each sequence, flatten nesting, drop `1` units, and *stable*
//!    sort tests before modifications/actions where commuting is sound
//!    (tests commute with each other and with writes to other fields).
//!
//! The result is a sum of "entry-shaped" sequences — the syntactic
//! counterpart of Eq. (1).

use crate::pol::Pol;

/// Rewrite `pol` into a sum of atom-sequences (see module docs).
///
/// Worst-case exponential in policy size (distributivity duplicates
/// terms), like any DNF construction; the policies of match-action
/// programs are sums already, so in practice the blow-up is bounded by
/// the goto fan-out.
pub fn canonicalize(pol: &Pol) -> Pol {
    // Collect the sequences of the canonical sum.
    let mut seqs: Vec<Vec<Pol>> = Vec::new();
    expand(pol, &mut vec![], &mut seqs);
    let mut summands: Vec<Pol> = Vec::new();
    'seq: for mut atoms in seqs {
        // Drop units, bail on zeros.
        atoms.retain(|a| !matches!(a, Pol::Id));
        if atoms.iter().any(|a| matches!(a, Pol::Drop)) {
            continue 'seq;
        }
        reorder_tests_first(&mut atoms);
        summands.push(Pol::sequence(atoms));
    }
    Pol::sum(summands)
}

/// Cartesian expansion of a policy into alternative atom-sequences.
fn expand(pol: &Pol, prefix: &mut Vec<Pol>, out: &mut Vec<Vec<Pol>>) {
    match pol {
        Pol::Plus(p, q) => {
            expand(p, &mut prefix.clone(), out);
            expand(q, prefix, out);
        }
        Pol::Seq(p, q) => {
            // Expand p into alternatives, continue each with q.
            let mut mid: Vec<Vec<Pol>> = Vec::new();
            expand(p, prefix, &mut mid);
            for m in mid {
                let mut pre = m;
                expand(q, &mut pre, out);
            }
        }
        atom => {
            let mut s = prefix.clone();
            s.push(atom.clone());
            out.push(s);
        }
    }
}

/// Stable-move tests leftward past atoms they soundly commute with.
fn reorder_tests_first(atoms: &mut [Pol]) {
    // Insertion-sort flavoured: a Test may hop left over a non-Test
    // neighbour only when they commute (different fields for Mod).
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..atoms.len() {
            let (a, b) = (&atoms[i - 1], &atoms[i]);
            let hop = match (a, b) {
                (Pol::Mod(f, _), Pol::Test(g, _)) if f != g => true,
                (Pol::Act(_), Pol::Test(_, _)) => true,
                _ => false,
            };
            if hop {
                atoms.swap(i - 1, i);
                changed = true;
            }
        }
    }
}

/// Is the policy in the local OpenFlow normal form: a (possibly unary)
/// sum of sequences, each being tests followed by non-tests?
pub fn is_openflow_nf(pol: &Pol) -> bool {
    fn summands(p: &Pol, out: &mut Vec<Pol>) {
        match p {
            Pol::Plus(a, b) => {
                summands(a, out);
                summands(b, out);
            }
            other => out.push(other.clone()),
        }
    }
    fn atoms(p: &Pol, out: &mut Vec<Pol>) -> bool {
        match p {
            Pol::Seq(a, b) => atoms(a, out) && atoms(b, out),
            Pol::Plus(..) => false,
            other => {
                out.push(other.clone());
                true
            }
        }
    }
    let mut ss = Vec::new();
    summands(pol, &mut ss);
    for s in ss {
        if matches!(s, Pol::Drop) {
            continue; // `0` is an acceptable (empty) summand
        }
        let mut at = Vec::new();
        if !atoms(&s, &mut at) {
            return false;
        }
        let mut seen_action = false;
        for a in at {
            match a {
                Pol::Test(..) => {
                    if seen_action {
                        return false;
                    }
                }
                Pol::Id | Pol::Drop => {}
                _ => seen_action = true,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pol::semantically_equal;
    use mapro_core::AttrId;
    use proptest::prelude::*;

    const W: fn(AttrId) -> u32 = |_| 8;
    fn f(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn distributes_and_flattens() {
        // f=1; (a + b) → f=1;a + f=1;b
        let p = Pol::Test(f(0), 1u64.into())
            .seq(Pol::Plus(Box::new(Pol::act("a")), Box::new(Pol::act("b"))));
        let c = canonicalize(&p);
        assert!(is_openflow_nf(&c));
        assert!(semantically_equal(&p, &c, &W).is_ok());
    }

    #[test]
    fn drops_dead_branches() {
        let p = Pol::Plus(
            Box::new(Pol::Drop.seq(Pol::act("dead"))),
            Box::new(Pol::act("live")),
        );
        let c = canonicalize(&p);
        assert_eq!(c, Pol::act("live"));
    }

    #[test]
    fn tests_hoisted_before_actions() {
        // act; f=1 (commutable) → f=1; act
        let p = Pol::Seq(
            Box::new(Pol::act("x")),
            Box::new(Pol::Test(f(0), 1u64.into())),
        );
        let c = canonicalize(&p);
        assert!(is_openflow_nf(&c));
        assert!(semantically_equal(&p, &c, &W).is_ok());
    }

    #[test]
    fn same_field_mod_test_not_commuted() {
        // f<-1; f=1 must NOT be reordered to f=1; f<-1 (different meaning).
        let p = Pol::Seq(
            Box::new(Pol::Mod(f(0), 1)),
            Box::new(Pol::Test(f(0), 1u64.into())),
        );
        let c = canonicalize(&p);
        assert!(semantically_equal(&p, &c, &W).is_ok());
        // Not in OF-NF (test after mod on the same field is irreducible in
        // this fragment without the Mod-Test axiom).
        assert!(!is_openflow_nf(&c));
    }

    #[test]
    fn compiled_tables_are_already_canonical() {
        use mapro_core::{ActionSem, Catalog, Pipeline, Table, Value};
        let mut cat = Catalog::new();
        let fd = cat.field("f", 8);
        let out = cat.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![fd], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2)], vec![Value::sym("b")]);
        let p = Pipeline::single(cat, t);
        let pol = crate::compile::compile_pipeline(&p).unwrap();
        assert!(is_openflow_nf(&pol));
        assert_eq!(canonicalize(&pol), pol);
    }

    fn arb_atom() -> impl Strategy<Value = Pol> {
        prop_oneof![
            Just(Pol::Drop),
            Just(Pol::Id),
            (0u32..3, 0u64..4).prop_map(|(fi, v)| Pol::Test(f(fi), v.into())),
            (0u32..3, 0u64..4).prop_map(|(fi, v)| Pol::Mod(f(fi), v)),
            (0u32..2).prop_map(|i| Pol::act(format!("a{i}"))),
        ]
    }

    fn arb_pol() -> impl Strategy<Value = Pol> {
        arb_atom().prop_recursive(3, 20, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(p, q)| Pol::Seq(Box::new(p), Box::new(q))),
                (inner.clone(), inner).prop_map(|(p, q)| Pol::Plus(Box::new(p), Box::new(q))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_canonicalize_preserves_semantics(p in arb_pol()) {
            let c = canonicalize(&p);
            prop_assert!(semantically_equal(&p, &c, &W).is_ok());
        }

        #[test]
        fn prop_canonical_has_no_plus_under_seq(p in arb_pol()) {
            fn ok(p: &Pol) -> bool {
                match p {
                    Pol::Plus(a, b) => ok(a) && ok(b),
                    Pol::Seq(a, b) => no_plus(a) && no_plus(b),
                    _ => true,
                }
            }
            fn no_plus(p: &Pol) -> bool {
                match p {
                    Pol::Plus(..) => false,
                    Pol::Seq(a, b) => no_plus(a) && no_plus(b),
                    _ => true,
                }
            }
            prop_assert!(ok(&canonicalize(&p)));
        }

        #[test]
        fn prop_canonicalize_idempotent(p in arb_pol()) {
            let c = canonicalize(&p);
            prop_assert_eq!(canonicalize(&c), c);
        }
    }
}
