//! The restricted local NetKAT fragment of §3.
//!
//! The paper adopts NetKAT \[1\] "in a severely restricted setting": local,
//! per-switch policies without `*` (iteration) or topology. A policy is
//! built from predicates (`f = v`), modifications (`f ← v`), opaque actions
//! (`out(r)`, `mod_ttl(dec)`, …), sequential composition `;` and parallel
//! composition `+`.
//!
//! Semantics are the standard packet-set semantics: a policy maps a packet
//! to the set of packets it may produce. `Drop` produces the empty set,
//! `Id` the singleton input, `+` unions, `;` composes (Kleisli). Actions
//! accumulate as tokens on the packet, mirroring how the table evaluator's
//! [`mapro_core::Verdict`] records outputs and opaque actions.

use mapro_core::{AttrId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A policy term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pol {
    /// `0` — drop everything.
    Drop,
    /// `1` — pass the packet unchanged.
    Id,
    /// Predicate `f = v`. The paper's theory assumes exact matches; we
    /// allow any interval-shaped [`Value`] so the figure pipelines (which
    /// use prefixes) can be compiled and checked, treating the value as an
    /// opaque predicate.
    Test(AttrId, Value),
    /// Modification `f ← v`.
    Mod(AttrId, u64),
    /// Opaque action token (e.g. `out(vm1)`), accumulated on the packet.
    Act(Arc<str>),
    /// Sequential composition `p; q`.
    Seq(Box<Pol>, Box<Pol>),
    /// Parallel composition `p + q`.
    Plus(Box<Pol>, Box<Pol>),
}

impl Pol {
    /// `p; q`, folding the units `1` and the annihilator `0` on the fly to
    /// keep constructed derivations readable.
    pub(crate) fn seq(self, q: Pol) -> Pol {
        match (self, q) {
            (Pol::Id, q) => q,
            (p, Pol::Id) => p,
            (Pol::Drop, _) | (_, Pol::Drop) => Pol::Drop,
            (p, q) => Pol::Seq(Box::new(p), Box::new(q)),
        }
    }

    /// `p + q`, folding `0`.
    pub(crate) fn plus(self, q: Pol) -> Pol {
        match (self, q) {
            (Pol::Drop, q) => q,
            (p, Pol::Drop) => p,
            (p, q) => Pol::Plus(Box::new(p), Box::new(q)),
        }
    }

    /// Σ of policies (right-nested), `0` when empty.
    pub(crate) fn sum(terms: impl IntoIterator<Item = Pol>) -> Pol {
        let mut terms: Vec<Pol> = terms.into_iter().collect();
        match terms.pop() {
            None => Pol::Drop,
            Some(last) => terms.into_iter().rev().fold(last, |acc, t| t.plus(acc)),
        }
    }

    /// Sequence of policies (right-nested), `1` when empty.
    pub(crate) fn sequence(terms: impl IntoIterator<Item = Pol>) -> Pol {
        let mut terms: Vec<Pol> = terms.into_iter().collect();
        match terms.pop() {
            None => Pol::Id,
            Some(last) => terms.into_iter().rev().fold(last, |acc, t| t.seq(acc)),
        }
    }

    /// Shorthand action token.
    pub(crate) fn act(s: impl AsRef<str>) -> Pol {
        Pol::Act(Arc::from(s.as_ref()))
    }

    /// Number of AST nodes (diagnostics, term-size assertions in tests).
    pub fn size(&self) -> usize {
        match self {
            Pol::Drop | Pol::Id | Pol::Test(..) | Pol::Mod(..) | Pol::Act(..) => 1,
            Pol::Seq(p, q) | Pol::Plus(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// All `(field, value)` pairs tested anywhere in the policy. Drives
    /// the finite-domain equivalence check.
    pub(crate) fn tests(&self) -> Vec<(AttrId, Value)> {
        let mut out = Vec::new();
        self.collect_tests(&mut out);
        out
    }

    fn collect_tests(&self, out: &mut Vec<(AttrId, Value)>) {
        match self {
            Pol::Test(f, v) => out.push((*f, v.clone())),
            Pol::Mod(f, v) => out.push((*f, Value::Int(*v))),
            Pol::Seq(p, q) | Pol::Plus(p, q) => {
                p.collect_tests(out);
                q.collect_tests(out);
            }
            _ => {}
        }
    }
}

/// A NetKAT packet: field assignment plus accumulated action tokens.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pk {
    /// Field values; absent fields read as 0.
    pub(crate) fields: BTreeMap<AttrId, u64>,
    /// Action tokens accumulated so far.
    pub(crate) acts: BTreeSet<Arc<str>>,
}

impl Pk {
    /// Read a field (0 when unset).
    pub(crate) fn get(&self, f: AttrId) -> u64 {
        self.fields.get(&f).copied().unwrap_or(0)
    }
}

/// Evaluate a policy on a packet under packet-set semantics.
///
/// `width` supplies each field's bit width (for prefix predicates).
pub(crate) fn eval(pol: &Pol, pk: &Pk, width: &impl Fn(AttrId) -> u32) -> BTreeSet<Pk> {
    match pol {
        Pol::Drop => BTreeSet::new(),
        Pol::Id => [pk.clone()].into(),
        Pol::Test(f, v) => {
            if v.matches(pk.get(*f), width(*f)) {
                [pk.clone()].into()
            } else {
                BTreeSet::new()
            }
        }
        Pol::Mod(f, v) => {
            let mut p = pk.clone();
            p.fields.insert(*f, *v);
            [p].into()
        }
        Pol::Act(a) => {
            let mut p = pk.clone();
            p.acts.insert(a.clone());
            [p].into()
        }
        Pol::Seq(p, q) => {
            let mut out = BTreeSet::new();
            for mid in eval(p, pk, width) {
                out.extend(eval(q, &mid, width));
            }
            out
        }
        Pol::Plus(p, q) => {
            let mut out = eval(p, pk, width);
            out.extend(eval(q, pk, width));
            out
        }
    }
}

/// Decide semantic equality of two policies by exhaustive evaluation over
/// the joint derived domain (one representative per elementary interval per
/// tested field — complete for interval-shaped predicates, as argued in
/// `mapro_core::domain`).
///
/// Returns the distinguishing input packet on failure.
pub(crate) fn semantically_equal(
    a: &Pol,
    b: &Pol,
    width: &impl Fn(AttrId) -> u32,
) -> Result<usize, Box<Pk>> {
    // Gather boundary values per field.
    let mut pts: BTreeMap<AttrId, Vec<u64>> = BTreeMap::new();
    for (f, v) in a.tests().into_iter().chain(b.tests()) {
        let w = width(f);
        let (lo, hi) = v.interval(w).unwrap_or((0, 0)); // Sym predicates match nothing; 0 suffices
        let e = pts.entry(f).or_default();
        e.push(lo);
        if hi < mapro_core::value::low_mask(w) {
            e.push(hi + 1);
        }
    }
    let fields: Vec<(AttrId, Vec<u64>)> = pts
        .into_iter()
        .map(|(f, mut vs)| {
            vs.push(0);
            vs.sort_unstable();
            vs.dedup();
            (f, vs)
        })
        .collect();

    let mut idx = vec![0usize; fields.len()];
    let mut checked = 0usize;
    loop {
        let pk = Pk {
            fields: fields
                .iter()
                .zip(&idx)
                .map(|((f, vs), &i)| (*f, vs[i]))
                .collect(),
            acts: BTreeSet::new(),
        };
        checked += 1;
        if eval(a, &pk, width) != eval(b, &pk, width) {
            return Err(Box::new(pk));
        }
        // Odometer.
        let mut k = fields.len();
        loop {
            if k == 0 {
                return Ok(checked);
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < fields[k].1.len() {
                break;
            }
            idx[k] = 0;
        }
    }
}

impl fmt::Display for Pol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pol::Drop => write!(f, "0"),
            Pol::Id => write!(f, "1"),
            Pol::Test(a, v) => write!(f, "{a}={v}"),
            Pol::Mod(a, v) => write!(f, "{a}<-{v}"),
            Pol::Act(s) => write!(f, "{s}"),
            Pol::Seq(p, q) => write!(f, "({p};{q})"),
            Pol::Plus(p, q) => write!(f, "({p}+{q})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: fn(AttrId) -> u32 = |_| 16;
    fn f(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn drop_and_id() {
        let pk = Pk {
            fields: [(f(0), 5)].into(),
            ..Pk::default()
        };
        assert!(eval(&Pol::Drop, &pk, &W).is_empty());
        assert_eq!(eval(&Pol::Id, &pk, &W), [pk.clone()].into());
    }

    #[test]
    fn test_filters() {
        let pk = Pk {
            fields: [(f(0), 5)].into(),
            ..Pk::default()
        };
        assert!(!eval(&Pol::Test(f(0), 5u64.into()), &pk, &W).is_empty());
        assert!(eval(&Pol::Test(f(0), 6u64.into()), &pk, &W).is_empty());
    }

    #[test]
    fn mod_writes() {
        let pk = Pk {
            fields: [(f(0), 5)].into(),
            ..Pk::default()
        };
        let out = eval(&Pol::Mod(f(0), 9), &pk, &W);
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap().get(f(0)), 9);
    }

    #[test]
    fn act_accumulates() {
        let pk = Pk::default();
        let p = Pol::act("out(vm1)").seq(Pol::act("mod_ttl(dec)"));
        let out = eval(&p, &pk, &W);
        let got = out.iter().next().unwrap();
        assert_eq!(got.acts.len(), 2);
    }

    #[test]
    fn plus_unions() {
        let pk = Pk::default();
        let p = Pol::Mod(f(0), 1).plus(Pol::Mod(f(0), 2));
        assert_eq!(eval(&p, &pk, &W).len(), 2);
    }

    #[test]
    fn seq_composes() {
        let pk = Pk::default();
        let p = Pol::Mod(f(0), 1)
            .seq(Pol::Test(f(0), 1u64.into()))
            .seq(Pol::act("hit"));
        let out = eval(&p, &pk, &W);
        assert_eq!(out.len(), 1);
        assert!(out
            .iter()
            .next()
            .unwrap()
            .acts
            .iter()
            .any(|a| &**a == "hit"));
    }

    #[test]
    fn smart_constructors_fold_units() {
        assert_eq!(Pol::Id.seq(Pol::act("x")), Pol::act("x"));
        assert_eq!(Pol::Drop.seq(Pol::act("x")), Pol::Drop);
        assert_eq!(Pol::Drop.plus(Pol::act("x")), Pol::act("x"));
        assert_eq!(Pol::sum(vec![]), Pol::Drop);
        assert_eq!(Pol::sequence(vec![]), Pol::Id);
    }

    #[test]
    fn semantic_equality_basics() {
        // f=1;f<-2  ==  f=1;f<-2 trivially
        let a = Pol::Test(f(0), 1u64.into()).seq(Pol::Mod(f(0), 2));
        assert!(semantically_equal(&a, &a.clone(), &W).is_ok());
        // f<-2;f=2 == f<-2 (Mod-Test axiom instance)
        let l = Pol::Mod(f(0), 2).seq(Pol::Test(f(0), 2u64.into()));
        let r = Pol::Mod(f(0), 2);
        assert!(semantically_equal(&l, &r, &W).is_ok());
        // f=1 != f=2: counterexample exists
        let l = Pol::Test(f(0), 1u64.into());
        let r = Pol::Test(f(0), 2u64.into());
        let cx = semantically_equal(&l, &r, &W).unwrap_err();
        assert!(cx.get(f(0)) == 1 || cx.get(f(0)) == 2);
    }

    #[test]
    fn prefix_predicates_supported() {
        // f in 1xxx (width 4... use width 16 top bit) vs exact tests
        let wi: fn(AttrId) -> u32 = |_| 4;
        let pfx = Pol::Test(f(0), Value::prefix(0b1000, 1, 4));
        let split = Pol::sum((0b1000..=0b1111u64).map(|v| Pol::Test(f(0), v.into())));
        assert!(semantically_equal(&pfx, &split, &wi).is_ok());
    }

    #[test]
    fn policy_size_and_display() {
        let p = Pol::Test(f(0), 1u64.into())
            .seq(Pol::act("out(a)"))
            .plus(Pol::Drop);
        assert!(p.size() >= 3);
        let s = format!("{p}");
        assert!(s.contains("out(a)"));
    }
}
