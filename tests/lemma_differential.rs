//! Heath's lemma against the decision diagrams. The split fuzzer's
//! generator (`tests/common/spec.rs`) draws 1NF tables with a planted
//! dependency; each is split along it under every join (FD shapes A–D),
//! by an MVD, a binary JD and constant factoring, with `allow_non_1nf`
//! so that Fig. 3's shape reaches the lemma too. Wherever
//! `mapro_normalize::heath_lemma` applies, its verdict must be
//! `mapro_sym::check_equivalent`'s, on the split as made and on a copy
//! with one stage cell mutated. The test prints how often each fallback
//! cause fired (`--nocapture`).

mod common;

use common::spec::{arb_spec, build, ColKind, Spec};
use mapro::core::{ActionSem, AttrId, AttrKind, EquivConfig, Pipeline, Value};
use mapro::normalize::{heath_lemma, split, FactorPlacement, JoinKind, Lemma, Split, SplitOpts};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;

/// Specs drawn; each yields up to ten splits and as many mutants.
const CASES: usize = 640;

/// What the suite saw, by licence (FD shapes by letter) and outcome.
#[derive(Default)]
struct Tally {
    splits: BTreeMap<String, usize>,
    outcomes: BTreeMap<String, usize>,
}

impl Tally {
    fn bump(map: &mut BTreeMap<String, usize>, key: String) {
        *map.entry(key).or_default() += 1;
    }
}

/// The FD's stage layout (`split`'s module docs): which side holds
/// actions decides it.
fn shape(p: &Pipeline, x: &[AttrId], y: &[AttrId]) -> &'static str {
    let action = |a: &AttrId| p.catalog.attr(*a).kind.is_action();
    let (ax, ay, fy) = (
        x.iter().any(action),
        y.iter().any(action),
        !y.iter().all(action),
    );
    match (ax, ay, fy) {
        (false, false, _) => "fd-A",
        (_, _, false) => "fd-B",
        (true, _, _) => "fd-C",
        (false, true, true) => "fd-D",
    }
}

/// Hold the lemma to the diagram on `(p, q)`; `what` names the case.
fn compare(p: &Pipeline, q: &Pipeline, what: &str, tally: &mut Tally) {
    let lemma = heath_lemma(p, "t", &q.catalog, &q.tables);
    let outcome = match mapro::sym::check_equivalent(p, q, &EquivConfig::default()) {
        Ok(outcome) => outcome,
        Err(_) => return Tally::bump(&mut tally.outcomes, format!("{what} unchecked")),
    };
    let key = match lemma {
        Lemma::Holds | Lemma::Refuted => {
            assert_eq!(
                lemma == Lemma::Holds,
                outcome.is_equivalent(),
                "{what}: the lemma says {lemma:?}, the diagram {outcome:?}\n{p:?}\n{q:?}"
            );
            format!("{lemma:?}").to_lowercase()
        }
        Lemma::Fallback(cause) => format!("fallback.{}", cause.name()),
    };
    Tally::bump(&mut tally.outcomes, format!("{what} {key}"));
}

/// `q` with one stage cell changed, the `pick`-th of all its cells:
/// a match cell to another value, an action to another parameter, a
/// jump to another stage.
fn mutate(q: &Pipeline, pick: usize) -> Pipeline {
    let mut m = q.clone();
    let cells: Vec<(usize, usize, usize, bool)> = q
        .tables
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            (0..t.len()).flat_map(move |r| {
                let matches = (0..t.match_attrs.len()).map(move |c| (ti, r, c, true));
                matches.chain((0..t.action_attrs.len()).map(move |c| (ti, r, c, false)))
            })
        })
        .collect();
    if cells.is_empty() {
        return m;
    }
    let (ti, r, c, is_match) = cells[pick % cells.len()];
    let other_stage = q.tables[(ti + 1) % q.tables.len()].name.clone();
    let t = &mut m.tables[ti];
    if is_match {
        let cell = &mut t.entries[r].matches[c];
        *cell = match cell {
            Value::Int(v) => Value::Int(*v ^ 1),
            _ => Value::Int(0),
        };
    } else {
        let kind = q.catalog.attr(t.action_attrs[c]).kind.clone();
        let cell = &mut t.entries[r].actions[c];
        *cell = match (kind, &*cell) {
            (AttrKind::Action(ActionSem::Goto), _) => Value::sym(other_stage),
            (AttrKind::Action(ActionSem::SetField(_)), Value::Int(v)) => Value::Int(*v ^ 1),
            (AttrKind::Action(ActionSem::SetField(_)), _) => Value::Int(0),
            (_, Value::Sym(s)) => Value::sym(format!("{s}'")),
            _ => Value::sym("z"),
        };
    }
    m
}

/// Every split of one drawn spec, with its mutant.
fn one_spec(spec: &Spec, pick: usize, tally: &mut Tally) {
    let n = spec.kinds.len();
    let det = spec.det;
    let dep = if spec.dep == det {
        (det + 1) % n
    } else {
        spec.dep
    };
    // A second dependent column, planted on its own copy, for `X → YY'`
    // (shape D when it mixes a field and an action).
    let dep2 = (0..n)
        .find(|&i| i != det && i != dep)
        .expect("three columns");
    let mut wide = spec.clone();
    for row in wide.rows.iter_mut() {
        row[dep] = (row[det] * 7 + 3) % 4;
        row[dep2] = (row[det] * 5 + 1) % 4;
    }
    // A constant column, for `∅ → C`.
    let mut constant = spec.clone();
    for row in constant.rows.iter_mut() {
        row[pick % n] = 1;
    }
    let mut splits: Vec<(Pipeline, Split, String)> = Vec::new();
    if let Some((p, ids)) = build(&wide) {
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            for y in [vec![ids[dep]], vec![ids[dep], ids[dep2]]] {
                let x = vec![ids[det]];
                let label = format!("{} {join}", shape(&p, &x, &y));
                splits.push((p.clone(), Split::Fd { x, y, join }, label));
            }
        }
        if spec.kinds[det] == ColKind::Field {
            let mvd = Split::Mvd {
                x: vec![ids[det]],
                y: vec![ids[dep]],
            };
            splits.push((p.clone(), mvd, "mvd".into()));
        }
        let cut = 1 + pick % (n - 1);
        let first: Vec<AttrId> = ids[..cut].to_vec();
        let second: Vec<AttrId> = std::iter::once(ids[0])
            .chain(ids[cut..].iter().copied())
            .collect();
        splits.push((p, Split::Jd(vec![first, second]), "jd".into()));
    }
    if let Some((p, _)) = build(&constant) {
        for placement in [FactorPlacement::Before, FactorPlacement::After] {
            let how = Split::Constant {
                only: None,
                placement,
            };
            splits.push((p.clone(), how, "constant".into()));
        }
    }
    let opts = SplitOpts {
        allow_non_1nf: true,
        ..SplitOpts::default()
    };
    for (p, how, label) in splits {
        match split(&p, "t", &how, &opts) {
            Ok(q) => {
                Tally::bump(&mut tally.splits, label.clone());
                compare(&p, &q, "made", tally);
                compare(&p, &mutate(&q, pick / 7), "mutated", tally);
            }
            Err(e) => {
                let reason = format!("{e:?}");
                let reason = reason.split([' ', '(', '{']).next().unwrap_or("");
                Tally::bump(&mut tally.splits, format!("{label} refused {reason}"));
            }
        }
    }
}

#[test]
fn the_lemma_returns_the_diagrams_verdict_wherever_it_applies() {
    let specs = (arb_spec(), any::<usize>());
    let mut rng = TestRng::for_test("lemma_differential");
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let (spec, pick) = specs.sample(&mut rng);
        one_spec(&spec, pick, &mut tally);
    }
    eprintln!("splits made or refused: {:#?}", tally.splits);
    eprintln!("lemma outcomes: {:#?}", tally.outcomes);
    // Every licence and FD shape reached the lemma, and the lemma decided
    // both ways on made and mutated splits alike.
    for label in ["fd-A", "fd-B", "fd-C", "fd-D", "mvd", "jd", "constant"] {
        let made: usize = tally
            .splits
            .iter()
            .filter(|(k, _)| k.starts_with(label) && !k.contains("refused"))
            .map(|(_, v)| v)
            .sum();
        assert!(made > 0, "no {label} split was made: {:?}", tally.splits);
    }
    for key in ["made holds", "mutated holds", "mutated refuted"] {
        assert!(
            tally.outcomes.get(key).copied().unwrap_or(0) > 0,
            "never {key}: {:?}",
            tally.outcomes
        );
    }
}
