//! The split fuzzer's generator: random tables with randomly *kinded*
//! columns (match fields vs output/opaque/set-field actions), a planted
//! dependency `det → dep` and a join kind. `tests/decompose_fuzz.rs` holds
//! `split` to the equivalence checker on them; `tests/lemma_differential.rs`
//! holds Heath's lemma to it.

use mapro_core::{ActionSem, AttrId, Catalog, Entry, Pipeline, Table, Value};
use mapro_normalize::JoinKind;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColKind {
    Field,
    Output,
    Opaque,
    SetField,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub kinds: Vec<ColKind>,
    pub rows: Vec<Vec<u64>>,
    pub det: usize,
    pub dep: usize,
    pub join: JoinKind,
}

pub fn arb_spec() -> impl Strategy<Value = Spec> {
    let kinds = proptest::collection::vec(
        prop_oneof![
            3 => Just(ColKind::Field),
            1 => Just(ColKind::Output),
            1 => Just(ColKind::Opaque),
            1 => Just(ColKind::SetField),
        ],
        3..6,
    )
    .prop_filter("need ≥1 field and ≥2 columns kinds", |ks| {
        ks.iter().filter(|k| **k == ColKind::Field).count() >= 2
    });
    (kinds, 2usize..12, any::<u64>(), 0usize..3)
        .prop_flat_map(|(kinds, nrows, seed, joinsel)| {
            let n = kinds.len();
            let rows =
                proptest::collection::vec(proptest::collection::vec(0u64..4, n), nrows..nrows + 1);
            let det = 0usize..n;
            let dep = 0usize..n;
            (Just(kinds), rows, det, dep, Just(seed), Just(joinsel))
        })
        .prop_map(|(kinds, mut rows, det, dep, _seed, joinsel)| {
            // Plant det → dep: dep value becomes a function of det value.
            if det != dep {
                for row in rows.iter_mut() {
                    row[dep] = (row[det] * 7 + 3) % 4;
                }
            }
            let join = match joinsel {
                0 => JoinKind::Goto,
                1 => JoinKind::Metadata,
                _ => JoinKind::Rematch,
            };
            Spec {
                kinds,
                rows,
                det,
                dep,
                join,
            }
        })
}

pub fn build(spec: &Spec) -> Option<(Pipeline, Vec<AttrId>)> {
    let mut c = Catalog::new();
    // Targets for set-field actions.
    let targets: Vec<_> = (0..spec.kinds.len())
        .map(|i| c.field(format!("t{i}"), 8))
        .collect();
    let ids: Vec<_> = spec
        .kinds
        .iter()
        .enumerate()
        .map(|(i, k)| match k {
            ColKind::Field => c.field(format!("f{i}"), 8),
            ColKind::Output => c.action(format!("out{i}"), ActionSem::Output),
            ColKind::Opaque => c.action(format!("op{i}"), ActionSem::Opaque),
            ColKind::SetField => c.action(format!("set{i}"), ActionSem::SetField(targets[i])),
        })
        .collect();
    let match_ids: Vec<_> = ids
        .iter()
        .zip(&spec.kinds)
        .filter(|(_, k)| **k == ColKind::Field)
        .map(|(id, _)| *id)
        .collect();
    let action_ids: Vec<_> = ids
        .iter()
        .zip(&spec.kinds)
        .filter(|(_, k)| **k != ColKind::Field)
        .map(|(id, _)| *id)
        .collect();
    let mut t = Table::new("t", match_ids, action_ids);
    let mut seen = std::collections::HashSet::new();
    for row in &spec.rows {
        let matches: Vec<Value> = row
            .iter()
            .zip(&spec.kinds)
            .filter(|(_, k)| **k == ColKind::Field)
            .map(|(v, _)| Value::Int(*v))
            .collect();
        if !seen.insert(matches.clone()) {
            continue; // keep 1NF
        }
        let actions: Vec<Value> = row
            .iter()
            .zip(&spec.kinds)
            .filter(|(_, k)| **k != ColKind::Field)
            .map(|(v, k)| match k {
                ColKind::Output | ColKind::Opaque => Value::sym(format!("s{v}")),
                _ => Value::Int(*v),
            })
            .collect();
        t.push(Entry::new(matches, actions));
    }
    if t.is_empty() {
        return None;
    }
    Some((Pipeline::single(c, t), ids))
}
