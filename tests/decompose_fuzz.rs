//! Shape-machinery fuzzing: random tables with randomly *kinded* columns
//! (match fields vs output/opaque/set-field actions), random planted
//! dependencies, random join kinds. Whatever `split` accepts must be
//! semantically equivalent; whatever it refuses must be a structured
//! error. This exercises shapes A–D and the Fig. 3 refusal far beyond the
//! paper's hand-picked instances, and hostile arguments (attributes that
//! are not columns, overlapping or empty sides) on the MVD and JD paths.

use mapro::normalize::{chain_components_naive, SplitError};
use mapro::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum ColKind {
    Field,
    Output,
    Opaque,
    SetField,
}

#[derive(Debug, Clone)]
struct Spec {
    kinds: Vec<ColKind>,
    rows: Vec<Vec<u64>>,
    det: usize,
    dep: usize,
    join: JoinKind,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
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

fn build(spec: &Spec) -> Option<(Pipeline, Vec<mapro::core::AttrId>)> {
    use mapro::core::{ActionSem, Catalog, Table, Value};
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
        t.push(mapro::core::Entry::new(matches, actions));
    }
    if t.is_empty() {
        return None;
    }
    Some((Pipeline::single(c, t), ids))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn decompose_is_sound_or_refuses_with_structure(spec in arb_spec()) {
        prop_assume!(spec.det != spec.dep);
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        let x = vec![ids[spec.det]];
        let y = vec![ids[spec.dep]];
        let fd = Split::Fd { x, y, join: spec.join };
        match split(&p, "t", &fd, &SplitOpts::default()) {
            Ok(q) => {
                // Anything accepted must preserve semantics.
                match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                    EquivOutcome::Equivalent { .. } => {}
                    EquivOutcome::Counterexample(cx) => {
                        prop_assert!(false, "ACCEPTED BUT WRONG: {:?}\nspec {:?}", cx.fields, spec);
                    }
                }
            }
            Err(
                SplitError::FdDoesNotHold { .. }
                | SplitError::StageNot1NF { .. }
                | SplitError::RematchNeedsFieldX
                | SplitError::GotoNotInLastStage
                | SplitError::SourceNot1NF
                | SplitError::OrderSensitiveActionSplit { .. }
                | SplitError::RewriteBeforeMatch { .. }
                | SplitError::BadSides,
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?} for {spec:?}"),
        }
    }

    /// When the planted dependency holds and both sides are fields, every
    /// join kind must accept (Theorem 1's hypothesis) — refusal would be a
    /// completeness bug.
    #[test]
    fn field_to_field_dependencies_always_decompose(mut spec in arb_spec()) {
        // Remap det/dep onto two distinct *field* columns (the generator
        // guarantees at least two), replant, and rebuild.
        let fields: Vec<usize> = spec
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == ColKind::Field)
            .map(|(i, _)| i)
            .collect();
        spec.det = fields[spec.det % fields.len()];
        spec.dep = fields[spec.dep % fields.len()];
        prop_assume!(spec.det != spec.dep);
        for row in spec.rows.iter_mut() {
            row[spec.dep] = (row[spec.det] * 7 + 3) % 4;
        }
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        // Planting happened before 1NF dedup; re-check the FD on the built
        // table (dedup can only remove rows, never break an FD).
        let x = vec![ids[spec.det]];
        let y = vec![ids[spec.dep]];
        let fd = Split::Fd { x, y, join: spec.join };
        let q = split(&p, "t", &fd, &SplitOpts::default());
        prop_assert!(q.is_ok(), "refused field→field FD: {:?} ({spec:?})", q.err());
        assert_equivalent(&p, &q.unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The join-dependency decomposition under the same fuzz: any accepted
    /// split must be equivalent; refusals must be structured. One case in
    /// four names a catalog attribute that is not a column of the table,
    /// which the tagged and the naive chain must both refuse.
    #[test]
    fn decompose_jd_sound_or_refuses(spec in arb_spec(), cut in 1usize..4, hostile in 0usize..4) {
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        let n = ids.len();
        let cut = cut.min(n - 1);
        // Binary split with one shared column (the first) as join glue.
        let mut a: Vec<_> = ids[..cut].to_vec();
        let b: Vec<_> = std::iter::once(ids[0])
            .chain(ids[cut..].iter().copied())
            .collect();
        if a.is_empty() {
            a.push(ids[0]);
        }
        if hostile == 0 {
            let stranger = p.catalog.lookup("t0").expect("set-field target");
            a.push(stranger);
            let comps = [a.clone(), b.clone()];
            let want = Err(SplitError::AttrNotInTable(stranger));
            prop_assert_eq!(split(&p, "t", &Split::Jd(comps.to_vec()), &SplitOpts::default()), want.clone());
            prop_assert_eq!(chain_components_naive(&p, "t", &comps), want);
            return Ok(());
        }
        match split(&p, "t", &Split::Jd(vec![a.clone(), b.clone()]), &SplitOpts::default()) {
            Ok(q) => match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                EquivOutcome::Equivalent { .. } => {}
                EquivOutcome::Counterexample(cx) => {
                    prop_assert!(
                        false,
                        "JD ACCEPTED BUT WRONG: {:?}\nsplit {a:?} | {b:?}\nspec {spec:?}",
                        cx.fields
                    );
                }
            },
            Err(
                SplitError::JoinDependencyDoesNotHold
                | SplitError::StageNot1NF { .. }
                | SplitError::OrderSensitiveActionSplit { .. }
                | SplitError::RewriteBeforeMatch { .. }
                | SplitError::SourceNot1NF
                | SplitError::ComponentsDontCover,
            ) => {}
            Err(e) => prop_assert!(false, "unexpected JD error {e:?}"),
        }
    }

    /// Same for the MVD binary split. One case in four overlaps `X` and
    /// `Y`, one leaves `Y` empty: both are bad sides.
    #[test]
    fn decompose_mvd_sound_or_refuses(spec in arb_spec(), hostile in 0usize..4) {
        prop_assume!(spec.det != spec.dep);
        prop_assume!(spec.kinds[spec.det] == ColKind::Field);
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        let x = vec![ids[spec.det]];
        let y = match hostile {
            0 => vec![ids[spec.det], ids[spec.dep]],
            1 => vec![],
            _ => vec![ids[spec.dep]],
        };
        let bad_sides = hostile < 2;
        match split(&p, "t", &Split::Mvd { x, y }, &SplitOpts::default()) {
            Err(SplitError::BadSides) if bad_sides => {}
            _ if bad_sides => prop_assert!(false, "hostile sides accepted ({spec:?})"),
            Ok(q) => match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                EquivOutcome::Equivalent { .. } => {}
                EquivOutcome::Counterexample(cx) => {
                    prop_assert!(false, "MVD ACCEPTED BUT WRONG: {:?}\nspec {spec:?}", cx.fields);
                }
            },
            Err(
                SplitError::JoinDependencyDoesNotHold
                | SplitError::StageNot1NF { .. }
                | SplitError::OrderSensitiveActionSplit { .. }
                | SplitError::RewriteBeforeMatch { .. }
                | SplitError::SourceNot1NF,
            ) => {}
            Err(e) => prop_assert!(false, "unexpected MVD error {e:?}"),
        }
    }
}
