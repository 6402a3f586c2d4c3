//! The symbolic full check and the mode-dispatching equivalence front
//! door.
//!
//! Both pipelines are compiled into one decision-diagram manager
//! ([`DdEngine`]) and the two roots are compared: the diagrams are reduced
//! and hash-consed, so equivalence is one pointer comparison, and the cost
//! is independent of field widths instead of a sweep over the (possibly
//! astronomically large) Cartesian packet domain.
//!
//! A disagreement is reported as a concrete [`Counterexample`]: the
//! diagram's 0-preferring `first_diff` path names a representative packet
//! (free bits zero), and both pipelines are re-run on it with the ordinary
//! evaluator, so the reported packet, field listing and verdicts are
//! byte-compatible with the enumerative engine's output (and independently
//! re-checkable).
//!
//! The degrade ladder has one rung: the diagrams, then — under
//! [`EquivMode::Auto`] only — enumeration when they report [`Unsupported`].

use crate::compile::{FieldSpace, SymConfig, Unsupported};
use crate::ddcover::DdEngine;
use mapro_core::{
    CheckMethod, Counterexample, EquivConfig, EquivError, EquivMode, EquivOutcome, Packet, Pipeline,
};

/// Why the symbolic path could not produce a verdict.
enum SymFail {
    /// The program is outside the compiler's fragment (or blew a
    /// budget) — `Auto` mode falls back to the enumerative engine.
    Unsupported(Unsupported),
    /// A hard comparability/evaluation error the fallback engine would
    /// also report — never retried.
    Hard(EquivError),
}

/// Run the symbolic engine only. Public for benchmarks and tests that
/// want the raw engine; most callers should use [`check_equivalent`].
///
/// # Errors
/// [`EquivError::SymbolicUnsupported`] when the program falls outside the
/// compiler's fragment (under [`EquivMode::Auto`] the front door
/// falls back to enumeration instead), plus the same hard errors the
/// enumerative engine reports ([`EquivError::IncompatibleCatalogs`],
/// [`EquivError::Eval`]).
pub fn check_symbolic(
    left: &Pipeline,
    right: &Pipeline,
    sym: &SymConfig,
) -> Result<EquivOutcome, EquivError> {
    symbolic(left, right, sym).map_err(|e| match e {
        SymFail::Unsupported(u) => EquivError::SymbolicUnsupported(u.to_string()),
        SymFail::Hard(e) => e,
    })
}

/// The representative packets symbolic checks construct assign values by
/// attribute id; both programs must agree on what each participating id
/// denotes (same guard, and same error, as the enumerative engine).
/// Shared with [`crate::incremental`], whose sessions perform the same
/// construction across many updates.
pub(crate) fn catalog_guard(
    left: &Pipeline,
    right: &Pipeline,
    space: &FieldSpace,
) -> Result<(), EquivError> {
    for &(attr, _) in &space.coords {
        let l = (attr.index() < left.catalog.len()).then(|| left.catalog.attr(attr));
        let r = (attr.index() < right.catalog.len()).then(|| right.catalog.attr(attr));
        let same = matches!((l, r), (Some(a), Some(b)) if a.name == b.name && a.width == b.width);
        if !same {
            return Err(EquivError::IncompatibleCatalogs {
                attr,
                left: l.map(|a| a.name.clone()),
                right: r.map(|a| a.name.clone()),
            });
        }
    }
    Ok(())
}

fn symbolic(left: &Pipeline, right: &Pipeline, sym: &SymConfig) -> Result<EquivOutcome, SymFail> {
    mapro_obs::counter!("sym.checks").inc();
    let _t = mapro_obs::time!("sym.check_ns");
    let _sp = mapro_obs::trace::span("symbolic");
    let space_span = mapro_obs::trace::span("space");
    let space = FieldSpace::from_pipelines(&[left, right]);
    catalog_guard(left, right, &space).map_err(SymFail::Hard)?;
    drop(space_span);
    symbolic_dd(left, right, &space, sym)
}

/// Concretize a disagreeing region into a counterexample by re-running the
/// ordinary evaluator on a representative coordinate point (one value per
/// space column). Shared with the incremental sessions, so a session
/// witness and a fresh check's are the same packet with the same verdicts.
pub(crate) fn concretize(
    left: &Pipeline,
    right: &Pipeline,
    space: &FieldSpace,
    rep: &[u64],
) -> Result<Counterexample, EquivError> {
    let mut pkt = Packet::zero(&left.catalog);
    for (k, &(attr, _)) in space.coords.iter().enumerate() {
        pkt.set(attr, rep[k]);
    }
    let vl = left.run_indexed(&pkt, &left.name_index())?;
    let vr = right.run_indexed(&pkt, &right.name_index())?;
    debug_assert_ne!(
        vl.observable(),
        vr.observable(),
        "behavior diagrams disagree on a packet that \
         evaluates identically — diagram compilation is unsound"
    );
    let fields = space
        .coords
        .iter()
        .map(|&(a, _)| (left.catalog.name(a).to_owned(), pkt.get(a)))
        .collect();
    Ok(Counterexample {
        packet: pkt,
        fields,
        left: vl,
        right: vr,
    })
}

/// Compile both pipelines into one manager and compare the MTBDD roots —
/// equivalence is a single pointer comparison, and any difference yields a
/// `first_diff` witness path. `packets_checked` reports the shared node
/// count of the two diagrams (the honest measure of work).
fn symbolic_dd(
    left: &Pipeline,
    right: &Pipeline,
    space: &FieldSpace,
    sym: &SymConfig,
) -> Result<EquivOutcome, SymFail> {
    let _sp = mapro_obs::trace::span("symbolic_dd");
    let mut eng = DdEngine::new(space, sym);
    let l = eng
        .compile(left, space, sym)
        .map_err(SymFail::Unsupported)?;
    let r = eng
        .compile(right, space, sym)
        .map_err(SymFail::Unsupported)?;
    if l == r {
        return Ok(EquivOutcome::Equivalent {
            packets_checked: eng.mgr.node_count(&[l, r]),
            exhaustive: true,
            method: CheckMethod::Symbolic,
        });
    }
    let path = eng
        .mgr
        .first_diff(l, r)
        .expect("distinct hash-consed roots must differ somewhere");
    let rep = eng.layout.key_of_path(&path);
    match concretize(left, right, space, &rep) {
        Ok(cx) => Ok(EquivOutcome::Counterexample(Box::new(cx))),
        Err(e) => Err(SymFail::Hard(e)),
    }
}

/// Check whether two pipelines are observationally equivalent — the
/// mode-dispatching front door (re-exported by the `mapro` prelude).
///
/// Dispatch on [`EquivConfig::mode`]:
/// * [`EquivMode::Auto`] — run the symbolic engine; if the program is
///   outside its fragment, fall back to the enumerative engine (counted in
///   `sym.fallbacks`).
///   Hard errors never fall back.
/// * [`EquivMode::Symbolic`] — symbolic only; unsupported constructs are
///   [`EquivError::SymbolicUnsupported`].
/// * [`EquivMode::Enumerate`] — the enumerative cross-check oracle in
///   `mapro-core`, exhaustive up to [`EquivConfig::max_exhaustive`] and
///   sampled beyond it.
///
/// Every equivalent outcome reports how it was decided in
/// [`EquivOutcome::Equivalent::method`]; only sampled verdicts are
/// incomplete.
pub fn check_equivalent(
    left: &Pipeline,
    right: &Pipeline,
    cfg: &EquivConfig,
) -> Result<EquivOutcome, EquivError> {
    check_equivalent_with(left, right, cfg, &SymConfig::default())
}

/// [`check_equivalent`] with explicit symbolic-compiler budgets.
pub fn check_equivalent_with(
    left: &Pipeline,
    right: &Pipeline,
    cfg: &EquivConfig,
    sym: &SymConfig,
) -> Result<EquivOutcome, EquivError> {
    check_equivalent_explain(left, right, cfg, sym).map(|(out, _)| out)
}

/// Why [`EquivMode::Auto`] abandoned the symbolic engine for this check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackInfo {
    /// Stable cause label (`Unsupported::label`): `goto_cycle`,
    /// `unknown_table`, `bad_action_param`, `atom_budget` or
    /// `node_budget`.
    pub cause: &'static str,
    /// Human-readable detail of the unsupported construct.
    pub detail: String,
}

/// [`check_equivalent_with`], additionally reporting *why* the verdict
/// fell back to the enumerative engine (under [`EquivMode::Auto`] only;
/// `None` means the symbolic engine decided, or another mode ran).
///
/// Every fallback increments both the aggregate `sym.fallbacks` counter
/// and a per-cause `sym.fallback.<cause>` counter.
pub fn check_equivalent_explain(
    left: &Pipeline,
    right: &Pipeline,
    cfg: &EquivConfig,
    sym: &SymConfig,
) -> Result<(EquivOutcome, Option<FallbackInfo>), EquivError> {
    let _sp = mapro_obs::trace::span("check");
    match cfg.mode {
        EquivMode::Enumerate => mapro_core::check_equivalent(left, right, cfg).map(|o| (o, None)),
        EquivMode::Symbolic => check_symbolic(left, right, sym).map(|o| (o, None)),
        EquivMode::Auto => match symbolic(left, right, sym) {
            Ok(out) => Ok((out, None)),
            Err(SymFail::Hard(e)) => Err(e),
            Err(SymFail::Unsupported(u)) => {
                let info = FallbackInfo {
                    cause: u.label(),
                    detail: u.to_string(),
                };
                mapro_obs::counter!("sym.fallbacks").inc();
                mapro_obs::registry()
                    .counter(&format!("sym.fallback.{}", info.cause))
                    .inc();
                mapro_obs::trace::instant_kv("fallback", vec![("cause", info.cause.into())]);
                let cfg = EquivConfig {
                    mode: EquivMode::Enumerate,
                    ..cfg.clone()
                };
                mapro_core::check_equivalent(left, right, &cfg).map(|o| (o, Some(info)))
            }
        },
    }
}

/// Convenience wrapper asserting equivalence with default configuration
/// (symbolic with enumerative fallback).
///
/// # Panics
/// Panics with a readable counterexample if the pipelines differ, or on
/// check errors. Intended for tests and transformation verification.
pub fn assert_equivalent(left: &Pipeline, right: &Pipeline) {
    match check_equivalent(left, right, &EquivConfig::default()) {
        Ok(EquivOutcome::Equivalent { .. }) => {}
        Ok(EquivOutcome::Counterexample(cx)) => {
            panic!(
                "pipelines differ on packet {:?}:\n left: {:?}\n right: {:?}",
                cx.fields, cx.left, cx.right
            );
        }
        Err(e) => panic!("equivalence check failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    fn out_table(width: u32, rows: &[(u64, &str)]) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", width);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for &(v, port) in rows {
            t.row(vec![Value::Int(v)], vec![Value::sym(port)]);
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn identical_pipelines_symbolically_equivalent() {
        let a = out_table(8, &[(1, "x"), (2, "y")]);
        let b = out_table(8, &[(1, "x"), (2, "y")]);
        match check_symbolic(&a, &b, &SymConfig::default()).unwrap() {
            EquivOutcome::Equivalent {
                exhaustive, method, ..
            } => {
                assert!(exhaustive, "symbolic verdicts are complete");
                assert_eq!(method, CheckMethod::Symbolic);
            }
            _ => panic!("expected equivalence"),
        }
    }

    #[test]
    fn entry_order_irrelevant_when_disjoint() {
        let a = out_table(8, &[(1, "x"), (2, "y")]);
        let b = out_table(8, &[(2, "y"), (1, "x")]);
        assert!(check_symbolic(&a, &b, &SymConfig::default())
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn differing_output_found_with_concrete_counterexample() {
        let a = out_table(8, &[(1, "x")]);
        let b = out_table(8, &[(1, "y")]);
        match check_symbolic(&a, &b, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(cx) => {
                assert_eq!(cx.fields, vec![("f".to_owned(), 1)]);
                assert_eq!(cx.left.output.as_deref(), Some("x"));
                assert_eq!(cx.right.output.as_deref(), Some("y"));
            }
            _ => panic!("expected counterexample"),
        }
    }

    #[test]
    fn infeasible_width_still_checked_exactly() {
        // 2^64 packets: enumeration (even sampled) could miss the single
        // disagreeing point; the diagram check finds it exactly.
        let a = out_table(64, &[(123_456_789_000, "x")]);
        let b = out_table(64, &[(123_456_789_000, "z")]);
        match check_symbolic(&a, &b, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(cx) => {
                assert_eq!(cx.fields, vec![("f".to_owned(), 123_456_789_000)]);
            }
            _ => panic!("expected counterexample"),
        }
        let c = out_table(64, &[(123_456_789_000, "x")]);
        assert!(check_symbolic(&a, &c, &SymConfig::default())
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn general_ternary_outside_enumerative_fragment_is_checked() {
        // Non-contiguous ternary masks are outside the enumerative
        // domain's decidable fragment; bit-level predicates handle them
        // natively.
        let mk = |port: &str| {
            let mut c = Catalog::new();
            let f = c.field("f", 8);
            let out = c.action("out", ActionSem::Output);
            let mut t = Table::new("t", vec![f], vec![out]);
            t.row(
                vec![Value::Ternary {
                    bits: 0b0100_0001,
                    mask: 0b0101_0101,
                }],
                vec![Value::sym(port)],
            );
            Pipeline::single(c, t)
        };
        let (a, b) = (mk("x"), mk("x"));
        assert!(check_symbolic(&a, &b, &SymConfig::default())
            .unwrap()
            .is_equivalent());
        let c = mk("y");
        let cx = match check_symbolic(&a, &c, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(cx) => cx,
            _ => panic!("expected counterexample"),
        };
        // The representative must actually satisfy the ternary predicate.
        assert_eq!(cx.fields[0].1 & 0b0101_0101, 0b0100_0001);
    }

    #[test]
    fn auto_mode_falls_back_on_blown_budget() {
        let a = out_table(8, &[(1, "x"), (2, "y")]);
        let b = out_table(8, &[(2, "y"), (1, "x")]);
        let tiny = SymConfig {
            max_atoms: 1,
            ..SymConfig::default()
        };
        // Symbolic-only: budget exhaustion is an error...
        assert!(matches!(
            check_equivalent_with(
                &a,
                &b,
                &EquivConfig {
                    mode: EquivMode::Symbolic,
                    ..EquivConfig::default()
                },
                &tiny
            ),
            Err(EquivError::SymbolicUnsupported(_))
        ));
        // ...while Auto silently falls back to the enumerative oracle.
        match check_equivalent_with(&a, &b, &EquivConfig::default(), &tiny).unwrap() {
            EquivOutcome::Equivalent { method, .. } => {
                assert_eq!(method, CheckMethod::Exhaustive);
            }
            _ => panic!("expected equivalence via fallback"),
        }
    }

    #[test]
    fn wide_space_is_decided_exactly() {
        // Four 64-bit fields: 256 joint bits, 2^256 packets — enumeration
        // is absurd; the diagram is as small as the one row.
        let mk = |port: &str| {
            let mut c = Catalog::new();
            let fs: Vec<_> = (0..4).map(|i| c.field(format!("f{i}"), 64)).collect();
            let out = c.action("out", ActionSem::Output);
            let mut t = Table::new("t", fs.clone(), vec![out]);
            t.row(
                vec![Value::Int(7), Value::Any, Value::Any, Value::Any],
                vec![Value::sym(port)],
            );
            Pipeline::single(c, t)
        };
        let (a, b) = (mk("x"), mk("x"));
        match check_symbolic(&a, &b, &SymConfig::default()).unwrap() {
            EquivOutcome::Equivalent {
                exhaustive, method, ..
            } => {
                assert!(exhaustive);
                assert_eq!(method, CheckMethod::Symbolic);
            }
            _ => panic!("expected equivalence"),
        }
        let c = mk("y");
        match check_symbolic(&a, &c, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(cx) => {
                assert_eq!(cx.fields[0], ("f0".to_owned(), 7));
            }
            _ => panic!("expected counterexample"),
        }
    }

    #[test]
    fn front_door_dispatches_all_three_modes() {
        let a = out_table(8, &[(1, "x")]);
        let b = out_table(8, &[(1, "x")]);
        let method_of = |mode| {
            let cfg = EquivConfig {
                mode,
                ..EquivConfig::default()
            };
            match check_equivalent(&a, &b, &cfg).unwrap() {
                EquivOutcome::Equivalent { method, .. } => method,
                _ => panic!("expected equivalence"),
            }
        };
        assert_eq!(method_of(EquivMode::Auto), CheckMethod::Symbolic);
        assert_eq!(method_of(EquivMode::Symbolic), CheckMethod::Symbolic);
        assert_eq!(method_of(EquivMode::Enumerate), CheckMethod::Exhaustive);
    }

    #[test]
    fn incompatible_catalogs_rejected_not_fallen_back() {
        let a = out_table(8, &[(1, "x")]);
        let mut c = Catalog::new();
        let g = c.field("completely_different", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![g], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("x")]);
        let b = Pipeline::single(c, t);
        assert!(matches!(
            check_equivalent(&a, &b, &EquivConfig::default()),
            Err(EquivError::IncompatibleCatalogs { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "pipelines differ")]
    fn assert_equivalent_panics_with_counterexample() {
        let a = out_table(8, &[(1, "x")]);
        let b = out_table(8, &[(1, "y")]);
        assert_equivalent(&a, &b);
    }

    /// The symbolic verdict must agree with the enumerative oracle on a
    /// multi-table program with metadata plumbing and header rewrites.
    #[test]
    fn differential_multi_table() {
        let mk = |swap: bool| {
            let mut c = Catalog::new();
            let f = c.field("f", 4);
            let g = c.field("g", 4);
            let m = c.meta("m", 4);
            let set_m = c.action("set_m", ActionSem::SetField(m));
            let set_g = c.action("set_g", ActionSem::SetField(g));
            let out = c.action("out", ActionSem::Output);
            let mut t0 = Table::new("t0", vec![f], vec![set_m]);
            t0.row(vec![Value::Int(1)], vec![Value::Int(1)]);
            t0.next = Some("t1".into());
            let mut t1 = Table::new("t1", vec![m, g], vec![set_g, out]);
            t1.row(
                vec![Value::Int(1), Value::Any],
                vec![Value::Int(9), Value::sym("a")],
            );
            t1.row(
                vec![Value::Any, Value::Int(2)],
                vec![Value::Any, Value::sym(if swap { "c" } else { "b" })],
            );
            Pipeline::new(c, vec![t0, t1], "t0")
        };
        for (l, r) in [(mk(false), mk(false)), (mk(false), mk(true))] {
            let sym = check_symbolic(&l, &r, &SymConfig::default()).unwrap();
            let enu = mapro_core::check_equivalent(&l, &r, &EquivConfig::default()).unwrap();
            assert_eq!(sym.is_equivalent(), enu.is_equivalent());
        }
    }
}
