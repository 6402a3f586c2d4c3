//! Incremental equivalence re-verification under control-plane churn.
//!
//! A full symbolic check recompiles both pipelines on every flow-mod for an
//! update whose observable footprint is one table row. This module keeps an
//! [`IncrementalChecker`] *session* alive across updates instead: both
//! pipelines are compiled once into one decision-diagram manager, the two
//! roots are retained, and each update only re-derives the part of the
//! proof inside the update's *invalidation region* — the cubes
//! [`invalidation_cube`] computes from the same flow-mod footprint
//! (`Pipeline::flowmod_footprint`) the megaflow cache evicts by.
//!
//! ## The session invariant
//!
//! One persistent [`DdEngine`] holds both roots; the shared behavior
//! interner maps equal behaviors to equal terminals across every compile,
//! so root equality stays the exact verdict for the life of the session —
//! in both directions: inequivalence never forces a full recheck, which is
//! what keeps the steady lossless-update state (intent briefly ahead of the
//! switch, then converged again) µs-scale. An update builds its dirty
//! region `D` as a BDD, compiles the new pipeline restricted to `D`
//! ([`DdEngine::compile_within`]), and splices with `root ← ite(D, delta,
//! root)` — the two diagrams agree outside `D` by the invalidation
//! contract. The restricted compile is local: every state it reaches is a
//! subset of `D`, so a table row disjoint from every dirty cube can neither
//! win a region nor shrink the miss set and is skipped before its predicate
//! is built; the per-table ternary rows it tests are kept here and patched
//! entry-wise with the pipelines. Counterexamples come from `first_diff`,
//! whose 0-preferring path order is a function of the diagrams alone, so a
//! session witness is byte-identical to a fresh check's.
//!
//! Every delta leaves its intermediate nodes and memo entries in the
//! arena; the session collects them (`Mgr::gc` over the two roots) whenever
//! the arena has grown past `GC_GROWTH` (4) times what the last collection
//! left, so memory follows the live diagrams, not the run length.
//!
//! ## Fallbacks
//!
//! Some updates cannot be delta-processed: rows naming a table the
//! pipeline doesn't have, a restricted compile reporting [`Unsupported`]
//! (a DD arena overflow included), or a catalog/space drift between the
//! session's pipelines. All of these fall back to a from-scratch rebuild of
//! the session state — counted in `sym.incr.fallbacks` and costed honestly
//! in the returned token's `atoms_rechecked`.

use crate::check::{catalog_guard, concretize};
use crate::compile::{invalidation_cube, FieldSpace, SymConfig, Unsupported};
use crate::cube::Cube;
use crate::ddcover::{match_rows, DdEngine};
use mapro_core::{Counterexample, EquivError, Pipeline, Value};
use mapro_dd::NodeRef;

/// Which pipeline of the session an update applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first pipeline of the pair (the control driver's committed
    /// shadow).
    Left,
    /// The second pipeline (the driver's intended program).
    Right,
}

/// The session's verdict after an update — the incremental mirror of
/// `EquivOutcome`, without the witness (extract one on demand with
/// [`IncrementalChecker::counterexample`], off the µs-scale steady path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The two pipelines agree on every packet of the joint space.
    Equivalent,
    /// At least one disagreement region is non-empty.
    NotEquivalent,
}

impl Verdict {
    /// True on [`Verdict::Equivalent`].
    pub fn is_equivalent(self) -> bool {
        matches!(self, Verdict::Equivalent)
    }

    /// Stable short label for digests and reports: `"eq"` / `"ne"`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Equivalent => "eq",
            Verdict::NotEquivalent => "ne",
        }
    }
}

/// The receipt one update returns: which transaction was proven, under
/// which controller epoch, how much of the proof had to be re-derived,
/// and the verdict. The digest is a deterministic function of the
/// session's update count and the verdict — never of timings — so WAL
/// replays and multi-threaded runs log byte-identical tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofToken {
    /// Controller epoch the proof is fenced to.
    pub epoch: u64,
    /// Transaction id of the update bundle this token certifies.
    pub txn: u64,
    /// Deterministic digest: `incr:<epoch>:<txn>:<checks>:<atoms>:<verdict>`.
    pub digest: String,
    /// Leaf regions re-derived for this proof; the shared node count of
    /// both diagrams when the update fell back to a from-scratch check.
    pub atoms_rechecked: usize,
    /// The session verdict after applying the update.
    pub verdict: Verdict,
}

/// One pipeline of the pair with what the session derives from it.
struct SideState {
    p: Pipeline,
    /// [`match_rows`] of `p`, patched entry-wise by [`SideState::sync`].
    rows: Vec<Vec<Option<Cube>>>,
    /// The behavior MTBDD of `p` in the session's engine.
    root: NodeRef,
}

impl SideState {
    fn new(p: &Pipeline) -> SideState {
        SideState {
            p: p.clone(),
            rows: match_rows(p),
            root: NodeRef::term(0),
        }
    }

    /// Patch the stored pipeline (and its ternary rows) in place to equal
    /// `new`, copying only the cells that differ; returns whether anything
    /// did. At churn rates a full per-update `Pipeline::clone` and row
    /// re-derivation cost more than the delta proof itself; a single-row
    /// flow-mod copies one entry here instead.
    fn sync(&mut self, new: &Pipeline) -> bool {
        let stored = &mut self.p;
        let structural = stored.catalog != new.catalog
            || stored.start != new.start
            || stored.tables.len() != new.tables.len()
            || stored.tables.iter().zip(&new.tables).any(|(s, n)| {
                s.name != n.name
                    || s.match_attrs != n.match_attrs
                    || s.action_attrs != n.action_attrs
                    || s.miss != n.miss
                    || s.next != n.next
                    || s.entries.len() != n.entries.len()
            });
        if structural {
            *stored = new.clone();
            self.rows = match_rows(new);
            return true;
        }
        let mut changed = false;
        for ((st, nt), rows) in stored
            .tables
            .iter_mut()
            .zip(&new.tables)
            .zip(&mut self.rows)
        {
            for ((se, ne), row) in st.entries.iter_mut().zip(&nt.entries).zip(rows) {
                if se.matches != ne.matches {
                    let widths: Vec<u32> = nt
                        .match_attrs
                        .iter()
                        .map(|&a| new.catalog.attr(a).width)
                        .collect();
                    *row = Cube::of(&ne.matches, &widths);
                    se.matches = ne.matches.clone();
                    changed = true;
                }
                if se.actions != ne.actions {
                    se.actions = ne.actions.clone();
                    changed = true;
                }
            }
        }
        changed
    }
}

fn unsup(u: Unsupported) -> EquivError {
    EquivError::SymbolicUnsupported(u.to_string())
}

/// Add the invalidation cubes of a batch of flow-mod rows against `p` to
/// `cubes` (kept free of subsumed members), or return `None` when some row
/// names a table `p` does not have — the caller cannot bound that update's
/// footprint and must recheck fully. Rows whose match cells are
/// unsatisfiable are behavior-invisible and contribute nothing.
fn dirty_cubes(
    p: &Pipeline,
    space: &FieldSpace,
    rows: &[(String, Vec<Value>)],
    cubes: &mut Vec<Cube>,
) -> Option<()> {
    for (table, matches) in rows {
        let t = p.tables.iter().find(|t| t.name == *table)?;
        if t.match_attrs.len() != matches.len() {
            return None;
        }
        let Some(c) = invalidation_cube(p, space, table, matches) else {
            continue;
        };
        if cubes.iter().any(|k| k.subsumes(&c)) {
            continue;
        }
        cubes.retain(|k| !c.subsumes(k));
        cubes.push(c);
    }
    Some(())
}

/// The session collects garbage when the arena holds more than this many
/// times the nodes the last collection (or build) left in it…
const GC_GROWTH: usize = 4;
/// …and never below this many nodes, where a collection would cost more in
/// dropped memo entries than the few KiB it frees.
const GC_FLOOR: usize = 1 << 12;

/// A long-lived equivalence session over a pipeline pair.
///
/// Compile once with [`IncrementalChecker::new`], then feed every
/// flow-mod through [`IncrementalChecker::update`] /
/// [`IncrementalChecker::update_both`]; each call returns a
/// [`ProofToken`] whose verdict is always exactly the verdict a
/// from-scratch [`crate::check_symbolic`] would produce on the same pair
/// (the differential suite asserts this after every mod).
pub struct IncrementalChecker {
    left: SideState,
    right: SideState,
    space: FieldSpace,
    cfg: SymConfig,
    /// The one manager both roots live in (equal roots ⟺ equivalent).
    eng: DdEngine,
    /// Arena size that triggers the next collection.
    gc_at: usize,
    /// Updates processed (including fallbacks); part of every digest.
    checks: u64,
    /// The dirty cubes of the last delta-processed update (empty after a
    /// fallback).
    last_dirty: Vec<Cube>,
    /// Set while the retained roots do not reflect `left`/`right` (a
    /// rebuild failed); the next update re-attempts a full rebuild.
    stale: bool,
}

impl IncrementalChecker {
    /// Compile both pipelines and build the initial proof state. Sessions
    /// always run on decision diagrams; `cfg.backend` is not consulted.
    ///
    /// Pre-registers the `sym.incr.*` metrics so a scrape between
    /// construction and the first update already sees them at zero.
    ///
    /// # Errors
    /// [`EquivError::IncompatibleCatalogs`] when the pipelines disagree on
    /// an attribute, [`EquivError::SymbolicUnsupported`] when the compiler
    /// cannot express them.
    pub fn new(left: &Pipeline, right: &Pipeline, cfg: &SymConfig) -> Result<Self, EquivError> {
        mapro_obs::counter!("sym.incr.checks");
        mapro_obs::counter!("sym.incr.atoms_rechecked");
        mapro_obs::counter!("sym.incr.fallbacks");
        mapro_obs::histogram!("sym.incr.proof_ns");
        let space = FieldSpace::from_pipelines(&[left, right]);
        let mut s = IncrementalChecker {
            left: SideState::new(left),
            right: SideState::new(right),
            eng: DdEngine::new(&space, cfg),
            space,
            cfg: cfg.clone(),
            gc_at: 0,
            checks: 0,
            last_dirty: Vec::new(),
            stale: true,
        };
        s.rebuild()?;
        Ok(s)
    }

    /// The session's left pipeline as last updated.
    pub fn left(&self) -> &Pipeline {
        &self.left.p
    }

    /// The session's right pipeline as last updated.
    pub fn right(&self) -> &Pipeline {
        &self.right.p
    }

    /// The dirty cubes of the last delta-processed update (they may
    /// overlap; none subsumes another); empty after a fallback or
    /// behavior-invisible update.
    pub fn last_dirty(&self) -> &[Cube] {
        &self.last_dirty
    }

    /// What the session's decision-diagram manager has done since the last
    /// from-scratch build; the `dd.*` counters hold all of it whenever a
    /// call into the session has returned.
    pub fn dd_stats(&self) -> mapro_dd::Stats {
        self.eng.mgr.stats()
    }

    /// The current session verdict (exact — see the module invariant).
    pub fn verdict(&self) -> Verdict {
        if self.left.root == self.right.root {
            Verdict::Equivalent
        } else {
            Verdict::NotEquivalent
        }
    }

    /// Concretize a witness for the current [`Verdict::NotEquivalent`]
    /// state (or `None` when equivalent). Kept off the update path so
    /// steady-state proofs never pay evaluator runs. Byte-identical to a
    /// fresh check's witness (`first_diff` path order is a function of the
    /// diagrams alone).
    ///
    /// # Errors
    /// [`EquivError::Eval`] when the witness packet fails to evaluate.
    pub fn counterexample(&self) -> Result<Option<Counterexample>, EquivError> {
        let Some(path) = self.eng.mgr.first_diff(self.left.root, self.right.root) else {
            return Ok(None);
        };
        let rep = self.eng.layout.key_of_path(&path);
        concretize(&self.left.p, &self.right.p, &self.space, &rep).map(Some)
    }

    /// Re-verify after one side changed: `rows` are the `(table, match
    /// row)` pairs the flow-mod touched (see the control crate's
    /// `delta_rows`), `new` is the pipeline after the mod. Returns the
    /// proof token fenced to `epoch`/`txn`.
    ///
    /// # Errors
    /// Hard errors only ([`EquivError::IncompatibleCatalogs`], a failed
    /// rebuild); budget/unsupported conditions fall back internally.
    pub fn update(
        &mut self,
        side: Side,
        new: &Pipeline,
        rows: &[(String, Vec<Value>)],
        epoch: u64,
        txn: u64,
    ) -> Result<ProofToken, EquivError> {
        match side {
            Side::Left => self.apply(Some(new), None, rows, epoch, txn),
            Side::Right => self.apply(None, Some(new), rows, epoch, txn),
        }
    }

    /// Re-verify after the same update bundle was applied to both sides
    /// (the common committed-bundle case: the second side's restricted
    /// compile is answered from the first one's memo entries).
    ///
    /// # Errors
    /// As [`IncrementalChecker::update`].
    pub fn update_both(
        &mut self,
        left: &Pipeline,
        right: &Pipeline,
        rows: &[(String, Vec<Value>)],
        epoch: u64,
        txn: u64,
    ) -> Result<ProofToken, EquivError> {
        self.apply(Some(left), Some(right), rows, epoch, txn)
    }

    fn apply(
        &mut self,
        new_left: Option<&Pipeline>,
        new_right: Option<&Pipeline>,
        rows: &[(String, Vec<Value>)],
        epoch: u64,
        txn: u64,
    ) -> Result<ProofToken, EquivError> {
        let _t = mapro_obs::time!("sym.incr.proof_ns");
        mapro_obs::counter!("sym.incr.checks").inc();
        self.checks += 1;

        // The dirty region is computed against the *pre-update* pipelines:
        // entry edits never change a table's match schema, so the region
        // bounds both the old and the new rows' footprints.
        self.last_dirty.clear();
        let mut bounded = !self.stale;
        for (new, side) in [(new_left, &self.left), (new_right, &self.right)] {
            if bounded && new.is_some() {
                bounded = dirty_cubes(&side.p, &self.space, rows, &mut self.last_dirty).is_some();
            }
        }

        let upd_left = new_left.is_some_and(|p| self.left.sync(p));
        let upd_right = new_right.is_some_and(|p| self.right.sync(p));

        let delta = if bounded
            && FieldSpace::from_pipelines(&[&self.left.p, &self.right.p]) == self.space
        {
            self.delta(upd_left, upd_right).ok()
        } else {
            None
        };
        let atoms_rechecked = match delta {
            Some(n) => n,
            None => self.fallback_recheck()?,
        };

        // The splice and the collection ran after the last compile did.
        self.eng.mgr.publish();
        let verdict = self.verdict();
        mapro_obs::counter!("sym.incr.atoms_rechecked").add(atoms_rechecked as u64);
        let digest = format!(
            "incr:{epoch}:{txn}:{}:{atoms_rechecked}:{}",
            self.checks,
            verdict.label()
        );
        Ok(ProofToken {
            epoch,
            txn,
            digest,
            atoms_rechecked,
            verdict,
        })
    }

    /// Delta-process one update over `last_dirty`. Any error means "fall
    /// back" — the caller rebuilds from scratch, so a half-spliced pair of
    /// roots is safe.
    fn delta(&mut self, upd_left: bool, upd_right: bool) -> Result<usize, Unsupported> {
        // Nothing observable changed on either side: the retained proof
        // (including any disagreement inside the dirty region) is still
        // exact.
        if self.last_dirty.is_empty() || (!upd_left && !upd_right) {
            return Ok(0);
        }
        let _sp = mapro_obs::trace::span("sym.incr.recheck");
        let IncrementalChecker {
            left,
            right,
            space,
            cfg,
            eng,
            last_dirty,
            ..
        } = self;
        let d = eng.region(last_dirty)?;
        let mut work = 0usize;
        for (upd, side) in [(upd_left, &mut *left), (upd_right, &mut *right)] {
            if upd {
                let (delta, leaves) =
                    eng.compile_within(&side.p, space, cfg, d, last_dirty, &side.rows)?;
                side.root = eng.mgr.ite(d, delta, side.root)?;
                work += leaves;
            }
        }
        if eng.mgr.len() > self.gc_at {
            let mut roots = [left.root, right.root];
            eng.mgr.gc(&mut roots);
            [left.root, right.root] = roots;
            self.gc_at = GC_GROWTH * eng.mgr.len().max(GC_FLOOR);
        }
        Ok(work)
    }

    /// A counted fallback: rebuild the whole session state from the
    /// current pipelines.
    fn fallback_recheck(&mut self) -> Result<usize, EquivError> {
        mapro_obs::counter!("sym.incr.fallbacks").inc();
        self.last_dirty.clear();
        self.rebuild()
    }

    /// From-scratch construction of the proof state (initial build and
    /// every fallback) in a fresh engine. Recomputes the joint space, so
    /// sessions survive catalog-compatible pipeline replacements. Returns
    /// the shared node count of the two diagrams. On error the session
    /// stays `stale` and the next update retries the rebuild.
    fn rebuild(&mut self) -> Result<usize, EquivError> {
        self.stale = true;
        self.space = FieldSpace::from_pipelines(&[&self.left.p, &self.right.p]);
        catalog_guard(&self.left.p, &self.right.p, &self.space)?;
        let _sp = mapro_obs::trace::span("sym.incr.recheck");
        self.eng = DdEngine::new(&self.space, &self.cfg);
        for side in [&mut self.left, &mut self.right] {
            side.root = self
                .eng
                .compile(&side.p, &self.space, &self.cfg)
                .map_err(unsup)?;
        }
        self.gc_at = GC_GROWTH * self.eng.mgr.len().max(GC_FLOOR);
        self.stale = false;
        Ok(self.eng.mgr.node_count(&[self.left.root, self.right.root]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_symbolic;
    use mapro_core::{ActionSem, Catalog, EquivOutcome, MissPolicy, Table};

    /// Two-table pipeline: `acl` diverts one `src` to a quarantine port,
    /// everything else falls through to `fwd`, which maps `dst` to a
    /// port. Rich enough that single-row edits have a proper sub-region
    /// footprint.
    fn pair() -> (Pipeline, Pipeline) {
        let mut c = Catalog::new();
        let src = c.field("src", 8);
        let dst = c.field("dst", 8);
        let out = c.action("out", ActionSem::Output);
        let mut acl = Table::new("acl", vec![src], vec![out]);
        acl.row(vec![Value::Int(9)], vec![Value::sym("quarantine")]);
        acl.miss = MissPolicy::Fall("fwd".into());
        let mut fwd = Table::new("fwd", vec![dst], vec![out]);
        for d in 0..4u64 {
            fwd.row(vec![Value::Int(d)], vec![Value::sym(format!("p{d}"))]);
        }
        let p = Pipeline::new(c, vec![acl, fwd], "acl");
        let q = p.clone();
        (p, q)
    }

    /// Rotate the out-port of one `fwd` row; returns the touched row.
    fn mod_port(p: &mut Pipeline, row: usize, port: &str) -> (String, Vec<Value>) {
        let e = &mut p.table_mut("fwd").unwrap().entries[row];
        e.actions[0] = Value::sym(port);
        ("fwd".to_string(), e.matches.clone())
    }

    fn fresh_verdict(l: &Pipeline, r: &Pipeline) -> bool {
        check_symbolic(l, r, &SymConfig::default())
            .unwrap()
            .is_equivalent()
    }

    #[test]
    fn session_tracks_fresh_checks() {
        let (mut l, mut r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &SymConfig::default()).unwrap();
        assert!(s.verdict().is_equivalent());
        assert!(s.counterexample().unwrap().is_none());

        // Drift: left-only mod must flip the verdict with a real witness.
        let row = mod_port(&mut l, 1, "p1-new");
        let t = s.update(Side::Left, &l, &[row], 7, 1).unwrap();
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        assert_eq!(t.epoch, 7);
        assert!(!fresh_verdict(&l, &r));
        let cx = s.counterexample().unwrap().expect("witness");
        assert_ne!(cx.left.observable(), cx.right.observable());

        // Converge: the same mod on the right restores equivalence.
        let row = mod_port(&mut r, 1, "p1-new");
        let t = s.update(Side::Right, &r, &[row], 7, 2).unwrap();
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(fresh_verdict(&l, &r));
        assert!(s.counterexample().unwrap().is_none());

        // Steady state: a bundle applied to both sides at once stays
        // equivalent and touches only the mod's region.
        let row_l = mod_port(&mut l, 2, "p2-new");
        let _row_r = mod_port(&mut r, 2, "p2-new");
        let t = s.update_both(&l, &r, &[row_l], 7, 3).unwrap();
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(t.atoms_rechecked > 0, "the mod's region was re-derived");
        assert_eq!(t.digest, format!("incr:7:3:{}:{}:eq", 3, t.atoms_rechecked));
    }

    #[test]
    fn witness_is_byte_equal_to_fresh_check() {
        let (mut l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &SymConfig::default()).unwrap();
        let row = mod_port(&mut l, 0, "p0-new");
        let t = s.update(Side::Left, &l, &[row], 0, 0).unwrap();
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        let session_cx = s.counterexample().unwrap().expect("witness");
        match check_symbolic(&l, &r, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(fresh) => {
                assert_eq!(session_cx.fields, fresh.fields);
            }
            other => panic!("fresh check disagrees: {other:?}"),
        }
    }

    #[test]
    fn unknown_table_rows_fall_back_to_full_recheck() {
        let (l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &SymConfig::default()).unwrap();
        let rows = vec![("nope".to_string(), vec![Value::Int(0)])];
        let t = s.update_both(&l, &r, &rows, 0, 1).unwrap();
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(
            s.last_dirty().is_empty(),
            "fallbacks clear the dirty region"
        );
        // Fallback work is the size of both diagrams, far above a delta's.
        assert!(t.atoms_rechecked >= 5, "fallback reports full-cover work");
    }

    #[test]
    fn behavior_invisible_rows_cost_nothing() {
        let (l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &SymConfig::default()).unwrap();
        let t = s.update_both(&l, &r, &[], 0, 1).unwrap();
        assert_eq!(t.atoms_rechecked, 0);
        assert_eq!(t.verdict, Verdict::Equivalent);
    }

    #[test]
    fn sessions_run_on_diagrams_whatever_backend_the_config_names() {
        let (mut l, r) = pair();
        let cube = SymConfig {
            backend: crate::CoverBackend::Cube,
            ..SymConfig::default()
        };
        let mut s = IncrementalChecker::new(&l, &r, &cube).unwrap();
        let row = mod_port(&mut l, 3, "p3-new");
        s.update(Side::Left, &l, &[row], 0, 1).unwrap();
        let dd_cx = match check_symbolic(&l, &r, &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(cx) => cx,
            other => panic!("fresh check disagrees: {other:?}"),
        };
        assert_eq!(s.counterexample().unwrap().unwrap().fields, dd_cx.fields);
    }

    #[test]
    fn dirty_cubes_bound_the_mod_and_drop_subsumed_members() {
        let (p, _) = pair();
        let space = FieldSpace::from_pipelines(&[&p]);
        let rows = vec![
            ("fwd".to_string(), vec![Value::Int(1)]),
            ("fwd".to_string(), vec![Value::Int(2)]),
            ("fwd".to_string(), vec![Value::Int(1)]),
        ];
        let mut d = Vec::new();
        dirty_cubes(&p, &space, &rows, &mut d).expect("tables known");
        assert_eq!(d.len(), 2, "the repeated row adds nothing: {d:?}");
        let dst = space.coord_of(p.catalog.lookup("dst").unwrap()).unwrap();
        for (c, v) in d.iter().zip([1u64, 2]) {
            assert!(c.0[dst].matches(v) && !c.0[dst].matches(3));
        }
        // A row over the whole table swallows both.
        dirty_cubes(&p, &space, &[("fwd".to_string(), vec![Value::Any])], &mut d).unwrap();
        assert_eq!(d.len(), 1);
        let unknown = [("nope".to_string(), vec![Value::Int(0)])];
        assert!(dirty_cubes(&p, &space, &unknown, &mut d).is_none());
    }
}
