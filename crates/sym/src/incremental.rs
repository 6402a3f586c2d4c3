//! Incremental equivalence re-verification under control-plane churn.
//!
//! A full symbolic check ([`crate::check`]) recompiles both pipelines on
//! every flow-mod for an update whose observable footprint is one table row.
//! This module keeps an [`IncrementalChecker`] *session* alive across
//! updates instead: both pipelines are compiled once into the same kind of
//! decision-diagram manager the full check uses ([`DdEngine`]), the two
//! roots are retained, and each update only re-derives the part of the
//! proof inside the update's *invalidation region* — the cubes of the
//! flow-mod footprint (`Pipeline::flowmod_footprint`) the megaflow cache
//! evicts by.
//!
//! ## The footprint
//!
//! A flow-mod row's footprint is its cells met with its table's *reach
//! cube*: the ternary hull, over the attributes no table can `SetField`, of
//! every path from the start table — a goto row or a `next` edge passes on
//! its cells ∧ its table's reach, a `Fall` miss passes its table's reach on
//! unchanged. The hull is sound because an unwritten attribute holds the
//! input value at every table, so a packet that reaches the row satisfied
//! every row it hit on the way; a miss says only what the packet is *not*,
//! which no cube can state, so `Fall` carries the predecessor's reach
//! whole. On the goto-normalized form an edit to one service's sub-table
//! therefore dirties that service, where the row's cells alone would dirty
//! its `ip_src` prefix in every service.
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
//! contract. The restricted compile is local: it builds over the dirty
//! cubes, so a table row disjoint from every one of them matches no packet
//! of `D` and is left out before its cube is built (the splice takes the
//! unmasked build, whose nodes outside `D` it never selects).
//! Counterexamples come from `first_diff`, whose 0-preferring
//! path order is a function of the diagrams alone, so a session witness is
//! byte-identical to a fresh check's.
//!
//! The session owns its two pipelines and takes each edit in place: the
//! caller's edit runs on the stored pipeline, and only the ternary rows of
//! the tables the flow-mod names are re-derived — no pipeline is cloned or
//! diffed per update. Each side keeps its reach cubes ([`Reach`]) and
//! recomputes them only after an edit of a table that
//! [moves](Pipeline::moves_reach) them (one with a goto column or `next`).
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
//! (a DD arena overflow included), a catalog/space drift between the
//! session's pipelines, or an edit that failed halfway (the next update).
//! All of these fall back to a from-scratch rebuild of the session state —
//! counted in `sym.incr.fallbacks` and costed honestly in the returned
//! token's `atoms_rechecked`.

use crate::check::{catalog_guard, concretize};
use crate::compile::{FieldSpace, SymConfig, Unsupported};
use crate::cube::{Cube, Tern};
use crate::dd::NodeRef;
use crate::ddcover::{match_rows, DdEngine};
use mapro_core::{Catalog, Counterexample, EquivError, Pipeline, Reach, Table, Value};

/// Which pipelines of the session an update edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first pipeline of the pair (the control driver's committed
    /// shadow).
    Left,
    /// The second pipeline (the driver's intended program).
    Right,
    /// Both, by the same edit (a bundle committed on both sides: the second
    /// side's restricted compile is answered from the first one's memo
    /// entries).
    Both,
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
    pub(crate) fn label(self) -> &'static str {
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
    pub(crate) digest: String,
    /// Leaves built for this proof; the shared node count of both diagrams
    /// when the update fell back to a from-scratch check.
    pub(crate) atoms_rechecked: usize,
    /// The session verdict after applying the update.
    pub verdict: Verdict,
}

/// Why [`IncrementalChecker::update`] returned no proof token.
#[derive(Debug, PartialEq)]
pub enum SessionError<E> {
    /// The caller's edit failed on a stored pipeline. What it left there is
    /// the session's pipeline from now on; the next update rebuilds the
    /// proof from scratch.
    Edit(E),
    /// The re-check failed: [`EquivError::IncompatibleCatalogs`] or a
    /// failed rebuild (budget and unsupported conditions fall back
    /// internally instead).
    Check(EquivError),
}

/// One pipeline of the pair with what the session derives from it.
struct SideState {
    p: Pipeline,
    /// [`match_rows`] of `p`, re-derived per edited table by
    /// [`SideState::edit`].
    rows: Vec<Vec<Option<Cube>>>,
    /// The behavior MTBDD of `p` in the session's engine.
    root: NodeRef,
    /// `p`'s reach cubes: computed when a proof first needs them, and
    /// again only after an edit of a table that
    /// [moves](Pipeline::moves_reach) them.
    reach: Option<Reach>,
}

impl SideState {
    fn new(p: &Pipeline) -> SideState {
        SideState {
            p: p.clone(),
            rows: match_rows(p),
            root: NodeRef::term(0),
            reach: None,
        }
    }

    /// Run `edit` on the stored pipeline, then re-derive the ternary rows
    /// of the tables `rows` names — the only ones an entry-level flow-mod
    /// touches — and drop the reach cubes if one of them moves them. After
    /// a failed edit, which may have stopped halfway, every table's rows
    /// are re-derived and the reach cubes dropped.
    fn edit<E>(
        &mut self,
        rows: &[(String, Vec<Value>)],
        edit: &mut impl FnMut(&mut Pipeline) -> Result<(), E>,
    ) -> Result<(), E> {
        let result = edit(&mut self.p);
        if result.is_err() || self.p.tables.len() != self.rows.len() {
            self.rows = match_rows(&self.p);
            self.reach = None;
            return result;
        }
        for (t, cubes) in self.p.tables.iter().zip(&mut self.rows) {
            if rows.iter().any(|(name, _)| *name == t.name) {
                rederive(&self.p.catalog, t, cubes);
            }
        }
        if rows.iter().any(|(name, _)| self.p.moves_reach(name)) {
            self.reach = None;
        }
        if let Some(reach) = &self.reach {
            debug_assert!(
                *reach == self.p.reach(),
                "an edit moved the reach of a table its flow-mod rows do not name"
            );
        }
        debug_assert!(
            self.rows == match_rows(&self.p),
            "the edit changed a table its flow-mod rows do not name"
        );
        Ok(())
    }
}

/// Re-derive `t`'s ternary rows (`match_rows` of one table) in place. A
/// flow-mod batch re-derives every row of the tables it names — hundreds
/// an update on a universal table — so each row reuses its cube's storage
/// rather than allocating a new one.
fn rederive(catalog: &Catalog, t: &Table, cubes: &mut Vec<Option<Cube>>) {
    cubes.resize(t.entries.len(), None);
    for (e, slot) in t.entries.iter().zip(cubes.iter_mut()) {
        let cube = slot.get_or_insert_with(|| Cube(Vec::with_capacity(e.matches.len())));
        cube.0.clear();
        let mut cells = e.matches.iter().zip(&t.match_attrs);
        let sat = cells.all(|(v, &a)| match v.as_ternary(catalog.attr(a).width) {
            Some((bits, mask)) => {
                cube.0.push(Tern { bits, mask });
                true
            }
            None => false,
        });
        if !sat {
            *slot = None;
        }
    }
}

fn unsup(u: Unsupported) -> EquivError {
    EquivError::SymbolicUnsupported(u.to_string())
}

/// Add the invalidation cubes of a batch of flow-mod rows against `p` to
/// `cubes` (kept free of subsumed members), or return `None` when some row
/// names a table `p` does not have — the caller cannot bound that update's
/// footprint and must recheck fully. Each cube is the row's footprint
/// ([`Reach::footprint`] of `reach`, `p`'s reach cubes) on the space's
/// coordinates (cells on attributes outside the space — metadata — stay
/// wildcard, which is conservative); rows that no packet can reach
/// contribute nothing.
fn dirty_cubes(
    p: &Pipeline,
    reach: &Reach,
    space: &FieldSpace,
    rows: &[(String, Vec<Value>)],
    cubes: &mut Vec<Cube>,
) -> Option<()> {
    for (table, matches) in rows {
        let t = p.tables.iter().find(|t| t.name == *table)?;
        if t.match_attrs.len() != matches.len() {
            return None;
        }
    }
    for cells in reach.footprint(p, rows).into_iter().flatten() {
        let mut c = space.universe();
        for (attr, bits, mask) in cells {
            if let Some(k) = space.coord_of(attr) {
                c.0[k] = Tern { bits, mask };
            }
        }
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
/// flow-mod through [`IncrementalChecker::update`]; each call returns a
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
    /// rebuild or an edit failed); the next update re-attempts a full
    /// rebuild.
    stale: bool,
}

impl IncrementalChecker {
    /// Compile both pipelines and build the initial proof state.
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
    pub fn dd_stats(&self) -> crate::dd::Stats {
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

    /// Concretize a witness for the current `Verdict::NotEquivalent`
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

    /// Apply one flow-mod batch to `side` and re-verify: `edit` runs on the
    /// session's stored pipeline (once per side for [`Side::Both`]) and may
    /// change only entries of the tables `rows` names; `rows` are the
    /// `(table, match row)` pairs the batch touches (the control crate's
    /// `delta_rows`). Returns the proof token fenced to `epoch`/`txn`.
    ///
    /// # Errors
    /// [`SessionError::Edit`] with the edit's own error, after which the
    /// next update rebuilds from scratch; [`SessionError::Check`] for hard
    /// check errors ([`EquivError::IncompatibleCatalogs`], a failed
    /// rebuild) — budget and unsupported conditions fall back internally.
    pub fn update<E>(
        &mut self,
        side: Side,
        rows: &[(String, Vec<Value>)],
        epoch: u64,
        txn: u64,
        mut edit: impl FnMut(&mut Pipeline) -> Result<(), E>,
    ) -> Result<ProofToken, SessionError<E>> {
        let (on_left, on_right) = match side {
            Side::Left => (true, false),
            Side::Right => (false, true),
            Side::Both => (true, true),
        };
        for (on, state) in [(on_left, &mut self.left), (on_right, &mut self.right)] {
            if on {
                if let Err(e) = state.edit(rows, &mut edit) {
                    self.stale = true;
                    self.last_dirty.clear();
                    return Err(SessionError::Edit(e));
                }
            }
        }
        self.prove(on_left, on_right, rows, epoch, txn)
            .map_err(SessionError::Check)
    }

    fn prove(
        &mut self,
        on_left: bool,
        on_right: bool,
        rows: &[(String, Vec<Value>)],
        epoch: u64,
        txn: u64,
    ) -> Result<ProofToken, EquivError> {
        let _t = mapro_obs::time!("sym.incr.proof_ns");
        mapro_obs::counter!("sym.incr.checks").inc();
        self.checks += 1;

        // The dirty region is read off the edited pipelines: a flow-mod
        // changes a packet's fate only from the first table at which the
        // packet meets an edited row, and every table before that one
        // behaves alike before and after the edit, so the footprint bounds
        // the change whichever side of it the reach is taken on.
        self.last_dirty.clear();
        let mut bounded = !self.stale;
        for (on, state) in [(on_left, &mut self.left), (on_right, &mut self.right)] {
            if bounded && on {
                let reach = state.reach.get_or_insert_with(|| state.p.reach());
                bounded =
                    dirty_cubes(&state.p, reach, &self.space, rows, &mut self.last_dirty).is_some();
            }
        }

        let delta = if bounded
            && FieldSpace::from_pipelines(&[&self.left.p, &self.right.p]) == self.space
        {
            self.delta(on_left, on_right).ok()
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
        // No packet can reach an edited row: the retained proof (including
        // any disagreement elsewhere) is still exact.
        if self.last_dirty.is_empty() {
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
                let (delta, leaves) = eng.build(&side.p, space, cfg, d, last_dirty, &side.rows)?;
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
    use std::convert::Infallible;

    /// Two-table pipeline: `acl` diverts one `src` to a quarantine port,
    /// everything else falls through to `fwd`, which maps `dst` to a
    /// port. Rich enough that single-row edits have a proper sub-region
    /// footprint.
    fn pipeline() -> Pipeline {
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
        Pipeline::new(c, vec![acl, fwd], "acl")
    }

    /// Rotate the out-port of `fwd` row `row` (whose match is `dst = row`)
    /// on `side`.
    fn mod_port(
        s: &mut IncrementalChecker,
        side: Side,
        row: usize,
        port: &str,
        txn: u64,
    ) -> ProofToken {
        let rows = [("fwd".to_string(), vec![Value::Int(row as u64)])];
        s.update(side, &rows, 7, txn, |p| {
            p.table_mut("fwd").unwrap().entries[row].actions[0] = Value::sym(port);
            Ok::<_, Infallible>(())
        })
        .unwrap()
    }

    fn fresh_verdict(s: &IncrementalChecker) -> bool {
        check_symbolic(s.left(), s.right(), &SymConfig::default())
            .unwrap()
            .is_equivalent()
    }

    #[test]
    fn session_tracks_fresh_checks() {
        let p = pipeline();
        let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
        assert!(s.verdict().is_equivalent());
        assert!(s.counterexample().unwrap().is_none());

        // Drift: left-only mod must flip the verdict with a real witness.
        let t = mod_port(&mut s, Side::Left, 1, "p1-new", 1);
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        assert_eq!(t.epoch, 7);
        assert!(!fresh_verdict(&s));
        let cx = s.counterexample().unwrap().expect("witness");
        assert_ne!(cx.left.observable(), cx.right.observable());

        // Converge: the same mod on the right restores equivalence.
        let t = mod_port(&mut s, Side::Right, 1, "p1-new", 2);
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(fresh_verdict(&s));
        assert!(s.counterexample().unwrap().is_none());

        // Steady state: a bundle applied to both sides at once stays
        // equivalent and touches only the mod's region.
        let t = mod_port(&mut s, Side::Both, 2, "p2-new", 3);
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert_eq!(s.left(), s.right());
        assert!(t.atoms_rechecked > 0, "the mod's region was re-derived");
        assert_eq!(t.digest, format!("incr:7:3:{}:{}:eq", 3, t.atoms_rechecked));
    }

    #[test]
    fn witness_is_byte_equal_to_fresh_check() {
        let p = pipeline();
        let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
        let t = mod_port(&mut s, Side::Left, 0, "p0-new", 0);
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        let session_cx = s.counterexample().unwrap().expect("witness");
        match check_symbolic(s.left(), s.right(), &SymConfig::default()).unwrap() {
            EquivOutcome::Counterexample(fresh) => {
                assert_eq!(session_cx.fields, fresh.fields);
            }
            other => panic!("fresh check disagrees: {other:?}"),
        }
    }

    #[test]
    fn unknown_table_rows_fall_back_to_full_recheck() {
        let p = pipeline();
        let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
        let rows = vec![("nope".to_string(), vec![Value::Int(0)])];
        let t = s
            .update(Side::Both, &rows, 0, 1, |_| Ok::<_, Infallible>(()))
            .unwrap();
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
        let p = pipeline();
        let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
        let t = s
            .update(Side::Both, &[], 0, 1, |_| Ok::<_, Infallible>(()))
            .unwrap();
        assert_eq!(t.atoms_rechecked, 0);
        assert_eq!(t.verdict, Verdict::Equivalent);
    }

    #[test]
    fn a_failed_edit_is_reported_and_the_next_update_rebuilds() {
        let p = pipeline();
        let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
        let rows = [("fwd".to_string(), vec![Value::Int(3)])];
        // The edit lands its first half on the left, then gives up.
        let err = s
            .update(Side::Left, &rows, 0, 1, |p| {
                p.table_mut("fwd").unwrap().entries[3].actions[0] = Value::sym("half");
                Err("second flow-mod refused")
            })
            .unwrap_err();
        assert_eq!(err, SessionError::Edit("second flow-mod refused"));
        // What the edit left is the session's pipeline: the next update
        // proves it, from scratch.
        let t = mod_port(&mut s, Side::Right, 0, "p0-new", 2);
        assert!(t.atoms_rechecked >= 5, "{t:?}");
        assert!(s.last_dirty().is_empty());
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        assert!(!fresh_verdict(&s));
        let t = mod_port(&mut s, Side::Left, 0, "p0-new", 3);
        assert!(!s.last_dirty().is_empty(), "back on the delta path");
        assert_eq!(t.verdict, Verdict::NotEquivalent, "`half` still differs");
    }

    #[test]
    fn dirty_cubes_bound_the_mod_and_drop_subsumed_members() {
        let p = pipeline();
        let space = FieldSpace::from_pipelines(&[&p]);
        let rows = vec![
            ("fwd".to_string(), vec![Value::Int(1)]),
            ("fwd".to_string(), vec![Value::Int(2)]),
            ("fwd".to_string(), vec![Value::Int(1)]),
        ];
        let mut d = Vec::new();
        dirty_cubes(&p, &p.reach(), &space, &rows, &mut d).expect("tables known");
        assert_eq!(d.len(), 2, "the repeated row adds nothing: {d:?}");
        let dst = space.coord_of(p.catalog.lookup("dst").unwrap()).unwrap();
        for (c, v) in d.iter().zip([1u64, 2]) {
            assert!(c.0[dst].matches(v) && !c.0[dst].matches(3));
        }
        // A row over the whole table swallows both.
        dirty_cubes(
            &p,
            &p.reach(),
            &space,
            &[("fwd".to_string(), vec![Value::Any])],
            &mut d,
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        let unknown = [("nope".to_string(), vec![Value::Int(0)])];
        assert!(dirty_cubes(&p, &p.reach(), &space, &unknown, &mut d).is_none());
    }
}
