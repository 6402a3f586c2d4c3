//! Incremental equivalence re-verification under control-plane churn.
//!
//! A full symbolic check recompiles both covers and cross-intersects every
//! atom pair on every flow-mod — quadratic work for an update whose
//! observable footprint is one table row. This module keeps an
//! [`IncrementalChecker`] *session* alive across updates instead: both
//! pipelines are compiled once, the behavior covers (cube atoms or DD
//! roots) are retained, and each update only re-derives the part of the
//! proof inside the update's *invalidation region* — the cube
//! [`invalidation_cube`] computes from the same flow-mod footprint
//! (`Pipeline::flowmod_footprint`) the megaflow cache evicts by.
//!
//! ## The cube session invariant
//!
//! Alongside the two covers the session maintains the **complete set of
//! disagreement regions**: the meets `lᵢ ∩ rⱼ` of every atom pair whose
//! behaviors differ. Left atoms are pairwise disjoint and so are right
//! atoms, so these meets are pairwise disjoint; the pair is equivalent iff
//! the set is empty. On an update with (disjointified) dirty region `D`:
//!
//! * the updated side's cover is refreshed in place (`refresh_slab`): atoms
//!   not touching `D` survive, touched atoms keep their old behavior on the
//!   residue `atom ∖ D` (sound — by the invalidation contract behavior is
//!   unchanged outside `D`), and `D` itself is re-tiled by a restricted
//!   compile (`compile_within_parts`) over the side's retained partitions;
//! * disagreements outside `D` survive verbatim (`old ∖ D` — neither
//!   side's behavior changed there), and inside `D` they are re-derived by
//!   scanning only the fresh atoms against the atoms they can meet.
//!
//! Because the disagreement set is total, the verdict after every update
//! is *exact* — inequivalence never forces a full recheck, which is what
//! keeps the steady lossless-update state (intent briefly ahead of the
//! switch, then converged again) µs-scale in both directions.
//!
//! ## The DD session invariant
//!
//! One persistent [`DdEngine`] holds both roots; the shared behavior
//! interner maps equal behaviors to equal terminals across every compile,
//! so root equality stays the exact verdict for the life of the session.
//! An update builds `D` as a BDD, compiles the new pipeline restricted to
//! `D`, and splices with `root ← ite(D, delta, root)` — the two diagrams
//! agree outside `D` by the same invalidation contract. Counterexamples
//! come from `first_diff`, whose 0-preferring path order is a function of
//! the diagrams alone, so a session witness is byte-identical to a fresh
//! check's.
//!
//! ## Fallbacks
//!
//! Some updates are not worth (or not sound to) delta-process: rows
//! naming a table the pipeline doesn't have, a dirty region touching more
//! atoms than [`IncrementalChecker::DELTA_BUDGET`], a restricted compile
//! reporting [`Unsupported`], a DD arena overflow (the rebuild doubles as
//! garbage collection), or a catalog/space drift between the sessions'
//! pipelines. All of these fall back to a from-scratch rebuild of the
//! session state — counted in `sym.incr.fallbacks` and costed honestly in
//! the returned token's `atoms_rechecked`.

use crate::check::{catalog_guard, concretize, AUTO_DD_BITS};
use crate::compile::{
    compile, compile_within_parts, invalidation_cube, pipeline_parts, Atom, BehaviorCover,
    CoverBackend, FieldSpace, SymConfig, TablePartition, Unsupported,
};
use crate::cube::Cube;
use crate::ddcover::DdEngine;
use crate::trie::CubeTrie;
use mapro_core::{Counterexample, EquivError, Pipeline, Value};
use mapro_dd::NodeRef;
use std::sync::Arc;

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
    /// Atoms (cube) or leaf regions (DD) re-derived for this proof; the
    /// full cover size when the update fell back to a from-scratch check.
    pub atoms_rechecked: usize,
    /// The session verdict after applying the update.
    pub verdict: Verdict,
}

/// A behavior cover held as a slot slab plus a cube trie over the live
/// atoms. A per-update cover rebuild is `O(atoms)` twice over (vector
/// rebuild + touched scan), which is the entire per-mod cost at tens of
/// thousands of atoms; the slab instead answers "which atoms does this
/// dirty region touch" through the trie and performs slot surgery on
/// exactly those — remove touched, re-insert residues and fresh atoms —
/// so the update cost scales with the footprint, not the cover.
struct SlabCover {
    slots: Vec<Option<Atom>>,
    /// Recycled slot ids (their `slots` entries are `None`).
    free: Vec<u32>,
    /// Live atom count (`slots` minus `free`).
    live: usize,
    trie: CubeTrie,
}

impl SlabCover {
    /// Consume a compiled cover into a slab (slot `i` = atom `i`).
    fn build(cover: BehaviorCover) -> SlabCover {
        let widths: Vec<u32> = cover.space.coords.iter().map(|&(_, w)| w).collect();
        let mut s = SlabCover {
            slots: Vec::with_capacity(cover.atoms.len()),
            free: Vec::new(),
            live: 0,
            trie: CubeTrie::new(&widths),
        };
        for a in cover.atoms {
            s.insert(a);
        }
        s
    }

    fn insert(&mut self, a: Atom) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.trie.insert(&a.cube, slot);
        self.slots[slot as usize] = Some(a);
        self.live += 1;
        slot
    }

    fn remove(&mut self, slot: u32) -> Atom {
        let a = self.slots[slot as usize]
            .take()
            .expect("removing a dead slot");
        self.trie.remove(&a.cube, slot);
        self.free.push(slot);
        self.live -= 1;
        a
    }

    fn atom(&self, slot: u32) -> &Atom {
        self.slots[slot as usize]
            .as_ref()
            .expect("reading a dead slot")
    }

    /// Sorted, deduplicated live slots whose atoms intersect any piece of
    /// `dirty`.
    fn touched_into(&self, dirty: &[Cube], out: &mut Vec<u32>) {
        for d in dirty {
            self.trie.query_into(d, out);
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// How far [`sync_pipeline`] had to go to make the stored side equal the
/// caller's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SideSync {
    /// Byte-identical — the side's cover and partitions are still valid.
    Unchanged,
    /// Only action cells changed: the match partitions stay valid.
    ActionsOnly,
    /// Some match cell changed: the partitions must be re-derived.
    MatchChanged,
    /// Schema-level drift (catalog, wiring, table set, row count): the
    /// stored side was replaced by a full clone.
    Structural,
}

/// Patch `stored` in place to equal `new`, copying only the cells that
/// differ. At churn rates the full per-update `Pipeline::clone` costs as
/// much as the delta proof itself; a single-row flow-mod copies one entry
/// here instead. Returns how much changed, which is also what decides
/// whether the side's cached table partitions survive the update.
fn sync_pipeline(stored: &mut Pipeline, new: &Pipeline) -> SideSync {
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
        return SideSync::Structural;
    }
    let mut sync = SideSync::Unchanged;
    for (st, nt) in stored.tables.iter_mut().zip(&new.tables) {
        for (se, ne) in st.entries.iter_mut().zip(&nt.entries) {
            if se.matches != ne.matches {
                se.matches = ne.matches.clone();
                sync = SideSync::MatchChanged;
            }
            if se.actions != ne.actions {
                se.actions = ne.actions.clone();
                if sync == SideSync::Unchanged {
                    sync = SideSync::ActionsOnly;
                }
            }
        }
    }
    sync
}

/// The retained proof state, per backend.
enum Covers {
    /// Cube backend: both covers as slabs, each side's table partitions
    /// (kept alive so action-only updates recompile without re-deriving
    /// or even digest-probing them), plus the complete, pairwise-disjoint
    /// set of disagreement meets (empty ⟺ equivalent).
    Cube {
        left: SlabCover,
        right: SlabCover,
        parts_left: Vec<Arc<TablePartition>>,
        parts_right: Vec<Arc<TablePartition>>,
        disagreements: Vec<Cube>,
    },
    /// DD backend: one persistent engine (shared interner) and the two
    /// roots (equal ⟺ equivalent).
    Dd {
        eng: DdEngine,
        left: NodeRef,
        right: NodeRef,
    },
}

fn unsup(u: Unsupported) -> EquivError {
    EquivError::SymbolicUnsupported(u.to_string())
}

/// The invalidation cubes of a batch of flow-mod rows (deduplicated by
/// subsumption), or `None` when some row names a table `p` does not have —
/// the caller cannot bound that update's footprint and must recheck fully.
/// Rows whose match cells are unsatisfiable are behavior-invisible and
/// contribute nothing.
fn dirty_cubes(
    p: &Pipeline,
    space: &FieldSpace,
    rows: &[(String, Vec<Value>)],
) -> Option<Vec<Cube>> {
    let mut cubes: Vec<Cube> = Vec::new();
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
    Some(cubes)
}

/// Split possibly-overlapping cubes into pairwise-disjoint pieces with the
/// same union, so downstream subtractions and restricted compiles never
/// double-process a region.
fn disjointify(cubes: Vec<Cube>) -> Vec<Cube> {
    let mut pieces: Vec<Cube> = Vec::new();
    let mut frontier: Vec<Cube> = Vec::new();
    let mut next: Vec<Cube> = Vec::new();
    for c in cubes {
        frontier.clear();
        frontier.push(c);
        for k in pieces.clone() {
            next.clear();
            for f in &frontier {
                f.subtract_into(&k, &mut next);
            }
            std::mem::swap(&mut frontier, &mut next);
            if frontier.is_empty() {
                break;
            }
        }
        pieces.append(&mut frontier);
    }
    pieces
}

/// Subtract every piece of `dirty` from `c`, appending the residues to
/// `out` (double-buffered through `frontier`/`next`).
fn subtract_all(c: &Cube, dirty: &[Cube], out: &mut Vec<Cube>) {
    let mut frontier = vec![c.clone()];
    let mut next: Vec<Cube> = Vec::new();
    for d in dirty {
        next.clear();
        for f in &frontier {
            f.subtract_into(d, &mut next);
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            break;
        }
    }
    out.append(&mut frontier);
}

/// All disagreement meets between two slices of atoms (used over covers or
/// their fresh trailing slices — both inputs pairwise disjoint, so the
/// output is too).
fn disagreement_meets(la: &[Atom], ra: &[Atom], out: &mut Vec<Cube>) {
    for a in la {
        for b in ra {
            if let Some(m) = a.cube.intersect(&b.cube) {
                if a.behavior != b.behavior {
                    out.push(m);
                }
            }
        }
    }
}

/// Chunk size for the parallel cover join (matches the checker's
/// cross-intersection fan-out granularity).
const JOIN_CHUNK: usize = 32;

/// The complete disagreement-meet set of two freshly compiled covers:
/// fixed-size chunks of left atoms each scan the whole right cover, and
/// the per-chunk outputs are concatenated in chunk order — byte-identical
/// to the single-threaded nested scan at any thread count.
fn parallel_disagreements(lc: &BehaviorCover, rc: &BehaviorCover) -> Vec<Cube> {
    let chunks = mapro_par::chunk_ranges(lc.atoms.len(), JOIN_CHUNK);
    let pool = mapro_par::Pool::current();
    let parts = pool.map_ordered(&chunks, |_ci, r| {
        let mut out = Vec::new();
        disagreement_meets(&lc.atoms[r.clone()], &rc.atoms, &mut out);
        out
    });
    parts.into_iter().flatten().collect()
}

/// Disagreement meets of `fresh` atoms of `side` against the atoms of
/// `other` they intersect — found through `other`'s trie, so a one-sided
/// update never scans the unchanged cover. Ascending slot order on both
/// ends keeps the output deterministic.
fn slab_meets(side: &SlabCover, fresh: &[u32], other: &SlabCover, out: &mut Vec<Cube>) {
    let mut cand: Vec<u32> = Vec::new();
    for &fs in fresh {
        let fa = side.atom(fs);
        cand.clear();
        other.trie.query_into(&fa.cube, &mut cand);
        for &os in &cand {
            let oa = other.atom(os);
            if fa.behavior != oa.behavior {
                let m = fa
                    .cube
                    .intersect(&oa.cube)
                    .expect("trie candidates intersect by construction");
                out.push(m);
            }
        }
    }
}

/// Pre-build every partition's piece trie (see
/// [`TablePartition::warm_index`]) so the session's first delta compile
/// doesn't pay the one-off index construction inside a timed proof.
fn warm_parts(p: &Pipeline, parts: &[Arc<TablePartition>]) {
    for (t, part) in p.tables.iter().zip(parts) {
        let widths: Vec<u32> = t
            .match_attrs
            .iter()
            .map(|&a| p.catalog.attr(a).width)
            .collect();
        part.warm_index(&widths);
    }
}

/// In-place slab surgery for one updated side: remove the touched atoms,
/// re-insert their residues outside `dirty` (behavior unchanged there by
/// the invalidation contract), re-tile `dirty` itself by restricted
/// compiles over the side's cached partitions, and return the fresh
/// atoms' slots. Errors mean "fall back"; the caller rebuilds from
/// scratch, so a partially mutated slab is safe.
fn refresh_slab(
    slab: &mut SlabCover,
    p_new: &Pipeline,
    space: &FieldSpace,
    cfg: &SymConfig,
    parts: &[Arc<TablePartition>],
    dirty: &[Cube],
    touched: &[u32],
) -> Result<Vec<u32>, Unsupported> {
    let mut span = mapro_obs::trace::span_kv(
        "sym.incr.delta_compile",
        vec![("pieces", dirty.len().into())],
    );
    let mut residues: Vec<Cube> = Vec::new();
    for &slot in touched {
        let a = slab.remove(slot);
        residues.clear();
        subtract_all(&a.cube, dirty, &mut residues);
        for cube in residues.drain(..) {
            slab.insert(Atom {
                cube,
                behavior: a.behavior.clone(),
            });
        }
    }
    let mut fresh = Vec::new();
    for d in dirty {
        for a in compile_within_parts(p_new, space, cfg, d.clone(), parts.to_vec())? {
            fresh.push(slab.insert(a));
        }
    }
    if slab.live > cfg.max_atoms {
        return Err(Unsupported::AtomBudget);
    }
    span.set("fresh", fresh.len());
    Ok(fresh)
}

/// A long-lived equivalence session over a pipeline pair.
///
/// Compile once with [`IncrementalChecker::new`], then feed every
/// flow-mod through [`IncrementalChecker::update`] /
/// [`IncrementalChecker::update_both`]; each call returns a
/// [`ProofToken`] whose verdict is always exactly the verdict a
/// from-scratch [`crate::check_symbolic`] would produce on the same pair
/// (the differential suite asserts this after every mod).
pub struct IncrementalChecker {
    left: Pipeline,
    right: Pipeline,
    space: FieldSpace,
    cfg: SymConfig,
    /// The resolved backend (never `Auto`; `Auto` resolves at build time
    /// and may flip Cube → Dd when a cube budget blows).
    backend: CoverBackend,
    /// Whether budget blowups may flip the backend (i.e. the caller asked
    /// for `Auto`).
    auto: bool,
    covers: Covers,
    /// Updates processed (including fallbacks); part of every digest.
    checks: u64,
    /// The dirty region of the last delta-processed update (empty after a
    /// fallback).
    last_dirty: Vec<Cube>,
    /// Set while the retained covers do not reflect `left`/`right` (a
    /// rebuild failed); the next update re-attempts a full rebuild.
    stale: bool,
}

impl IncrementalChecker {
    /// Fallback threshold: an update whose dirty region intersects more
    /// retained atoms (both sides) than this — or arrives as more
    /// disjoint pieces — is cheaper to re-prove from scratch than to
    /// subtract piecewise.
    pub const DELTA_BUDGET: usize = 4096;

    /// Compile both pipelines and build the initial proof state.
    ///
    /// Pre-registers the `sym.incr.*` metrics so a scrape between
    /// construction and the first update already sees them at zero.
    ///
    /// # Errors
    /// [`EquivError::IncompatibleCatalogs`] when the pipelines disagree on
    /// an attribute, [`EquivError::SymbolicUnsupported`] when the resolved
    /// backend cannot express them.
    pub fn new(left: &Pipeline, right: &Pipeline, cfg: &SymConfig) -> Result<Self, EquivError> {
        mapro_obs::counter!("sym.incr.checks");
        mapro_obs::counter!("sym.incr.atoms_rechecked");
        mapro_obs::counter!("sym.incr.fallbacks");
        mapro_obs::histogram!("sym.incr.proof_ns");
        let space = FieldSpace::from_pipelines(&[left, right]);
        catalog_guard(left, right, &space)?;
        let bits: u32 = space.coords.iter().map(|&(_, w)| w).sum();
        let (backend, auto) = match cfg.backend {
            CoverBackend::Cube => (CoverBackend::Cube, false),
            CoverBackend::Dd => (CoverBackend::Dd, false),
            CoverBackend::Auto if bits > AUTO_DD_BITS => (CoverBackend::Dd, false),
            CoverBackend::Auto => (CoverBackend::Cube, true),
        };
        let mut s = IncrementalChecker {
            left: left.clone(),
            right: right.clone(),
            space: space.clone(),
            cfg: cfg.clone(),
            backend,
            auto,
            covers: Covers::Cube {
                left: SlabCover::build(BehaviorCover {
                    space: space.clone(),
                    atoms: Vec::new(),
                }),
                right: SlabCover::build(BehaviorCover {
                    space,
                    atoms: Vec::new(),
                }),
                parts_left: Vec::new(),
                parts_right: Vec::new(),
                disagreements: Vec::new(),
            },
            checks: 0,
            last_dirty: Vec::new(),
            stale: true,
        };
        s.rebuild()?;
        Ok(s)
    }

    /// The session's left pipeline as last updated.
    pub fn left(&self) -> &Pipeline {
        &self.left
    }

    /// The session's right pipeline as last updated.
    pub fn right(&self) -> &Pipeline {
        &self.right
    }

    /// The (disjoint) dirty region of the last delta-processed update;
    /// empty after a fallback or behavior-invisible update.
    pub fn last_dirty(&self) -> &[Cube] {
        &self.last_dirty
    }

    /// The current session verdict (exact — see the module invariants).
    pub fn verdict(&self) -> Verdict {
        match &self.covers {
            Covers::Cube { disagreements, .. } if disagreements.is_empty() => Verdict::Equivalent,
            Covers::Cube { .. } => Verdict::NotEquivalent,
            Covers::Dd { left, right, .. } if left == right => Verdict::Equivalent,
            Covers::Dd { .. } => Verdict::NotEquivalent,
        }
    }

    /// Concretize a witness for the current [`Verdict::NotEquivalent`]
    /// state (or `None` when equivalent). Kept off the update path so
    /// steady-state proofs never pay evaluator runs.
    ///
    /// DD witnesses are byte-identical to a fresh check's (`first_diff`
    /// path order is a function of the diagrams alone). Cube witnesses
    /// are confirmed-real representatives of a disagreement region, but a
    /// fresh compile may decompose atoms differently and report a
    /// different (equally valid) packet.
    ///
    /// # Errors
    /// [`EquivError::Eval`] when the witness packet fails to evaluate.
    pub fn counterexample(&self) -> Result<Option<Counterexample>, EquivError> {
        match &self.covers {
            Covers::Cube { disagreements, .. } => {
                let Some(c) = disagreements.first() else {
                    return Ok(None);
                };
                concretize(&self.left, &self.right, &self.space, &c.representative()).map(Some)
            }
            Covers::Dd { eng, left, right } => {
                if left == right {
                    return Ok(None);
                }
                let path = eng
                    .mgr
                    .first_diff(*left, *right)
                    .expect("distinct hash-consed roots must differ somewhere");
                let rep = eng.layout.key_of_path(&path);
                concretize(&self.left, &self.right, &self.space, &rep).map(Some)
            }
        }
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
    /// (the common committed-bundle case: the dirty regions coincide and
    /// the delta scan is fresh × fresh).
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
        let dirty = if self.stale {
            None
        } else {
            let mut raw: Vec<Cube> = Vec::new();
            let mut ok = true;
            for (changed, p) in [
                (new_left.is_some(), &self.left),
                (new_right.is_some(), &self.right),
            ] {
                if !changed {
                    continue;
                }
                match dirty_cubes(p, &self.space, rows) {
                    Some(cs) => {
                        for c in cs {
                            if raw.iter().any(|k| k.subsumes(&c)) {
                                continue;
                            }
                            raw.retain(|k| !c.subsumes(k));
                            raw.push(c);
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            ok.then(|| disjointify(raw))
        };

        // Entry-wise sync instead of a full clone: a single-row mod copies
        // one entry; the returned precision also decides whether the
        // side's cached partitions survive.
        let sync_l = match new_left {
            Some(p) => sync_pipeline(&mut self.left, p),
            None => SideSync::Unchanged,
        };
        let sync_r = match new_right {
            Some(p) => sync_pipeline(&mut self.right, p),
            None => SideSync::Unchanged,
        };

        let atoms_rechecked = match dirty {
            Some(dirty) if FieldSpace::from_pipelines(&[&self.left, &self.right]) == self.space => {
                self.last_dirty = dirty.clone();
                match self.delta(sync_l, sync_r, &dirty) {
                    Ok(n) => n,
                    Err(_) => self.fallback_recheck()?,
                }
            }
            _ => self.fallback_recheck()?,
        };

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

    /// Delta-process one update. Any error means "fall back" — the caller
    /// rebuilds from scratch, so partial cover mutations here are safe.
    fn delta(
        &mut self,
        sync_l: SideSync,
        sync_r: SideSync,
        dirty: &[Cube],
    ) -> Result<usize, Unsupported> {
        let upd_left = sync_l != SideSync::Unchanged;
        let upd_right = sync_r != SideSync::Unchanged;
        // Nothing observable changed on either side: the retained proof
        // (including any disagreements inside `dirty`) is still exact.
        if dirty.is_empty() || (!upd_left && !upd_right) {
            return Ok(0);
        }
        if dirty.len() > Self::DELTA_BUDGET {
            return Err(Unsupported::AtomBudget);
        }
        let IncrementalChecker {
            left,
            right,
            space,
            cfg,
            covers,
            ..
        } = self;
        match covers {
            Covers::Cube {
                left: lc,
                right: rc,
                parts_left,
                parts_right,
                disagreements,
            } => {
                let mut touched_l: Vec<u32> = Vec::new();
                let mut touched_r: Vec<u32> = Vec::new();
                lc.touched_into(dirty, &mut touched_l);
                rc.touched_into(dirty, &mut touched_r);
                if touched_l.len() + touched_r.len() > Self::DELTA_BUDGET {
                    return Err(Unsupported::AtomBudget);
                }
                // Action-only updates keep the match partitions; a match
                // edit re-derives them (digest-cached for untouched
                // tables).
                if matches!(sync_l, SideSync::MatchChanged | SideSync::Structural) {
                    *parts_left = pipeline_parts(left, cfg)?;
                }
                if matches!(sync_r, SideSync::MatchChanged | SideSync::Structural) {
                    *parts_right = pipeline_parts(right, cfg)?;
                }
                let fresh_l = if upd_left {
                    refresh_slab(lc, left, space, cfg, parts_left, dirty, &touched_l)?
                } else {
                    Vec::new()
                };
                let fresh_r = if upd_right {
                    refresh_slab(rc, right, space, cfg, parts_right, dirty, &touched_r)?
                } else {
                    Vec::new()
                };

                let mut span = mapro_obs::trace::span_kv(
                    "sym.incr.recheck",
                    vec![("fresh", (fresh_l.len() + fresh_r.len()).into())],
                );
                // Disagreements outside the dirty region survive; inside
                // it they are re-derived from the fresh tiling.
                let mut kept: Vec<Cube> = Vec::new();
                for c in disagreements.drain(..) {
                    subtract_all(&c, dirty, &mut kept);
                }
                match (upd_left, upd_right) {
                    // Both sides re-tiled the dirty region: its atom pairs
                    // are exactly fresh × fresh.
                    (true, true) => {
                        for &ls in &fresh_l {
                            let la = lc.atom(ls);
                            for &rs in &fresh_r {
                                let ra = rc.atom(rs);
                                if let Some(m) = la.cube.intersect(&ra.cube) {
                                    if la.behavior != ra.behavior {
                                        kept.push(m);
                                    }
                                }
                            }
                        }
                    }
                    // One side re-tiled it; every meet with a fresh atom
                    // lies inside the region, and the unchanged side's
                    // partners come from its trie, not a cover scan.
                    (true, false) => slab_meets(lc, &fresh_l, rc, &mut kept),
                    (false, true) => slab_meets(rc, &fresh_r, lc, &mut kept),
                    (false, false) => unreachable!("early-returned above"),
                }
                span.set("disagreements", kept.len());
                *disagreements = kept;
                Ok(fresh_l.len() + fresh_r.len())
            }
            Covers::Dd {
                eng,
                left: lroot,
                right: rroot,
            } => {
                // The dirty region as a BDD: one cube per disjoint piece.
                let mut lits: Vec<(u32, bool)> = Vec::new();
                let mut d = NodeRef::FALSE;
                for c in dirty {
                    lits.clear();
                    for (col, t) in c.0.iter().enumerate() {
                        eng.layout.tern_lits(col, t.bits, t.mask, &mut lits);
                    }
                    let piece = eng.mgr.cube(&lits)?;
                    d = eng.mgr.or(d, piece)?;
                }
                let _sp = mapro_obs::trace::span("sym.incr.recheck");
                let mut work = 0usize;
                if upd_left {
                    let (delta, leaves) = eng.compile_within(left, space, cfg, d)?;
                    *lroot = eng.mgr.ite(d, delta, *lroot)?;
                    work += leaves;
                }
                if upd_right {
                    let (delta, leaves) = eng.compile_within(right, space, cfg, d)?;
                    *rroot = eng.mgr.ite(d, delta, *rroot)?;
                    work += leaves;
                }
                Ok(work)
            }
        }
    }

    /// A counted fallback: rebuild the whole session state from the
    /// current pipelines.
    fn fallback_recheck(&mut self) -> Result<usize, EquivError> {
        mapro_obs::counter!("sym.incr.fallbacks").inc();
        self.last_dirty.clear();
        self.rebuild()
    }

    /// From-scratch construction of the proof state (initial build and
    /// every fallback). Recomputes the joint space, so sessions survive
    /// catalog-compatible pipeline replacements. Returns the full-cover
    /// work size. On error the session stays `stale` and the next update
    /// retries the rebuild.
    fn rebuild(&mut self) -> Result<usize, EquivError> {
        self.stale = true;
        self.space = FieldSpace::from_pipelines(&[&self.left, &self.right]);
        catalog_guard(&self.left, &self.right, &self.space)?;
        let _sp = mapro_obs::trace::span("sym.incr.recheck");
        let work = loop {
            match self.backend {
                CoverBackend::Dd => {
                    let mut eng = DdEngine::new(&self.space, &self.cfg);
                    let l = eng
                        .compile(&self.left, &self.space, &self.cfg)
                        .map_err(unsup)?;
                    let r = eng
                        .compile(&self.right, &self.space, &self.cfg)
                        .map_err(unsup)?;
                    let work = eng.mgr.node_count(&[l, r]);
                    self.covers = Covers::Dd {
                        eng,
                        left: l,
                        right: r,
                    };
                    break work;
                }
                _ => {
                    // Identical pipelines compile (deterministically) to
                    // identical covers, whose cross meets are exactly the
                    // self-meets — equal behaviors, so the disagreement
                    // set is empty by construction. One compile and no
                    // join instead of the quadratic scan; this is the
                    // common session-start state (intent == committed).
                    let both = if self.left == self.right {
                        compile(&self.left, &self.space, &self.cfg).map(|lc| {
                            let rc = lc.clone();
                            (lc, rc, Vec::new())
                        })
                    } else {
                        compile(&self.left, &self.space, &self.cfg).and_then(|lc| {
                            compile(&self.right, &self.space, &self.cfg).map(|rc| {
                                let d = parallel_disagreements(&lc, &rc);
                                (lc, rc, d)
                            })
                        })
                    };
                    match both {
                        Ok((lc, rc, disagreements)) => {
                            let parts_left =
                                pipeline_parts(&self.left, &self.cfg).map_err(unsup)?;
                            let parts_right =
                                pipeline_parts(&self.right, &self.cfg).map_err(unsup)?;
                            warm_parts(&self.left, &parts_left);
                            warm_parts(&self.right, &parts_right);
                            let work = lc.atoms.len() + rc.atoms.len();
                            self.covers = Covers::Cube {
                                left: SlabCover::build(lc),
                                right: SlabCover::build(rc),
                                parts_left,
                                parts_right,
                                disagreements,
                            };
                            break work;
                        }
                        Err(u @ (Unsupported::AtomBudget | Unsupported::PartitionBudget))
                            if self.auto =>
                        {
                            let _ = u;
                            self.backend = CoverBackend::Dd;
                        }
                        Err(u) => return Err(unsup(u)),
                    }
                }
            }
        };
        self.stale = false;
        Ok(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_symbolic;
    use mapro_core::{ActionSem, Catalog, EquivOutcome, MissPolicy, Table};

    fn cfg(backend: CoverBackend) -> SymConfig {
        SymConfig {
            backend,
            ..SymConfig::default()
        }
    }

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

    fn fresh_verdict(l: &Pipeline, r: &Pipeline, backend: CoverBackend) -> bool {
        check_symbolic(l, r, &cfg(backend)).unwrap().is_equivalent()
    }

    fn session_tracks_fresh(backend: CoverBackend) {
        let (mut l, mut r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &cfg(backend)).unwrap();
        assert!(s.verdict().is_equivalent());
        assert!(s.counterexample().unwrap().is_none());

        // Drift: left-only mod must flip the verdict with a real witness.
        let row = mod_port(&mut l, 1, "p1-new");
        let t = s.update(Side::Left, &l, &[row], 7, 1).unwrap();
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        assert_eq!(t.epoch, 7);
        assert!(!fresh_verdict(&l, &r, backend));
        let cx = s.counterexample().unwrap().expect("witness");
        assert_ne!(cx.left.observable(), cx.right.observable());

        // Converge: the same mod on the right restores equivalence.
        let row = mod_port(&mut r, 1, "p1-new");
        let t = s.update(Side::Right, &r, &[row], 7, 2).unwrap();
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(fresh_verdict(&l, &r, backend));
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
    fn cube_session_tracks_fresh_checks() {
        session_tracks_fresh(CoverBackend::Cube);
    }

    #[test]
    fn dd_session_tracks_fresh_checks() {
        session_tracks_fresh(CoverBackend::Dd);
    }

    #[test]
    fn dd_witness_is_byte_equal_to_fresh_check() {
        let (mut l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &cfg(CoverBackend::Dd)).unwrap();
        let row = mod_port(&mut l, 0, "p0-new");
        let t = s.update(Side::Left, &l, &[row], 0, 0).unwrap();
        assert_eq!(t.verdict, Verdict::NotEquivalent);
        let session_cx = s.counterexample().unwrap().expect("witness");
        match check_symbolic(&l, &r, &cfg(CoverBackend::Dd)).unwrap() {
            EquivOutcome::Counterexample(fresh) => {
                assert_eq!(session_cx.fields, fresh.fields);
            }
            other => panic!("fresh check disagrees: {other:?}"),
        }
    }

    #[test]
    fn unknown_table_rows_fall_back_to_full_recheck() {
        let (l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &cfg(CoverBackend::Cube)).unwrap();
        let rows = vec![("nope".to_string(), vec![Value::Int(0)])];
        let t = s.update_both(&l, &r, &rows, 0, 1).unwrap();
        assert_eq!(t.verdict, Verdict::Equivalent);
        assert!(
            s.last_dirty().is_empty(),
            "fallbacks clear the dirty region"
        );
        // Fallback work is the full cover size, far above a delta's.
        assert!(t.atoms_rechecked >= 5, "fallback reports full-cover work");
    }

    #[test]
    fn behavior_invisible_rows_cost_nothing() {
        let (l, r) = pair();
        let mut s = IncrementalChecker::new(&l, &r, &cfg(CoverBackend::Cube)).unwrap();
        let t = s.update_both(&l, &r, &[], 0, 1).unwrap();
        assert_eq!(t.atoms_rechecked, 0);
        assert_eq!(t.verdict, Verdict::Equivalent);
    }

    #[test]
    fn dirty_region_is_disjoint_and_bounds_the_mod() {
        let (p, _) = pair();
        let space = FieldSpace::from_pipelines(&[&p]);
        let rows = vec![
            ("fwd".to_string(), vec![Value::Int(1)]),
            ("fwd".to_string(), vec![Value::Int(2)]),
        ];
        let d = disjointify(dirty_cubes(&p, &space, &rows).expect("tables known"));
        assert!(!d.is_empty());
        for (i, a) in d.iter().enumerate() {
            for b in &d[i + 1..] {
                assert!(!a.intersects(b), "dirty pieces must be disjoint");
            }
        }
        assert!(dirty_cubes(&p, &space, &[("nope".to_string(), vec![Value::Int(0)])]).is_none());
    }
}
