//! Compiling a pipeline to one hash-consed MTBDD over header bits.
//!
//! A pipeline is executed symbolically (the walk state and action
//! semantics of [`crate::compile`]) into a single [`crate::dd`] MTBDD mapping
//! every point of the joint header space to an interned behavior id:
//!
//! * a table entry row becomes a conjunction of bit literals
//!   ([`BitLayout::tern_lits`] + `Mgr::cube`);
//! * a table is the chain `ite(e₀, x₀, … ite(eₙ, xₙ, miss))` built from
//!   the last row up (the forwarding-decision-diagram construction of
//!   *A Fast Compiler for NetKAT*): `xᵢ` is row `i`'s behavior terminal or
//!   the diagram of the table it continues at. Priority falls out of the
//!   nesting, so a row costs one `ite` and no region is ever formed; the
//!   reduced ordered diagram is canonical, so the root is the same node
//!   whatever construction reached it.
//!
//! A sub-diagram need be exact only on the packets that take the path to
//! it, so a row meeting none of the path's *enclosing cubes* is skipped
//! before its cube is built; the work count is the leaves built, one per
//! row or miss that ends a walk. As priority prunes no path, only a path
//! whose last step fails — it outruns the visit budget, or its row names an
//! unknown table or holds a malformed action cell — has its region decided
//! (by the priority subtraction): empty, the placeholder 0 stands in;
//! otherwise the failure is reported ([`Unsupported`]).
//!
//! Equivalence of two pipelines compiled in one [`DdEngine`] is root
//! pointer equality; a disagreement witness is a `first_diff` path mapped
//! back to field values by [`BitLayout::key_of_path`]. Both answers are
//! exact — the only budget is the node limit ([`SymConfig::max_nodes`]),
//! whose exhaustion surfaces as [`Unsupported::NodeBudget`], never as a
//! silently incomplete verdict.
//!
//! The variable order is *field-declaration bit order*: space coordinates
//! sorted by attribute id (exactly [`FieldSpace`] column order), MSB first
//! within each field. Prefix-style rows then test their cared bits closest
//! to the root, which keeps router-like tables shallow.

use crate::compile::{
    apply_actions, delivered, table_rows, visit_limit, Behavior, FieldSpace, SymConfig, SymCore,
    Unsupported,
};
use crate::cube::Cube;
use crate::dd::{Mgr, NodeRef, Overflow};
use mapro_core::{AttrId, MissPolicy, Pipeline};
use std::collections::HashMap;

impl From<Overflow> for Unsupported {
    fn from(_: Overflow) -> Unsupported {
        Unsupported::NodeBudget
    }
}

/// The fixed bit-to-variable mapping of one comparison domain: column `k`
/// of the [`FieldSpace`] occupies variables `offsets[k] .. offsets[k] +
/// widths[k]`, most significant bit first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLayout {
    /// First variable of each column.
    offsets: Vec<u32>,
    /// Width (bits) of each column.
    widths: Vec<u32>,
    /// Total variable count.
    total: u32,
}

impl BitLayout {
    /// The layout of a field space: one bit run per coordinate, in
    /// coordinate (attribute-id) order.
    pub fn of(space: &FieldSpace) -> BitLayout {
        BitLayout::from_widths(space.coords.iter().map(|&(_, w)| w))
    }

    /// A layout from raw column widths (used by the per-table liveness
    /// analysis, where the columns are one table's match columns).
    pub(crate) fn from_widths(widths: impl IntoIterator<Item = u32>) -> BitLayout {
        let widths: Vec<u32> = widths.into_iter().collect();
        let mut offsets = Vec::with_capacity(widths.len());
        let mut total = 0u32;
        for &w in &widths {
            offsets.push(total);
            total += w;
        }
        BitLayout {
            offsets,
            widths,
            total,
        }
    }

    /// Total number of BDD variables.
    pub fn total_bits(&self) -> u32 {
        self.total
    }

    /// Append the bit literals of a ternary `(bits, mask)` predicate on
    /// column `col`, in ascending variable order (MSB of the field first).
    pub(crate) fn tern_lits(&self, col: usize, bits: u64, mask: u64, out: &mut Vec<(u32, bool)>) {
        let w = self.widths[col];
        for i in 0..w {
            let b = w - 1 - i; // bit position from the LSB
            if mask >> b & 1 == 1 {
                out.push((self.offsets[col] + i, bits >> b & 1 == 1));
            }
        }
    }

    /// Append the bit literals of a whole cube over this layout's columns,
    /// in ascending variable order — ready for `Mgr::cube`.
    pub(crate) fn cube_lits(&self, c: &Cube, out: &mut Vec<(u32, bool)>) {
        for (col, t) in c.0.iter().enumerate() {
            self.tern_lits(col, t.bits, t.mask, out);
        }
    }

    /// Map a (partial) variable assignment back to one concrete value per
    /// column; unassigned bits are zero, so representatives are byte-stable
    /// ("free bits pinned to 0").
    pub(crate) fn key_of_path(&self, path: &[(u32, bool)]) -> Vec<u64> {
        let mut key = vec![0u64; self.widths.len()];
        for &(v, val) in path {
            if !val {
                continue;
            }
            let col = match self.offsets.binary_search(&v) {
                Ok(c) => c,
                Err(c) => c - 1,
            };
            let b = self.widths[col] - 1 - (v - self.offsets[col]);
            key[col] |= 1u64 << b;
        }
        key
    }
}

/// Interns [`Behavior`]s as MTBDD terminal labels. Ids start at 1: label 0
/// is the placeholder outside a restricted compile's region and on an
/// unreachable path, absent from a full compile's root.
#[derive(Default)]
struct BehaviorInterner {
    ids: HashMap<Behavior, u32>,
    behaviors: Vec<Behavior>,
}

impl BehaviorInterner {
    fn intern(&mut self, b: Behavior) -> u32 {
        if let Some(&id) = self.ids.get(&b) {
            return id;
        }
        self.behaviors.push(b.clone());
        let id = self.behaviors.len() as u32; // 1-based
        self.ids.insert(b, id);
        id
    }
}

/// Every table's match rows in canonical ternary form over the table's own
/// columns (`None` = an unsatisfiable symbolic cell): what the DD compiler
/// executes. [`DdEngine::compile`] derives them per call; a session derives
/// them once and patches the entries a flow-mod touches.
pub fn match_rows(p: &Pipeline) -> Vec<Vec<Option<Cube>>> {
    (0..p.tables.len()).map(|ti| table_rows(p, ti).1).collect()
}

/// One DD comparison domain: the manager whose pointer equality decides
/// equivalence, the shared behavior interner (same behavior → same
/// terminal in every pipeline compiled here), and the bit layout.
pub struct DdEngine {
    /// The node arena. Public so callers can report `node_count` or run
    /// `first_diff` on compiled roots.
    pub mgr: Mgr,
    /// The space-to-variable mapping of this domain.
    pub(crate) layout: BitLayout,
    interner: BehaviorInterner,
}

impl DdEngine {
    /// A fresh engine over `space` with the node limit from `cfg`.
    pub fn new(space: &FieldSpace, cfg: &SymConfig) -> DdEngine {
        DdEngine {
            mgr: Mgr::with_limit(cfg.max_nodes),
            layout: BitLayout::of(space),
            interner: BehaviorInterner::default(),
        }
    }

    /// Compile `p` to its behavior MTBDD over this engine's space.
    ///
    /// Two pipelines compiled in the same engine are observationally
    /// equivalent on the space iff their roots are the same [`NodeRef`].
    ///
    /// # Errors
    /// [`Unsupported`] on a goto cycle, an unknown table, a malformed
    /// action cell, the atom budget (a branch-count safety valve), or
    /// [`Unsupported::NodeBudget`] when the arena limit is hit.
    pub fn compile(
        &mut self,
        p: &Pipeline,
        space: &FieldSpace,
        cfg: &SymConfig,
    ) -> Result<NodeRef, Unsupported> {
        let rows = match_rows(p);
        let (root, _leaves) =
            self.build(p, space, cfg, NodeRef::TRUE, &[space.universe()], &rows)?;
        debug_assert!(
            self.layout.total == 0 || root != NodeRef::term(0) || p.tables.is_empty(),
            "every walk ends in a behavior"
        );
        Ok(root)
    }

    /// The union of `cubes` (over the space's coordinates) as a BDD.
    ///
    /// # Errors
    /// [`Overflow`] when the arena limit is hit.
    pub fn region(&mut self, cubes: &[Cube]) -> Result<NodeRef, Overflow> {
        let mut lits: Vec<(u32, bool)> = Vec::new();
        let d = cubes.iter().try_fold(NodeRef::FALSE, |d, c| {
            lits.clear();
            self.layout.cube_lits(c, &mut lits);
            let piece = self.mgr.cube(&lits)?;
            self.mgr.or(d, piece)
        });
        self.mgr.publish();
        d
    }

    /// Compile `p` restricted to the input region `within ⊆ ⋃ dirty` (a
    /// BDD over this engine's layout and the cubes it was built from, see
    /// [`DdEngine::region`]): the returned root maps every packet in
    /// `within` to its interned behavior terminal and everything outside it
    /// to the placeholder terminal 0 — the same node as `ite(within,
    /// compile(p), term(0))`. `rows` is [`match_rows`] of `p`. Also returns
    /// the number of leaves built — the honest work measure for the delta.
    ///
    /// This is the `crate::incremental` delta recompile: after a flow-mod
    /// dirties a region `D`, `ite(D, compile_within(new, D), old_root)` is
    /// the new cover, because the two agree everywhere outside `D` by the
    /// invalidation-cube contract. The dirty cubes are the build's initial
    /// enclosing cubes (a full compile's are the universe), so the cost
    /// follows the rows they touch, not the table.
    ///
    /// # Errors
    /// Same causes as [`DdEngine::compile`].
    pub fn compile_within(
        &mut self,
        p: &Pipeline,
        space: &FieldSpace,
        cfg: &SymConfig,
        within: NodeRef,
        dirty: &[Cube],
        rows: &[Vec<Option<Cube>>],
    ) -> Result<(NodeRef, usize), Unsupported> {
        let (root, leaves) = self.build(p, space, cfg, within, dirty, rows)?;
        let cut = self.mgr.ite(within, root, NodeRef::term(0));
        self.mgr.publish();
        Ok((cut?, leaves))
    }

    /// [`DdEngine::compile_within`] without the final cut: exact on
    /// `within ⊆ ⋃ enclosing`, unspecified elsewhere — all a splice
    /// `ite(within, ·, old)` needs.
    pub(crate) fn build(
        &mut self,
        p: &Pipeline,
        space: &FieldSpace,
        cfg: &SymConfig,
        within: NodeRef,
        enclosing: &[Cube],
        rows: &[Vec<Option<Cube>>],
    ) -> Result<(NodeRef, usize), Unsupported> {
        let _t = mapro_obs::time!("dd.compile_ns");
        let mut span =
            mapro_obs::trace::span_kv("dd.compile", vec![("tables", p.tables.len().into())]);
        let mut c = DdCompiler {
            p,
            space,
            mgr: &mut self.mgr,
            layout: &self.layout,
            interner: &mut self.interner,
            index: p.name_index(),
            rows,
            within,
            limit: visit_limit(p),
            max_atoms: cfg.max_atoms,
            leaves: 0,
            lits: Vec::new(),
            path: Vec::new(),
        };
        let root = c
            .resolve(&p.start)
            .and_then(|start| c.table(enclosing, &SymCore::initial(p), start));
        c.mgr.publish();
        let root = root?;
        span.set("leaves", c.leaves);
        span.set("nodes", c.mgr.len());
        Ok((root, c.leaves))
    }
}

/// The DD builder: single-threaded depth-first, so determinism is
/// structural; the apply ops are memoized rather than parallelized.
struct DdCompiler<'a> {
    p: &'a Pipeline,
    space: &'a FieldSpace,
    mgr: &'a mut Mgr,
    layout: &'a BitLayout,
    interner: &'a mut BehaviorInterner,
    index: HashMap<&'a str, usize>,
    /// [`match_rows`] of `p`.
    rows: &'a [Vec<Option<Cube>>],
    /// The packets the result must be exact on.
    within: NodeRef,
    limit: usize,
    max_atoms: usize,
    leaves: usize,
    /// Scratch literal buffer for entry-predicate construction.
    lits: Vec<(u32, bool)>,
    /// `(table, row taken or None for the miss)` from the start table on.
    path: Vec<(usize, Option<usize>)>,
}

impl<'a> DdCompiler<'a> {
    fn resolve(&self, name: &str) -> Result<usize, Unsupported> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| Unsupported::UnknownTable(name.to_owned()))
    }

    /// Does row `ec` meet cube `d` of the input space on the columns that
    /// are still symbolic under `core`? A concretely-valued column never
    /// excludes a row: `d` speaks about the input packet, not about a
    /// register the walk has since rewritten.
    fn meets(&self, core: &SymCore, attrs: &[AttrId], ec: &Cube, d: &Cube) -> bool {
        attrs
            .iter()
            .zip(&ec.0)
            .all(|(&attr, &t)| match self.space.coord_of(attr) {
                Some(k) if core.vals[attr.index()].is_none() => t.intersect(d.0[k]).is_some(),
                _ => true,
            })
    }

    /// `d` narrowed by row `ec` on those same columns, or `None` when the
    /// two are disjoint.
    fn narrow(&self, core: &SymCore, attrs: &[AttrId], ec: &Cube, d: &Cube) -> Option<Cube> {
        let mut out = d.clone();
        for (&attr, &t) in attrs.iter().zip(&ec.0) {
            if let (Some(k), None) = (self.space.coord_of(attr), core.vals[attr.index()]) {
                out.0[k] = out.0[k].intersect(t)?;
            }
        }
        Some(out)
    }

    /// The predicate "entry row `ec` matches" under the concrete values of
    /// `core`, over the input-space bits. `None` when a concretely-valued
    /// column disagrees with the row — the entry matches nothing in this
    /// state.
    fn entry_bdd(
        &mut self,
        core: &SymCore,
        attrs: &[AttrId],
        ec: &Cube,
    ) -> Result<Option<NodeRef>, Overflow> {
        self.lits.clear();
        for (&attr, &t) in attrs.iter().zip(&ec.0) {
            match core.vals[attr.index()] {
                Some(v) if !t.matches(v) => return Ok(None),
                Some(_) => {}
                None => {
                    let k = self
                        .space
                        .coord_of(attr)
                        .expect("unwritten match attr is a space coordinate");
                    self.layout.tern_lits(k, t.bits, t.mask, &mut self.lits);
                }
            }
        }
        // Columns arrive in match-attr order, not variable order; sort and
        // collapse duplicates (the same attribute matched twice), treating
        // a contradictory duplicate as an unsatisfiable row.
        self.lits.sort_unstable();
        if self
            .lits
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
        {
            return Ok(None);
        }
        self.lits.dedup();
        self.mgr.cube(&self.lits).map(Some)
    }

    /// `ite(e₀, x₀, … ite(eₙ, xₙ, miss))` for table `ti` reached with
    /// `core`, exact on every packet of the path here. `enclosing` are input
    /// cubes holding all of those packets (the universe or the dirty cubes,
    /// narrowed by each row taken on the way); a row meeting none of them is
    /// left out before its cube is built.
    fn table(
        &mut self,
        enclosing: &[Cube],
        core: &SymCore,
        ti: usize,
    ) -> Result<NodeRef, Unsupported> {
        let attrs = &self.p.tables[ti].match_attrs;
        let mut acc = self.then(enclosing, core, ti, None)?;
        let rows: &'a [Option<Cube>] = &self.rows[ti];
        for (ei, ec) in rows.iter().enumerate().rev() {
            let Some(ec) = ec else {
                continue; // unsatisfiable symbolic cell: matches nothing
            };
            if !enclosing.iter().any(|d| self.meets(core, attrs, ec, d)) {
                continue;
            }
            let Some(e) = self.entry_bdd(core, attrs, ec)? else {
                continue; // concrete column mismatch: matches nothing here
            };
            let x = self.then(enclosing, core, ti, Some((ei, ec)))?;
            acc = self.mgr.ite(e, x, acc)?;
        }
        Ok(acc)
    }

    /// What follows at table `ti` under `core` when row `hit` wins (`None`:
    /// a miss): a behavior terminal or the next table's diagram.
    fn then(
        &mut self,
        enclosing: &[Cube],
        core: &SymCore,
        ti: usize,
        hit: Option<(usize, &Cube)>,
    ) -> Result<NodeRef, Unsupported> {
        let p = self.p;
        let t = &p.tables[ti];
        self.path.push((ti, hit.map(|(ei, _)| ei)));
        let next = || SymCore {
            steps: core.steps + 1,
            ..core.clone()
        };
        let x = match (hit, &t.miss) {
            _ if core.steps >= self.limit => {
                self.cut(Unsupported::GotoCycle { limit: self.limit })?
            }
            (Some((ei, ec)), _) => {
                let mut c2 = next();
                let step = apply_actions(p, ti, ei, &mut c2)
                    .and_then(|g| g.or(t.next.as_deref()).map(|n| self.resolve(n)).transpose());
                match step {
                    Ok(Some(t2)) => {
                        let inner: Vec<Cube> = enclosing
                            .iter()
                            .filter_map(|d| self.narrow(core, &t.match_attrs, ec, d))
                            .collect();
                        self.table(&inner, &c2, t2)?
                    }
                    Ok(None) => self.leaf(delivered(p, &c2, false))?,
                    Err(u) => self.cut(u)?,
                }
            }
            (None, MissPolicy::Drop) => self.leaf(Behavior::Dropped)?,
            (None, MissPolicy::Controller) => self.leaf(delivered(p, core, true))?,
            (None, MissPolicy::Fall(n)) => match self.resolve(n) {
                Ok(t2) => self.table(enclosing, &next(), t2)?,
                Err(u) => self.cut(u)?,
            },
        };
        self.path.pop();
        Ok(x)
    }

    /// One walk ends in `behavior`.
    fn leaf(&mut self, behavior: Behavior) -> Result<NodeRef, Unsupported> {
        self.leaves += 1;
        if self.leaves > self.max_atoms {
            return Err(Unsupported::AtomBudget);
        }
        Ok(NodeRef::term(self.interner.intern(behavior)))
    }

    /// The last step of the path fails with `err` — it outruns the visit
    /// budget, names an unknown table or applies a malformed action cell:
    /// decide exactly whether a packet of `within` takes the path. If none
    /// does, the placeholder stands in for a branch nothing selects, as the
    /// evaluator never fails there; otherwise `err` is real.
    fn cut(&mut self, err: Unsupported) -> Result<NodeRef, Unsupported> {
        let p = self.p;
        let mut core = SymCore::initial(p);
        let mut region = self.within;
        for (ti, hit) in self.path.clone() {
            let attrs = &p.tables[ti].match_attrs;
            let rows: &'a [Option<Cube>] = &self.rows[ti];
            // Every earlier row takes its packets first.
            for (ei, ec) in rows[..hit.map_or(rows.len(), |ei| ei + 1)]
                .iter()
                .enumerate()
            {
                let e = match ec {
                    Some(ec) => self.entry_bdd(&core, attrs, ec)?.unwrap_or(NodeRef::FALSE),
                    None => NodeRef::FALSE,
                };
                region = if hit == Some(ei) {
                    self.mgr.and(region, e)?
                } else {
                    self.mgr.diff(region, e)?
                };
            }
            if region == NodeRef::FALSE {
                return Ok(NodeRef::term(0));
            }
            if let Some(ei) = hit {
                apply_actions(p, ti, ei, &mut core)?;
            }
            core.steps += 1;
        }
        Err(err)
    }
}

/// Exact per-table entry liveness over one table's own match columns — the
/// union-cover question of the shadowed-/dead-entry lints.
pub struct TableLiveness {
    /// Per entry: `None` when the row is unsatisfiable (a symbolic match
    /// cell — the existing "dead entry" case), `Some(true)` when the union
    /// of earlier satisfiable rows covers the row entirely (shadowed),
    /// `Some(false)` when some packet still reaches it.
    pub covered: Vec<Option<bool>>,
}

impl TableLiveness {
    /// Decide liveness of every row exactly: `eⱼ ∖ (⋃ e₀..ⱼ₋₁) = ∅` per
    /// satisfiable row, by DD subtraction. No budget — the only failure
    /// mode is the arena limit.
    ///
    /// # Errors
    /// [`Overflow`] when `max_nodes` interior nodes are exceeded.
    pub fn build(
        widths: &[u32],
        rows: &[Option<Cube>],
        max_nodes: usize,
    ) -> Result<TableLiveness, Overflow> {
        let layout = BitLayout::from_widths(widths.iter().copied());
        let mut mgr = Mgr::with_limit(max_nodes);
        let mut lits = Vec::new();
        let mut prefix = NodeRef::FALSE;
        let mut covered = Vec::with_capacity(rows.len());
        for row in rows {
            let Some(c) = row else {
                covered.push(None);
                continue;
            };
            lits.clear();
            layout.cube_lits(c, &mut lits);
            let e = mgr.cube(&lits)?;
            let alive = mgr.diff(e, prefix)?;
            covered.push(Some(alive == NodeRef::FALSE));
            prefix = mgr.or(prefix, e)?;
        }
        Ok(TableLiveness { covered })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Tern;
    use mapro_core::{ActionSem, Catalog, Packet, Table, Value};

    fn cfg() -> SymConfig {
        SymConfig::default()
    }

    /// Enumerate the whole (small) space: the MTBDD must agree with the
    /// concrete evaluator on every packet.
    fn assert_dd_exact(p: &Pipeline) {
        let space = FieldSpace::from_pipelines(&[p]);
        let cfg = cfg();
        let mut eng = DdEngine::new(&space, &cfg);
        let root = eng.compile(p, &space, &cfg).unwrap();
        let widths: Vec<u32> = space.coords.iter().map(|&(_, w)| w).collect();
        let total: u64 = widths.iter().map(|&w| 1u64 << w).product();
        assert!(total <= 1 << 16, "test space too large");
        let layout = BitLayout::of(&space);
        for mut n in 0..total {
            let mut key = Vec::new();
            for &w in &widths {
                key.push(n & ((1u64 << w) - 1));
                n >>= w;
            }
            let id = crate::dd::tests::eval(&eng.mgr, root, |v| {
                let col = match layout.offsets.binary_search(&v) {
                    Ok(c) => c,
                    Err(c) => c - 1,
                };
                let b = layout.widths[col] - 1 - (v - layout.offsets[col]);
                key[col] >> b & 1 == 1
            });
            assert_ne!(id, 0, "placeholder terminal must not survive");
            let mut pkt = Packet::zero(&p.catalog);
            for (k, &(attr, _)) in space.coords.iter().enumerate() {
                pkt.set(attr, key[k]);
            }
            let v = p.run(&pkt).unwrap();
            let expect = match v.observable() {
                mapro_core::pipeline::Observable::Dropped => Behavior::Dropped,
                mapro_core::pipeline::Observable::Delivered {
                    output,
                    to_controller,
                    header_mods,
                    opaque,
                } => Behavior::Delivered {
                    output: output.map(std::sync::Arc::from),
                    to_controller,
                    header_mods: header_mods.to_vec(),
                    opaque: opaque.to_vec(),
                },
            };
            assert_eq!(
                &eng.interner.behaviors[id as usize - 1],
                &expect,
                "packet {key:?}"
            );
        }
    }

    #[test]
    fn single_table_dd_matches_evaluator() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let g = c.field("g", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(3), Value::Any], vec![Value::sym("a")]);
        t.row(
            vec![Value::prefix(0b1000, 1, 4), Value::Int(7)],
            vec![Value::sym("b")],
        );
        t.row(
            vec![
                Value::Ternary {
                    bits: 0b0101,
                    mask: 0b0101,
                },
                Value::Any,
            ],
            vec![Value::sym("c")],
        );
        assert_dd_exact(&Pipeline::single(c, t));
    }

    #[test]
    fn multi_table_goto_metadata_and_rewrite() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let g = c.field("g", 4);
        let m = c.meta("m", 8);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let set_g = c.action("set_g", ActionSem::SetField(g));
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![set_m, set_g, goto]);
        t0.row(
            vec![Value::Int(1)],
            vec![Value::Int(10), Value::Int(7), Value::sym("t1")],
        );
        t0.row(
            vec![Value::Int(2)],
            vec![Value::Int(20), Value::Any, Value::sym("t1")],
        );
        let mut t1 = Table::new("t1", vec![m, g], vec![out]);
        t1.row(vec![Value::Int(10), Value::Int(7)], vec![Value::sym("p1")]);
        t1.row(vec![Value::Int(20), Value::Any], vec![Value::sym("p2")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        assert_dd_exact(&p);
    }

    #[test]
    fn miss_policies_covered() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![out]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t0.miss = MissPolicy::Fall("t1".into());
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Int(2)], vec![Value::sym("b")]);
        t1.miss = MissPolicy::Controller;
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        assert_dd_exact(&p);
    }

    #[test]
    fn bad_action_param_is_unsupported() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Any], vec![Value::Int(3)]); // output wants a Sym
        let p = Pipeline::single(c, t);
        let space = FieldSpace::from_pipelines(&[&p]);
        let cfg = cfg();
        let mut eng = DdEngine::new(&space, &cfg);
        assert!(matches!(
            eng.compile(&p, &space, &cfg),
            Err(Unsupported::BadActionParam { .. })
        ));
    }

    #[test]
    fn unreachable_bad_param_does_not_poison_compile() {
        // The malformed cell sits behind a shadowing entry; no packet can
        // reach it, and the compiler never applies an unreachable row's
        // actions.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Any], vec![Value::sym("a")]);
        t.row(vec![Value::Int(1)], vec![Value::Int(9)]); // shadowed
        assert_dd_exact(&Pipeline::single(c, t));
    }

    /// A goto to a table that does not exist, on row 1 behind row 0, or
    /// a `Fall` to one on the miss; `reachable` decides whether any
    /// packet gets there.
    fn unknown_table_program(on_miss: bool, reachable: bool) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t = Table::new("t", vec![f], vec![out, goto]);
        let first = if reachable { Value::Int(1) } else { Value::Any };
        t.row(vec![first], vec![Value::sym("a"), Value::Any]);
        if on_miss {
            t.miss = MissPolicy::Fall("nowhere".into());
        } else {
            t.row(vec![Value::Any], vec![Value::Any, Value::sym("nowhere")]);
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn an_unknown_table_no_packet_reaches_does_not_poison_compile() {
        for on_miss in [false, true] {
            assert_dd_exact(&unknown_table_program(on_miss, false));
        }
    }

    #[test]
    fn a_reachable_unknown_table_is_unsupported() {
        for on_miss in [false, true] {
            let p = unknown_table_program(on_miss, true);
            let space = FieldSpace::from_pipelines(&[&p]);
            let cfg = cfg();
            let mut eng = DdEngine::new(&space, &cfg);
            match eng.compile(&p, &space, &cfg) {
                Err(Unsupported::UnknownTable(name)) => assert_eq!(name, "nowhere"),
                other => panic!("on_miss={on_miss}: expected UnknownTable, got {other:?}"),
            }
        }
    }

    #[test]
    fn goto_cycle_is_unsupported() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let space = FieldSpace::from_pipelines(&[&p]);
        let cfg = cfg();
        let mut eng = DdEngine::new(&space, &cfg);
        assert!(matches!(
            eng.compile(&p, &space, &cfg),
            Err(Unsupported::GotoCycle { .. })
        ));
    }

    /// A goto back to its own table behind a row that shadows it: no packet
    /// takes the cycle, so the build must not report one, and the check
    /// stays symbolic.
    #[test]
    fn a_cycle_only_a_shadowed_row_reaches_is_no_cycle() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![out, goto]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("a"), Value::Any]);
        t0.row(vec![Value::Int(1)], vec![Value::Any, Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        assert_dd_exact(&p);
        match crate::check_symbolic(&p, &p, &cfg()).unwrap() {
            mapro_core::EquivOutcome::Equivalent { method, .. } => {
                assert_eq!(method, mapro_core::CheckMethod::Symbolic);
            }
            other => panic!("expected a symbolic proof, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_overflow_maps_to_unsupported() {
        let mut c = Catalog::new();
        let f = c.field("f", 32);
        let g = c.field("g", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        // Entangled rows so the diagram needs more than 8 nodes.
        for i in 0..4u64 {
            t.row(
                vec![
                    Value::Ternary {
                        bits: i * 0x0101_0101,
                        mask: 0x0f0f_0f0f,
                    },
                    Value::Ternary {
                        bits: (i * 0x1010_1010) & 0xf0f0_f0f0,
                        mask: 0xf0f0_f0f0,
                    },
                ],
                vec![Value::sym("x")],
            );
        }
        let p = Pipeline::single(c, t);
        let space = FieldSpace::from_pipelines(&[&p]);
        let cfg = SymConfig {
            max_nodes: 8,
            ..SymConfig::default()
        };
        let mut eng = DdEngine::new(&space, &cfg);
        assert_eq!(eng.compile(&p, &space, &cfg), Err(Unsupported::NodeBudget));
    }

    #[test]
    fn key_of_path_round_trips_msb_first() {
        let layout = BitLayout::from_widths([4, 8]);
        assert_eq!(layout.total_bits(), 12);
        // Variable 0 is the MSB of column 0; variable 4 the MSB of col 1.
        assert_eq!(layout.key_of_path(&[(0, true)]), vec![0b1000, 0]);
        assert_eq!(layout.key_of_path(&[(3, true)]), vec![0b0001, 0]);
        assert_eq!(layout.key_of_path(&[(4, true), (11, true)]), vec![0, 0x81]);
        assert_eq!(layout.key_of_path(&[(1, false)]), vec![0, 0]);
    }

    #[test]
    fn table_liveness_is_exact_without_budget() {
        // 0*** ∪ 1*** covers ****: entry 2 is shadowed by the union even
        // though neither cover row subsumes it alone.
        let widths = [4u32];
        let rows = vec![
            Some(Cube(vec![Tern {
                bits: 0,
                mask: 0b1000,
            }])),
            Some(Cube(vec![Tern {
                bits: 0b1000,
                mask: 0b1000,
            }])),
            Some(Cube(vec![Tern { bits: 0, mask: 0 }])),
            None,
            Some(Cube(vec![Tern {
                bits: 0b0100,
                mask: 0b1100,
            }])),
        ];
        let lv = TableLiveness::build(&widths, &rows, 1 << 20).unwrap();
        assert_eq!(
            lv.covered,
            vec![Some(false), Some(false), Some(true), None, Some(true)]
        );
    }
}
