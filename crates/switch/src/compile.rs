//! The execution engine: a pipeline compiled into monomorphic classifier
//! programs driven by one tight dispatch loop.
//!
//! Every switch model in this crate runs packets through
//! [`CompiledEngine`]; what differs between models is the
//! [`ModelSpec`](crate::ModelSpec) it is compiled under, never the
//! match-action semantics. A pipeline compiles down to data:
//!
//! * one shared register file holding every attribute any table matches
//!   (loaded once per packet; `SetField` writes that can never be
//!   re-matched are dropped at compile time — they are unobservable);
//! * per table a monomorphic classifier — a direct `u64` hash probe for
//!   all-exact shapes, a flat `(bits, mask)` ternary scan for the rest —
//!   dispatched by one `match`, no boxing, no per-lookup counters;
//! * per entry a pre-resolved program: the winning `Output`, the register
//!   stores, and the successor table index (`goto.or(next)` folded in).
//!
//! The *modeled* cost of a table visit is independent of that layout: it
//! is `CostParams::lookup_ns` of the stats of the classifier template the
//! [`TemplatePolicy`] really selects for the table ([`crate::cls`]
//! reads them off the table's rows, without building the template). The
//! classifier decisions agree with any template because every template
//! implements first-match semantics; [`mapro_core::Pipeline::run`] is the
//! oracle the test suites compare against.
//!
//! Control-plane edits are row-granular: [`CompiledEngine::apply_update`]
//! applies a flow-mod to the pipeline in place and splices the one row it
//! changed into the touched table — the row's entry program, its ternary
//! cells or hash key (the rows after it renumbered, a shadowed duplicate
//! key surfacing when its owner goes) — then re-reads the table's shape and
//! template stats off the rows, so the result equals a fresh compile of the
//! table. The row comes from the flow-mod's [`Undo`] record, which holds
//! exactly the cells or row it overwrote and is also how a flow-mod is
//! rolled back. Only a change of classifier arm (into or out of an
//! all-exact shape, or to other key columns) rebuilds the table whole;
//! `switch.compiled.table_splices` and `switch.compiled.table_recompiles`
//! count which path ran.

use crate::cls::{LookupStats, Rows, TableShape, TemplateKind};
use crate::cost::{CostParams, TemplatePolicy};
use mapro_core::{
    ActionSem, AttrId, AttrKind, Entry, MissPolicy, Packet, Pipeline, RowEdit, RuleUpdate, Table,
    Undo, Value,
};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Chunk size the harness replays traces in (one virtual call per chunk).
/// 128 keeps a chunk of keys and results comfortably inside L1/L2 while
/// amortizing per-batch overheads.
pub const BATCH: usize = 128;

/// Why a pipeline could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A goto/next/fall target does not exist.
    UnknownTable(String),
    /// A goto parameter was not symbolic, or a set-field parameter was not
    /// an integer.
    BadActionParam {
        /// Offending table.
        table: String,
    },
    /// A match cell was symbolic.
    BadMatchCell {
        /// Offending table.
        table: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            CompileError::BadActionParam { table } => {
                write!(f, "table {table:?}: bad action parameter")
            }
            CompileError::BadMatchCell { table } => {
                write!(f, "table {table:?}: symbolic match cell")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Why a flow-mod could not be applied to a running engine.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// The flow-mod did not apply (unknown table/entry).
    Apply(mapro_core::ApplyError),
    /// The updated table no longer compiles (e.g. dangling goto).
    Compile(CompileError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Apply(e) => write!(f, "update failed: {e}"),
            UpdateError::Compile(e) => write!(f, "recompile failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Result of processing one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOut {
    /// Output port, if forwarded.
    pub output: Option<Arc<str>>,
    /// True if the packet was dropped (miss with drop policy).
    pub dropped: bool,
    /// Table lookups performed.
    pub lookups: usize,
    /// Modeled service time (occupancy) in ns.
    pub service_ns: f64,
    /// Modeled one-way latency in ns (before the reporting queue factor).
    pub latency_ns: f64,
    /// True if the packet took a slow path (a megaflow-cache miss).
    pub slow_path: bool,
}

/// A table's monomorphic classifier over the engine's register file.
#[derive(Debug, PartialEq)]
enum Cls {
    /// Single active exact column: one `u64` hash probe.
    Exact1 { reg: usize, map: HashMap<u64, u32> },
    /// All-exact shape over `regs` (possibly empty: a table whose rows
    /// constrain nothing maps the empty key to its first row).
    Exact {
        regs: Vec<usize>,
        map: HashMap<Vec<u64>, u32>,
    },
    /// First-match scan over the flat canonical ternary cells
    /// ([`Rows::ternary_rows`]), row-major.
    Scan {
        regs: Vec<usize>,
        cells: Vec<(u64, u64)>,
        ncols: usize,
    },
}

impl Cls {
    #[inline]
    fn lookup(&self, regs: &[u64], key_buf: &mut Vec<u64>) -> Option<u32> {
        match self {
            Cls::Exact1 { reg, map } => map.get(&regs[*reg]).copied(),
            Cls::Exact { regs: cols, map } => {
                key_buf.clear();
                key_buf.extend(cols.iter().map(|&r| regs[r]));
                map.get(key_buf.as_slice()).copied()
            }
            Cls::Scan {
                regs: cols,
                cells,
                ncols,
            } => {
                // Zero-column tables are AllExact-shaped and take the
                // hash path, so `ncols >= 1` here.
                'row: for (i, row) in cells.chunks_exact(*ncols).enumerate() {
                    for (c, &(bits, mask)) in row.iter().enumerate() {
                        if (regs[cols[c]] ^ bits) & mask != 0 {
                            continue 'row;
                        }
                    }
                    return Some(i as u32);
                }
                None
            }
        }
    }
}

/// What one table lookup of a walk depended on — what the walk's visitor
/// sees, once per table visited, before the winner's stores are applied.
pub(crate) struct Lookup<'a> {
    /// Index of the table looked up.
    pub(crate) table: usize,
    cls: &'a Cls,
    /// The register file as the lookup saw it.
    regs: &'a [u64],
    /// The winning row; `None` on a table miss.
    row: Option<u32>,
    /// The winner's register stores (empty on a miss).
    sets: &'a [(usize, u64)],
}

impl Lookup<'_> {
    /// Widen `mask` (one word per register, over the packet's *initial*
    /// register file) by the input bits that pin this lookup's outcome,
    /// then record the winner's stores in `written`.
    ///
    /// A hash probe compares whole registers, so it pins every bit of its
    /// columns, hit or miss. A scan pins the winner's care bits plus, for
    /// every higher-priority row that lost (every row, on a miss), a cell
    /// in which that row disagrees with the key: nothing new when the
    /// disagreeing bit is already pinned, else the cell's care bits. One
    /// disagreeing bit would be enough for soundness and give wider
    /// megaflows; whole cells keep the masks of a table down to unions of
    /// its rows' own masks, and the distinct masks are the tuples a hit
    /// probes in turn (GWLB universal under churn: 3 tuples and 1.47
    /// probes per hit, against 11 and 2.02 with the most significant
    /// disagreeing bit alone). A register in `written` pins nothing: an
    /// earlier entry of this walk overwrote it, so its value follows from
    /// choices already pinned, not from the input.
    pub(crate) fn pin(&self, mask: &mut [u64], written: &mut [bool]) {
        let mut whole = |cols: &[usize]| {
            for &r in cols {
                if !written[r] {
                    mask[r] = u64::MAX;
                }
            }
        };
        match self.cls {
            Cls::Exact1 { reg, .. } => whole(std::slice::from_ref(reg)),
            Cls::Exact { regs, .. } => whole(regs),
            Cls::Scan {
                regs: cols,
                cells,
                ncols,
            } => {
                // Winner first, so that losers can reuse its bits.
                let rows = cells.chunks_exact(*ncols);
                let losers = match self.row {
                    Some(w) => {
                        let winner = rows.clone().nth(w as usize).expect("winner is a row");
                        for (&r, &(_, care)) in cols.iter().zip(winner) {
                            if !written[r] {
                                mask[r] |= care;
                            }
                        }
                        w as usize
                    }
                    None => rows.len(),
                };
                'row: for row in rows.take(losers) {
                    let mut unpinned = None;
                    for (&r, &(bits, care)) in cols.iter().zip(row) {
                        let diff = (self.regs[r] ^ bits) & care;
                        if diff == 0 {
                            continue;
                        }
                        if written[r] || diff & mask[r] != 0 {
                            continue 'row; // already told apart
                        }
                        unpinned.get_or_insert((r, care));
                    }
                    let (r, care) = unpinned.expect("a losing row disagrees with the key");
                    mask[r] |= care;
                }
            }
        }
        for &(r, _) in self.sets {
            written[r] = true;
        }
    }
}

/// One entry's pre-resolved action program.
#[derive(Debug, PartialEq)]
struct EntryProg {
    /// Register stores in action order (`SetField` targets that some
    /// table matches; unmatchable targets are compiled away).
    sets: Vec<(usize, u64)>,
    /// The last `Output` parameter, if any.
    output: Option<Arc<str>>,
    /// Successor: last `Goto` folded with the table's `next`.
    next: Option<u32>,
}

/// A table's compiled miss continuation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MissProg {
    Drop,
    Controller,
    Fall(u32),
}

#[derive(Debug, PartialEq)]
struct CTable {
    name: String,
    cls: Cls,
    /// The template the policy selected (what `cost_ns` prices).
    template: TemplateKind,
    /// `CostParams::lookup_ns` of the policy's template stats.
    cost_ns: f64,
    entries: Vec<EntryProg>,
    miss: MissProg,
}

/// Position of `name` in the pipeline's table list.
fn table_index(p: &Pipeline, name: &str) -> Result<u32, CompileError> {
    p.tables
        .iter()
        .position(|t| t.name == name)
        .map(|i| i as u32)
        .ok_or_else(|| CompileError::UnknownTable(name.to_owned()))
}

/// The register attribute `a` is loaded into.
fn reg_of(reg_attrs: &[AttrId], a: AttrId) -> usize {
    reg_attrs
        .iter()
        .position(|&x| x == a)
        .expect("matched attr has a register")
}

/// The value of an all-exact shape's key cell.
fn int(e: &Entry, col: usize) -> u64 {
    match e.matches[col] {
        Value::Int(v) => v,
        _ => unreachable!("all-exact shape guarantees Int cells"),
    }
}

/// `t`'s match rows read in place, with `widths` its columns' widths.
fn rows_of<'a>(t: &'a Table, widths: &'a [u32]) -> Rows<'a, Entry> {
    Rows {
        widths,
        rows: &t.entries,
    }
}

/// Bit width of each of `t`'s match columns.
fn widths(p: &Pipeline, t: &Table) -> Vec<u32> {
    t.match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width)
        .collect()
}

/// The modeled per-visit cost is a property of the classifier template the
/// modeled switch would use, not of `Cls`: the stats that template reports,
/// read off the rows without building it.
fn template_stats(
    rows: &Rows<'_, Entry>,
    shape: &TableShape,
    policy: TemplatePolicy,
) -> LookupStats {
    match policy {
        TemplatePolicy::Specialize { generic } => rows.specialized_stats(shape, generic),
        TemplatePolicy::Uniform(kind) => rows.generic_stats(kind),
        TemplatePolicy::Tcam => rows.tcam_stats(),
    }
}

/// Lower one entry of `t` to its action program; `table_next` is `t.next`
/// resolved. The one lowering: a compile and a splice both call it.
fn entry_prog(
    p: &Pipeline,
    t: &Table,
    e: &Entry,
    reg_attrs: &[AttrId],
    table_next: Option<u32>,
) -> Result<EntryProg, CompileError> {
    let mut prog = EntryProg {
        sets: Vec::new(),
        output: None,
        next: table_next,
    };
    for (col, &attr) in t.action_attrs.iter().enumerate() {
        let param = &e.actions[col];
        if matches!(param, Value::Any) {
            continue;
        }
        let sem = match &p.catalog.attr(attr).kind {
            AttrKind::Action(s) => s,
            _ => unreachable!("action column"),
        };
        match (sem, param) {
            (ActionSem::Output, Value::Sym(s)) => prog.output = Some(s.clone()),
            (ActionSem::Goto, Value::Sym(s)) => {
                prog.next = Some(table_index(p, s)?);
            }
            (ActionSem::SetField(target), Value::Int(v)) => {
                if let Some(r) = reg_attrs.iter().position(|x| x == target) {
                    prog.sets.push((r, *v));
                }
            }
            (ActionSem::Opaque, _) => {}
            _ => {
                return Err(CompileError::BadActionParam {
                    table: t.name.clone(),
                })
            }
        }
    }
    Ok(prog)
}

/// `t.next` resolved to a table position.
fn table_next(p: &Pipeline, t: &Table) -> Result<Option<u32>, CompileError> {
    t.next.as_deref().map(|n| table_index(p, n)).transpose()
}

/// Compile one table against the engine's register file. Goto and fall
/// targets resolve to positions in `p.tables`, so the result is only valid
/// while the pipeline keeps its table order.
fn compile_table(
    p: &Pipeline,
    t: &Table,
    reg_attrs: &[AttrId],
    policy: TemplatePolicy,
    params: &CostParams,
) -> Result<CTable, CompileError> {
    // The match rows are read in place, never copied.
    let widths = widths(p, t);
    let rows = rows_of(t, &widths);
    let shape = rows.shape();

    // The monomorphic classifier depends only on the table shape: every
    // template agrees with first-match semantics, so a hash probe
    // (all-exact) or flat ternary scan (everything else) reproduces any
    // policy's decisions.
    let cls = match &shape {
        TableShape::AllExact { cols } if cols.len() == 1 => {
            let col = cols[0];
            let mut map = HashMap::with_capacity(rows.len());
            for (i, e) in t.entries.iter().enumerate() {
                // Duplicate keys: first (highest-priority) row wins.
                map.entry(int(e, col)).or_insert(i as u32);
            }
            Cls::Exact1 {
                reg: reg_of(reg_attrs, t.match_attrs[col]),
                map,
            }
        }
        TableShape::AllExact { cols } => {
            let mut map = HashMap::with_capacity(rows.len());
            // Active-column-free rows have the empty key: the first row
            // matches every packet.
            for (i, e) in t.entries.iter().enumerate() {
                let key: Vec<u64> = cols.iter().map(|&c| int(e, c)).collect();
                map.entry(key).or_insert(i as u32);
            }
            Cls::Exact {
                regs: cols
                    .iter()
                    .map(|&c| reg_of(reg_attrs, t.match_attrs[c]))
                    .collect(),
                map,
            }
        }
        // A symbolic cell is neither exact nor prefix-like, so it always
        // lands here, and has no ternary form.
        TableShape::SinglePrefix { .. } | TableShape::General => {
            let cells = rows
                .ternary_rows()
                .ok_or_else(|| CompileError::BadMatchCell {
                    table: t.name.clone(),
                })?;
            Cls::Scan {
                regs: t
                    .match_attrs
                    .iter()
                    .map(|&a| reg_of(reg_attrs, a))
                    .collect(),
                cells,
                ncols: rows.cols(),
            }
        }
    };
    let stats = template_stats(&rows, &shape, policy);
    let table_next = table_next(p, t)?;
    let entries = t
        .entries
        .iter()
        .map(|e| entry_prog(p, t, e, reg_attrs, table_next))
        .collect::<Result<Vec<_>, _>>()?;
    let miss = match &t.miss {
        MissPolicy::Drop => MissProg::Drop,
        MissPolicy::Controller => MissProg::Controller,
        MissPolicy::Fall(n) => MissProg::Fall(table_index(p, n)?),
    };
    Ok(CTable {
        name: t.name.clone(),
        cls,
        template: stats.kind,
        cost_ns: params.lookup_ns(&stats),
        entries,
        miss,
    })
}

/// Splice one edited row into an all-exact table's key → first-row map.
/// `rows` is the table's row count after the edit, `key(i)` the key of row
/// `i` as edited and `is(i, k)` whether row `i` has key `k`; `old` is the
/// edited row's key before the edit, `None` when the edit did not change
/// it. A key whose owner goes passes to the next row holding it — the
/// duplicate it shadowed.
fn splice_keys<K: Hash + Eq>(
    map: &mut HashMap<K, u32>,
    edit: RowEdit<'_>,
    rows: usize,
    key: impl Fn(usize) -> K,
    is: impl Fn(usize, &K) -> bool,
    old: Option<K>,
) {
    let heir = |k: &K, from: usize| (from..rows).find(|&j| is(j, k));
    match edit {
        RowEdit::Insert => {
            map.entry(key(rows - 1)).or_insert(rows as u32 - 1);
        }
        RowEdit::Delete { row, .. } => {
            let old = old.expect("a deleted row had a key");
            let owned = map.get(&old) == Some(&(row as u32));
            if owned {
                map.remove(&old);
            }
            for v in map.values_mut() {
                if *v > row as u32 {
                    *v -= 1;
                }
            }
            if let Some(j) = owned.then(|| heir(&old, row)).flatten() {
                map.insert(old, j as u32);
            }
        }
        RowEdit::Modify { row, .. } => {
            let Some(old) = old else { return };
            if map.get(&old) == Some(&(row as u32)) {
                match heir(&old, row + 1) {
                    Some(j) => map.insert(old, j as u32),
                    None => map.remove(&old),
                };
            }
            let owner = map.entry(key(row)).or_insert(row as u32);
            *owner = (*owner).min(row as u32);
        }
    }
}

/// How an engine's flow-mods were applied, kept locally (as the megaflow
/// counters are): tests read them with the `obs` feature compiled out,
/// and the `obs` registry is one per process, so a delta on it also
/// counts the flow-mods of tests running alongside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct UpdateStats {
    /// Rows spliced into a compiled table.
    pub(crate) splices: u64,
    /// Tables rebuilt whole.
    pub(crate) recompiles: u64,
}

/// A pipeline compiled for execution under one template policy and cost
/// model. Same verdicts and lookup counts as [`Pipeline::run`].
pub struct CompiledEngine {
    tables: Vec<CTable>,
    start: usize,
    /// Attribute per register, load order.
    reg_attrs: Vec<AttrId>,
    policy: TemplatePolicy,
    params: CostParams,
    regs: Vec<u64>,
    key: Vec<u64>,
    stats: UpdateStats,
}

impl CompiledEngine {
    /// Compile `p` under a template policy and cost model. Compilation
    /// time lands in the `switch.compile.ns` timer. Pre-registers the
    /// flow-mod path counters, so a run that never edits a table still
    /// reports them.
    pub fn compile(
        p: &Pipeline,
        policy: TemplatePolicy,
        params: CostParams,
    ) -> Result<CompiledEngine, CompileError> {
        mapro_obs::counter!("switch.compiled.compiles").inc();
        mapro_obs::counter!("switch.compiled.table_splices");
        mapro_obs::counter!("switch.compiled.table_recompiles");
        let _t = mapro_obs::time!("switch.compile.ns");

        // Register file: every attribute any table matches on, in first
        // appearance order. SetField targets outside this set can never
        // influence a later lookup and are dropped by `compile_table`.
        let mut reg_attrs: Vec<AttrId> = Vec::new();
        for t in &p.tables {
            for &a in &t.match_attrs {
                if !reg_attrs.contains(&a) {
                    reg_attrs.push(a);
                }
            }
        }
        let tables = p
            .tables
            .iter()
            .map(|t| compile_table(p, t, &reg_attrs, policy, &params))
            .collect::<Result<Vec<_>, _>>()?;
        let start = table_index(p, &p.start)? as usize;
        let nregs = reg_attrs.len();
        Ok(CompiledEngine {
            tables,
            start,
            reg_attrs,
            policy,
            params,
            regs: vec![0; nregs],
            key: Vec::new(),
            stats: UpdateStats::default(),
        })
    }

    /// Recompile a single table in place after its entries changed,
    /// reusing every other table's program. `p` must be the pipeline this
    /// engine was compiled from, modulo entry edits — table order, match
    /// columns and cross-table wiring may not change (positions and
    /// registers are baked into the compiled tables). On error the engine
    /// is untouched.
    pub fn recompile_table(&mut self, p: &Pipeline, name: &str) -> Result<(), CompileError> {
        let pos = table_index(p, name)? as usize;
        debug_assert_eq!(self.tables[pos].name, name, "table order changed");
        self.rebuild(p, pos)
    }

    /// Compile table `pos` of `p` afresh; on error the engine is untouched.
    fn rebuild(&mut self, p: &Pipeline, pos: usize) -> Result<(), CompileError> {
        mapro_obs::counter!("switch.compiled.table_recompiles").inc();
        self.stats.recompiles += 1;
        self.tables[pos] = compile_table(
            p,
            &p.tables[pos],
            &self.reg_attrs,
            self.policy,
            &self.params,
        )?;
        Ok(())
    }

    /// The one flow-mod path every switch in this crate uses: apply
    /// `update` to `p` (the pipeline this engine serves) in place and
    /// splice the row it changed into the touched table
    /// ([`CompiledEngine::splice`]). All-or-nothing — if the edited table
    /// no longer compiles, the update is undone and the engine is
    /// untouched. On success, returns the update's [`Undo`] record: a
    /// caller rolling back a plan undoes it and recompiles the table.
    pub fn apply_update(
        &mut self,
        p: &mut Pipeline,
        update: &RuleUpdate,
    ) -> Result<Undo, UpdateError> {
        let record = mapro_core::apply_update(p, update).map_err(UpdateError::Apply)?;
        match self.splice(p, &record) {
            Ok(()) => Ok(record),
            Err(e) => {
                mapro_core::undo(p, record);
                Err(UpdateError::Compile(e))
            }
        }
    }

    /// Bring the compiled table `record` names up to date with `p`, which
    /// `record`'s update has just edited, by the one row it changed: the
    /// row's entry program and its classifier cells or hash keys, renumbering
    /// the rows after it; then the shape's template and cost, read off the
    /// rows as a compile does. The result equals a fresh compile of the
    /// table. Only a change of `Cls` arm — into or out of an all-exact
    /// shape, or to other key columns — rebuilds the table whole. On error
    /// the engine is untouched: everything fallible runs before the first
    /// write.
    fn splice(&mut self, p: &Pipeline, record: &Undo) -> Result<(), CompileError> {
        let pos = record.table();
        let t = &p.tables[pos];
        debug_assert_eq!(self.tables[pos].name, t.name, "table order changed");
        let widths = widths(p, t);
        let rows = rows_of(t, &widths);
        let shape = rows.shape();
        let reg_attrs = &self.reg_attrs;
        let same_arm = match (&shape, &self.tables[pos].cls) {
            (TableShape::AllExact { cols }, Cls::Exact1 { reg, .. }) => {
                cols.len() == 1 && reg_of(reg_attrs, t.match_attrs[cols[0]]) == *reg
            }
            (TableShape::AllExact { cols }, Cls::Exact { regs, .. }) => {
                cols.len() != 1
                    && cols
                        .iter()
                        .map(|&c| reg_of(reg_attrs, t.match_attrs[c]))
                        .eq(regs.iter().copied())
            }
            (TableShape::AllExact { .. }, Cls::Scan { .. }) => false,
            (_, Cls::Scan { .. }) => true,
            _ => false,
        };
        if !same_arm {
            return self.rebuild(p, pos);
        }

        let edit = record.edit();
        let row = match edit {
            RowEdit::Insert => t.len() - 1,
            RowEdit::Modify { row, .. } | RowEdit::Delete { row, .. } => row,
        };
        let prog = match edit {
            RowEdit::Delete { .. } => None,
            _ => Some(entry_prog(
                p,
                t,
                &t.entries[row],
                reg_attrs,
                table_next(p, t)?,
            )?),
        };
        let cells = match (&self.tables[pos].cls, edit) {
            (Cls::Scan { .. }, RowEdit::Insert | RowEdit::Modify { .. }) => {
                let cells = t.entries[row].matches.iter().zip(&widths);
                let cells: Option<Vec<_>> = cells.map(|(v, &w)| v.as_ternary(w)).collect();
                Some(cells.ok_or_else(|| CompileError::BadMatchCell {
                    table: t.name.clone(),
                })?)
            }
            _ => None,
        };
        let stats = template_stats(&rows, &shape, self.policy);

        mapro_obs::counter!("switch.compiled.table_splices").inc();
        self.stats.splices += 1;
        let ct = &mut self.tables[pos];
        match (edit, prog) {
            (RowEdit::Delete { .. }, _) => {
                ct.entries.remove(row);
            }
            (RowEdit::Insert, Some(prog)) => ct.entries.push(prog),
            (RowEdit::Modify { .. }, Some(prog)) => ct.entries[row] = prog,
            _ => unreachable!("a program for every row the edit leaves"),
        }
        // The edited row's key cells before the edit, on the key columns
        // `cols`: `None` when the edit wrote none of them.
        let old_cells = |cols: &[usize]| -> Option<Vec<u64>> {
            match edit {
                RowEdit::Insert => None,
                RowEdit::Delete { entry, .. } => {
                    Some(cols.iter().map(|&c| int(entry, c)).collect())
                }
                RowEdit::Modify { old, .. } => {
                    let was = |c: usize| {
                        old.iter()
                            .find(|&&(col, is_match, _)| is_match && col == c)
                            .map(|(_, _, v)| v)
                    };
                    if cols.iter().all(|&c| was(c).is_none()) {
                        return None;
                    }
                    let key = cols.iter().map(|&c| match was(c) {
                        Some(Value::Int(v)) => *v,
                        Some(_) => unreachable!("an all-exact shape before the edit"),
                        None => int(&t.entries[row], c),
                    });
                    Some(key.collect())
                }
            }
        };
        let n = t.len();
        match (&mut ct.cls, &shape) {
            (Cls::Exact1 { map, .. }, TableShape::AllExact { cols }) => {
                let col = cols[0];
                let old = old_cells(cols).map(|k| k[0]);
                let key = |i: usize| int(&t.entries[i], col);
                splice_keys(map, edit, n, key, |i, k| key(i) == *k, old);
            }
            (Cls::Exact { map, .. }, TableShape::AllExact { cols }) => {
                let key = |i: usize| cols.iter().map(|&c| int(&t.entries[i], c)).collect();
                let is = |i: usize, k: &Vec<u64>| {
                    cols.iter()
                        .zip(k)
                        .all(|(&c, &v)| int(&t.entries[i], c) == v)
                };
                splice_keys(map, edit, n, key, is, old_cells(cols));
            }
            (
                Cls::Scan {
                    cells: all, ncols, ..
                },
                _,
            ) => {
                let at = row * *ncols..(row + 1) * *ncols;
                match (edit, cells) {
                    (RowEdit::Delete { .. }, _) => {
                        all.drain(at);
                    }
                    (RowEdit::Insert, Some(cells)) => all.extend_from_slice(&cells),
                    (RowEdit::Modify { .. }, Some(cells)) => all[at].copy_from_slice(&cells),
                    _ => unreachable!("cells for every row the edit leaves"),
                }
            }
            _ => unreachable!("the arm matches the shape"),
        }
        ct.template = stats.kind;
        ct.cost_ns = self.params.lookup_ns(&stats);
        Ok(())
    }

    /// The template each table is charged as, for reports.
    pub fn templates(&self) -> Vec<(String, TemplateKind)> {
        self.tables
            .iter()
            .map(|t| (t.name.clone(), t.template))
            .collect()
    }

    /// Cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Longest start-to-end chain over next/goto/fall edges (for hardware
    /// latency accounting).
    pub fn stages(&self) -> usize {
        fn depth(tables: &[CTable], i: usize, seen: &mut Vec<bool>) -> usize {
            if seen[i] {
                return 0;
            }
            seen[i] = true;
            let mut best = 0usize;
            if let MissProg::Fall(n) = tables[i].miss {
                best = best.max(depth(tables, n as usize, seen));
            }
            for e in &tables[i].entries {
                if let Some(n) = e.next {
                    best = best.max(depth(tables, n as usize, seen));
                }
            }
            seen[i] = false;
            1 + best
        }
        if self.tables.is_empty() {
            return 0;
        }
        let mut seen = vec![false; self.tables.len()];
        depth(&self.tables, self.start, &mut seen)
    }

    /// Attribute per register, in load order.
    pub(crate) fn reg_attrs(&self) -> &[AttrId] {
        &self.reg_attrs
    }

    /// Load `pkt` into the register file: the state every walk starts
    /// from, and therefore the megaflow caches' key.
    #[inline]
    pub(crate) fn load(&mut self, pkt: &Packet) {
        for (r, &a) in self.regs.iter_mut().zip(&self.reg_attrs) {
            *r = pkt.get(a);
        }
    }

    /// The register file: as loaded, until a walk stores to it.
    #[inline]
    pub(crate) fn regs(&self) -> &[u64] {
        &self.regs
    }

    /// Process one packet.
    #[inline]
    pub fn process(&mut self, pkt: &Packet) -> ProcessOut {
        self.load(pkt);
        self.walk(|_| {})
    }

    /// The per-packet table walk over the [loaded](Self::load) register
    /// file — the only one in this crate. `visit` sees every lookup, in
    /// order: the megaflow caches build their masks from it.
    #[inline]
    pub(crate) fn walk(&mut self, mut visit: impl FnMut(&Lookup<'_>)) -> ProcessOut {
        let mut cur = Some(self.start);
        let mut out = ProcessOut {
            output: None,
            dropped: false,
            lookups: 0,
            service_ns: self.params.per_packet_ns,
            latency_ns: self.params.per_packet_ns,
            slow_path: false,
        };
        let limit = self.tables.len() * 2 + 8;
        let mut steps = 0;
        while let Some(ti) = cur {
            steps += 1;
            if steps > limit {
                break; // cycle guard; well-formed pipelines are acyclic
            }
            let t = &self.tables[ti];
            out.lookups += 1;
            out.service_ns += t.cost_ns;
            out.latency_ns += t.cost_ns;
            let row = t.cls.lookup(&self.regs, &mut self.key);
            let entry = row.map(|r| &t.entries[r as usize]);
            visit(&Lookup {
                table: ti,
                cls: &t.cls,
                regs: &self.regs,
                row,
                sets: entry.map_or(&[], |e| &e.sets),
            });
            match entry {
                None => match t.miss {
                    MissProg::Drop => {
                        out.dropped = true;
                        cur = None;
                    }
                    MissProg::Controller => cur = None,
                    MissProg::Fall(n) => cur = Some(n as usize),
                },
                Some(e) => {
                    for &(r, v) in &e.sets {
                        self.regs[r] = v;
                    }
                    if let Some(o) = &e.output {
                        out.output = Some(o.clone());
                    }
                    cur = e.next.map(|n| n as usize);
                }
            }
        }
        out
    }
}

impl fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("tables", &self.templates())
            .field("regs", &self.reg_attrs.len())
            .field("start", &self.start)
            .finish()
    }
}

#[cfg(test)]
impl CompiledEngine {
    /// Heap address of each table's entry programs, in table order: stable
    /// while a table is reused, fresh when it is recompiled.
    pub(crate) fn table_addrs(&self) -> Vec<usize> {
        self.tables
            .iter()
            .map(|t| t.entries.as_ptr() as usize)
            .collect()
    }

    /// How this engine's flow-mods were applied so far.
    pub(crate) fn update_stats(&self) -> UpdateStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cls::{build_generic, build_specialized, Classifier, TableView};
    use mapro_core::Catalog;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const POLICIES: [TemplatePolicy; 4] = [
        TemplatePolicy::Specialize {
            generic: TemplateKind::Linear,
        },
        TemplatePolicy::Uniform(TemplateKind::Tss),
        TemplatePolicy::Uniform(TemplateKind::Linear),
        TemplatePolicy::Tcam,
    ];

    fn two_stage() -> Pipeline {
        let mut c = Catalog::new();
        let dst = c.field("dst", 16);
        let src = c.field("src", 32);
        let m = c.meta("m", 32);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![dst], vec![set_m]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(10)]);
        t0.row(vec![Value::Int(2)], vec![Value::Int(20)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![m, src], vec![out]);
        t1.row(
            vec![Value::Int(10), Value::prefix(0, 1, 32)],
            vec![Value::sym("a")],
        );
        t1.row(
            vec![Value::Int(10), Value::prefix(0x8000_0000, 1, 32)],
            vec![Value::sym("b")],
        );
        t1.row(vec![Value::Int(20), Value::Any], vec![Value::sym("c")]);
        Pipeline::new(c, vec![t0, t1], "t0")
    }

    /// t0 falls through to t1 on a miss; t1 punts to the controller.
    fn miss_chain() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![out]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("fast")]);
        t0.miss = MissPolicy::Fall("t1".into());
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Int(2)], vec![Value::sym("slow")]);
        t1.miss = MissPolicy::Controller;
        Pipeline::new(c, vec![t0, t1], "t0")
    }

    /// What the policy's real classifier template charges per table,
    /// computed without the engine.
    fn table_costs(p: &Pipeline, policy: TemplatePolicy, params: &CostParams) -> Vec<f64> {
        p.tables
            .iter()
            .map(|t| {
                let view = TableView::of(t, &p.catalog);
                let stats = match policy {
                    TemplatePolicy::Specialize { generic } => {
                        build_specialized(&view, generic).stats()
                    }
                    TemplatePolicy::Uniform(kind) => build_generic(&view, kind).stats(),
                    TemplatePolicy::Tcam => crate::cls::TcamModel::build(&view, usize::MAX)
                        .unwrap()
                        .stats(),
                };
                params.lookup_ns(&stats)
            })
            .collect()
    }

    /// Verdict and lookup count equal the oracle's; both costs equal the
    /// per-packet constant plus the visited tables' template costs, summed
    /// in visit order (bit-exact).
    fn assert_matches_oracle(p: &Pipeline, policy: TemplatePolicy, pkts: &[Packet]) {
        let params = CostParams::eswitch();
        let costs = table_costs(p, policy, &params);
        let mut ce = CompiledEngine::compile(p, policy, params.clone()).unwrap();
        for pkt in pkts {
            let want = p.run(pkt).unwrap();
            let got = ce.process(pkt);
            assert_eq!(got.output, want.output, "{policy:?} {pkt:?}");
            assert_eq!(got.dropped, want.dropped, "{policy:?} {pkt:?}");
            assert_eq!(got.lookups, want.lookups, "{policy:?} {pkt:?}");
            let mut cost = params.per_packet_ns;
            for name in &want.path {
                cost += costs[p.tables.iter().position(|t| &t.name == name).unwrap()];
            }
            assert_eq!(got.service_ns, cost, "{policy:?} {pkt:?}");
            assert_eq!(got.latency_ns, cost, "{policy:?} {pkt:?}");
            assert!(!got.slow_path);
        }
    }

    #[test]
    fn agrees_with_oracle_under_every_policy() {
        let p = two_stage();
        let pkts: Vec<Packet> = [(1u64, 0u64), (1, u32::MAX as u64), (2, 5), (3, 5)]
            .iter()
            .map(|&(dst, src)| Packet::from_fields(&p.catalog, &[("dst", dst), ("src", src)]))
            .collect();
        for policy in POLICIES {
            assert_matches_oracle(&p, policy, &pkts);
        }
    }

    #[test]
    fn fall_and_controller_miss_policies_agree_with_oracle() {
        let p = miss_chain();
        let pkts: Vec<Packet> = (0..4u64)
            .map(|f| Packet::from_fields(&p.catalog, &[("f", f)]))
            .collect();
        for policy in POLICIES {
            assert_matches_oracle(&p, policy, &pkts);
        }
        let mut ce = CompiledEngine::compile(&p, POLICIES[2], CostParams::eswitch()).unwrap();
        let hit = ce.process(&pkts[1]);
        assert_eq!((hit.output.as_deref(), hit.lookups), (Some("fast"), 1));
        let fell = ce.process(&pkts[2]);
        assert_eq!((fell.output.as_deref(), fell.lookups), (Some("slow"), 2));
        let punted = ce.process(&pkts[3]);
        assert_eq!(
            (punted.output, punted.dropped, punted.lookups),
            (None, false, 2)
        );
    }

    /// Every visit of `p`'s one table costs what the policy's built
    /// classifier charges, bit for bit.
    fn assert_one_table_costs(ce: &mut CompiledEngine, p: &Pipeline, policy: TemplatePolicy) {
        let params = ce.params().clone();
        let want = params.per_packet_ns + table_costs(p, policy, &params)[0];
        let fields: Vec<&str> = p.tables[0]
            .match_attrs
            .iter()
            .map(|&a| p.catalog.name(a))
            .collect();
        for v in [0u64, 1, 2, 3, 10, 0x8000_0001, 0xc000_0000] {
            let vals: Vec<(&str, u64)> = fields.iter().map(|&f| (f, v)).collect();
            let pkt = Packet::from_fields(&p.catalog, &vals);
            let got = ce.process(&pkt);
            assert_eq!(got.lookups, 1);
            assert_eq!(got.service_ns, want, "{policy:?} {:?}", ce.templates());
        }
    }

    /// The stats read off the rows price a table exactly as the built
    /// classifier does: every policy × every shape, at compile time and
    /// after flow-mods that move a table Exact → General → Exact.
    #[test]
    fn stats_from_rows_price_like_the_built_classifier() {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let g = c.field("g", 32);
        let out = c.action("out", ActionSem::Output);
        let table = |cols: Vec<AttrId>, rows: Vec<Vec<Value>>| {
            let mut t = Table::new("t", cols, vec![out]);
            for (i, r) in rows.into_iter().enumerate() {
                t.row(r, vec![Value::sym(format!("p{i}"))]);
            }
            Pipeline::single(c.clone(), t)
        };
        let pfx = |bits, len| Value::prefix(bits, len, 32);
        let shapes = [
            table(vec![f], vec![]),
            table(vec![], vec![vec![]]),
            table(vec![f], vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
            table(
                vec![f, g],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                ],
            ),
            table(
                vec![g],
                vec![
                    vec![pfx(0xc000_0000, 2)],
                    vec![pfx(0x8000_0000, 1)],
                    vec![Value::Any],
                ],
            ),
            table(vec![g], vec![vec![pfx(0, 1)], vec![pfx(0, 2)]]),
            table(
                vec![f, g],
                vec![
                    vec![Value::Int(1), pfx(0, 1)],
                    vec![Value::Any, Value::Ternary { bits: 2, mask: 3 }],
                    vec![Value::Int(3), Value::Any],
                ],
            ),
        ];
        let policies = [
            TemplatePolicy::Specialize {
                generic: TemplateKind::Linear,
            },
            TemplatePolicy::Specialize {
                generic: TemplateKind::Tss,
            },
            TemplatePolicy::Uniform(TemplateKind::Tss),
            TemplatePolicy::Uniform(TemplateKind::Linear),
            TemplatePolicy::Tcam,
        ];
        for policy in policies {
            for p in &shapes {
                let mut ce = CompiledEngine::compile(p, policy, CostParams::lagopus()).unwrap();
                assert_one_table_costs(&mut ce, p, policy);
            }
            // Exact → General → Exact, by an insert and its delete, then
            // by a match-cell modify and its inverse.
            let mut p = shapes[3].clone();
            let mut ce = CompiledEngine::compile(&p, policy, CostParams::lagopus()).unwrap();
            let wild = vec![Value::Int(3), pfx(0, 1)];
            let moves = [
                RuleUpdate::Insert {
                    table: "t".into(),
                    entry: Entry::new(wild.clone(), vec![Value::sym("w")]),
                },
                RuleUpdate::Delete {
                    table: "t".into(),
                    matches: wild,
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1), Value::Int(10)],
                    set: vec![(g, pfx(0x8000_0000, 1))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1), pfx(0x8000_0000, 1)],
                    set: vec![(g, Value::Int(10))],
                },
            ];
            let mut kinds = vec![ce.templates()[0].1];
            for u in &moves {
                ce.apply_update(&mut p, u).unwrap();
                assert_one_table_costs(&mut ce, &p, policy);
                kinds.push(ce.templates()[0].1);
            }
            assert_eq!(p, shapes[3]);
            if policy == policies[0] {
                use TemplateKind::{Exact, Linear};
                assert_eq!(kinds, [Exact, Linear, Exact, Linear, Exact]);
            }
        }
    }

    #[test]
    fn specialization_templates_visible() {
        let ce = CompiledEngine::compile(&two_stage(), POLICIES[0], CostParams::eswitch()).unwrap();
        let t: Vec<_> = ce.templates().into_iter().map(|(_, k)| k).collect();
        // t0: single exact column → Exact; t1: meta exact + prefix → General.
        assert_eq!(t, vec![TemplateKind::Exact, TemplateKind::Linear]);
    }

    #[test]
    fn costs_accumulate_per_stage() {
        let p = two_stage();
        let params = CostParams::eswitch();
        let mut ce = CompiledEngine::compile(&p, POLICIES[2], params.clone()).unwrap();
        let r = ce.process(&Packet::from_fields(&p.catalog, &[("dst", 1), ("src", 0)]));
        assert_eq!(r.lookups, 2);
        // Linear everywhere: base + per-entry for 2 rows, then for 3 rows.
        let want = params.per_packet_ns
            + (params.linear_base_ns + params.linear_entry_ns * 2.0)
            + (params.linear_base_ns + params.linear_entry_ns * 3.0);
        assert_eq!(r.service_ns, want);
        // A first-stage miss pays for one table only.
        let r = ce.process(&Packet::from_fields(&p.catalog, &[("dst", 3), ("src", 0)]));
        assert_eq!(
            r.service_ns,
            params.per_packet_ns + (params.linear_base_ns + params.linear_entry_ns * 2.0)
        );
    }

    #[test]
    fn max_stages_counts_chain() {
        let ce =
            CompiledEngine::compile(&two_stage(), TemplatePolicy::Tcam, CostParams::noviflow());
        assert_eq!(ce.unwrap().stages(), 2);
        let ce =
            CompiledEngine::compile(&miss_chain(), TemplatePolicy::Tcam, CostParams::noviflow());
        assert_eq!(ce.unwrap().stages(), 2, "fall edges count");
    }

    /// The oracle reports a goto cycle as an error; the engine must still
    /// terminate, after `2·tables + 8` charged lookups.
    #[test]
    fn cycle_guard_terminates() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        assert!(p.run(&pkt).is_err());
        let mut ce = CompiledEngine::compile(&p, POLICIES[2], CostParams::eswitch()).unwrap();
        let r = ce.process(&pkt);
        assert_eq!((r.output, r.dropped, r.lookups), (None, false, 10));
    }

    #[test]
    fn bad_goto_target_detected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.action("g", ActionSem::Goto);
        let mut t = Table::new("t", vec![f], vec![g]);
        t.row(vec![Value::Int(1)], vec![Value::sym("zzz")]);
        let p = Pipeline::new(c, vec![t], "t");
        assert!(matches!(
            CompiledEngine::compile(&p, TemplatePolicy::Tcam, CostParams::noviflow()),
            Err(CompileError::UnknownTable(_))
        ));
    }

    #[test]
    fn symbolic_match_cell_rejected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let mut t = Table::new("t", vec![f], vec![]);
        t.row(vec![Value::sym("oops")], vec![]);
        let p = Pipeline::single(c, t);
        assert!(matches!(
            CompiledEngine::compile(&p, TemplatePolicy::Tcam, CostParams::noviflow()),
            Err(CompileError::BadMatchCell { .. })
        ));
    }

    #[test]
    fn failed_update_leaves_pipeline_and_engine_untouched() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.action("g", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![g]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("t1")]);
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Any], vec![Value::sym("a")]);
        let mut p = Pipeline::new(c, vec![t0, t1], "t0");
        let orig = p.clone();
        let mut ce = CompiledEngine::compile(&p, POLICIES[0], CostParams::eswitch()).unwrap();
        let addrs = ce.table_addrs();
        let dangling = RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::Int(1)],
            set: vec![(g, Value::sym("nowhere"))],
        };
        assert!(matches!(
            ce.apply_update(&mut p, &dangling),
            Err(UpdateError::Compile(CompileError::UnknownTable(_)))
        ));
        let absent = RuleUpdate::Delete {
            table: "t0".into(),
            matches: vec![Value::Int(9)],
        };
        assert!(matches!(
            ce.apply_update(&mut p, &absent),
            Err(UpdateError::Apply(_))
        ));
        assert_eq!(p, orig);
        assert_eq!(ce.table_addrs(), addrs);
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        assert_eq!(ce.process(&pkt).output.as_deref(), Some("a"));
    }

    /// Every compiled table equals a fresh compile of the pipeline's table:
    /// classifier, entry programs, template and modeled cost.
    fn assert_fresh(ce: &CompiledEngine, p: &Pipeline, ctx: &str) {
        assert_eq!(ce.tables.len(), p.tables.len());
        for (ct, t) in ce.tables.iter().zip(&p.tables) {
            let fresh = compile_table(p, t, &ce.reg_attrs, ce.policy, &ce.params).unwrap();
            assert_eq!(*ct, fresh, "{ctx}: table {}", t.name);
        }
    }

    /// Five tables, one per classifier arm and shape: `t0` exact over two
    /// columns (with `next` and gotos), `t1` exact over one, `t2` a single
    /// prefix column, `t3` general, `t4` empty.
    fn shapes() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let h = c.field("h", 16);
        let m = c.meta("m", 8);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f, g], vec![set_m, goto]);
        let mut t1 = Table::new("t1", vec![m], vec![out]);
        let mut t2 = Table::new("t2", vec![h], vec![out]);
        let mut t3 = Table::new("t3", vec![f, h], vec![out]);
        let t4 = Table::new("t4", vec![g], vec![out]);
        for i in 0..4u64 {
            let to = Value::sym(["t2", "t3", "t4"][i as usize % 3]);
            t0.row(
                vec![Value::Int(i), Value::Int(i % 2)],
                vec![Value::Int(i), to],
            );
            t1.row(vec![Value::Int(i)], vec![Value::sym(format!("a{i}"))]);
            t2.row(
                vec![Value::prefix(i << 12, 4, 16)],
                vec![Value::sym(format!("b{i}"))],
            );
            t3.row(
                vec![Value::Int(i), Value::prefix(i << 14, 2, 16)],
                vec![Value::sym(format!("c{i}"))],
            );
        }
        t0.next = Some("t1".into());
        t1.miss = MissPolicy::Fall("t2".into());
        Pipeline::new(c, vec![t0, t1, t2, t3, t4], "t0")
    }

    /// A random match cell of `width` bits over a small value range, so
    /// that keys collide and duplicates happen: mostly exact, sometimes a
    /// prefix, a ternary or a wildcard — each of which moves an all-exact
    /// table off its hash.
    fn cell(rng: &mut SmallRng, width: u32) -> Value {
        match rng.gen_range(0..8u8) {
            0 => Value::Any,
            1 => Value::prefix(
                rng.gen_range(0..4u64) << (width - 2),
                rng.gen_range(1..3),
                width,
            ),
            2 => Value::Ternary {
                bits: rng.gen_range(0..2),
                mask: 1,
            },
            _ => Value::Int(rng.gen_range(0..6)),
        }
    }

    /// A random flow-mod against `p`, fallible ones included: a symbolic
    /// match cell or a dangling goto (the splice refuses them), a delete
    /// of a row that is not there (the edit does).
    fn random_edit(p: &Pipeline, rng: &mut SmallRng) -> RuleUpdate {
        let t = &p.tables[rng.gen_range(0..p.tables.len())];
        let table = t.name.clone();
        let width = |a: AttrId| p.catalog.attr(a).width;
        let row = (!t.entries.is_empty()).then(|| &t.entries[rng.gen_range(0..t.len())]);
        let new_row = |rng: &mut SmallRng| {
            let matches = t.match_attrs.iter().map(|&a| cell(rng, width(a))).collect();
            let actions = match t.name.as_str() {
                "t0" => vec![Value::Int(rng.gen_range(0..6)), Value::sym("t3")],
                _ => vec![Value::sym("new")],
            };
            Entry::new(matches, actions)
        };
        match (rng.gen_range(0..10u8), row) {
            (0..=2, _) | (_, None) => RuleUpdate::Insert {
                table,
                entry: new_row(rng),
            },
            // A copy of an existing row: a duplicate key, shadowed.
            (3, Some(e)) => RuleUpdate::Insert {
                table,
                entry: e.clone(),
            },
            (4 | 5, Some(e)) => RuleUpdate::Delete {
                table,
                matches: e.matches.clone(),
            },
            (6 | 7, Some(e)) => {
                let attr = t.match_attrs[rng.gen_range(0..t.match_attrs.len())];
                RuleUpdate::Modify {
                    table,
                    matches: e.matches.clone(),
                    set: vec![(attr, cell(rng, width(attr)))],
                }
            }
            (8, Some(e)) => {
                let attr = t.action_attrs[rng.gen_range(0..t.action_attrs.len())];
                let v = match p.catalog.attr(attr).kind {
                    AttrKind::Action(ActionSem::Goto) => {
                        Value::sym(["t3", "t4", "nowhere"][rng.gen_range(0..3usize)])
                    }
                    AttrKind::Action(ActionSem::SetField(_)) => Value::Int(rng.gen_range(0..6)),
                    _ => Value::sym("moved"),
                };
                RuleUpdate::Modify {
                    table,
                    matches: e.matches.clone(),
                    set: vec![(attr, v)],
                }
            }
            (_, Some(e)) if rng.gen_bool(0.5) => RuleUpdate::Modify {
                table,
                matches: e.matches.clone(),
                set: vec![(t.match_attrs[0], Value::sym("oops"))],
            },
            (_, Some(_)) => RuleUpdate::Delete {
                table,
                matches: vec![Value::Int(0xff); t.match_attrs.len()],
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After every flow-mod — spliced, rebuilt or refused — each
        /// compiled table equals a fresh `compile_table` of its table, under
        /// every policy, and a refused flow-mod leaves the pipeline as it
        /// was.
        #[test]
        fn spliced_tables_equal_fresh_compiles(seed in 0u64..1_000_000, policy in 0usize..5) {
            let policy = [
                POLICIES[0],
                POLICIES[1],
                POLICIES[2],
                POLICIES[3],
                TemplatePolicy::Specialize { generic: TemplateKind::Tss },
            ][policy];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut p = shapes();
            let mut ce = CompiledEngine::compile(&p, policy, CostParams::eswitch()).unwrap();
            for step in 0..40 {
                let u = random_edit(&p, &mut rng);
                let before = p.clone();
                let ctx = format!("seed {seed} {policy:?} step {step}: {u:?}");
                if ce.apply_update(&mut p, &u).is_err() {
                    proptest::prop_assert_eq!(&p, &before, "{}", ctx);
                }
                assert_fresh(&ce, &p, &ctx);
            }
            proptest::prop_assert!(ce.update_stats().splices > 0);
        }
    }

    /// Which edits splice and which rebuild: a move between `SinglePrefix`
    /// and `General` keeps the scan and splices; entering or leaving an
    /// all-exact shape, or changing its key columns, rebuilds; deleting the
    /// owner of a duplicate exact key surfaces the duplicate.
    #[test]
    fn only_a_change_of_classifier_arm_rebuilds() {
        let mut p = shapes();
        let mut ce = CompiledEngine::compile(&p, POLICIES[0], CostParams::eswitch()).unwrap();
        let (m, h, f) = (
            p.catalog.lookup("m").unwrap(),
            p.catalog.lookup("h").unwrap(),
            p.catalog.lookup("f").unwrap(),
        );
        let expect = |ce: &mut CompiledEngine, p: &mut Pipeline, u: RuleUpdate, rebuilt| {
            let before = ce.update_stats();
            ce.apply_update(p, &u).unwrap();
            let after = ce.update_stats();
            let want = if rebuilt {
                (before.splices, before.recompiles + 1)
            } else {
                (before.splices + 1, before.recompiles)
            };
            assert_eq!((after.splices, after.recompiles), want, "{u:?}");
            assert_fresh(ce, p, &format!("{u:?}"));
        };
        let out = |v: &str| vec![Value::sym(v)];
        // t1: a duplicate of key 1, then its owner goes — the copy owns it.
        let dup = Entry::new(vec![Value::Int(1)], out("dup"));
        let ins = |table: &str, entry: Entry| RuleUpdate::Insert {
            table: table.into(),
            entry,
        };
        let del = |table: &str, matches: Vec<Value>| RuleUpdate::Delete {
            table: table.into(),
            matches,
        };
        expect(&mut ce, &mut p, ins("t1", dup), false);
        expect(&mut ce, &mut p, del("t1", vec![Value::Int(1)]), false);
        assert!(matches!(&ce.tables[1].cls, Cls::Exact1 { map, .. } if map[&1] == 3));
        // t1: a prefix cell leaves the hash, its delete returns to it.
        let wild = vec![Value::prefix(0, 1, 8)];
        expect(
            &mut ce,
            &mut p,
            ins("t1", Entry::new(wild.clone(), out("w"))),
            true,
        );
        expect(&mut ce, &mut p, del("t1", wild), true);
        // t1: a wildcard key cell leaves the hash too.
        let any = RuleUpdate::Modify {
            table: "t1".into(),
            matches: vec![Value::Int(0)],
            set: vec![(m, Value::Any)],
        };
        expect(&mut ce, &mut p, any, true);
        // t2: SinglePrefix → General (overlapping, shorter prefix first)
        // and back, both on the scan.
        let short = RuleUpdate::Modify {
            table: "t2".into(),
            matches: vec![Value::prefix(0, 4, 16)],
            set: vec![(h, Value::prefix(0, 1, 16))],
        };
        expect(&mut ce, &mut p, short, false);
        assert_eq!(ce.templates()[2].1, TemplateKind::Linear);
        let back = RuleUpdate::Modify {
            table: "t2".into(),
            matches: vec![Value::prefix(0, 1, 16)],
            set: vec![(h, Value::prefix(0, 4, 16))],
        };
        expect(&mut ce, &mut p, back, false);
        assert_eq!(ce.templates()[2].1, TemplateKind::Lpm);
        // t3: delete every ternary row but one, then that one: all-exact.
        for i in 0..3u64 {
            let row = vec![Value::Int(i), Value::prefix(i << 14, 2, 16)];
            expect(&mut ce, &mut p, del("t3", row), false);
        }
        let exact = Entry::new(vec![Value::Int(7), Value::Int(9)], out("e"));
        expect(&mut ce, &mut p, ins("t3", exact), false);
        expect(
            &mut ce,
            &mut p,
            del("t3", vec![Value::Int(3), Value::prefix(3 << 14, 2, 16)]),
            true,
        );
        // t0: a key column turns wildcard — other key columns — rebuilds.
        let key = RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::Int(0), Value::Int(0)],
            set: vec![(f, Value::Int(5))],
        };
        expect(&mut ce, &mut p, key, false);
        // t4: the first row of an empty table has a key column where the
        // empty table had none.
        expect(
            &mut ce,
            &mut p,
            ins("t4", Entry::new(vec![Value::Int(1)], out("x"))),
            true,
        );
    }
}
