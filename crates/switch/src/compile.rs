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
//! [`TemplatePolicy`] really selects for the table (`mapro-classifier`
//! reads them off the table's rows, without building the template). The
//! classifier decisions agree with any template because every template
//! implements first-match semantics; [`mapro_core::Pipeline::run`] is the
//! oracle the test suites compare against.
//!
//! Control-plane edits are table-granular: [`CompiledEngine::apply_update`]
//! applies a flow-mod to the pipeline in place and recompiles the one
//! table it touches, reusing the rest. The recompile reads the table's
//! entries where they are and copies none of them; rolling a flow-mod
//! back is its [`Undo`] record, which holds exactly the cells or row it
//! overwrote. (`Cls` and the entry programs are still rebuilt whole for
//! the touched table.)

use crate::cost::{CostParams, TemplatePolicy};
use mapro_classifier::{Rows, TableShape, TemplateKind};
use mapro_control::{RuleUpdate, Undo};
use mapro_core::{ActionSem, AttrId, AttrKind, Entry, MissPolicy, Packet, Pipeline, Table, Value};
use std::collections::HashMap;
use std::fmt;
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
    Apply(mapro_control::ApplyError),
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
#[derive(Clone, Copy)]
enum MissProg {
    Drop,
    Controller,
    Fall(u32),
}

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
    let reg_of = |a: AttrId| reg_attrs.iter().position(|&x| x == a);
    // The match rows are read in place, never copied.
    let widths: Vec<u32> = t
        .match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width)
        .collect();
    let rows = Rows {
        widths: &widths,
        rows: &t.entries,
    };
    let shape = rows.shape();
    let int = |e: &Entry, c: usize| match e.matches[c] {
        Value::Int(v) => v,
        _ => unreachable!("all-exact shape guarantees Int cells"),
    };

    // The monomorphic classifier depends only on the table shape: every
    // template agrees with first-match semantics, so a hash probe
    // (all-exact) or flat ternary scan (everything else) reproduces any
    // policy's decisions.
    let cls = match &shape {
        TableShape::AllExact { cols } if cols.len() == 1 => {
            let col = cols[0];
            let reg = reg_of(t.match_attrs[col]).expect("matched attr has a register");
            let mut map = HashMap::with_capacity(rows.len());
            for (i, e) in t.entries.iter().enumerate() {
                // Duplicate keys: first (highest-priority) row wins.
                map.entry(int(e, col)).or_insert(i as u32);
            }
            Cls::Exact1 { reg, map }
        }
        TableShape::AllExact { cols } => {
            let regs: Vec<usize> = cols
                .iter()
                .map(|&c| reg_of(t.match_attrs[c]).expect("matched attr has a register"))
                .collect();
            let mut map = HashMap::with_capacity(rows.len());
            if cols.is_empty() {
                // Active-column-free rows match every packet.
                if !rows.is_empty() {
                    map.insert(Vec::new(), 0u32);
                }
            } else {
                for (i, e) in t.entries.iter().enumerate() {
                    let key: Vec<u64> = cols.iter().map(|&c| int(e, c)).collect();
                    map.entry(key).or_insert(i as u32);
                }
            }
            Cls::Exact { regs, map }
        }
        // A symbolic cell is neither exact nor prefix-like, so it always
        // lands here, and has no ternary form.
        TableShape::SinglePrefix { .. } | TableShape::General => {
            let regs: Vec<usize> = t
                .match_attrs
                .iter()
                .map(|&a| reg_of(a).expect("matched attr has a register"))
                .collect();
            let cells = rows
                .ternary_rows()
                .ok_or_else(|| CompileError::BadMatchCell {
                    table: t.name.clone(),
                })?;
            Cls::Scan {
                regs,
                cells,
                ncols: rows.cols(),
            }
        }
    };
    // The modeled per-visit cost is a property of the classifier template
    // the modeled switch would use, not of `Cls`: the stats that template
    // reports, read off the rows without building it.
    let stats = match policy {
        TemplatePolicy::Specialize { generic } => rows.specialized_stats(&shape, generic),
        TemplatePolicy::Uniform(kind) => rows.generic_stats(kind),
        TemplatePolicy::Tcam => rows.tcam_stats(),
    };

    let table_next = match &t.next {
        Some(n) => Some(table_index(p, n)?),
        None => None,
    };
    let mut entries = Vec::with_capacity(t.len());
    for e in &t.entries {
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
                    if let Some(r) = reg_of(*target) {
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
        entries.push(prog);
    }
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
}

impl CompiledEngine {
    /// Compile `p` under a template policy and cost model. Compilation
    /// time lands in the `switch.compile.ns` timer.
    pub fn compile(
        p: &Pipeline,
        policy: TemplatePolicy,
        params: CostParams,
    ) -> Result<CompiledEngine, CompileError> {
        mapro_obs::counter!("switch.compiled.compiles").inc();
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
        })
    }

    /// Recompile a single table in place after its entries changed,
    /// reusing every other table's program. `p` must be the pipeline this
    /// engine was compiled from, modulo entry edits — table order, match
    /// columns and cross-table wiring may not change (positions and
    /// registers are baked into the compiled tables). On error the engine
    /// is untouched.
    pub fn recompile_table(&mut self, p: &Pipeline, name: &str) -> Result<(), CompileError> {
        mapro_obs::counter!("switch.compiled.table_recompiles").inc();
        let pos = table_index(p, name)? as usize;
        debug_assert_eq!(self.tables[pos].name, name, "table order changed");
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
    /// recompile the touched table. All-or-nothing — if the edited table
    /// no longer compiles, the update is undone and the engine is
    /// untouched. On success, returns the update's [`Undo`] record: a
    /// caller rolling back a plan undoes it and recompiles the table.
    pub fn apply_update(
        &mut self,
        p: &mut Pipeline,
        update: &RuleUpdate,
    ) -> Result<Undo, UpdateError> {
        let record = mapro_control::apply_update(p, update).map_err(UpdateError::Apply)?;
        match self.recompile_table(p, update.table()) {
            Ok(()) => Ok(record),
            Err(e) => {
                mapro_control::undo(p, record);
                Err(UpdateError::Compile(e))
            }
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_classifier::{build_generic, build_specialized, Classifier, TableView};
    use mapro_core::Catalog;

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
                    TemplatePolicy::Tcam => mapro_classifier::TcamModel::build(&view, usize::MAX)
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
}
