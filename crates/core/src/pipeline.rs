//! Pipelines: chained match-action tables and their packet semantics.
//!
//! A [`Pipeline`] owns the program's [`Catalog`] and a list of [`Table`]s.
//! Execution starts at [`Pipeline::start`]; a hit entry applies its actions
//! in column order, then control transfers to the entry's `Goto` target if
//! any, else to the table's [`Table::next`] continuation, else ends. A miss
//! applies the table's [`MissPolicy`].
//!
//! The externally visible outcome of a run is a [`Verdict`]; two pipelines
//! are semantically equivalent iff they produce equal verdicts for every
//! packet (§4, "equivalent transformations"). Metadata fields are scratch
//! state and excluded from verdicts.

use crate::attr::{ActionSem, AttrId, AttrKind, Catalog};
use crate::table::{MissPolicy, Table};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An abstract packet: a value for every matchable attribute of a catalog.
///
/// Fields not explicitly set read as zero (in particular, metadata fields
/// start at zero, matching OpenFlow semantics).
///
/// Guarantee: over a catalog of at most 12 attributes, actions included
/// (the paper's workloads build 4–8), a packet lives entirely inline —
/// `zero`, `set`, `get`, `clone` and `==` never touch the heap. A longer
/// one spills to a single heap vector; nothing else about it differs.
#[derive(Clone)]
pub struct Packet {
    vals: Vals,
}

/// Values a [`Packet`] holds inline. Not configurable: 12 words keep the
/// packet at two cache lines, and 8 measured no faster.
const INLINE: usize = 12;

/// A packet's value vector. `Inline` keeps `buf[len..]` zero, so growing
/// within the buffer exposes zeros just as `Vec::resize` would.
#[derive(Clone)]
enum Vals {
    Inline { len: usize, buf: [u64; INLINE] },
    Spilled(Vec<u64>),
}

impl Packet {
    /// A packet with all fields zero, sized for `catalog`.
    pub fn zero(catalog: &Catalog) -> Self {
        let len = catalog.len();
        let vals = if len <= INLINE {
            Vals::Inline {
                len,
                buf: [0; INLINE],
            }
        } else {
            Vals::Spilled(vec![0; len])
        };
        Packet { vals }
    }

    /// Build a packet by name. Unknown names panic (they indicate a test or
    /// workload bug, not a runtime condition).
    pub fn from_fields(catalog: &Catalog, fields: &[(&str, u64)]) -> Self {
        let mut p = Packet::zero(catalog);
        for (name, v) in fields {
            let id = catalog
                .lookup(name)
                .unwrap_or_else(|| panic!("unknown field {name:?}"));
            p.set(id, *v);
        }
        p
    }

    #[inline]
    fn vals(&self) -> &[u64] {
        match &self.vals {
            Vals::Inline { len, buf } => &buf[..*len],
            Vals::Spilled(v) => v,
        }
    }

    /// Read a field.
    #[inline]
    pub fn get(&self, attr: AttrId) -> u64 {
        self.vals().get(attr.index()).copied().unwrap_or(0)
    }

    /// Write a field.
    #[inline]
    pub fn set(&mut self, attr: AttrId, v: u64) {
        let i = attr.index();
        if i >= self.vals().len() {
            self.grow(i + 1);
        }
        match &mut self.vals {
            Vals::Inline { buf, .. } => buf[i] = v,
            Vals::Spilled(vals) => vals[i] = v,
        }
    }

    /// Extend with zeros to `len` values, spilling past the inline buffer.
    #[cold]
    fn grow(&mut self, len: usize) {
        match &mut self.vals {
            Vals::Inline { len: old, .. } if len <= INLINE => *old = len,
            Vals::Inline { len: old, buf } => {
                let mut vals = buf[..*old].to_vec();
                vals.resize(len, 0);
                self.vals = Vals::Spilled(vals);
            }
            Vals::Spilled(vals) => vals.resize(len, 0),
        }
    }
}

/// Equality is on the value vector, its length included.
impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.vals() == other.vals()
    }
}

impl Eq for Packet {}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("vals", &self.vals())
            .finish()
    }
}

/// Why a pipeline run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A `Goto` action named a table that does not exist.
    UnknownTable(String),
    /// Processing revisited enough tables to exceed the step budget,
    /// indicating a goto cycle.
    GotoCycle {
        /// The visit budget that was exceeded.
        limit: usize,
    },
    /// A `Goto`/`Output` cell held a non-symbolic parameter, or a
    /// `SetField` cell held a non-integer parameter.
    BadActionParam {
        /// Offending table name.
        table: String,
        /// Offending action attribute name.
        attr: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownTable(t) => write!(f, "goto target {t:?} does not exist"),
            EvalError::GotoCycle { limit } => {
                write!(f, "pipeline exceeded {limit} table visits (goto cycle?)")
            }
            EvalError::BadActionParam { table, attr } => {
                write!(
                    f,
                    "table {table:?}: malformed parameter for action {attr:?}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Why a program read from outside is not one the tools can run (see
/// [`Pipeline::validate`]): what is wrong and where, for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidProgram(String);

impl fmt::Display for InvalidProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidProgram {}

/// The externally visible fate of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Output port, if any `out(...)` fired (last write wins).
    pub output: Option<Arc<str>>,
    /// True if the packet missed some table whose policy is `Drop` before
    /// any output was scheduled... see `disposition` docs; kept for
    /// introspection.
    pub dropped: bool,
    /// True if a miss punted the packet to the controller.
    pub to_controller: bool,
    /// Final values of *header* fields that were modified (metadata
    /// excluded), keyed by attribute id, sorted by id.
    pub header_mods: Vec<(AttrId, u64)>,
    /// Opaque actions applied, as (attribute name, parameter) pairs,
    /// sorted. Sorted-multiset semantics: the paper's Cartesian product ×
    /// is commutative (§3, Fig. 2c), so attribute-application order between
    /// independent tables must not distinguish verdicts.
    pub opaque: Vec<(String, Value)>,
    /// Tables visited, in order (diagnostic; not part of equivalence).
    pub path: Vec<String>,
    /// For each visited table: the matched entry's index, or `None` on a
    /// miss. Parallel to [`Verdict::path`]. This is what rule counters
    /// (per-entry packet/byte counters, §2 "Monitorability") attach to.
    pub hits: Vec<Option<usize>>,
    /// Number of table lookups performed (diagnostic; the multi-table cost
    /// the paper's §5 latency discussion is about).
    pub lookups: usize,
}

impl Verdict {
    /// The equivalence-relevant projection of this verdict.
    ///
    /// Two runs are observationally equal iff these projections are equal.
    /// A dropped packet is absorbing: whatever actions ran before the miss
    /// are discarded with the packet (OpenFlow executes no action set on a
    /// table-miss drop), so all drops are indistinguishable. Otherwise the
    /// forwarding decision, header rewrites, and opaque actions must agree.
    pub fn observable(&self) -> Observable<'_> {
        if self.dropped && !self.to_controller {
            Observable::Dropped
        } else {
            Observable::Delivered {
                output: self.output.as_deref(),
                to_controller: self.to_controller,
                header_mods: &self.header_mods,
                opaque: &self.opaque,
            }
        }
    }
}

/// The observable projection of a [`Verdict`] (see [`Verdict::observable`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observable<'a> {
    /// The packet was discarded; nothing is externally visible.
    Dropped,
    /// The packet left the switch (to a port and/or the controller) with
    /// these effects applied.
    Delivered {
        /// Output port, if any.
        output: Option<&'a str>,
        /// Whether the packet was punted to the controller.
        to_controller: bool,
        /// Final values of modified header fields.
        header_mods: &'a [(AttrId, u64)],
        /// Opaque actions applied (sorted multiset).
        opaque: &'a [(String, Value)],
    },
}

/// A match-action program: a catalog plus its tables.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pipeline {
    /// The program-wide attribute dictionary.
    pub catalog: Catalog,
    /// Tables, in declaration order.
    pub tables: Vec<Table>,
    /// Name of the table where processing starts.
    pub start: String,
}

impl Pipeline {
    /// Wrap a single table as a pipeline (the *universal representation*).
    pub fn single(catalog: Catalog, table: Table) -> Self {
        let start = table.name.clone();
        Pipeline {
            catalog,
            tables: vec![table],
            start,
        }
    }

    /// Build a multi-table pipeline starting at `start`.
    ///
    /// # Panics
    /// Panics if `start` names no table or table names collide.
    pub fn new(catalog: Catalog, tables: Vec<Table>, start: impl Into<String>) -> Self {
        let start = start.into();
        let mut names = std::collections::HashSet::new();
        for t in &tables {
            assert!(names.insert(t.name.clone()), "duplicate table {:?}", t.name);
        }
        assert!(
            names.contains(&start),
            "start table {start:?} does not exist"
        );
        Pipeline {
            catalog,
            tables,
            start,
        }
    }

    /// Check what the constructors guarantee and deserialization does not:
    /// every attribute id lies in the catalog, match columns are fields or
    /// metadata and action columns actions, no attribute names two columns
    /// of one table, attributes are at most 64 bits wide, every row has
    /// one cell per column, every numeric cell fits its
    /// attribute (a `SetField` parameter, the attribute it sets), and
    /// `start`, `next`, `Fall` and symbolic goto targets name tables of the
    /// program. The analyses index rows and catalogs freely behind this.
    ///
    /// # Errors
    /// The first violation found, in table and row order.
    pub fn validate(&self) -> Result<(), InvalidProgram> {
        let bad = |msg: String| Err(InvalidProgram(msg));
        let known = |a: AttrId| a.index() < self.catalog.len();
        for (id, a) in self.catalog.iter() {
            if a.width > 64 {
                return bad(format!(
                    "attribute {:?} is {} bits wide (at most 64)",
                    a.name, a.width
                ));
            }
            if let AttrKind::Action(ActionSem::SetField(target)) = a.kind {
                if !known(target) || !self.catalog.attr(target).kind.is_matchable() {
                    return bad(format!(
                        "action {:?} ({id}) sets {target}, which is not a field of the catalog",
                        a.name
                    ));
                }
            }
        }
        let exists = |from: &str, target: &str| {
            if self.table(target).is_some() {
                Ok(())
            } else {
                bad(format!(
                    "{from} names table {target:?}, which does not exist"
                ))
            }
        };
        exists("start", &self.start)?;
        for t in &self.tables {
            let table = &t.name;
            for (attrs, matchable) in [(&t.match_attrs, true), (&t.action_attrs, false)] {
                for &a in attrs {
                    if !known(a) {
                        return bad(format!(
                            "table {table:?}: attribute {a} is not in the catalog ({} attributes)",
                            self.catalog.len()
                        ));
                    }
                    if self.catalog.attr(a).kind.is_matchable() != matchable {
                        return bad(format!(
                            "table {table:?}: {:?} cannot be a{} column",
                            self.catalog.name(a),
                            if matchable { " match" } else { "n action" }
                        ));
                    }
                }
            }
            let cols = t.attrs();
            if let Some(&a) =
                (1..cols.len()).find_map(|i| cols[..i].iter().find(|&&b| b == cols[i]))
            {
                return bad(format!(
                    "table {table:?}: {:?} names two columns",
                    self.catalog.name(a)
                ));
            }
            if let Some(n) = &t.next {
                exists(&format!("table {table:?}: next"), n)?;
            }
            if let MissPolicy::Fall(n) = &t.miss {
                exists(&format!("table {table:?}: miss"), n)?;
            }
            for (row, e) in t.entries.iter().enumerate() {
                for (side, cells, attrs) in [
                    ("match", &e.matches, &t.match_attrs),
                    ("action", &e.actions, &t.action_attrs),
                ] {
                    if cells.len() != attrs.len() {
                        return bad(format!(
                            "table {table:?} row {row}: {} {side} cells for {} {side} columns",
                            cells.len(),
                            attrs.len()
                        ));
                    }
                }
                let cells = e.matches.iter().zip(&t.match_attrs);
                for (cell, &a) in cells.chain(e.actions.iter().zip(&t.action_attrs)) {
                    let attr = self.catalog.attr(a);
                    if let (AttrKind::Action(ActionSem::Goto), Value::Sym(target)) =
                        (&attr.kind, cell)
                    {
                        exists(&format!("table {table:?} row {row}: goto"), target)?;
                    }
                    let Some(width) = self.catalog.cell_width(a) else {
                        continue;
                    };
                    if !cell.fits(width) {
                        return bad(format!(
                            "table {table:?} row {row}: {cell} does not fit the {width} bits of {:?}",
                            attr.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Find a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Mutable access to a table by name.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.iter_mut().find(|t| t.name == name)
    }

    /// Total entry count across all tables.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Total match-action field count (§2 encoding-size metric).
    pub fn field_count(&self) -> usize {
        self.tables.iter().map(Table::field_count).sum()
    }

    /// Every attribute some action column of some table may write: the
    /// `SetField` targets of the tables' schemas, reachable or not, sorted.
    /// The value a table compares for such an attribute may differ from the
    /// value the packet arrived with.
    pub(crate) fn written_attrs(&self) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = Vec::new();
        for t in &self.tables {
            for &a in &t.action_attrs {
                if let AttrKind::Action(ActionSem::SetField(target)) = self.catalog.attr(a).kind {
                    if !out.contains(&target) {
                        out.push(target);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// What a batch of flow-mods says about the *input* packets it can
    /// affect: for each `(table, match row)` of `rows` (what the control
    /// crate's `delta_rows` lists), the `(attribute, bits, mask)` ternary
    /// cells, sorted by attribute, of a cube holding every input packet
    /// whose walk can reach that row. The one definition of "what changed"
    /// that megaflow eviction and incremental re-verification both map onto
    /// their own coordinates.
    ///
    /// The cube is the row's cells intersected with the table's *reach
    /// cube*: the ternary hull of every path from `start` to the table,
    /// each path contributing the cells of the rows it hits (a goto row
    /// passes its cells on to its target, a row without one to `next`) and
    /// nothing for the misses it takes (a `Fall` miss passes its table's
    /// reach on unchanged — the miss region is a complement, not a cube).
    /// On a goto fan-out this is exactly the selector of the branch: a row
    /// of one service's sub-table dirties that service only.
    ///
    /// Only attributes no table schema can `SetField`
    /// (`Pipeline::written_attrs`) take part, in the row and along the
    /// path: the value a table compares for such an attribute *is* the
    /// input value, so every packet that reaches the table and matches the
    /// row lies inside every cell on the way. Written columns stay
    /// wildcard — their value is not a function of the input coordinate, so
    /// no input constraint is sound. A flow-mod changes a packet's fate
    /// only from the first table at which the packet meets an edited row,
    /// and every table before it behaves the same before and after, so the
    /// reach may be taken on either side of the batch.
    ///
    /// This computes the reach cubes ([`Pipeline::reach`]) for the call. A
    /// caller that serves flow-mods one by one keeps a [`Reach`] instead
    /// and recomputes it only after an edit that
    /// [moves](Pipeline::moves_reach) it.
    ///
    /// An entry is `None` when its flow-mod cannot change any packet's
    /// behavior: the row is unsatisfiable (a symbolic match cell), lies
    /// outside its table's reach, the table is unreachable, or `table` does
    /// not exist.
    pub fn flowmod_footprint(
        &self,
        rows: &[(String, Vec<Value>)],
    ) -> Vec<Option<Vec<(AttrId, u64, u64)>>> {
        self.reach().footprint(self, rows)
    }

    /// Whether an entry edit of `table` (an insert, a delete or a modify of
    /// one of its rows) can change [`Pipeline::reach`]: true iff the table
    /// has a goto column or a `next`, or does not exist.
    ///
    /// Why a table with neither cannot: a reach cube is a fixpoint over
    /// three kinds of edge. A row edge leaves a table only through a goto
    /// cell or `next`, so the rows of a table with neither start no edge.
    /// A `Fall` edge carries its table's reach on whole, and the miss
    /// policy is schema. The attributes the cubes range over are those no
    /// action column can `SetField`, also schema. An entry edit changes no
    /// schema, so every edge of the fixpoint — and with them every cube —
    /// is what it was.
    pub fn moves_reach(&self, table: &str) -> bool {
        let Some(t) = self.table(table) else {
            return true;
        };
        t.next.is_some()
            || t.action_attrs
                .iter()
                .any(|&a| matches!(self.catalog.attr(a).kind, AttrKind::Action(ActionSem::Goto)))
    }

    /// Narrow `cube` (per catalog attribute, `(bits, mask)`) by the cells of
    /// one row on the columns `attrs` outside `written`. `None` when the
    /// row is unsatisfiable or disjoint from `cube`.
    fn meet_row(
        &self,
        cube: &mut [(u64, u64)],
        attrs: &[AttrId],
        cells: &[Value],
        written: &[AttrId],
    ) -> Option<()> {
        for (cell, &attr) in cells.iter().zip(attrs) {
            let (bits, mask) = cell.as_ternary(self.catalog.attr(attr).width)?;
            if written.contains(&attr) {
                continue;
            }
            let (b, m) = &mut cube[attr.index()];
            if (*b ^ bits) & *m & mask != 0 {
                return None;
            }
            *b |= bits;
            *m |= mask;
        }
        Some(())
    }

    /// Every table's reach cube (see [`Pipeline::flowmod_footprint`]). A
    /// worklist fixpoint: a table is revisited whenever its hull widens,
    /// which happens at most once per care bit, so cycles terminate.
    pub fn reach(&self) -> Reach {
        type Cube = Vec<(u64, u64)>;
        let written = self.written_attrs();
        let mut reach: Vec<Option<Cube>> = vec![None; self.tables.len()];
        let index = self.name_index();
        let Some(&start) = index.get(self.start.as_str()) else {
            return Reach {
                written,
                cubes: reach,
            };
        };
        reach[start] = Some(vec![(0, 0); self.catalog.len()]);
        let mut queued = vec![false; self.tables.len()];
        let mut work = vec![start];
        queued[start] = true;
        // Widen the reach of table `to` by `cube` (ternary hull) and queue
        // the table if it grew.
        let flow = |reach: &mut [Option<Cube>],
                    queued: &mut [bool],
                    work: &mut Vec<usize>,
                    to: &str,
                    cube: &[(u64, u64)]| {
            let Some(&j) = index.get(to) else { return };
            let grew = match &mut reach[j] {
                slot @ None => {
                    *slot = Some(cube.to_vec());
                    true
                }
                Some(hull) => {
                    let mut grew = false;
                    for ((b, m), &(cb, cm)) in hull.iter_mut().zip(cube) {
                        let keep = *m & cm & !(*b ^ cb);
                        grew |= keep != *m;
                        *m = keep;
                        *b &= keep;
                    }
                    grew
                }
            };
            if grew && !queued[j] {
                queued[j] = true;
                work.push(j);
            }
        };
        let (mut from, mut cube) = (Vec::new(), Vec::new());
        while let Some(ti) = work.pop() {
            queued[ti] = false;
            let t = &self.tables[ti];
            from.clone_from(reach[ti].as_ref().expect("queued tables are reached"));
            let gotos: Vec<usize> = (0..t.action_attrs.len())
                .filter(|&c| {
                    matches!(
                        self.catalog.attr(t.action_attrs[c]).kind,
                        AttrKind::Action(ActionSem::Goto)
                    )
                })
                .collect();
            for e in &t.entries {
                // The last goto cell wins, as in `run`; without one the
                // walk continues at `next`.
                let target = gotos
                    .iter()
                    .rev()
                    .find_map(|&c| match &e.actions[c] {
                        Value::Sym(g) => Some(g.as_ref()),
                        _ => None,
                    })
                    .or(t.next.as_deref());
                let Some(target) = target else { continue };
                cube.clone_from(&from);
                if self
                    .meet_row(&mut cube, &t.match_attrs, &e.matches, &written)
                    .is_some()
                {
                    flow(&mut reach, &mut queued, &mut work, target, &cube);
                }
            }
            if let MissPolicy::Fall(to) = &t.miss {
                flow(&mut reach, &mut queued, &mut work, to, &from);
            }
        }
        Reach {
            written,
            cubes: reach,
        }
    }

    /// Run a packet through the pipeline.
    ///
    /// The input packet is not mutated; modifications happen on a copy whose
    /// final state feeds the verdict.
    pub fn run(&self, packet: &Packet) -> Result<Verdict, EvalError> {
        let index: HashMap<&str, usize> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        self.run_indexed(packet, &index)
    }

    /// Like [`Pipeline::run`] with a caller-supplied name index, for hot
    /// loops that evaluate many packets.
    pub fn run_indexed(
        &self,
        packet: &Packet,
        index: &HashMap<&str, usize>,
    ) -> Result<Verdict, EvalError> {
        mapro_obs::counter!("core.pipeline.runs").inc();
        let _eval_t = mapro_obs::time!("core.pipeline.eval_ns");
        let limit = self.tables.len().saturating_mul(2) + 8;
        let mut pkt = packet.clone();
        let mut touched: Vec<AttrId> = Vec::new();
        let mut v = Verdict {
            output: None,
            dropped: false,
            to_controller: false,
            header_mods: Vec::new(),
            opaque: Vec::new(),
            path: Vec::new(),
            hits: Vec::new(),
            lookups: 0,
        };
        let mut cur = Some(self.start.as_str());
        let mut steps = 0usize;
        while let Some(name) = cur {
            steps += 1;
            if steps > limit {
                return Err(EvalError::GotoCycle { limit });
            }
            let &ti = index
                .get(name)
                .ok_or_else(|| EvalError::UnknownTable(name.to_owned()))?;
            let t = &self.tables[ti];
            v.path.push(t.name.clone());
            v.lookups += 1;
            let hit = t.lookup_with(&self.catalog, |a| pkt.get(a));
            v.hits.push(hit);
            match hit {
                None => match &t.miss {
                    MissPolicy::Drop => {
                        v.dropped = true;
                        cur = None;
                    }
                    MissPolicy::Controller => {
                        v.to_controller = true;
                        cur = None;
                    }
                    MissPolicy::Fall(nxt) => {
                        // Borrow gymnastics: continue at the fall-through table.
                        cur = Some(self.resolve_name(nxt, index)?);
                    }
                },
                Some(row) => {
                    let mut goto: Option<&str> = None;
                    for (col, &attr) in t.action_attrs.iter().enumerate() {
                        let param = &t.entries[row].actions[col];
                        if matches!(param, Value::Any) {
                            continue; // no-op slot
                        }
                        let a = self.catalog.attr(attr);
                        let sem = match &a.kind {
                            AttrKind::Action(s) => s,
                            _ => unreachable!("action column with non-action attr"),
                        };
                        match sem {
                            ActionSem::Output => match param {
                                Value::Sym(s) => v.output = Some(s.clone()),
                                _ => {
                                    return Err(EvalError::BadActionParam {
                                        table: t.name.clone(),
                                        attr: a.name.clone(),
                                    })
                                }
                            },
                            ActionSem::Goto => match param {
                                Value::Sym(s) => goto = Some(s.as_ref()),
                                _ => {
                                    return Err(EvalError::BadActionParam {
                                        table: t.name.clone(),
                                        attr: a.name.clone(),
                                    })
                                }
                            },
                            ActionSem::SetField(target) => match param {
                                Value::Int(x) => {
                                    pkt.set(*target, *x);
                                    if !touched.contains(target) {
                                        touched.push(*target);
                                    }
                                }
                                _ => {
                                    return Err(EvalError::BadActionParam {
                                        table: t.name.clone(),
                                        attr: a.name.clone(),
                                    })
                                }
                            },
                            ActionSem::Opaque => {
                                v.opaque.push((a.name.clone(), param.clone()));
                            }
                        }
                    }
                    cur = match goto {
                        Some(g) => Some(self.resolve_name(g, index)?),
                        None => match &t.next {
                            Some(n) => Some(self.resolve_name(n, index)?),
                            None => None,
                        },
                    };
                }
            }
        }
        // Externally visible header modifications: touched non-meta fields.
        let mut mods: Vec<(AttrId, u64)> = touched
            .into_iter()
            .filter(|&a| matches!(self.catalog.attr(a).kind, AttrKind::Field))
            .map(|a| (a, pkt.get(a)))
            .collect();
        mods.sort_unstable_by_key(|&(a, _)| a);
        v.header_mods = mods;
        v.opaque.sort();
        mapro_obs::counter!("core.pipeline.table_lookups").add(v.lookups as u64);
        mapro_obs::histogram!("core.pipeline.path_len").record(v.path.len() as u64);
        Ok(v)
    }

    fn resolve_name<'a>(
        &self,
        name: &str,
        index: &HashMap<&'a str, usize>,
    ) -> Result<&'a str, EvalError> {
        index
            .get_key_value(name)
            .map(|(k, _)| *k)
            .ok_or_else(|| EvalError::UnknownTable(name.to_owned()))
    }

    /// Build the table-name index used by [`Pipeline::run_indexed`].
    pub fn name_index(&self) -> HashMap<&str, usize> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect()
    }
}

/// Every table's reach cube, as [`Pipeline::reach`] computed it: the
/// input packets that can reach the table, per catalog attribute a ternary
/// `(bits, mask)` over the attributes no table schema can `SetField`. A
/// `Reach` stays exact across entry edits of tables that do not
/// [move](Pipeline::moves_reach) it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reach {
    /// [`Pipeline::written_attrs`]: the columns every cube leaves wildcard.
    written: Vec<AttrId>,
    /// Per table, in `tables` order; `None` for a table no path from
    /// `start` reaches.
    cubes: Vec<Option<Vec<(u64, u64)>>>,
}

impl Reach {
    /// [`Pipeline::flowmod_footprint`] of `rows` against `p`, the pipeline
    /// this reach was computed on, or one that differs from it only by
    /// entry edits that do not [move](Pipeline::moves_reach) it.
    pub fn footprint(
        &self,
        p: &Pipeline,
        rows: &[(String, Vec<Value>)],
    ) -> Vec<Option<Vec<(AttrId, u64, u64)>>> {
        debug_assert_eq!(
            self.cubes.len(),
            p.tables.len(),
            "a reach of another program"
        );
        rows.iter()
            .map(|(table, matches)| {
                let ti = p.tables.iter().position(|t| t.name == *table)?;
                let t = &p.tables[ti];
                debug_assert_eq!(matches.len(), t.match_attrs.len());
                let mut cube = self.cubes[ti].clone()?;
                p.meet_row(&mut cube, &t.match_attrs, matches, &self.written)?;
                Some(
                    cube.into_iter()
                        .enumerate()
                        .filter(|&(_, (_, mask))| mask != 0)
                        .map(|(a, (bits, mask))| (AttrId(a as u32), bits, mask))
                        .collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::ActionSem;
    use crate::table::Entry;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Two-stage pipeline: t0 matches f, writes meta and gotos t1;
    /// t1 matches meta and outputs.
    fn two_stage() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m = c.meta("m", 8);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);

        let mut t0 = Table::new("t0", vec![f], vec![set_m, goto]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(10), Value::sym("t1")]);
        t0.row(vec![Value::Int(2)], vec![Value::Int(20), Value::sym("t1")]);

        let mut t1 = Table::new("t1", vec![m], vec![out]);
        t1.row(vec![Value::Int(10)], vec![Value::sym("p1")]);
        t1.row(vec![Value::Int(20)], vec![Value::sym("p2")]);

        Pipeline::new(c, vec![t0, t1], "t0")
    }

    #[test]
    fn validate_names_what_deserialization_let_through() {
        let good = two_stage();
        assert_eq!(good.validate(), Ok(()));
        type Damage = fn(&mut Pipeline);
        let cases: [(&str, Damage); 13] = [
            ("1 match cells for 2", |p| {
                p.tables[0].match_attrs.push(AttrId(1));
            }),
            ("1 action cells for 2", |p| {
                p.tables[0].entries[1].actions.pop();
            }),
            ("@9 is not in the catalog", |p| {
                p.tables[1].action_attrs[0] = AttrId(9);
            }),
            ("\"out\" cannot be a match column", |p| {
                p.tables[1].match_attrs[0] = AttrId(4);
            }),
            ("\"f\" cannot be an action column", |p| {
                p.tables[1].action_attrs[0] = AttrId(0);
            }),
            ("256 does not fit the 8 bits of \"f\"", |p| {
                p.tables[0].entries[0].matches[0] = Value::Int(256);
            }),
            ("does not fit the 8 bits of \"f\"", |p| {
                p.tables[0].entries[0].matches[0] = Value::Prefix { bits: 0, len: 9 };
            }),
            ("does not fit the 8 bits of \"m\"", |p| {
                p.tables[1].entries[0].matches[0] = Value::Ternary {
                    bits: 0,
                    mask: 0x100,
                };
            }),
            ("300 does not fit the 8 bits of \"set_m\"", |p| {
                p.tables[0].entries[0].actions[0] = Value::Int(300);
            }),
            ("table \"t1\": \"m\" names two columns", |p| {
                p.tables[1].match_attrs.push(AttrId(1));
                for e in &mut p.tables[1].entries {
                    e.matches.push(e.matches[0].clone());
                }
            }),
            ("start names table \"t9\"", |p| p.start = "t9".into()),
            ("table \"t1\": miss names table \"t9\"", |p| {
                p.tables[1].miss = MissPolicy::Fall("t9".into());
            }),
            ("table \"t0\" row 1: goto names table \"t9\"", |p| {
                p.tables[0].entries[1].actions[1] = Value::sym("t9");
            }),
        ];
        for (expect, damage) in cases {
            let mut bad = good.clone();
            damage(&mut bad);
            let err = bad.validate().expect_err(expect).to_string();
            assert!(err.contains(expect), "{err:?} lacks {expect:?}");
        }
        let mut next = good;
        next.tables[0].next = Some("t9".into());
        assert!(next.validate().is_err());
    }

    #[test]
    fn goto_and_metadata_flow() {
        let p = two_stage();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        let v = p.run(&pkt).unwrap();
        assert_eq!(v.output.as_deref(), Some("p1"));
        assert_eq!(v.path, vec!["t0", "t1"]);
        assert_eq!(v.lookups, 2);
        assert!(!v.dropped);
        // Metadata writes are not externally visible.
        assert!(v.header_mods.is_empty());
    }

    /// One footprint, of the row `cells` of `table`.
    fn footprint(p: &Pipeline, table: &str, cells: &[Value]) -> Option<Vec<(AttrId, u64, u64)>> {
        let mut fp = p.flowmod_footprint(&[(table.to_owned(), cells.to_vec())]);
        fp.pop().expect("one row in, one footprint out")
    }

    #[test]
    fn flowmod_footprint_constrains_only_unwritten_columns() {
        let p = two_stage();
        let (f, m) = (AttrId(0), AttrId(1));
        assert_eq!(p.written_attrs(), vec![m]);
        assert_eq!(
            footprint(&p, "t0", &[Value::prefix(0x80, 1, 8)]),
            Some(vec![(f, 0x80, 0x80)])
        );
        // `m` is a SetField target: the row says nothing about the input,
        // but reaching `t1` takes `f` = 1 or 2, whose hull is `000000**`.
        assert_eq!(
            footprint(&p, "t1", &[Value::Int(10)]),
            Some(vec![(f, 0, 0xfc)])
        );
        // Unsatisfiable row, unknown table: behavior-invisible.
        assert_eq!(footprint(&p, "t0", &[Value::sym("x")]), None);
        assert_eq!(footprint(&p, "nope", &[Value::Int(1)]), None);
        // One reach per batch, one footprint per row, in order.
        let rows = [
            ("t1".to_owned(), vec![Value::Int(20)]),
            ("nope".to_owned(), vec![Value::Int(1)]),
            ("t0".to_owned(), vec![Value::Int(7)]),
        ];
        assert_eq!(
            p.flowmod_footprint(&rows),
            vec![Some(vec![(f, 0, 0xfc)]), None, Some(vec![(f, 7, 0xff)])]
        );
    }

    /// `start` matches `f` (never written) and fans out by goto; every other
    /// table matches `g` (never written) and outputs. `shape` adds edges.
    fn fan_out(shape: impl FnOnce(&mut [Table])) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut tables = vec![Table::new("start", vec![f], vec![goto])];
        for (v, to) in [(1, "a"), (2, "b"), (3, "b")] {
            tables[0].row(vec![Value::Int(v)], vec![Value::sym(to)]);
        }
        for name in ["a", "b", "c", "d"] {
            let mut t = Table::new(name, vec![g], vec![goto, out]);
            t.row(vec![Value::Int(5)], vec![Value::Any, Value::sym(name)]);
            tables.push(t);
        }
        shape(&mut tables);
        Pipeline::new(c, tables, "start")
    }

    #[test]
    fn reach_is_exact_on_a_goto_fan_out() {
        let p = fan_out(|_| {});
        let (f, g) = (AttrId(0), AttrId(1));
        // One branch: exactly its selector, with the edited row's cell.
        assert_eq!(
            footprint(&p, "a", &[Value::Int(9)]),
            Some(vec![(f, 1, 0xff), (g, 9, 0xff)])
        );
        // Two selectors into one table: their hull (2 and 3 share 0b1*).
        assert_eq!(footprint(&p, "b", &[Value::Any]), Some(vec![(f, 2, 0xfe)]));
        // The start table is reached by every packet.
        assert_eq!(
            footprint(&p, "start", &[Value::Int(4)]),
            Some(vec![(f, 4, 0xff)])
        );
    }

    #[test]
    fn reach_is_a_hull_along_a_next_chain() {
        // `b`'s hits continue at `c`; a goto cell of `Any` is no goto.
        let p = fan_out(|t| t[2].next = Some("c".into()));
        let (f, g) = (AttrId(0), AttrId(1));
        // Reaching `c` means `f` ∈ {2, 3} and a hit on `b`'s row `g` = 5.
        assert_eq!(
            footprint(&p, "c", &[Value::Any]),
            Some(vec![(f, 2, 0xfe), (g, 5, 0xff)])
        );
        // A row of `c` outside the path condition cannot be reached.
        assert_eq!(footprint(&p, "c", &[Value::Int(6)]), None);
    }

    #[test]
    fn a_fall_miss_passes_its_tables_reach_on() {
        // `a` misses into `d`: every packet that reached `a` may reach `d`,
        // whatever `a`'s rows say about `g`.
        let p = fan_out(|t| t[1].miss = MissPolicy::Fall("d".into()));
        let (f, g) = (AttrId(0), AttrId(1));
        assert_eq!(
            footprint(&p, "d", &[Value::Int(6)]),
            Some(vec![(f, 1, 0xff), (g, 6, 0xff)])
        );
    }

    #[test]
    fn reach_terminates_on_a_goto_cycle() {
        // `a` loops to itself on `g` = 5 and back to `start` on `g` = 6;
        // the hull settles: `a` is reached by `f` = 1 alone, `start` by all.
        let p = fan_out(|t| {
            t[1].entries[0].actions[0] = Value::sym("a");
            t[1].row(vec![Value::Int(6)], vec![Value::sym("start"), Value::Any]);
        });
        let f = AttrId(0);
        assert_eq!(footprint(&p, "a", &[Value::Any]), Some(vec![(f, 1, 0xff)]));
        assert_eq!(footprint(&p, "start", &[Value::Any]), Some(vec![]));
    }

    #[test]
    fn an_unreachable_table_has_no_footprint() {
        let p = fan_out(|_| {});
        // Nothing reaches `c` or `d`: editing them changes no packet.
        assert_eq!(footprint(&p, "c", &[Value::Int(5)]), None);
        assert_eq!(footprint(&p, "d", &[Value::Any]), None);
        // A program whose `start` names no table reaches nothing.
        let mut q = p.clone();
        q.start = "nope".into();
        assert_eq!(footprint(&q, "start", &[Value::Any]), None);
    }

    #[test]
    fn moves_reach_follows_the_schema() {
        let p = two_stage();
        assert!(p.moves_reach("t0"), "a goto column");
        assert!(!p.moves_reach("t1"), "neither goto nor next");
        assert!(p.moves_reach("nope"), "unknown tables are not vouched for");
        let q = fan_out(|t| t[0].action_attrs.clear());
        assert!(!q.moves_reach("start"));
        let q = fan_out(|t| {
            t[0].action_attrs.clear();
            t[0].next = Some("a".into());
        });
        assert!(q.moves_reach("start"), "a next");
    }

    /// A random program in the spirit of the integration suites' reach zoo:
    /// `front` fans out by goto and `next`, rewrites `g` and writes `m`,
    /// and misses into `svc2`; `svc0` has a goto column and `next`; `svc1`
    /// (missing into `tail`), `svc2` and `tail` have neither, so their
    /// entry edits cannot move a reach cube.
    fn reach_zoo(rng: &mut SmallRng) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let g = c.field("g", 4);
        let h = c.field("h", 4);
        let m = c.meta("m", 4);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let set_g = c.action("set_g", ActionSem::SetField(g));
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut tables = vec![
            Table::new("front", vec![f, g, h], vec![set_m, set_g, goto]),
            Table::new("svc0", vec![h, g], vec![out, goto]),
            Table::new("svc1", vec![h, g], vec![out]),
            Table::new("svc2", vec![h, f], vec![out]),
            Table::new("tail", vec![m, f], vec![out]),
        ];
        tables[0].next = Some("svc0".into());
        tables[0].miss = MissPolicy::Fall("svc2".into());
        tables[1].next = Some("tail".into());
        tables[2].miss = MissPolicy::Fall("tail".into());
        let mut p = Pipeline::new(c, tables, "front");
        for ti in 0..p.tables.len() {
            for _ in 0..rng.gen_range(2..5) {
                let e = zoo_entry(&p, ti, rng);
                p.tables[ti].push(e);
            }
        }
        p
    }

    fn zoo_entry(p: &Pipeline, ti: usize, rng: &mut SmallRng) -> Entry {
        let t = &p.tables[ti];
        let cell = |rng: &mut SmallRng| match rng.gen_range(0..4u8) {
            0 => Value::Any,
            1 => Value::Int(rng.gen_range(0..16)),
            2 => Value::prefix(rng.gen_range(0..16), rng.gen_range(1..=4), 4),
            _ => {
                let mask = rng.gen_range(0..16u64);
                Value::Ternary {
                    bits: rng.gen_range(0..16u64) & mask,
                    mask,
                }
            }
        };
        let matches = t.match_attrs.iter().map(|_| cell(rng)).collect();
        let actions = t
            .action_attrs
            .iter()
            .map(|&a| match p.catalog.attr(a).kind {
                AttrKind::Action(ActionSem::Goto) if rng.gen_bool(0.7) => {
                    let later = &p.tables[ti + 1..];
                    Value::sym(&later[rng.gen_range(0..later.len())].name)
                }
                AttrKind::Action(ActionSem::SetField(_)) if rng.gen_bool(0.7) => {
                    Value::Int(rng.gen_range(0..16))
                }
                AttrKind::Action(ActionSem::Output) => Value::sym("p"),
                _ => Value::Any,
            })
            .collect();
        Entry::new(matches, actions)
    }

    /// A `Reach` kept across entry edits of tables that do not move it is
    /// the reach of the edited program; and edits of tables that do move it
    /// really do, now and then.
    #[test]
    fn a_kept_reach_survives_edits_that_cannot_move_it() {
        let (mut kept_edits, mut moved) = (0, 0);
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut p = reach_zoo(&mut rng);
            let mut reach = p.reach();
            for step in 0..12 {
                let ti = rng.gen_range(0..p.tables.len());
                let n = p.tables[ti].len();
                match rng.gen_range(0..3u8) {
                    0 if n > 1 => {
                        p.tables[ti].entries.remove(rng.gen_range(0..n));
                    }
                    1 => {
                        let e = zoo_entry(&p, ti, &mut rng);
                        p.tables[ti].entries.insert(rng.gen_range(0..=n), e);
                    }
                    _ => {
                        let e = zoo_entry(&p, ti, &mut rng);
                        p.tables[ti].entries[rng.gen_range(0..n)] = e;
                    }
                }
                let fresh = p.reach();
                let name = p.tables[ti].name.clone();
                if p.moves_reach(&name) {
                    moved += usize::from(reach != fresh);
                    reach = fresh;
                } else {
                    assert_eq!(reach, fresh, "seed {seed} step {step}: edit of {name}");
                    kept_edits += 1;
                }
            }
        }
        assert!(kept_edits > 500, "{kept_edits} edits kept the reach");
        assert!(moved > 100, "only {moved} edits moved a reach cube");
    }

    #[test]
    fn miss_drops() {
        let p = two_stage();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 9)]);
        let v = p.run(&pkt).unwrap();
        assert!(v.dropped);
        assert_eq!(v.output, None);
        assert_eq!(v.lookups, 1);
    }

    #[test]
    fn miss_to_controller() {
        let mut p = two_stage();
        p.table_mut("t0").unwrap().miss = MissPolicy::Controller;
        let pkt = Packet::from_fields(&p.catalog, &[("f", 9)]);
        let v = p.run(&pkt).unwrap();
        assert!(v.to_controller);
        assert!(!v.dropped);
    }

    #[test]
    fn implicit_next_chaining() {
        let mut p = two_stage();
        // Drop the explicit gotos; chain t0 -> t1 implicitly instead.
        {
            let t0 = p.table_mut("t0").unwrap();
            for e in &mut t0.entries {
                e.actions[1] = Value::Any; // goto slot becomes no-op
            }
            t0.next = Some("t1".into());
        }
        let pkt = Packet::from_fields(&p.catalog, &[("f", 2)]);
        let v = p.run(&pkt).unwrap();
        assert_eq!(v.output.as_deref(), Some("p2"));
    }

    #[test]
    fn goto_cycle_detected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::new(c, vec![t0], "t0");
        let pkt = Packet::zero(&p.catalog);
        assert!(matches!(p.run(&pkt), Err(EvalError::GotoCycle { .. })));
    }

    #[test]
    fn unknown_goto_target() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("nope")]);
        let p = Pipeline::new(c, vec![t0], "t0");
        let pkt = Packet::zero(&p.catalog);
        assert_eq!(p.run(&pkt), Err(EvalError::UnknownTable("nope".to_owned())));
    }

    #[test]
    fn header_mods_visible_meta_mods_not() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let ttl = c.field("ttl", 8);
        let m = c.meta("m", 8);
        let set_ttl = c.action("set_ttl", ActionSem::SetField(ttl));
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let mut t = Table::new("t", vec![f], vec![set_ttl, set_m]);
        t.row(vec![Value::Any], vec![Value::Int(63), Value::Int(5)]);
        let p = Pipeline::single(c, t);
        let v = p.run(&Packet::zero(&p.catalog)).unwrap();
        assert_eq!(v.header_mods, vec![(ttl, 63)]);
    }

    #[test]
    fn opaque_actions_sorted_for_commutativity() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let a1 = c.action("zeta", ActionSem::Opaque);
        let a2 = c.action("alpha", ActionSem::Opaque);
        let mut t = Table::new("t", vec![f], vec![a1, a2]);
        t.row(vec![Value::Any], vec![Value::sym("x"), Value::sym("y")]);
        let p = Pipeline::single(c, t);
        let v = p.run(&Packet::zero(&p.catalog)).unwrap();
        assert_eq!(
            v.opaque,
            vec![
                ("alpha".to_owned(), Value::sym("y")),
                ("zeta".to_owned(), Value::sym("x"))
            ]
        );
    }

    #[test]
    fn bad_action_param_reported() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Any], vec![Value::Int(3)]); // output wants a Sym
        let p = Pipeline::single(c, t);
        assert!(matches!(
            p.run(&Packet::zero(&p.catalog)),
            Err(EvalError::BadActionParam { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "start table")]
    fn bad_start_rejected() {
        let c = Catalog::new();
        let _ = Pipeline::new(c, vec![], "zzz");
    }

    /// A zero packet over an `n`-attribute catalog, and its model: the
    /// plain `Vec<u64>` that `Packet` was before it stored values inline.
    fn zero_with_model(n: usize) -> (Packet, Vec<u64>) {
        let mut c = Catalog::new();
        for i in 0..n {
            c.field(format!("f{i}"), 64);
        }
        (Packet::zero(&c), vec![0; n])
    }

    proptest! {
        /// Random `zero` / `set` / `clone` sequences on two packets: after
        /// every step each reads like its model everywhere (0 out of
        /// range, auto-resize on `set`) and the two are equal exactly when
        /// the models are, length included. Fails if the spill is dropped
        /// or equality looks at values only.
        #[test]
        fn packet_behaves_like_the_vec_it_replaced(
            sizes in (0..=2 * INLINE + 1, 0..=2 * INLINE + 1),
            ops in prop::collection::vec(
                (
                    0u8..5,
                    prop::bool::ANY,
                    prop_oneof![
                        0..=2 * INLINE + 1,
                        INLINE - 1..=INLINE + 1,
                        1000usize..1100,
                    ],
                    any::<u64>(),
                ),
                0..40,
            ),
        ) {
            let check = |pair: &[(Packet, Vec<u64>); 2], i: usize| {
                for (p, m) in pair {
                    for j in (0..=2 * INLINE + 2).chain([i, i + 1]) {
                        let want = m.get(j).copied().unwrap_or(0);
                        assert_eq!(p.get(AttrId(j as u32)), want, "get({j}) of {m:?}");
                    }
                    assert_eq!(format!("{p:?}"), format!("Packet {{ vals: {m:?} }}"));
                }
                assert_eq!(pair[0].0 == pair[1].0, pair[0].1 == pair[1].1, "{pair:?}");
            };
            let mut pair = [zero_with_model(sizes.0), zero_with_model(sizes.1)];
            check(&pair, 0);
            for (op, which, i, v) in ops {
                let (x, y) = (usize::from(which), usize::from(!which));
                match op {
                    0 => pair[x] = zero_with_model(i % (2 * INLINE + 2)),
                    1 => pair[x] = pair[y].clone(),
                    _ => {
                        let (p, m) = &mut pair[x];
                        p.set(AttrId(i as u32), v);
                        if i >= m.len() {
                            m.resize(i + 1, 0);
                        }
                        m[i] = v;
                    }
                }
                check(&pair, i);
            }
        }
    }
}
