//! Compiling a pipeline into its canonical *behavior cover*.
//!
//! A behavior cover is an ordered set of pairwise disjoint ternary cubes
//! over the program's free header fields — the *atoms* (forwarding
//! equivalence classes) — each mapped to the one concrete observable
//! behavior every packet in the atom experiences. Equivalence of two
//! pipelines then costs one behavior comparison per non-empty atom
//! intersection instead of one evaluation per packet.
//!
//! The compiler runs the pipeline *symbolically*: a state is an input
//! cube plus the concrete values of every field the program has written
//! so far (metadata starts at zero, `SetField` writes are always concrete
//! integers, so written fields never become symbolic). At each table the
//! incoming cube is split against the table's priority-resolved entry
//! partition — which-entry-fires depends only on the input atom — and
//! each piece continues at its successor table until the run terminates,
//! yielding an atom. Every branch a packet could take is explored, every
//! split is a partition, and the leaf cubes therefore tile the input
//! space exactly: soundness and completeness are inherited from the cube
//! algebra, not from enumeration.
//!
//! The priority resolution of one table — per entry, the disjoint region
//! it wins after all higher-priority entries took theirs, plus the miss
//! region — is independent of the incoming state, so it is computed once
//! per distinct table *content* and cached process-wide keyed by a
//! structural digest of the match columns (widths + canonical ternary
//! rows; actions are irrelevant to the partition). Churn/re-check
//! workloads that modify actions or re-verify the same tables pay the
//! subtraction fan-out once (`sym.cache.hits` / `sym.cache.misses`).

use crate::cube::{Cube, Tern};
use crate::trie::CubeTrie;
use mapro_core::{ActionSem, AttrId, AttrKind, MissPolicy, Pipeline, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// The joint ternary coordinate system: every header `Field` attribute
/// matched by any of the compared pipelines, sorted by attribute id (the
/// same order `Domain::from_pipelines` derives, so counterexample field
/// listings stay byte-compatible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpace {
    /// `(attribute, width)` per cube column.
    pub coords: Vec<(AttrId, u32)>,
}

impl FieldSpace {
    /// Derive the joint space of several pipelines.
    pub fn from_pipelines(pipelines: &[&Pipeline]) -> FieldSpace {
        let mut coords: Vec<(AttrId, u32)> = Vec::new();
        for p in pipelines {
            for t in &p.tables {
                for &attr in &t.match_attrs {
                    let a = p.catalog.attr(attr);
                    if matches!(a.kind, AttrKind::Field)
                        && !coords.iter().any(|&(id, _)| id == attr)
                    {
                        coords.push((attr, a.width));
                    }
                }
            }
        }
        coords.sort_unstable_by_key(|&(id, _)| id);
        FieldSpace { coords }
    }

    /// Column index of an attribute, if it participates.
    #[inline]
    pub fn coord_of(&self, attr: AttrId) -> Option<usize> {
        self.coords.iter().position(|&(id, _)| id == attr)
    }

    /// The all-wildcard cube over this space.
    pub fn universe(&self) -> Cube {
        Cube::any(self.coords.len())
    }
}

/// The concrete observable behavior of one atom — the symbolic mirror of
/// `Verdict::observable()`. Construction normalizes a drop (not punted to
/// the controller) to the absorbing [`Behavior::Dropped`], discarding any
/// effects accumulated before the miss, exactly as the evaluator does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Behavior {
    /// The packet was discarded; nothing is externally visible.
    Dropped,
    /// The packet left the switch with these effects applied.
    Delivered {
        /// Output port, if any (last write wins).
        output: Option<Arc<str>>,
        /// Whether the packet was punted to the controller.
        to_controller: bool,
        /// Final values of modified header fields, sorted by attribute id.
        header_mods: Vec<(AttrId, u64)>,
        /// Opaque actions applied (sorted multiset).
        opaque: Vec<(String, Value)>,
    },
}

/// One forwarding equivalence class: an input cube and the behavior every
/// packet in it experiences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Input constraint over the [`FieldSpace`] coordinates.
    pub cube: Cube,
    /// The concrete behavior of all packets in `cube`.
    pub behavior: Behavior,
}

/// A pipeline compiled to disjoint atoms tiling the whole input space.
///
/// Atom order is the deterministic depth-first branch order of the
/// symbolic run (table entries in priority order, then the miss region),
/// identical at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorCover {
    /// The coordinate system the atoms' cubes live in.
    pub space: FieldSpace,
    /// The atoms, pairwise disjoint, union = universe.
    pub atoms: Vec<Atom>,
}

/// Which representation carries a behavior cover.
///
/// * `Dd` (the default) — hash-consed decision diagrams (`mapro-dd`): one
///   canonical MTBDD per pipeline, equivalence is root-pointer equality,
///   negation and subtraction never fragment. Complete — no budget-shaped
///   "unknown" answers. Every committed measurement that has both engines
///   (E21, E22) has this one ahead, by 7× to three orders of magnitude.
/// * `Cube` — flat disjoint ternary cube lists (the original engine):
///   subtraction splits cubes recursively and cross-intersection is
///   quadratic in atoms. Nothing selects it on its own; it is the
///   independent second engine `check`/`lint` run when asked to, which is
///   what E17, E21 and the `sym_`/`dd_differential` suites compare
///   against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverBackend {
    /// Flat ternary-cube atom lists.
    Cube,
    /// Hash-consed BDD/MTBDD covers.
    #[default]
    Dd,
}

impl CoverBackend {
    /// Parse a CLI argument (`cube`, `dd`).
    pub fn parse(s: &str) -> Option<CoverBackend> {
        match s {
            "cube" => Some(CoverBackend::Cube),
            "dd" => Some(CoverBackend::Dd),
            _ => None,
        }
    }
}

/// Budgets for the symbolic compiler. Exhaustion is reported as
/// [`Unsupported`], which `EquivMode::Auto` turns into an enumerative
/// fallback — never a wrong answer.
#[derive(Debug, Clone)]
pub struct SymConfig {
    /// Maximum number of atoms (cube backend) or leaf regions (DD backend)
    /// one compilation may produce.
    pub max_atoms: usize,
    /// Maximum number of live cubes while partitioning one table (cube
    /// backend only).
    pub partition_budget: usize,
    /// Which cover representation a full check uses (default
    /// [`CoverBackend::Dd`]); incremental sessions are always DD.
    pub backend: CoverBackend,
    /// Maximum interior nodes in one DD manager (DD backend only).
    pub max_nodes: usize,
}

impl Default for SymConfig {
    fn default() -> Self {
        SymConfig {
            max_atoms: 1 << 20,
            partition_budget: 1 << 20,
            backend: CoverBackend::default(),
            max_nodes: mapro_dd::Mgr::DEFAULT_MAX_NODES,
        }
    }
}

/// A construct the cover compilers cannot express (or a blown budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// A symbolic path revisited tables beyond the evaluator's own visit
    /// budget; the concrete evaluator would error identically, and error
    /// *ordering* across the domain is the enumerative engine's business.
    GotoCycle {
        /// The visit budget that was exceeded.
        limit: usize,
    },
    /// A reachable `Goto`/`next`/`Fall` named a table that does not exist.
    UnknownTable(String),
    /// A reachable action cell held a malformed parameter.
    BadActionParam {
        /// Offending table name.
        table: String,
        /// Offending action attribute name.
        attr: String,
    },
    /// The compilation exceeded [`SymConfig::max_atoms`].
    AtomBudget,
    /// A table partition exceeded [`SymConfig::partition_budget`].
    PartitionBudget,
    /// The DD backend exceeded [`SymConfig::max_nodes`].
    NodeBudget,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::GotoCycle { limit } => {
                write!(
                    f,
                    "a symbolic path exceeds {limit} table visits (goto cycle?)"
                )
            }
            Unsupported::UnknownTable(t) => {
                write!(f, "a reachable jump targets unknown table {t:?}")
            }
            Unsupported::BadActionParam { table, attr } => {
                write!(
                    f,
                    "table {table:?}: malformed parameter for action {attr:?}"
                )
            }
            Unsupported::AtomBudget => write!(f, "atom budget exhausted"),
            Unsupported::PartitionBudget => write!(f, "table partition budget exhausted"),
            Unsupported::NodeBudget => write!(f, "decision-diagram node budget exhausted"),
        }
    }
}

impl Unsupported {
    /// Stable snake_case cause label, used as the `sym.fallback.<cause>`
    /// counter suffix and in `mapro check` fallback notes.
    pub fn label(&self) -> &'static str {
        match self {
            Unsupported::GotoCycle { .. } => "goto_cycle",
            Unsupported::UnknownTable(_) => "unknown_table",
            Unsupported::BadActionParam { .. } => "bad_action_param",
            Unsupported::AtomBudget => "atom_budget",
            Unsupported::PartitionBudget => "partition_budget",
            Unsupported::NodeBudget => "node_budget",
        }
    }
}

impl std::error::Error for Unsupported {}

/// A table's priority-resolved match partition over its own columns:
/// per entry the disjoint region it wins, plus the miss region. State
/// independent, hence cacheable by table content.
#[derive(Debug)]
pub(crate) struct TablePartition {
    /// Per entry: `None` if unsatisfiable (a symbolic match cell), else
    /// the disjoint cubes of `entry ∖ (earlier entries)`.
    regions: Vec<Option<Vec<Cube>>>,
    /// `universe ∖ (all entries)` — the packets that miss.
    miss: Vec<Cube>,
    /// Total piece count (regions + miss) — the indexing heuristic's
    /// input, precomputed so `step` never rescans the region lists.
    pieces: usize,
    /// Lazily-built piece trie for constrained visits (see
    /// [`Compiler::step`]).
    index: OnceLock<PieceIndex>,
}

/// Where a flat piece id points inside a [`TablePartition`].
#[derive(Debug, Clone, Copy)]
enum PieceLoc {
    /// Piece `pi` of entry `ei`'s win region.
    Entry { ei: u32, pi: u32 },
    /// Piece `pi` of the miss region.
    Miss { pi: u32 },
}

/// The piece trie plus the flat-id → location map, in deterministic
/// construction order (entries by priority, pieces in order, miss last) —
/// the same order the linear scan visits, so an indexed `step` produces
/// byte-identical successor lists.
#[derive(Debug)]
struct PieceIndex {
    trie: CubeTrie,
    locs: Vec<PieceLoc>,
}

impl TablePartition {
    fn piece_index(&self, widths: &[u32]) -> &PieceIndex {
        self.index.get_or_init(|| {
            let mut trie = CubeTrie::new(widths);
            let mut locs = Vec::with_capacity(self.pieces);
            for (ei, region) in self.regions.iter().enumerate() {
                let Some(region) = region else { continue };
                for (pi, piece) in region.iter().enumerate() {
                    trie.insert(piece, locs.len() as u32);
                    locs.push(PieceLoc::Entry {
                        ei: ei as u32,
                        pi: pi as u32,
                    });
                }
            }
            for (pi, piece) in self.miss.iter().enumerate() {
                trie.insert(piece, locs.len() as u32);
                locs.push(PieceLoc::Miss { pi: pi as u32 });
            }
            PieceIndex { trie, locs }
        })
    }
}

/// One slot of the partition cache: the partition plus its second-chance
/// reference bit.
struct CacheSlot {
    part: Arc<TablePartition>,
    /// Set on every hit, cleared (once) by the eviction hand before the
    /// slot becomes an eviction candidate again.
    referenced: bool,
}

/// A partition cache bounded by the total `pieces` it holds, with
/// second-chance (CLOCK) eviction. Entries differ in size by orders of
/// magnitude (a 4-row exact table is 5 pieces, a 160-row universal GWLB
/// table tens of thousands), so an entry-count bound bounds nothing: churn
/// that mints a new large table version per flow-mod grew the process by
/// gigabytes under one. An insert evicts, from the front of the hand, the
/// entries whose reference bit is clear until the newcomer fits — entries
/// re-touched since the hand last passed survive — so a long churn run
/// keeps the partitions of its unchanged tables warm.
struct PartCache {
    map: HashMap<Vec<u8>, CacheSlot>,
    /// The CLOCK hand order: keys in insertion order, front inspected
    /// first on eviction.
    clock: VecDeque<Vec<u8>>,
    /// Upper bound on `held`.
    max_pieces: usize,
    /// Total weight of the partitions in `map`.
    held: usize,
    /// Hits/lookups since construction, for hit-rate assertions in tests
    /// (the process-wide `sym.cache.{hits,misses}` counters aggregate
    /// across concurrently running tests and cannot be asserted on).
    hits: u64,
    lookups: u64,
}

impl PartCache {
    fn new(max_pieces: usize) -> PartCache {
        PartCache {
            map: HashMap::new(),
            clock: VecDeque::new(),
            max_pieces,
            held: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// What one partition counts against the bound: its pieces, and at
    /// least one so that empty partitions are bounded in number too.
    fn weight(part: &TablePartition) -> usize {
        part.pieces.max(1)
    }

    fn get(&mut self, key: &[u8]) -> Option<Arc<TablePartition>> {
        self.lookups += 1;
        let slot = self.map.get_mut(key)?;
        slot.referenced = true;
        self.hits += 1;
        Some(Arc::clone(&slot.part))
    }

    fn insert(&mut self, key: Vec<u8>, part: Arc<TablePartition>) {
        if let Some(slot) = self.map.get_mut(&key) {
            // Two threads compiled the same content concurrently (equal
            // keys mean equal partitions, hence equal weight); keep the
            // newer Arc, no second clock entry.
            slot.part = part;
            return;
        }
        let weight = Self::weight(&part);
        if weight > self.max_pieces {
            return; // can never fit: the caller keeps its own Arc
        }
        while self.held + weight > self.max_pieces {
            let Some(k) = self.clock.pop_front() else {
                break;
            };
            match self.map.get_mut(&k) {
                Some(slot) if slot.referenced => {
                    slot.referenced = false;
                    self.clock.push_back(k);
                }
                Some(_) => {
                    let gone = self.map.remove(&k).expect("slot just seen");
                    self.held -= Self::weight(&gone.part);
                }
                None => {} // stale hand entry from a raced insert
            }
        }
        self.held += weight;
        self.clock.push_back(key.clone());
        self.map.insert(
            key,
            CacheSlot {
                part,
                referenced: false,
            },
        );
    }

    #[cfg(test)]
    fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Process-wide partition cache ([`PartCache`]); correctness never depends
/// on a hit.
static PART_CACHE: OnceLock<Mutex<PartCache>> = OnceLock::new();
/// The largest partition any committed experiment or e2e workload builds is
/// E21's deep-overlap plant (`repro -e ddscale`, 121 rows × 3 columns) at
/// 327 165 pieces; E17/E22's 960-row GWLB is 40 640 and e2e's largest
/// (`toolchain`, `gwlb-s16-b8`) 5 696. The bound is the next power of two: every
/// one of them still fits, and at ~100 B per 3-column piece the cache tops
/// out near 50 MiB of cubes.
const PART_CACHE_MAX_PIECES: usize = 1 << 19;

/// Structural digest key of a table's match side: column widths plus each
/// row's canonical ternary form. Actions are excluded on purpose — they
/// cannot change which entry wins a packet.
fn partition_key(widths: &[u32], rows: &[Option<Cube>]) -> Vec<u8> {
    let mut key = Vec::with_capacity(8 + rows.len() * (1 + widths.len() * 16));
    key.extend_from_slice(&(widths.len() as u32).to_le_bytes());
    for &w in widths {
        key.extend_from_slice(&w.to_le_bytes());
    }
    key.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        match row {
            None => key.push(0),
            Some(c) => {
                key.push(1);
                for t in &c.0 {
                    key.extend_from_slice(&t.bits.to_le_bytes());
                    key.extend_from_slice(&t.mask.to_le_bytes());
                }
            }
        }
    }
    key
}

/// Build (or fetch) the partition for one table's canonical rows.
fn table_partition(
    widths: &[u32],
    rows: Vec<Option<Cube>>,
    cfg: &SymConfig,
) -> Result<Arc<TablePartition>, Unsupported> {
    // One span per call whether the digest cache hits or misses, so the
    // logical span tree is independent of cache warmth (and therefore of
    // thread count and prior runs); the outcome is a field instead.
    let mut span = mapro_obs::trace::span_kv("partition", vec![("rows", rows.len().into())]);
    let key = partition_key(widths, &rows);
    let cache = PART_CACHE.get_or_init(|| Mutex::new(PartCache::new(PART_CACHE_MAX_PIECES)));
    if let Some(hit) = cache.lock().expect("partition cache lock").get(&key) {
        mapro_obs::counter!("sym.cache.hits").inc();
        span.set("cache_hit", true);
        return Ok(hit);
    }
    mapro_obs::counter!("sym.cache.misses").inc();
    span.set("cache_hit", false);

    let ncols = widths.len();
    let mut remaining = vec![Cube::any(ncols)];
    // Double-buffered scratch: each row's residues accumulate into `next`
    // via `subtract_into`, then the buffers swap — no per-split Vec churn.
    let mut next: Vec<Cube> = Vec::new();
    let mut regions = Vec::with_capacity(rows.len());
    for row in &rows {
        let Some(ec) = row else {
            regions.push(None);
            continue;
        };
        let hits: Vec<Cube> = remaining.iter().filter_map(|r| r.intersect(ec)).collect();
        // `remaining` partitions `universe ∖ (earlier entries)`, so the
        // subtraction only ever splits the pieces `ec` overlaps.
        next.clear();
        for r in &remaining {
            r.subtract_into(ec, &mut next);
        }
        std::mem::swap(&mut remaining, &mut next);
        if remaining.len() > cfg.partition_budget {
            return Err(Unsupported::PartitionBudget);
        }
        regions.push(Some(hits));
    }
    let pieces = regions.iter().flatten().map(|r| r.len()).sum::<usize>() + remaining.len();
    let part = Arc::new(TablePartition {
        regions,
        miss: remaining,
        pieces,
        index: OnceLock::new(),
    });
    cache
        .lock()
        .expect("partition cache lock")
        .insert(key, Arc::clone(&part));
    Ok(part)
}

/// The backend-independent half of a symbolic execution state: everything
/// except the input constraint (a [`Cube`] for the cube compiler, a BDD
/// for the DD compiler in [`crate::ddcover`]). Both compilers share this
/// struct — and [`apply_actions`] / [`delivered`] below — so action
/// semantics cannot drift between backends.
#[derive(Clone)]
pub(crate) struct SymCore {
    /// Concrete current value per catalog attribute: metadata starts at
    /// `Some(0)`, header fields at `None` (free input) until written.
    pub(crate) vals: Vec<Option<u64>>,
    /// `SetField` targets in first-write order (mirrors the evaluator).
    pub(crate) touched: Vec<AttrId>,
    /// Last `Output` parameter, if any.
    pub(crate) output: Option<Arc<str>>,
    /// Opaque actions accumulated so far.
    pub(crate) opaque: Vec<(String, Value)>,
    /// Table visits so far (the evaluator's goto-cycle budget).
    pub(crate) steps: usize,
}

impl SymCore {
    /// The state at pipeline entry: metadata zero, header fields free.
    pub(crate) fn initial(p: &Pipeline) -> SymCore {
        let vals = (0..p.catalog.len())
            .map(|i| match p.catalog.attr(AttrId(i as u32)).kind {
                AttrKind::Meta => Some(0),
                _ => None,
            })
            .collect();
        SymCore {
            vals,
            touched: Vec::new(),
            output: None,
            opaque: Vec::new(),
            steps: 0,
        }
    }
}

/// Apply the actions of entry `ei` in table `ti` of `p` to `core`,
/// returning the `Goto` target if one fired. The one implementation of
/// action semantics both cover compilers run.
pub(crate) fn apply_actions<'p>(
    p: &'p Pipeline,
    ti: usize,
    ei: usize,
    core: &mut SymCore,
) -> Result<Option<&'p str>, Unsupported> {
    let t = &p.tables[ti];
    let mut goto: Option<&str> = None;
    for (col, &attr) in t.action_attrs.iter().enumerate() {
        let param = &t.entries[ei].actions[col];
        if matches!(param, Value::Any) {
            continue; // no-op slot
        }
        let a = p.catalog.attr(attr);
        let sem = match &a.kind {
            AttrKind::Action(s) => s,
            _ => unreachable!("action column with non-action attr"),
        };
        let bad = || Unsupported::BadActionParam {
            table: t.name.clone(),
            attr: a.name.clone(),
        };
        match sem {
            ActionSem::Output => match param {
                Value::Sym(port) => core.output = Some(port.clone()),
                _ => return Err(bad()),
            },
            ActionSem::Goto => match param {
                Value::Sym(target) => goto = Some(target.as_ref()),
                _ => return Err(bad()),
            },
            ActionSem::SetField(target) => match param {
                Value::Int(x) => {
                    core.vals[target.index()] = Some(*x);
                    if !core.touched.contains(target) {
                        core.touched.push(*target);
                    }
                }
                _ => return Err(bad()),
            },
            ActionSem::Opaque => {
                core.opaque.push((a.name.clone(), param.clone()));
            }
        }
    }
    Ok(goto)
}

/// The terminal `Delivered` behavior of a state (mirrors the verdict
/// projection: touched header fields sorted by id, opaque multiset
/// sorted), punted on a `Controller` miss. Shared by both cover compilers.
pub(crate) fn delivered(p: &Pipeline, core: &SymCore, to_controller: bool) -> Behavior {
    let mut mods: Vec<(AttrId, u64)> = core
        .touched
        .iter()
        .filter(|&&a| matches!(p.catalog.attr(a).kind, AttrKind::Field))
        .map(|&a| {
            (
                a,
                core.vals[a.index()].expect("touched fields are concrete"),
            )
        })
        .collect();
    mods.sort_unstable_by_key(|&(a, _)| a);
    let mut opaque = core.opaque.clone();
    opaque.sort();
    Behavior::Delivered {
        output: core.output.clone(),
        to_controller,
        header_mods: mods,
        opaque,
    }
}

/// The evaluator's table-visit budget for `p` (goto-cycle detection).
pub(crate) fn visit_limit(p: &Pipeline) -> usize {
    p.tables.len().saturating_mul(2) + 8
}

/// One in-flight symbolic execution state of the cube compiler.
#[derive(Clone)]
struct SymState {
    /// Constraint on the *input* packet, over the space coordinates.
    cube: Cube,
    /// The backend-independent rest of the state.
    core: SymCore,
}

/// Where a branch goes next: another table or a terminal behavior.
enum Next {
    Table(usize),
    Done(Behavior),
}

/// Table `ti`'s column widths and its match rows in canonical ternary form
/// over those columns (`None` = an unsatisfiable symbolic cell) — what both
/// cover compilers execute instead of raw `Value`s.
pub(crate) fn table_rows(p: &Pipeline, ti: usize) -> (Vec<u32>, Vec<Option<Cube>>) {
    let t = &p.tables[ti];
    let widths: Vec<u32> = t
        .match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width)
        .collect();
    let rows = t
        .entries
        .iter()
        .map(|e| Cube::of(&e.matches, &widths))
        .collect();
    (widths, rows)
}

/// Piece count below which `step` always scans linearly — walking a trie
/// for a handful of pieces costs more than the scan.
const PIECE_INDEX_MIN: usize = 64;

/// Everything `expand` needs that is shared across branches.
struct Compiler<'a> {
    p: &'a Pipeline,
    space: &'a FieldSpace,
    index: HashMap<&'a str, usize>,
    parts: Vec<Arc<TablePartition>>,
    /// Per table, its match-column widths (the piece tries' coordinate
    /// system).
    widths: Vec<Vec<u32>>,
    limit: usize,
    cfg: &'a SymConfig,
}

impl<'a> Compiler<'a> {
    /// Build (or fetch from the digest cache) every table's partition, in
    /// table order; everything else is cheap schema work.
    fn new(
        p: &'a Pipeline,
        space: &'a FieldSpace,
        cfg: &'a SymConfig,
    ) -> Result<Compiler<'a>, Unsupported> {
        let mut parts = Vec::with_capacity(p.tables.len());
        let mut widths = Vec::with_capacity(p.tables.len());
        for ti in 0..p.tables.len() {
            let (w, rows) = table_rows(p, ti);
            parts.push(table_partition(&w, rows, cfg)?);
            widths.push(w);
        }
        Ok(Compiler {
            p,
            space,
            index: p.name_index(),
            parts,
            widths,
            limit: visit_limit(p),
            cfg,
        })
    }

    fn resolve(&self, name: &str) -> Result<usize, Unsupported> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| Unsupported::UnknownTable(name.to_owned()))
    }

    fn initial_state(&self) -> SymState {
        SymState {
            cube: self.space.universe(),
            core: SymCore::initial(self.p),
        }
    }

    /// Specialize one partition cube to the current state: columns whose
    /// attribute has a known concrete value filter on it; the rest narrow
    /// the input cube. Returns the refined input cube, or `None` when this
    /// piece is unreachable under the current state.
    fn refine(&self, state: &SymState, attrs: &[AttrId], piece: &Cube) -> Option<Cube> {
        let mut cube = state.cube.clone();
        for (col, &attr) in attrs.iter().enumerate() {
            let t = piece.0[col];
            match state.core.vals[attr.index()] {
                Some(v) => {
                    if !t.matches(v) {
                        return None;
                    }
                }
                None => {
                    let k = self
                        .space
                        .coord_of(attr)
                        .expect("unwritten match attr is a space coordinate");
                    cube.0[k] = cube.0[k].intersect(t)?;
                }
            }
        }
        Some(cube)
    }

    /// One successor branch for piece `pi` of entry `ei`'s win region.
    fn step_entry(
        &self,
        state: &SymState,
        ti: usize,
        ei: usize,
        piece: &Cube,
        out: &mut Vec<(SymState, Next)>,
    ) -> Result<(), Unsupported> {
        let t = &self.p.tables[ti];
        let Some(cube) = self.refine(state, &t.match_attrs, piece) else {
            return Ok(());
        };
        let mut s = state.clone();
        s.cube = cube;
        s.core.steps += 1;
        if s.core.steps > self.limit {
            return Err(Unsupported::GotoCycle { limit: self.limit });
        }
        let goto = apply_actions(self.p, ti, ei, &mut s.core)?;
        let next = match goto {
            Some(g) => Next::Table(self.resolve(g)?),
            None => match &t.next {
                Some(n) => Next::Table(self.resolve(n)?),
                None => Next::Done(delivered(self.p, &s.core, false)),
            },
        };
        out.push((s, next));
        Ok(())
    }

    /// One successor branch for a miss-region piece.
    fn step_miss(
        &self,
        state: &SymState,
        ti: usize,
        piece: &Cube,
        out: &mut Vec<(SymState, Next)>,
    ) -> Result<(), Unsupported> {
        let t = &self.p.tables[ti];
        let Some(cube) = self.refine(state, &t.match_attrs, piece) else {
            return Ok(());
        };
        let mut s = state.clone();
        s.cube = cube;
        s.core.steps += 1;
        if s.core.steps > self.limit {
            return Err(Unsupported::GotoCycle { limit: self.limit });
        }
        let next = match &t.miss {
            MissPolicy::Drop => Next::Done(Behavior::Dropped),
            MissPolicy::Controller => Next::Done(delivered(self.p, &s.core, true)),
            MissPolicy::Fall(n) => Next::Table(self.resolve(n)?),
        };
        out.push((s, next));
        Ok(())
    }

    /// The current state's constraint over table `ti`'s own columns — the
    /// probe cube for the piece trie. Mirrors [`Compiler::refine`]: a
    /// column whose attribute has a concrete value probes exactly that
    /// value, the rest probe the input cube's coordinate.
    fn probe_cube(&self, state: &SymState, ti: usize) -> Cube {
        let t = &self.p.tables[ti];
        Cube(
            t.match_attrs
                .iter()
                .zip(&self.widths[ti])
                .map(|(&attr, &w)| {
                    let wm = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                    match state.core.vals[attr.index()] {
                        Some(v) => Tern::exact(v, wm),
                        None => {
                            let k = self
                                .space
                                .coord_of(attr)
                                .expect("unwritten match attr is a space coordinate");
                            state.cube.0[k]
                        }
                    }
                })
                .collect(),
        )
    }

    /// Run one table visit on `state`: split it against the table's
    /// partition and return every successor branch in deterministic order
    /// (entries by priority, partition cubes in construction order, miss
    /// region last).
    ///
    /// When the visit is constrained (some probe bit is exact) and the
    /// partition is large, candidate pieces come from the piece trie
    /// instead of a full scan — the trie's filter is exactly the per-piece
    /// compatibility test `refine` applies, and candidates are visited in
    /// flat construction order, so the successor list is byte-identical
    /// either way. The start table's universe probe takes the linear path;
    /// every later visit of a large table, constrained by then, the trie.
    fn step(&self, state: &SymState, ti: usize) -> Result<Vec<(SymState, Next)>, Unsupported> {
        let part = &self.parts[ti];
        let mut out = Vec::new();

        if part.pieces >= PIECE_INDEX_MIN {
            let probe = self.probe_cube(state, ti);
            if probe.0.iter().any(|t| t.mask != 0) {
                let idx = part.piece_index(&self.widths[ti]);
                let mut cand = Vec::new();
                idx.trie.query_into(&probe, &mut cand);
                for &slot in &cand {
                    match idx.locs[slot as usize] {
                        PieceLoc::Entry { ei, pi } => {
                            let region = part.regions[ei as usize]
                                .as_ref()
                                .expect("indexed piece of an unsatisfiable entry");
                            self.step_entry(
                                state,
                                ti,
                                ei as usize,
                                &region[pi as usize],
                                &mut out,
                            )?;
                        }
                        PieceLoc::Miss { pi } => {
                            self.step_miss(state, ti, &part.miss[pi as usize], &mut out)?;
                        }
                    }
                }
                return Ok(out);
            }
        }

        for (ei, region) in part.regions.iter().enumerate() {
            let Some(region) = region else { continue };
            for piece in region {
                self.step_entry(state, ti, ei, piece, &mut out)?;
            }
        }
        for piece in &part.miss {
            self.step_miss(state, ti, piece, &mut out)?;
        }
        Ok(out)
    }

    /// Depth-first expansion of one branch to its atoms.
    fn expand(&self, state: SymState, ti: usize, out: &mut Vec<Atom>) -> Result<(), Unsupported> {
        for (s, next) in self.step(&state, ti)? {
            match next {
                Next::Done(behavior) => {
                    out.push(Atom {
                        cube: s.cube,
                        behavior,
                    });
                    if out.len() > self.cfg.max_atoms {
                        return Err(Unsupported::AtomBudget);
                    }
                }
                Next::Table(t2) => self.expand(s, t2, out)?,
            }
        }
        Ok(())
    }
}

/// Compile `p` into its behavior cover over `space`.
///
/// The first-table branches fan out over the `mapro-par` pool; each branch
/// expands depth-first with the full atom budget and the per-branch atom
/// lists are concatenated in branch order, so the cover is byte-identical
/// at any thread count.
pub fn compile(
    p: &Pipeline,
    space: &FieldSpace,
    cfg: &SymConfig,
) -> Result<BehaviorCover, Unsupported> {
    let _t = mapro_obs::time!("sym.compile_ns");
    let mut span = mapro_obs::trace::span_kv("compile", vec![("tables", p.tables.len().into())]);
    let c = Compiler::new(p, space, cfg)?;
    let start = c.resolve(&p.start)?;
    let root_branches = c.step(&c.initial_state(), start)?;

    let mut atoms = Vec::new();
    if root_branches.len() >= 2 {
        let pool = mapro_par::Pool::current();
        let branches: Vec<(SymState, Next)> = root_branches;
        let results: Vec<Result<Vec<Atom>, Unsupported>> =
            pool.map_ordered(&branches, |bi, (s, next)| {
                let _b = mapro_obs::trace::span_kv("branch", vec![("branch", bi.into())]);
                let mut part = Vec::new();
                match next {
                    Next::Done(b) => part.push(Atom {
                        cube: s.cube.clone(),
                        behavior: b.clone(),
                    }),
                    Next::Table(ti) => c.expand(s.clone(), *ti, &mut part)?,
                }
                Ok(part)
            });
        for r in results {
            atoms.extend(r?);
        }
        if atoms.len() > cfg.max_atoms {
            return Err(Unsupported::AtomBudget);
        }
    } else {
        for (s, next) in root_branches {
            match next {
                Next::Done(b) => atoms.push(Atom {
                    cube: s.cube,
                    behavior: b,
                }),
                Next::Table(ti) => c.expand(s, ti, &mut atoms)?,
            }
        }
    }
    mapro_obs::counter!("sym.atoms").add(atoms.len() as u64);
    span.set("atoms", atoms.len());
    Ok(BehaviorCover {
        space: space.clone(),
        atoms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{Catalog, Packet, Table};

    fn single(c: Catalog, t: Table) -> Pipeline {
        Pipeline::single(c, t)
    }

    /// Enumerate every packet of the (small) field space and check the
    /// cover is a partition agreeing with concrete evaluation.
    fn assert_cover_exact(p: &Pipeline) {
        let space = FieldSpace::from_pipelines(&[p]);
        let cover = compile(p, &space, &SymConfig::default()).unwrap();
        let widths: Vec<u32> = space.coords.iter().map(|&(_, w)| w).collect();
        let total: u64 = widths.iter().map(|&w| 1u64 << w).product();
        assert!(total <= 1 << 16, "test space too large");
        let index = p.name_index();
        for mut n in 0..total {
            let mut pkt = Packet::zero(&p.catalog);
            let mut vals = Vec::new();
            for (k, &(attr, w)) in space.coords.iter().enumerate() {
                let v = n & ((1u64 << w) - 1);
                n >>= w;
                pkt.set(attr, v);
                vals.push((k, v));
            }
            let owners: Vec<&Atom> = cover
                .atoms
                .iter()
                .filter(|a| vals.iter().all(|&(k, v)| a.cube.0[k].matches(v)))
                .collect();
            assert_eq!(owners.len(), 1, "atoms must partition the space");
            let v = p.run_indexed(&pkt, &index).unwrap();
            let expect = match v.observable() {
                mapro_core::pipeline::Observable::Dropped => Behavior::Dropped,
                mapro_core::pipeline::Observable::Delivered {
                    output,
                    to_controller,
                    header_mods,
                    opaque,
                } => Behavior::Delivered {
                    output: output.map(Arc::from),
                    to_controller,
                    header_mods: header_mods.to_vec(),
                    opaque: opaque.to_vec(),
                },
            };
            assert_eq!(owners[0].behavior, expect, "packet {vals:?}");
        }
    }

    #[test]
    fn single_table_cover_matches_evaluator() {
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
        assert_cover_exact(&single(c, t));
    }

    #[test]
    fn goto_metadata_cover_matches_evaluator() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
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
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        assert_cover_exact(&p);
    }

    #[test]
    fn header_rewrite_then_rematch_covered() {
        // t0 rewrites header g, t1 matches g: the rewritten value is
        // concrete, so t1's branch decision must not constrain the input.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let g = c.field("g", 4);
        let set_g = c.action("set_g", ActionSem::SetField(g));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![set_g]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(7)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![g], vec![out]);
        t1.row(vec![Value::Int(7)], vec![Value::sym("rewritten")]);
        t1.row(vec![Value::Any], vec![Value::sym("passthrough")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        assert_cover_exact(&p);
    }

    #[test]
    fn controller_and_fall_miss_policies_covered() {
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
        assert_cover_exact(&p);
    }

    #[test]
    fn goto_cycle_is_unsupported() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = single(c, t0);
        let space = FieldSpace::from_pipelines(&[&p]);
        assert!(matches!(
            compile(&p, &space, &SymConfig::default()),
            Err(Unsupported::GotoCycle { .. })
        ));
    }

    #[test]
    fn bad_action_param_is_unsupported() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Any], vec![Value::Int(3)]); // output wants a Sym
        let p = single(c, t);
        let space = FieldSpace::from_pipelines(&[&p]);
        assert!(matches!(
            compile(&p, &space, &SymConfig::default()),
            Err(Unsupported::BadActionParam { .. })
        ));
    }

    #[test]
    fn unreachable_bad_param_does_not_poison_compile() {
        // The malformed cell sits behind a shadowing entry; no packet can
        // reach it, and the compiler never visits unreachable branches.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Any], vec![Value::sym("a")]);
        t.row(vec![Value::Int(1)], vec![Value::Int(9)]); // shadowed
        let p = single(c, t);
        assert_cover_exact(&p);
    }

    #[test]
    fn partition_cache_hits_on_identical_content() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(200)], vec![Value::sym("cache-probe-a")]);
        t.row(vec![Value::Int(201)], vec![Value::sym("cache-probe-b")]);
        let p = single(c, t);
        let space = FieldSpace::from_pipelines(&[&p]);
        let a = compile(&p, &space, &SymConfig::default()).unwrap();
        // Change only an action: the match partition digest is unchanged.
        let mut p2 = p.clone();
        p2.table_mut("t").unwrap().entries[0].actions[0] = Value::sym("cache-probe-c");
        let b = compile(&p2, &space, &SymConfig::default()).unwrap();
        assert_eq!(a.atoms.len(), b.atoms.len());
        assert_eq!(a.atoms[0].cube, b.atoms[0].cube);
        assert_ne!(a.atoms[0].behavior, b.atoms[0].behavior);
    }

    #[test]
    fn part_cache_second_chance_keeps_hot_keys() {
        // The clear-on-full policy this replaced dropped *everything* at
        // capacity, so a key touched every iteration still missed right
        // after each wipe. Second-chance keeps the referenced bit set on
        // the hot key, so it survives an arbitrarily long churn of
        // one-shot keys and the overall hit rate stays high.
        let dummy = || {
            Arc::new(TablePartition {
                regions: vec![],
                miss: vec![],
                pieces: 0,
                index: OnceLock::new(),
            })
        };
        let cap = 8;
        let hot = b"hot".to_vec();
        let mut cache = PartCache::new(cap);
        cache.insert(hot.clone(), dummy());
        assert!(cache.get(&hot).is_some());
        // Churn far more distinct keys than the capacity; re-touch the hot
        // key between every insertion, the way a steadily-rechecked table
        // digest recurs between one-shot flow-mod digests.
        let churn = cap * 16;
        for i in 0..churn {
            cache.insert(format!("cold-{i}").into_bytes(), dummy());
            assert!(
                cache.get(&hot).is_some(),
                "hot key evicted after {i} cold inserts"
            );
        }
        assert!(cache.map.len() <= cap, "cache exceeded its capacity");
        // Hit rate: every lookup above was the hot key, and all hit. Under
        // clear-on-full the same access pattern misses once per wipe
        // (churn / cap times); second-chance must do strictly better than
        // that bound and in fact hits every time after the first insert.
        let wipe_policy_bound = 1.0 - 1.0 / cap as f64;
        assert!(
            cache.hit_rate() > wipe_policy_bound,
            "hit rate {} not better than clear-on-full bound {}",
            cache.hit_rate(),
            wipe_policy_bound
        );
        assert_eq!(cache.hits, cache.lookups, "hot key should never miss");
    }

    #[test]
    fn part_cache_is_bounded_by_pieces_held_not_entries() {
        let part = |pieces| {
            Arc::new(TablePartition {
                regions: vec![],
                miss: vec![],
                pieces,
                index: OnceLock::new(),
            })
        };
        let max = 1000;
        let small = b"small".to_vec();
        let mut cache = PartCache::new(max);
        cache.insert(small.clone(), part(10));
        // A churn of table versions that each fill most of the cache, and
        // now and then one that could never fit: the weight held stays
        // under the bound throughout (an entry-count bound would hold all
        // 64), and the small entry, re-touched between inserts the way an
        // unchanged table is, is never the one that goes.
        for i in 0..64usize {
            let pieces = if i % 8 == 7 { max + 1 } else { 600 + i };
            cache.insert(format!("big-{i}").into_bytes(), part(pieces));
            assert!(cache.held <= max, "held {} after insert {i}", cache.held);
            let weights: usize = cache.map.values().map(|s| s.part.pieces).sum();
            assert_eq!(cache.held, weights, "held is the weight in the map");
            assert!(cache.get(&small).is_some(), "small entry evicted at {i}");
        }
        assert_eq!(cache.map.len(), 2, "one big version fits beside the small");
        assert!(
            cache.get(b"big-63").is_none(),
            "an oversized entry is not held"
        );
        assert!(cache.get(b"big-62").is_some());
    }
}
