//! Hash-consed decision diagrams over header bits.
//!
//! A node arena with structural hash-consing (the *unique table*) for
//! reduced ordered binary decision diagrams, in the KATch style: every
//! `(var, lo, hi)` triple exists at most once, so two diagrams denote the
//! same function **iff** their [`NodeRef`]s are equal — canonical equality
//! is one integer comparison, independent of diagram size.
//!
//! Two flavors share the arena:
//!
//! * **Boolean BDDs** — terminals [`NodeRef::FALSE`] / [`NodeRef::TRUE`];
//!   combined with the memoized apply operations [`Mgr::and`], [`Mgr::or`],
//!   [`Mgr::not`], [`Mgr::diff`] (set subtraction `a ∧ ¬b`) and
//!   [`Mgr::cofactor`]. These are the header-space predicates: a ternary
//!   match row becomes a conjunction of bit literals ([`Mgr::cube`]).
//! * **Terminal-labeled MTBDDs** — terminals carry an arbitrary `u32`
//!   label (a behavior id interned by the caller); built by selecting
//!   between labeled terminals with [`Mgr::ite`] under boolean guards.
//!   A whole pipeline compiles to one MTBDD mapping every point of header
//!   space to its behavior id, and pipeline equivalence is root-pointer
//!   equality.
//!
//! Variables are plain `u32` bit indices; smaller indices sit closer to
//! the root. Callers fix the order ([`ddcover`](crate::ddcover) uses field-declaration
//! order, MSB first within a field). Every allocation is bounded by a node
//! limit whose exhaustion is the recoverable [`Overflow`] error, never an
//! abort.
//!
//! ## The tables
//!
//! The arena is the only place a node's `(var, lo, hi)` is stored. Around
//! it sit two tables, both flat vectors of a power-of-two length indexed by
//! a multiplicative hash of three words this program minted (node ids,
//! variables, an op tag — never outside input, so there is nothing for a
//! keyed hash to defend):
//!
//! * the **unique table** is open-addressed (linear probing) and holds
//!   arena *indices* only; a probe compares the wanted triple against
//!   `nodes[i]`. It is exact and complete — every node is in it — and it
//!   alone carries canonicity. It is kept at most half full: when the arena
//!   outgrows that, the table doubles and is refilled by re-hashing the
//!   arena.
//! * the **computed cache** remembers results of `and`/`or`/`diff`/
//!   `cofactor`/`ite` calls. It is direct-mapped: one slot per hash value,
//!   a new result overwrites whatever was there. It may therefore *forget*
//!   any entry at any time. That is sound because a cached result is only
//!   ever a shortcut to the `NodeRef` the recursion would build anyway:
//!   recomputing goes through the unique table again and arrives at the
//!   same node, so a lost entry costs time, never a different answer. Its
//!   length follows the unique table's (a quarter as many slots), so it too is
//!   sized by the live arena; surviving entries are re-hashed on growth.
//!
//! [`Mgr::gc`] compacts the arena and sizes both tables afresh from what
//! survived (the cache starts empty — it may reference collected nodes).
//! Nothing about either table is configurable.
//!
//! ## Counters
//!
//! The manager tallies its own work ([`Mgr::stats`]) in plain integers and
//! adds the difference to the process-wide `mapro-obs` counters `dd.nodes`
//! (fresh allocations), `dd.unique.hits`, `dd.memo.hits` /
//! `dd.memo.misses` when [`Mgr::publish`] is called, when [`Mgr::gc`] runs
//! and when it is dropped — not once per node. This crate publishes at
//! the end of every compile and check, so the counters are exact wherever
//! they are read. `dd.gc.collected` counts nodes reclaimed by [`Mgr::gc`].

use std::collections::HashSet;

/// Terminal tag bit: refs with it set are terminals, payload in the low
/// 31 bits.
const TERM_BIT: u32 = 1 << 31;

/// Largest terminal label an MTBDD can carry.
pub const MAX_TERM: u32 = TERM_BIT - 1;

/// A canonical reference to a decision-diagram node (or terminal).
///
/// Within one [`Mgr`], two refs are equal **iff** the functions they
/// denote are equal — the hash-consing invariant. Refs from different
/// managers are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The constant-false boolean terminal (label 0).
    pub const FALSE: NodeRef = NodeRef(TERM_BIT);
    /// The constant-true boolean terminal (label 1).
    pub const TRUE: NodeRef = NodeRef(TERM_BIT | 1);

    /// The terminal carrying MTBDD label `v`.
    ///
    /// # Panics
    /// Panics if `v` exceeds [`MAX_TERM`].
    #[inline]
    pub fn term(v: u32) -> NodeRef {
        assert!(v <= MAX_TERM, "terminal label {v} exceeds MAX_TERM");
        NodeRef(TERM_BIT | v)
    }

    /// Is this a terminal?
    #[inline]
    pub fn is_term(self) -> bool {
        self.0 & TERM_BIT != 0
    }

    /// The terminal label, if this is a terminal.
    #[inline]
    pub fn term_value(self) -> Option<u32> {
        self.is_term().then_some(self.0 & !TERM_BIT)
    }

    #[inline]
    fn index(self) -> usize {
        debug_assert!(!self.is_term());
        self.0 as usize
    }
}

/// One interior node: test `var`, follow `lo` on 0 and `hi` on 1.
#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// The node limit was reached mid-operation.
///
/// The manager is left in a consistent state (partial results are interned
/// but harmless); callers treat this like a blown budget — fall back to
/// another engine or retry after [`Mgr::gc`] with a higher limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// The limit that was hit.
    pub limit: usize,
}

impl std::fmt::Display for Overflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decision-diagram node limit ({}) exhausted", self.limit)
    }
}

impl std::error::Error for Overflow {}

/// Memoized operations other than `ite`. In a computed-cache key the op
/// rides in the first word with the terminal tag set; `ite` keys start with
/// their guard, an interior ref (a terminal guard never reaches the cache),
/// so the two families cannot collide.
#[derive(Clone, Copy)]
#[repr(u32)]
enum Op {
    And = TERM_BIT,
    Or,
    Diff,
    Cofactor0,
    Cofactor1,
}

/// One computed-cache slot: `key` → `result`.
#[derive(Clone, Copy)]
struct Memo {
    key: [u32; 3],
    result: NodeRef,
}

impl Memo {
    /// No key starts with this word: it is neither an interior ref (those
    /// stay below [`TERM_BIT`]) nor an [`Op`] tag.
    const EMPTY: Memo = Memo {
        key: [u32::MAX; 3],
        result: NodeRef::FALSE,
    };
}

/// An unoccupied unique-table slot (the arena never reaches this index).
const NO_NODE: u32 = u32::MAX;

/// Slots of the smallest unique table: 32 KiB, and as much again for the
/// computed cache beside it. A cold check of a few hundred rows ends at a
/// few thousand nodes; starting here spares it the five re-hashes that
/// starting small would cost (measured: 5 % of a `toolchain` round).
const MIN_UNIQUE: usize = 1 << 13;

/// Unique-table slots per computed-cache slot. The unique table holds
/// between a quarter and a half of its length in nodes, so the cache has
/// one slot for every one to two nodes. Cold compiles recall little
/// (about one operation in twenty), and a larger cache costs more to
/// clear and to miss in than it saves: 1, 2 and 8 all measured slower.
const CACHE_SHARE: usize = 4;

/// Mix three table-key words into 64 well-spread bits; tables index by the
/// *top* bits (`>> shift`), where a multiplicative hash is strongest.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let x = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x ^ (x >> 32) ^ u64::from(c)).wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// What one manager has done so far — the per-manager side of the `dd.*`
/// counters (see [`Mgr::publish`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Interior nodes allocated (`dd.nodes`).
    pub nodes: u64,
    /// Constructor calls answered by the unique table (`dd.unique.hits`).
    pub unique_hits: u64,
    /// Operations answered by the computed cache (`dd.memo.hits`).
    pub memo_hits: u64,
    /// Operations the computed cache did not hold (`dd.memo.misses`).
    pub memo_misses: u64,
}

/// The decision-diagram manager: node arena, unique table, computed cache.
///
/// All diagrams of one comparison domain must live in one manager —
/// canonical equality only holds within it. The manager is deliberately
/// single-threaded (`&mut self` everywhere): determinism comes for free,
/// and the symbolic compiler parallelizes *across* checks, not within one.
pub struct Mgr {
    nodes: Vec<Node>,
    /// Open-addressed arena indices ([`NO_NODE`] = free), at most half
    /// full, indexed by `hash3(var, lo, hi) >> unique_shift`.
    unique: Vec<u32>,
    unique_shift: u32,
    /// Direct-mapped, indexed by `hash3(key) >> cache_shift`.
    cache: Vec<Memo>,
    cache_shift: u32,
    max_nodes: usize,
    stats: Stats,
    /// The part of `stats` the process-wide counters already hold.
    published: Stats,
    /// Keep the computed cache at its smallest whatever the arena does.
    #[cfg(test)]
    thrash: bool,
}

impl Default for Mgr {
    fn default() -> Self {
        Mgr::new()
    }
}

impl Drop for Mgr {
    fn drop(&mut self) {
        self.publish();
    }
}

/// `64 - log2(len)`: the shift that turns a hash into an index of a table
/// of `len` (a power of two) slots.
fn shift_for(len: usize) -> u32 {
    debug_assert!(len.is_power_of_two());
    64 - len.trailing_zeros()
}

impl Mgr {
    /// Default node limit: ~4M interior nodes (64 MiB of arena), far above
    /// anything the workloads need but a hard stop for pathological input.
    pub const DEFAULT_MAX_NODES: usize = 1 << 22;

    /// A manager with the default node limit.
    pub fn new() -> Mgr {
        Mgr::with_limit(Self::DEFAULT_MAX_NODES)
    }

    /// A manager that refuses to allocate more than `max_nodes` interior
    /// nodes (clamped to the 2^31 arena address space).
    pub fn with_limit(max_nodes: usize) -> Mgr {
        let mut m = Mgr {
            nodes: Vec::new(),
            unique: Vec::new(),
            unique_shift: 0,
            cache: Vec::new(),
            cache_shift: 0,
            max_nodes: max_nodes.min(TERM_BIT as usize - 1),
            stats: Stats::default(),
            published: Stats::default(),
            #[cfg(test)]
            thrash: false,
        };
        m.size_tables();
        m
    }

    /// A manager whose computed cache stays at its smallest, so that it
    /// forgets nearly everything a large computation tells it.
    #[cfg(test)]
    fn thrashing() -> Mgr {
        let mut m = Mgr::new();
        m.thrash = true;
        m
    }

    /// Number of interior nodes currently in the arena (live + garbage).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no interior node has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// This manager's own tallies, published or not.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Add what this manager has tallied since the last call to the
    /// process-wide `dd.*` counters. Runs on [`Mgr::gc`] and on drop as
    /// well; call it wherever a reader may look at the counters next.
    pub fn publish(&mut self) {
        let (now, was) = (self.stats, self.published);
        mapro_obs::counter!("dd.nodes").add(now.nodes - was.nodes);
        mapro_obs::counter!("dd.unique.hits").add(now.unique_hits - was.unique_hits);
        mapro_obs::counter!("dd.memo.hits").add(now.memo_hits - was.memo_hits);
        mapro_obs::counter!("dd.memo.misses").add(now.memo_misses - was.memo_misses);
        self.published = now;
    }

    #[inline]
    fn node(&self, r: NodeRef) -> Node {
        self.nodes[r.index()]
    }

    /// The decision variable at the root, or `u32::MAX` for terminals
    /// (sorts after every real variable).
    #[inline]
    fn var_of(&self, r: NodeRef) -> u32 {
        if r.is_term() {
            u32::MAX
        } else {
            self.nodes[r.index()].var
        }
    }

    /// Size both tables for the current arena — the unique table to the
    /// smallest length that leaves it at most half full, refilled by
    /// re-hashing the arena; the computed cache to its share of that,
    /// keeping the entries it held (the caller clears them when the arena
    /// was renumbered).
    fn size_tables(&mut self) {
        let len = (2 * self.nodes.len()).next_power_of_two().max(MIN_UNIQUE);
        self.unique_shift = shift_for(len);
        self.unique.clear();
        self.unique.resize(len, NO_NODE);
        for i in 0..self.nodes.len() {
            let n = self.nodes[i];
            let slot = self
                .find(n.var, n.lo, n.hi)
                .expect_err("arena nodes are distinct");
            self.unique[slot] = i as u32;
        }

        #[cfg(test)]
        let len = if self.thrash { MIN_UNIQUE } else { len };
        let len = len / CACHE_SHARE;
        if len != self.cache.len() {
            self.cache_shift = shift_for(len);
            let old = std::mem::replace(&mut self.cache, vec![Memo::EMPTY; len]);
            for m in old {
                if m.key[0] != Memo::EMPTY.key[0] {
                    let slot = self.cache_slot(m.key);
                    self.cache[slot] = m;
                }
            }
        }
    }

    /// Probe the unique table for `(var, lo, hi)`: the arena index of the
    /// node, or else the free slot where it goes.
    #[inline]
    fn find(&self, var: u32, lo: NodeRef, hi: NodeRef) -> Result<u32, usize> {
        let mask = self.unique.len() - 1;
        let mut slot = (hash3(var, lo.0, hi.0) >> self.unique_shift) as usize;
        loop {
            let i = self.unique[slot];
            if i == NO_NODE {
                return Err(slot);
            }
            let n = self.nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Hash-consed node constructor: reduces `lo == hi`, dedups through
    /// the unique table, allocates otherwise.
    fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> Result<NodeRef, Overflow> {
        if lo == hi {
            return Ok(lo);
        }
        debug_assert!(
            self.var_of(lo) > var && self.var_of(hi) > var,
            "order violation"
        );
        let slot = match self.find(var, lo, hi) {
            Ok(i) => {
                self.stats.unique_hits += 1;
                return Ok(NodeRef(i));
            }
            Err(slot) => slot,
        };
        if self.nodes.len() >= self.max_nodes {
            return Err(Overflow {
                limit: self.max_nodes,
            });
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        self.unique[slot] = i;
        self.stats.nodes += 1;
        if 2 * self.nodes.len() > self.unique.len() {
            self.size_tables();
        }
        Ok(NodeRef(i))
    }

    #[inline]
    fn cache_slot(&self, key: [u32; 3]) -> usize {
        (hash3(key[0], key[1], key[2]) >> self.cache_shift) as usize
    }

    /// The cached result of `key`, if the computed cache still holds it.
    #[inline]
    fn recall(&mut self, key: [u32; 3]) -> Option<NodeRef> {
        let m = self.cache[self.cache_slot(key)];
        if m.key == key {
            self.stats.memo_hits += 1;
            Some(m.result)
        } else {
            self.stats.memo_misses += 1;
            None
        }
    }

    /// Remember `key` → `result`, over whatever shared its slot.
    #[inline]
    fn remember(&mut self, key: [u32; 3], result: NodeRef) {
        let slot = self.cache_slot(key);
        self.cache[slot] = Memo { key, result };
    }

    /// The single-bit predicate "variable `v` is 1".
    pub fn var(&mut self, v: u32) -> Result<NodeRef, Overflow> {
        self.mk(v, NodeRef::FALSE, NodeRef::TRUE)
    }

    /// Conjunction of bit literals `(var, value)` — a ternary match row as
    /// a predicate. Literals must be sorted by strictly ascending `var`.
    pub fn cube(&mut self, lits: &[(u32, bool)]) -> Result<NodeRef, Overflow> {
        debug_assert!(
            lits.windows(2).all(|w| w[0].0 < w[1].0),
            "cube literals must be sorted by strictly ascending var"
        );
        let mut acc = NodeRef::TRUE;
        for &(v, b) in lits.iter().rev() {
            acc = if b {
                self.mk(v, NodeRef::FALSE, acc)?
            } else {
                self.mk(v, acc, NodeRef::FALSE)?
            };
        }
        Ok(acc)
    }

    /// Boolean terminal short-circuits of one apply op; `None` means both
    /// sides are interior (or mixed) and recursion must proceed.
    fn terminal_case(op: Op, a: NodeRef, b: NodeRef) -> Option<NodeRef> {
        match op {
            Op::And => {
                if a == NodeRef::FALSE || b == NodeRef::FALSE {
                    Some(NodeRef::FALSE)
                } else if a == NodeRef::TRUE {
                    Some(b)
                } else if b == NodeRef::TRUE || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Or => {
                if a == NodeRef::TRUE || b == NodeRef::TRUE {
                    Some(NodeRef::TRUE)
                } else if a == NodeRef::FALSE {
                    Some(b)
                } else if b == NodeRef::FALSE || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Diff => {
                if a == NodeRef::FALSE || b == NodeRef::TRUE || a == b {
                    Some(NodeRef::FALSE)
                } else if b == NodeRef::FALSE {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Cofactor0 | Op::Cofactor1 => unreachable!("cofactor is not a binary apply"),
        }
    }

    fn apply(&mut self, op: Op, a: NodeRef, b: NodeRef) -> Result<NodeRef, Overflow> {
        if let Some(t) = Self::terminal_case(op, a, b) {
            return Ok(t);
        }
        assert!(
            !(a.is_term() && b.is_term()),
            "boolean apply on non-boolean terminals"
        );
        // And/or are commutative: canonicalize the cache key so `a op b`
        // and `b op a` share one slot.
        let key = match op {
            Op::And | Op::Or if b < a => [op as u32, b.0, a.0],
            _ => [op as u32, a.0, b.0],
        };
        if let Some(r) = self.recall(key) {
            return Ok(r);
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.split(a, v);
        let (b0, b1) = self.split(b, v);
        let lo = self.apply(op, a0, b0)?;
        let hi = self.apply(op, a1, b1)?;
        let r = self.mk(v, lo, hi)?;
        self.remember(key, r);
        Ok(r)
    }

    /// The cofactors of `x` on variable `v`, which is at or above its root.
    #[inline]
    fn split(&self, x: NodeRef, v: u32) -> (NodeRef, NodeRef) {
        if x.is_term() {
            return (x, x);
        }
        let n = self.nodes[x.index()];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (x, x)
        }
    }

    /// Boolean conjunction `a ∧ b`.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> Result<NodeRef, Overflow> {
        self.apply(Op::And, a, b)
    }

    /// Boolean disjunction `a ∨ b`.
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> Result<NodeRef, Overflow> {
        self.apply(Op::Or, a, b)
    }

    /// Set subtraction `a ∧ ¬b` — the operation that replaces recursive
    /// cube splitting.
    pub fn diff(&mut self, a: NodeRef, b: NodeRef) -> Result<NodeRef, Overflow> {
        self.apply(Op::Diff, a, b)
    }

    /// Boolean negation `¬a`.
    pub fn not(&mut self, a: NodeRef) -> Result<NodeRef, Overflow> {
        self.apply(Op::Diff, NodeRef::TRUE, a)
    }

    /// If-then-else: boolean guard `f` selecting between `g` and `h`
    /// (which may be MTBDDs) — the MTBDD constructor.
    pub fn ite(&mut self, f: NodeRef, g: NodeRef, h: NodeRef) -> Result<NodeRef, Overflow> {
        if f == NodeRef::TRUE {
            return Ok(g);
        }
        if f == NodeRef::FALSE || g == h {
            return Ok(h);
        }
        if g == NodeRef::TRUE && h == NodeRef::FALSE {
            return Ok(f);
        }
        assert!(!f.is_term(), "ite guard must be boolean");
        let key = [f.0, g.0, h.0];
        if let Some(r) = self.recall(key) {
            return Ok(r);
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.split(f, v);
        let (g0, g1) = self.split(g, v);
        let (h0, h1) = self.split(h, v);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(v, lo, hi)?;
        self.remember(key, r);
        Ok(r)
    }

    /// Cofactor (restriction): `f` with variable `var` pinned to `val`.
    pub fn cofactor(&mut self, f: NodeRef, var: u32, val: bool) -> Result<NodeRef, Overflow> {
        if self.var_of(f) > var {
            // `var` cannot appear below the root in an ordered diagram.
            return Ok(f);
        }
        if self.var_of(f) == var {
            let n = self.node(f);
            return Ok(if val { n.hi } else { n.lo });
        }
        let op = if val { Op::Cofactor1 } else { Op::Cofactor0 };
        // The pinned variable rides in the key's second operand slot.
        let key = [op as u32, f.0, var];
        if let Some(r) = self.recall(key) {
            return Ok(r);
        }
        let n = self.node(f);
        let lo = self.cofactor(n.lo, var, val)?;
        let hi = self.cofactor(n.hi, var, val)?;
        let r = self.mk(n.var, lo, hi)?;
        self.remember(key, r);
        Ok(r)
    }

    /// Evaluate to the terminal label under a concrete assignment.
    pub fn eval(&self, mut f: NodeRef, bit: impl Fn(u32) -> bool) -> u32 {
        loop {
            match f.term_value() {
                Some(v) => return v,
                None => {
                    let n = self.node(f);
                    f = if bit(n.var) { n.hi } else { n.lo };
                }
            }
        }
    }

    /// The first satisfying assignment of a boolean BDD in 0-preferring
    /// path order: `(var, value)` for each decision on the path; unlisted
    /// variables are free (callers pin them to 0 for byte-stable
    /// representatives). `None` iff `f` is `FALSE`.
    ///
    /// Every reduced non-`FALSE` node is satisfiable, so the walk never
    /// backtracks.
    pub fn first_sat(&self, f: NodeRef) -> Option<Vec<(u32, bool)>> {
        if f == NodeRef::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_term() {
            let n = self.node(cur);
            if n.lo != NodeRef::FALSE {
                path.push((n.var, false));
                cur = n.lo;
            } else {
                path.push((n.var, true));
                cur = n.hi;
            }
        }
        debug_assert_ne!(cur, NodeRef::FALSE);
        Some(path)
    }

    /// The first assignment (0-preferring path order) on which two MTBDDs
    /// reach different terminals, or `None` iff `a == b`. This is the
    /// counterexample extractor: by hash-consing, semantic equality is
    /// exactly ref equality, so the answer is `None` iff the functions
    /// agree everywhere.
    ///
    /// Pairs proven equal are memoized in a visited set, bounding the walk
    /// by the number of distinct `(a, b)` subproblems.
    pub fn first_diff(&self, a: NodeRef, b: NodeRef) -> Option<Vec<(u32, bool)>> {
        fn go(
            m: &Mgr,
            a: NodeRef,
            b: NodeRef,
            path: &mut Vec<(u32, bool)>,
            equal: &mut HashSet<(NodeRef, NodeRef)>,
        ) -> bool {
            if a == b || equal.contains(&(a, b)) {
                return false;
            }
            if a.is_term() && b.is_term() {
                return true; // distinct terminals: the path differs here
            }
            let v = m.var_of(a).min(m.var_of(b));
            let split = |x: NodeRef| {
                if m.var_of(x) == v {
                    let n = m.node(x);
                    (n.lo, n.hi)
                } else {
                    (x, x)
                }
            };
            let (a0, a1) = split(a);
            let (b0, b1) = split(b);
            path.push((v, false));
            if go(m, a0, b0, path, equal) {
                return true;
            }
            path.pop();
            path.push((v, true));
            if go(m, a1, b1, path, equal) {
                return true;
            }
            path.pop();
            equal.insert((a, b));
            false
        }
        let mut path = Vec::new();
        let mut equal = HashSet::new();
        go(self, a, b, &mut path, &mut equal).then_some(path)
    }

    /// Mark the interior nodes reachable from `roots`: one bit per arena
    /// index, and how many are set.
    fn mark(&self, roots: &[NodeRef]) -> (Vec<u64>, usize) {
        let mut live = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut count = 0;
        let mut stack: Vec<usize> = roots
            .iter()
            .filter(|r| !r.is_term())
            .map(|r| r.index())
            .collect();
        while let Some(i) = stack.pop() {
            let bit = 1u64 << (i % 64);
            if live[i / 64] & bit != 0 {
                continue;
            }
            live[i / 64] |= bit;
            count += 1;
            let n = self.nodes[i];
            for c in [n.lo, n.hi] {
                if !c.is_term() && live[c.index() / 64] >> (c.index() % 64) & 1 == 0 {
                    stack.push(c.index());
                }
            }
        }
        (live, count)
    }

    /// Count the distinct interior nodes reachable from `roots` (shared
    /// nodes counted once — the honest size of the shared structure).
    pub fn node_count(&self, roots: &[NodeRef]) -> usize {
        self.mark(roots).1
    }

    /// Mark-sweep garbage collection: keep exactly the nodes reachable
    /// from `roots`, compacting the arena in stable (allocation) order and
    /// rewriting `roots` in place. The computed cache is emptied (it may
    /// reference collected nodes) and both tables are sized afresh from
    /// the surviving arena. Returns the number of nodes collected.
    pub fn gc(&mut self, roots: &mut [NodeRef]) -> usize {
        let before = self.nodes.len();
        let (live, count) = self.mark(roots);
        // Stable compaction: children always precede parents in the arena
        // (mk allocates bottom-up), so one forward pass remaps everything.
        let mut remap = vec![NO_NODE; before];
        let fix = |r: NodeRef, remap: &[u32]| {
            if r.is_term() {
                r
            } else {
                NodeRef(remap[r.index()])
            }
        };
        let mut kept = Vec::with_capacity(count);
        for (i, n) in self.nodes.iter().enumerate() {
            if live[i / 64] >> (i % 64) & 1 == 0 {
                continue;
            }
            remap[i] = kept.len() as u32;
            kept.push(Node {
                var: n.var,
                lo: fix(n.lo, &remap),
                hi: fix(n.hi, &remap),
            });
        }
        self.nodes = kept;
        self.cache.clear();
        self.size_tables();
        for r in roots.iter_mut() {
            *r = fix(*r, &remap);
        }
        let collected = before - self.nodes.len();
        mapro_obs::counter!("dd.gc.collected").add(collected as u64);
        self.publish();
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const W: u32 = 8;

    /// Truth table of a boolean BDD over variables 0..W.
    fn table(m: &Mgr, f: NodeRef) -> Vec<bool> {
        (0..1u32 << W)
            .map(|x| m.eval(f, |v| (x >> (W - 1 - v)) & 1 == 1) == 1)
            .collect()
    }

    /// A random boolean function as a union of random cubes.
    fn random_fn(m: &mut Mgr, rng: &mut SmallRng) -> NodeRef {
        let mut acc = NodeRef::FALSE;
        for _ in 0..rng.gen_range(1..5) {
            let mut lits: Vec<(u32, bool)> = Vec::new();
            for v in 0..W {
                if rng.gen_bool(0.4) {
                    lits.push((v, rng.gen_bool(0.5)));
                }
            }
            let c = m.cube(&lits).unwrap();
            acc = m.or(acc, c).unwrap();
        }
        acc
    }

    #[test]
    fn hash_consing_gives_pointer_equality() {
        let mut m = Mgr::new();
        let a = m.cube(&[(0, true), (3, false)]).unwrap();
        let b1 = m.var(0).unwrap();
        let b2 = m.var(3).unwrap();
        let n2 = m.not(b2).unwrap();
        let b = m.and(b1, n2).unwrap();
        assert_eq!(a, b, "structurally equal builds intern to one node");
    }

    #[test]
    fn apply_ops_match_enumeration() {
        let mut rng = SmallRng::seed_from_u64(2019);
        let mut m = Mgr::new();
        for _ in 0..60 {
            let a = random_fn(&mut m, &mut rng);
            let b = random_fn(&mut m, &mut rng);
            let ta = table(&m, a);
            let tb = table(&m, b);
            let and = m.and(a, b).unwrap();
            let or = m.or(a, b).unwrap();
            let diff = m.diff(a, b).unwrap();
            let not = m.not(a).unwrap();
            assert_eq!(
                table(&m, and),
                ta.iter()
                    .zip(&tb)
                    .map(|(&x, &y)| x && y)
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                table(&m, or),
                ta.iter()
                    .zip(&tb)
                    .map(|(&x, &y)| x || y)
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                table(&m, diff),
                ta.iter()
                    .zip(&tb)
                    .map(|(&x, &y)| x && !y)
                    .collect::<Vec<_>>()
            );
            assert_eq!(table(&m, not), ta.iter().map(|&x| !x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn semantic_equality_is_ref_equality() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut m = Mgr::new();
        for _ in 0..40 {
            let a = random_fn(&mut m, &mut rng);
            let b = random_fn(&mut m, &mut rng);
            // De Morgan: ¬(a ∨ b) == ¬a ∧ ¬b, as refs.
            let or = m.or(a, b).unwrap();
            let lhs = m.not(or).unwrap();
            let na = m.not(a).unwrap();
            let nb = m.not(b).unwrap();
            let rhs = m.and(na, nb).unwrap();
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn ite_builds_mtbdds() {
        let mut m = Mgr::new();
        let guard = m.cube(&[(0, true)]).unwrap();
        let t5 = NodeRef::term(5);
        let t9 = NodeRef::term(9);
        let f = m.ite(guard, t5, t9).unwrap();
        assert_eq!(m.eval(f, |_| true), 5);
        assert_eq!(m.eval(f, |_| false), 9);
        // Same-terminal branches collapse.
        let g = m.ite(guard, t5, t5).unwrap();
        assert_eq!(g, t5);
    }

    #[test]
    fn cofactor_matches_enumeration() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut m = Mgr::new();
        for _ in 0..40 {
            let a = random_fn(&mut m, &mut rng);
            let v = rng.gen_range(0..W);
            let val = rng.gen_bool(0.5);
            let c = m.cofactor(a, v, val).unwrap();
            for x in 0..1u32 << W {
                let pinned = if val {
                    x | (1 << (W - 1 - v))
                } else {
                    x & !(1 << (W - 1 - v))
                };
                assert_eq!(
                    m.eval(c, |b| (x >> (W - 1 - b)) & 1 == 1),
                    m.eval(a, |b| (pinned >> (W - 1 - b)) & 1 == 1),
                );
            }
        }
    }

    #[test]
    fn first_sat_is_a_member_preferring_zero() {
        let mut m = Mgr::new();
        assert_eq!(m.first_sat(NodeRef::FALSE), None);
        assert_eq!(m.first_sat(NodeRef::TRUE), Some(vec![]));
        let c = m.cube(&[(1, true), (4, false)]).unwrap();
        let v2 = m.var(2).unwrap();
        let f = m.or(c, v2).unwrap();
        let path = m.first_sat(f).unwrap();
        // The 0-preferring walk lands in the var-2 branch with 1 pinned 0.
        let mut assign = [false; W as usize];
        for &(v, b) in &path {
            assign[v as usize] = b;
        }
        assert_eq!(m.eval(f, |v| assign[v as usize]), 1);
    }

    #[test]
    fn first_diff_finds_a_disagreement_or_proves_equality() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut m = Mgr::new();
        for _ in 0..60 {
            let a = random_fn(&mut m, &mut rng);
            let b = random_fn(&mut m, &mut rng);
            match m.first_diff(a, b) {
                None => assert_eq!(a, b, "None is a proof of equality"),
                Some(path) => {
                    let mut assign = [false; W as usize];
                    for &(v, val) in &path {
                        assign[v as usize] = val;
                    }
                    assert_ne!(
                        m.eval(a, |v| assign[v as usize]),
                        m.eval(b, |v| assign[v as usize]),
                        "returned path must witness the difference"
                    );
                }
            }
        }
    }

    #[test]
    fn node_limit_overflows_recoverably() {
        let mut m = Mgr::with_limit(4);
        let mut acc = NodeRef::FALSE;
        let mut overflowed = false;
        for v in 0..8 {
            let Ok(x) = m.var(v) else {
                overflowed = true;
                break;
            };
            match m.and(x, acc) {
                Ok(_) => {}
                Err(Overflow { limit }) => {
                    assert_eq!(limit, 4);
                    overflowed = true;
                    break;
                }
            }
            acc = x;
        }
        assert!(overflowed, "4-node arena cannot hold 8 variables");
    }

    /// A deterministic workload far past the smallest tables: unions of
    /// random cubes over 20 variables, combined by every memoized
    /// operation. Returns every result in order, or the first overflow.
    fn exercise(m: &mut Mgr, seed: u64, rounds: usize) -> Result<Vec<NodeRef>, Overflow> {
        const WIDE: u32 = 20;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut pool: Vec<NodeRef> = Vec::new(); // boolean results only
        for _ in 0..rounds {
            let mut f = NodeRef::FALSE;
            for _ in 0..rng.gen_range(1..6) {
                let mut lits: Vec<(u32, bool)> = Vec::new();
                for v in 0..WIDE {
                    if rng.gen_bool(0.3) {
                        lits.push((v, rng.gen_bool(0.5)));
                    }
                }
                let c = m.cube(&lits)?;
                f = m.or(f, c)?;
            }
            pool.push(f);
            out.push(f);
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let r = match rng.gen_range(0..5u8) {
                0 => m.and(a, b)?,
                1 => m.or(a, b)?,
                2 => m.diff(a, b)?,
                3 => m.cofactor(a, rng.gen_range(0..WIDE), rng.gen_bool(0.5))?,
                _ => {
                    let label = NodeRef::term(rng.gen_range(2..9));
                    let g = m.ite(a, label, NodeRef::term(9))?;
                    out.push(m.ite(b, NodeRef::term(2), g)?);
                    m.not(a)?
                }
            };
            pool.push(r);
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn canonicity_survives_a_thrashed_cache() {
        let mut roomy = Mgr::new();
        let mut tight = Mgr::thrashing();
        let want = exercise(&mut roomy, 23, 300).unwrap();
        let got = exercise(&mut tight, 23, 300).unwrap();
        assert_eq!(got, want, "op for op the same refs");
        assert_eq!(
            tight.stats().nodes,
            roomy.stats().nodes,
            "and the same arena"
        );
        assert_eq!(tight.cache.len(), MIN_UNIQUE / CACHE_SHARE);
        assert!(
            roomy.cache.len() >= 8 * tight.cache.len(),
            "the default grew"
        );
        assert!(
            tight.stats().memo_misses > roomy.stats().memo_misses,
            "the pinned cache forgot: {:?} vs {:?}",
            tight.stats(),
            roomy.stats()
        );
    }

    #[test]
    fn unique_table_survives_growth_gc_and_regrowth() {
        let mut m = Mgr::new();
        let first = exercise(&mut m, 29, 300).unwrap();
        assert!(m.unique.len() >= MIN_UNIQUE << 3, "three growths or more");
        assert!(2 * m.len() <= m.unique.len(), "at most half full");
        // Every node is findable: the same work again allocates nothing.
        let nodes = m.stats().nodes;
        assert_eq!(exercise(&mut m, 29, 300).unwrap(), first);
        assert_eq!(m.stats().nodes, nodes);

        // Keep a few results; the tables follow the arena down…
        let probe = |m: &Mgr, f: NodeRef| -> Vec<u32> {
            let mut rng = SmallRng::seed_from_u64(31);
            (0..200)
                .map(|_| {
                    let x: u32 = rng.gen();
                    m.eval(f, |v| x >> v & 1 == 1)
                })
                .collect()
        };
        let mut roots: Vec<NodeRef> = first.iter().rev().step_by(97).copied().collect();
        let values: Vec<Vec<u32>> = roots.iter().map(|&r| probe(&m, r)).collect();
        let grown = m.unique.len();
        assert!(m.gc(&mut roots) > 0);
        assert!(m.unique.len() < grown && m.cache.len() < grown / CACHE_SHARE);
        assert_eq!(m.node_count(&roots), m.len(), "arena is the live set");
        for (r, v) in roots.iter().zip(&values) {
            assert_eq!(&probe(&m, *r), v, "roots survive semantically");
        }
        // …and back up, still canonical.
        let shrunk = m.unique.len();
        let again = exercise(&mut m, 37, 300).unwrap();
        assert!(m.unique.len() > shrunk, "regrown");
        let nodes = m.stats().nodes;
        assert_eq!(exercise(&mut m, 37, 300).unwrap(), again);
        assert_eq!(m.stats().nodes, nodes);
    }

    #[test]
    fn overflow_is_raised_at_exactly_the_limit_and_is_recoverable() {
        // A limit two table growths in, not on a growth boundary.
        const LIMIT: usize = 10_000;
        let mut m = Mgr::with_limit(LIMIT);
        let x0 = m.var(0).unwrap();
        let x1 = m.var(1).unwrap();
        let both = m.and(x0, x1).unwrap();
        assert_eq!(exercise(&mut m, 41, 300), Err(Overflow { limit: LIMIT }));
        assert_eq!(m.len(), LIMIT, "not one node early, not one late");
        // What exists is still found, through the cache or without it…
        assert_eq!(m.var(0), Ok(x0));
        assert_eq!(m.and(x0, x1), Ok(both));
        assert_eq!(m.cube(&[(0, true), (1, true)]), Ok(both));
        // …what does not still cannot be made, until a collection.
        assert_eq!(
            m.var(19).and_then(|v| m.and(v, both)),
            Err(Overflow { limit: LIMIT })
        );
        let mut roots = [both];
        m.gc(&mut roots);
        let v = m.var(19).unwrap();
        assert!(m.and(v, roots[0]).is_ok());
    }

    #[test]
    fn tallies_repeat_exactly_run_to_run() {
        let run = || {
            let mut m = Mgr::new();
            exercise(&mut m, 43, 200).unwrap();
            m.stats()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.memo_hits > 0 && a.memo_misses > 0 && a.unique_hits > 0);
    }

    #[test]
    fn gc_preserves_roots_and_collects_garbage() {
        let mut m = Mgr::new();
        let mut rng = SmallRng::seed_from_u64(17);
        let keep = random_fn(&mut m, &mut rng);
        let keep_table = table(&m, keep);
        for _ in 0..20 {
            let _ = random_fn(&mut m, &mut rng); // garbage
        }
        let before = m.len();
        let mut roots = [keep];
        let collected = m.gc(&mut roots);
        assert!(collected > 0, "garbage was allocated");
        assert_eq!(m.len(), before - collected);
        assert_eq!(
            table(&m, roots[0]),
            keep_table,
            "root survives semantically"
        );
        assert_eq!(
            m.node_count(&[roots[0]]),
            m.len(),
            "arena is exactly the live set"
        );
        // The manager stays usable: hash-consing still canonical.
        let a = m.not(roots[0]).unwrap();
        let b = m.not(roots[0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn node_count_shares_common_structure() {
        let mut m = Mgr::new();
        let a = m.cube(&[(0, true), (1, true)]).unwrap();
        let b = m.cube(&[(1, true)]).unwrap();
        // b is a's subgraph: counting both adds only a's extra root node.
        assert_eq!(m.node_count(&[a, b]), m.node_count(&[a]));
    }
}
