//! # mapro-dd — hash-consed decision diagrams over header bits
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
//! the root. Callers fix the order (`mapro-sym` uses field-declaration
//! order, MSB first within a field). All shaping operations are memoized
//! in shared-node caches so repeated subproblems cost one hash lookup;
//! every allocation is bounded by a configurable node limit whose
//! exhaustion is the recoverable [`Overflow`] error, never an abort.
//!
//! Instrumented via `mapro-obs`: `dd.nodes` (fresh allocations),
//! `dd.unique.hits`, `dd.memo.hits` / `dd.memo.misses`, and
//! `dd.gc.collected` (nodes reclaimed by [`Mgr::gc`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply-rotate hasher for the unique table and the memo
/// maps, whose keys are three machine words minted by this program (node
/// ids, variables, an op tag), never outside input: SipHash's collision
/// resistance buys nothing there and costs a third of a full compile. The
/// derived `Hash` of the three key types only calls `write_u32` and (for
/// the `repr(u8)` op tag) `write_u8`; `write` is the trait's catch-all. This is a sibling of `mapro-switch`'s `KeyHasher`, kept
/// private here rather than shared: this crate depends on nothing but
/// `mapro-obs`, and the two crates have no common dependency a 15-line
/// hasher would justify adding.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the bits that pick a bucket.
        self.0 ^ (self.0 >> 32)
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

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

/// Binary apply operations, used as memo keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
enum Op {
    And,
    Or,
    Diff,
    Cofactor0,
    Cofactor1,
}

/// The decision-diagram manager: node arena, unique table, memo caches.
///
/// All diagrams of one comparison domain must live in one manager —
/// canonical equality only holds within it. The manager is deliberately
/// single-threaded (`&mut self` everywhere): determinism comes for free,
/// and the symbolic compiler parallelizes *across* checks, not within one.
pub struct Mgr {
    nodes: Vec<Node>,
    unique: WordMap<(u32, NodeRef, NodeRef), u32>,
    memo_bin: WordMap<(Op, NodeRef, NodeRef), NodeRef>,
    memo_ite: WordMap<(NodeRef, NodeRef, NodeRef), NodeRef>,
    max_nodes: usize,
}

impl Default for Mgr {
    fn default() -> Self {
        Mgr::new()
    }
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
        Mgr {
            nodes: Vec::new(),
            unique: WordMap::default(),
            memo_bin: WordMap::default(),
            memo_ite: WordMap::default(),
            max_nodes: max_nodes.min(TERM_BIT as usize - 1),
        }
    }

    /// Number of interior nodes currently in the arena (live + garbage).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no interior node has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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
        if let Some(&i) = self.unique.get(&(var, lo, hi)) {
            mapro_obs::counter!("dd.unique.hits").inc();
            return Ok(NodeRef(i));
        }
        if self.nodes.len() >= self.max_nodes {
            return Err(Overflow {
                limit: self.max_nodes,
            });
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), i);
        mapro_obs::counter!("dd.nodes").inc();
        Ok(NodeRef(i))
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
        // And/or are commutative: canonicalize the memo key so `a op b`
        // and `b op a` share one cache line.
        let key = match op {
            Op::And | Op::Or if b < a => (op, b, a),
            _ => (op, a, b),
        };
        if let Some(&r) = self.memo_bin.get(&key) {
            mapro_obs::counter!("dd.memo.hits").inc();
            return Ok(r);
        }
        mapro_obs::counter!("dd.memo.misses").inc();
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = if self.var_of(a) == v {
            let n = self.node(a);
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b0, b1) = if self.var_of(b) == v {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a0, b0)?;
        let hi = self.apply(op, a1, b1)?;
        let r = self.mk(v, lo, hi)?;
        self.memo_bin.insert(key, r);
        Ok(r)
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
        let key = (f, g, h);
        if let Some(&r) = self.memo_ite.get(&key) {
            mapro_obs::counter!("dd.memo.hits").inc();
            return Ok(r);
        }
        mapro_obs::counter!("dd.memo.misses").inc();
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let split = |s: &Self, x: NodeRef| {
            if s.var_of(x) == v {
                let n = s.node(x);
                (n.lo, n.hi)
            } else {
                (x, x)
            }
        };
        let (f0, f1) = split(self, f);
        let (g0, g1) = split(self, g);
        let (h0, h1) = split(self, h);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(v, lo, hi)?;
        self.memo_ite.insert(key, r);
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
        // The pinned variable rides in the memo key's second operand slot
        // as a terminal ref (terminals never appear there otherwise).
        let key = (op, f, NodeRef::term(var));
        if let Some(&r) = self.memo_bin.get(&key) {
            mapro_obs::counter!("dd.memo.hits").inc();
            return Ok(r);
        }
        mapro_obs::counter!("dd.memo.misses").inc();
        let n = self.node(f);
        let lo = self.cofactor(n.lo, var, val)?;
        let hi = self.cofactor(n.hi, var, val)?;
        let r = self.mk(n.var, lo, hi)?;
        self.memo_bin.insert(key, r);
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

    /// Count the distinct interior nodes reachable from `roots` (shared
    /// nodes counted once — the honest size of the shared structure).
    pub fn node_count(&self, roots: &[NodeRef]) -> usize {
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeRef> = roots.iter().copied().filter(|r| !r.is_term()).collect();
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            for c in [n.lo, n.hi] {
                if !c.is_term() && !seen.contains(&c) {
                    stack.push(c);
                }
            }
        }
        seen.len()
    }

    /// Mark-sweep garbage collection: keep exactly the nodes reachable
    /// from `roots`, compacting the arena in stable (allocation) order and
    /// rewriting `roots` in place. All memo caches are dropped (they may
    /// reference collected nodes). Returns the number of nodes collected.
    pub fn gc(&mut self, roots: &mut [NodeRef]) -> usize {
        let before = self.nodes.len();
        let mut live = vec![false; before];
        let mut stack: Vec<usize> = roots
            .iter()
            .filter(|r| !r.is_term())
            .map(|r| r.index())
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            let n = self.nodes[i];
            for c in [n.lo, n.hi] {
                if !c.is_term() && !live[c.index()] {
                    stack.push(c.index());
                }
            }
        }
        // Stable compaction: children always precede parents in the arena
        // (mk allocates bottom-up), so one forward pass remaps everything.
        let mut remap = vec![u32::MAX; before];
        let mut kept = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        for (i, n) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let fix = |r: NodeRef, remap: &[u32]| {
                if r.is_term() {
                    r
                } else {
                    NodeRef(remap[r.index()])
                }
            };
            let fixed = Node {
                var: n.var,
                lo: fix(n.lo, &remap),
                hi: fix(n.hi, &remap),
            };
            remap[i] = kept.len() as u32;
            kept.push(fixed);
        }
        self.nodes = kept;
        self.unique = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| ((n.var, n.lo, n.hi), i as u32))
            .collect();
        self.memo_bin.clear();
        self.memo_ite.clear();
        for r in roots.iter_mut() {
            if !r.is_term() {
                *r = NodeRef(remap[r.index()]);
            }
        }
        let collected = before - self.nodes.len();
        mapro_obs::counter!("dd.gc.collected").add(collected as u64);
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
