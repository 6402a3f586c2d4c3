//! Functional dependencies, closure, implication, covers and keys.
//!
//! §3 of the paper lifts these notions verbatim from relational theory: a
//! set of attributes `X` *functionally determines* `Y` (written `X → Y`) in
//! a table `T` if each `X` value is associated with exactly one `Y` value;
//! a *superkey* uniquely identifies entries; a *key* is a minimal superkey;
//! a *non-prime* attribute appears in no key. Crucially, attributes include
//! actions, so keys like `(out)` in Fig. 1a are first-class here.

use crate::set::{AttrSet, Universe};
use mapro_core::AttrId;
use std::fmt;

/// A functional dependency `lhs → rhs` over a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Determinant.
    pub lhs: AttrSet,
    /// Dependent attributes.
    pub rhs: AttrSet,
}

impl Fd {
    /// Construct `lhs → rhs`.
    pub fn new(lhs: AttrSet, rhs: AttrSet) -> Self {
        Fd { lhs, rhs }
    }

    /// A dependency is trivial iff `rhs ⊆ lhs`.
    pub(crate) fn is_trivial(self) -> bool {
        self.rhs.subset_of(self.lhs)
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.lhs, self.rhs)
    }
}

/// A set of functional dependencies over a shared universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdSet {
    /// The attribute universe the masks refer to.
    pub universe: Universe,
    fds: Vec<Fd>,
}

impl FdSet {
    /// An empty dependency set.
    pub fn new(universe: Universe) -> Self {
        FdSet {
            universe,
            fds: Vec::new(),
        }
    }

    /// Add a dependency (by masks).
    pub(crate) fn add(&mut self, fd: Fd) {
        if !self.fds.contains(&fd) {
            self.fds.push(fd);
        }
    }

    /// Add a dependency by attribute ids.
    pub fn add_ids(&mut self, lhs: &[AttrId], rhs: &[AttrId]) {
        let fd = Fd::new(self.universe.encode(lhs), self.universe.encode(rhs));
        self.add(fd);
    }

    /// The dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True if no dependencies are recorded.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Attribute-set closure `X⁺` under this dependency set (Armstrong's
    /// axioms): the largest set functionally determined by `X`.
    pub fn closure(&self, x: AttrSet) -> AttrSet {
        let mut c = x;
        loop {
            let before = c;
            for fd in &self.fds {
                if fd.lhs.subset_of(c) {
                    c = c.union(fd.rhs);
                }
            }
            if c == before {
                return c;
            }
        }
    }

    /// Does this set imply `fd` (i.e. `fd.rhs ⊆ closure(fd.lhs)`)?
    pub fn implies(&self, fd: Fd) -> bool {
        fd.rhs.subset_of(self.closure(fd.lhs))
    }

    /// Is `x` a superkey (determines every attribute)?
    pub(crate) fn is_superkey(&self, x: AttrSet) -> bool {
        self.closure(x) == self.universe.full()
    }

    /// All candidate keys: minimal superkeys, in ascending mask order.
    ///
    /// Breadth-first over subset size with dominance pruning; exact for the
    /// table-sized universes (≤ ~20 attributes) normalization works with.
    #[allow(clippy::needless_range_loop)] // parallel index into size buckets
    pub fn candidate_keys(&self) -> Vec<AttrSet> {
        let n = self.universe.len();
        let full = self.universe.full();
        if n == 0 {
            return vec![AttrSet::EMPTY];
        }
        // Attributes never appearing on any RHS must be in every key; start
        // the search from that core to prune hard.
        let mut rhs_union = AttrSet::EMPTY;
        for fd in &self.fds {
            rhs_union = rhs_union.union(fd.rhs.minus(fd.lhs));
        }
        let core = full.minus(rhs_union);

        let mut keys: Vec<AttrSet> = Vec::new();
        // Enumerate candidate masks of increasing size containing `core`.
        let optional: Vec<usize> = full.minus(core).iter().collect();
        let m = optional.len();
        // Subset masks of the optional attributes, ordered by popcount.
        let mut by_size: Vec<Vec<u64>> = vec![Vec::new(); m + 1];
        for mask in 0..(1u64 << m) {
            by_size[mask.count_ones() as usize].push(mask);
        }
        for size in 0..=m {
            for &mask in &by_size[size] {
                let mut cand = core;
                for (i, &pos) in optional.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        cand = cand.with(pos);
                    }
                }
                if keys.iter().any(|&k| k.subset_of(cand)) {
                    continue; // superset of a known key: not minimal
                }
                if self.is_superkey(cand) {
                    keys.push(cand);
                }
            }
        }
        keys.sort();
        keys
    }

    /// Project this dependency set onto an attribute subset: all FDs
    /// `X → Y` with `X, Y ⊆ attrs` implied by the set (computed via
    /// closures of subsets of `attrs`; exponential in `|attrs|`, which is
    /// table-sized here).
    ///
    /// This is the π_R(F) of decomposition theory: a decomposition into
    /// stages `R₁…Rₖ` is *dependency-preserving* iff `⋃ π_{Rᵢ}(F)` implies
    /// `F` — see [`FdSet::preserved_by`].
    pub(crate) fn project_onto(&self, attrs: &[mapro_core::AttrId]) -> FdSet {
        let positions: Vec<usize> = attrs
            .iter()
            .filter_map(|a| self.universe.position(*a))
            .collect();
        assert!(positions.len() <= 24, "projection target too wide");
        let mut out = FdSet::new(self.universe.clone());
        let m = positions.len();
        let mask_of = |bits: u64| -> AttrSet {
            let mut s = AttrSet::EMPTY;
            for (i, &p) in positions.iter().enumerate() {
                if bits & (1 << i) != 0 {
                    s = s.with(p);
                }
            }
            s
        };
        let target = mask_of((1u64 << m) - 1);
        for bits in 0..(1u64 << m) {
            let x = mask_of(bits);
            let rhs = self.closure(x).inter(target).minus(x);
            if !rhs.is_empty() {
                out.add(Fd::new(x, rhs));
            }
        }
        out
    }

    /// Is this dependency set preserved by a decomposition into the given
    /// stage attribute sets? (The union of stage projections must imply
    /// every original dependency.)
    pub fn preserved_by(&self, stages: &[Vec<mapro_core::AttrId>]) -> bool {
        let mut union = FdSet::new(self.universe.clone());
        for stage in stages {
            for fd in self.project_onto(stage).fds() {
                union.add(*fd);
            }
        }
        self.fds().iter().all(|&fd| union.implies(fd))
    }

    /// Render a dependency with attribute names supplied by `name`.
    pub fn display_fd(&self, fd: Fd, name: impl Fn(AttrId) -> String) -> String {
        let side = |s: AttrSet| {
            self.universe
                .decode(s)
                .into_iter()
                .map(&name)
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!("({}) -> ({})", side(fd.lhs), side(fd.rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<AttrId> {
        (0..n).map(AttrId).collect()
    }

    /// Textbook schema R(A,B,C,D) with A→B, B→C.
    fn abcd() -> FdSet {
        let u = Universe::new(ids(4));
        let mut s = FdSet::new(u);
        s.add_ids(&[AttrId(0)], &[AttrId(1)]);
        s.add_ids(&[AttrId(1)], &[AttrId(2)]);
        s
    }

    #[test]
    fn closure_transitivity() {
        let s = abcd();
        let a = s.universe.encode(&[AttrId(0)]);
        // A⁺ = {A,B,C}
        assert_eq!(s.closure(a), AttrSet(0b0111));
        let d = s.universe.encode(&[AttrId(3)]);
        assert_eq!(s.closure(d), d);
    }

    #[test]
    fn implication() {
        let s = abcd();
        let fd = Fd::new(AttrSet(0b0001), AttrSet(0b0100)); // A→C
        assert!(s.implies(fd));
        let fd = Fd::new(AttrSet(0b0010), AttrSet(0b0001)); // B→A
        assert!(!s.implies(fd));
    }

    #[test]
    fn candidate_keys_simple() {
        let s = abcd();
        // Key must contain A (nothing determines it) and D: key = {A,D}.
        assert_eq!(s.candidate_keys(), vec![AttrSet(0b1001)]);
    }

    #[test]
    fn multiple_candidate_keys() {
        // R(A,B) with A→B and B→A: keys {A} and {B}.
        let u = Universe::new(ids(2));
        let mut s = FdSet::new(u);
        s.add_ids(&[AttrId(0)], &[AttrId(1)]);
        s.add_ids(&[AttrId(1)], &[AttrId(0)]);
        assert_eq!(s.candidate_keys(), vec![AttrSet(0b01), AttrSet(0b10)]);
    }

    #[test]
    fn no_fds_key_is_everything() {
        let u = Universe::new(ids(3));
        let s = FdSet::new(u);
        assert_eq!(s.candidate_keys(), vec![AttrSet(0b111)]);
    }

    #[test]
    fn trivial_fd_detection() {
        assert!(Fd::new(AttrSet(0b11), AttrSet(0b01)).is_trivial());
        assert!(!Fd::new(AttrSet(0b01), AttrSet(0b10)).is_trivial());
    }

    #[test]
    fn superkey_check() {
        let s = abcd();
        assert!(s.is_superkey(AttrSet(0b1111)));
        assert!(s.is_superkey(AttrSet(0b1001)));
        assert!(!s.is_superkey(AttrSet(0b0001)));
    }

    #[test]
    fn projection_keeps_implied_dependencies() {
        // A→B, B→C projected onto {A, C} yields A→C.
        let s = abcd();
        let attrs: Vec<_> = [0u32, 2].iter().map(|&i| AttrId(i)).collect();
        let p = s.project_onto(&attrs);
        assert!(p.implies(Fd::new(AttrSet(0b001), AttrSet(0b100))));
        assert!(!p.implies(Fd::new(AttrSet(0b001), AttrSet(0b010))));
    }

    #[test]
    fn dependency_preservation_textbook_cases() {
        // R(A,B,C), A→B, B→C. Split {A,B},{B,C}: preserving.
        let s = abcd(); // universe has D too; restrict stages to cover it
        let a = AttrId(0);
        let b = AttrId(1);
        let c = AttrId(2);
        let d = AttrId(3);
        assert!(s.preserved_by(&[vec![a, b], vec![b, c], vec![a, d]]));
        // Split {A,B},{A,C}: loses B→C.
        assert!(!s.preserved_by(&[vec![a, b], vec![a, c], vec![a, d]]));
    }

    #[test]
    fn display_fd_uses_names() {
        let s = abcd();
        let fd = Fd::new(AttrSet(0b01), AttrSet(0b10));
        let txt = s.display_fd(fd, |a| format!("x{}", a.0));
        assert_eq!(txt, "(x0) -> (x1)");
    }
}
