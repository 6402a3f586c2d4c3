//! The shared ternary-cube algebra.
//!
//! One column of a cube is a canonical ternary predicate `(bits, mask)`
//! (see `Value::as_ternary`); a [`Cube`] conjoins one per column and
//! denotes a set of packets. The algebra provides exactly the operations
//! the symbolic layers need:
//!
//! * intersection — a cube (or empty), computed per column;
//! * subsumption — per-column mask containment;
//! * subtraction — `a ∖ b` as a list of *pairwise disjoint* cubes, by the
//!   classic recursive split along `b`'s care bits that `a` leaves free;
//! * union cover ([`covered_by`]) — the budgeted recursive check the
//!   shadowed-/dead-entry lints are built on;
//! * representative extraction — one concrete packet per cube, with every
//!   free bit pinned to zero, for byte-stable counterexample reporting.
//!
//! This module began life as `mapro_lint::cover` and was promoted here so
//! the behavior-cover compiler ([`crate::compile`]), the equivalence
//! front door ([`crate::check`]), and the linter share one implementation;
//! `mapro_lint::cover` now re-exports it.

use mapro_core::Value;

/// One column of a cube: matches `v` iff `v & mask == bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tern {
    /// Cared-for bit values (always a subset of `mask`).
    pub bits: u64,
    /// Care mask, trimmed to the column width.
    pub mask: u64,
}

impl Tern {
    /// The wildcard column: matches every value.
    pub const ANY: Tern = Tern { bits: 0, mask: 0 };

    /// An exact-match column for a concrete value.
    #[inline]
    pub fn exact(v: u64, width_mask: u64) -> Tern {
        Tern {
            bits: v & width_mask,
            mask: width_mask,
        }
    }

    /// Does this column predicate match the concrete value `v`?
    #[inline]
    pub fn matches(self, v: u64) -> bool {
        (v ^ self.bits) & self.mask == 0
    }

    /// Per-column intersection; `None` when the two disagree on a shared
    /// care bit (empty intersection).
    #[inline]
    pub fn intersect(self, other: Tern) -> Option<Tern> {
        if (self.bits ^ other.bits) & self.mask & other.mask != 0 {
            return None;
        }
        Some(Tern {
            bits: self.bits | (other.bits & !self.mask),
            mask: self.mask | other.mask,
        })
    }
}

/// A conjunction of per-column ternary predicates — the packet set of one
/// entry. `None` cells (symbolic "predicates", which match nothing) make
/// the whole cube unsatisfiable; such entries are reported separately and
/// never enter the cover computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube(pub Vec<Tern>);

impl Cube {
    /// Build from an entry's match cells; `None` when any cell is
    /// unsatisfiable (a symbolic value in a match column).
    pub fn of(matches: &[Value], widths: &[u32]) -> Option<Cube> {
        debug_assert_eq!(matches.len(), widths.len());
        matches
            .iter()
            .zip(widths)
            .map(|(v, &w)| v.as_ternary(w).map(|(bits, mask)| Tern { bits, mask }))
            .collect::<Option<Vec<_>>>()
            .map(Cube)
    }

    /// The all-wildcard cube over `n` columns (the universe).
    pub fn any(n: usize) -> Cube {
        Cube(vec![Tern::ANY; n])
    }

    /// Does every packet in `other` also lie in `self`?
    pub fn subsumes(&self, other: &Cube) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(a, b)| a.mask & b.mask == a.mask && (a.bits ^ b.bits) & a.mask == 0)
    }

    /// Do the two cubes share a packet? (Per-column ternary overlap.)
    pub fn intersects(&self, other: &Cube) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(a, b)| (a.bits ^ b.bits) & a.mask & b.mask == 0)
    }

    /// Cube intersection; `None` when empty.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| a.intersect(b))
            .collect::<Option<Vec<_>>>()
            .map(Cube)
    }

    /// `self ∖ other` as pairwise disjoint cubes whose union is exactly
    /// the difference.
    ///
    /// One residue cube per care bit of `other` that `self` leaves free:
    /// the cube for bit `k` pins previously processed bits to agree with
    /// `other` and bit `k` to differ — the same split [`covered_by`] uses,
    /// materialized instead of recursed on. At most `64 × columns` cubes.
    pub fn subtract(&self, other: &Cube) -> Vec<Cube> {
        let mut out = Vec::new();
        self.subtract_into(other, &mut out);
        out
    }

    /// [`Cube::subtract`] appending into a caller-owned buffer, reserving
    /// the exact residue count up front (one cube per care bit of `other`
    /// that `self` leaves free). Hot loops — the table-partition sweep —
    /// reuse one scratch `Vec` across the whole entry list instead of
    /// allocating a fresh result per split.
    pub fn subtract_into(&self, other: &Cube, out: &mut Vec<Cube>) {
        if !self.intersects(other) {
            out.push(self.clone());
            return;
        }
        if other.subsumes(self) {
            return;
        }
        let residues: u32 = self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (b.mask & !a.mask).count_ones())
            .sum();
        out.reserve(residues as usize);
        let before = out.len();
        let mut pinned = self.clone();
        for col in 0..self.0.len() {
            let free = other.0[col].mask & !self.0[col].mask;
            let mut rest = free;
            while rest != 0 {
                let k = rest & rest.wrapping_neg(); // lowest set bit
                rest &= rest - 1;
                let mut sub = pinned.clone();
                sub.0[col].mask |= k;
                sub.0[col].bits = (sub.0[col].bits & !k) | (!other.0[col].bits & k);
                out.push(sub);
                pinned.0[col].mask |= k;
                pinned.0[col].bits = (pinned.0[col].bits & !k) | (other.0[col].bits & k);
            }
        }
        debug_assert!(
            out.len() > before,
            "non-subsumed intersection leaves residue"
        );
    }

    /// One concrete member per column: the cared bits, with every free bit
    /// zero. Deterministic, so counterexample packets are byte-stable.
    pub fn representative(&self) -> Vec<u64> {
        self.0.iter().map(|t| t.bits).collect()
    }

    /// Does the concrete point `key` (one value per column) lie in this
    /// cube?
    #[inline]
    pub fn contains(&self, key: &[u64]) -> bool {
        debug_assert_eq!(self.0.len(), key.len());
        self.0.iter().zip(key).all(|(t, &v)| t.matches(v))
    }
}

/// Is `cube` entirely covered by the union of `cover`?
///
/// Exact when it answers: `Some(true)` / `Some(false)` are proofs. `None`
/// means the recursive split exceeded `budget` steps and the question is
/// left open (callers must treat it as "not covered" to stay sound).
pub fn covered_by(cube: &Cube, cover: &[&Cube], budget: &mut usize) -> Option<bool> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    // Find an earlier cube that intersects; if none, some packet of `cube`
    // escapes every cover cube.
    let Some(c) = cover.iter().find(|c| c.intersects(cube)) else {
        return Some(false);
    };
    if c.subsumes(cube) {
        return Some(true);
    }
    // `c` intersects but does not contain `cube`: split `cube ∖ c` into
    // disjoint subcubes (one per care bit of `c` that `cube` leaves free)
    // and require each to be covered. The subcube for bit `k` pins bits
    // k+1.. (in iteration order) to agree with `c` and bit `k` to differ,
    // which makes the subcubes pairwise disjoint and their union exactly
    // `cube ∖ c`.
    let mut pinned = cube.clone();
    for col in 0..cube.0.len() {
        let free = c.0[col].mask & !cube.0[col].mask;
        let mut rest = free;
        while rest != 0 {
            let k = rest & rest.wrapping_neg(); // lowest set bit
            rest &= rest - 1;
            let mut sub = pinned.clone();
            sub.0[col].mask |= k;
            sub.0[col].bits = (sub.0[col].bits & !k) | (!c.0[col].bits & k);
            match covered_by(&sub, cover, budget) {
                Some(true) => {}
                other => return other,
            }
            // Pin this bit to agree with `c` for the remaining subcubes.
            pinned.0[col].mask |= k;
            pinned.0[col].bits = (pinned.0[col].bits & !k) | (c.0[col].bits & k);
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(cells: &[(u64, u64)]) -> Cube {
        Cube(
            cells
                .iter()
                .map(|&(bits, mask)| Tern { bits, mask })
                .collect(),
        )
    }

    #[test]
    fn subsumption_per_column() {
        let wide = cube(&[(0, 0), (5, 0xff)]);
        let narrow = cube(&[(3, 0xff), (5, 0xff)]);
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
    }

    #[test]
    fn intersection_is_conjunction() {
        let a = cube(&[(0b1000, 0b1000), (0, 0)]);
        let b = cube(&[(0, 0b0001), (7, 0xf)]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, cube(&[(0b1000, 0b1001), (7, 0xf)]));
        // Disjoint on a shared care bit.
        let c = cube(&[(0, 0b1000), (0, 0)]);
        assert_eq!(a.intersect(&c), None);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn union_cover_found() {
        // 0* ∪ 1* covers * on one 4-bit column.
        let all = cube(&[(0, 0)]);
        let lo = cube(&[(0, 0b1000)]);
        let hi = cube(&[(0b1000, 0b1000)]);
        let mut budget = 1000;
        assert_eq!(covered_by(&all, &[&lo, &hi], &mut budget), Some(true));
        let mut budget = 1000;
        assert_eq!(covered_by(&all, &[&lo], &mut budget), Some(false));
    }

    #[test]
    fn union_cover_multi_column() {
        // Column 0 split across two cubes that each pin column 1 = 7:
        // together they cover (any, 7) but not (any, any).
        let lo = cube(&[(0, 0b1000), (7, 0xf)]);
        let hi = cube(&[(0b1000, 0b1000), (7, 0xf)]);
        let target = cube(&[(0, 0), (7, 0xf)]);
        let mut budget = 1000;
        assert_eq!(covered_by(&target, &[&lo, &hi], &mut budget), Some(true));
        let wider = cube(&[(0, 0), (0, 0)]);
        let mut budget = 1000;
        assert_eq!(covered_by(&wider, &[&lo, &hi], &mut budget), Some(false));
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        let all = cube(&[(0, 0)]);
        let lo = cube(&[(0, 0b1000)]);
        let hi = cube(&[(0b1000, 0b1000)]);
        let mut budget = 1;
        assert_eq!(covered_by(&all, &[&lo, &hi], &mut budget), None);
    }

    /// Brute-force oracle on a single small column.
    #[test]
    fn covered_by_matches_enumeration() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let w = 6u32;
        let full = (1u64 << w) - 1;
        let mut rng = SmallRng::seed_from_u64(2019);
        for _ in 0..200 {
            let t: Vec<Tern> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let mask = rng.gen_range(0..=full);
                    Tern {
                        bits: rng.gen_range(0..=full) & mask,
                        mask,
                    }
                })
                .collect();
            let cm = rng.gen_range(0..=full);
            let c = cube(&[(rng.gen_range(0..=full) & cm, cm)]);
            let covers: Vec<Cube> = t.iter().map(|&x| Cube(vec![x])).collect();
            let refs: Vec<&Cube> = covers.iter().collect();
            let expect = (0..=full)
                .filter(|&v| v & c.0[0].mask == c.0[0].bits)
                .all(|v| t.iter().any(|x| v & x.mask == x.bits));
            let mut budget = 100_000;
            assert_eq!(
                covered_by(&c, &refs, &mut budget),
                Some(expect),
                "{c:?} vs {t:?}"
            );
        }
    }

    /// Subtraction oracle: `a ∖ b` enumerated bit-for-bit on two small
    /// columns — the result must be disjoint and union to the difference.
    #[test]
    fn subtract_matches_enumeration() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let w = 4u32;
        let full = (1u64 << w) - 1;
        let mut rng = SmallRng::seed_from_u64(1907);
        let member = |c: &Cube, x: u64, y: u64| c.0[0].matches(x) && c.0[1].matches(y);
        for _ in 0..300 {
            let mut rnd = || {
                let mask = rng.gen_range(0..=full);
                let bits = rng.gen_range(0..=full) & mask;
                Tern { bits, mask }
            };
            let a = Cube(vec![rnd(), rnd()]);
            let b = Cube(vec![rnd(), rnd()]);
            let parts = a.subtract(&b);
            for x in 0..=full {
                for y in 0..=full {
                    let inside = parts.iter().filter(|p| member(p, x, y)).count();
                    let expect = usize::from(member(&a, x, y) && !member(&b, x, y));
                    assert_eq!(inside, expect, "a={a:?} b={b:?} at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn representative_is_a_member_with_free_bits_zero() {
        let c = cube(&[(0b1010, 0b1110), (0, 0)]);
        let r = c.representative();
        assert_eq!(r, vec![0b1010, 0]);
        assert!(c.0[0].matches(r[0]) && c.0[1].matches(r[1]));
    }
}
