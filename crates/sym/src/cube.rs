//! The shared ternary-cube algebra.
//!
//! One column of a cube is a canonical ternary predicate `(bits, mask)`
//! (see `Value::as_ternary`); a [`Cube`] conjoins one per column and
//! denotes a set of packets. The algebra provides exactly the operations
//! the symbolic layers need:
//!
//! * overlap — whether two cubes share a packet, per column;
//! * subsumption — per-column mask containment.
//!
//! Union questions — is a row covered by the rows above it, what region
//! does a flow-mod dirty — are decided on decision diagrams
//! (`crate::ddcover`), never by splitting cubes. The diagram compiler,
//! the incremental sessions and the linter share this one implementation.

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
    pub(crate) const ANY: Tern = Tern { bits: 0, mask: 0 };

    /// Does this column predicate match the concrete value `v`?
    #[inline]
    pub(crate) fn matches(self, v: u64) -> bool {
        (v ^ self.bits) & self.mask == 0
    }

    /// Per-column intersection; `None` when the two disagree on a shared
    /// care bit (empty intersection).
    #[inline]
    pub(crate) fn intersect(self, other: Tern) -> Option<Tern> {
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
    pub(crate) fn any(n: usize) -> Cube {
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
    fn overlap_is_per_column() {
        let a = cube(&[(0b1000, 0b1000), (0, 0)]);
        let b = cube(&[(0, 0b0001), (7, 0xf)]);
        assert!(a.intersects(&b));
        // Disjoint on a shared care bit.
        let c = cube(&[(0, 0b1000), (0, 0)]);
        assert!(!a.intersects(&c));
    }
}
