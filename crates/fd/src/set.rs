//! Attribute sets as bitmasks over a per-analysis universe.
//!
//! Catalog-global [`AttrId`]s are sparse; dependency analysis works over the
//! handful of attributes of one table. A [`Universe`] fixes an ordering of
//! those attributes and [`AttrSet`] packs subsets into a `u64` mask, giving
//! O(1) subset/union/closure steps in the lattice algorithms.

use mapro_core::AttrId;
use std::fmt;

/// The (≤ 64) attributes participating in one dependency analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Universe {
    attrs: Vec<AttrId>,
}

impl Universe {
    /// Build a universe from a table's attributes.
    ///
    /// # Panics
    /// Panics if more than 64 attributes are supplied or ids repeat.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        assert!(attrs.len() <= 64, "at most 64 attributes per analysis");
        for (i, a) in attrs.iter().enumerate() {
            assert!(
                !attrs[..i].contains(a),
                "duplicate attribute {a} in universe"
            );
        }
        Universe { attrs }
    }

    /// Number of attributes.
    pub(crate) fn len(&self) -> usize {
        self.attrs.len()
    }

    /// All attributes as a set.
    pub(crate) fn full(&self) -> AttrSet {
        if self.attrs.is_empty() {
            AttrSet(0)
        } else {
            AttrSet(u64::MAX >> (64 - self.attrs.len()))
        }
    }

    /// The position of `attr`, if it participates.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Encode a slice of attribute ids as a set.
    ///
    /// # Panics
    /// Panics if any id is outside the universe.
    pub fn encode(&self, attrs: &[AttrId]) -> AttrSet {
        let mut s = AttrSet(0);
        for &a in attrs {
            let p = self
                .position(a)
                .unwrap_or_else(|| panic!("attribute {a} outside analysis universe"));
            s.0 |= 1 << p;
        }
        s
    }

    /// Decode a set back into attribute ids, in universe order.
    pub fn decode(&self, s: AttrSet) -> Vec<AttrId> {
        s.iter().map(|p| self.attrs[p]).collect()
    }
}

/// A subset of a [`Universe`], packed as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(pub u64);

impl AttrSet {
    /// The empty set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// Singleton set of the attribute at `pos`.
    #[inline]
    pub(crate) fn single(pos: usize) -> AttrSet {
        AttrSet(1 << pos)
    }

    /// True if empty.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub(crate) fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub(crate) fn inter(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self ∖ other`.
    #[inline]
    pub fn minus(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & !other.0)
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub(crate) fn subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if `self ⊊ other`.
    #[inline]
    pub(crate) fn proper_subset_of(self, other: AttrSet) -> bool {
        self.subset_of(other) && self != other
    }

    /// Insert the attribute at `pos`.
    #[inline]
    pub(crate) fn with(self, pos: usize) -> AttrSet {
        AttrSet(self.0 | (1 << pos))
    }

    /// Iterate member positions in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(p)
            }
        })
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<AttrId> {
        (0..n).map(AttrId).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let u = Universe::new(ids(5));
        let s = u.encode(&[AttrId(1), AttrId(3)]);
        assert_eq!(u.decode(s), vec![AttrId(1), AttrId(3)]);
        assert_eq!(s, AttrSet(0b1010));
    }

    #[test]
    fn full_set() {
        let u = Universe::new(ids(3));
        assert_eq!(u.full(), AttrSet(0b111));
        let empty = Universe::new(vec![]);
        assert_eq!(empty.full(), AttrSet(0));
    }

    #[test]
    fn set_algebra() {
        let a = AttrSet(0b1010);
        let b = AttrSet(0b0110);
        assert_eq!(a.union(b), AttrSet(0b1110));
        assert_eq!(a.inter(b), AttrSet(0b0010));
        assert_eq!(a.minus(b), AttrSet(0b1000));
        assert!(AttrSet(0b0010).subset_of(a));
        assert!(AttrSet(0b0010).proper_subset_of(a));
        assert!(!a.proper_subset_of(a));
        assert!(a.subset_of(a));
    }

    #[test]
    fn member_ops() {
        let s = AttrSet::EMPTY.with(2).with(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "outside analysis universe")]
    fn encode_rejects_foreign_attr() {
        let u = Universe::new(ids(2));
        u.encode(&[AttrId(9)]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_universe_rejected() {
        Universe::new(vec![AttrId(1), AttrId(1)]);
    }
}
