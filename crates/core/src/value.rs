//! Cell values of match-action tables.
//!
//! The paper's theory (§3) assumes exact-match predicates and treats every
//! distinct match expression as an opaque relational value; its examples use
//! prefixes (`0*`, `192.0.2.0/24`). We follow both conventions: [`Value`]
//! equality/hashing is *structural* — two cells holding `0.0.0.0/1` are the
//! same relational value, a cell holding `0.0.0.0/1` and one holding
//! `0.0.0.0/2` are different values — while the packet evaluator interprets
//! prefixes and ternary masks as the wildcard matches they denote.

use std::fmt;
use std::sync::Arc;

/// A single cell of a match-action table.
///
/// In a match column the value denotes a predicate over a `width`-bit packet
/// field; in an action column it is the action's parameter (an output port
/// name, a goto target, a value to write).
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Value {
    /// Exact value: matches packets whose field equals `0`th variant payload.
    Int(u64),
    /// Prefix match: the top `len` bits of the field must equal the top
    /// `len` bits of `bits` (interpreted at the attribute's width). The low
    /// `width - len` bits of `bits` must be zero (enforced by [`Value::prefix`]).
    Prefix {
        /// Prefix bits, left-aligned within the attribute's width.
        bits: u64,
        /// Prefix length in bits.
        len: u8,
    },
    /// Ternary match: `packet & mask == bits & mask`. Only produced
    /// internally (e.g. by flow-cache collapse); program sources use
    /// `Int`/`Prefix`/`Any`.
    Ternary {
        /// Value bits; bits outside `mask` are ignored.
        bits: u64,
        /// Care mask: `1` bits participate in the comparison.
        mask: u64,
    },
    /// Wildcard: matches anything. As an action parameter, denotes "no-op".
    Any,
    /// Symbolic value: output port names (`vm1`), goto targets, next-hop
    /// labels. Never valid as a match predicate on a numeric field.
    Sym(Arc<str>),
}

impl Value {
    /// Construct a symbolic value.
    pub fn sym(s: impl AsRef<str>) -> Self {
        Value::Sym(Arc::from(s.as_ref()))
    }

    /// Construct a prefix value, normalizing the bits below the prefix
    /// length to zero so that structural equality coincides with predicate
    /// equality.
    ///
    /// # Panics
    /// Panics if `len > width` or `width > 64`.
    pub fn prefix(bits: u64, len: u8, width: u32) -> Self {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            u32::from(len) <= width,
            "prefix length {len} exceeds field width {width}"
        );
        let mask = prefix_mask(len, width);
        Value::Prefix {
            bits: bits & mask,
            len,
        }
    }

    /// Does this predicate match the concrete field value `v`?
    ///
    /// `width` is the attribute's bit width; `v` must fit in it.
    pub fn matches(&self, v: u64, width: u32) -> bool {
        debug_assert!(width == 64 || v < (1u64 << width), "value out of range");
        match *self {
            Value::Int(x) => v == x,
            Value::Prefix { bits, len } => {
                let m = prefix_mask(len, width);
                v & m == bits
            }
            Value::Ternary { bits, mask } => (v ^ bits) & mask == 0,
            Value::Any => true,
            Value::Sym(_) => false,
        }
    }

    /// Is this cell well formed at `width` (at most 64) bits: an integer or
    /// a ternary care mask inside the width, a prefix no longer than it with
    /// nothing set below its length? Wildcards and symbols always are.
    pub(crate) fn fits(&self, width: u32) -> bool {
        match *self {
            Value::Int(x) => x & !low_mask(width) == 0,
            Value::Prefix { bits, len } => {
                u32::from(len) <= width && bits & !prefix_mask(len, width) == 0
            }
            Value::Ternary { mask, .. } => mask & !low_mask(width) == 0,
            Value::Any | Value::Sym(_) => true,
        }
    }

    /// Do the packet sets denoted by two predicates intersect?
    ///
    /// Used by the 1NF *order-independence* check (§3): a table is
    /// order-independent iff no two entries can match the same packet, i.e.
    /// every entry pair has at least one field with disjoint predicates.
    pub fn intersects(&self, other: &Value, width: u32) -> bool {
        use Value::*;
        match (self, other) {
            (Sym(_), _) | (_, Sym(_)) => false,
            (Any, _) | (_, Any) => true,
            (Int(a), Int(b)) => a == b,
            (Int(v), p @ Prefix { .. }) | (p @ Prefix { .. }, Int(v)) => p.matches(*v, width),
            (Int(v), t @ Ternary { .. }) | (t @ Ternary { .. }, Int(v)) => t.matches(*v, width),
            (Prefix { bits: b1, len: l1 }, Prefix { bits: b2, len: l2 }) => {
                // Two prefixes overlap iff one is a prefix of the other.
                let l = (*l1).min(*l2);
                let m = prefix_mask(l, width);
                b1 & m == b2 & m
            }
            (Prefix { bits, len }, Ternary { bits: tb, mask })
            | (Ternary { bits: tb, mask }, Prefix { bits, len }) => {
                let pm = prefix_mask(*len, width);
                (bits ^ tb) & pm & mask == 0
            }
            (Ternary { bits: b1, mask: m1 }, Ternary { bits: b2, mask: m2 }) => {
                (b1 ^ b2) & m1 & m2 == 0
            }
        }
    }

    /// Intersection of two predicates as a predicate, if representable.
    ///
    /// Returns `None` when the intersection is empty. Used by pipeline
    /// flattening (denormalization) to conjoin successive matches on the
    /// same field.
    pub fn intersect(&self, other: &Value, width: u32) -> Option<Value> {
        use Value::*;
        if !self.intersects(other, width) {
            return None;
        }
        Some(match (self, other) {
            (Any, v) | (v, Any) => v.clone(),
            (Int(a), _) => Int(*a),
            (_, Int(b)) => Int(*b),
            (a @ Prefix { len: l1, .. }, b @ Prefix { len: l2, .. }) => {
                if l1 >= l2 {
                    a.clone()
                } else {
                    b.clone()
                }
            }
            (Prefix { bits, len }, Ternary { bits: tb, mask })
            | (Ternary { bits: tb, mask }, Prefix { bits, len }) => {
                let pm = prefix_mask(*len, width);
                Ternary {
                    bits: (bits & pm) | (tb & mask & !pm),
                    mask: pm | mask,
                }
            }
            (Ternary { bits: b1, mask: m1 }, Ternary { bits: b2, mask: m2 }) => Ternary {
                bits: (b1 & m1) | (b2 & m2 & !m1),
                mask: m1 | m2,
            },
            (Sym(_), _) | (_, Sym(_)) => unreachable!("intersects() rejected syms"),
        })
    }

    /// The `(bits, mask)` ternary form of this predicate: it matches `v`
    /// iff `v & mask == bits`. Every predicate kind has one (`Int` with a
    /// full mask, `Prefix` with a prefix mask, `Any` with an empty mask);
    /// symbolic values, which match nothing, have none.
    ///
    /// The returned mask is trimmed to the low `width` bits and the bits
    /// are trimmed to the mask, so two predicates denote the same packet
    /// set iff their ternary forms are equal. This canonical form is the
    /// basis of the cover/subsumption algebra used by the static analyzer
    /// and reusable by ternary classifiers.
    pub fn as_ternary(&self, width: u32) -> Option<(u64, u64)> {
        let full = low_mask(width);
        match *self {
            Value::Int(x) => Some((x & full, full)),
            Value::Prefix { bits, len } => {
                let m = prefix_mask(len, width);
                Some((bits & m, m))
            }
            Value::Ternary { bits, mask } => {
                let m = mask & full;
                Some((bits & m, m))
            }
            Value::Any => Some((0, 0)),
            Value::Sym(_) => None,
        }
    }

    /// Does this predicate *cover* `other` — i.e. does every `width`-bit
    /// value matching `other` also match `self`?
    ///
    /// In ternary form, `A ⊇ B` iff `A` cares about a subset of `B`'s bits
    /// and agrees with `B` on all of them. Symbolic values match nothing,
    /// so everything subsumes them and they subsume only each other.
    ///
    /// This is the subsumption half of the ternary-cover algebra that
    /// shadowed-/dead-entry detection in `mapro-lint` is built on
    /// (property-tested against enumeration in `tests/value_properties.rs`).
    pub fn subsumes(&self, other: &Value, width: u32) -> bool {
        match (self.as_ternary(width), other.as_ternary(width)) {
            // `other` matches nothing: vacuously covered.
            (_, None) => true,
            // `self` matches nothing but `other` is satisfiable (every
            // ternary form matches at least one value).
            (None, Some(_)) => false,
            (Some((sb, sm)), Some((ob, om))) => sm & om == sm && (sb ^ ob) & sm == 0,
        }
    }

    /// The interval `[lo, hi]` of field values this predicate covers, if it
    /// is interval-shaped (exact values, prefixes, and wildcards are; general
    /// ternary masks are not).
    ///
    /// Interval endpoints drive the derivation of per-field representative
    /// packet values for exhaustive equivalence checking (see
    /// `crate::domain`).
    pub fn interval(&self, width: u32) -> Option<(u64, u64)> {
        match *self {
            Value::Int(x) => Some((x, x)),
            Value::Prefix { bits, len } => {
                let span = if u32::from(len) == width {
                    0
                } else {
                    low_mask(width - u32::from(len))
                };
                Some((bits, bits | span))
            }
            Value::Any => Some((0, low_mask(width))),
            Value::Ternary { bits, mask } => {
                // A ternary whose mask is a prefix mask (within the field
                // width) is interval-shaped.
                let full = low_mask(width);
                let m = mask & full;
                let is_prefix_mask = m == 0
                    || (64 - m.leading_zeros() == width // ones start at the top bit
                        && (m >> m.trailing_zeros()).wrapping_add(1).is_power_of_two());
                if is_prefix_mask {
                    Some((bits & m, (bits & m) | (full & !m)))
                } else {
                    None
                }
            }
            Value::Sym(_) => None,
        }
    }
}

/// Mask selecting the top `len` bits of a `width`-bit field.
#[inline]
pub fn prefix_mask(len: u8, width: u32) -> u64 {
    let len = u32::from(len);
    debug_assert!(len <= width && width <= 64);
    if len == 0 {
        0
    } else {
        (!0u64 << (width - len)) & low_mask(width)
    }
}

/// Mask of the low `n` bits.
#[inline]
pub fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Prefix { bits, len } => write!(f, "{bits:#x}/{len}"),
            Value::Ternary { bits, mask } => write!(f, "{bits:#x}&{mask:#x}"),
            Value::Any => write!(f, "*"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match() {
        assert!(Value::Int(5).matches(5, 16));
        assert!(!Value::Int(5).matches(6, 16));
    }

    #[test]
    fn prefix_match_and_normalization() {
        // 10* on a 4-bit field: matches 0b1000..0b1011.
        let p = Value::prefix(0b1010, 2, 4); // low bits normalized away
        assert_eq!(
            p,
            Value::Prefix {
                bits: 0b1000,
                len: 2
            }
        );
        assert!(p.matches(0b1000, 4));
        assert!(p.matches(0b1011, 4));
        assert!(!p.matches(0b0100, 4));
        assert!(!p.matches(0b1100, 4));
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let p = Value::prefix(0, 0, 32);
        assert!(p.matches(0, 32));
        assert!(p.matches(u32::MAX as u64, 32));
    }

    #[test]
    fn full_length_prefix_is_exact() {
        let p = Value::prefix(0xdeadbeef, 32, 32);
        assert!(p.matches(0xdeadbeef, 32));
        assert!(!p.matches(0xdeadbee0, 32));
    }

    #[test]
    fn ternary_match() {
        let t = Value::Ternary {
            bits: 0b1010,
            mask: 0b1110,
        };
        assert!(t.matches(0b1010, 4));
        assert!(t.matches(0b1011, 4));
        assert!(!t.matches(0b0010, 4));
    }

    #[test]
    fn any_matches_everything_sym_matches_nothing() {
        assert!(Value::Any.matches(123, 32));
        assert!(!Value::sym("vm1").matches(0, 32));
    }

    #[test]
    fn prefix_intersection_is_prefix_containment() {
        let w = 32;
        let a = Value::prefix(0x8000_0000, 1, w); // 1*
        let b = Value::prefix(0xc000_0000, 2, w); // 11*
        let c = Value::prefix(0x0000_0000, 1, w); // 0*
        assert!(a.intersects(&b, w));
        assert!(b.intersects(&a, w));
        assert!(!a.intersects(&c, w));
        assert_eq!(a.intersect(&b, w), Some(b.clone()));
        assert_eq!(a.intersect(&c, w), None);
    }

    #[test]
    fn int_prefix_intersection() {
        let w = 32;
        let p = Value::prefix(0x0a00_0000, 8, w); // 10.0.0.0/8
        assert!(p.intersects(&Value::Int(0x0a01_0203), w));
        assert!(!p.intersects(&Value::Int(0x0b01_0203), w));
        assert_eq!(
            p.intersect(&Value::Int(0x0a01_0203), w),
            Some(Value::Int(0x0a01_0203))
        );
    }

    #[test]
    fn any_intersection_yields_other() {
        let v = Value::Int(7);
        assert_eq!(Value::Any.intersect(&v, 8), Some(v.clone()));
        assert_eq!(v.intersect(&Value::Any, 8), Some(v));
    }

    #[test]
    fn sym_never_intersects() {
        assert!(!Value::sym("a").intersects(&Value::Any, 8));
        assert!(!Value::Any.intersects(&Value::sym("a"), 8));
    }

    #[test]
    fn intervals() {
        assert_eq!(Value::Int(9).interval(8), Some((9, 9)));
        assert_eq!(Value::Any.interval(8), Some((0, 255)));
        assert_eq!(
            Value::prefix(0b1000_0000, 1, 8).interval(8),
            Some((128, 255))
        );
        // Non-contiguous ternary has no interval.
        let t = Value::Ternary {
            bits: 0b101,
            mask: 0b101,
        };
        assert_eq!(t.interval(8), None);
        // Prefix-shaped ternary does.
        let t = Value::Ternary {
            bits: 0xf0,
            mask: 0xf0,
        };
        assert_eq!(t.interval(8), Some((0xf0, 0xff)));
    }

    #[test]
    fn ternary_ternary_intersection() {
        let a = Value::Ternary {
            bits: 0b1100,
            mask: 0b1100,
        };
        let b = Value::Ternary {
            bits: 0b0011,
            mask: 0b0011,
        };
        let i = a.intersect(&b, 4).unwrap();
        assert!(i.matches(0b1111, 4));
        assert!(!i.matches(0b1110, 4));
        assert!(!i.matches(0b0111, 4));
    }

    #[test]
    fn structural_equality_treats_prefixes_as_opaque_values() {
        // §3: the relational layer treats 0/1 and 0/2 as *different* values
        // even though one contains the other.
        let a = Value::prefix(0, 1, 32);
        let b = Value::prefix(0, 2, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn ternary_form_is_canonical() {
        let w = 8;
        assert_eq!(Value::Int(5).as_ternary(w), Some((5, 0xff)));
        assert_eq!(Value::Any.as_ternary(w), Some((0, 0)));
        assert_eq!(
            Value::prefix(0b1100_0000, 2, w).as_ternary(w),
            Some((0b1100_0000, 0b1100_0000))
        );
        // Don't-care bits and out-of-width mask bits are trimmed away.
        assert_eq!(
            Value::Ternary {
                bits: 0xffff,
                mask: 0x10f
            }
            .as_ternary(w),
            Some((0x0f, 0x0f))
        );
        assert_eq!(Value::sym("p").as_ternary(w), None);
    }

    #[test]
    fn subsumption_is_cover() {
        let w = 8;
        let any = Value::Any;
        let p = Value::prefix(0b1000_0000, 1, w); // 1*
        let q = Value::prefix(0b1100_0000, 2, w); // 11*
        let x = Value::Int(0b1100_0001);
        assert!(any.subsumes(&p, w) && !p.subsumes(&any, w));
        assert!(p.subsumes(&q, w) && !q.subsumes(&p, w));
        assert!(q.subsumes(&x, w) && !x.subsumes(&q, w));
        assert!(x.subsumes(&x, w));
        // Disjoint prefixes subsume in neither direction.
        let z = Value::prefix(0, 1, w); // 0*
        assert!(!z.subsumes(&q, w) && !q.subsumes(&z, w));
        // Syms match nothing: subsumed by anything, subsume only syms.
        assert!(x.subsumes(&Value::sym("a"), w));
        assert!(Value::sym("a").subsumes(&Value::sym("b"), w));
        assert!(!Value::sym("a").subsumes(&x, w));
    }

    #[test]
    fn prefix_mask_limits() {
        assert_eq!(prefix_mask(0, 32), 0);
        assert_eq!(prefix_mask(32, 32), 0xffff_ffff);
        assert_eq!(prefix_mask(64, 64), !0);
        assert_eq!(prefix_mask(1, 32), 0x8000_0000);
    }
}
