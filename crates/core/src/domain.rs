//! Finite packet domains for exhaustive semantic checking.
//!
//! Every match predicate we admit in program sources (exact, prefix,
//! wildcard) denotes an *interval* of field values. A pipeline's behaviour
//! on a packet therefore depends only on which elementary interval each
//! field value falls into, where the elementary intervals are induced by
//! the endpoints of all predicates mentioning that field. Evaluating one
//! representative per elementary interval — and taking the Cartesian
//! product across fields — is thus a sound *and complete* equivalence
//! check for such programs (fields are matched independently within an
//! entry, and entries combine per-field predicates conjunctively).
//!
//! General ternary predicates are not interval-shaped; they only occur
//! inside datapath caches, never in the programs normalization manipulates,
//! and [`Domain::from_pipelines`] rejects them.

use crate::attr::{AttrId, AttrKind};
use crate::pipeline::{Packet, Pipeline};
use std::collections::BTreeMap;

/// Per-field representative values covering all elementary intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    /// For each participating header field: its representative values,
    /// sorted ascending. Metadata fields are excluded — they start at zero
    /// and are written by the program, so they are not free inputs.
    pub fields: Vec<(AttrId, Vec<u64>)>,
}

/// Error building a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// A match cell held a non-interval predicate (general ternary) or a
    /// symbolic value.
    NonIntervalPredicate {
        /// Offending table name.
        table: String,
        /// Offending field name.
        attr: String,
    },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::NonIntervalPredicate { table, attr } => write!(
                f,
                "table {table:?}, field {attr:?}: predicate is not interval-shaped"
            ),
        }
    }
}

impl std::error::Error for DomainError {}

impl Domain {
    /// Derive the joint domain of several pipelines (they must share a
    /// catalog layout for the header fields; in practice the compared
    /// pipelines come from transformations of one source program whose
    /// catalogs agree on all `Field` attributes).
    pub fn from_pipelines(pipelines: &[&Pipeline]) -> Result<Domain, DomainError> {
        assert!(!pipelines.is_empty(), "need at least one pipeline");
        // endpoint set per field attr id
        let mut points: BTreeMap<AttrId, Vec<u64>> = BTreeMap::new();
        let mut widths: BTreeMap<AttrId, u32> = BTreeMap::new();
        for p in pipelines {
            for t in &p.tables {
                for (col, &attr) in t.match_attrs.iter().enumerate() {
                    let a = p.catalog.attr(attr);
                    if !matches!(a.kind, AttrKind::Field) {
                        continue; // metadata: internal, not a free input
                    }
                    let width = a.width;
                    widths.insert(attr, width);
                    let pts = points.entry(attr).or_default();
                    for e in &t.entries {
                        let v = &e.matches[col];
                        let (lo, hi) =
                            v.interval(width)
                                .ok_or_else(|| DomainError::NonIntervalPredicate {
                                    table: t.name.clone(),
                                    attr: a.name.clone(),
                                })?;
                        // Elementary-interval boundaries: the interval start,
                        // and the first value after it.
                        pts.push(lo);
                        if hi < crate::value::low_mask(width) {
                            pts.push(hi + 1);
                        }
                    }
                }
            }
        }
        let mut fields = Vec::new();
        for (attr, mut pts) in points {
            pts.push(0); // the leftmost elementary interval
            pts.sort_unstable();
            pts.dedup();
            let _ = widths;
            fields.push((attr, pts));
        }
        Ok(Domain { fields })
    }

    /// Number of packets in the full Cartesian product, saturating at
    /// `u128::MAX`.
    ///
    /// Saturation (rather than `Iterator::product`, which panics in debug
    /// builds and wraps in release) keeps the exhaustive-vs-sampling mode
    /// decision in the equivalence checker correct for programs with many
    /// wide fields: a wrapped product could land *under* `max_exhaustive`
    /// and trigger a doomed exhaustive enumeration.
    pub fn product_size(&self) -> u128 {
        self.fields
            .iter()
            .fold(1u128, |acc, (_, vs)| acc.saturating_mul(vs.len() as u128))
    }

    /// Iterate `len` packets of the Cartesian product starting at product
    /// index `start` (mixed-radix, last field varying fastest). This is the
    /// random-access entry point the parallel equivalence checker uses to
    /// hand disjoint index ranges to pool workers; concatenating the ranges
    /// `[0,c), [c,2c), …` reproduces the serial enumeration exactly.
    pub(crate) fn packets_range<'a>(
        &'a self,
        proto: &'a Packet,
        start: u128,
        len: usize,
    ) -> DomainIter<'a> {
        let size = self.product_size();
        let mut idx = vec![0usize; self.fields.len()];
        let done = start >= size || len == 0 || self.fields.iter().any(|(_, v)| v.is_empty());
        if !done {
            // Mixed-radix decode of `start`: the last field is the least
            // significant digit (the iterator's odometer increments it
            // first).
            let mut rem = start;
            for k in (0..self.fields.len()).rev() {
                let base = self.fields[k].1.len() as u128;
                idx[k] = (rem % base) as usize;
                rem /= base;
            }
        }
        DomainIter {
            domain: self,
            proto,
            idx,
            done,
            remaining: len,
        }
    }

    /// Deterministically sample up to `n` packets from the product using a
    /// splitmix64 stream seeded with `seed`. Used when the product is too
    /// large to enumerate.
    pub fn sample(&self, proto: &Packet, n: usize, seed: u64) -> Vec<Packet> {
        let mut s = seed;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut p = proto.clone();
            for (attr, vs) in &self.fields {
                s = splitmix64(s);
                p.set(*attr, vs[(s % vs.len() as u64) as usize]);
            }
            out.push(p);
        }
        out
    }
}

/// Iterator over the Cartesian product of a [`Domain`].
pub(crate) struct DomainIter<'a> {
    domain: &'a Domain,
    proto: &'a Packet,
    idx: Vec<usize>,
    done: bool,
    /// Packets left in the range.
    remaining: usize,
}

impl Iterator for DomainIter<'_> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if self.done {
            return None;
        }
        if self.remaining == 0 {
            self.done = true;
            return None;
        }
        self.remaining -= 1;
        let mut p = self.proto.clone();
        for (k, (attr, vs)) in self.domain.fields.iter().enumerate() {
            p.set(*attr, vs[self.idx[k]]);
        }
        // Odometer increment.
        let mut k = self.domain.fields.len();
        loop {
            if k == 0 {
                self.done = true;
                break;
            }
            k -= 1;
            self.idx[k] += 1;
            if self.idx[k] < self.domain.fields[k].1.len() {
                break;
            }
            self.idx[k] = 0;
        }
        if self.domain.fields.is_empty() {
            self.done = true;
        }
        Some(p)
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{ActionSem, Catalog};
    use crate::table::Table;
    use crate::value::Value;

    fn pipeline_with(values: Vec<Value>) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for v in values {
            t.row(vec![v], vec![Value::sym("p")]);
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn exact_values_yield_boundaries() {
        let p = pipeline_with(vec![Value::Int(5), Value::Int(9)]);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        assert_eq!(d.fields.len(), 1);
        // {0, 5, 6, 9, 10}
        assert_eq!(d.fields[0].1, vec![0, 5, 6, 9, 10]);
    }

    #[test]
    fn prefix_boundaries() {
        let p = pipeline_with(vec![Value::prefix(0b1000_0000, 1, 8)]);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        // [128,255] → {0, 128}; 255+1 overflows the width and is dropped.
        assert_eq!(d.fields[0].1, vec![0, 128]);
    }

    #[test]
    fn product_enumeration_covers_all_combinations() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(1), Value::Int(2)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        // f: {0,1,2}, g: {0,2,3}
        assert_eq!(d.product_size(), 9);
        let proto = Packet::zero(&p.catalog);
        let pkts: Vec<_> = d.packets_range(&proto, 0, usize::MAX).collect();
        assert_eq!(pkts.len(), 9);
        // All distinct.
        for i in 0..pkts.len() {
            for j in i + 1..pkts.len() {
                assert_ne!(pkts[i], pkts[j]);
            }
        }
    }

    #[test]
    fn metadata_excluded() {
        let mut c = Catalog::new();
        let m = c.meta("m", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![m], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        assert!(d.fields.is_empty());
    }

    #[test]
    fn general_ternary_rejected() {
        let p = pipeline_with(vec![Value::Ternary {
            bits: 0b101,
            mask: 0b101,
        }]);
        assert!(matches!(
            Domain::from_pipelines(&[&p]),
            Err(DomainError::NonIntervalPredicate { .. })
        ));
    }

    /// Regression: a product exceeding 2^128 must saturate, not wrap (or
    /// panic in debug builds), so the sampling-mode trigger in the
    /// equivalence checker stays robust for many-wide-field programs.
    #[test]
    fn product_size_saturates_instead_of_overflowing() {
        // 13 fields × 1000 representatives each: 1000^13 ≈ 2^129.5 > 2^128.
        let fields: Vec<(AttrId, Vec<u64>)> = (0..13)
            .map(|i| (AttrId(i), (0..1000u64).collect()))
            .collect();
        let d = Domain { fields };
        assert_eq!(d.product_size(), u128::MAX);
        // The saturated size is still usable: sampling works and range
        // iteration treats any in-range start as valid.
        let mut c = Catalog::new();
        for i in 0..13 {
            c.field(format!("f{i}"), 32);
        }
        let proto = Packet::zero(&c);
        assert_eq!(d.sample(&proto, 5, 1).len(), 5);
        assert_eq!(d.packets_range(&proto, 0, 3).count(), 3);
    }

    #[test]
    fn sampling_is_deterministic() {
        let p = pipeline_with(vec![Value::Int(5), Value::Int(9)]);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        let proto = Packet::zero(&p.catalog);
        let a = d.sample(&proto, 10, 42);
        let b = d.sample(&proto, 10, 42);
        assert_eq!(a, b);
        let c = d.sample(&proto, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn range_iteration_tiles_the_product() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(1), Value::Int(2)], vec![Value::sym("p")]);
        t.row(vec![Value::Int(7), Value::Int(9)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        let proto = Packet::zero(&p.catalog);
        let serial: Vec<_> = d.packets_range(&proto, 0, usize::MAX).collect();
        let n = serial.len();
        assert_eq!(n as u128, d.product_size());
        // Any chunking concatenates back to the serial enumeration.
        for chunk in [1usize, 2, 3, n, n + 5] {
            let mut tiled = Vec::new();
            let mut start = 0usize;
            while start < n {
                tiled.extend(d.packets_range(&proto, start as u128, chunk));
                start += chunk;
            }
            assert_eq!(tiled, serial, "chunk={chunk}");
        }
        // Out-of-range start and zero budget are empty.
        assert_eq!(d.packets_range(&proto, n as u128, 4).count(), 0);
        assert_eq!(d.packets_range(&proto, 0, 0).count(), 0);
    }

    #[test]
    fn empty_domain_yields_single_proto_packet() {
        // A pipeline matching only metadata has no free fields; the product
        // is the single prototype packet.
        let mut c = Catalog::new();
        let m = c.meta("m", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![m], vec![out]);
        t.row(vec![Value::Int(0)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        let d = Domain::from_pipelines(&[&p]).unwrap();
        let proto = Packet::zero(&p.catalog);
        let pkts: Vec<_> = d.packets_range(&proto, 0, usize::MAX).collect();
        assert_eq!(pkts.len(), 1);
    }
}
