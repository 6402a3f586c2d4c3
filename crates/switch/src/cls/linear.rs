//! Linear ternary scan — the "slowest wildcard matching template" (§5)
//! a software datapath falls back to when nothing better fits — and the
//! TCAM model, which shares its semantics but performs every comparison
//! in parallel in hardware (constant lookup time, paid for in chip area
//! and power).

use crate::cls::view::TableView;
use crate::cls::{Classifier, LookupStats, TemplateKind};
use mapro_core::Value;

/// Priority-ordered linear scan over ternary rules.
#[derive(Debug, Clone)]
pub struct LinearTernary {
    widths: Vec<u32>,
    rows: Vec<Vec<Value>>,
}

impl LinearTernary {
    /// Build from a view (never fails; this is the universal fallback).
    pub fn build(view: &TableView) -> LinearTernary {
        LinearTernary {
            widths: view.widths.clone(),
            rows: view.rows.clone(),
        }
    }
}

impl Classifier for LinearTernary {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        mapro_obs::counter!("classifier.linear.lookups").inc();
        let _t = mapro_obs::time!("classifier.linear.lookup_ns");
        let probes = mapro_obs::counter!("classifier.linear.probes");
        'row: for (i, row) in self.rows.iter().enumerate() {
            probes.inc();
            for (c, v) in row.iter().enumerate() {
                if !v.matches(key[c], self.widths[c]) {
                    continue 'row;
                }
            }
            return Some(i);
        }
        None
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Linear,
            entries: self.rows.len(),
            tuples: 1,
            depth: self.rows.len().max(1),
            key_cols: self.widths.len(),
        }
    }
}

/// TCAM model: ternary-match semantics with parallel (single-cycle)
/// lookup, plus capacity accounting in value bits — the resource the
/// paper's §2 encoding-size discussion ("TCAM space [21, 23]") concerns.
#[derive(Debug, Clone)]
pub struct TcamModel {
    inner: LinearTernary,
}

/// Error building a [`TcamModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcamFull {
    /// Entries requested.
    pub(crate) requested: usize,
    /// Entries available.
    pub(crate) capacity: usize,
}

impl std::fmt::Display for TcamFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TCAM capacity exceeded: {} entries requested, {} available",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for TcamFull {}

impl TcamModel {
    /// Build with an entry-capacity limit.
    pub fn build(view: &TableView, capacity_entries: usize) -> Result<TcamModel, TcamFull> {
        if view.len() > capacity_entries {
            return Err(TcamFull {
                requested: view.len(),
                capacity: capacity_entries,
            });
        }
        Ok(TcamModel {
            inner: LinearTernary::build(view),
        })
    }

    /// Value-array bits consumed.
    pub fn bits_used(&self) -> usize {
        let per_row: u32 = self.inner.widths.iter().sum();
        self.inner.rows.len() * per_row as usize
    }
}

impl Classifier for TcamModel {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        self.inner.lookup(key)
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Tcam,
            entries: self.inner.rows.len(),
            tuples: 1,
            depth: 1, // parallel compare
            key_cols: self.inner.widths.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> TableView {
        TableView {
            widths: vec![32, 16],
            rows: vec![
                vec![Value::prefix(0x0a00_0000, 8, 32), Value::Int(80)],
                vec![Value::Any, Value::Int(80)],
                vec![Value::Any, Value::Any],
            ],
        }
    }

    #[test]
    fn linear_first_match() {
        let l = LinearTernary::build(&view());
        assert_eq!(l.lookup(&[0x0a01_0101, 80]), Some(0));
        assert_eq!(l.lookup(&[0x0b01_0101, 80]), Some(1));
        assert_eq!(l.lookup(&[0x0b01_0101, 22]), Some(2));
        assert_eq!(l.stats().kind, TemplateKind::Linear);
        assert_eq!(l.stats().depth, 3);
    }

    #[test]
    fn tcam_same_semantics_constant_depth() {
        let v = view();
        let l = LinearTernary::build(&v);
        let t = TcamModel::build(&v, 1024).unwrap();
        for key in [[0x0a01_0101u64, 80], [0x0b01_0101, 80], [1, 1]] {
            assert_eq!(t.lookup(&key), l.lookup(&key));
        }
        assert_eq!(t.stats().depth, 1);
        assert_eq!(t.bits_used(), 3 * 48);
    }

    #[test]
    fn tcam_capacity_enforced() {
        let v = view();
        let err = TcamModel::build(&v, 2).unwrap_err();
        assert_eq!(
            err,
            TcamFull {
                requested: 3,
                capacity: 2
            }
        );
    }
}
