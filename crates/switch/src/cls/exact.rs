//! Exact-match hash template.
//!
//! ESwitch's "very fast exact-match template" (§5): active columns form a
//! hash key; lookup is one probe. Only tables whose shape is
//! [`TableShape::AllExact`](crate::cls::view::TableShape) can use it.

use crate::cls::view::{TableShape, TableView};
use crate::cls::{Classifier, LookupStats, TemplateKind};
use mapro_core::Value;
use std::collections::HashMap;

/// Hash-table classifier over the active exact columns.
#[derive(Debug, Clone)]
pub struct ExactTable {
    cols: Vec<usize>,
    map: HashMap<Vec<u64>, usize>,
    entries: usize,
}

/// Error building an [`ExactTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotExact;

impl std::fmt::Display for NotExact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table is not all-exact")
    }
}

impl std::error::Error for NotExact {}

impl ExactTable {
    /// Build from a view; fails unless the shape is all-exact.
    pub fn build(view: &TableView) -> Result<ExactTable, NotExact> {
        let cols = match crate::cls::view::table_shape(view) {
            TableShape::AllExact { cols } => cols,
            _ => return Err(NotExact),
        };
        let mut map = HashMap::with_capacity(view.len());
        for (i, row) in view.rows.iter().enumerate() {
            let key: Vec<u64> = cols
                .iter()
                .map(|&c| match row[c] {
                    Value::Int(v) => v,
                    _ => unreachable!("shape check guarantees Int"),
                })
                .collect();
            // Duplicate keys: keep the higher-priority (earlier) row.
            map.entry(key).or_insert(i);
        }
        Ok(ExactTable {
            cols,
            map,
            entries: view.len(),
        })
    }
}

impl Classifier for ExactTable {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        mapro_obs::counter!("classifier.exact.lookups").inc();
        let _t = mapro_obs::time!("classifier.exact.lookup_ns");
        mapro_obs::counter!("classifier.exact.probes").inc();
        let probe: Vec<u64> = self.cols.iter().map(|&c| key[c]).collect();
        self.map.get(probe.as_slice()).copied()
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Exact,
            entries: self.entries,
            tuples: 1,
            depth: 1,
            key_cols: self.cols.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rows: Vec<Vec<Value>>) -> TableView {
        TableView {
            widths: vec![32, 16],
            rows,
        }
    }

    #[test]
    fn build_and_lookup() {
        let view = v(vec![
            vec![Value::Int(1), Value::Int(80)],
            vec![Value::Int(2), Value::Int(443)],
        ]);
        let t = ExactTable::build(&view).unwrap();
        assert_eq!(t.lookup(&[1, 80]), Some(0));
        assert_eq!(t.lookup(&[2, 443]), Some(1));
        assert_eq!(t.lookup(&[1, 443]), None);
        assert_eq!(t.stats().kind, TemplateKind::Exact);
    }

    #[test]
    fn inactive_columns_not_in_key() {
        let view = v(vec![
            vec![Value::Int(1), Value::Any],
            vec![Value::Int(2), Value::Any],
        ]);
        let t = ExactTable::build(&view).unwrap();
        assert_eq!(t.lookup(&[1, 12345]), Some(0));
        assert_eq!(t.stats().key_cols, 1);
    }

    #[test]
    fn rejects_wildcards() {
        let view = v(vec![vec![Value::prefix(0, 8, 32), Value::Int(80)]]);
        assert!(matches!(ExactTable::build(&view), Err(NotExact)));
    }

    #[test]
    fn duplicate_keys_keep_priority() {
        let view = v(vec![
            vec![Value::Int(1), Value::Int(80)],
            vec![Value::Int(1), Value::Int(80)],
        ]);
        let t = ExactTable::build(&view).unwrap();
        assert_eq!(t.lookup(&[1, 80]), Some(0));
    }

    #[test]
    fn agrees_with_reference() {
        let view = v(vec![
            vec![Value::Int(1), Value::Int(80)],
            vec![Value::Int(9), Value::Int(22)],
        ]);
        let t = ExactTable::build(&view).unwrap();
        for key in [[1u64, 80], [9, 22], [1, 22], [0, 0]] {
            assert_eq!(t.lookup(&key), view.linear_lookup(&key));
        }
    }
}
