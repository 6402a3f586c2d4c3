//! Tuple-space-search classifier (the OVS/Lagopus generic datapath).
//!
//! Entries are grouped by their mask tuple (which bits of which fields
//! they care about); each group is a hash table over masked keys. A lookup
//! probes every group and keeps the highest-priority hit. Cost scales with
//! the number of distinct tuples, which is why OVS performance depends on
//! the variety of wildcard patterns rather than raw entry count.

use crate::cls::view::{MatchRow, Rows, TableView};
use crate::cls::{Classifier, LookupStats, TemplateKind};
use mapro_core::value::prefix_mask;
use mapro_core::Value;
use std::collections::HashMap;

/// One mask tuple: a care-mask per column.
type MaskTuple = Vec<u64>;

/// Tuple-space-search classifier.
#[derive(Debug, Clone)]
pub struct TupleSpace {
    tuples: Vec<(MaskTuple, HashMap<Vec<u64>, usize>)>,
    entries: usize,
}

/// Error building a [`TupleSpace`]: a general (non-prefix-shaped) ternary
/// cell has a mask, which is fine, but symbolic cells cannot be classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadCell;

impl std::fmt::Display for BadCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "symbolic cell in match position")
    }
}

impl std::error::Error for BadCell {}

/// A cell's care mask and key within its tuple; `None` for a symbolic
/// cell.
fn cell_tuple(v: &Value, w: u32) -> Option<(u64, u64)> {
    Some(match *v {
        Value::Int(x) => (prefix_mask(w as u8, w), x),
        Value::Prefix { bits, len } => (prefix_mask(len, w), bits),
        Value::Ternary { bits, mask } => (mask, bits & mask),
        Value::Any => (0, 0),
        Value::Sym(_) => return None,
    })
}

/// How many distinct mask tuples the rows fall into: the probes of a
/// [`TupleSpace`] lookup, counted without building one. (A symbolic
/// cell, which the build refuses, counts as a wildcard.)
pub(crate) fn mask_tuples<R: MatchRow>(rows: &Rows<'_, R>) -> usize {
    let mut tuples: Vec<MaskTuple> = Vec::new();
    let mut mask = Vec::with_capacity(rows.cols());
    for row in rows.rows {
        mask.clear();
        mask.extend(
            row.cells()
                .iter()
                .zip(rows.widths)
                .map(|(v, &w)| cell_tuple(v, w).map_or(0, |(m, _)| m)),
        );
        if !tuples.contains(&mask) {
            tuples.push(mask.clone());
        }
    }
    tuples.len()
}

impl TupleSpace {
    /// Build from a view. Handles exact, prefix, ternary and wildcard
    /// cells (i.e. every predicate kind).
    pub fn build(view: &TableView) -> Result<TupleSpace, BadCell> {
        let mut tuples: Vec<(MaskTuple, HashMap<Vec<u64>, usize>)> = Vec::new();
        for (i, row) in view.rows.iter().enumerate() {
            let mut mask = Vec::with_capacity(view.cols());
            let mut key = Vec::with_capacity(view.cols());
            for (v, &w) in row.iter().zip(&view.widths) {
                let (m, k) = cell_tuple(v, w).ok_or(BadCell)?;
                mask.push(m);
                key.push(k & m);
            }
            match tuples.iter_mut().find(|(t, _)| *t == mask) {
                Some((_, map)) => {
                    let e = map.entry(key).or_insert(i);
                    if *e > i {
                        *e = i;
                    }
                }
                None => {
                    let mut map = HashMap::new();
                    map.insert(key, i);
                    tuples.push((mask, map));
                }
            }
        }
        Ok(TupleSpace {
            tuples,
            entries: view.len(),
        })
    }
}

impl Classifier for TupleSpace {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        mapro_obs::counter!("classifier.tss.lookups").inc();
        let _t = mapro_obs::time!("classifier.tss.lookup_ns");
        mapro_obs::counter!("classifier.tss.probes").add(self.tuples.len() as u64);
        let mut best: Option<usize> = None;
        let mut probe = vec![0u64; key.len()];
        for (mask, map) in &self.tuples {
            for (c, m) in mask.iter().enumerate() {
                probe[c] = key[c] & m;
            }
            if let Some(&i) = map.get(probe.as_slice()) {
                best = Some(match best {
                    None => i,
                    Some(b) => b.min(i),
                });
            }
        }
        best
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Tss,
            entries: self.entries,
            tuples: self.tuples.len().max(1),
            depth: 1,
            key_cols: self.tuples.first().map(|(m, _)| m.len()).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gwlb_view() -> TableView {
        // (ip_src prefix, ip_dst exact, tcp_dst exact) — three tuples:
        // (/1,32,16), (/2,32,16), (/0,32,16).
        TableView {
            widths: vec![32, 32, 16],
            rows: vec![
                vec![Value::prefix(0, 1, 32), Value::Int(1), Value::Int(80)],
                vec![
                    Value::prefix(0x8000_0000, 1, 32),
                    Value::Int(1),
                    Value::Int(80),
                ],
                vec![Value::prefix(0, 2, 32), Value::Int(2), Value::Int(443)],
                vec![
                    Value::prefix(0x4000_0000, 2, 32),
                    Value::Int(2),
                    Value::Int(443),
                ],
                vec![
                    Value::prefix(0x8000_0000, 1, 32),
                    Value::Int(2),
                    Value::Int(443),
                ],
                vec![Value::Any, Value::Int(3), Value::Int(22)],
            ],
        }
    }

    #[test]
    fn groups_by_mask_tuple() {
        let ts = TupleSpace::build(&gwlb_view()).unwrap();
        assert_eq!(ts.tuples.len(), 3);
    }

    #[test]
    fn agrees_with_reference() {
        let v = gwlb_view();
        let ts = TupleSpace::build(&v).unwrap();
        let keys: Vec<[u64; 3]> = vec![
            [0x1234_5678, 1, 80],
            [0x9234_5678, 1, 80],
            [0x1234_5678, 2, 443],
            [0x5234_5678, 2, 443],
            [0x9234_5678, 2, 443],
            [0xdead_beef, 3, 22],
            [0, 9, 9],
        ];
        for k in keys {
            assert_eq!(ts.lookup(&k), v.linear_lookup(&k), "key {k:?}");
        }
    }

    #[test]
    fn priority_across_tuples() {
        // Overlapping rows in different tuples: lowest index must win.
        let v = TableView {
            widths: vec![8],
            rows: vec![vec![Value::prefix(0x80, 1, 8)], vec![Value::Int(0x81)]],
        };
        let ts = TupleSpace::build(&v).unwrap();
        assert_eq!(ts.lookup(&[0x81]), Some(0)); // row 0 has priority
                                                 // Reverse order: exact first.
        let v = TableView {
            widths: vec![8],
            rows: vec![vec![Value::Int(0x81)], vec![Value::prefix(0x80, 1, 8)]],
        };
        let ts = TupleSpace::build(&v).unwrap();
        assert_eq!(ts.lookup(&[0x81]), Some(0));
        assert_eq!(ts.lookup(&[0x82]), Some(1));
    }

    #[test]
    fn ternary_cells_supported() {
        let v = TableView {
            widths: vec![8],
            rows: vec![vec![Value::Ternary {
                bits: 0b0000_0101,
                mask: 0b0000_0111,
            }]],
        };
        let ts = TupleSpace::build(&v).unwrap();
        assert_eq!(ts.lookup(&[0b1010_1101]), Some(0));
        assert_eq!(ts.lookup(&[0b0000_0100]), None);
    }

    #[test]
    fn symbolic_cells_rejected() {
        let v = TableView {
            widths: vec![8],
            rows: vec![vec![Value::sym("nope")]],
        };
        assert_eq!(TupleSpace::build(&v).unwrap_err(), BadCell);
    }

    #[test]
    fn empty_table() {
        let v = TableView {
            widths: vec![8],
            rows: vec![],
        };
        let ts = TupleSpace::build(&v).unwrap();
        assert_eq!(ts.lookup(&[0]), None);
        assert_eq!(ts.stats().tuples, 1);
    }
}
