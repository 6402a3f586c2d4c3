//! Longest-prefix-match binary trie template.
//!
//! ESwitch's "efficient longest-prefix-matching template" (§5) for tables
//! whose shape is a single LPM-safe prefix column: the decomposed GWLB
//! pipeline's per-tenant load-balancing stages, classic IP FIBs, etc.

use crate::cls::view::{TableShape, TableView};
use crate::cls::{Classifier, LookupStats, TemplateKind};
use mapro_core::Value;

#[derive(Debug, Clone, Default)]
struct Node {
    child: [Option<u32>; 2],
    entry: Option<u32>,
}

/// Binary trie over one prefix column.
#[derive(Debug, Clone)]
pub struct LpmTrie {
    col: usize,
    width: u32,
    nodes: Vec<Node>,
    entries: usize,
    max_depth: usize,
}

/// Error building an [`LpmTrie`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotLpm;

impl std::fmt::Display for NotLpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table is not a single LPM-safe prefix column")
    }
}

impl std::error::Error for NotLpm {}

impl LpmTrie {
    /// Build from a view; fails unless the shape is
    /// [`TableShape::SinglePrefix`].
    pub fn build(view: &TableView) -> Result<LpmTrie, NotLpm> {
        let col = match crate::cls::view::table_shape(view) {
            TableShape::SinglePrefix { col } => col,
            _ => return Err(NotLpm),
        };
        let width = view.widths[col];
        let mut t = LpmTrie {
            col,
            width,
            nodes: vec![Node::default()],
            entries: view.len(),
            max_depth: 0,
        };
        for (i, row) in view.rows.iter().enumerate() {
            let (bits, len) = match row[col] {
                Value::Int(v) => (v, width as u8),
                Value::Prefix { bits, len } => (bits, len),
                Value::Any => (0, 0),
                _ => return Err(NotLpm),
            };
            t.insert(bits, len, i as u32);
        }
        Ok(t)
    }

    fn insert(&mut self, bits: u64, len: u8, entry: u32) {
        let mut cur = 0usize;
        for d in 0..len {
            let bit = ((bits >> (self.width - 1 - u32::from(d))) & 1) as usize;
            let next = match self.nodes[cur].child[bit] {
                Some(n) => n as usize,
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[cur].child[bit] = Some(id);
                    id as usize
                }
            };
            cur = next;
        }
        self.max_depth = self.max_depth.max(len as usize);
        // LPM-safety guarantees at most one entry per node (unique rows);
        // keep the higher-priority one defensively.
        if self.nodes[cur].entry.is_none() {
            self.nodes[cur].entry = Some(entry);
        }
    }
}

impl Classifier for LpmTrie {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        mapro_obs::counter!("classifier.trie.lookups").inc();
        let _t = mapro_obs::time!("classifier.trie.lookup_ns");
        let v = key[self.col];
        let mut cur = 0usize;
        let mut best = self.nodes[0].entry;
        let mut depth = 0u64;
        for d in 0..self.width {
            let bit = ((v >> (self.width - 1 - d)) & 1) as usize;
            match self.nodes[cur].child[bit] {
                None => break,
                Some(n) => {
                    depth += 1;
                    cur = n as usize;
                    if let Some(e) = self.nodes[cur].entry {
                        best = Some(e);
                    }
                }
            }
        }
        mapro_obs::counter!("classifier.trie.probes").add(depth);
        best.map(|e| e as usize)
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Lpm,
            entries: self.entries,
            tuples: 1,
            depth: self.max_depth.max(1),
            key_cols: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(bits: u64, len: u8) -> Value {
        Value::prefix(bits, len, 32)
    }

    fn view(rows: Vec<Value>) -> TableView {
        TableView {
            widths: vec![32],
            rows: rows.into_iter().map(|v| vec![v]).collect(),
        }
    }

    #[test]
    fn longest_prefix_wins() {
        // /2 before /1 (LPM-safe order).
        let v = view(vec![pv(0xc000_0000, 2), pv(0x8000_0000, 1), pv(0, 0)]);
        let t = LpmTrie::build(&v).unwrap();
        assert_eq!(t.lookup(&[0xc123_4567]), Some(0)); // 11…
        assert_eq!(t.lookup(&[0x8123_4567]), Some(1)); // 10…
        assert_eq!(t.lookup(&[0x0123_4567]), Some(2)); // 0…
    }

    #[test]
    fn disjoint_prefixes() {
        let v = view(vec![pv(0, 1), pv(0x8000_0000, 2), pv(0xc000_0000, 2)]);
        let t = LpmTrie::build(&v).unwrap();
        assert_eq!(t.lookup(&[0x4000_0000]), Some(0));
        assert_eq!(t.lookup(&[0xa000_0000]), Some(1));
        assert_eq!(t.lookup(&[0xd000_0000]), Some(2));
    }

    #[test]
    fn miss_when_nothing_covers() {
        let v = view(vec![pv(0x8000_0000, 1)]);
        let t = LpmTrie::build(&v).unwrap();
        assert_eq!(t.lookup(&[0x1000_0000]), None);
    }

    #[test]
    fn exact_values_are_host_prefixes() {
        let v = view(vec![Value::Int(42), pv(0, 0)]);
        let t = LpmTrie::build(&v).unwrap();
        assert_eq!(t.lookup(&[42]), Some(0));
        assert_eq!(t.lookup(&[43]), Some(1));
    }

    #[test]
    fn rejects_unsafe_order() {
        // 0/1 before 0/2: General shape.
        let v = view(vec![pv(0, 1), pv(0, 2)]);
        assert!(matches!(LpmTrie::build(&v), Err(NotLpm)));
    }

    #[test]
    fn agrees_with_reference_on_safe_tables() {
        let v = view(vec![
            pv(0x0000_0000, 2), // 00
            pv(0x4000_0000, 2), // 01
            pv(0x8000_0000, 1), // 1
        ]);
        let t = LpmTrie::build(&v).unwrap();
        for key in [0u64, 0x4fff_ffff, 0x9999_9999, 0xffff_ffff] {
            assert_eq!(t.lookup(&[key]), v.linear_lookup(&[key]), "key {key:#x}");
        }
        assert_eq!(t.stats().kind, TemplateKind::Lpm);
        assert_eq!(t.stats().depth, 2);
    }
}
