//! Data-plane encoding-size accounting (§2 "Redundancy").
//!
//! The paper quantifies redundancy by the number of *match-action fields* a
//! representation occupies: Fig. 1a's universal table holds 6 entries × 4
//! attributes = 24 fields, the goto-normalized pipeline of Fig. 1b only 21;
//! parametrically, `N` services × `M` backends cost `4MN` fields universal
//! vs `N(3 + 2M)` normalized. This module computes those counts, plus a
//! TCAM-bit estimate (entries × total match width, the unit of [21, 23]'s
//! space concerns).

use crate::pipeline::Pipeline;
use crate::table::Table;

/// Size of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSize {
    /// Table name.
    pub(crate) name: String,
    /// Number of entries.
    pub(crate) entries: usize,
    /// Number of match columns.
    pub(crate) match_attrs: usize,
    /// Number of action columns.
    pub(crate) action_attrs: usize,
    /// entries × (match + action columns) — the §2 metric.
    pub(crate) fields: usize,
    /// entries × Σ match-column widths: bits of TCAM value array consumed
    /// (mask bits double this on real hardware; the factor is representation-
    /// independent so we report value bits).
    pub(crate) tcam_bits: usize,
}

/// Size of a whole pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeReport {
    /// Per-table breakdown, in pipeline order.
    pub tables: Vec<TableSize>,
}

impl SizeReport {
    /// Measure a pipeline.
    pub fn of(p: &Pipeline) -> SizeReport {
        SizeReport {
            tables: p.tables.iter().map(|t| table_size(p, t)).collect(),
        }
    }

    /// Total §2 field count.
    pub fn fields(&self) -> usize {
        self.tables.iter().map(|t| t.fields).sum()
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.tables.iter().map(|t| t.entries).sum()
    }

    /// Total TCAM value bits.
    pub fn tcam_bits(&self) -> usize {
        self.tables.iter().map(|t| t.tcam_bits).sum()
    }
}

fn table_size(p: &Pipeline, t: &Table) -> TableSize {
    let match_width: usize = t
        .match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width as usize)
        .sum();
    TableSize {
        name: t.name.clone(),
        entries: t.len(),
        match_attrs: t.match_attrs.len(),
        action_attrs: t.action_attrs.len(),
        fields: t.field_count(),
        tcam_bits: t.len() * match_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{ActionSem, Catalog};
    use crate::table::Table;
    use crate::value::Value;

    #[test]
    fn counts_fields_and_bits() {
        let mut c = Catalog::new();
        let f = c.field("f", 32);
        let g = c.field("g", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        for i in 0..5 {
            t.row(vec![Value::Int(i), Value::Int(i)], vec![Value::sym("p")]);
        }
        let p = Pipeline::single(c, t);
        let r = SizeReport::of(&p);
        assert_eq!(r.entries(), 5);
        assert_eq!(r.fields(), 15); // 5 × (2 + 1)
        assert_eq!(r.tcam_bits(), 5 * 48);
        assert_eq!(r.tables[0].match_attrs, 2);
        assert_eq!(r.tables[0].action_attrs, 1);
    }
}
