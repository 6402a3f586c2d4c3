//! Packet-classifier templates.
//!
//! The data structures a datapath instantiates per match-action table,
//! and the shape analysis that picks among them (ESwitch's datapath
//! specialization, §5 of the paper):
//!
//! * [`ExactTable`] — one hash probe; all-exact tables.
//! * [`LpmTrie`] — longest-prefix match; single prefix-column tables.
//! * [`TupleSpace`] — OVS/Lagopus-style tuple space search; anything.
//! * [`LinearTernary`] — priority linear scan; the slow generic fallback.
//! * [`TcamModel`] — ternary semantics with parallel lookup and capacity
//!   accounting; the hardware switch's match engine.
//!
//! All templates implement [`Classifier`] and agree with the reference
//! first-match semantics of [`TableView::linear_lookup`] on the table
//! shapes they accept (property-tested in the workspace test suite).

pub(crate) mod exact;
pub(crate) mod linear;
pub(crate) mod trie;
pub(crate) mod tss;
pub(crate) mod view;

pub use exact::{ExactTable, NotExact};
pub use linear::{LinearTernary, TcamFull, TcamModel};
pub use trie::{LpmTrie, NotLpm};
pub use tss::{BadCell, TupleSpace};
pub use view::{table_shape, TableShape, TableView};
pub(crate) use view::{MatchRow, Rows};

/// What kind of template a classifier is (for cost models and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Exact-match hash table.
    Exact,
    /// Longest-prefix-match trie.
    Lpm,
    /// Tuple space search.
    Tss,
    /// Linear ternary scan.
    Linear,
    /// TCAM (parallel ternary match).
    Tcam,
}

impl std::fmt::Display for TemplateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TemplateKind::Exact => "exact",
            TemplateKind::Lpm => "lpm",
            TemplateKind::Tss => "tss",
            TemplateKind::Linear => "linear",
            TemplateKind::Tcam => "tcam",
        })
    }
}

/// Structural parameters of a classifier instance, consumed by the switch
/// models' cost functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupStats {
    /// Template kind.
    pub(crate) kind: TemplateKind,
    /// Rules stored.
    pub(crate) entries: usize,
    /// Hash groups probed per lookup (TSS) — 1 elsewhere.
    pub(crate) tuples: usize,
    /// Sequential steps per lookup: trie depth, scan length, or 1.
    pub(crate) depth: usize,
    /// Columns participating in the key.
    pub(crate) key_cols: usize,
}

/// A built packet classifier over fixed match columns.
///
/// `key` supplies one value per match column of the source table (in
/// column order); the result is the matched entry's index (= priority
/// rank), if any.
pub trait Classifier {
    /// Look up the highest-priority matching entry.
    fn lookup(&self, key: &[u64]) -> Option<usize>;
    /// Structural parameters for cost modeling.
    fn stats(&self) -> LookupStats;
}

/// A boxed classifier selected by shape: exact where possible, then LPM,
/// then the generic fallback (`generic` picks TSS or linear scan).
pub fn build_specialized(
    view: &TableView,
    generic: TemplateKind,
) -> Box<dyn Classifier + Send + Sync> {
    match table_shape(view) {
        TableShape::AllExact { .. } => Box::new(ExactTable::build(view).expect("shape checked")),
        TableShape::SinglePrefix { .. } => Box::new(LpmTrie::build(view).expect("shape checked")),
        TableShape::General => build_generic(view, generic),
    }
}

/// Build the generic classifier of the given kind (TSS or linear; other
/// kinds fall back to linear semantics).
pub(crate) fn build_generic(
    view: &TableView,
    kind: TemplateKind,
) -> Box<dyn Classifier + Send + Sync> {
    match kind {
        TemplateKind::Tss => Box::new(TupleSpace::build(view).expect("no symbolic match cells")),
        _ => Box::new(LinearTernary::build(view)),
    }
}

/// The stats each build function's classifier reports, read off the rows
/// without building it (what a cost model needs after every flow-mod).
/// The `build_*` functions above stay the reference the tests hold these
/// to.
impl<R: MatchRow> Rows<'_, R> {
    /// `build_specialized(view, generic).stats()`; `shape` is
    /// [`Rows::shape`].
    pub(crate) fn specialized_stats(
        &self,
        shape: &TableShape,
        generic: TemplateKind,
    ) -> LookupStats {
        match shape {
            TableShape::AllExact { cols } => LookupStats {
                kind: TemplateKind::Exact,
                entries: self.len(),
                tuples: 1,
                depth: 1,
                key_cols: cols.len(),
            },
            TableShape::SinglePrefix { col } => LookupStats {
                kind: TemplateKind::Lpm,
                entries: self.len(),
                tuples: 1,
                depth: self.longest_prefix(*col).max(1),
                key_cols: 1,
            },
            TableShape::General => self.generic_stats(generic),
        }
    }

    /// `build_generic(view, kind).stats()`.
    pub(crate) fn generic_stats(&self, kind: TemplateKind) -> LookupStats {
        match kind {
            TemplateKind::Tss => LookupStats {
                kind: TemplateKind::Tss,
                entries: self.len(),
                tuples: tss::mask_tuples(self).max(1),
                depth: 1,
                key_cols: if self.is_empty() { 0 } else { self.cols() },
            },
            _ => LookupStats {
                kind: TemplateKind::Linear,
                entries: self.len(),
                tuples: 1,
                depth: self.len().max(1),
                key_cols: self.cols(),
            },
        }
    }

    /// `TcamModel::build(view, capacity)?.stats()`.
    pub(crate) fn tcam_stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Tcam,
            entries: self.len(),
            tuples: 1,
            depth: 1,
            key_cols: self.cols(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::Value;

    #[test]
    fn specialization_picks_expected_templates() {
        let exact = TableView {
            widths: vec![16],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        assert_eq!(
            build_specialized(&exact, TemplateKind::Linear).stats().kind,
            TemplateKind::Exact
        );
        let lpm = TableView {
            widths: vec![32],
            rows: vec![vec![Value::prefix(0, 1, 32)]],
        };
        assert_eq!(
            build_specialized(&lpm, TemplateKind::Linear).stats().kind,
            TemplateKind::Lpm
        );
        let general = TableView {
            widths: vec![32, 16],
            rows: vec![vec![Value::prefix(0, 1, 32), Value::Int(5)]],
        };
        assert_eq!(
            build_specialized(&general, TemplateKind::Linear)
                .stats()
                .kind,
            TemplateKind::Linear
        );
        assert_eq!(
            build_specialized(&general, TemplateKind::Tss).stats().kind,
            TemplateKind::Tss
        );
    }

    #[test]
    fn stats_read_off_the_rows_equal_the_built_classifiers() {
        let view = |widths: &[u32], rows: Vec<Vec<Value>>| TableView {
            widths: widths.to_vec(),
            rows,
        };
        let pfx = |bits, len| Value::prefix(bits, len, 32);
        let views = [
            view(&[32], vec![]),
            view(&[], vec![vec![], vec![]]),
            view(&[16], vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
            view(
                &[32, 16, 8],
                vec![
                    vec![Value::Int(1), Value::Int(80), Value::Any],
                    vec![Value::Int(2), Value::Int(443), Value::Any],
                ],
            ),
            view(
                &[32],
                vec![
                    vec![pfx(0xc000_0000, 2)],
                    vec![Value::Int(7)],
                    vec![Value::Any],
                ],
            ),
            view(&[32], vec![vec![pfx(0, 1)], vec![pfx(0, 2)]]),
            view(
                &[32, 16],
                vec![
                    vec![pfx(0, 1), Value::Int(5)],
                    vec![pfx(0x8000_0000, 1), Value::Int(5)],
                    vec![Value::Any, Value::Ternary { bits: 1, mask: 5 }],
                    vec![Value::Int(3), Value::Int(6)],
                ],
            ),
        ];
        for view in &views {
            let rows = view.as_rows();
            let shape = rows.shape();
            for generic in [TemplateKind::Linear, TemplateKind::Tss] {
                let built = build_specialized(view, generic).stats();
                assert_eq!(rows.specialized_stats(&shape, generic), built, "{view:?}");
            }
            for kind in [
                TemplateKind::Exact,
                TemplateKind::Lpm,
                TemplateKind::Tss,
                TemplateKind::Linear,
                TemplateKind::Tcam,
            ] {
                let built = build_generic(view, kind).stats();
                assert_eq!(rows.generic_stats(kind), built, "{view:?} {kind}");
            }
            let tcam = TcamModel::build(view, usize::MAX).unwrap().stats();
            assert_eq!(rows.tcam_stats(), tcam, "{view:?}");
        }
    }

    #[test]
    fn a_tables_entries_read_in_place_are_its_view() {
        use mapro_core::{ActionSem, Catalog, Table};
        let mut c = Catalog::new();
        let f = c.field("f", 32);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(9), Value::Any], vec![Value::sym("a")]);
        t.row(
            vec![Value::prefix(0, 1, 32), Value::Any],
            vec![Value::sym("b")],
        );
        let view = TableView::of(&t, &c);
        let rows = Rows {
            widths: &view.widths,
            rows: &t.entries,
        };
        assert_eq!(rows.shape(), table_shape(&view));
        assert_eq!(rows.shape(), TableShape::SinglePrefix { col: 0 });
        assert_eq!(rows.ternary_rows(), view.as_rows().ternary_rows());
        assert_eq!(rows.active_cols(), vec![0]);
    }
}
