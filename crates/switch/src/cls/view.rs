//! A classifier-facing view of a match-action table, and its *shape*.
//!
//! ESwitch's datapath specialization (§5, \[24\]) "instantiates each
//! match-action table with the most efficient packet classifier template
//! possible": an all-exact table becomes a hash lookup, a single-field
//! prefix table becomes an LPM trie, anything else falls back to the slow
//! generic wildcard classifier. [`TableShape`] is that analysis; the
//! concrete templates live in the sibling modules.
//!
//! The analysis reads [`Rows`]: match rows borrowed in place, either a
//! [`TableView`]'s own or a table's entries, so a datapath recompiling a
//! table after a flow-mod copies none of them.

use mapro_core::{Catalog, Entry, Table, Value};

/// The match-relevant content of a table: column widths and predicate
/// rows, in priority order. Classifiers build from this.
#[derive(Debug, Clone, PartialEq)]
pub struct TableView {
    /// Bit width per match column.
    pub widths: Vec<u32>,
    /// Predicate rows (one per entry, priority = index).
    pub(crate) rows: Vec<Vec<Value>>,
}

/// One row of match predicates, one per match column.
pub(crate) trait MatchRow {
    /// The predicates.
    fn cells(&self) -> &[Value];
}

impl MatchRow for Vec<Value> {
    fn cells(&self) -> &[Value] {
        self
    }
}

impl MatchRow for Entry {
    fn cells(&self) -> &[Value] {
        &self.matches
    }
}

/// Match rows read in place: column widths and rows in priority order.
/// What [`table_shape`], the ternary cells and the template stats
/// (`Rows::{specialized, generic, tcam}_stats`) read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a, R> {
    /// Bit width per match column.
    pub(crate) widths: &'a [u32],
    /// Rows (priority = index).
    pub(crate) rows: &'a [R],
}

impl<R: MatchRow> Rows<'_, R> {
    /// Number of match columns.
    pub(crate) fn cols(&self) -> usize {
        self.widths.len()
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column(&self, c: usize) -> impl Iterator<Item = &Value> + Clone {
        self.rows.iter().map(move |r| &r.cells()[c])
    }

    /// Columns that actually constrain packets (not `Any` in every row).
    pub(crate) fn active_cols(&self) -> Vec<usize> {
        (0..self.cols())
            .filter(|&c| self.column(c).any(|v| !matches!(v, Value::Any)))
            .collect()
    }

    /// Canonical ternary form of every row, flattened row-major as
    /// `(bits, mask)` pairs (`rows × cols` entries). `None` when any cell
    /// is symbolic (no ternary form). A compiled scan over this flat
    /// array is equivalent to [`TableView::linear_lookup`]: a cell
    /// matches `v` iff `(v ^ bits) & mask == 0`.
    pub(crate) fn ternary_rows(&self) -> Option<Vec<(u64, u64)>> {
        let mut cells = Vec::with_capacity(self.len() * self.cols());
        for row in self.rows {
            for (v, &w) in row.cells().iter().zip(self.widths) {
                cells.push(v.as_ternary(w)?);
            }
        }
        Some(cells)
    }

    /// The structural class of these rows. See [`TableShape`].
    pub(crate) fn shape(&self) -> TableShape {
        let active = self.active_cols();
        // "Exact" columns may contain sporadic Any cells; those defeat a
        // plain hash (a hash key can't wildcard), so require Int everywhere.
        let strictly_exact = active
            .iter()
            .all(|&c| self.column(c).all(|v| matches!(v, Value::Int(_))));
        if active.is_empty() || strictly_exact {
            return TableShape::AllExact { cols: active };
        }
        if let [c] = active[..] {
            let prefix_like = self
                .column(c)
                .all(|v| matches!(v, Value::Prefix { .. } | Value::Int(_) | Value::Any));
            if prefix_like && self.lpm_safe(c) {
                return TableShape::SinglePrefix { col: c };
            }
        }
        TableShape::General
    }

    /// First-match order agrees with longest-prefix-match order: for every
    /// overlapping pair, the earlier (higher-priority) row is strictly
    /// longer.
    fn lpm_safe(&self, col: usize) -> bool {
        let w = self.widths[col];
        let mut earlier = self.column(col);
        while let Some(a) = earlier.next() {
            let later = earlier.clone();
            for b in later {
                if a.intersects(b, w) && prefix_len(a, w) <= prefix_len(b, w) {
                    return false;
                }
            }
        }
        true
    }

    /// The longest prefix in column `col` (an exact value is a host
    /// prefix, `Any` one of length 0): an LPM trie's depth.
    pub(crate) fn longest_prefix(&self, col: usize) -> usize {
        let w = self.widths[col];
        self.column(col)
            .map(|v| usize::from(prefix_len(v, w)))
            .max()
            .unwrap_or(0)
    }
}

/// Prefix length of a prefix-like cell of width `w`.
fn prefix_len(v: &Value, w: u32) -> u8 {
    match *v {
        Value::Int(_) => w as u8,
        Value::Prefix { len, .. } => len,
        _ => 0,
    }
}

impl TableView {
    /// Extract the view of `table`'s match columns.
    pub fn of(table: &Table, catalog: &Catalog) -> TableView {
        let widths = table
            .match_attrs
            .iter()
            .map(|&a| catalog.attr(a).width)
            .collect();
        let rows = table.entries.iter().map(|e| e.matches.clone()).collect();
        TableView { widths, rows }
    }

    /// The view's rows, borrowed.
    pub(crate) fn as_rows(&self) -> Rows<'_, Vec<Value>> {
        Rows {
            widths: &self.widths,
            rows: &self.rows,
        }
    }

    /// Number of match columns.
    pub(crate) fn cols(&self) -> usize {
        self.widths.len()
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Reference lookup: first (highest-priority) matching row. All
    /// template implementations must agree with this.
    pub fn linear_lookup(&self, key: &[u64]) -> Option<usize> {
        'row: for (i, row) in self.rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if !v.matches(key[c], self.widths[c]) {
                    continue 'row;
                }
            }
            return Some(i);
        }
        None
    }
}

/// The structural class that decides which template a specializing
/// datapath may instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableShape {
    /// Every active column is an exact value in every row → hash template.
    AllExact {
        /// The active columns (hash key positions).
        cols: Vec<usize>,
    },
    /// Exactly one active column, holding prefixes whose priority order is
    /// consistent with longest-prefix-match → LPM trie template.
    SinglePrefix {
        /// The prefix column.
        col: usize,
    },
    /// Anything else → generic wildcard classifier.
    General,
}

/// Classify a view. See [`TableShape`].
pub fn table_shape(view: &TableView) -> TableShape {
    view.as_rows().shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table};

    fn view(widths: &[u32], rows: Vec<Vec<Value>>) -> TableView {
        TableView {
            widths: widths.to_vec(),
            rows,
        }
    }

    #[test]
    fn all_exact_shape() {
        let v = view(
            &[32, 16],
            vec![
                vec![Value::Int(1), Value::Int(80)],
                vec![Value::Int(2), Value::Int(443)],
            ],
        );
        assert_eq!(table_shape(&v), TableShape::AllExact { cols: vec![0, 1] });
    }

    #[test]
    fn inactive_columns_ignored() {
        let v = view(
            &[32, 16],
            vec![
                vec![Value::Int(1), Value::Any],
                vec![Value::Int(2), Value::Any],
            ],
        );
        assert_eq!(table_shape(&v), TableShape::AllExact { cols: vec![0] });
    }

    #[test]
    fn sporadic_any_defeats_hash() {
        let v = view(&[32], vec![vec![Value::Int(1)], vec![Value::Any]]);
        // One active column, prefix-like (Any = /0), LPM-safe (Int=/32 first).
        assert_eq!(table_shape(&v), TableShape::SinglePrefix { col: 0 });
    }

    #[test]
    fn single_prefix_shape() {
        let v = view(
            &[32],
            vec![
                vec![Value::prefix(0x8000_0000, 1, 32)],
                vec![Value::prefix(0x0000_0000, 1, 32)],
            ],
        );
        assert_eq!(table_shape(&v), TableShape::SinglePrefix { col: 0 });
    }

    #[test]
    fn lpm_unsafe_order_is_general() {
        // 0* before 00*: first-match would hide the longer prefix.
        let v = view(
            &[32],
            vec![vec![Value::prefix(0, 1, 32)], vec![Value::prefix(0, 2, 32)]],
        );
        assert_eq!(table_shape(&v), TableShape::General);
    }

    #[test]
    fn multi_column_with_prefix_is_general() {
        // The paper's universal GWLB table: prefix + exact columns
        // simultaneously → only the slow wildcard template fits.
        let v = view(
            &[32, 32],
            vec![vec![Value::prefix(0, 1, 32), Value::Int(5)]],
        );
        assert_eq!(table_shape(&v), TableShape::General);
    }

    #[test]
    fn empty_table_is_all_exact_trivially() {
        let v = view(&[32], vec![]);
        assert_eq!(table_shape(&v), TableShape::AllExact { cols: vec![] });
    }

    #[test]
    fn view_extraction_and_reference_lookup() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(1), Value::Any], vec![Value::sym("a")]);
        t.row(vec![Value::Any, Value::Int(9)], vec![Value::sym("b")]);
        let v = TableView::of(&t, &c);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.linear_lookup(&[1, 0]), Some(0));
        assert_eq!(v.linear_lookup(&[2, 9]), Some(1));
        assert_eq!(v.linear_lookup(&[1, 9]), Some(0)); // priority
        assert_eq!(v.linear_lookup(&[2, 2]), None);
    }
}
