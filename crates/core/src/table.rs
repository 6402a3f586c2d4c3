//! Match-action tables.
//!
//! A [`Table`] is simultaneously two things, mirroring the paper's dual view:
//!
//! 1. **A relation** (§3): a set of rows over an attribute set drawn from a
//!    [`Catalog`], where match columns hold predicates-as-values and action
//!    columns hold action parameters. The relational operations used by
//!    normalization — projection with duplicate elimination, constant-column
//!    detection, key/FD analysis (in `mapro-fd`) — see this view.
//! 2. **A packet classifier**: entries are consulted in order (order implies
//!    priority); the first entry whose predicates all match fires, otherwise
//!    the table's miss policy applies.
//!
//! The *first normal form* (1NF) requires the two views to coincide: rows
//! must be unique on the match columns and **order-independent** (no packet
//! can match two entries), so that the classifier's behaviour does not
//! depend on entry order. [`Table::order_independence`] checks this.

use crate::attr::{AttrId, Catalog};
use crate::value::Value;
use std::collections::HashSet;

/// One row of a match-action table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Entry {
    /// Predicates, parallel to [`Table::match_attrs`].
    pub matches: Vec<Value>,
    /// Action parameters, parallel to [`Table::action_attrs`].
    /// [`Value::Any`] denotes "this action is a no-op in this entry".
    pub actions: Vec<Value>,
}

impl Entry {
    /// Build an entry from match and action cells.
    pub fn new(matches: Vec<Value>, actions: Vec<Value>) -> Self {
        Entry { matches, actions }
    }
}

/// What a table does with packets that match no entry.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum MissPolicy {
    /// Drop the packet (OpenFlow default).
    #[default]
    Drop,
    /// Punt the packet to the controller.
    Controller,
    /// Continue processing at the named table (OVS `resubmit` style).
    Fall(String),
}

/// A match-action table.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table {
    /// Table name; unique within a pipeline, referenced by `Goto` actions.
    pub name: String,
    /// Match columns (field/meta attributes).
    pub match_attrs: Vec<AttrId>,
    /// Action columns (action attributes).
    pub action_attrs: Vec<AttrId>,
    /// Rows, in priority order (earlier = higher priority).
    pub entries: Vec<Entry>,
    /// Behaviour on miss.
    pub miss: MissPolicy,
    /// Table to continue at after a hit whose entry performs no `Goto`
    /// (implicit sequential chaining, as in Fig. 1c/1d where the goto jumps
    /// are omitted). `None` means processing ends after this table.
    pub next: Option<String>,
}

/// A violation of 1NF order-independence: two entries whose predicates
/// overlap, so some packet would match both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overlap {
    /// Index of the higher-priority entry.
    pub first: usize,
    /// Index of the lower-priority entry.
    pub second: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new(
        name: impl Into<String>,
        match_attrs: Vec<AttrId>,
        action_attrs: Vec<AttrId>,
    ) -> Self {
        Table {
            name: name.into(),
            match_attrs,
            action_attrs,
            entries: Vec::new(),
            miss: MissPolicy::Drop,
            next: None,
        }
    }

    /// Append an entry (lowest priority so far).
    ///
    /// # Panics
    /// Panics if the cell counts do not line up with the schema.
    pub fn push(&mut self, entry: Entry) {
        assert_eq!(
            entry.matches.len(),
            self.match_attrs.len(),
            "table {}: match arity mismatch",
            self.name
        );
        assert_eq!(
            entry.actions.len(),
            self.action_attrs.len(),
            "table {}: action arity mismatch",
            self.name
        );
        self.entries.push(entry);
    }

    /// Convenience: append an entry from raw cell vectors.
    pub fn row(&mut self, matches: Vec<Value>, actions: Vec<Value>) {
        self.push(Entry::new(matches, actions));
    }

    /// All attributes of the relation, match columns first.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut v = self.match_attrs.clone();
        v.extend_from_slice(&self.action_attrs);
        v
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cell of row `row` at attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is not a column of this table.
    pub fn cell(&self, row: usize, attr: AttrId) -> &Value {
        if let Some(i) = self.match_attrs.iter().position(|&a| a == attr) {
            &self.entries[row].matches[i]
        } else if let Some(i) = self.action_attrs.iter().position(|&a| a == attr) {
            &self.entries[row].actions[i]
        } else {
            panic!("attribute {attr} is not a column of table {}", self.name)
        }
    }

    /// The full tuple of row `row` over the given attribute list.
    pub fn tuple(&self, row: usize, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.cell(row, a).clone()).collect()
    }

    /// Index of the column holding `attr`, if present, along with whether it
    /// is a match column.
    pub fn column_of(&self, attr: AttrId) -> Option<(usize, bool)> {
        if let Some(i) = self.match_attrs.iter().position(|&a| a == attr) {
            Some((i, true))
        } else {
            self.action_attrs
                .iter()
                .position(|&a| a == attr)
                .map(|i| (i, false))
        }
    }

    /// First (highest-priority) entry matching the packet's field values.
    ///
    /// `field` maps a match attribute to the packet's value for it.
    pub(crate) fn lookup_with(
        &self,
        catalog: &Catalog,
        field: impl Fn(AttrId) -> u64,
    ) -> Option<usize> {
        'entry: for (i, e) in self.entries.iter().enumerate() {
            for (j, &attr) in self.match_attrs.iter().enumerate() {
                let width = catalog.attr(attr).width;
                if !e.matches[j].matches(field(attr), width) {
                    continue 'entry;
                }
            }
            return Some(i);
        }
        None
    }

    /// Check 1NF *order-independence*: return every pair of entries whose
    /// predicates overlap on all match columns (§3, and the failure mode of
    /// Fig. 3).
    ///
    /// Quadratic in the number of entries; the tables normalization handles
    /// are control-plane-sized, not datapath-cache-sized.
    pub fn order_independence(&self, catalog: &Catalog) -> Vec<Overlap> {
        let widths: Vec<u32> = self
            .match_attrs
            .iter()
            .map(|&a| catalog.attr(a).width)
            .collect();
        let mut out = Vec::new();
        for i in 0..self.entries.len() {
            for j in i + 1..self.entries.len() {
                let overlap = self.match_attrs.iter().enumerate().all(|(k, _)| {
                    self.entries[i].matches[k].intersects(&self.entries[j].matches[k], widths[k])
                });
                if overlap {
                    out.push(Overlap {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        out
    }

    /// True iff no two entries share identical match tuples (row uniqueness,
    /// the weaker of the two 1NF conditions).
    pub fn rows_unique(&self) -> bool {
        let mut seen = HashSet::new();
        self.entries.iter().all(|e| seen.insert(&e.matches))
    }

    /// Project the relation onto `attrs`, eliminating duplicate rows while
    /// preserving first-occurrence order.
    ///
    /// This is the relational π of Heath's theorem (§4): decomposing `T`
    /// along `X → Y` builds `π_{X∪Y}(T)` and `π_{X∪Z}(T)`.
    ///
    /// The projected table keeps each attribute's role (match vs action) and
    /// inherits nothing else: miss policy and chaining are the decomposer's
    /// business.
    pub fn project(&self, catalog: &Catalog, name: impl Into<String>, attrs: &[AttrId]) -> Table {
        let match_attrs: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|&a| catalog.attr(a).kind.is_matchable())
            .collect();
        let action_attrs: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|&a| catalog.attr(a).kind.is_action())
            .collect();
        let mut t = Table::new(name, match_attrs, action_attrs);
        let mut seen = HashSet::new();
        for row in 0..self.entries.len() {
            let m = t
                .match_attrs
                .iter()
                .map(|&a| self.cell(row, a).clone())
                .collect::<Vec<_>>();
            let a = t
                .action_attrs
                .iter()
                .map(|&a| self.cell(row, a).clone())
                .collect::<Vec<_>>();
            if seen.insert((m.clone(), a.clone())) {
                t.push(Entry::new(m, a));
            }
        }
        t
    }

    /// Attributes whose cell holds the same value in every row, with that
    /// value. Empty tables have no constant columns.
    ///
    /// Constant columns are what the Cartesian-product factoring of Fig. 2c
    /// extracts into a standalone single-row table.
    pub fn constant_columns(&self) -> Vec<(AttrId, Value)> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &attr in self.attrs().iter() {
            let v0 = self.cell(0, attr);
            if (1..self.entries.len()).all(|r| self.cell(r, attr) == v0) {
                out.push((attr, v0.clone()));
            }
        }
        out
    }

    /// Total number of match-action *fields* (cells) in the table — the
    /// paper's §2 encoding-size metric (Fig. 1a has 6 × 4 = 24 fields).
    pub(crate) fn field_count(&self) -> usize {
        self.entries.len() * (self.match_attrs.len() + self.action_attrs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{ActionSem, Catalog};

    fn tiny() -> (Catalog, Table) {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(1), Value::Int(10)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2), Value::Int(10)], vec![Value::sym("b")]);
        t.row(vec![Value::Int(3), Value::Int(20)], vec![Value::sym("a")]);
        (c, t)
    }

    #[test]
    fn lookup_first_match_wins() {
        let (c, mut t) = tiny();
        // Add an overlapping lower-priority row.
        t.row(vec![Value::Any, Value::Any], vec![Value::sym("z")]);
        let hit = t.lookup_with(&c, |a| match c.name(a) {
            "f" => 1,
            "g" => 10,
            _ => 0,
        });
        assert_eq!(hit, Some(0));
        let miss_all = t.lookup_with(&c, |_| 99);
        assert_eq!(miss_all, Some(3)); // wildcard row
    }

    #[test]
    fn lookup_miss() {
        let (c, t) = tiny();
        assert_eq!(t.lookup_with(&c, |_| 99), None);
    }

    #[test]
    fn order_independence_detects_overlap() {
        let (c, mut t) = tiny();
        assert!(t.order_independence(&c).is_empty());
        t.row(vec![Value::Int(1), Value::Any], vec![Value::sym("z")]);
        let ov = t.order_independence(&c);
        assert_eq!(
            ov,
            vec![Overlap {
                first: 0,
                second: 3
            }]
        );
    }

    #[test]
    fn rows_unique_detects_duplicates() {
        let (_, mut t) = tiny();
        assert!(t.rows_unique());
        t.row(vec![Value::Int(1), Value::Int(10)], vec![Value::sym("q")]);
        assert!(!t.rows_unique());
    }

    #[test]
    fn projection_deduplicates() {
        let (c, t) = tiny();
        let g = c.lookup("g").unwrap();
        let out = c.lookup("out").unwrap();
        let p = t.project(&c, "p", &[g, out]);
        assert_eq!(p.match_attrs, vec![g]);
        assert_eq!(p.action_attrs, vec![out]);
        assert_eq!(p.len(), 3); // (10,a),(10,b),(20,a) — all distinct
        let p2 = t.project(&c, "p2", &[g]);
        assert_eq!(p2.len(), 2); // 10, 20
    }

    #[test]
    fn constant_columns_found() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let k = c.field("k", 8);
        let mut t = Table::new("t", vec![f, k], vec![]);
        t.row(vec![Value::Int(1), Value::Int(7)], vec![]);
        t.row(vec![Value::Int(2), Value::Int(7)], vec![]);
        assert_eq!(t.constant_columns(), vec![(k, Value::Int(7))]);
    }

    #[test]
    fn field_count_matches_paper_metric() {
        let (_, t) = tiny();
        assert_eq!(t.field_count(), 9); // 3 entries × 3 attrs
    }

    #[test]
    #[should_panic(expected = "match arity mismatch")]
    fn arity_checked() {
        let (_, mut t) = tiny();
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
    }

    #[test]
    fn cell_and_tuple_access() {
        let (c, t) = tiny();
        let f = c.lookup("f").unwrap();
        let out = c.lookup("out").unwrap();
        assert_eq!(t.cell(1, f), &Value::Int(2));
        assert_eq!(t.cell(1, out), &Value::sym("b"));
        assert_eq!(t.tuple(0, &[out, f]), vec![Value::sym("a"), Value::Int(1)]);
    }
}
