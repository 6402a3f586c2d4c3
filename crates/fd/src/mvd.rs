//! Multi-valued and join dependencies — the theory beyond 3NF.
//!
//! The paper's appendix shows an SDX pipeline whose decomposition "belongs
//! to the fourth and the fifth normal forms as it cannot be derived from
//! functional dependencies alone". The relevant machinery:
//!
//! * A **join dependency** `⋈{R₁, …, Rₖ}` holds in `T` iff joining the
//!   projections `π_{R₁}(T) ⋈ … ⋈ π_{Rₖ}(T)` reconstructs exactly `T`
//!   (losslessness of a k-way split).
//! * A **multi-valued dependency** `X ↠ Y` is the binary case
//!   `⋈{X∪Y, X∪(rest)}`.
//!
//! These checks power the E10 experiment (Fig. 5): the three-way
//! announcement/outbound/inbound split of the SDX table is lossless even
//! though no FD justifies it.

use crate::set::Universe;
use mapro_core::{AttrId, Table, Value};
use std::collections::{BTreeMap, HashSet};

/// A relation materialized as generic tuples, for join experiments.
///
/// Rows map attribute ids to values; all rows of one relation share the
/// same attribute set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rel {
    /// Attributes, sorted by id.
    pub attrs: Vec<AttrId>,
    /// Distinct rows.
    pub rows: Vec<BTreeMap<AttrId, Value>>,
}

impl Rel {
    /// Materialize a table's relation over all its attributes.
    pub fn from_table(table: &Table) -> Rel {
        let mut attrs = table.attrs();
        attrs.sort_unstable();
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for r in 0..table.len() {
            let row: BTreeMap<AttrId, Value> = attrs
                .iter()
                .map(|&a| (a, table.cell(r, a).clone()))
                .collect();
            if seen.insert(row.clone()) {
                rows.push(row);
            }
        }
        Rel { attrs, rows }
    }

    /// Project onto a subset of attributes, eliminating duplicates.
    pub fn project(&self, attrs: &[AttrId]) -> Rel {
        let mut keep: Vec<AttrId> = attrs.to_vec();
        keep.sort_unstable();
        keep.dedup();
        for a in &keep {
            assert!(
                self.attrs.contains(a),
                "projection attr {a} not in relation"
            );
        }
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for r in &self.rows {
            let row: BTreeMap<AttrId, Value> = keep.iter().map(|&a| (a, r[&a].clone())).collect();
            if seen.insert(row.clone()) {
                rows.push(row);
            }
        }
        Rel { attrs: keep, rows }
    }

    /// Natural join on shared attributes.
    pub fn join(&self, other: &Rel) -> Rel {
        let shared: Vec<AttrId> = self
            .attrs
            .iter()
            .copied()
            .filter(|a| other.attrs.contains(a))
            .collect();
        let mut attrs: Vec<AttrId> = self.attrs.clone();
        for &a in &other.attrs {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        attrs.sort_unstable();
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for l in &self.rows {
            for r in &other.rows {
                if shared.iter().all(|a| l[a] == r[a]) {
                    let mut row = l.clone();
                    for (k, v) in r {
                        row.insert(*k, v.clone());
                    }
                    if seen.insert(row.clone()) {
                        rows.push(row);
                    }
                }
            }
        }
        Rel { attrs, rows }
    }

    /// Set equality of relations (attribute sets and row sets).
    pub fn set_eq(&self, other: &Rel) -> bool {
        if self.attrs != other.attrs {
            return false;
        }
        let a: HashSet<_> = self.rows.iter().collect();
        let b: HashSet<_> = other.rows.iter().collect();
        a == b
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Does the join dependency `⋈ components` hold in `table`?
///
/// Every attribute of the table must appear in at least one component.
pub fn join_dependency_holds(table: &Table, components: &[Vec<AttrId>]) -> bool {
    let rel = Rel::from_table(table);
    let mut covered: HashSet<AttrId> = HashSet::new();
    for comp in components {
        covered.extend(comp.iter().copied());
    }
    for a in &rel.attrs {
        assert!(
            covered.contains(a),
            "join components must cover every attribute (missing {a})"
        );
    }
    let mut joined: Option<Rel> = None;
    for comp in components {
        let p = rel.project(comp);
        joined = Some(match joined {
            None => p,
            Some(j) => j.join(&p),
        });
    }
    match joined {
        None => rel.is_empty(),
        Some(j) => j.set_eq(&rel),
    }
}

/// Does the multi-valued dependency `X ↠ Y` hold in `table`?
///
/// Defined as the binary join dependency `⋈{X∪Y, X∪Z}` with `Z` the
/// remaining attributes.
pub fn mvd_holds(table: &Table, x: &[AttrId], y: &[AttrId]) -> bool {
    let attrs = table.attrs();
    let u = Universe::new(attrs.clone());
    let xs = u.encode(x);
    let ys = u.encode(y);
    let zs = u.full().minus(xs).minus(ys);
    let left = u.decode(xs.union(ys));
    let right = u.decode(xs.union(zs));
    join_dependency_holds(table, &[left, right])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{Catalog, Table};

    /// R(course, teacher, book): teachers and books independent given course.
    fn course_table(cross: bool) -> (Catalog, Table, Vec<AttrId>) {
        let mut c = Catalog::new();
        let course = c.field("course", 8);
        let teacher = c.field("teacher", 8);
        let book = c.field("book", 8);
        let mut t = Table::new("t", vec![course, teacher, book], vec![]);
        // course 1: teachers {1,2} × books {10,20}
        let rows: Vec<(u64, u64, u64)> = if cross {
            vec![(1, 1, 10), (1, 1, 20), (1, 2, 10), (1, 2, 20), (2, 3, 30)]
        } else {
            // Missing (1,2,20): not a cross product.
            vec![(1, 1, 10), (1, 1, 20), (1, 2, 10), (2, 3, 30)]
        };
        for (cv, tv, bv) in rows {
            t.row(vec![Value::Int(cv), Value::Int(tv), Value::Int(bv)], vec![]);
        }
        (c, t, vec![course, teacher, book])
    }

    #[test]
    fn mvd_holds_on_cross_product() {
        let (_c, t, ids) = course_table(true);
        assert!(mvd_holds(&t, &[ids[0]], &[ids[1]]));
        assert!(mvd_holds(&t, &[ids[0]], &[ids[2]])); // complementation
    }

    #[test]
    fn mvd_fails_without_cross_product() {
        let (_c, t, ids) = course_table(false);
        assert!(!mvd_holds(&t, &[ids[0]], &[ids[1]]));
    }

    #[test]
    fn join_dependency_binary_equals_mvd() {
        let (_c, t, ids) = course_table(true);
        assert!(join_dependency_holds(
            &t,
            &[vec![ids[0], ids[1]], vec![ids[0], ids[2]]]
        ));
        let (_c, t, ids) = course_table(false);
        assert!(!join_dependency_holds(
            &t,
            &[vec![ids[0], ids[1]], vec![ids[0], ids[2]]]
        ));
    }

    #[test]
    fn projection_and_join_roundtrip() {
        let (_c, t, ids) = course_table(true);
        let rel = Rel::from_table(&t);
        let p1 = rel.project(&[ids[0], ids[1]]);
        let p2 = rel.project(&[ids[0], ids[2]]);
        assert_eq!(p1.len(), 3); // (1,1),(1,2),(2,3)
        assert_eq!(p2.len(), 3); // (1,10),(1,20),(2,30)
        let j = p1.join(&p2);
        assert!(j.set_eq(&rel));
    }

    #[test]
    fn lossy_join_is_superset() {
        // Heath's converse: decomposing where no dependency holds produces
        // spurious tuples (the join is a strict superset).
        let (_c, t, ids) = course_table(false);
        let rel = Rel::from_table(&t);
        let j = rel
            .project(&[ids[0], ids[1]])
            .join(&rel.project(&[ids[0], ids[2]]));
        assert!(j.len() > rel.len());
        // Every original tuple survives.
        for r in &rel.rows {
            assert!(j.rows.contains(r));
        }
    }

    #[test]
    #[should_panic(expected = "must cover every attribute")]
    fn uncovered_attribute_rejected() {
        let (_c, t, ids) = course_table(true);
        join_dependency_holds(&t, &[vec![ids[0], ids[1]]]);
    }
}
