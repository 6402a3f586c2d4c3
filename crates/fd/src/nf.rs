//! Normal-form analysis of match-action tables (§3).
//!
//! * **1NF** — the table is a set of uniquely-identified, order-independent
//!   entries (checked structurally on the instance).
//! * **2NF** — 1NF, and no FD from a *proper subset of a candidate key* to a
//!   non-prime attribute (Fig. 1a fails: `ip_dst → tcp_dst` with `ip_dst ⊊
//!   (ip_src, ip_dst)` and `tcp_dst` non-prime).
//! * **3NF** — 2NF, and no transitive dependency: every nontrivial `X → A`
//!   with non-prime `A` has `X` a superkey (Fig. 2b fails: `out → mod_smac`
//!   between non-prime attributes).
//! * **BCNF** — every nontrivial `X → A` has `X` a superkey (mentioned in
//!   §3 as the next step the paper stops short of; we implement the check).

use crate::fd::{Fd, FdSet};
use crate::mine::mine_fds;
use crate::set::AttrSet;
use mapro_core::{Catalog, Table};

/// How far up the normal-form ladder a table gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NfLevel {
    /// Entries are not uniquely identified by their match fields, or the
    /// table is not order-independent.
    NotFirst,
    /// 1NF but not 2NF.
    First,
    /// 2NF but not 3NF.
    Second,
    /// 3NF but not BCNF.
    Third,
    /// Boyce–Codd normal form.
    BoyceCodd,
}

impl std::fmt::Display for NfLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NfLevel::NotFirst => "not in 1NF",
            NfLevel::First => "1NF",
            NfLevel::Second => "2NF",
            NfLevel::Third => "3NF",
            NfLevel::BoyceCodd => "BCNF",
        };
        f.write_str(s)
    }
}

/// Why a table is not in 1NF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirstNfIssue {
    /// Two entries share the same match-field tuple.
    DuplicateMatch,
    /// Two entries overlap: some packet would match both (Fig. 3's failure).
    OrderDependent {
        /// Higher-priority entry index.
        first: usize,
        /// Lower-priority entry index.
        second: usize,
    },
}

/// Full normal-form report for one table.
#[derive(Debug, Clone)]
pub struct NfReport {
    /// Mined (or supplied) minimal dependencies.
    pub fds: FdSet,
    /// Candidate keys.
    pub keys: Vec<AttrSet>,
    /// 1NF structural problems (empty when in 1NF).
    pub first_issues: Vec<FirstNfIssue>,
    /// FDs witnessing a 2NF violation (partial dependencies).
    pub partial_deps: Vec<Fd>,
    /// FDs witnessing a 3NF violation (transitive dependencies).
    /// Includes the partial dependencies, which also violate 3NF.
    pub transitive_deps: Vec<Fd>,
    /// FDs witnessing a BCNF violation.
    pub bcnf_deps: Vec<Fd>,
    /// The classification.
    pub level: NfLevel,
}

/// Analyze a table against the paper's normal forms, mining dependencies
/// from the instance.
pub fn analyze(table: &Table, catalog: &Catalog) -> NfReport {
    let mined = mine_fds(table, catalog);
    analyze_with(table, catalog, mined.fds)
}

/// Like [`analyze`] but with a caller-supplied dependency set (the paper's
/// "inherently encoded" model-level dependencies).
pub fn analyze_with(table: &Table, catalog: &Catalog, fds: FdSet) -> NfReport {
    let keys = fds.candidate_keys();
    let prime = keys.iter().copied().fold(AttrSet::EMPTY, AttrSet::union);

    let mut first_issues = Vec::new();
    if !table.rows_unique() {
        first_issues.push(FirstNfIssue::DuplicateMatch);
    }
    for ov in table.order_independence(catalog) {
        first_issues.push(FirstNfIssue::OrderDependent {
            first: ov.first,
            second: ov.second,
        });
    }

    let mut partial = Vec::new();
    let mut transitive = Vec::new();
    let mut bcnf = Vec::new();
    for &fd in fds.fds() {
        if fd.is_trivial() {
            continue;
        }
        let superkey = fds.is_superkey(fd.lhs);
        let rhs_nonprime = !fd.rhs.minus(fd.lhs).minus(prime).is_empty();
        if !superkey {
            bcnf.push(fd);
            if rhs_nonprime {
                // 3NF: X not a superkey and A non-prime.
                transitive.push(fd);
                // 2NF additionally needs X ⊊ some candidate key.
                if keys.iter().any(|&k| fd.lhs.proper_subset_of(k)) {
                    partial.push(fd);
                }
            }
        }
    }

    let level = if !first_issues.is_empty() {
        NfLevel::NotFirst
    } else if !partial.is_empty() {
        NfLevel::First
    } else if !transitive.is_empty() {
        NfLevel::Second
    } else if !bcnf.is_empty() {
        NfLevel::Third
    } else {
        NfLevel::BoyceCodd
    };

    NfReport {
        fds,
        keys,
        first_issues,
        partial_deps: partial,
        transitive_deps: transitive,
        bcnf_deps: bcnf,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, AttrId, Catalog, Table, Value};

    /// A miniature of Fig. 1a: (src, dst) key; dst → port; out per row.
    /// Universe positions: 0=src, 1=dst, 2=port, 3=out.
    fn fig1_like() -> (Catalog, Table) {
        let mut c = Catalog::new();
        let src = c.field("src", 8);
        let dst = c.field("dst", 8);
        let port = c.field("port", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![src, dst, port], vec![out]);
        // Note the port collision across dst values (two services on port
        // 80): without it, port ↔ dst would hold bidirectionally in the
        // instance, making every attribute prime and the table 3NF.
        t.row(
            vec![Value::Int(0), Value::Int(1), Value::Int(80)],
            vec![Value::sym("vm1")],
        );
        t.row(
            vec![Value::Int(1), Value::Int(1), Value::Int(80)],
            vec![Value::sym("vm2")],
        );
        t.row(
            vec![Value::Int(0), Value::Int(2), Value::Int(80)],
            vec![Value::sym("vm3")],
        );
        t.row(
            vec![Value::Int(1), Value::Int(2), Value::Int(80)],
            vec![Value::sym("vm4")],
        );
        t.row(
            vec![Value::Int(0), Value::Int(3), Value::Int(22)],
            vec![Value::sym("vm5")],
        );
        (c, t)
    }

    #[test]
    fn fig1_like_is_first_not_second() {
        let (c, t) = fig1_like();
        let r = analyze(&t, &c);
        assert!(r.first_issues.is_empty());
        assert_eq!(r.level, NfLevel::First);
        // The witnessing partial dependency is dst → port.
        let dst = r.fds.universe.encode(&[AttrId(1)]);
        let port = r.fds.universe.encode(&[AttrId(2)]);
        assert!(r.partial_deps.contains(&Fd::new(dst, port)));
        // Keys: (src,dst) and (out). out is prime.
        let key1 = r.fds.universe.encode(&[AttrId(0), AttrId(1)]);
        let key2 = r.fds.universe.encode(&[AttrId(3)]);
        assert!(r.keys.contains(&key1));
        assert!(r.keys.contains(&key2));
    }

    #[test]
    fn key_may_contain_actions() {
        let (c, t) = fig1_like();
        let r = analyze(&t, &c);
        // Paper §3: (out) is a key even though out is an action.
        let out_only = r.fds.universe.encode(&[AttrId(3)]);
        assert!(r.keys.contains(&out_only));
    }

    #[test]
    fn transitive_violation_detected() {
        // key → b, b → c: classic 2NF-but-not-3NF (single-attribute key, so
        // no partial dependency is possible).
        let mut cat = Catalog::new();
        let k = cat.field("k", 8);
        let b = cat.field("b", 8);
        let cc = cat.field("c", 8);
        let mut t = Table::new("t", vec![k, b, cc], vec![]);
        t.row(vec![Value::Int(1), Value::Int(1), Value::Int(9)], vec![]);
        t.row(vec![Value::Int(2), Value::Int(1), Value::Int(9)], vec![]);
        t.row(vec![Value::Int(3), Value::Int(2), Value::Int(8)], vec![]);
        let r = analyze(&t, &cat);
        assert_eq!(r.level, NfLevel::Second);
        let bm = r.fds.universe.encode(&[AttrId(1)]);
        let cm = r.fds.universe.encode(&[AttrId(2)]);
        assert!(r.transitive_deps.contains(&Fd::new(bm, cm)));
        assert!(r.partial_deps.is_empty());
    }

    #[test]
    fn bcnf_when_only_key_dependencies() {
        let mut cat = Catalog::new();
        let k = cat.field("k", 8);
        let v = cat.field("v", 8);
        let mut t = Table::new("t", vec![k, v], vec![]);
        t.row(vec![Value::Int(1), Value::Int(10)], vec![]);
        t.row(vec![Value::Int(2), Value::Int(20)], vec![]);
        t.row(vec![Value::Int(3), Value::Int(10)], vec![]);
        let r = analyze(&t, &cat);
        assert_eq!(r.level, NfLevel::BoyceCodd);
        assert!(r.bcnf_deps.is_empty());
    }

    #[test]
    fn third_but_not_bcnf() {
        // Classic: R(street, city, zip) with (street, city) → zip and
        // zip → city. Keys: {street, city} and {street, zip}; all prime →
        // 3NF holds, BCNF fails on zip → city.
        let mut cat = Catalog::new();
        let street = cat.field("street", 8);
        let city = cat.field("city", 8);
        let zip = cat.field("zip", 8);
        let mut t = Table::new("t", vec![street, city, zip], vec![]);
        t.row(vec![Value::Int(1), Value::Int(1), Value::Int(10)], vec![]);
        t.row(vec![Value::Int(2), Value::Int(1), Value::Int(10)], vec![]);
        t.row(vec![Value::Int(1), Value::Int(2), Value::Int(20)], vec![]);
        let r = analyze(&t, &cat);
        assert_eq!(r.level, NfLevel::Third);
        let zm = r.fds.universe.encode(&[AttrId(2)]);
        let cm = r.fds.universe.encode(&[AttrId(1)]);
        assert!(r.bcnf_deps.contains(&Fd::new(zm, cm)));
    }

    #[test]
    fn order_dependence_breaks_1nf() {
        let mut cat = Catalog::new();
        let f = cat.field("f", 8);
        let out = cat.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Any], vec![Value::sym("b")]);
        let r = analyze(&t, &cat);
        assert_eq!(r.level, NfLevel::NotFirst);
        assert!(r
            .first_issues
            .iter()
            .any(|i| matches!(i, FirstNfIssue::OrderDependent { .. })));
    }

    #[test]
    fn duplicate_match_breaks_1nf() {
        let mut cat = Catalog::new();
        let f = cat.field("f", 8);
        let out = cat.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(1)], vec![Value::sym("b")]);
        let r = analyze(&t, &cat);
        assert!(r.first_issues.contains(&FirstNfIssue::DuplicateMatch));
        assert_eq!(r.level, NfLevel::NotFirst);
    }
}
