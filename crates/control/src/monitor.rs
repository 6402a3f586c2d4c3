//! Per-rule counters — the monitorability experiment (§2).
//!
//! Monitoring tenant 2's aggregate traffic needs 3 counters (plus a
//! controller-side sum) on the universal table but a single counter on the
//! normalized pipeline's first stage. [`CounterSet`] attaches counters to
//! `(table, entry)` pairs and accumulates them from verdicts; the
//! *monitorability metric* of a query is simply how many rules the
//! counter set must span in a given representation.

use mapro_core::Verdict;
use std::collections::HashMap;

/// A set of per-rule counters.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    /// Monitored rules: `(table name, entry index)`.
    pub(crate) rules: Vec<(String, usize)>,
    counts: HashMap<(String, usize), u64>,
}

impl CounterSet {
    /// Attach counters to the given rules.
    pub fn new(rules: Vec<(String, usize)>) -> CounterSet {
        CounterSet {
            rules,
            counts: HashMap::new(),
        }
    }

    /// The §2 monitorability metric: counters (rules) the query needs.
    pub fn counters_needed(&self) -> usize {
        self.rules.len()
    }

    /// Account one packet's verdict.
    pub fn observe(&mut self, v: &Verdict) {
        for (t, hit) in v.path.iter().zip(&v.hits) {
            if let Some(row) = hit {
                if self.rules.iter().any(|(rt, rr)| rt == t && rr == row) {
                    *self.counts.entry((t.clone(), *row)).or_insert(0) += 1;
                }
            }
        }
    }

    /// Controller-side readback: sum all monitored counters. The *effort*
    /// is one read per counter (readings returned individually to mirror
    /// the paper's "add up the readings in a separate step").
    pub fn readings(&self) -> Vec<((String, usize), u64)> {
        self.rules
            .iter()
            .map(|r| (r.clone(), self.counts.get(r).copied().unwrap_or(0)))
            .collect()
    }

    /// The aggregate the query wanted.
    pub fn aggregate(&self) -> u64 {
        self.readings().into_iter().map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Packet, Pipeline, Table, Value};

    fn pipeline() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for i in 0..4u64 {
            t.row(vec![Value::Int(i)], vec![Value::sym(format!("p{i}"))]);
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn counters_accumulate_only_monitored_rules() {
        let p = pipeline();
        let mut cs = CounterSet::new(vec![("t".into(), 1), ("t".into(), 2)]);
        assert_eq!(cs.counters_needed(), 2);
        for f in [0u64, 1, 1, 2, 3, 1] {
            let v = p
                .run(&Packet::from_fields(&p.catalog, &[("f", f)]))
                .unwrap();
            cs.observe(&v);
        }
        assert_eq!(cs.aggregate(), 4); // three f=1 + one f=2
        let r = cs.readings();
        assert_eq!(r[0].1, 3);
        assert_eq!(r[1].1, 1);
    }

    #[test]
    fn missed_packets_not_counted() {
        let p = pipeline();
        let mut cs = CounterSet::new(vec![("t".into(), 0)]);
        let v = p
            .run(&Packet::from_fields(&p.catalog, &[("f", 99)]))
            .unwrap();
        cs.observe(&v);
        assert_eq!(cs.aggregate(), 0);
    }
}
