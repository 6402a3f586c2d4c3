//! Update-atomicity hazards: the "halfway-exposed service" of §2.
//!
//! If a data plane "incorrectly implements atomic updates or does not
//! support atomic updates at all", the intermediate states of a multi-
//! flow-mod plan become externally visible. This module enumerates those
//! states and checks a caller-supplied invariant in each: the number of
//! violating intermediate states is the consistency-exposure metric —
//! zero for single-update plans (the normalized representation's virtue).

use mapro_core::{apply_prefix, ApplyError, Pipeline, UpdatePlan};

/// An invariant over data-plane state: `Err(reason)` when violated.
pub(crate) type Invariant<'a> = &'a dyn Fn(&Pipeline) -> Result<(), String>;

/// Result of a consistency scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExposureReport {
    /// Prefix lengths (1‥len-1) whose intermediate state violates the
    /// invariant, with the reason.
    pub violations: Vec<(usize, String)>,
    /// Total intermediate states examined.
    pub intermediate_states: usize,
}

impl ExposureReport {
    /// True when no intermediate state violates the invariant — the plan
    /// is safe even on a non-atomic switch.
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check every *intermediate* state of a plan (proper non-empty prefixes).
/// The initial and final states are assumed valid (they are the intent's
/// endpoints) but are validated too, with index 0 and `len`.
pub fn exposure(
    p: &Pipeline,
    plan: &UpdatePlan,
    invariant: Invariant<'_>,
) -> Result<ExposureReport, ApplyError> {
    let n = plan.updates.len();
    let mut violations = Vec::new();
    for k in 1..n {
        let state = apply_prefix(p, plan, k)?;
        if let Err(reason) = invariant(&state) {
            violations.push((k, reason));
        }
    }
    Ok(ExposureReport {
        violations,
        intermediate_states: n.saturating_sub(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::RuleUpdate;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    /// Two-entry service table; invariant: the service must be reachable on
    /// exactly one port value across its entries.
    fn setup() -> (Pipeline, mapro_core::AttrId) {
        let mut c = Catalog::new();
        let port = c.field("port", 16);
        let src = c.field("src", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("svc", vec![port, src], vec![out]);
        t.row(vec![Value::Int(80), Value::Int(0)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(80), Value::Int(1)], vec![Value::sym("b")]);
        (Pipeline::single(c, t), port)
    }

    fn one_port_invariant(p: &Pipeline) -> Result<(), String> {
        let t = p.table("svc").unwrap();
        let ports: std::collections::HashSet<_> =
            t.entries.iter().map(|e| e.matches[0].clone()).collect();
        if ports.len() == 1 {
            Ok(())
        } else {
            Err(format!("service exposed on {} ports", ports.len()))
        }
    }

    fn move_port_plan(port: mapro_core::AttrId) -> UpdatePlan {
        UpdatePlan {
            intent: "move service 80 → 443".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "svc".into(),
                    matches: vec![Value::Int(80), Value::Int(0)],
                    set: vec![(port, Value::Int(443))],
                },
                RuleUpdate::Modify {
                    table: "svc".into(),
                    matches: vec![Value::Int(80), Value::Int(1)],
                    set: vec![(port, Value::Int(443))],
                },
            ],
        }
    }

    #[test]
    fn multi_update_plan_is_exposed() {
        let (p, port) = setup();
        let plan = move_port_plan(port);
        let r = exposure(&p, &plan, &one_port_invariant).unwrap();
        assert_eq!(r.intermediate_states, 1);
        assert!(!r.safe());
        assert_eq!(r.violations[0].0, 1);
        assert!(r.violations[0].1.contains("2 ports"));
    }

    #[test]
    fn single_update_plan_is_safe() {
        let (p, port) = setup();
        let plan = UpdatePlan {
            intent: "single-entry change".into(),
            updates: vec![RuleUpdate::Modify {
                table: "svc".into(),
                matches: vec![Value::Int(80), Value::Int(0)],
                set: vec![(port, Value::Int(80))], // no-op flavour
            }],
        };
        let r = exposure(&p, &plan, &one_port_invariant).unwrap();
        assert_eq!(r.intermediate_states, 0);
        assert!(r.safe());
    }
}
