//! Capacity lints against the TCAM resource model of `mapro_switch::cls`.
//!
//! The paper's §2 motivates normalization partly by TCAM space: a
//! universal table multiplies out its factors and blows the entry budget,
//! and wide compound keys exceed the device's per-slice match width. This
//! pass re-uses [`mapro_switch::cls::TcamModel`]'s accounting to report
//! both statically.

use crate::diag::{Diagnostic, LintReport};
use crate::LintConfig;
use mapro_core::Pipeline;
use mapro_switch::cls::{TableView, TcamModel};

/// Check every table against the configured TCAM entry capacity and slice
/// width.
pub(crate) fn check_capacity(p: &Pipeline, cfg: &LintConfig, out: &mut LintReport) {
    for t in &p.tables {
        let view = TableView::of(t, &p.catalog);
        match TcamModel::build(&view, cfg.tcam_capacity_entries) {
            Err(full) => {
                out.diagnostics.push(
                    Diagnostic::new("tcam-capacity", full.to_string())
                        .table(&t.name)
                        .suggest(
                            "normalize the table: decomposed stages hold the factors, \
                             not their product",
                        ),
                );
            }
            Ok(model) => {
                // Track the modeled bit footprint even when within budget.
                mapro_obs::gauge!("lint.tcam_bits").add(model.bits_used() as i64);
            }
        }
        let row_bits: u32 = view.widths.iter().sum();
        if row_bits > cfg.tcam_slice_bits {
            out.diagnostics.push(
                Diagnostic::new(
                    "tcam-width",
                    format!(
                        "match key is {row_bits} bits; the modeled TCAM slice is {} bits",
                        cfg.tcam_slice_bits
                    ),
                )
                .table(&t.name)
                .suggest("decompose along an FD to split the compound key across stages"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    fn lint(p: &Pipeline, cfg: &LintConfig) -> LintReport {
        let mut r = LintReport::default();
        check_capacity(p, cfg, &mut r);
        r
    }

    #[test]
    fn capacity_exceeded_reported() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for i in 0..5 {
            t.row(vec![Value::Int(i)], vec![Value::sym("p")]);
        }
        let p = Pipeline::single(c, t);
        let cfg = LintConfig {
            tcam_capacity_entries: 4,
            ..Default::default()
        };
        let r = lint(&p, &cfg);
        let d: Vec<_> = r.with_lint("tcam-capacity").collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("5 entries requested, 4 available"));
    }

    #[test]
    fn wide_key_reported() {
        let mut c = Catalog::new();
        let a = c.field("a", 48);
        let b = c.field("b", 48);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![a, b], vec![out]);
        t.row(vec![Value::Int(1), Value::Int(2)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        let cfg = LintConfig {
            tcam_slice_bits: 64,
            ..Default::default()
        };
        let r = lint(&p, &cfg);
        assert_eq!(r.with_lint("tcam-width").count(), 1);
    }

    #[test]
    fn within_budget_is_clean() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("p")]);
        let p = Pipeline::single(c, t);
        assert!(lint(&p, &LintConfig::default()).diagnostics.is_empty());
    }
}
