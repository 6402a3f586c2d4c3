//! # mapro-lint — symbolic static analysis for match-action programs
//!
//! A linter over the relational program model of *Normal Forms for
//! Match-Action Programs* (CoNEXT'19). Every pass analyzes the
//! [`Pipeline`] — tables, entries, the jump graph, mined dependencies —
//! without evaluating a single packet:
//!
//! * [`entries`] — shadowed and dead entries, proved by the ternary-cover
//!   algebra (`Value::as_ternary` / `Value::subsumes` in `mapro-core`,
//!   lifted to whole-entry cubes in [`cover`]).
//! * [`graph`] — unknown jump targets, unreachable tables, reachable goto
//!   cycles, and metadata-tag hygiene.
//! * [`redundancy`] — the paper's normal-form theory as diagnostics:
//!   2NF/3NF/BCNF violations with the concrete Heath decomposition
//!   `mapro normalize` would apply as the suggested fix, and the Fig. 3
//!   action-to-match hazard.
//! * [`capacity`] — TCAM entry/width budgets via the TCAM resource model
//!   of `mapro_switch::cls`.
//!
//! Findings carry a stable lint id from [`CATALOGUE`], a severity, and
//! table/entry provenance; [`LintReport`] renders as human text or as the
//! JSON that CI goldens diff against. `Error`-severity lints are reserved
//! for provably wasted or broken program text, so a normalized,
//! equivalence-checked pipeline lints clean at that level (property-tested
//! in `tests/lint_guard.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod cover;
pub mod diag;
pub mod entries;
pub mod graph;
pub mod redundancy;

pub use capacity::check_capacity;
pub use cover::{Cube, Tern};
pub use diag::{lint_info, Diagnostic, LintInfo, LintReport, Overrides, Severity, CATALOGUE};
pub use entries::check_entries;
pub use graph::check_graph;
pub use redundancy::{check_redundancy, DeclaredFd};

use mapro_core::Pipeline;

/// Tunables for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Modeled TCAM entry capacity per table (default 4096).
    pub tcam_capacity_entries: usize,
    /// Modeled TCAM per-slice match width in bits (default 640).
    pub tcam_slice_bits: u32,
    /// Model-level dependencies the author declares to hold, unioned with
    /// the mined ones before normal-form analysis.
    pub declared_fds: Vec<DeclaredFd>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            tcam_capacity_entries: 4096,
            tcam_slice_bits: 640,
            declared_fds: Vec::new(),
        }
    }
}

/// Run every pass over `p` and aggregate the findings.
///
/// Passes run in a fixed order (entries, graph, redundancy, capacity) so
/// the report is deterministic for a given program — a requirement for the
/// golden-file CI job.
pub fn lint(p: &Pipeline, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    {
        let _t = mapro_obs::time!("lint.pass_ns");
        check_entries(p, cfg, &mut report);
    }
    {
        let _t = mapro_obs::time!("lint.pass_ns");
        check_graph(p, &mut report);
    }
    {
        let _t = mapro_obs::time!("lint.pass_ns");
        check_redundancy(p, cfg, &mut report);
    }
    {
        let _t = mapro_obs::time!("lint.pass_ns");
        check_capacity(p, cfg, &mut report);
    }
    mapro_obs::counter!("lint.findings").add(report.diagnostics.len() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_lint_without_errors() {
        // The figures are legal programs: redundant (that is the paper's
        // point) but with nothing provably dead or broken.
        for (name, p) in [
            ("fig1", mapro_workloads::Gwlb::fig1().universal),
            ("fig2", mapro_workloads::L3::fig2().universal),
            ("fig3", mapro_workloads::Vlan::fig3().universal),
            ("fig5", mapro_workloads::Sdx::fig5().universal),
            (
                "enterprise",
                mapro_workloads::Enterprise::random(12, 3, 5).pipeline,
            ),
        ] {
            let r = lint(&p, &LintConfig::default());
            assert_eq!(r.count(Severity::Error), 0, "{name}: {}", r.to_text());
        }
    }

    #[test]
    fn fig1_reports_ip_to_tcp_redundancy() {
        // In the literal Fig. 1a instance ip_dst ↔ tcp_dst holds both ways,
        // so each is prime and the finding lands at the BCNF level.
        let r = lint(
            &mapro_workloads::Gwlb::fig1().universal,
            &LintConfig::default(),
        );
        assert!(
            r.with_lint("bcnf-dependency")
                .any(|d| d.message.contains("ip_dst") && d.message.contains("tcp_dst")),
            "{}",
            r.to_text()
        );
    }

    #[test]
    fn unnormalized_random_gwlb_reports_decomposable_redundancy() {
        let r = lint(
            &mapro_workloads::Gwlb::random(6, 4, 7).universal,
            &LintConfig::default(),
        );
        let nf_findings = r.with_lint("partial-dependency").count()
            + r.with_lint("transitive-dependency").count()
            + r.with_lint("bcnf-dependency").count();
        assert!(nf_findings > 0, "{}", r.to_text());
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = lint(
            &mapro_workloads::Vlan::fig3().universal,
            &LintConfig::default(),
        );
        let j = r.to_json();
        let back: LintReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.diagnostics, r.diagnostics);
    }
}
