//! The diagnostic model: lint identities, severities, provenance, and the
//! report they aggregate into.
//!
//! Every pass emits [`Diagnostic`]s into a [`LintReport`]. A diagnostic
//! carries a stable machine-readable lint id (the catalogue lives in
//! [`CATALOGUE`]), a severity, table/entry provenance, a human message,
//! and — where the analyzer knows the concrete repair — a suggestion
//! (e.g. the Heath decomposition `mapro normalize` would apply).

use std::fmt;

/// How serious a finding is.
///
/// `Error` findings are provably wasted or wrong program text (an entry no
/// packet can reach, a jump to a nonexistent table); `Warn` findings are
/// hazards and redundancy the paper's theory says should be decomposed
/// away; `Info` findings are observations (e.g. a BCNF-only violation the
/// paper explicitly stops short of fixing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation; no action required.
    Info,
    /// Hazard or removable redundancy.
    Warn,
    /// Provably dead or broken program text.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

// Serialized as the lowercase name (the vendored serde shim has no
// `rename_all` support, so the impls are written out).
impl serde::Serialize for Severity {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

impl serde::Deserialize for Severity {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Str(s) => match s.as_str() {
                "info" => Ok(Severity::Info),
                "warn" => Ok(Severity::Warn),
                "error" => Ok(Severity::Error),
                other => Err(serde::DeError::msg(format!("unknown severity {other:?}"))),
            },
            other => Err(serde::DeError::expected("severity string", other)),
        }
    }
}

/// One entry of the lint catalogue: id, default severity, one-line doc.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable machine-readable id (`kebab-case`).
    pub id: &'static str,
    /// Default severity (overridable with `-A`/`-W`/`-D`).
    pub(crate) default_severity: Severity,
}

/// The full lint catalogue, in reporting order.
///
/// Kept as data so the CLI can validate `-A`/`-W`/`-D` arguments; the
/// comment above each entry says what the lint detects.
pub const CATALOGUE: &[LintInfo] = &[
    // entry fully covered by a single higher-priority entry; it can never fire
    LintInfo {
        id: "shadowed-entry",
        default_severity: Severity::Error,
    },
    // entry covered by the union of higher-priority entries, or unsatisfiable
    LintInfo {
        id: "dead-entry",
        default_severity: Severity::Error,
    },
    // union-cover liveness left undecided: the table's decision diagram outgrew the node arena
    LintInfo {
        id: "undecided-liveness",
        default_severity: Severity::Info,
    },
    // goto/next/fall-through names a table that does not exist
    LintInfo {
        id: "unknown-goto-target",
        default_severity: Severity::Error,
    },
    // the jump graph has a reachable cycle; evaluation can exceed its step budget
    LintInfo {
        id: "goto-cycle",
        default_severity: Severity::Error,
    },
    // no jump-graph path from the start table reaches this table
    LintInfo {
        id: "unreachable-table",
        default_severity: Severity::Warn,
    },
    // metadata field written by a reachable entry but matched nowhere
    LintInfo {
        id: "meta-never-matched",
        default_severity: Severity::Warn,
    },
    // metadata field matched non-trivially but never written (always zero)
    LintInfo {
        id: "meta-never-written",
        default_severity: Severity::Warn,
    },
    // two entries overlap: the table is order-dependent (violates 1NF)
    LintInfo {
        id: "overlapping-entries",
        default_severity: Severity::Warn,
    },
    // FD from part of a candidate key to a non-prime attribute (violates 2NF)
    LintInfo {
        id: "partial-dependency",
        default_severity: Severity::Warn,
    },
    // transitive FD to a non-prime attribute (violates 3NF)
    LintInfo {
        id: "transitive-dependency",
        default_severity: Severity::Warn,
    },
    // non-superkey determinant among prime attributes (violates BCNF only)
    LintInfo {
        id: "bcnf-dependency",
        default_severity: Severity::Info,
    },
    // violating FD has actions determining match fields; decomposition would break 1NF (Fig. 3) and is refused
    LintInfo {
        id: "action-to-match-dependency",
        default_severity: Severity::Warn,
    },
    // a declared FD names attributes the table does not have; it was ignored
    LintInfo {
        id: "unknown-declared-fd",
        default_severity: Severity::Warn,
    },
    // table exceeds the modeled TCAM entry capacity
    LintInfo {
        id: "tcam-capacity",
        default_severity: Severity::Warn,
    },
    // per-entry match width exceeds the modeled TCAM slice width
    LintInfo {
        id: "tcam-width",
        default_severity: Severity::Warn,
    },
];

/// Look up a catalogue entry by id.
pub(crate) fn lint_info(id: &str) -> Option<&'static LintInfo> {
    CATALOGUE.iter().find(|l| l.id == id)
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Catalogue id (see [`CATALOGUE`]).
    pub lint: String,
    /// Effective severity (default, unless overridden).
    pub severity: Severity,
    /// Table the finding is about, if table-scoped.
    pub table: Option<String>,
    /// Entry (row index, priority order) the finding is about, if
    /// entry-scoped.
    pub entry: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Concrete repair, when the analyzer knows one (e.g. the Heath
    /// decomposition `mapro normalize` would apply).
    pub(crate) suggestion: Option<String>,
}

// Absent provenance fields are omitted from the JSON rather than emitted
// as nulls (keeps the CI golden files readable), which the derive shim
// cannot express — hence manual impls.
impl serde::Serialize for Diagnostic {
    fn to_content(&self) -> serde::Content {
        let mut m = vec![
            ("lint".to_owned(), serde::Content::Str(self.lint.clone())),
            ("severity".to_owned(), self.severity.to_content()),
        ];
        if let Some(t) = &self.table {
            m.push(("table".to_owned(), serde::Content::Str(t.clone())));
        }
        if let Some(e) = self.entry {
            m.push(("entry".to_owned(), serde::Content::U64(e as u64)));
        }
        m.push((
            "message".to_owned(),
            serde::Content::Str(self.message.clone()),
        ));
        if let Some(s) = &self.suggestion {
            m.push(("suggestion".to_owned(), serde::Content::Str(s.clone())));
        }
        serde::Content::Map(m)
    }
}

impl serde::Deserialize for Diagnostic {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let str_field = |k: &str| -> Result<String, serde::DeError> {
            match c.get(k) {
                Some(serde::Content::Str(s)) => Ok(s.clone()),
                Some(other) => Err(serde::DeError::expected(k, other)),
                None => Err(serde::DeError::msg(format!("missing field {k:?}"))),
            }
        };
        let opt_str = |k: &str| match c.get(k) {
            Some(serde::Content::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let entry = match c.get("entry") {
            Some(&serde::Content::U64(e)) => Some(e as usize),
            Some(&serde::Content::I64(e)) => Some(e as usize),
            _ => None,
        };
        Ok(Diagnostic {
            lint: str_field("lint")?,
            severity: Severity::from_content(
                c.get("severity")
                    .ok_or_else(|| serde::DeError::msg("missing field \"severity\""))?,
            )?,
            table: opt_str("table"),
            entry,
            message: str_field("message")?,
            suggestion: opt_str("suggestion"),
        })
    }
}

impl Diagnostic {
    /// Build a diagnostic at the lint's default severity.
    ///
    /// # Panics
    /// Panics if `lint` is not in the catalogue (a pass bug, not input).
    pub(crate) fn new(lint: &'static str, message: impl Into<String>) -> Diagnostic {
        let info = lint_info(lint).unwrap_or_else(|| panic!("lint {lint:?} not in CATALOGUE"));
        Diagnostic {
            lint: lint.to_owned(),
            severity: info.default_severity,
            table: None,
            entry: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach table provenance.
    pub(crate) fn table(mut self, t: impl Into<String>) -> Self {
        self.table = Some(t.into());
        self
    }

    /// Attach entry provenance.
    pub(crate) fn entry(mut self, row: usize) -> Self {
        self.entry = Some(row);
        self
    }

    /// Attach a repair suggestion.
    pub(crate) fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        match (&self.table, self.entry) {
            (Some(t), Some(e)) => write!(f, " {t}#{e}")?,
            (Some(t), None) => write!(f, " {t}")?,
            _ => {}
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

/// Per-lint severity overrides (`-A` allow, `-W` warn, `-D` deny), applied
/// after all passes run.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Lints to drop entirely.
    pub allow: Vec<String>,
    /// Lints forced down to `Warn`.
    pub warn: Vec<String>,
    /// Lints forced up to `Error`.
    pub deny: Vec<String>,
    /// Treat every surviving `Warn` as `Error` (`--deny warn`).
    pub deny_warnings: bool,
}

impl Overrides {
    /// The first referenced lint id that is not in the catalogue, if any
    /// (a usage error for the CLI to report).
    pub fn unknown_lint(&self) -> Option<&str> {
        self.allow
            .iter()
            .chain(&self.warn)
            .chain(&self.deny)
            .map(String::as_str)
            .find(|id| lint_info(id).is_none())
    }
}

/// The aggregated result of a lint run.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct LintReport {
    /// All findings, in pass order (deterministic for a given program).
    pub diagnostics: Vec<Diagnostic>,
    /// How many liveness questions the run left undecided: liveness is
    /// exact decision-diagram subtraction, so only a table whose diagram
    /// outgrows the node arena leaves any; each undecided question also
    /// appears as an `undecided-liveness` diagnostic.
    pub unknown_findings: usize,
}

impl LintReport {
    /// Apply severity overrides: allows drop findings, warns/denies
    /// re-level them, and `deny_warnings` promotes the remaining warns.
    pub fn apply(&mut self, o: &Overrides) {
        self.diagnostics.retain(|d| !o.allow.contains(&d.lint));
        for d in &mut self.diagnostics {
            if o.warn.contains(&d.lint) {
                d.severity = Severity::Warn;
            }
            if o.deny.contains(&d.lint) {
                d.severity = Severity::Error;
            }
            if o.deny_warnings && d.severity == Severity::Warn {
                d.severity = Severity::Error;
            }
        }
    }

    /// Count of findings at the given severity.
    pub fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when any finding is `Error`-severity.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Findings with the given lint id.
    pub fn with_lint<'a>(&'a self, id: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.lint == id)
    }

    /// The report as pretty JSON (stable field order, findings in pass
    /// order) — the machine interface CI goldens diff against.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The report as human-readable text, one finding per stanza, with a
    /// trailing summary line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} findings: {} error, {} warn, {} info, {} unknown",
            self.diagnostics.len(),
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
            self.unknown_findings,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_ids_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for l in CATALOGUE {
            assert!(seen.insert(l.id), "duplicate lint id {}", l.id);
            assert!(
                l.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} not kebab-case",
                l.id
            );
        }
    }

    #[test]
    fn overrides_relevel_and_drop() {
        let mut r = LintReport::default();
        r.diagnostics.push(Diagnostic::new("shadowed-entry", "x"));
        r.diagnostics
            .push(Diagnostic::new("unreachable-table", "y"));
        r.diagnostics.push(Diagnostic::new("bcnf-dependency", "z"));
        let o = Overrides {
            allow: vec!["shadowed-entry".into()],
            deny: vec!["bcnf-dependency".into()],
            deny_warnings: true,
            ..Default::default()
        };
        r.apply(&o);
        assert_eq!(r.diagnostics.len(), 2);
        // unreachable-table: warn → error via deny_warnings.
        assert_eq!(r.count(Severity::Error), 2);
        assert!(r.has_errors());
    }

    #[test]
    fn unknown_override_detected() {
        let o = Overrides {
            warn: vec!["no-such-lint".into()],
            ..Default::default()
        };
        assert_eq!(o.unknown_lint(), Some("no-such-lint"));
    }

    #[test]
    fn display_carries_provenance_and_help() {
        let d = Diagnostic::new("dead-entry", "covered")
            .table("t0")
            .entry(3)
            .suggest("remove it");
        let s = d.to_string();
        assert!(s.contains("error[dead-entry] t0#3: covered"), "{s}");
        assert!(s.contains("= help: remove it"), "{s}");
    }
}
