//! `e2e compare <runsA> <runsB>`: decide, per workload and end-to-end
//! metric, whether set B is no worse than set A within the bound
//! `BENCHMARK.json` fixes.

use crate::stats;
use serde::Content;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of A's median by which B's may be worse.
    pub bound: f64,
}

/// What `compare` needs of one untraced run record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload name.
    pub workload: String,
    /// `host_cores`, `threads`, `seed`, `profile`: what must agree.
    pub identity: Vec<(String, String)>,
    /// Digest of inputs and checked outputs.
    pub work_digest: String,
    /// Exact counts.
    pub counts: BTreeMap<String, u64>,
    /// Failed operations.
    pub failed: u64,
    /// End-to-end metric values.
    pub metrics: BTreeMap<String, f64>,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// B's median is within the bound of A's, and the spread is narrower
    /// than the bound (or every B run beats every A run).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict.
    Unresolved,
}

fn str_of(c: Option<&Content>) -> Option<&str> {
    match c {
        Some(Content::Str(s)) => Some(s),
        _ => None,
    }
}

fn f64_of(c: Option<&Content>) -> Option<f64> {
    match c {
        Some(Content::F64(v)) => Some(*v),
        Some(Content::U64(v)) => Some(*v as f64),
        Some(Content::I64(v)) => Some(*v as f64),
        _ => None,
    }
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Content::Seq(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                str_of(m.get(k)).ok_or_else(|| format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                higher_is_better: field("better")? == "higher",
                bound: f64_of(m.get("bound")).ok_or("BENCHMARK.json: metric without bound")?,
            })
        })
        .collect()
}

/// Read one run record written by `e2e run --out`.
pub fn parse_run(text: &str) -> Result<RunSummary, String> {
    let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
    let meta = doc.get("meta").ok_or("no meta")?;
    let identity = ["host_cores", "threads", "seed", "profile"]
        .iter()
        .map(|k| {
            str_of(meta.get(k))
                .map(|v| ((*k).to_owned(), v.to_owned()))
                .ok_or_else(|| format!("meta without {k}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let Some(Content::Map(e2e)) = doc.get("end_to_end") else {
        return Err("no end_to_end map".into());
    };
    let counts = match doc.get("counts") {
        Some(Content::Map(m)) => m
            .iter()
            .filter_map(|(k, v)| f64_of(Some(v)).map(|v| (k.clone(), v as u64)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(RunSummary {
        workload: str_of(meta.get("workload"))
            .ok_or("meta without workload")?
            .to_owned(),
        identity,
        work_digest: str_of(doc.get("work_digest"))
            .ok_or("no work_digest")?
            .to_owned(),
        counts,
        failed: f64_of(doc.get("failed")).ok_or("no failed count")? as u64,
        metrics: e2e
            .iter()
            .filter_map(|(k, v)| f64_of(v.get("value")).map(|v| (k.clone(), v)))
            .collect(),
    })
}

/// Every untraced run record (`run-*.json`) in `dir`.
pub fn read_dir(dir: &Path) -> Result<Vec<RunSummary>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no run-*.json records", dir.display()));
    }
    names
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Median, quartiles and the quartile distance as a share of the median.
fn summarize(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = stats::median(values);
    let (q1, q3) = stats::quartiles(values).unwrap_or((med, med));
    (med, q1, q3, stats::ratio(q3 - q1, med.abs()))
}

/// The verdict on one metric given both sides' values.
pub fn mark(a: &[f64], b: &[f64], bound: &Bound) -> Mark {
    let (a_med, _, _, a_spread) = summarize(a);
    let (b_med, _, _, b_spread) = summarize(b);
    let worse_by = if bound.higher_is_better {
        stats::ratio(a_med - b_med, a_med.abs())
    } else {
        stats::ratio(b_med - a_med, a_med.abs())
    };
    if worse_by > bound.bound {
        return Mark::Regressed;
    }
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, f);
    let b_always_better = if bound.higher_is_better {
        fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY)
    } else {
        fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY)
    };
    if a_spread.max(b_spread) > bound.bound && !b_always_better {
        return Mark::Unresolved;
    }
    Mark::Ok
}

/// The report and whether B passed (no regression, same work, no failure).
pub fn compare(
    a: &[RunSummary],
    b: &[RunSummary],
    bounds: &[Bound],
) -> Result<(String, bool), String> {
    let identity = &a.first().ok_or("set A is empty")?.identity;
    if let Some(r) = a.iter().chain(b).find(|r| &r.identity != identity) {
        return Err(format!(
            "refusing to compare: runs differ in host_cores/threads/seed/profile: {:?} vs {:?}",
            identity, r.identity
        ));
    }
    let mut report = String::new();
    let mut pass = true;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        let ra: Vec<&RunSummary> = a.iter().filter(|r| r.workload == w).collect();
        let rb: Vec<&RunSummary> = b.iter().filter(|r| r.workload == w).collect();
        if rb.is_empty() {
            return Err(format!("set B has no run of {w}"));
        }
        let all: Vec<&RunSummary> = ra.iter().chain(&rb).copied().collect();
        let same_work = all
            .iter()
            .all(|r| r.work_digest == all[0].work_digest && r.counts == all[0].counts);
        let failed: u64 = all.iter().map(|r| r.failed).sum();
        let _ = writeln!(
            report,
            "{w}: {} + {} runs, work_digest {}{}, failed {failed}",
            ra.len(),
            rb.len(),
            all[0].work_digest,
            if same_work { "" } else { " DIFFERS" },
        );
        pass &= same_work && failed == 0;
        for bound in bounds {
            let values = |set: &[&RunSummary]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}: a run lacks {}", bound.name));
            }
            let m = mark(&va, &vb, bound);
            pass &= m != Mark::Regressed;
            let (am, aq1, aq3, _) = summarize(&va);
            let (bm, bq1, bq3, _) = summarize(&vb);
            let _ = writeln!(
                report,
                "  {:<16} {:>5}  A {am:>12.4} [{aq1:.4}, {aq3:.4}]  B {bm:>12.4} [{bq1:.4}, {bq3:.4}]  bound {:>4.0}%  {}",
                bound.name,
                bound.unit,
                bound.bound * 100.0,
                match m {
                    Mark::Ok => "ok",
                    Mark::Regressed => "regressed",
                    Mark::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn marks_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(mark(&a, &a, &lower(0.10)), Mark::Ok);
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(mark(&a, &slower, &lower(0.10)), Mark::Regressed);
        let slightly: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(mark(&a, &slightly, &lower(0.10)), Mark::Ok);
        // Same medians, but A scatters by more than the bound.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(mark(&noisy, &a, &lower(0.10)), Mark::Unresolved);
        // Noisy, yet every B run beats every A run.
        let fast = [50.0, 51.0, 49.0, 50.0, 50.5];
        assert_eq!(mark(&noisy, &fast, &lower(0.10)), Mark::Ok);
        // Direction flips for a rate.
        let rate = Bound {
            higher_is_better: true,
            ..lower(0.10)
        };
        assert_eq!(mark(&a, &slower, &rate), Mark::Ok);
        let lower_rate: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        assert_eq!(mark(&a, &lower_rate, &rate), Mark::Regressed);
    }

    fn run(workload: &str, seed: &str, digest: &str, p50: f64) -> RunSummary {
        RunSummary {
            workload: workload.into(),
            identity: vec![
                ("host_cores".into(), "2".into()),
                ("threads".into(), "1".into()),
                ("seed".into(), seed.into()),
                ("profile".into(), "release".into()),
            ],
            work_digest: digest.into(),
            counts: BTreeMap::new(),
            failed: 0,
            metrics: BTreeMap::from([("op_p50_us".to_owned(), p50)]),
        }
    }

    #[test]
    fn compare_refuses_mixed_seeds_and_flags_different_work() {
        let a = vec![
            run("wire_hit", "2019", "aa", 4.0),
            run("wire_hit", "2019", "aa", 4.1),
        ];
        let other_seed = vec![run("wire_hit", "7", "aa", 4.0)];
        assert!(compare(&a, &other_seed, &[lower(0.1)]).is_err());
        let (report, pass) = compare(&a, &a, &[lower(0.1)]).unwrap();
        assert!(pass && report.contains("ok"), "{report}");
        let other_work = vec![run("wire_hit", "2019", "bb", 4.0)];
        let (report, pass) = compare(&a, &other_work, &[lower(0.1)]).unwrap();
        assert!(!pass && report.contains("DIFFERS"), "{report}");
    }
}
