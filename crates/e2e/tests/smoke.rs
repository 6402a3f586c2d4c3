//! Tier-1 smoke: every workload at the test-only scale, fixed work.
//!
//! Checks what does not depend on speed: every output is correct, the
//! metrics emitted are exactly the ones `BENCHMARK.json` names, the same
//! seed gives the same work, and each workload exercises the layers it is
//! there for.

use mapro_e2e::run::{self, Outcome, Record, RunOpts, Scale, END_TO_END, WORKLOADS};
use serde::Content;
use std::collections::BTreeMap;

/// One fixed-work run at the test-only scale: one round per timed section.
fn smoke(workload: &str, seed: u64, trace: bool) -> Record {
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed,
        seconds: 1.0,
        rounds: Some(1),
        trace,
        out: None,
    };
    run::run(&opts, &Scale::smoke()).expect("a known workload")
}

fn benchmark_json() -> Content {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn text(c: &Content, key: &str) -> String {
    match c.get(key) {
        Some(Content::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

/// `name -> unit` of one of BENCHMARK.json's metric lists.
fn declared(doc: &Content, list: &str) -> BTreeMap<String, String> {
    let Some(Content::Seq(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// `name -> unit` of the metrics in a result line.
fn emitted(line: &str) -> BTreeMap<String, String> {
    let doc = serde_json::parse(line).expect("the result line is JSON");
    let Content::Map(keys) = &doc else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Content::Map(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Content::F64(_))),
                "{name} has no numeric value"
            );
            (name.clone(), text(m, "unit"))
        })
        .collect()
}

/// Run `workload` traced and untraced and check everything that holds for
/// every workload; returns the traced run's outcome.
fn check(workload: &str) -> Outcome {
    let doc = benchmark_json();
    // A traced run has an untraced section too, so it yields both lines.
    let traced = smoke(workload, 2019, true);
    let o = &traced.outcome;
    assert_eq!(o.failed, 0, "{workload}: {:?}", o.failures);
    assert!(o.attempted > 0);
    assert_eq!(
        emitted(&traced.result_line(false)),
        declared(&doc, "end_to_end"),
        "{workload}: end-to-end metrics"
    );
    assert_eq!(
        emitted(&traced.result_line(true)),
        declared(&doc, "per_layer"),
        "{workload}: per-layer metrics"
    );
    for (name, _) in END_TO_END {
        assert!(o.e2e[name] > 0.0, "{workload}: {name} must never be 0");
    }
    assert!(!o.spans.is_empty(), "{workload}: a traced run keeps spans");
    let record = mapro_e2e::compare::parse_run(&traced.full_json()).expect("record parses");
    assert_eq!(record.workload, workload);

    // Same seed, same work: digest and exact counts do not depend on how
    // many rounds ran or whether they were traced. Another seed, other work.
    let again = smoke(workload, 2019, false);
    assert_eq!(again.outcome.failed, 0, "{:?}", again.outcome.failures);
    assert_eq!(again.outcome.work_digest, o.work_digest, "{workload}");
    assert_eq!(again.outcome.counts, o.counts, "{workload}");
    let other = smoke(workload, 2020, false);
    assert_eq!(other.outcome.failed, 0, "{:?}", other.outcome.failures);
    assert_ne!(other.outcome.work_digest, o.work_digest, "{workload}");
    traced.outcome
}

#[test]
fn benchmark_json_names_the_five_workloads() {
    let doc = benchmark_json();
    let Some(Content::Seq(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn wire_hit_serves_from_the_cache() {
    let layer = check("wire_hit").layer;
    assert_eq!(layer["switch.cache_enabled"], 1.0);
    assert!(layer["switch.hit_share"] > 0.5);
    assert!(layer["packet.parse_share"] + layer["packet.bind_share"] > 0.0);
    assert_eq!(layer["packet.parse_errors"], 0.0);
}

#[test]
fn wire_walk_checks_drops_too() {
    let o = check("wire_walk");
    // One flow in 16 is aimed to miss, and the oracle agrees they drop.
    assert_eq!(o.counts["oracle_drops"] * 16, o.counts["frames_distinct"]);
    assert!(o.layer["switch.process_ns_per_pkt"] > 0.0);
}

#[test]
fn churn_goto_proves_every_intent() {
    let layer = check("churn_goto").layer;
    // One untraced and one traced round of three intents each.
    assert_eq!(layer["control.proofs"], 6.0);
    assert_eq!(layer["control.shed"] + layer["control.retries"], 0.0);
    assert_eq!(layer["control.move_port.flowmods_per_intent"], 1.0);
    assert_eq!(layer["control.swap_backend.flowmods_per_intent"], 1.0);
    assert!(layer["control.reweight.flowmods_per_intent"] > 1.0);
    assert!(layer["sym.incr_checks"] >= 6.0);
}

#[test]
fn churn_universal_pays_per_backend() {
    let layer = check("churn_universal").layer;
    // One flow-mod per backend row of the moved service.
    assert_eq!(
        layer["control.move_port.flowmods_per_intent"],
        Scale::smoke().churn_backends as f64
    );
    assert_eq!(layer["control.proofs"], 6.0);
}

#[test]
fn toolchain_shrinks_every_program() {
    let layer = check("toolchain").layer;
    assert!(layer["normalize.steps"] > 0.0);
    assert!(layer["normalize.fields_after"] < layer["normalize.fields_before"]);
    assert_eq!(layer["lint.unknown_findings"], 0.0);
    assert!(
        !layer.contains_key("packet.parse_ns_per_pkt"),
        "no packet work"
    );
}
