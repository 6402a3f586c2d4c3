//! Smoke test of the `--metrics` plumbing: a real `repro` run must emit a
//! parseable JSON report with counters and histograms from the
//! instrumented crates.

use serde::Content;
use std::process::Command;

#[test]
fn repro_fig1_emits_parseable_metrics_json() {
    let dir = std::env::temp_dir().join(format!("mapro-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--experiment", "fig1", "--metrics", path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = serde_json::parse(&text).expect("metrics JSON parses");
    let Some(Content::Map(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {text}");
    };

    // fig1 normalizes the GWLB pipeline, so the decompose instrumentation
    // must have fired (when built with the default `obs` feature).
    if cfg!(feature = "obs") {
        assert!(
            metrics
                .iter()
                .any(|(k, _)| k == "normalize.decompose.calls"),
            "expected decompose counters, got: {:?}",
            metrics.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
        // Every entry carries a kind tag and histograms carry quantiles.
        for (name, v) in metrics {
            let kind = match v.get("kind") {
                Some(Content::Str(s)) => s.clone(),
                other => panic!("metric {name} has no kind: {other:?}"),
            };
            if kind == "histogram" {
                for field in ["count", "sum", "p50", "p90", "p99", "max"] {
                    assert!(v.get(field).is_some(), "{name} missing {field}");
                }
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_fills_the_wal_and_epoch_fence_counters() {
    use mapro_control::{
        Controller, CrashInjector, DriverConfig, DriverError, FaultPlan, FaultyChannel, Wal,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    let count = |name: &str| -> u64 {
        let snap = mapro_obs::registry().snapshot();
        let e = snap
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"));
        match &e.value {
            mapro_obs::MetricValue::Counter(n) => *n,
            other => panic!("{name} must be a counter, got {other:?}"),
        }
    };

    // Generation 1 logs an intent, generation 2 replays the log and
    // fences the switch, and generation 1's next bundle bounces off the
    // fence.
    let g = mapro_workloads::Gwlb::random(4, 2, 13);
    let base = g.universal.clone();
    let sw = Rc::new(RefCell::new(
        mapro_switch::LiveSwitch::noviflow(base.clone()).expect("compiles"),
    ));
    let mut ch1 = FaultyChannel::new(sw.clone(), FaultPlan::lossless(1));
    let mut ch2 = FaultyChannel::new(sw.clone(), FaultPlan::lossless(2));
    let wal = Wal::shared(base.clone());
    let cfg = DriverConfig::default();
    let mut gen1 = Controller::recover(wal.clone(), cfg.clone(), 1, CrashInjector::Never)
        .expect("the log replays");
    let plan = g.move_service_port(&base, 0, 10_000);
    gen1.apply_plan(&mut ch1, &plan).expect("lossless apply");
    let mut gen2 = Controller::recover(wal, cfg, 2, CrashInjector::Never).expect("the log replays");
    let rep = gen2.recover_switch(&mut ch2).expect("takeover");
    assert!(rep.reconciled && rep.verified, "{rep:?}");
    assert!(
        rep.summary().starts_with("recovery: epoch 2"),
        "{}",
        rep.summary()
    );
    let plan = g.move_service_port(gen1.intended(), 1, 20_000);
    assert!(matches!(
        gen1.apply_plan(&mut ch1, &plan),
        Err(DriverError::Deposed { current: 2 })
    ));

    if cfg!(feature = "obs") {
        assert!(count("control.wal.appends") > 0);
        assert!(count("control.wal.replays") > 0);
        assert!(count("control.epoch.rejections") > 0);
        let _ = count("control.shed"); // declared even when nothing sheds
    }
}

#[test]
fn replay_cached_pre_registers_megaflow_and_compile_metrics() {
    let dir = std::env::temp_dir().join(format!("mapro-megaflow-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("fig1.json");
    let path = dir.join("metrics.json");

    let demo = Command::new(env!("CARGO_BIN_EXE_mapro"))
        .args(["demo", "fig1"])
        .output()
        .expect("demo runs");
    assert!(demo.status.success());
    std::fs::write(&prog, &demo.stdout).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_mapro"))
        .args([
            "replay",
            prog.to_str().unwrap(),
            "--switch",
            "cached",
            "--packets",
            "2000",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("replay runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = serde_json::parse(&text).expect("metrics JSON parses");
    let Some(Content::Map(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {text}");
    };

    if cfg!(feature = "obs") {
        // The megaflow counters are registered when the cache is
        // constructed, not lazily on first event — `evictions` and
        // `invalidations` must be present even though this replay never
        // evicts or receives a flow-mod.
        let count = |name: &str| -> u64 {
            let v = metrics
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| {
                    panic!(
                        "missing counter {name}; got: {:?}",
                        metrics.iter().map(|(k, _)| k).collect::<Vec<_>>()
                    )
                })
                .1
                .get("value");
            match v {
                Some(Content::U64(n)) => *n,
                other => panic!("counter {name} has no u64 value: {other:?}"),
            }
        };
        assert!(
            count("switch.megaflow.hits") > 0,
            "Zipf-free uniform trace still repeats flows"
        );
        assert!(
            count("switch.megaflow.misses") > 0,
            "first packet of each cube must miss"
        );
        let _ = count("switch.megaflow.evictions");
        let _ = count("switch.megaflow.invalidations");
        // The engine's compile time is a histogram keyed by phase.
        assert!(
            metrics.iter().any(|(k, _)| k == "switch.compile.ns"),
            "expected compile-time histogram, got: {:?}",
            metrics.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_session_pre_registers_sym_incr_metrics() {
    use mapro_sym::{IncrementalChecker, SymConfig};

    // Opening a session must register the sym.incr.* family — a scrape
    // between construction and the first update already sees all four at
    // zero, so dashboards never miss the series.
    let p = mapro_workloads::Gwlb::fig1().universal;
    let _s = IncrementalChecker::new(&p, &p, &SymConfig::default()).expect("session opens");

    if cfg!(feature = "obs") {
        let snap = mapro_obs::registry().snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        for m in [
            "sym.incr.checks",
            "sym.incr.atoms_rechecked",
            "sym.incr.fallbacks",
            "sym.incr.proof_ns",
        ] {
            assert!(names.contains(&m), "missing {m}; got {names:?}");
        }
        for e in &snap.entries {
            match (e.name.as_str(), &e.value) {
                ("sym.incr.proof_ns", mapro_obs::MetricValue::Histogram(_)) => {}
                ("sym.incr.proof_ns", other) => {
                    panic!("sym.incr.proof_ns must be a histogram, got {other:?}")
                }
                (n, mapro_obs::MetricValue::Counter(_)) if n.starts_with("sym.incr.") => {}
                (n, other) if n.starts_with("sym.incr.") => {
                    panic!("{n} must be a counter, got {other:?}")
                }
                _ => {}
            }
        }
    }
}

#[test]
fn verified_normalization_pre_registers_and_counts_the_step_lemmas() {
    // `split`'s verify hook: each step is proved by Heath's lemma on the
    // rows, or falls back to the whole-program check, counted by cause.
    // Every counter is registered before the first step proves anything.
    const COUNTERS: [&str; 11] = [
        "normalize.verify.lemmas",
        "normalize.verify.fallbacks",
        "normalize.verify.fallback.miss_policy",
        "normalize.verify.fallback.naming",
        "normalize.verify.fallback.source_not_1nf",
        "normalize.verify.fallback.stage_not_1nf",
        "normalize.verify.fallback.exits",
        "normalize.verify.fallback.action_order",
        "normalize.verify.fallback.metadata",
        "normalize.verify.fallback.flatten",
        "normalize.verify.fallback.rows_differ",
    ];
    let counts = || -> Vec<Option<u64>> {
        let snap = mapro_obs::registry().snapshot();
        COUNTERS
            .iter()
            .map(|name| {
                snap.entries
                    .iter()
                    .find(|e| e.name == *name)
                    .map(|e| match &e.value {
                        mapro_obs::MetricValue::Counter(n) => *n,
                        other => panic!("{name} must be a counter, got {other:?}"),
                    })
            })
            .collect()
    };

    let g = mapro_workloads::Gwlb::random(6, 4, 7);
    let opts = mapro_normalize::NormalizeOpts {
        join: mapro_normalize::JoinKind::Goto,
        verify: true,
        ..Default::default()
    };
    let before = counts();
    let n = mapro_normalize::normalize(&g.universal, &opts);
    assert!(!n.steps.is_empty(), "the GWLB normalizes");

    if cfg!(feature = "obs") {
        let after: Vec<u64> = counts()
            .into_iter()
            .zip(COUNTERS)
            .map(|(n, name)| n.unwrap_or_else(|| panic!("{name} not registered")))
            .collect();
        let delta = |i: usize| after[i] - before[i].unwrap_or(0);
        // Every step of a goto-normalized GWLB is the lemma's.
        assert_eq!(delta(0), n.steps.len() as u64, "lemmas");
        for (i, name) in COUNTERS.iter().enumerate().skip(1) {
            assert_eq!(delta(i), 0, "{name}");
        }
    }
}

#[test]
fn controller_pre_registers_and_fills_the_per_hop_plan_histograms() {
    use mapro_control::{Controller, DriverConfig, FaultPlan, FaultyChannel};

    // The split of `Controller::apply_plan` beneath
    // `control.apply_plan_self_share`, one histogram per hop.
    const HOPS: [&str; 5] = [
        "control.plan.adopt_ns",
        "control.plan.wal_ns",
        "control.plan.proof_intended_ns",
        "control.plan.deliver_ns",
        "control.plan.proof_committed_ns",
    ];
    let samples = || -> Vec<Option<u64>> {
        let snap = mapro_obs::registry().snapshot();
        HOPS.iter()
            .map(|hop| {
                snap.entries
                    .iter()
                    .find(|e| e.name == *hop)
                    .map(|e| match &e.value {
                        mapro_obs::MetricValue::Histogram(h) => h.count,
                        other => panic!("{hop} must be a histogram, got {other:?}"),
                    })
            })
            .collect()
    };

    let g = mapro_workloads::Gwlb::fig1();
    let p = g
        .normalized(mapro_normalize::JoinKind::Goto)
        .expect("GWLB decomposes");
    let cfg = DriverConfig {
        verify_inline: true,
        ..DriverConfig::default()
    };
    let mut ctl = Controller::new(p.clone(), cfg);
    let registered = samples();
    let switch = mapro_switch::LiveSwitch::eswitch(p.clone()).expect("compiles");
    let mut ch = FaultyChannel::new(switch, FaultPlan::lossless(7));
    ctl.apply_plan(&mut ch, &g.move_service_port(&p, 0, 8080))
        .expect("delivered");
    assert!(ctl.last_proof().is_some_and(|t| t.verdict.is_equivalent()));

    if cfg!(feature = "obs") {
        // Registered before the first intent, then one sample per hop
        // (two WAL appends: `Begin` and `Commit`).
        let after = samples();
        for ((hop, before), after) in HOPS.iter().zip(registered).zip(after) {
            let before = before.unwrap_or_else(|| panic!("{hop} not pre-registered"));
            let want = if *hop == "control.plan.wal_ns" { 2 } else { 1 };
            assert!(
                after.expect("still registered") >= before + want,
                "{hop}: {before} samples before the intent"
            );
        }
    }
}

#[test]
fn live_switch_pre_registers_and_fills_the_bundle_histograms() {
    use mapro_control::{Controller, DriverConfig, FaultPlan, FaultyChannel};

    // The split of `LiveSwitch::deliver` beneath `control.plan.deliver_ns`
    // for a bundled intent: staging, then the atomic commit.
    const HOPS: [&str; 2] = ["switch.live.prepare_ns", "switch.live.commit_ns"];
    let samples = || -> Vec<Option<u64>> {
        let snap = mapro_obs::registry().snapshot();
        HOPS.iter()
            .map(|hop| {
                snap.entries
                    .iter()
                    .find(|e| e.name == *hop)
                    .map(|e| match &e.value {
                        mapro_obs::MetricValue::Histogram(h) => h.count,
                        other => panic!("{hop} must be a histogram, got {other:?}"),
                    })
            })
            .collect()
    };

    // Which path the engine took for each flow-mod: a row spliced into
    // its table, or the table rebuilt whole.
    const PATHS: [&str; 2] = [
        "switch.compiled.table_splices",
        "switch.compiled.table_recompiles",
    ];
    let paths = || -> Vec<Option<u64>> {
        let snap = mapro_obs::registry().snapshot();
        PATHS
            .iter()
            .map(|name| {
                snap.entries
                    .iter()
                    .find(|e| e.name == *name)
                    .map(|e| match &e.value {
                        mapro_obs::MetricValue::Counter(n) => *n,
                        other => panic!("{name} must be a counter, got {other:?}"),
                    })
            })
            .collect()
    };

    let g = mapro_workloads::Gwlb::fig1();
    let p = g.universal.clone();
    let switch = mapro_switch::LiveSwitch::eswitch(p.clone()).expect("compiles");
    let registered = samples();
    let paths_before = paths();
    let mut ch = FaultyChannel::new(switch, FaultPlan::lossless(7));
    let mut ctl = Controller::new(p.clone(), DriverConfig::default());
    let plan = g.move_service_port(&p, 0, 8080);
    assert!(
        plan.needs_bundle(),
        "the universal table moves a port in a bundle"
    );
    ctl.apply_plan(&mut ch, &plan).expect("delivered");

    if cfg!(feature = "obs") {
        for ((hop, before), after) in HOPS.iter().zip(registered).zip(samples()) {
            let before = before.unwrap_or_else(|| panic!("{hop} not pre-registered"));
            assert!(
                after.expect("still registered") > before,
                "{hop}: no sample for the bundle"
            );
        }
        // The universal table stays one ternary scan under a port move:
        // every flow-mod of the bundle is spliced, none rebuilds the table.
        let [splices, recompiles] = [0, 1].map(|i| {
            let before =
                paths_before[i].unwrap_or_else(|| panic!("{} not pre-registered", PATHS[i]));
            paths()[i].expect("still registered") - before
        });
        assert!(splices >= plan.updates.len() as u64, "{splices} splices");
        assert_eq!(recompiles, 0, "a flow-mod rebuilt the universal table");
    }
}

#[test]
fn repro_rejects_unknown_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--definitely-not-a-flag")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument"), "{err}");
    // Usage errors are one line with a pointer, not a full usage dump.
    assert!(err.contains("try --help"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err:?}");
}

#[test]
fn repro_rejects_missing_and_malformed_values() {
    for args in [vec!["--packets"], vec!["--packets", "NaN"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--packets"),
            "args: {args:?}"
        );
    }
}
