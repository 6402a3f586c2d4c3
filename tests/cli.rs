//! End-to-end test of the `mapro` CLI binary: demo → analyze → normalize →
//! check → export, chained through files the way a user would drive it.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // The CLI lives in the mapro-bench package; cargo puts sibling binaries
    // next to the test executable's parent directory.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug/
    p.push(format!("mapro{}", std::env::consts::EXE_SUFFIX));
    p
}

fn run(args: &[&str], stdin_file: Option<&std::path::Path>) -> (String, String, bool) {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    if let Some(f) = stdin_file {
        cmd.stdin(std::fs::File::open(f).expect("stdin file"));
    }
    let out = cmd.output().expect("CLI runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cli_pipeline_end_to_end() {
    if !bin().exists() {
        // Binary not built in this invocation profile; the unit/integration
        // coverage of the underlying functions stands on its own.
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("g.json");
    let norm = dir.join("g_norm.json");

    // demo
    let (json, _, ok) = run(
        &[
            "demo",
            "gwlb",
            "--services",
            "5",
            "--backends",
            "4",
            "--seed",
            "7",
        ],
        None,
    );
    assert!(ok);
    std::fs::write(&prog, &json).unwrap();

    // analyze
    let (report, _, ok) = run(&["analyze", prog.to_str().unwrap()], None);
    assert!(ok);
    assert!(report.contains("table t0: 1NF"), "{report}");
    assert!(
        report.contains("3NF violation: (ip_dst) -> (tcp_dst)"),
        "{report}"
    );

    // normalize
    let (json, log, ok) = run(
        &[
            "normalize",
            prog.to_str().unwrap(),
            "--join",
            "goto",
            "--verify",
        ],
        None,
    );
    assert!(ok, "{log}");
    assert!(log.contains("complete: true"), "{log}");
    std::fs::write(&norm, &json).unwrap();

    // check
    let (out, _, ok) = run(
        &["check", prog.to_str().unwrap(), norm.to_str().unwrap()],
        None,
    );
    assert!(ok);
    assert!(out.contains("EQUIVALENT"), "{out}");

    // export
    let (of, _, ok) = run(
        &["export", norm.to_str().unwrap(), "--format", "openflow"],
        None,
    );
    assert!(ok);
    assert!(of.contains("goto_table:"), "{of}");

    // flatten back
    let (flat_json, log, ok) = run(&["flatten", norm.to_str().unwrap()], None);
    assert!(ok, "{log}");
    let flat = dir.join("flat.json");
    std::fs::write(&flat, &flat_json).unwrap();
    let (out, _, ok) = run(
        &["check", prog.to_str().unwrap(), flat.to_str().unwrap()],
        None,
    );
    assert!(ok);
    assert!(out.contains("EQUIVALENT"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`run`] but reporting the raw exit code (for the exit-code
/// contract: 0 clean, 1 findings/failures, 2 usage errors).
fn run_code(bin_path: &std::path::Path, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(bin_path).args(args).output().expect("runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn repro_bin() -> PathBuf {
    let mut p = bin();
    p.pop();
    p.push(format!("repro{}", std::env::consts::EXE_SUFFIX));
    p
}

#[test]
fn cli_lint_reports_and_exit_codes() {
    if !bin().exists() {
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("vlan.json");
    let (vlan, _, ok) = run(&["demo", "vlan"], None);
    assert!(ok);
    std::fs::write(&prog, vlan).unwrap();
    let path = prog.to_str().unwrap();

    // Clean of error-severity findings: exit 0, human summary on stdout.
    let (out, _, code) = run_code(&bin(), &["lint", path]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("findings:"), "{out}");
    assert!(out.contains("action-to-match-dependency"), "{out}");

    // JSON is the machine interface.
    let (out, _, code) = run_code(&bin(), &["lint", path, "--format", "json"]);
    assert_eq!(code, Some(0));
    let parsed = serde_json::parse(&out).expect("valid JSON");
    assert!(parsed.get("diagnostics").is_some(), "{out}");

    // --deny warn promotes the Fig. 3 warning to an error: exit 1.
    let (out, _, code) = run_code(&bin(), &["lint", path, "--deny", "warn"]);
    assert_eq!(code, Some(1), "{out}");

    // ...unless the lint is allowed away.
    let (_, _, code) = run_code(
        &bin(),
        &[
            "lint",
            path,
            "--deny",
            "warn",
            "-A",
            "action-to-match-dependency",
            "-A",
            "bcnf-dependency",
            "-A",
            "overlapping-entries",
        ],
    );
    assert_eq!(code, Some(0));

    // -D promotes a single lint to error severity.
    let (_, _, code) = run_code(&bin(), &["lint", path, "-D", "action-to-match-dependency"]);
    assert_eq!(code, Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_usage_errors_exit_2_with_one_line() {
    if !bin().exists() {
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("f.json");
    let (fig1, _, _) = run(&["demo", "fig1"], None);
    std::fs::write(&prog, fig1).unwrap();
    let path = prog.to_str().unwrap();

    let cases: &[&[&str]] = &[
        &[],
        &["bogus"],
        &["demo", "bogus"],
        &["lint", path, "--format", "yaml"],
        &["lint", path, "-D", "not-a-lint"],
        &["lint", path, "-A"],
        &["lint", path, "--deny", "error"],
        // Decision diagrams are the only symbolic engine; the flag that
        // chose one is gone, whatever value it names.
        &["lint", path, "--backend", "auto"],
        &["check", path, path, "--backend", "auto"],
        &["lint", path, "--backend", "dd"],
        &["check", path, path, "--backend", "dd"],
        &["lint", path, "--backend", "cube"],
        &["check", path, path, "--backend", "cube"],
        &["normalize", path, "--join", "bogus"],
        &["normalize", path, "--target", "4nf"],
        &["export", path, "--format", "xml"],
        &["show", "--threads", "zero"],
    ];
    for args in cases {
        let (_, err, code) = run_code(&bin(), args);
        assert_eq!(code, Some(2), "mapro {args:?}: {err}");
        assert_eq!(
            err.trim_end().lines().count(),
            1,
            "mapro {args:?} usage message not one line: {err:?}"
        );
    }

    if repro_bin().exists() {
        let cases: &[&[&str]] = &[
            &["--experiment", "bogus"],
            // Retired: `crates/e2e` measures what these did, end to end.
            &["--experiment", "mpps"],
            &["--experiment", "chaos"],
            &["--experiment", "parscale"],
            &["--experiment", "churnverify"],
            &["--bogus-flag"],
        ];
        for args in cases {
            let (_, err, code) = run_code(&repro_bin(), args);
            assert_eq!(code, Some(2), "repro {args:?}: {err}");
            assert_eq!(
                err.trim_end().lines().count(),
                1,
                "repro {args:?} usage message not one line: {err:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_replay_seed_reproducible_and_engine_contract() {
    if !bin().exists() {
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("fig1.json");
    let (fig1, _, ok) = run(&["demo", "fig1"], None);
    assert!(ok);
    std::fs::write(&prog, fig1).unwrap();
    let path = prog.to_str().unwrap();

    let digest_of = |extra: &[&str]| -> String {
        let mut args = vec!["replay", path, "--packets", "2000"];
        args.extend_from_slice(extra);
        let (out, err, code) = run_code(&bin(), &args);
        assert_eq!(code, Some(0), "replay {extra:?}: {err}");
        out.lines()
            .find(|l| l.trim_start().starts_with("digest:"))
            .unwrap_or_else(|| panic!("no digest line in {out}"))
            .to_owned()
    };

    // `--seed` must reach the trace generator: same seed twice is
    // bit-identical, a different seed draws different traffic.
    let a = digest_of(&["--seed", "7"]);
    let b = digest_of(&["--seed", "7"]);
    let c = digest_of(&["--seed", "8"]);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a, c, "different seeds must draw different traffic");

    // Every `--switch` model runs the same engine: one digest (the
    // default model above is ovs).
    for model in ["eswitch", "lagopus", "noviflow", "cached"] {
        let d = digest_of(&["--seed", "7", "--switch", model]);
        assert_eq!(a, d, "{model} diverged from ovs");
    }

    // The cached engine reports its megaflow hit rate.
    let (out, _, code) = run_code(
        &bin(),
        &["replay", path, "--switch", "cached", "--packets", "2000"],
    );
    assert_eq!(code, Some(0));
    assert!(out.contains("megaflow:"), "{out}");
    assert!(out.contains("hit rate"), "{out}");

    // Usage errors: exit 2, one line on stderr. `--engine` is gone, and
    // a leftover one must not be silently ignored.
    let cases: &[&[&str]] = &[
        &["replay", path, "--seed", "NaN"],
        &["replay", path, "--switch", "bogus"],
        &["replay", path, "--switch", "compiled"],
        &["replay", path, "--engine", "cached"],
        &["replay", path, "--engine", "compiled", "--switch", "ovs"],
    ];
    for args in cases {
        let (_, err, code) = run_code(&bin(), args);
        assert_eq!(code, Some(2), "mapro {args:?}: {err}");
        assert_eq!(
            err.trim_end().lines().count(),
            1,
            "mapro {args:?} usage message not one line: {err:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_detects_inequivalence() {
    if !bin().exists() {
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-neq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let (fig1, _, _) = run(&["demo", "fig1"], None);
    let (vlan, _, _) = run(&["demo", "vlan"], None);
    std::fs::write(&a, fig1).unwrap();
    std::fs::write(&b, vlan).unwrap();
    let (out, _, ok) = run(&["check", a.to_str().unwrap(), b.to_str().unwrap()], None);
    assert!(!ok);
    assert!(
        out.contains("NOT EQUIVALENT") || out.contains("NOT COMPARABLE"),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A JSON program the constructors would have refused reaches the tools
/// only through `load`, which must turn it away: one line, exit 2, and
/// never the index panic the checking subcommands used to die on.
#[test]
fn cli_rejects_malformed_programs() {
    use mapro::prelude::*;
    if !bin().exists() {
        eprintln!("skipping: {} not built", bin().display());
        return;
    }
    let dir = std::env::temp_dir().join(format!("mapro-cli-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = Gwlb::random(3, 2, 7).normalized(JoinKind::Goto).unwrap();
    let good_path = dir.join("good.json");
    std::fs::write(&good_path, serde_json::to_string(&good).unwrap()).unwrap();
    let good_path = good_path.to_str().unwrap();
    let (_, err, code) = run_code(&bin(), &["check", good_path, good_path]);
    assert_eq!(code, Some(0), "{err}");

    type Damage = fn(&mut Pipeline);
    let cases: [(&str, &str, Damage); 5] = [
        ("short match row", "match cells", |p| {
            p.tables[0].entries[1].matches.pop();
        }),
        ("short action row", "action cells", |p| {
            p.tables[1].entries[0].actions.pop();
        }),
        ("attribute id out of range", "not in the catalog", |p| {
            p.tables[1].match_attrs[0] = AttrId(99);
        }),
        ("unknown goto target", "does not exist", |p| {
            p.tables[0].entries[0].actions[0] = Value::sym("nowhere");
        }),
        ("one attribute in two columns", "names two columns", |p| {
            let t = &mut p.tables[1];
            t.match_attrs.push(t.match_attrs[0]);
            for e in &mut t.entries {
                e.matches.push(e.matches[0].clone());
            }
        }),
    ];
    for (name, expect, damage) in cases {
        let mut bad = good.clone();
        damage(&mut bad);
        let path = dir.join("bad.json");
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        let path = path.to_str().unwrap();
        let commands: [&[&str]; 3] = [
            &["check", good_path, path],
            &["normalize", path, "--verify"],
            &["lint", path],
        ];
        for args in commands {
            let (_, err, code) = run_code(&bin(), args);
            assert_eq!(code, Some(2), "{name}: mapro {args:?}: {err}");
            assert!(err.contains(expect), "{name}: mapro {args:?}: {err}");
            assert_eq!(err.trim_end().lines().count(), 1, "{name}: {err:?}");
        }
    }

    // A width the catalog's constructors refuse, reachable only in JSON.
    let json = serde_json::to_string(&good).unwrap();
    assert!(json.contains("\"width\":32"), "{json}");
    let path = dir.join("wide.json");
    std::fs::write(&path, json.replacen("\"width\":32", "\"width\":65", 1)).unwrap();
    let (_, err, code) = run_code(&bin(), &["lint", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("65 bits wide"), "{err}");

    // `.mat` headers the parser once panicked on: a table declared twice,
    // and a schema whose `]` comes before its `[`.
    let texts = [
        (
            "field f 8\naction out output\ntable t [f | out]\n  1 | a\ntable t [f | out]\n",
            "line 5: duplicate table \"t\"",
        ),
        (
            "field f 8\naction out output\ntable t ][f | out]\n",
            "line 3: schema closes",
        ),
    ];
    for (text, expect) in texts {
        let path = dir.join("bad.mat");
        std::fs::write(&path, text).unwrap();
        let (_, err, code) = run_code(&bin(), &["check", good_path, path.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{text:?}: {err}");
        assert!(err.contains(expect), "{text:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{err:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
