//! `mapro` — the command-line front end to the normalization toolkit.
//!
//! Programs are JSON-serialized [`mapro_core::Pipeline`]s (produce samples
//! with `mapro demo`). Subcommands:
//!
//! ```text
//! mapro demo <fig1|gwlb|l3|vlan|sdx|enterprise|deep> [--services N --backends M --seed S] [--mat]
//! mapro convert <prog.json|prog.mat> [--mat]     # JSON ↔ text format
//! mapro show <prog.json>                          # paper-figure rendering
//! mapro analyze <prog.json>                       # per-table NF report
//! mapro lint <prog.json> [--format text|json] [--deny warn] [-A|-W|-D <lint-id>]...
//! mapro normalize <prog.json> [--join goto|metadata|rematch] [--target 2nf|3nf|bcnf] [--verify]
//! mapro flatten <prog.json>                       # denormalize to one table
//! mapro check <a.json> <b.json> [--mode auto|symbolic|enumerate]
//! mapro replay <prog.json> [--packets N --flows F --seed S --shards N]
//!              [--switch ovs|eswitch|lagopus|noviflow|cached]
//! mapro export <prog.json> --format openflow|p4   # data-plane program text
//! ```
//!
//! `mapro lint` runs the static analyzer (`mapro-lint`): the report goes
//! to stdout as text or JSON; the exit code is 0 when clean of
//! error-severity findings, 1 otherwise. `-A <id>` drops a lint, `-W <id>`
//! demotes it to warn, `-D <id>` promotes it to error, `--deny warn`
//! promotes every warn (the CI gate). Usage errors — unknown lint ids
//! included — exit 2.
//!
//! Transformation commands print the resulting program JSON to stdout (so
//! they compose with shell pipes); human-readable reports go to stderr.
//!
//! Every subcommand also accepts `--metrics [out.json]`: after the command
//! completes, the observability registry is dumped as JSON to the given
//! file, or as a text table to stderr when no path follows.
//!
//! Every subcommand also accepts `--threads N`, sizing the work-stealing
//! pool used by equivalence checking and FD mining (precedence:
//! `--threads` > `MAPRO_THREADS` > available cores). Output is
//! byte-identical at any thread count.
//!
//! Every subcommand also accepts `--trace out.json`: a span-trace session
//! (see `mapro_obs::trace`) wraps the whole command and the collected
//! events are written as Chrome trace-event JSON — loadable in
//! `ui.perfetto.dev` or `chrome://tracing` — with a phase-attribution
//! summary on stderr. `mapro check --mode symbolic --trace t.json a b`
//! shows where the symbolic engine spends its time; `mapro replay` traces
//! per-shard switch evaluation.

use mapro_core::{display, export, Pipeline};
use mapro_normalize::{flatten, normalize, JoinKind, NormalizeOpts, Target};
use std::io::Write as _;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mapro <demo|convert|show|analyze|lint|normalize|flatten|check|replay|export> [args]"
    );
    exit(2)
}

/// Report a usage error on one line and exit 2 (the contract `tests/cli.rs`
/// pins down for every malformed invocation).
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("mapro: {msg}");
    exit(2)
}

/// `lint` and `check` have one symbolic engine; the flag that chose
/// between two is refused rather than ignored.
fn refuse_backend(has: impl Fn(&str) -> bool) {
    if has("--backend") {
        usage_error("--backend was removed; decision diagrams are the only symbolic engine");
    }
}

/// Builds one `replay --switch` model over a program.
type SwitchCtor =
    fn(&Pipeline) -> Result<Box<dyn mapro_switch::Switch + Send>, mapro_switch::CompileError>;

/// `replay --switch` values and what each builds.
const SWITCH_MODELS: &[(&str, SwitchCtor)] = &[
    ("ovs", |p| Ok(Box::new(mapro_switch::OvsSim::compile(p)?))),
    ("eswitch", |p| {
        Ok(Box::new(mapro_switch::SwitchModel::eswitch(p)?))
    }),
    ("lagopus", |p| {
        Ok(Box::new(mapro_switch::SwitchModel::lagopus(p)?))
    }),
    ("noviflow", |p| {
        Ok(Box::new(mapro_switch::SwitchModel::noviflow(p)?))
    }),
    ("cached", |p| {
        Ok(Box::new(mapro_switch::CachedEngine::eswitch(p)?))
    }),
];

fn load(path: &str) -> Pipeline {
    let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    // A program that does not parse is malformed input, like one that does
    // not validate: exit 2, so that `check`'s exit 1 keeps meaning "not
    // equivalent".
    let p: Pipeline = if path.ends_with(".mat") {
        mapro_core::parse_program(&data)
            .unwrap_or_else(|e| usage_error(format_args!("cannot parse {path}: {e}")))
    } else {
        serde_json::from_str(&data)
            .unwrap_or_else(|e| usage_error(format_args!("cannot parse {path}: {e}")))
    };
    // Everything downstream indexes rows and catalogs without checking.
    if let Err(e) = p.validate() {
        usage_error(format_args!("{path}: {e}"));
    }
    p
}

fn emit(p: &Pipeline) {
    let json = serde_json::to_string_pretty(p).expect("serializes");
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{json}");
}

fn main() {
    install_pipe_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |name: &str| args.iter().any(|a| a == name);
    // Collect the value after *every* occurrence of a repeatable flag
    // (`-A x -A y`); a trailing occurrence with no value is a usage error.
    let multi = |name: &str| -> Vec<String> {
        args.iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == name)
            .map(|(i, _)| {
                args.get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| usage_error(format_args!("missing value for {name}")))
            })
            .collect()
    };
    // `--metrics` takes an optional path: Some(None) = text to stderr,
    // Some(Some(path)) = JSON file.
    let metrics: Option<Option<String>> = args
        .iter()
        .position(|a| a == "--metrics")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with('-')).cloned());

    // Pool sizing: --threads beats MAPRO_THREADS beats auto-detection. A
    // malformed value in either place is a usage error, not a silent default.
    if has("--threads") {
        let Some(v) = flag("--threads") else {
            usage_error("missing value for --threads")
        };
        match mapro_par::parse_threads(&v) {
            Ok(n) => mapro_par::set_threads(n),
            Err(e) => usage_error(e),
        }
    } else if let Err(e) = mapro_par::env_threads() {
        usage_error(e)
    }

    // `--trace` wraps the whole command in a span-trace session; the
    // Chrome-format file is written after the subcommand finishes (even
    // when it fails with exit 1, so a failing check can be profiled).
    let trace_out: Option<String> = if has("--trace") {
        let Some(path) = flag("--trace") else {
            usage_error("missing value for --trace")
        };
        if !mapro_obs::trace::start(&mapro_obs::trace::TraceConfig::default()) {
            usage_error("a trace session is already active");
        }
        Some(path)
    } else {
        None
    };

    let mut exit_code = 0;
    match cmd.as_str() {
        "demo" => {
            let which = args.get(1).map(String::as_str).unwrap_or("fig1");
            let p = match which {
                "fig1" => mapro_workloads::Gwlb::fig1().universal,
                "gwlb" => {
                    let n = flag("--services")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(20);
                    let m = flag("--backends").and_then(|v| v.parse().ok()).unwrap_or(8);
                    let s = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(2019);
                    mapro_workloads::Gwlb::random(n, m, s).universal
                }
                "l3" => mapro_workloads::L3::fig2().universal,
                "vlan" => mapro_workloads::Vlan::fig3().universal,
                "sdx" => mapro_workloads::Sdx::fig5().universal,
                "enterprise" => {
                    let n = flag("--hosts").and_then(|v| v.parse().ok()).unwrap_or(24);
                    let racks = flag("--racks").and_then(|v| v.parse().ok()).unwrap_or(4);
                    let s = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(2019);
                    mapro_workloads::Enterprise::random(n, racks, s).pipeline
                }
                "deep" => {
                    // The E21 deep-overlap workload: a planted dead entry
                    // only decidable by union reasoning over many rows
                    // (tests/golden/deep_overlap.json).
                    let s = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(2019);
                    mapro_bench::deep_overlap(mapro_bench::DEEP_ROWS, s)
                }
                other => {
                    usage_error(format_args!(
                        "unknown demo {other:?} (fig1|gwlb|l3|vlan|sdx|enterprise|deep)"
                    ));
                }
            };
            if has("--mat") {
                print!("{}", mapro_core::format_program(&p));
            } else {
                emit(&p);
            }
        }
        "convert" => {
            // json ↔ mat, by the *output* flag.
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            if has("--mat") {
                print!("{}", mapro_core::format_program(&p));
            } else {
                emit(&p);
            }
        }
        "show" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            print!("{}", display::render_pipeline(&p));
        }
        "analyze" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            for (name, rep) in mapro_normalize::report(&p) {
                println!("table {name}: {}", rep.level);
                for key in &rep.keys {
                    let names: Vec<_> = rep
                        .fds
                        .universe
                        .decode(*key)
                        .into_iter()
                        .map(|a| p.catalog.name(a).to_owned())
                        .collect();
                    println!("  key: ({})", names.join(", "));
                }
                for fd in &rep.transitive_deps {
                    println!(
                        "  3NF violation: {}",
                        rep.fds.display_fd(*fd, |a| p.catalog.name(a).to_owned())
                    );
                }
                for issue in &rep.first_issues {
                    println!("  1NF issue: {issue:?}");
                }
            }
        }
        "lint" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            let json = match flag("--format").as_deref() {
                None | Some("text") => false,
                Some("json") => true,
                Some(f) => usage_error(format_args!("unknown format {f:?} (text|json)")),
            };
            let overrides = mapro_lint::Overrides {
                allow: multi("-A"),
                warn: multi("-W"),
                deny: multi("-D"),
                deny_warnings: match flag("--deny").as_deref() {
                    None => false,
                    Some("warn") => true,
                    Some(v) => usage_error(format_args!(
                        "unknown --deny level {v:?} (only `warn`; use -D <lint-id> for one lint)"
                    )),
                },
            };
            if let Some(id) = overrides.unknown_lint() {
                usage_error(format_args!("unknown lint {id:?}; known lints:{}", {
                    let mut s = String::new();
                    for l in mapro_lint::CATALOGUE {
                        s.push(' ');
                        s.push_str(l.id);
                    }
                    s
                }));
            }
            refuse_backend(has);
            let mut report = mapro_lint::lint(&p, &mapro_lint::LintConfig::default());
            report.apply(&overrides);
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            if report.has_errors() {
                exit_code = 1;
            }
        }
        "normalize" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            let join = match flag("--join").as_deref() {
                None | Some("metadata") => JoinKind::Metadata,
                Some("goto") => JoinKind::Goto,
                Some("rematch") => JoinKind::Rematch,
                Some(j) => usage_error(format_args!("unknown join {j:?} (goto|metadata|rematch)")),
            };
            let target = match flag("--target").as_deref() {
                None | Some("3nf") => Target::ThirdNf,
                Some("2nf") => Target::SecondNf,
                Some("bcnf") => Target::Bcnf,
                Some(t) => usage_error(format_args!("unknown target {t:?} (2nf|3nf|bcnf)")),
            };
            let opts = NormalizeOpts {
                join,
                target,
                verify: has("--verify"),
                ..Default::default()
            };
            let n = normalize(&p, &opts);
            eprintln!(
                "normalized: {} steps, reached {}, complete: {}",
                n.steps.len(),
                n.reached,
                n.complete()
            );
            for s in &n.steps {
                eprintln!(
                    "  decomposed {} along ({}) -> ({})",
                    s.table,
                    s.lhs.join(", "),
                    s.rhs.join(", ")
                );
            }
            for s in &n.skipped {
                eprintln!("  skipped {} ({}): {}", s.table, s.lhs.join(", "), s.reason);
            }
            emit(&n.pipeline);
        }
        "flatten" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            match flatten(&p, "flat") {
                Ok(t) => {
                    let flat = Pipeline::single(p.catalog.clone(), t);
                    eprintln!("flattened to {} entries", flat.total_entries());
                    emit(&flat);
                }
                Err(e) => {
                    eprintln!("cannot flatten: {e}");
                    exit(1)
                }
            }
        }
        "check" => {
            let a = load(args.get(1).unwrap_or_else(|| usage()));
            let b = load(args.get(2).unwrap_or_else(|| usage()));
            // Engine selection: the default Auto runs the symbolic engine
            // (decision diagrams) and falls back to enumeration outside its
            // fragment; the method is always printed so a sampled verdict
            // is never mistaken for a proof.
            let mode = match flag("--mode").as_deref() {
                None | Some("auto") => mapro_core::EquivMode::Auto,
                Some("symbolic") => mapro_core::EquivMode::Symbolic,
                Some("enumerate") => mapro_core::EquivMode::Enumerate,
                Some(m) => {
                    usage_error(format_args!("unknown mode {m:?} (auto|symbolic|enumerate)"))
                }
            };
            refuse_backend(has);
            let cfg = mapro_core::EquivConfig {
                mode,
                ..mapro_core::EquivConfig::default()
            };
            match mapro_sym::check_equivalent_explain(&a, &b, &cfg, &Default::default()) {
                Ok((
                    mapro_core::EquivOutcome::Equivalent {
                        packets_checked,
                        exhaustive,
                        method,
                    },
                    fallback,
                )) => {
                    println!(
                        "EQUIVALENT ({packets_checked} packets, exhaustive: {exhaustive}, method: {method})"
                    );
                    if let Some(fb) = fallback {
                        println!("  symbolic fallback ({}): {}", fb.cause, fb.detail);
                    }
                }
                Ok((mapro_core::EquivOutcome::Counterexample(cx), fallback)) => {
                    println!("NOT EQUIVALENT on packet {:?}", cx.fields);
                    println!("  left:  {:?}", cx.left.observable());
                    println!("  right: {:?}", cx.right.observable());
                    if let Some(fb) = fallback {
                        println!("  symbolic fallback ({}): {}", fb.cause, fb.detail);
                    }
                    exit_code = 1;
                }
                Err(e) => {
                    println!("NOT COMPARABLE: {e}");
                    exit_code = 1;
                }
            }
        }
        "replay" => {
            // Modeled switch replay of seeded traffic through a program:
            // derive the joint field domain, sample `--flows` distinct
            // flows from it, draw `--packets` arrivals, and shard them
            // across `--shards` modeled datapath threads.
            let path = args.get(1).unwrap_or_else(|| usage());
            let p = load(path);
            let parse_num = |name: &str, default: u64| -> u64 {
                match flag(name) {
                    None => default,
                    Some(v) => v.parse().unwrap_or_else(|_| {
                        usage_error(format_args!("bad value for {name}: {v:?}"))
                    }),
                }
            };
            let packets = parse_num("--packets", 10_000) as usize;
            let flows = (parse_num("--flows", 64) as usize).max(1);
            let seed = parse_num("--seed", 2019);
            let shards = (parse_num("--shards", 4) as usize).max(1);
            if packets == 0 {
                usage_error("--packets must be at least 1");
            }
            let domain = match mapro_core::Domain::from_pipelines(&[&p]) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot derive traffic domain for {path}: {e}");
                    exit(1)
                }
            };
            let proto = mapro_core::Packet::zero(&p.catalog);
            let flow_specs: Vec<mapro_packet::FlowSpec> = domain
                .sample(&proto, flows, seed)
                .into_iter()
                .map(|pkt| mapro_packet::FlowSpec {
                    fields: domain
                        .fields
                        .iter()
                        .map(|(attr, _)| (*attr, pkt.get(*attr)))
                        .collect(),
                    weight: 1,
                })
                .collect();
            let spec = mapro_packet::TraceSpec::uniform(flow_specs);
            let trace = mapro_packet::generate(&p.catalog, &spec, packets, seed);
            // `--switch` is the one selector: every model runs the same
            // compiled engine; `cached` fronts the eswitch model with the
            // megaflow cache.
            if has("--engine") {
                usage_error(
                    "--engine was removed; use --switch ovs|eswitch|lagopus|noviflow|cached",
                );
            }
            let kind = flag("--switch").unwrap_or_else(|| "ovs".to_owned());
            let Some(&(_, build)) = SWITCH_MODELS.iter().find(|(n, _)| *n == kind) else {
                usage_error(format_args!(
                    "unknown switch {kind:?} (ovs|eswitch|lagopus|noviflow|cached)"
                ))
            };
            // Compile once up front so a model rejection is a clean error,
            // then recompile per shard inside the factory (each modeled
            // datapath thread owns its engine).
            if let Err(e) = build(&p) {
                eprintln!("{kind} cannot model {path}: {e}");
                exit(1)
            }
            let factory = move || build(&p).expect("checked above");
            let rep = mapro_switch::run_modeled_parallel(&factory, &trace, shards);
            let digest = mapro_switch::replay_digest(&factory, &trace, shards);
            println!(
                "replayed {} packets ({} flows, {} shards, {kind} model)",
                rep.packets,
                trace.distinct_flows(),
                shards
            );
            println!("  throughput:  {:.2} Mpps", rep.mpps);
            println!(
                "  latency us:  q1 {:.2} / q2 {:.2} / q3 {:.2}",
                rep.latency_us[0], rep.latency_us[1], rep.latency_us[2]
            );
            println!(
                "  avg lookups: {:.2}   dropped: {}   slow path: {}",
                rep.avg_lookups, rep.dropped, rep.slow_path
            );
            if kind == "cached" {
                let hit_rate = 1.0 - rep.slow_path as f64 / rep.packets as f64;
                println!("  megaflow:    {:.4} hit rate", hit_rate);
            }
            println!("  digest:      {digest:016x}");
        }
        "export" => {
            let p = load(args.get(1).unwrap_or_else(|| usage()));
            match flag("--format").as_deref() {
                Some("openflow") | None => print!("{}", export::to_openflow(&p)),
                Some("p4") => print!("{}", export::to_p4(&p)),
                Some(f) => usage_error(format_args!("unknown format {f:?} (openflow|p4)")),
            }
        }
        _ => usage(),
    }

    if let Some(path) = &trace_out {
        let data = mapro_obs::trace::stop();
        let summary = data.summary();
        if let Err(e) = std::fs::write(path, data.to_chrome_json()) {
            eprintln!("cannot write trace to {path}: {e}");
            exit(1);
        }
        eprint!("{}", summary.to_text());
        eprintln!(
            "trace written to {path} ({} events, {:.1}% of wall covered)",
            data.events.len(),
            summary.coverage() * 100.0
        );
    }
    if let Some(sink) = metrics {
        let mut report = mapro_obs::registry()
            .snapshot()
            .with_meta("experiment", cmd)
            .with_meta("threads", mapro_par::configured_threads())
            .with_meta("version", env!("CARGO_PKG_VERSION"));
        if let Some(seed) = flag("--seed") {
            report = report.with_meta("seed", seed);
        }
        match sink {
            None => eprint!("{}", report.to_text()),
            Some(path) => {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    eprintln!("cannot write metrics to {path}: {e}");
                    exit(1);
                }
                eprintln!("metrics written to {path}");
            }
        }
    }
    if exit_code != 0 {
        exit(exit_code)
    }
}

/// Exit quietly when stdout closes early (`repro | head`): Rust maps
/// SIGPIPE to an io panic; treat that as a normal end of output.
fn install_pipe_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_else(|| info.payload().downcast_ref::<&str>().copied().unwrap_or(""));
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}
