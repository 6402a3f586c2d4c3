//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--experiment all|fig1|fig2|fig3|fig4|fig5|table1|size|control|monitor|theorem1|templates|cache|scaling|joins|fig4queue|faults|lint|symscale|ddscale|phases]
//!       [--packets N] [--services N] [--backends M] [--seed S] [--threads N]
//!       [--json] [--metrics [out.json]] [--trace out.json]
//! ```
//!
//! Output is paper-shaped text (or JSON with `--json`) suitable for
//! pasting into EXPERIMENTS.md. `--metrics` dumps the observability
//! registry after the run: as JSON to the given file, or as a text table
//! to stderr when no path follows. `--threads` sizes the work-stealing
//! pool (precedence: `--threads` > `MAPRO_THREADS` > available cores);
//! results are byte-identical at any thread count. `--trace` records a
//! structured span trace of the whole run and writes it as Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`); a phase
//! summary goes to stderr.

use mapro_bench::*;

const USAGE: &str = "repro [--experiment all|fig1|fig2|fig3|fig4|fig5|table1|size|control|monitor|theorem1|templates|cache|scaling|joins|fig4queue|faults|lint|symscale|ddscale|phases] [--packets N] [--services N] [--backends M] [--seed S] [--threads N] [--json] [--metrics [out.json]] [--trace out.json]";

/// Where `--metrics` sends the registry snapshot.
enum MetricsSink {
    /// `--metrics` with no path: text table on stderr.
    Stderr,
    /// `--metrics out.json`: JSON report to a file.
    File(String),
}

struct Args {
    experiment: String,
    cfg: BenchConfig,
    json: bool,
    metrics: Option<MetricsSink>,
    trace: Option<String>,
}

fn take(it: &mut impl Iterator<Item = String>, name: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("missing value for {name}"))
}

fn num<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<T, String> {
    let v = take(it, name)?;
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {name}: expected a number"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: "all".to_owned(),
        cfg: BenchConfig::default(),
        json: false,
        metrics: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" | "-e" => args.experiment = take(&mut it, "--experiment")?,
            "--packets" => args.cfg.packets = num(&mut it, "--packets")?,
            "--services" => args.cfg.services = num(&mut it, "--services")?,
            "--backends" => args.cfg.backends = num(&mut it, "--backends")?,
            "--seed" => args.cfg.seed = num(&mut it, "--seed")?,
            "--threads" => {
                let v = take(&mut it, "--threads")?;
                mapro_par::set_threads(mapro_par::parse_threads(&v)?);
            }
            "--json" => args.json = true,
            "--trace" => args.trace = Some(take(&mut it, "--trace")?),
            "--metrics" => {
                args.metrics = Some(match it.peek() {
                    Some(v) if !v.starts_with('-') => MetricsSink::File(it.next().expect("peeked")),
                    _ => MetricsSink::Stderr,
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The single source of truth for experiment names: `want()` consults it
/// (so a `want("typo")` block can never silently dead-end), and argument
/// validation rejects anything outside it.
const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig4queue",
    "fig5",
    "table1",
    "size",
    "control",
    "monitor",
    "theorem1",
    "templates",
    "cache",
    "scaling",
    "joins",
    "faults",
    "lint",
    "symscale",
    "ddscale",
    "phases",
];

/// Report a usage error on one line and exit 2 (the contract
/// `tests/cli.rs` pins down for every malformed invocation).
fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("repro: {e} (try --help)");
    std::process::exit(2)
}

fn main() {
    install_pipe_hook();
    let args = parse_args().unwrap_or_else(|e| usage_error(e));
    // Surface a malformed MAPRO_THREADS as a usage error rather than
    // silently ignoring it (an explicit --threads takes precedence).
    if mapro_par::thread_override() == 0 {
        if let Err(e) = mapro_par::env_threads() {
            usage_error(e);
        }
    }
    if args.trace.is_some() && !mapro_obs::trace::start(&mapro_obs::trace::TraceConfig::default()) {
        usage_error("a trace session is already active");
    }
    let all = args.experiment == "all";
    if !all && !EXPERIMENTS.contains(&args.experiment.as_str()) {
        usage_error(format_args!(
            "unknown experiment {:?}; expected all|{}",
            args.experiment,
            EXPERIMENTS.join("|")
        ));
    }
    let want = |name: &str| {
        assert!(
            EXPERIMENTS.contains(&name),
            "want({name:?}) not in EXPERIMENTS — add it to the list"
        );
        // symscale and ddscale time the equivalence workloads at width,
        // and phases re-runs the instrumented hot paths under tracing;
        // they are machine benchmarks, not paper artifacts, so `all`
        // skips them.
        (all && !matches!(name, "symscale" | "ddscale" | "phases")) || args.experiment == name
    };

    if want("fig1") {
        println!("\n############ E1 — Fig. 1: GWLB representations ############");
        print!("{}", fig1_rendering());
    }
    if want("fig2") {
        println!("\n############ E2 — Fig. 2: L3 pipeline to 3NF ############");
        print!("{}", fig2_rendering());
    }
    if want("fig3") {
        println!("\n############ E3 — Fig. 3: action-to-match rejection ############");
        print!("{}", fig3_rendering());
    }
    if want("table1") {
        println!("\n############ E5 — Table 1: static performance ############");
        let rows = table1(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:<10} {:<10} {:>12} {:>16}  templates",
                "switch", "repr", "rate [Mpps]", "Q3 delay [us]"
            );
            for r in &rows {
                println!(
                    "{:<10} {:<10} {:>12.2} {:>16.1}  {}",
                    r.switch,
                    r.repr,
                    r.rate_mpps,
                    r.q3_latency_us,
                    r.templates.join(", ")
                );
            }
        }
    }
    if want("fig4") {
        println!("\n############ E4 — Fig. 4: reactiveness under churn ############");
        let rates: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
        let pts = fig4(&args.cfg, &rates);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&pts).unwrap());
        } else {
            println!(
                "{:>10} {:>16} {:>16} {:>14} {:>14}",
                "updates/s", "universal Mpps", "normalized Mpps", "uni delay us", "norm delay us"
            );
            for p in &pts {
                println!(
                    "{:>10.0} {:>16.2} {:>16.2} {:>14.1} {:>14.1}",
                    p.updates_per_sec,
                    p.universal_mpps,
                    p.normalized_mpps,
                    p.universal_latency_us,
                    p.normalized_latency_us
                );
            }
        }
    }
    if want("fig4queue") {
        println!("\n############ E4b — Fig. 4 as a queueing system (extension) ############");
        let rates = [0.0, 25.0, 50.0, 100.0];
        let rows = fig4_queue(&args.cfg, &rates);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:>10} {:<10} {:>10} {:>12} {:>13} {:>9}",
                "updates/s", "repr", "Mpps", "Q3 lat [us]", "max lat [us]", "drops"
            );
            for r in &rows {
                println!(
                    "{:>10.0} {:<10} {:>10.2} {:>12.2} {:>13.1} {:>9}",
                    r.updates_per_sec, r.repr, r.mpps, r.q3_latency_us, r.max_latency_us, r.dropped
                );
            }
        }
    }
    if want("size") {
        println!("\n############ E6 — §2 encoding sizes (fields) ############");
        let rows = encoding_sizes(&[5, 10, 20, 40], &[2, 4, 8, 16], args.cfg.seed);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:>4} {:>4} {:>10} {:>8} {:>9} {:>8} {:>10} {:>10}",
                "N", "M", "universal", "goto", "metadata", "rematch", "=4MN", "=N(3+2M)"
            );
            for r in &rows {
                println!(
                    "{:>4} {:>4} {:>10} {:>8} {:>9} {:>8} {:>10} {:>10}",
                    r.n,
                    r.m,
                    r.universal,
                    r.goto,
                    r.metadata,
                    r.rematch,
                    r.formula_universal,
                    r.formula_goto
                );
            }
        }
    }
    if want("control") {
        println!("\n############ E7 — §2 controllability ############");
        let rows = controllability(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:<10} {:>18} {:>18} {:>15}",
                "repr", "move-port updates", "change-ip updates", "exposed states"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>18} {:>18} {:>15}",
                    r.repr, r.move_port_updates, r.change_ip_updates, r.exposed_states
                );
            }
        }
    }
    if want("monitor") {
        println!("\n############ E8 — §2 monitorability ############");
        let rows = monitorability(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:<10} {:>9} {:>12} {:>13}",
                "repr", "counters", "aggregate", "ground truth"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>9} {:>12} {:>13}",
                    r.repr, r.counters, r.aggregate, r.ground_truth
                );
            }
        }
    }
    if want("theorem1") {
        println!("\n############ E9 — Theorem 1 replay ############");
        let s = theorem1_replay();
        if args.json {
            println!("{}", serde_json::to_string_pretty(&s).unwrap());
        } else {
            println!(
                "{} proof lines, all consecutive pairs semantically equal ({} packets evaluated)",
                s.steps, s.packets_checked
            );
            for (i, law) in s.laws.iter().enumerate() {
                println!("  line {:>2}: {}", i + 1, law);
            }
        }
    }
    if want("fig5") {
        println!("\n############ E10 — Fig. 5 / appendix: beyond 3NF ############");
        print!("{}", fig5_rendering());
    }
    if want("cache") {
        println!("\n############ E12 — OVS cache sensitivity (extension) ############");
        let rows = ovs_cache_sensitivity(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:>9} {:>6} {:>9} {:>12}",
                "capacity", "zipf", "hit rate", "rate [Mpps]"
            );
            for r in &rows {
                println!(
                    "{:>9} {:>6.1} {:>9.3} {:>12.2}",
                    r.capacity, r.zipf, r.hit_rate, r.mpps
                );
            }
        }
    }
    if want("joins") {
        println!("\n############ E5b — join abstractions on the specializing datapath (extension) ############");
        let rows = table1_joins(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:<10} {:>14} {:>8}  templates",
                "repr", "ESwitch Mpps", "fields"
            );
            for r in &rows {
                let t = if r.templates.len() > 4 {
                    format!(
                        "{} … ({} tables)",
                        r.templates[..3].join(", "),
                        r.templates.len()
                    )
                } else {
                    r.templates.join(", ")
                };
                println!(
                    "{:<10} {:>14.2} {:>8}  {t}",
                    r.repr, r.eswitch_mpps, r.fields
                );
            }
        }
    }
    if want("scaling") {
        println!("\n############ E13 — throughput vs table size (extension) ############");
        let rows = scaling(
            args.cfg.backends,
            &[5, 10, 20, 40, 80],
            args.cfg.packets.min(20_000),
            args.cfg.seed,
        );
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:>9} {:>16} {:>12} {:>7}",
                "services", "universal Mpps", "goto Mpps", "gain"
            );
            for r in &rows {
                println!(
                    "{:>9} {:>16.2} {:>12.2} {:>6.2}x",
                    r.services, r.universal_mpps, r.goto_mpps, r.gain
                );
            }
        }
    }
    if want("faults") {
        println!("\n############ E14 — churn under an unreliable control channel (extension) ############");
        let rates = [0.0, 0.1, 0.2, 0.3];
        let rep = faults_report(&args.cfg, &rates);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rep).unwrap());
        } else {
            let rows = rep.rows;
            println!(
                "{:>6} {:<10} {:>5} {:>8} {:>8} {:>9} {:>8} {:>11} {:>10} {:>11}",
                "p",
                "repr",
                "err",
                "msgs",
                "retries",
                "restarts",
                "repairs",
                "conv [us]",
                "stall [ms]",
                "goodput"
            );
            for r in &rows {
                println!(
                    "{:>6.2} {:<10} {:>5} {:>8} {:>8} {:>9} {:>8} {:>11.0} {:>10.2} {:>8.3}{}",
                    r.fault_rate,
                    r.repr,
                    r.intent_errors,
                    r.delivered,
                    r.retries,
                    r.restarts,
                    r.repairs,
                    r.max_convergence_us,
                    r.stall_ms,
                    r.goodput_mpps,
                    if r.reconciled { "" } else { "  NOT-CONVERGED" }
                );
            }
        }
    }
    if want("symscale") {
        println!(
            "\n############ E17 — symbolic vs enumerative equivalence checking (extension) ############"
        );
        let rep = symscale(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rep).unwrap());
        } else {
            println!("host cores: {}", rep.host_cores);
            println!(
                "{:<8} {:>9} {:>9} {:>10} {:>9} {:>8} {:>8} {:>8}  verdict / digest",
                "workload",
                "log2|D|",
                "enum[ms]",
                "sym[ms]",
                "speedup",
                "nodes_l",
                "nodes_r",
                "checked"
            );
            for r in &rep.rows {
                println!(
                    "{:<8} {:>9.1} {:>9} {:>10.2} {:>9} {:>8} {:>8} {:>8}  {} / {}",
                    r.workload,
                    r.product_log2,
                    r.enum_ms
                        .map(|m| format!("{m:.2}"))
                        .unwrap_or_else(|| "infeasible".into()),
                    r.sym_ms,
                    r.speedup
                        .map(|s| format!("{s:.1}x"))
                        .unwrap_or_else(|| "-".into()),
                    r.dd_nodes_left,
                    r.dd_nodes_right,
                    r.packets_checked,
                    r.verdict,
                    r.digest
                );
            }
        }
    }
    if want("ddscale") {
        println!(
            "\n############ E21 — hash-consed decision diagrams at width (extension) ############"
        );
        let rep = ddscale(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rep).unwrap());
        } else {
            println!("host cores: {}", rep.host_cores);
            println!(
                "{:<8} {:>9} {:>6} {:>9} {:>9}  verdict / digest",
                "workload", "log2|D|", "bits", "nodes", "dd[ms]"
            );
            for r in &rep.rows {
                println!(
                    "{:<8} {:>9.1} {:>6} {:>9} {:>9.3}  {} / {}",
                    r.workload,
                    r.product_log2,
                    r.joint_bits,
                    r.dd_nodes,
                    r.dd_ms,
                    r.verdict,
                    r.digest
                );
            }
            println!("{:<10} {:>10} {:>7}  digest", "lint", "dd_unk", "dd_dead");
            for r in &rep.lint {
                println!(
                    "{:<10} {:>10} {:>7}  {}",
                    r.workload, r.dd_unknown, r.dd_dead, r.digest
                );
            }
        }
    }
    if want("phases") {
        println!(
            "\n############ E18 — phase attribution from span traces (extension) ############"
        );
        let rep = phases(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rep).unwrap());
        } else {
            for w in &rep.workloads {
                println!(
                    "{} — wall {:.2} ms, coverage {:.1}%, {} events{}",
                    w.workload,
                    w.wall_ms,
                    w.coverage * 100.0,
                    w.events,
                    if w.dropped > 0 {
                        format!(", {} dropped", w.dropped)
                    } else {
                        String::new()
                    }
                );
                // Top phases by self time; the full attribution is in --json.
                let mut by_self: Vec<_> = w.phases.iter().collect();
                by_self.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
                println!(
                    "  {:<44} {:>7} {:>11} {:>10} {:>7}",
                    "phase", "count", "total [ms]", "self [ms]", "share"
                );
                for p in by_self.iter().take(8) {
                    println!(
                        "  {:<44} {:>7} {:>11.2} {:>10.2} {:>6.1}%",
                        p.path,
                        p.count,
                        p.total_ms,
                        p.self_ms,
                        p.share * 100.0
                    );
                }
            }
        }
    }
    if want("lint") {
        println!(
            "\n############ E16 — static analysis of the paper workloads (extension) ############"
        );
        let rows = lint_workloads(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!(
                "{:<12} {:>7} {:>7} {:>6} {:>6}  lints",
                "workload", "tables", "errors", "warns", "infos"
            );
            for r in &rows {
                println!(
                    "{:<12} {:>7} {:>7} {:>6} {:>6}  {}",
                    r.workload,
                    r.tables,
                    r.errors,
                    r.warns,
                    r.infos,
                    r.lints.join(", ")
                );
            }
        }
    }
    if want("templates") {
        println!("\n############ E11 — ESwitch template selection ############");
        let rows = eswitch_templates(&args.cfg);
        if args.json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            for r in &rows {
                println!("{:<10} {}", r.repr, r.templates.join(", "));
            }
        }
    }

    if let Some(path) = &args.trace {
        let data = mapro_obs::trace::stop();
        let summary = data.summary();
        if let Err(e) = std::fs::write(path, data.to_chrome_json()) {
            eprintln!("repro: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprint!("{}", summary.to_text());
        eprintln!(
            "trace written to {path} ({} events, {:.1}% of wall covered)",
            data.events.len(),
            summary.coverage() * 100.0
        );
    }

    if let Some(sink) = &args.metrics {
        let report = mapro_obs::registry()
            .snapshot()
            .with_meta("experiment", &args.experiment)
            .with_meta("seed", args.cfg.seed)
            .with_meta("threads", mapro_par::configured_threads())
            .with_meta("version", env!("CARGO_PKG_VERSION"));
        match sink {
            MetricsSink::Stderr => eprint!("{}", report.to_text()),
            MetricsSink::File(path) => {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("repro: cannot write metrics to {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("metrics written to {path}");
            }
        }
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
