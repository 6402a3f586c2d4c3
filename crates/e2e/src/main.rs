//! `e2e run` measures one workload; `e2e compare` judges two sets of runs.

use mapro_e2e::compare;
use mapro_e2e::run::{self, RunOpts, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  e2e run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--traced]
          [--rounds <n>] [--out <dir>]
  e2e compare <runsA-dir> <runsB-dir> [--benchmark <BENCHMARK.json>]";

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot read {s:?} as a number"))
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 2019,
        seconds: 10.0,
        rounds: None,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => opts.workload = value(args, &mut i, flag)?.to_owned(),
            "--seed" => opts.seed = parse_num(value(args, &mut i, flag)?, flag)?,
            "--seconds" => opts.seconds = parse_num(value(args, &mut i, flag)?, flag)?,
            "--rounds" => opts.rounds = Some(parse_num(value(args, &mut i, flag)?, flag)?),
            "--trace" => opts.trace = parse_num::<u8>(value(args, &mut i, flag)?, flag)? != 0,
            "--traced" => opts.trace = true,
            "--out" => opts.out = Some(PathBuf::from(value(args, &mut i, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(opts)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_run(args)?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let record = run::run(&opts, &Scale::full())?;
    if let Some(dir) = &opts.out {
        record
            .write(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Everything but the result goes to stderr: the result is the last
    // line of stdout.
    eprintln!("{}", record.full_json());
    for f in &record.outcome.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", record.result_line(opts.trace));
    Ok(if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--benchmark" => benchmark = PathBuf::from(value(args, &mut i, "--benchmark")?),
            d => dirs.push(PathBuf::from(d)),
        }
        i += 1;
    }
    let [a, b] = dirs.as_slice() else {
        return Err("compare needs exactly two directories".into());
    };
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds = compare::parse_bounds(&text)?;
    let (report, pass) = compare::compare(&compare::read_dir(a)?, &compare::read_dir(b)?, &bounds)?;
    print!("{report}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}
