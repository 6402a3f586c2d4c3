//! One benchmark run: set up (several times, for a steady set-up time),
//! measure, check, and render the result.

use crate::stats::Log2Hist;
use crate::trace::{self, Span};
use crate::{churn, stats, toolchain, wire};
use serde::Content;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "wire_hit",
    "wire_walk",
    "churn_goto",
    "churn_universal",
    "toolchain",
];

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("kind_geomean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The three operator intents of the churn workloads.
pub const INTENT_KINDS: [&str; 3] = ["move_port", "swap_backend", "reweight"];

/// Per-layer metrics `(name, unit)` that are not per intent kind or per
/// corpus program; [`per_layer`] adds those. A metric that does not apply
/// to a workload reads 0 there.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("packet.parse_ns_per_pkt", "ns"),
    ("packet.bind_ns_per_pkt", "ns"),
    ("packet.parse_share", "ratio"),
    ("packet.bind_share", "ratio"),
    ("packet.parse_errors", "count"),
    ("switch.process_ns_per_pkt", "ns"),
    ("switch.process_share", "ratio"),
    ("switch.lookups_per_pkt", "count"),
    ("switch.hit_share", "ratio"),
    ("switch.misses", "count"),
    ("switch.evictions", "count"),
    ("switch.invalidations", "count"),
    ("switch.cache_entries", "count"),
    ("switch.cache_enabled", "count"),
    ("switch.burst_p99_us", "us"),
    ("switch.engine_build_ms", "ms"),
    ("switch.apply_update_p50_us", "us"),
    ("switch.apply_update_max_us", "us"),
    ("switch.flowmods", "count"),
    ("switch.live_deliver_p50_us", "us"),
    ("control.apply_plan_self_share", "ratio"),
    ("control.wal_records", "count"),
    ("control.proofs", "count"),
    ("control.retries", "count"),
    ("control.shed", "count"),
    ("control.probe_p50_us", "us"),
    ("control.intents_per_s", "1/s"),
    ("sym.incr_checks", "count"),
    ("sym.incr_fallbacks", "count"),
    ("sym.incr_atoms_rechecked", "count"),
    ("sym.part_cache_hit_share", "ratio"),
    ("sym.fallbacks", "count"),
    ("sym.check_ms", "ms"),
    ("dd.nodes", "count"),
    ("core.text_format_ms", "ms"),
    ("core.text_parse_ms", "ms"),
    ("core.export_ms", "ms"),
    ("fd.mine_ms", "ms"),
    ("normalize.ms", "ms"),
    ("normalize.steps", "count"),
    ("normalize.tables_out", "count"),
    ("normalize.fields_before", "count"),
    ("normalize.fields_after", "count"),
    ("lint.ms", "ms"),
    ("lint.findings", "count"),
    ("lint.unknown_findings", "count"),
    ("workloads.gen_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("harness.self_share", "ratio"),
];

/// Every per-layer metric `(name, unit)` of a traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for kind in INTENT_KINDS {
        v.push((format!("control.{kind}.visible_p50_ms"), "ms"));
        v.push((format!("control.{kind}.apply_plan_p50_ms"), "ms"));
        v.push((format!("control.{kind}.flowmods_per_intent"), "count"));
    }
    for program in toolchain::PROGRAMS {
        v.push((format!("toolchain.{}.ms", program.name), "ms"));
    }
    v
}

/// Input sizes. [`Scale::full`] is what `BENCHMARK.json` runs;
/// [`Scale::smoke`] is the test-only size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// GWLB services (`wire_hit`, `churn_*`).
    pub gwlb_services: usize,
    /// GWLB backends per service (`wire_hit`: the paper's §5 instance).
    pub gwlb_backends: usize,
    /// GWLB backends per service on `churn_*`. Half of `wire_hit`'s: every
    /// version of the universal table is a new entry in the symbolic
    /// engine's partition cache, and at 160 rows three rounds of intents
    /// reach the section's memory cap where 80 rows allow ten.
    pub churn_backends: usize,
    /// Distinct GWLB flows.
    pub gwlb_flows: usize,
    /// GWLB replay-buffer slots.
    pub gwlb_slots: usize,
    /// Enterprise services (`wire_walk`).
    pub ent_services: usize,
    /// Enterprise L3 routes.
    pub ent_racks: usize,
    /// Distinct enterprise flows.
    pub ent_flows: usize,
    /// Enterprise replay-buffer slots.
    pub ent_slots: usize,
    /// Bursts in one slice: the unit burst percentiles are taken over (at
    /// full scale the 99th has ten samples beyond it), and one round of a
    /// `wire_*` timed section.
    pub slice_bursts: usize,
    /// Bursts in one chunk: the unit the frame rate is taken over.
    pub chunk_bursts: usize,
    /// Slices served between two intents of a `churn_*` workload.
    pub slices_per_intent: usize,
    /// Frames checked against the intended pipeline after each intent.
    pub sweep_frames: usize,
    /// Divides every corpus program's size parameter (`toolchain`).
    pub corpus_shrink: usize,
    /// Rounds whose corpus set-up generates ahead (`toolchain`).
    pub corpus_rounds: usize,
    /// Times set-up is repeated; `setup_s` is their quiet decile.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            gwlb_services: 20,
            gwlb_backends: 8,
            churn_backends: 4,
            gwlb_flows: 1 << 16,
            gwlb_slots: 1 << 19,
            ent_services: 900,
            ent_racks: 64,
            ent_flows: 1 << 13,
            ent_slots: 1 << 16,
            slice_bursts: 1024,
            chunk_bursts: 64,
            slices_per_intent: 8,
            sweep_frames: 4096,
            corpus_shrink: 1,
            corpus_rounds: 32,
            setup_reps: 3,
        }
    }

    /// `(slice_bursts, chunk_bursts)`.
    pub fn slice(&self) -> (usize, usize) {
        (self.slice_bursts, self.chunk_bursts)
    }

    /// A size at which all five workloads finish in seconds in a debug
    /// build. Tests only: the numbers it gives mean nothing.
    pub fn smoke() -> Scale {
        Scale {
            gwlb_services: 6,
            gwlb_backends: 4,
            churn_backends: 4,
            gwlb_flows: 256,
            gwlb_slots: 1024,
            ent_services: 12,
            ent_racks: 4,
            ent_flows: 128,
            ent_slots: 512,
            slice_bursts: 16,
            chunk_bursts: 4,
            slices_per_intent: 1,
            sweep_frames: 64,
            corpus_shrink: 8,
            corpus_rounds: 2,
            setup_reps: 1,
        }
    }
}

/// How long and how to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Run exactly this many rounds instead of running for `seconds`:
    /// fixed work, so every count repeats exactly.
    pub rounds: Option<usize>,
    /// Also run the traced section and report per-layer metrics.
    pub trace: bool,
    /// Directory for `run-*.json` and `trace-*.json`.
    pub out: Option<PathBuf>,
}

/// A timed section stops early once the process has grown by this much
/// since the section began. On this host memory the process has not touched
/// before costs tens of microseconds a page, and how much of it is cheap
/// depends on what ran before; a workload that keeps allocating (today
/// `churn_universal`, about 28 MiB a round) would otherwise measure the
/// host's page faults, twice as slow from an unpredictable round on.
pub const SECTION_GROWTH_CAP_MB: f64 = 300.0;

/// One timed section of a run: rounds of fixed work until its time is up.
#[derive(Debug)]
pub struct Section {
    start: Instant,
    share: f64,
    rss_mb: f64,
}

impl Section {
    /// Begin a section that gets `share` of the run's `--seconds`.
    pub fn start(share: f64) -> Section {
        Section {
            start: Instant::now(),
            share,
            rss_mb: rss_mb(),
        }
    }

    /// Whether the section, having finished `done` rounds, should run one
    /// more: with `--rounds` exactly that many; otherwise at least one,
    /// then until the time is up or the memory cap is reached.
    pub fn more(&self, opts: &RunOpts, done: usize) -> bool {
        match opts.rounds {
            Some(n) => done < n,
            None => {
                done == 0
                    || (self.start.elapsed().as_secs_f64() < opts.seconds * self.share
                        && rss_mb() - self.rss_mb < SECTION_GROWTH_CAP_MB)
            }
        }
    }
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation (`workloads` layer).
    pub gen_ms: f64,
    /// Engine, switch and controller construction.
    pub engine_build_ms: f64,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (frames, intents, programs, checks).
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    /// What failed, one line per cause.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics by name (traced runs; counts also untraced).
    pub layer: BTreeMap<String, f64>,
    /// Exact counts that depend on the seed only.
    pub counts: BTreeMap<String, u64>,
    /// How many samples stand behind the reported medians.
    pub samples: BTreeMap<String, u64>,
    /// Digest of the inputs and of every checked output.
    pub work_digest: u64,
    /// Full spans kept by a traced run.
    pub spans: Vec<Span>,
    /// Per-burst stage timings of a traced run, by span name.
    pub histograms: BTreeMap<&'static str, Log2Hist>,
}

impl Outcome {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_owned(), v);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_owned(), v);
    }

    /// Set an exact count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.counts.insert(name.to_owned(), v);
    }

    /// Set a sample count.
    pub fn samples(&mut self, name: &str, v: u64) {
        self.samples.insert(name.to_owned(), v);
    }

    /// Record the process's peak memory, the first time it is called. Each
    /// workload calls it after its first timed round — a fixed amount of
    /// work — so that `peak_rss_mb` does not grow with the number of rounds
    /// a time-boxed run happens to fit.
    pub fn mark_memory(&mut self) {
        self.e2e
            .entry("peak_rss_mb".to_owned())
            .or_insert_with(peak_rss_mb);
    }

    /// The counters of the symbolic layers (`layers::counters`), as deltas
    /// over a timed section.
    pub fn sym_counters(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        let delta = |name: &str| {
            let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
            get(after).saturating_sub(get(before)) as f64
        };
        self.layer("sym.incr_checks", delta("sym.incr.checks"));
        self.layer("sym.incr_fallbacks", delta("sym.incr.fallbacks"));
        self.layer(
            "sym.incr_atoms_rechecked",
            delta("sym.incr.atoms_rechecked"),
        );
        let (hits, misses) = (delta("sym.cache.hits"), delta("sym.cache.misses"));
        self.layer(
            "sym.part_cache_hit_share",
            stats::ratio(hits, hits + misses),
        );
        self.layer("sym.fallbacks", delta("sym.fallbacks"));
        self.layer("dd.nodes", delta("dd.nodes"));
    }

    /// Count `n` failed operations of one cause.
    pub fn fail_n(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} × {why}"));
        }
    }

    /// Count one attempted check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why());
            }
        }
    }
}

/// A finished run: the outcome plus what identifies the run.
#[derive(Debug)]
pub struct Record {
    /// The options the run was given.
    pub opts: RunOpts,
    /// The workload's result, `setup_s` and `peak_rss_mb` included.
    pub outcome: Outcome,
    /// Host and build identification.
    pub meta: BTreeMap<String, String>,
}

/// Set up `reps` times and keep the last state; returns it with every
/// repetition's wall in seconds. The repetitions use the seeds
/// `seed + reps - 1 .. seed`, the run's own last: the program memoizes
/// symbolic work per pipeline, so a second set-up of the *same* inputs
/// would be a warm one no user ever sees.
fn repeat_setup<S>(reps: usize, seed: u64, setup: impl Fn(u64) -> S) -> (S, Vec<f64>) {
    let reps = reps.max(1);
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for rep in (0..reps as u64).rev() {
        // Drop the previous state first: two live copies would double the
        // peak memory the run reports.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(seed.wrapping_add(rep)));
        walls.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), walls)
}

/// A `kB` field of `/proc/self/status` in MiB; 0 where `/proc` lacks it.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident memory of this process now (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// The commit checked out in the working directory, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_owned()))
        }),
        None => Some(head),
    };
    match rev.as_deref().map(str::trim) {
        Some(r) if !r.is_empty() => r.to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// Identify the host and the build, so that two runs are compared only
/// when they can be.
pub fn meta(opts: &RunOpts, threads: usize) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    m.insert("host_cores".into(), cores.to_string());
    m.insert("threads".into(), threads.to_string());
    m.insert("seed".into(), opts.seed.to_string());
    m.insert(
        "profile".into(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    );
    m.insert("rustc".into(), env!("E2E_RUSTC").into());
    m.insert("git_rev".into(), git_rev());
    m.insert("workload".into(), opts.workload.clone());
    m
}

/// Set up (repeatedly) and run one workload given its two halves.
fn drive<S>(
    scale: &Scale,
    seed: u64,
    setup: impl Fn(u64) -> S,
    times: impl Fn(&S) -> SetupTimes,
    run: impl FnOnce(S) -> Outcome,
) -> (Outcome, Vec<f64>, SetupTimes) {
    let (state, walls) = repeat_setup(scale.setup_reps, seed, setup);
    let times = times(&state);
    (run(state), walls, times)
}

/// Run one workload at `scale`.
pub fn run(opts: &RunOpts, scale: &Scale) -> Result<Record, String> {
    let threads = crate::layers::pin_single_thread();
    let seed = opts.seed;
    let wire = |kind| {
        drive(
            scale,
            seed,
            |s| wire::setup(kind, scale, s),
            |st| st.times,
            |st| wire::run(st, scale, opts),
        )
    };
    let churn = |form| {
        drive(
            scale,
            seed,
            |s| churn::setup(form, scale, s),
            |st| st.times,
            |st| churn::run(st, scale, opts),
        )
    };
    let (mut outcome, walls, times) = match opts.workload.as_str() {
        "wire_hit" => wire(wire::Kind::Hit),
        "wire_walk" => wire(wire::Kind::Walk),
        "churn_goto" => churn(churn::Form::Goto),
        "churn_universal" => churn(churn::Form::Universal),
        "toolchain" => drive(
            scale,
            seed,
            |s| toolchain::setup(scale, s),
            |st| st.times,
            |st| toolchain::run(st, opts),
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    outcome.e2e("setup_s", stats::quiet(&walls));
    outcome.mark_memory();
    outcome.layer("workloads.gen_ms", times.gen_ms);
    outcome.layer("switch.engine_build_ms", times.engine_build_ms);
    outcome.samples("setup_reps", walls.len() as u64);
    Ok(Record {
        opts: opts.clone(),
        outcome,
        meta: meta(opts, threads),
    })
}

fn metric_map<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &BTreeMap<String, f64>,
) -> Content {
    Content::Map(
        names
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_owned(),
                    Content::Map(vec![
                        ("value".into(), Content::F64(v)),
                        ("unit".into(), Content::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn u64_map(m: &BTreeMap<String, u64>) -> Content {
    Content::Map(
        m.iter()
            .map(|(k, v)| (k.clone(), Content::U64(*v)))
            .collect(),
    )
}

struct Json(Content);

impl serde::Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Record {
    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0
    }

    /// The one-line result the benchmark contract asks for: the end-to-end
    /// metrics, or with `traced` the per-layer metrics.
    pub fn result_line(&self, traced: bool) -> String {
        let layer = per_layer();
        let metrics = if traced {
            metric_map(
                layer.iter().map(|(n, u)| (n.as_str(), *u)),
                &self.outcome.layer,
            )
        } else {
            metric_map(END_TO_END.iter().copied(), &self.outcome.e2e)
        };
        let line = Content::Map(vec![
            ("correct".into(), Content::Bool(self.correct())),
            ("attempted".into(), Content::U64(self.outcome.attempted)),
            ("failed".into(), Content::U64(self.outcome.failed)),
            ("metrics".into(), metrics),
        ]);
        serde_json::to_string(&Json(line)).expect("a content tree renders")
    }

    /// The full record `e2e compare` reads: both metric sets, the exact
    /// counts, the digest, and what identifies host and build.
    pub fn full_json(&self) -> String {
        let layer = per_layer();
        let o = &self.outcome;
        let doc = Content::Map(vec![
            (
                "meta".into(),
                Content::Map(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("traced".into(), Content::Bool(self.opts.trace)),
            ("correct".into(), Content::Bool(self.correct())),
            ("attempted".into(), Content::U64(o.attempted)),
            ("failed".into(), Content::U64(o.failed)),
            (
                "failures".into(),
                Content::Seq(o.failures.iter().cloned().map(Content::Str).collect()),
            ),
            (
                "work_digest".into(),
                Content::Str(format!("{:016x}", o.work_digest)),
            ),
            (
                "end_to_end".into(),
                metric_map(END_TO_END.iter().copied(), &o.e2e),
            ),
            (
                "per_layer".into(),
                metric_map(layer.iter().map(|(n, u)| (n.as_str(), *u)), &o.layer),
            ),
            ("counts".into(), u64_map(&o.counts)),
            ("samples".into(), u64_map(&o.samples)),
            // Of the spans kept in full: each layer's own time, children
            // taken out.
            (
                "span_self_ns".into(),
                Content::Map(
                    trace::self_times(&o.spans)
                        .into_iter()
                        .map(|(name, ns)| (name.to_owned(), Content::U64(ns)))
                        .collect(),
                ),
            ),
            // Of every traced burst: the stages' log2 histograms, as the
            // upper bounds of the buckets the median and the 99th fall in.
            (
                "burst_stage_ns".into(),
                Content::Map(
                    o.histograms
                        .iter()
                        .map(|(name, h)| {
                            let field = |k: &str, v: u64| (k.to_owned(), Content::U64(v));
                            (
                                (*name).to_owned(),
                                Content::Map(vec![
                                    field("count", h.count()),
                                    field("sum", h.sum()),
                                    field("p50_below", h.quantile_upper(0.50)),
                                    field("p99_below", h.quantile_upper(0.99)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&Json(doc)).expect("a content tree renders")
    }

    /// Write `run-<workload>-<seed>-<pid>.json` (and the Chrome trace of a
    /// traced run) into `dir`.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tag = if self.opts.trace { "traced" } else { "run" };
        let name = format!(
            "{tag}-{}-{}-{}.json",
            self.opts.workload,
            self.opts.seed,
            std::process::id()
        );
        std::fs::write(dir.join(name), self.full_json())?;
        if self.opts.trace {
            std::fs::write(
                dir.join(format!("trace-{}.json", self.opts.workload)),
                trace::chrome_json(&self.outcome.spans),
            )?;
        }
        Ok(())
    }
}
