//! `toolchain`: source text → verified normal form, what
//! `mapro normalize --verify && mapro check && mapro lint && mapro export`
//! costs a user.
//!
//! One round takes every program of the corpus through format → parse →
//! mine → normalize (verifying each step) → check → lint → export. Round
//! `r` generates its programs from `seed + r`, so no round sees the
//! symbolic engine's caches warmed by another: a command-line user pays
//! cold costs on every invocation.

use crate::inputs::Fnv;
use crate::layers;
use crate::run::{Outcome, RunOpts, Scale, Section, SetupTimes};
use crate::stats;
use crate::trace::Recorder;
use mapro_core::{EquivOutcome, Packet, Pipeline, Value};
use mapro_workloads::RandomSpec;
use std::time::Instant;

/// How a corpus program is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// GWLB universal table: `size` services × `width` backends.
    Gwlb,
    /// L3 universal table: `size` prefixes.
    L3,
    /// ACL → NAT → L3: `size` services over `width` racks.
    Enterprise,
    /// Random table: `size` rows, 5 fields over a domain of 12, planted
    /// dependencies 0→1 and 2→3. Which dependencies hold by accident in
    /// such a table decides what it costs to normalize — eight-fold between
    /// seeds — so the table is drawn from [`RANDOM_STRUCTURE`] and the seed
    /// only shifts its values: the same work under other labels, which the
    /// symbolic engine's caches have not seen.
    Random,
}

/// The generator seed of every [`Shape::Random`] table.
const RANDOM_STRUCTURE: u64 = 2019;

/// One corpus program.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// Name, as it appears in `toolchain.<name>.ms`.
    pub name: &'static str,
    /// Generator.
    pub shape: Shape,
    /// Main size parameter (divided by `Scale::corpus_shrink`).
    pub size: usize,
    /// Second size parameter.
    pub width: usize,
}

const fn program(name: &'static str, shape: Shape, size: usize, width: usize) -> Program {
    Program {
        name,
        shape,
        size,
        width,
    }
}

/// The corpus: two sizes of each shape, because the symbolic engine's cost
/// is far from linear in size. The sizes are what lets a round of all eight
/// fit a run seven or eight times over: on this engine `ent-256` alone
/// takes 25 s and `l3-1024` 3 s.
pub const PROGRAMS: [Program; 8] = [
    program("gwlb-s10-b4", Shape::Gwlb, 10, 4),
    program("gwlb-s16-b8", Shape::Gwlb, 16, 8),
    program("l3-128", Shape::L3, 128, 0),
    program("l3-192", Shape::L3, 192, 0),
    program("ent-16", Shape::Enterprise, 16, 4),
    program("ent-24", Shape::Enterprise, 24, 8),
    program("rand-50", Shape::Random, 50, 0),
    program("rand-75", Shape::Random, 75, 0),
];

/// A generated program and a packet it forwards.
pub struct Source {
    /// The program as generated.
    pub pipeline: Pipeline,
    /// Field assignment of a packet the program forwards.
    pub forwarded: Vec<(&'static str, u64)>,
}

/// Generate `program` at `shrink` from `seed`.
pub fn generate(program: &Program, shrink: usize, seed: u64) -> Source {
    let size = (program.size / shrink).max(4);
    match program.shape {
        Shape::Gwlb => {
            let g = layers::gwlb(size, program.width, seed);
            let s = &g.services[0];
            Source {
                forwarded: vec![
                    ("ip_src", 1),
                    ("ip_dst", u64::from(s.ip)),
                    ("tcp_dst", u64::from(s.port)),
                ],
                pipeline: g.universal,
            }
        }
        Shape::L3 => Source {
            pipeline: layers::l3(size, seed).universal,
            forwarded: vec![("eth_type", 0x0800), ("ip_dst", 1)],
        },
        Shape::Enterprise => {
            let e = layers::enterprise(size, program.width.min(size), seed);
            let (ip, port, _, _) = e.services[0];
            Source {
                forwarded: vec![
                    ("ip_src", 1),
                    ("ip_dst", u64::from(ip)),
                    ("tcp_dst", u64::from(port)),
                ],
                pipeline: e.pipeline,
            }
        }
        Shape::Random => {
            let mut pipeline = layers::random_program(
                &RandomSpec {
                    fields: 5,
                    rows: size,
                    domain: 12,
                    planted: vec![(0, 1), (2, 3)],
                },
                RANDOM_STRUCTURE,
            );
            // Fields are 16 bits wide and hold values below 12.
            let shift = 1 + seed % 60_000;
            for cell in pipeline.tables[0]
                .entries
                .iter_mut()
                .flat_map(|e| e.matches.iter_mut())
            {
                if let Value::Int(x) = cell {
                    *x += shift;
                }
            }
            let first = &pipeline.tables[0].entries[0].matches;
            let forwarded = ["f0", "f1", "f2", "f3", "f4"]
                .into_iter()
                .zip(first)
                .map(|(name, v)| match v {
                    Value::Int(x) => (name, *x),
                    _ => (name, 0),
                })
                .collect();
            Source {
                pipeline,
                forwarded,
            }
        }
    }
}

/// The corpus of one round.
pub fn corpus(shrink: usize, seed: u64) -> Vec<Source> {
    PROGRAMS.iter().map(|p| generate(p, shrink, seed)).collect()
}

/// Everything built before the first timed operation.
pub struct State {
    /// The corpus of round `r` at index `r`.
    corpora: Vec<Vec<Source>>,
    shrink: usize,
    seed: u64,
    /// Where set-up time went.
    pub times: SetupTimes,
}

/// Generate the corpora of the first `Scale::corpus_rounds` rounds: more
/// than a run gets through, so that set-up is all the input generation
/// there is (and long enough to time).
pub fn setup(scale: &Scale, seed: u64) -> State {
    let t0 = Instant::now();
    let corpora = (0..scale.corpus_rounds as u64)
        .map(|r| corpus(scale.corpus_shrink, seed + r))
        .collect();
    State {
        corpora,
        shrink: scale.corpus_shrink,
        seed,
        times: SetupTimes {
            gen_ms: t0.elapsed().as_secs_f64() * 1e3,
            ..SetupTimes::default()
        },
    }
}

/// The stages of the chain, in order; also the span names.
const STAGES: [&str; 7] = [
    "core.text_format",
    "core.text_parse",
    "fd.mine",
    "normalize",
    "sym.check",
    "lint",
    "core.export",
];

/// What one program's pass through the chain gave.
struct Pass {
    stage_ns: [u64; 7],
    wall_ns: u64,
    steps: u64,
    tables_out: u64,
    fields_before: u64,
    fields_after: u64,
    findings: u64,
    unknown_findings: u64,
    normalized: Pipeline,
}

/// Times the stages of one program's chain, in [`STAGES`] order, each a
/// child span of the program's span.
struct Stages<'a> {
    rec: &'a mut Recorder,
    root: usize,
    request: u64,
    ns: [u64; 7],
    next: usize,
}

impl Stages<'_> {
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (v, ns) = self
            .rec
            .time(STAGES[self.next], Some(self.root), self.request, f);
        self.ns[self.next] = ns;
        self.next += 1;
        v
    }
}

/// One program through the chain.
fn chain(src: &Source, request: u64, rec: &mut Recorder, out: &mut Outcome, tag: &str) -> Pass {
    let root = rec.open("program", None, request);
    let mut stages = Stages {
        rec,
        root,
        request,
        ns: [0; 7],
        next: 0,
    };
    let text = stages.run(|| layers::format_program(&src.pipeline));
    let parsed = stages.run(|| layers::parse_program(&text));
    out.check(parsed.as_ref() == Ok(&src.pipeline), || {
        format!(
            "{tag}: parse(format(p)) is not p: {:?}",
            parsed.as_ref().err()
        )
    });
    // A user's later commands read the file, not the generator's memory.
    let program = parsed.unwrap_or_else(|_| src.pipeline.clone());
    stages.run(|| {
        for t in &program.tables {
            std::hint::black_box(layers::mine_fds(t, &program.catalog));
        }
    });
    let normalized = stages.run(|| layers::normalize(&program));
    let verdict = stages.run(|| layers::check_equivalent(&program, &normalized.pipeline));
    // Known answer: a normal form is equivalent to its source.
    out.check(
        matches!(verdict, Ok(EquivOutcome::Equivalent { .. })),
        || format!("{tag}: source vs normal form gave {verdict:?}"),
    );
    let lint = stages.run(|| layers::lint(&normalized.pipeline));
    stages.run(|| std::hint::black_box(layers::export(&normalized.pipeline)));
    let stage_ns = stages.ns;
    let wall_ns = rec.close(root);
    Pass {
        stage_ns,
        wall_ns,
        steps: normalized.steps.len() as u64,
        tables_out: normalized.pipeline.tables.len() as u64,
        fields_before: layers::field_count(&program) as u64,
        fields_after: layers::field_count(&normalized.pipeline) as u64,
        findings: lint.0 as u64,
        unknown_findings: lint.1 as u64,
        normalized: normalized.pipeline,
    }
}

/// Untimed known answer on the other side: flip the output of one entry of
/// the normal form; the checker must produce a packet on which the
/// reference semantics of source and mutant really differ.
fn mutant_check(src: &Source, normalized: &Pipeline, out: &mut Outcome, tag: &str) {
    let probe = Packet::from_fields(&src.pipeline.catalog, &src.forwarded);
    let Some(port) = layers::oracle_run(&src.pipeline, &probe).0 else {
        out.check(false, || {
            format!("{tag}: the representative packet is not forwarded")
        });
        return;
    };
    let mut mutant = normalized.clone();
    let out_attr = mutant.catalog.lookup("out").expect("programs output");
    let flipped = mutant.tables.iter_mut().any(|t| {
        let Some((col, false)) = t.column_of(out_attr) else {
            return false;
        };
        t.entries
            .iter_mut()
            .find(|e| e.actions[col] == Value::sym(&port))
            .map(|e| e.actions[col] = Value::sym("mutant"))
            .is_some()
    });
    let verdict = layers::check_equivalent(&src.pipeline, &mutant);
    let confirmed = match &verdict {
        Ok(EquivOutcome::Counterexample(cx)) => {
            layers::oracle_run(&src.pipeline, &cx.packet) != layers::oracle_run(&mutant, &cx.packet)
        }
        _ => false,
    };
    out.check(flipped && confirmed, || {
        format!("{tag}: mutant (flipped: {flipped}) gave {verdict:?}")
    });
}

/// Run rounds over the corpus and check every verdict.
pub fn run(st: State, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let counters_before = layers::counters();
    let mut passes: Vec<Vec<Pass>> = Vec::new();
    let mut corpora = st.corpora.into_iter();
    let section = Section::start(1.0);
    while section.more(opts, passes.len()) {
        let r = passes.len();
        let programs = corpora
            .next()
            .unwrap_or_else(|| corpus(st.shrink, st.seed + r as u64));
        let mut round = Vec::with_capacity(PROGRAMS.len());
        for (i, (program, src)) in PROGRAMS.iter().zip(&programs).enumerate() {
            let tag = format!("{} round {r}", program.name);
            let request = (r * PROGRAMS.len() + i) as u64;
            let pass = chain(src, request, &mut rec, &mut out, &tag);
            // The mutants are checked once per run: they are a test of the
            // checker's verdicts, not part of what a user waits for.
            if r == 0 {
                mutant_check(src, &pass.normalized, &mut out, &tag);
            }
            round.push(pass);
        }
        passes.push(round);
        out.mark_memory();
    }
    let counters_after = layers::counters();

    // Per program: the quiet decile over the rounds.
    let per_program: Vec<f64> = (0..PROGRAMS.len())
        .map(|i| {
            stats::quiet(
                &passes
                    .iter()
                    .map(|r| r[i].wall_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let total_ms: f64 = per_program.iter().sum();
    out.e2e(
        "items_per_s",
        stats::ratio(PROGRAMS.len() as f64, total_ms / 1e3),
    );
    out.e2e("op_p50_us", stats::median(&per_program) * 1e3);
    out.e2e("kind_geomean_ms", stats::geomean(&per_program));
    out.samples("rounds", passes.len() as u64);

    for (program, ms) in PROGRAMS.iter().zip(&per_program) {
        out.layer(&format!("toolchain.{}.ms", program.name), *ms);
    }
    // Per stage: the sum over the corpus of each program's quiet decile.
    let stage_ms = |s: usize| -> f64 {
        (0..PROGRAMS.len())
            .map(|i| {
                stats::quiet(
                    &passes
                        .iter()
                        .map(|r| r[i].stage_ns[s] as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    let stage_metric = [
        "core.text_format_ms",
        "core.text_parse_ms",
        "fd.mine_ms",
        "normalize.ms",
        "sym.check_ms",
        "lint.ms",
        "core.export_ms",
    ];
    let mut in_layers = 0.0;
    for (s, name) in stage_metric.iter().enumerate() {
        let ms = stage_ms(s);
        in_layers += ms;
        out.layer(name, ms);
    }
    out.layer(
        "harness.self_share",
        1.0 - stats::ratio(in_layers, total_ms),
    );
    // Exact counts, from the first round (the one every run has).
    let first = &passes[0];
    let sum = |f: fn(&Pass) -> u64| first.iter().map(f).sum::<u64>();
    out.layer("normalize.steps", sum(|p| p.steps) as f64);
    out.layer("normalize.tables_out", sum(|p| p.tables_out) as f64);
    out.layer("normalize.fields_before", sum(|p| p.fields_before) as f64);
    out.layer("normalize.fields_after", sum(|p| p.fields_after) as f64);
    out.layer("lint.findings", sum(|p| p.findings) as f64);
    out.layer("lint.unknown_findings", sum(|p| p.unknown_findings) as f64);
    out.sym_counters(&counters_before, &counters_after);

    let mut digest = Fnv::default();
    for p in first {
        digest.bytes(layers::format_program(&p.normalized).as_bytes());
    }
    out.work_digest = digest.0;
    out.count("programs", PROGRAMS.len() as u64);
    out.count("normalize_steps", sum(|p| p.steps));
    out.count("fields_before", sum(|p| p.fields_before));
    out.count("fields_after", sum(|p| p.fields_after));
    out.count("lint_findings", sum(|p| p.findings));
    out.spans = rec.into_spans();
    out
}
