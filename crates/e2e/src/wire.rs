//! `wire_hit` and `wire_walk`: wire bytes → verdict on a fixed pipeline.
//!
//! The two share every line of code and differ only in the input: the GWLB
//! pipeline's behaviour cover fits the megaflow cache's budget, so almost
//! every frame is a cache hit and the per-packet cost is parse + bind + the
//! hit path; the enterprise pipeline's cover does not fit, the cache turns
//! itself off, and every frame takes the compiled tier's ternary scan.

use crate::inputs::{self, Fnv, Rng, Traffic, BURST};
use crate::layers::Fate;
use crate::run::{Outcome, RunOpts, Scale, Section, SetupTimes};
use crate::serving::{self, LayerTotals, Serving, Slice};
use crate::stats;
use crate::trace::Recorder;
use mapro_core::Pipeline;
use std::time::Instant;

/// Which pipeline and traffic a wire workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Goto-normalized GWLB, Zipf traffic: the cache-hit path.
    Hit,
    /// ACL → NAT → L3, uniform traffic: the compiled-tier walk.
    Walk,
}

/// Everything built before the first timed operation.
pub struct State {
    serving: Serving,
    traffic: Traffic,
    oracle: Vec<Fate>,
    /// Where set-up time went.
    pub times: SetupTimes,
}

/// The pipeline and traffic of `kind` at `scale`, from `seed`.
pub fn inputs(kind: Kind, scale: &Scale, seed: u64) -> (Pipeline, Traffic) {
    let mut rng = Rng::new(seed, inputs::TRAFFIC_STREAM);
    match kind {
        Kind::Hit => {
            let g = crate::layers::gwlb(scale.gwlb_services, scale.gwlb_backends, seed);
            let p = crate::layers::gwlb_goto(&g);
            let t = inputs::gwlb_traffic(&g, scale.gwlb_flows, scale.gwlb_slots, &mut rng);
            (p, t)
        }
        Kind::Walk => {
            let e = crate::layers::enterprise(scale.ent_services, scale.ent_racks, seed);
            let t = inputs::enterprise_traffic(&e, scale.ent_flows, scale.ent_slots, &mut rng);
            (e.pipeline, t)
        }
    }
}

/// Generate the inputs, build the engine, tabulate the oracle.
pub fn setup(kind: Kind, scale: &Scale, seed: u64) -> State {
    let t0 = Instant::now();
    let (pipeline, traffic) = inputs(kind, scale, seed);
    let t1 = Instant::now();
    let serving = Serving::new(&pipeline);
    let t2 = Instant::now();
    let oracle = inputs::oracle_table(&pipeline, &traffic);
    State {
        serving,
        traffic,
        oracle,
        times: SetupTimes {
            gen_ms: (t1 - t0).as_secs_f64() * 1e3,
            engine_build_ms: (t2 - t1).as_secs_f64() * 1e3,
        },
    }
}

/// Slices until the section's time is up.
fn untraced(
    st: &mut State,
    scale: &Scale,
    opts: &RunOpts,
    share: f64,
    cursor: &mut usize,
    rec: &Recorder,
    out: &mut Outcome,
) -> Vec<Slice> {
    let mut slices = Vec::new();
    let mut stamps = Vec::with_capacity(scale.slice_bursts + 1);
    let section = Section::start(share);
    while section.more(opts, slices.len()) {
        slices.push(serving::timed_slice(
            &mut st.serving,
            &st.traffic,
            cursor,
            scale.slice(),
            &mut stamps,
            rec,
        ));
        out.mark_memory();
    }
    slices
}

/// The same loop with every stage stamped.
fn traced(
    st: &mut State,
    scale: &Scale,
    opts: &RunOpts,
    share: f64,
    cursor: &mut usize,
    rec: &mut Recorder,
) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let mut stamps = Vec::with_capacity(scale.slice_bursts + 1);
    let section = Section::start(share);
    while section.more(opts, totals.slice_ns_per_frame.len()) {
        serving::traced_slice(
            &mut st.serving,
            &st.traffic,
            cursor,
            scale.slice(),
            &mut stamps,
            rec,
            &mut totals,
        );
    }
    totals
}

/// What every frame-serving workload reports from its quiet slice: frame
/// rate and median burst latency end to end, the 99th percentile per layer
/// (ten samples beyond it per slice, but on this host it reads 5 or 7 µs
/// from one run of one seed to the next, which no bound survives).
pub fn slice_metrics(out: &mut Outcome, quiet: &Slice) {
    out.e2e("items_per_s", stats::ratio(1e9, quiet.ns_per_frame));
    out.e2e("op_p50_us", quiet.p50_us);
    out.layer("switch.burst_p99_us", quiet.p99_us);
}

/// The per-layer metrics of the packet and switch read path.
pub fn read_path_metrics(out: &mut Outcome, totals: &LayerTotals, untraced_rate: f64) {
    let frames = totals.frames.max(1) as f64;
    let wall = totals.wall_ns.max(1) as f64;
    let (parse, bind, process) = (
        totals.parse.sum() as f64,
        totals.bind.sum() as f64,
        totals.process.sum() as f64,
    );
    out.layer("packet.parse_ns_per_pkt", parse / frames);
    out.layer("packet.bind_ns_per_pkt", bind / frames);
    out.layer("packet.parse_share", parse / wall);
    out.layer("packet.bind_share", bind / wall);
    out.layer("switch.process_ns_per_pkt", process / frames);
    out.layer("switch.process_share", process / wall);
    out.layer("switch.lookups_per_pkt", totals.lookups as f64 / frames);
    out.layer("harness.self_share", 1.0 - (parse + bind + process) / wall);
    let traced_rate = stats::ratio(1e9, stats::quiet(&totals.slice_ns_per_frame));
    out.layer(
        "obs.trace_overhead_share",
        1.0 - stats::ratio(traced_rate, untraced_rate),
    );
}

/// The cache counters of the serving engine, as per-layer metrics.
pub fn cache_metrics(out: &mut Outcome, serving: &Serving) {
    let c = serving.cache();
    out.layer(
        "switch.hit_share",
        stats::ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    out.layer("switch.misses", c.misses as f64);
    out.layer("switch.evictions", c.evictions as f64);
    out.layer("switch.invalidations", c.invalidations as f64);
    out.layer("switch.cache_entries", c.entries as f64);
    out.layer("switch.cache_enabled", f64::from(u8::from(c.enabled)));
    out.layer("packet.parse_errors", serving.parse_errors as f64);
}

/// Run the timed section(s) and check every verdict.
pub fn run(mut st: State, scale: &Scale, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut cursor = 0;
    let mut rec = Recorder::default();
    // Traced runs split the time: the untraced half is the base the
    // tracing overhead is measured against.
    let share = if opts.trace { 0.5 } else { 1.0 };
    let slices = untraced(&mut st, scale, opts, share, &mut cursor, &rec, &mut out);
    let quiet = serving::quiet_slice(&slices);
    slice_metrics(&mut out, &quiet);
    let rate = out.e2e["items_per_s"];
    // One kind of request: the burst.
    out.e2e("kind_geomean_ms", quiet.p50_us / 1e3);
    out.attempted += (slices.len() * scale.slice_bursts * BURST) as u64;
    out.samples("slices", slices.len() as u64);

    if opts.trace {
        let totals = traced(&mut st, scale, opts, share, &mut cursor, &mut rec);
        out.attempted += totals.frames;
        read_path_metrics(&mut out, &totals, rate);
        out.histograms = totals.into_histograms();
    }
    cache_metrics(&mut out, &st.serving);

    // Untimed: every slot's verdict against the oracle's.
    let refused = st.serving.parse_errors;
    let (checked, bad, fates) =
        serving::verify_against(&mut st.serving, &st.traffic, &st.oracle, &rec);
    out.attempted += checked;
    out.fail_n(refused, "frames refused by the parser");
    out.fail_n(bad, "verdicts differ from the oracle");
    let mut digest = Fnv::default();
    digest.u64(st.traffic.digest());
    digest.u64(fates);
    out.work_digest = digest.0;
    out.count("frames_distinct", st.traffic.flows.len() as u64);
    out.count("slots", st.traffic.slots() as u64);
    out.count(
        "oracle_drops",
        st.oracle.iter().filter(|f| f.1).count() as u64,
    );
    out.spans = rec.into_spans();
    out
}
