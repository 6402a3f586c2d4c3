//! `churn_goto` and `churn_universal`: the paper's Fig. 4 in wall-clock,
//! with verification on.
//!
//! One thread serves bursts of wire frames (a closed loop with one client)
//! and, at fixed burst counts, issues one operator intent and waits for it
//! (a second closed loop with one request in flight): a control stall is a
//! datapath stall. An intent goes controller → WAL → lossless channel →
//! `LiveSwitch` → inline proof, then every flow-mod of the plan into the
//! serving engine, then a probe frame whose fate the intent changes; the
//! time from issue to the probe's new fate is the *visible* latency.
//!
//! The two workloads issue identical intents against the two forms of one
//! GWLB instance, so a change that helps one form and costs the other
//! shows. The three intent kinds rotate, each on its own third of the
//! services so that every plan stays valid against the generator's
//! blueprint.

use crate::inputs::{self, Fnv, Rng, Traffic, BURST};
use crate::layers::{self, Fate};
use crate::run::{Outcome, RunOpts, Scale, Section, SetupTimes, INTENT_KINDS};
use crate::serving::{self, LayerTotals, Serving, Slice};
use crate::stats;
use crate::trace::Recorder;
use mapro_control::{Ack, Controller, Endpoint, FaultyChannel, FlowMod, RuleUpdate, UpdatePlan};
use mapro_core::Value;
use mapro_switch::LiveSwitch;
use mapro_workloads::{Gwlb, Service};
use std::time::Instant;

/// Which representation of the GWLB instance is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Goto-normalized (Fig. 1b).
    Goto,
    /// The universal table (Fig. 1a).
    Universal,
}

/// The harness's own `Endpoint`: times every delivery into the switch.
pub struct Timed<E> {
    inner: E,
    origin: Instant,
    /// `(start, end)` of each delivery, ns since `origin`.
    pub deliveries: Vec<(u64, u64)>,
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn deliver(&mut self, msg: &FlowMod) -> Ack {
        let start = self.origin.elapsed().as_nanos() as u64;
        let ack = self.inner.deliver(msg);
        self.deliveries
            .push((start, self.origin.elapsed().as_nanos() as u64));
        ack
    }

    fn restart(&mut self) {
        self.inner.restart();
    }
}

/// Everything built before the first timed operation.
pub struct State {
    gwlb: Gwlb,
    /// The harness's own account of what the services are now: the source
    /// of every expected fate, independent of the program.
    model: Vec<Service>,
    serving: Serving,
    ctl: Controller,
    ch: FaultyChannel<Timed<LiveSwitch>>,
    traffic: Traffic,
    rec: Recorder,
    /// Where set-up time went.
    pub times: SetupTimes,
}

/// Generate the instance and its traffic; build engine, switch, controller.
pub fn setup(form: Form, scale: &Scale, seed: u64) -> State {
    let t0 = Instant::now();
    let gwlb = layers::gwlb(scale.gwlb_services, scale.churn_backends, seed);
    let pipeline = match form {
        Form::Goto => layers::gwlb_goto(&gwlb),
        Form::Universal => gwlb.universal.clone(),
    };
    let mut rng = Rng::new(seed, inputs::TRAFFIC_STREAM);
    let traffic = inputs::gwlb_traffic(&gwlb, scale.gwlb_flows, scale.gwlb_slots, &mut rng);
    let t1 = Instant::now();
    let rec = Recorder::default();
    let serving = Serving::new(&pipeline);
    let live = Timed {
        inner: layers::live_switch(pipeline.clone()),
        origin: rec.origin(),
        deliveries: Vec::new(),
    };
    let ch = layers::channel(live, seed);
    let ctl = layers::controller(pipeline);
    let t2 = Instant::now();
    State {
        model: gwlb.services.clone(),
        gwlb,
        serving,
        ctl,
        ch,
        traffic,
        rec,
        times: SetupTimes {
            gen_ms: (t1 - t0).as_secs_f64() * 1e3,
            engine_build_ms: (t2 - t1).as_secs_f64() * 1e3,
        },
    }
}

/// The fate the model gives a frame.
fn model_fate(model: &[Service], ip_src: u64, ip_dst: u64, dport: u64) -> Fate {
    model
        .iter()
        .find(|s| u64::from(s.ip) == ip_dst && u64::from(s.port) == dport)
        .and_then(|s| s.backends.iter().find(|(pfx, _)| pfx.matches(ip_src, 32)))
        .map_or((None, true), |(_, vm)| (Some(vm.as_str().into()), false))
}

/// An address inside a backend's prefix.
fn inside(pfx: &Value) -> u64 {
    match *pfx {
        Value::Prefix { bits, .. } => bits | 1,
        _ => 1,
    }
}

/// One compiled intent with the frame that will show it took effect.
struct Intent {
    kind: usize,
    plan: UpdatePlan,
    /// `(ip_src, ip_dst, dport)` of the probe.
    probe: (u64, u64, u64),
    /// The services after the intent.
    next: Vec<Service>,
}

/// Compile intent number `k` against the controller's intended pipeline.
fn compile(st: &State, k: usize) -> Intent {
    let (kind, j) = (k % 3, k / 3);
    let third = (st.model.len() / 3).max(1);
    let intended = layers::intended(&st.ctl);
    let mut next = st.model.clone();
    match kind {
        0 => {
            // move_port: toggle the service between its own port and one
            // no service uses.
            let s = j % third;
            let home = st.gwlb.services[s].port;
            let port = if st.model[s].port == home {
                10_000 + s as u16
            } else {
                home
            };
            next[s].port = port;
            let svc = &st.model[s];
            Intent {
                kind,
                plan: layers::plan_move_port(&st.gwlb, intended, s, port),
                probe: (
                    inside(&svc.backends[0].0),
                    u64::from(svc.ip),
                    u64::from(port),
                ),
                next,
            }
        }
        1 => {
            // swap_backend: point one backend's rule at another VM — an
            // action-only modify of the entry that outputs to the old VM.
            let s = (third + j % third).min(st.model.len() - 1);
            let svc = &st.model[s];
            let b = (j / third) % svc.backends.len();
            let old = svc.backends[b].1.clone();
            let new = match old.strip_suffix("-alt") {
                Some(base) => base.to_owned(),
                None => format!("{old}-alt"),
            };
            next[s].backends[b].1 = new.clone();
            let (table, matches) = intended
                .tables
                .iter()
                .find_map(|t| {
                    let (col, false) = t.column_of(st.gwlb.out)? else {
                        return None;
                    };
                    t.entries
                        .iter()
                        .find(|e| e.actions[col] == Value::sym(&old))
                        .map(|e| (t.name.clone(), e.matches.clone()))
                })
                .expect("every backend VM is the output of exactly one entry");
            Intent {
                kind,
                plan: UpdatePlan {
                    intent: format!("swap backend {b} of service {s} to {new}"),
                    updates: vec![RuleUpdate::Modify {
                        table,
                        matches,
                        set: vec![(st.gwlb.out, Value::sym(&new))],
                    }],
                },
                probe: (
                    inside(&svc.backends[b].0),
                    u64::from(svc.ip),
                    u64::from(svc.port),
                ),
                next,
            }
        }
        _ => {
            // reweight: toggle between the even split and one that gives
            // the first backend a double share — deletes plus inserts.
            let s = (2 * third + j % (st.model.len() - 2 * third).max(1)).min(st.model.len() - 1);
            let svc = &st.model[s];
            let m = st.gwlb.services[s].backends.len();
            let weights: Vec<u64> = if svc.backends.len() == m && m > 2 {
                std::iter::once(2).chain(vec![1; m - 2]).collect()
            } else {
                vec![1; m]
            };
            let backends: Vec<(Value, String)> = layers::split(&weights)
                .into_iter()
                .zip(
                    st.gwlb.services[s]
                        .backends
                        .iter()
                        .map(|(_, vm)| vm.clone()),
                )
                .collect();
            next[s].backends = backends.clone();
            // Some new prefix starts at an address the old split gave to
            // another VM.
            let src = backends
                .iter()
                .map(|(pfx, _)| inside(pfx))
                .find(|&a| {
                    let d = (u64::from(svc.ip), u64::from(svc.port));
                    model_fate(&st.model, a, d.0, d.1) != model_fate(&next, a, d.0, d.1)
                })
                .unwrap_or(1);
            Intent {
                kind,
                plan: layers::plan_reweight(&st.gwlb, intended, s, &backends),
                probe: (src, u64::from(svc.ip), u64::from(svc.port)),
                next,
            }
        }
    }
}

/// What the harness measured around one intent, ns.
#[derive(Debug, Clone, Copy, Default)]
struct IntentTimes {
    kind: usize,
    visible: u64,
    apply_plan: u64,
    deliver: u64,
    apply_update: u64,
    probe: u64,
    flowmods: u64,
}

/// Per-run accumulators.
#[derive(Default)]
struct Tally {
    intents: Vec<IntentTimes>,
    apply_update_ns: Vec<f64>,
    /// Plans, probe fates and swept fates so far.
    digest: Fnv,
}

/// Issue intent `k` and wait until its probe shows the new rule.
fn issue(st: &mut State, k: usize, out: &mut Outcome, tally: &mut Tally) {
    let intent = compile(st, k);
    let (src, dst, dport) = intent.probe;
    let before = model_fate(&st.model, src, dst, dport);
    let after = model_fate(&intent.next, src, dst, dport);
    out.check(before != after, || {
        format!("intent {k}: the probe cannot tell before from after")
    });
    let mut wire = Vec::with_capacity(inputs::FRAME_LEN);
    layers::emit_into(&inputs::frame(src, dst, dport, k), &mut wire);
    let proofs_before = layers::control_counts(&st.ctl).proofs;
    let delivered_before = layers::endpoint(&st.ch).deliveries.len();
    tally.digest.bytes(format!("{:?}", intent.plan).as_bytes());

    let request = k as u64;
    let root = st.rec.open("intent", None, request);
    let plan_span = st.rec.open("control.apply_plan", Some(root), request);
    let result = layers::apply_plan(&mut st.ctl, &mut st.ch, &intent.plan);
    let apply_plan = st.rec.close(plan_span);
    let mut deliver = 0;
    for &(s, e) in &layers::endpoint(&st.ch).deliveries[delivered_before..] {
        st.rec
            .push("switch.live.deliver", s, e, Some(plan_span), request);
        deliver += e - s;
    }
    let mut apply_update = 0;
    let mut engine_ok = result.is_ok();
    if result.is_ok() {
        for u in &intent.plan.updates {
            let (r, ns) = st
                .rec
                .time("switch.cache.apply_update", Some(root), request, || {
                    layers::engine_update(&mut st.serving.engine, u)
                });
            engine_ok &= r.is_ok();
            apply_update += ns;
            tally.apply_update_ns.push(ns as f64);
        }
    }
    let probe_span = st.rec.open("probe", Some(root), request);
    let seen = st.serving.one(&wire, &st.rec);
    let probe = st.rec.close(probe_span);
    let visible = st.rec.close(root);

    tally.intents.push(IntentTimes {
        kind: intent.kind,
        visible,
        apply_plan,
        deliver,
        apply_update,
        probe,
        flowmods: intent.plan.updates.len() as u64,
    });
    out.check(result.is_ok(), || {
        format!("intent {k} ({}): {result:?}", intent.plan.intent)
    });
    out.check(engine_ok, || {
        format!("intent {k}: the serving engine refused it")
    });
    out.check(seen.as_ref() == Some(&after), || {
        format!("intent {k}: probe saw {seen:?}, the model says {after:?}")
    });
    let proof = layers::last_proof(&st.ctl);
    let proved = layers::control_counts(&st.ctl).proofs == proofs_before + 1
        && proof.is_some_and(|(_, equivalent)| equivalent);
    out.check(proved, || {
        format!("intent {k}: no equivalent proof, last {proof:?}")
    });
    if let Some(f) = &seen {
        tally.digest.fate(f);
    }
    st.model = intent.next;
    // The model and the reference semantics of the intended pipeline agree
    // on the probe.
    let intended = layers::intended(&st.ctl);
    let pkt = inputs::oracle_packet(&intended.catalog, src, dst, dport);
    let reference = layers::oracle_run(intended, &pkt);
    out.check(reference == after, || {
        format!("intent {k}: intended pipeline gives {reference:?}, the model {after:?}")
    });
}

/// Untimed: `n` slots of the replay buffer, engine against the reference
/// semantics of the controller's intended pipeline.
fn sweep(st: &mut State, from: usize, n: usize, out: &mut Outcome, digest: &mut Fnv) {
    let bursts = (n / BURST).max(1);
    let mut bad = 0;
    for i in 0..bursts {
        let b = (from + i) % st.traffic.bursts();
        st.serving.burst(&st.traffic, b, &st.rec);
        let intended = layers::intended(&st.ctl);
        for (k, fate) in st.serving.fates().enumerate() {
            let f = &st.traffic.flows[st.traffic.flow_of[b * BURST + k] as usize];
            let pkt = inputs::oracle_packet(
                &intended.catalog,
                u64::from(f.ip_src),
                u64::from(f.ip_dst),
                u64::from(f.dport),
            );
            if fate != layers::oracle_run(intended, &pkt) {
                bad += 1;
            }
            digest.fate(&fate);
        }
    }
    out.attempted += (bursts * BURST) as u64;
    out.fail_n(bad, "swept frames differ from the intended pipeline");
}

/// What one untraced round gave: each intent kind once, each followed by
/// its slices of bursts.
struct Round {
    /// Σ of the three visible latencies.
    stall_ns: u64,
    slices: Vec<Slice>,
}

impl Round {
    /// Wall per frame, the three intent stalls included: the stalls as
    /// measured, the frames at each slice's quiet rate.
    fn ns_per_frame(&self, frames_per_slice: usize) -> f64 {
        let frames = (self.slices.len() * frames_per_slice) as f64;
        let serving: f64 = self
            .slices
            .iter()
            .map(|s| s.ns_per_frame * frames_per_slice as f64)
            .sum();
        stats::ratio(self.stall_ns as f64 + serving, frames)
    }
}

/// One round. With `totals` the bursts are traced and the round's slices
/// stay empty.
fn round(
    st: &mut State,
    scale: &Scale,
    first_intent: usize,
    cursor: &mut usize,
    mut totals: Option<&mut LayerTotals>,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Round {
    let mut r = Round {
        stall_ns: 0,
        slices: Vec::with_capacity(3 * scale.slices_per_intent),
    };
    let mut stamps = Vec::with_capacity(scale.slice_bursts + 1);
    for k in first_intent..first_intent + 3 {
        issue(st, k, out, tally);
        r.stall_ns += tally.intents.last().map_or(0, |t| t.visible);
        for _ in 0..scale.slices_per_intent {
            match totals.as_deref_mut() {
                None => r.slices.push(serving::timed_slice(
                    &mut st.serving,
                    &st.traffic,
                    cursor,
                    scale.slice(),
                    &mut stamps,
                    &st.rec,
                )),
                Some(totals) => serving::traced_slice(
                    &mut st.serving,
                    &st.traffic,
                    cursor,
                    scale.slice(),
                    &mut stamps,
                    &mut st.rec,
                    totals,
                ),
            }
        }
        // After the timed bursts, so that the post-invalidation misses land
        // in them and not in the check.
        sweep(st, *cursor, scale.sweep_frames, out, &mut tally.digest);
    }
    r
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// `stat` over the intents of `kind` of `f`.
fn kind_stat(
    intents: &[IntentTimes],
    kind: usize,
    stat: fn(&[f64]) -> f64,
    f: fn(&IntentTimes) -> u64,
) -> f64 {
    stat(
        &intents
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| f(t) as f64)
            .collect::<Vec<_>>(),
    )
}

/// Run the timed section(s) and check every outcome.
pub fn run(mut st: State, scale: &Scale, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut cursor = 0;
    let mut next_intent = 0;
    let counters_before = layers::counters();
    let share = if opts.trace { 0.5 } else { 1.0 };

    // What the first round did is what every run of this seed does, however
    // long it runs: the digest and the exact counts stop there.
    let mut first_round = None;
    let mut next_round =
        |st: &mut State, out: &mut Outcome, tally: &mut Tally, totals: Option<&mut LayerTotals>| {
            let r = round(st, scale, next_intent, &mut cursor, totals, out, tally);
            next_intent += 3;
            first_round.get_or_insert_with(|| {
                (
                    tally.digest,
                    layers::control_counts(&st.ctl),
                    st.serving.cache().invalidations,
                )
            });
            r
        };
    let mut rounds = Vec::new();
    let section = Section::start(share);
    while section.more(opts, rounds.len()) {
        rounds.push(next_round(&mut st, &mut out, &mut tally, None));
        out.mark_memory();
    }
    let mut totals = LayerTotals::default();
    if opts.trace {
        let (mut done, section) = (0, Section::start(share));
        while section.more(opts, done) {
            next_round(&mut st, &mut out, &mut tally, Some(&mut totals));
            done += 1;
        }
    }

    // End to end, from the untraced rounds.
    let untraced_intents = &tally.intents[..rounds.len() * 3];
    let visible: Vec<f64> = (0..3)
        .map(|kind| {
            ms(kind_stat(untraced_intents, kind, stats::quiet, |t| {
                t.visible
            }))
        })
        .collect();
    let frames_per_slice = scale.slice_bursts * BURST;
    let slices: Vec<Slice> = rounds
        .iter()
        .flat_map(|r| r.slices.iter().copied())
        .collect();
    crate::wire::slice_metrics(
        &mut out,
        &Slice {
            // The rate of a quiet round, its three stalls included.
            ns_per_frame: stats::quiet(
                &rounds
                    .iter()
                    .map(|r| r.ns_per_frame(frames_per_slice))
                    .collect::<Vec<_>>(),
            ),
            ..serving::quiet_slice(&slices)
        },
    );
    out.e2e("kind_geomean_ms", stats::geomean(&visible));
    out.attempted += (slices.len() * frames_per_slice) as u64 + totals.frames;
    out.samples("rounds", rounds.len() as u64);
    out.samples("slices", slices.len() as u64);

    // Per layer, from every intent of the run.
    let all = &tally.intents;
    let sum = |f: fn(&IntentTimes) -> u64| all.iter().map(f).sum::<u64>() as f64;
    let (visible_ns, plan_ns, deliver_ns, update_ns, probe_ns) = (
        sum(|t| t.visible),
        sum(|t| t.apply_plan),
        sum(|t| t.deliver),
        sum(|t| t.apply_update),
        sum(|t| t.probe),
    );
    for (kind, name) in INTENT_KINDS.iter().enumerate() {
        out.layer(
            &format!("control.{name}.visible_p50_ms"),
            ms(kind_stat(all, kind, stats::median, |t| t.visible)),
        );
        out.layer(
            &format!("control.{name}.apply_plan_p50_ms"),
            ms(kind_stat(all, kind, stats::median, |t| t.apply_plan)),
        );
        out.layer(
            &format!("control.{name}.flowmods_per_intent"),
            kind_stat(all, kind, stats::median, |t| t.flowmods),
        );
    }
    out.layer(
        "control.apply_plan_self_share",
        stats::ratio(plan_ns - deliver_ns, visible_ns),
    );
    out.layer(
        "control.probe_p50_us",
        stats::median(&all.iter().map(|t| t.probe as f64 / 1e3).collect::<Vec<_>>()),
    );
    out.layer(
        "control.intents_per_s",
        stats::ratio(all.len() as f64, visible_ns / 1e9),
    );
    let cc = layers::control_counts(&st.ctl);
    out.layer("control.wal_records", cc.wal_records as f64);
    out.layer("control.proofs", cc.proofs as f64);
    out.layer("control.retries", cc.retries as f64);
    out.layer("control.shed", cc.shed as f64);
    out.fail_n(cc.shed, "intents shed by admission control");
    out.layer(
        "switch.apply_update_p50_us",
        stats::median(&tally.apply_update_ns) / 1e3,
    );
    out.layer(
        "switch.apply_update_max_us",
        tally.apply_update_ns.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    out.layer("switch.flowmods", sum(|t| t.flowmods));
    out.layer(
        "switch.live_deliver_p50_us",
        stats::median(
            &layers::endpoint(&st.ch)
                .deliveries
                .iter()
                .map(|&(s, e)| (e - s) as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    out.sym_counters(&counters_before, &layers::counters());
    crate::wire::cache_metrics(&mut out, &st.serving);
    if opts.trace {
        // The untraced base for the tracing overhead: the frame rate of a
        // quiet slice, no intent stall in it.
        crate::wire::read_path_metrics(
            &mut out,
            &totals,
            stats::ratio(1e9, serving::quiet_slice(&slices).ns_per_frame),
        );
        // Of everything the run waited for — every intent, plus the traced
        // bursts — the part not inside a call into a layer.
        let in_layers = plan_ns
            + update_ns
            + probe_ns
            + (totals.parse.sum() + totals.bind.sum() + totals.process.sum()) as f64;
        out.layer(
            "harness.self_share",
            1.0 - stats::ratio(in_layers, visible_ns + totals.wall_ns as f64),
        );
    }

    // At exit the switch holds what the controller intends.
    let live = layers::live_pipeline(&layers::endpoint(&st.ch).inner);
    out.check(live == layers::intended(&st.ctl), || {
        "the switch's pipeline differs from the controller's intended one".into()
    });
    let (first_digest, first_cc, first_invalidations) =
        first_round.expect("at least one round ran");
    let mut digest = Fnv::default();
    digest.u64(st.traffic.digest());
    digest.u64(first_digest.0);
    out.work_digest = digest.0;
    out.count(
        "round0_flowmods",
        tally.intents[..3].iter().map(|t| t.flowmods).sum::<u64>(),
    );
    out.count("round0_proofs", first_cc.proofs);
    out.count("round0_wal_records", first_cc.wal_records);
    out.count("round0_invalidations", first_invalidations);
    out.samples("intents", all.len() as u64);
    out.histograms = totals.into_histograms();
    out.spans = st.rec.into_spans();
    out
}
