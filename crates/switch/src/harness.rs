//! The measurement harness: replay a trace through a switch model and
//! report paper-style numbers (packet rate in Mpps, latency quartiles in
//! µs — Table 1 reports the 3rd quartile).
//!
//! Two modes: *modeled* (deterministic, from the cost models — the primary
//! mode, reproducible bit-for-bit) and *wall-clock* (time the real data
//! structures; used by the Criterion benches to corroborate orderings).

use crate::compile::BATCH;
use crate::Switch;
use mapro_packet::Trace;

/// Replay `pkts` through `switch` in [`BATCH`]-packet chunks, feeding each
/// result to `sink` in arrival order. One virtual call per chunk instead of
/// per packet; accounting order (and thus every report) is unchanged.
#[inline]
fn replay_batched<'a>(
    switch: &mut dyn Switch,
    pkts: impl Iterator<Item = &'a mapro_core::Packet>,
    mut sink: impl FnMut(&crate::ProcessOut),
) {
    let mut chunk: Vec<&mapro_core::Packet> = Vec::with_capacity(BATCH);
    let mut out: Vec<crate::ProcessOut> = Vec::with_capacity(BATCH);
    let mut pkts = pkts.peekable();
    while pkts.peek().is_some() {
        chunk.clear();
        chunk.extend(pkts.by_ref().take(BATCH));
        switch.process_batch(&chunk, &mut out);
        for r in &out {
            sink(r);
        }
    }
}

/// Shard a trace by flow id across `workers` modeled datapath threads
/// (RSS-style flow affinity), preserving arrival order within a shard.
fn shard_by_flow(trace: &Trace, workers: usize) -> Vec<Vec<&mapro_core::Packet>> {
    assert!(workers >= 1 && !trace.is_empty());
    let mut shards = vec![Vec::new(); workers];
    for (flow, pkt) in &trace.packets {
        shards[flow % workers].push(pkt);
    }
    shards
}

/// Sort latencies in place and return the [Q1, median, Q3] quartiles
/// (nearest-rank). Shared by every report builder so the quantile
/// convention lives in one place.
pub(crate) fn quartiles(lat: &mut [f64]) -> [f64; 3] {
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let q = |f: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        lat[((lat.len() - 1) as f64 * f).round() as usize]
    };
    [q(0.25), q(0.50), q(0.75)]
}

/// Aggregate results of a modeled run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Packets processed.
    pub packets: usize,
    /// Packets dropped (missed every table).
    pub dropped: usize,
    /// Modeled throughput in Mpps (packets / total service time).
    pub mpps: f64,
    /// Latency quartiles in µs (after the switch's queue factor).
    pub latency_us: [f64; 3],
    /// Mean table lookups per packet.
    pub avg_lookups: f64,
    /// Packets that took a slow path (OVS upcalls).
    pub slow_path: usize,
}

impl RunReport {
    /// The 3rd-quartile latency Table 1 reports.
    pub fn q3_latency_us(&self) -> f64 {
        self.latency_us[2]
    }
}

/// Per-shard replay statistics, merged deterministically in shard order.
#[derive(Default)]
struct ShardStats {
    packets: usize,
    service_ns: f64,
    latencies_us: Vec<f64>,
    dropped: usize,
    lookups: usize,
    slow_path: usize,
}

impl ShardStats {
    /// Replay one shard's packets (in arrival order) through `switch`.
    fn replay<'a>(
        switch: &mut dyn Switch,
        pkts: impl ExactSizeIterator<Item = &'a mapro_core::Packet>,
    ) -> ShardStats {
        let mut stats = ShardStats {
            packets: pkts.len(),
            latencies_us: Vec::with_capacity(pkts.len()),
            ..ShardStats::default()
        };
        let qf = switch.queue_factor();
        replay_batched(switch, pkts, |r| {
            stats.service_ns += r.service_ns;
            stats.latencies_us.push(r.latency_ns * qf / 1000.0);
            stats.dropped += r.dropped as usize;
            stats.lookups += r.lookups;
            stats.slow_path += r.slow_path as usize;
        });
        stats
    }

    /// Merge shards into the report. Aggregate throughput is the sum of
    /// per-shard rates (modeled workers run concurrently); latency
    /// quartiles are computed over all packets, concatenated in shard
    /// order.
    fn finish(shards: Vec<ShardStats>) -> RunReport {
        let packets: usize = shards.iter().map(|s| s.packets).sum();
        let mut all_lat: Vec<f64> = Vec::with_capacity(packets);
        let mut mpps = 0.0f64;
        let mut dropped = 0usize;
        let mut lookups = 0usize;
        let mut slow = 0usize;
        for s in shards {
            if s.packets > 0 {
                mpps += s.packets as f64 * 1000.0 / s.service_ns;
            }
            all_lat.extend(s.latencies_us);
            dropped += s.dropped;
            lookups += s.lookups;
            slow += s.slow_path;
        }
        RunReport {
            packets,
            dropped,
            mpps,
            latency_us: quartiles(&mut all_lat),
            avg_lookups: lookups as f64 / packets as f64,
            slow_path: slow,
        }
    }
}

/// Replay `trace` through `switch`, computing modeled throughput/latency:
/// the one-shard case of [`run_modeled_parallel`], on a switch the caller
/// keeps (so caches stay warm across calls).
pub fn run_modeled(switch: &mut dyn Switch, trace: &Trace) -> RunReport {
    assert!(!trace.is_empty(), "empty trace");
    let _sp = mapro_obs::trace::span_kv("replay", vec![("packets", trace.len().into())]);
    ShardStats::finish(vec![ShardStats::replay(
        switch,
        trace.packets.iter().map(|(_, p)| p),
    )])
}

/// Multi-worker modeled replay: shard the trace by flow across `workers`
/// independent switch instances (per-core datapath threads with RSS-style
/// flow affinity, as OVS/ESwitch deploy on multi-queue NICs) and aggregate.
///
/// Shards execute on the global [`mapro_par::Pool`] (sized by `--threads`
/// / `MAPRO_THREADS`): each pool task compiles the shard's switch **once**
/// and reuses it for every packet of the shard. Results come back through
/// the pool's ordered reduction, so the latency population is assembled in
/// shard order and the report is bit-identical at any thread count. Note
/// the *model* keeps `workers` shards regardless of how many OS threads
/// replay them: `workers` is a property of the simulated deployment
/// (per-queue datapath threads), thread count merely changes how fast we
/// compute it.
///
/// Flow sharding preserves per-flow cache locality, so the OVS model's
/// megaflow caches behave as per-core caches do in the real datapath.
pub fn run_modeled_parallel(
    factory: &(dyn Fn() -> Box<dyn Switch + Send> + Sync),
    trace: &Trace,
    workers: usize,
) -> RunReport {
    let shards = shard_by_flow(trace, workers);
    let _sp = mapro_obs::trace::span_kv(
        "replay",
        vec![("packets", trace.len().into()), ("shards", workers.into())],
    );
    let pool = mapro_par::Pool::current();
    // Deterministic merge: results arrive in shard order (ordered
    // reduction), so the concatenated latency population — and with it
    // every quartile — is independent of the executing thread count.
    ShardStats::finish(pool.map_ordered(&shards, |si, shard| {
        let _t = mapro_obs::time!("switch.replay.shard_ns");
        let _shard_span = mapro_obs::trace::span_kv(
            "shard",
            vec![("shard", si.into()), ("packets", shard.len().into())],
        );
        if shard.is_empty() {
            return ShardStats::default();
        }
        let mut sw = {
            let _c = mapro_obs::trace::span("compile_switch");
            factory()
        };
        ShardStats::replay(sw.as_mut(), shard.iter().copied())
    }))
}

/// Closed-loop replay: interleave a packet trace with timed control-plane
/// plans on a [`crate::LiveSwitch`]. Packets arrive at `pps`; each plan is
/// applied when the virtual clock passes its arrival time, stalling the
/// datapath for the modeled duration (stall time is added to the latency
/// of packets arriving inside the window — the queueing view lives in
/// [`crate::churn::queue_timeline`]; this driver is about *functional*
/// interleaving: verdicts must reflect each update exactly from its
/// application point on).
pub fn run_with_updates(
    sw: &mut crate::LiveSwitch,
    trace: &Trace,
    pps: f64,
    plans: &[(f64, mapro_core::UpdatePlan)],
) -> Result<ClosedLoopReport, crate::UpdateError> {
    assert!(!trace.is_empty() && pps > 0.0);
    assert!(
        plans.windows(2).all(|w| w[0].0 <= w[1].0),
        "plans must be sorted by arrival time"
    );
    let _sp = mapro_obs::trace::span_kv(
        "replay_live",
        vec![
            ("packets", trace.len().into()),
            ("plans", plans.len().into()),
        ],
    );
    let gap_ns = 1e9 / pps;
    let mut plan_idx = 0usize;
    let mut stall_until_ns = 0.0f64;
    let mut outputs = Vec::with_capacity(trace.len());
    let mut applied = 0usize;
    let mut stall_total_ns = 0.0f64;
    for (i, (_, pkt)) in trace.packets.iter().enumerate() {
        let now_ns = i as f64 * gap_ns;
        while plan_idx < plans.len() && plans[plan_idx].0 * 1e9 <= now_ns {
            let start = now_ns.max(stall_until_ns);
            let _plan_span =
                mapro_obs::trace::span_kv("apply_plan", vec![("plan", plan_idx.into())]);
            let stall = sw.apply_plan(&plans[plan_idx].1)?;
            stall_until_ns = start + stall;
            stall_total_ns += stall;
            applied += 1;
            plan_idx += 1;
        }
        let mut r = sw.process(pkt);
        if now_ns < stall_until_ns {
            r.latency_ns += stall_until_ns - now_ns;
        }
        outputs.push((now_ns, r));
    }
    Ok(ClosedLoopReport {
        outputs,
        plans_applied: applied,
        stall_total_ns,
    })
}

/// Result of a closed-loop replay.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Per-packet `(arrival ns, result)`, in arrival order.
    pub outputs: Vec<(f64, crate::ProcessOut)>,
    /// Plans applied during the run.
    pub plans_applied: usize,
    /// Total modeled stall time (ns).
    pub stall_total_ns: f64,
}

/// A replay's verdict digest: FNV-1a over every packet's `(output,
/// dropped)` verdict, sharded exactly like [`run_modeled_parallel`]
/// (per-shard digests over the shard's packets in arrival order, combined
/// in shard order). Independent of the executing thread count by the same
/// ordered-reduction argument; `workers = 1` digests the plain arrival
/// order. Equivalence checks compare this across switch models.
pub fn replay_digest(
    factory: &(dyn Fn() -> Box<dyn Switch + Send> + Sync),
    trace: &Trace,
    workers: usize,
) -> u64 {
    let shards = shard_by_flow(trace, workers);
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1_0000_0000_01b3;
    let pool = mapro_par::Pool::current();
    let shard_digests: Vec<u64> = pool.map_ordered(&shards, |_, shard| {
        let mut h = FNV_OFFSET;
        if shard.is_empty() {
            return h;
        }
        let mut sw = factory();
        replay_batched(sw.as_mut(), shard.iter().copied(), |r| {
            let mut byte = |b: u8| h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            match &r.output {
                Some(o) => o.as_bytes().iter().copied().for_each(&mut byte),
                None => byte(0xfe),
            }
            byte(r.dropped as u8);
            byte(0xff);
        });
        h
    });
    let mut h = FNV_OFFSET;
    for d in shard_digests {
        for b in d.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sims::SwitchModel;
    use mapro_core::{ActionSem, Catalog, Pipeline, Table, Value};
    use mapro_packet::{generate, FlowSpec, TraceSpec};

    fn setup() -> (Pipeline, Trace) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for i in 0..10u64 {
            t.row(vec![Value::Int(i)], vec![Value::sym("p")]);
        }
        let p = Pipeline::single(c, t);
        let flows = (0..12u64) // two flows miss → drops
            .map(|i| FlowSpec {
                fields: vec![(p.catalog.lookup("f").unwrap(), i)],
                weight: 1,
            })
            .collect();
        let trace = generate(&p.catalog, &TraceSpec::uniform(flows), 2000, 1);
        (p, trace)
    }

    #[test]
    fn modeled_run_reports_consistent_numbers() {
        let (p, trace) = setup();
        let mut sim = SwitchModel::eswitch(&p).unwrap();
        let r = run_modeled(&mut sim, &trace);
        assert_eq!(r.packets, 2000);
        assert!(r.dropped > 0 && r.dropped < 2000);
        assert!(r.mpps > 0.0);
        assert!(r.latency_us[0] <= r.latency_us[1] && r.latency_us[1] <= r.latency_us[2]);
        assert!((r.avg_lookups - 1.0).abs() < 1e-9);
        assert_eq!(r.slow_path, 0);
    }

    #[test]
    fn modeled_run_deterministic() {
        let (p, trace) = setup();
        let mut a = SwitchModel::eswitch(&p).unwrap();
        let mut b = SwitchModel::eswitch(&p).unwrap();
        assert_eq!(run_modeled(&mut a, &trace), run_modeled(&mut b, &trace));
    }

    #[test]
    fn serial_replay_is_the_one_shard_case() {
        let (p, trace) = setup();
        let factory =
            || -> Box<dyn crate::Switch + Send> { Box::new(SwitchModel::eswitch(&p).unwrap()) };
        let mut sim = SwitchModel::eswitch(&p).unwrap();
        assert_eq!(
            run_modeled(&mut sim, &trace),
            run_modeled_parallel(&factory, &trace, 1)
        );
    }

    #[test]
    fn parallel_replay_scales_and_agrees() {
        let (p, trace) = setup();
        let factory =
            || -> Box<dyn crate::Switch + Send> { Box::new(SwitchModel::eswitch(&p).unwrap()) };
        let serial = {
            let mut sim = SwitchModel::eswitch(&p).unwrap();
            run_modeled(&mut sim, &trace)
        };
        let par = run_modeled_parallel(&factory, &trace, 4);
        assert_eq!(par.packets, serial.packets);
        assert_eq!(par.dropped, serial.dropped);
        // Four parallel workers ≈ 4× aggregate rate for a stateless sim.
        let speedup = par.mpps / serial.mpps;
        assert!((3.5..4.5).contains(&speedup), "speedup {speedup}");
        // Per-packet latency statistics are unchanged.
        assert!((par.latency_us[2] - serial.latency_us[2]).abs() < 1.0);
    }

    #[test]
    fn parallel_ovs_keeps_per_core_caches_correct() {
        use crate::ovs::OvsSim;
        let (p, trace) = setup();
        let factory =
            || -> Box<dyn crate::Switch + Send> { Box::new(OvsSim::compile(&p).unwrap()) };
        let par = run_modeled_parallel(&factory, &trace, 3);
        let mut serial_sim = OvsSim::compile(&p).unwrap();
        let serial = run_modeled(&mut serial_sim, &trace);
        // Same verdicts (drop counts) regardless of sharding; more slow-path
        // hits are possible (each core warms its own cache) but never fewer.
        assert_eq!(par.dropped, serial.dropped);
        assert!(par.slow_path >= serial.slow_path);
    }

    #[test]
    fn closed_loop_updates_take_effect_at_their_time() {
        use mapro_core::{RuleUpdate, UpdatePlan};
        // One flow; halfway through the trace its output is rewired.
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", mapro_core::ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("before")]);
        let p = Pipeline::new(c, vec![t], "t");
        let mut sw = crate::LiveSwitch::noviflow(p.clone()).unwrap();
        let flows = vec![FlowSpec {
            fields: vec![(p.catalog.lookup("f").unwrap(), 1)],
            weight: 1,
        }];
        let trace = generate(&p.catalog, &TraceSpec::uniform(flows), 1000, 1);
        // 1 Mpps → packet i arrives at i µs; update at 500 µs.
        let plan = UpdatePlan {
            intent: "rewire".into(),
            updates: vec![RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(p.catalog.lookup("out").unwrap(), Value::sym("after"))],
            }],
        };
        let rep = run_with_updates(&mut sw, &trace, 1e6, &[(500e-6, plan)]).unwrap();
        assert_eq!(rep.plans_applied, 1);
        for (i, (_, r)) in rep.outputs.iter().enumerate() {
            let want = if i < 500 { "before" } else { "after" };
            assert_eq!(r.output.as_deref(), Some(want), "packet {i}");
        }
        // Packets right after the update see the stall in their latency.
        assert!(rep.outputs[500].1.latency_ns > rep.outputs[499].1.latency_ns);
        assert!(rep.stall_total_ns > 0.0);
    }
}
