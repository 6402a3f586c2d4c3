//! Control-plane churn model — the reactiveness experiment (Fig. 4).
//!
//! The paper atomically updates a random service's port 100×/s on the
//! NoviFlow switch: the universal table needs `M = 8` entry rewrites per
//! intent (an atomic bundle), the normalized pipeline one. The 8× update
//! amplification plus the cost of atomic multi-entry commits stalls the
//! forwarding pipeline, collapsing throughput by ~20×, while the
//! normalized form shows no visible drop; latency is ~25% higher for the
//! normalized form *independently of churn* (the extra stage).
//!
//! The model: each flow-mod stalls the datapath for
//! [`ControlStall::per_flowmod_ns`]; an atomic update spanning more than
//! one entry additionally pays [`ControlStall::bundle_ns`] per commit.
//! Throughput is the line rate times the duty cycle left over.

use crate::cost::{ControlStall, HwLatency};

/// One churn scenario point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Control-plane intents per second.
    pub updates_per_sec: f64,
    /// Table entries each intent touches in this representation (the
    /// controllability metric from `mapro-control`).
    pub flowmods_per_update: usize,
    /// Whether updates must be applied atomically (bundle commit when more
    /// than one entry is touched).
    pub atomic: bool,
}

/// Result of the churn model at one update rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPoint {
    /// Forwarding throughput in Mpps.
    pub mpps: f64,
    /// Fraction of time the datapath is stalled by the control channel.
    pub stall_fraction: f64,
    /// 3rd-quartile latency in µs (pipeline-depth term; churn-independent,
    /// as in Fig. 4).
    pub latency_us: f64,
}

/// Evaluate the churn model.
pub fn churn_point(
    line_mpps: f64,
    stages: usize,
    spec: ChurnSpec,
    stall: ControlStall,
    lat: HwLatency,
) -> ChurnPoint {
    let per_update_ns = spec.flowmods_per_update as f64 * stall.per_flowmod_ns
        + if spec.atomic && spec.flowmods_per_update > 1 {
            stall.bundle_ns
        } else {
            0.0
        };
    let stall_fraction = (spec.updates_per_sec * per_update_ns / 1e9).min(1.0);
    ChurnPoint {
        mpps: line_mpps * (1.0 - stall_fraction),
        stall_fraction,
        latency_us: lat.base_us + lat.per_stage_us * stages as f64,
    }
}

/// Sweep update rates (for the Fig. 4 x-axis).
pub fn churn_sweep(
    line_mpps: f64,
    stages: usize,
    flowmods_per_update: usize,
    atomic: bool,
    rates: &[f64],
    stall: ControlStall,
    lat: HwLatency,
) -> Vec<(f64, ChurnPoint)> {
    rates
        .iter()
        .map(|&r| {
            (
                r,
                churn_point(
                    line_mpps,
                    stages,
                    ChurnSpec {
                        updates_per_sec: r,
                        flowmods_per_update,
                        atomic,
                    },
                    stall,
                    lat,
                ),
            )
        })
        .collect()
}

/// A discrete-event validation of the analytic model: interleave
/// line-rate packet slots with control-channel stall intervals on a
/// simulated timeline and count the packets actually forwarded.
///
/// `events` are `(arrival_sec, flowmods, atomic)` tuples, one per intent:
/// when it arrives (e.g. the `at_sec` of each event of `mapro-control`'s
/// `poisson_stream`), how many flow-mods it carries, and whether they go
/// as one bundle (which adds `bundle_ns` when there are two or more).
/// Stalls are serialized through the management CPU: an update arriving
/// while a previous one is still being applied queues behind it, exactly
/// like a hardware switch's flow-mod queue — which is why measured
/// throughput can dip *below* the analytic duty-cycle estimate near
/// saturation.
pub fn simulate_churn_timeline(
    line_mpps: f64,
    duration_sec: f64,
    events: &[(f64, usize, bool)],
    stall: ControlStall,
) -> ChurnPoint {
    mapro_obs::counter!("switch.churn.simulations").inc();
    let _t = mapro_obs::time!("switch.churn.simulate_ns");
    mapro_obs::counter!("switch.churn.events").add(events.len() as u64);
    let slot_ns = 1e3 / line_mpps; // ns per packet at line rate
    let mut stall_until_ns = 0.0f64;
    let mut stalled_ns = 0.0f64;
    for &(at_sec, flowmods, atomic) in events {
        let at_ns = at_sec * 1e9;
        if at_ns >= duration_sec * 1e9 {
            break;
        }
        let cost = flowmods as f64 * stall.per_flowmod_ns
            + if atomic && flowmods > 1 {
                stall.bundle_ns
            } else {
                0.0
            };
        // Queue behind any in-flight update.
        let start = at_ns.max(stall_until_ns);
        let end = (start + cost).min(duration_sec * 1e9);
        if end > start {
            stalled_ns += end - start;
        }
        stall_until_ns = start + cost;
    }
    let total_ns = duration_sec * 1e9;
    let forwarding_ns = (total_ns - stalled_ns).max(0.0);
    let packets = forwarding_ns / slot_ns;
    ChurnPoint {
        mpps: packets / (duration_sec * 1e6),
        stall_fraction: stalled_ns / total_ns,
        latency_us: 0.0, // latency is the pipeline-depth term; see churn_point
    }
}

/// Configuration for the queueing timeline ([`queue_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Offered load, packets per second (regular arrivals).
    pub offered_pps: f64,
    /// Simulated duration in seconds.
    pub duration_sec: f64,
    /// Ingress buffer capacity in packets (arrivals beyond it tail-drop,
    /// as a line card does).
    pub buffer_pkts: usize,
    /// Per-packet service time at line rate, ns.
    pub service_ns: f64,
}

/// Result of a queueing timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReport {
    /// Packets offered.
    pub offered: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets tail-dropped at the full buffer.
    pub dropped: usize,
    /// Delivered throughput \[Mpps\].
    pub mpps: f64,
    /// Latency quartiles of *delivered* packets \[µs\].
    pub latency_us: [f64; 3],
    /// Worst delivered-packet latency \[µs\].
    pub max_latency_us: f64,
}

/// The queueing-theoretic view of Fig. 4: a single server at line rate
/// with a finite ingress buffer, interrupted by control-plane stall
/// windows. Both halves of the figure fall out of one mechanism —
/// throughput collapses because the buffer tail-drops during stalls,
/// while the latency of *surviving* packets stays bounded by the buffer
/// (the paper observes latency "mostly independent from the control plane
/// churn").
///
/// `events` are `(arrival_sec, flowmods, atomic)` intents as in
/// [`simulate_churn_timeline`].
pub fn queue_timeline(
    cfg: QueueConfig,
    events: &[(f64, usize, bool)],
    stall: ControlStall,
) -> QueueReport {
    // Materialize stall windows (serialized through the management CPU).
    let mut windows: Vec<(f64, f64)> = Vec::with_capacity(events.len());
    let mut busy_until = 0.0f64;
    for &(at_sec, flowmods, atomic) in events {
        let cost = flowmods as f64 * stall.per_flowmod_ns
            + if atomic && flowmods > 1 {
                stall.bundle_ns
            } else {
                0.0
            };
        let start = (at_sec * 1e9).max(busy_until);
        busy_until = start + cost;
        windows.push((start, busy_until));
    }

    let horizon_ns = cfg.duration_sec * 1e9;
    let gap_ns = 1e9 / cfg.offered_pps;
    let n = (horizon_ns / gap_ns) as usize;
    let mut completions: std::collections::VecDeque<f64> = Default::default();
    let mut server_free = 0.0f64;
    let mut wi = 0usize;
    let mut delivered = 0usize;
    let mut dropped = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    for i in 0..n {
        let arrival = i as f64 * gap_ns;
        while let Some(&c) = completions.front() {
            if c <= arrival {
                completions.pop_front();
            } else {
                break;
            }
        }
        if completions.len() >= cfg.buffer_pkts {
            dropped += 1;
            continue;
        }
        let mut start = server_free.max(arrival);
        // Skip forward past stall windows covering the start instant.
        while wi < windows.len() && windows[wi].1 <= start {
            wi += 1;
        }
        let mut k = wi;
        while k < windows.len() && windows[k].0 <= start {
            start = start.max(windows[k].1);
            k += 1;
        }
        let done = start + cfg.service_ns;
        server_free = done;
        completions.push_back(done);
        delivered += 1;
        latencies.push((done - arrival) / 1000.0); // µs
    }
    let latency_us = crate::harness::quartiles(&mut latencies);
    QueueReport {
        offered: n,
        delivered,
        dropped,
        mpps: delivered as f64 / cfg.duration_sec / 1e6,
        latency_us,
        max_latency_us: latencies.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: f64 = 10.73;

    #[test]
    fn no_updates_no_loss() {
        let p = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 0.0,
                flowmods_per_update: 8,
                atomic: true,
            },
            ControlStall::default(),
            HwLatency::default(),
        );
        assert_eq!(p.mpps, LINE);
        assert_eq!(p.stall_fraction, 0.0);
    }

    #[test]
    fn fig4_shape_universal_collapses_normalized_flat() {
        let stall = ControlStall::default();
        let lat = HwLatency::default();
        // Universal: 8 flowmods per intent, atomic bundle.
        let uni = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 100.0,
                flowmods_per_update: 8,
                atomic: true,
            },
            stall,
            lat,
        );
        // Normalized: single-entry update, no bundle.
        let norm = churn_point(
            LINE,
            2,
            ChurnSpec {
                updates_per_sec: 100.0,
                flowmods_per_update: 1,
                atomic: true,
            },
            stall,
            lat,
        );
        let collapse = LINE / uni.mpps;
        assert!(
            (10.0..40.0).contains(&collapse),
            "universal collapse ×{collapse}"
        );
        let norm_loss = 1.0 - norm.mpps / LINE;
        assert!(norm_loss < 0.02, "normalized loss {norm_loss}");
        // Latency: normalized ~25-30% above universal, churn-independent.
        let ratio = norm.latency_us / uni.latency_us;
        assert!((1.2..1.4).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn stall_saturates_at_one() {
        let p = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 1e9,
                flowmods_per_update: 8,
                atomic: true,
            },
            ControlStall::default(),
            HwLatency::default(),
        );
        assert_eq!(p.stall_fraction, 1.0);
        assert_eq!(p.mpps, 0.0);
    }

    #[test]
    fn sweep_monotone() {
        let pts = churn_sweep(
            LINE,
            1,
            8,
            true,
            &[0.0, 25.0, 50.0, 75.0, 100.0],
            ControlStall::default(),
            HwLatency::default(),
        );
        for w in pts.windows(2) {
            assert!(w[1].1.mpps <= w[0].1.mpps);
        }
    }

    #[test]
    fn timeline_simulation_agrees_with_analytic_model() {
        // Regular (deterministic) arrivals at 50/s with 8-mod bundles: the
        // timeline result must be within a few percent of the duty-cycle
        // formula (no queueing below saturation).
        let stall = ControlStall::default();
        let events: Vec<(f64, usize, bool)> = (0..50).map(|i| (i as f64 / 50.0, 8, true)).collect();
        let sim = simulate_churn_timeline(LINE, 1.0, &events, stall);
        let analytic = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 50.0,
                flowmods_per_update: 8,
                atomic: true,
            },
            stall,
            HwLatency::default(),
        );
        let rel = (sim.mpps - analytic.mpps).abs() / analytic.mpps;
        assert!(
            rel < 0.05,
            "timeline {} vs analytic {}",
            sim.mpps,
            analytic.mpps
        );
    }

    #[test]
    fn timeline_queueing_saturates() {
        // Updates arriving faster than they can be applied: the datapath
        // starves completely.
        let stall = ControlStall::default();
        let events: Vec<(f64, usize, bool)> =
            (0..2000).map(|i| (i as f64 / 2000.0, 8, true)).collect();
        let sim = simulate_churn_timeline(LINE, 1.0, &events, stall);
        assert!(sim.stall_fraction > 0.99, "{}", sim.stall_fraction);
        assert!(sim.mpps < 0.2);
    }

    #[test]
    fn timeline_single_mod_updates_barely_noticed() {
        let stall = ControlStall::default();
        let events: Vec<(f64, usize, bool)> =
            (0..100).map(|i| (i as f64 / 100.0, 1, true)).collect();
        let sim = simulate_churn_timeline(LINE, 1.0, &events, stall);
        assert!(sim.mpps > LINE * 0.99, "{}", sim.mpps);
    }

    fn qcfg() -> QueueConfig {
        QueueConfig {
            offered_pps: 10.0e6,
            duration_sec: 0.2,
            buffer_pkts: 64,
            service_ns: 93.2, // 10.73 Mpps line rate
        }
    }

    #[test]
    fn queue_timeline_no_churn_full_delivery() {
        let r = queue_timeline(qcfg(), &[], ControlStall::default());
        assert_eq!(r.dropped, 0);
        assert_eq!(r.delivered, r.offered);
        // Underloaded: latency ≈ one service time.
        assert!(r.latency_us[2] < 0.2, "{:?}", r.latency_us);
    }

    #[test]
    fn queue_timeline_reproduces_both_halves_of_fig4() {
        // 100 intents/s × 8-mod atomic bundles (the universal table).
        let events: Vec<(f64, usize, bool)> =
            (0..20).map(|i| (i as f64 / 100.0, 8, true)).collect();
        let uni = queue_timeline(qcfg(), &events, ControlStall::default());
        // Throughput collapse: >90% of offered load tail-dropped.
        assert!(
            (uni.delivered as f64) < 0.12 * uni.offered as f64,
            "delivered {}/{}",
            uni.delivered,
            uni.offered
        );
        // …but surviving packets' latency stays bounded by the buffer:
        // ≤ buffer × service + one stall window (~9.5 ms).
        assert!(uni.max_latency_us < 12_000.0, "{}", uni.max_latency_us);
        // Normalized: single-mod updates barely dent anything.
        let events: Vec<(f64, usize, bool)> =
            (0..20).map(|i| (i as f64 / 100.0, 1, true)).collect();
        let norm = queue_timeline(qcfg(), &events, ControlStall::default());
        assert!((norm.delivered as f64) > 0.99 * norm.offered as f64);
        assert!(norm.latency_us[2] < 10.0, "{:?}", norm.latency_us);
    }

    #[test]
    fn queue_timeline_agrees_with_duty_cycle_model() {
        let events: Vec<(f64, usize, bool)> = (0..10).map(|i| (i as f64 / 50.0, 8, true)).collect();
        let r = queue_timeline(qcfg(), &events, ControlStall::default());
        let analytic = churn_point(
            10.73,
            1,
            ChurnSpec {
                updates_per_sec: 50.0,
                flowmods_per_update: 8,
                atomic: true,
            },
            ControlStall::default(),
            HwLatency::default(),
        );
        // Offered 10 Mpps < line rate, so delivered ≈ min(offered × duty, …).
        let delivered_mpps = r.mpps;
        let expect = (10.0f64).min(analytic.mpps);
        let rel = (delivered_mpps - expect).abs() / expect;
        assert!(rel < 0.12, "queue {} vs duty {}", delivered_mpps, expect);
    }

    #[test]
    fn non_atomic_multi_entry_update_skips_bundle() {
        let a = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 100.0,
                flowmods_per_update: 8,
                atomic: false,
            },
            ControlStall::default(),
            HwLatency::default(),
        );
        let b = churn_point(
            LINE,
            1,
            ChurnSpec {
                updates_per_sec: 100.0,
                flowmods_per_update: 8,
                atomic: true,
            },
            ControlStall::default(),
            HwLatency::default(),
        );
        assert!(a.mpps > b.mpps);
    }
}
