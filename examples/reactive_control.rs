//! Reactiveness under control-plane churn (Fig. 4) and the atomic-update
//! hazard (§2).
//!
//! Compiles the "move a random service's port" intent against the
//! universal and normalized GWLB representations, generates a Poisson
//! churn stream, feeds the per-intent flow-mod counts into the NoviFlow
//! stall model, and prints the Fig. 4 throughput curve. Also demonstrates
//! the halfway-exposed intermediate state that makes multi-entry atomic
//! updates necessary in the first place.
//!
//! Run with: `cargo run --example reactive_control`

use mapro::control::{exposure, poisson_stream, summarize};
use mapro::prelude::*;
use mapro::switch::{churn_sweep, ControlStall, HwLatency};

fn main() {
    let gwlb = Gwlb::random(20, 8, 2019);
    let goto = gwlb.normalized(JoinKind::Goto).unwrap();

    // Per-intent flow-mod counts, from the real intent compiler.
    let uni_plan = gwlb.move_service_port(&gwlb.universal, 0, 9999);
    let norm_plan = gwlb.move_service_port(&goto, 0, 9999);
    println!(
        "flow-mods per intent: universal = {}, normalized = {} ({}× churn amplification)",
        uni_plan.touched_entries(),
        norm_plan.touched_entries(),
        uni_plan.touched_entries() / norm_plan.touched_entries()
    );

    // A 10-second Poisson stream at 100 intents/s (the paper's rate).
    let events = poisson_stream(100.0, 10.0, 7, |k| {
        gwlb.move_service_port(&gwlb.universal, k % 20, 9999)
    });
    let summary = summarize(&events, 10.0);
    println!(
        "churn stream: {:.1} intents/s, mean {:.1} flow-mods each, {:.0}% need bundles",
        summary.rate,
        summary.mean_flowmods,
        summary.bundle_fraction * 100.0
    );

    // Fig. 4: throughput vs update rate on the hardware model.
    let sim = SwitchModel::noviflow(&gwlb.universal).unwrap();
    let line = sim.line_rate_mpps();
    let rates: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    let uni = churn_sweep(
        line,
        1,
        uni_plan.touched_entries(),
        true,
        &rates,
        ControlStall::default(),
        HwLatency::default(),
    );
    let norm = churn_sweep(
        line,
        2,
        norm_plan.touched_entries(),
        true,
        &rates,
        ControlStall::default(),
        HwLatency::default(),
    );
    println!(
        "\n{:>10} {:>16} {:>16}",
        "updates/s", "universal Mpps", "normalized Mpps"
    );
    for ((r, u), (_, n)) in uni.iter().zip(&norm) {
        println!("{:>10.0} {:>16.2} {:>16.2}", r, u.mpps, n.mpps);
    }
    println!(
        "collapse at 100/s: universal ×{:.1}, normalized ×{:.2}",
        line / uni.last().unwrap().1.mpps,
        line / norm.last().unwrap().1.mpps
    );

    // The consistency hazard that forces atomic bundles.
    let inv = gwlb.one_port_per_ip();
    let uni_exposure = exposure(&gwlb.universal, &uni_plan, &&inv).unwrap();
    let norm_exposure = exposure(&goto, &norm_plan, &&inv).unwrap();
    println!(
        "\nnon-atomic application: universal exposes {} inconsistent states; normalized exposes {}",
        uni_exposure.violations.len(),
        norm_exposure.violations.len()
    );
    if let Some((k, why)) = uni_exposure.violations.first() {
        println!(
            "  e.g. after {k} of {} updates: {why}",
            uni_plan.touched_entries()
        );
    }
}
