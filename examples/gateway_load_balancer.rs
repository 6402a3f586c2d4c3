//! The §5 benchmark scenario end to end: 20 random services × 8 backends,
//! universal vs goto-normalized, measured on all four switch models, plus
//! the §2 controllability and monitorability comparisons.
//!
//! Run with: `cargo run --release --example gateway_load_balancer`

use mapro::packet::generate;
use mapro::prelude::*;

fn main() {
    let gwlb = Gwlb::random(20, 8, 2019);
    let goto = gwlb.normalized(JoinKind::Goto).unwrap();
    println!(
        "Workload: 20 services × 8 backends — universal: {} entries / {} fields; goto: {} tables / {} fields",
        gwlb.universal.total_entries(),
        gwlb.universal.field_count(),
        goto.tables.len(),
        goto.field_count()
    );

    // --- Static performance (Table 1 shape) -----------------------------
    let trace = generate(&gwlb.universal.catalog, &gwlb.trace_spec(), 30_000, 2019);
    println!(
        "\n{:<10} {:<10} {:>12} {:>15}",
        "switch", "repr", "rate [Mpps]", "Q3 delay [µs]"
    );
    for (name, repr) in [("universal", &gwlb.universal), ("goto", &goto)] {
        let mut eswitch = SwitchModel::eswitch(repr).unwrap();
        let mut lagopus = SwitchModel::lagopus(repr).unwrap();
        let mut noviflow = SwitchModel::noviflow(repr).unwrap();
        let mut ovs = OvsSim::compile(repr).expect("compiles");
        let _ = run_modeled(&mut ovs, &trace); // warm the megaflow cache
        let sims: Vec<(&str, &mut dyn Switch)> = vec![
            ("OVS", &mut ovs),
            ("ESwitch", &mut eswitch),
            ("Lagopus", &mut lagopus),
            ("NoviFlow", &mut noviflow),
        ];
        for (sw, sim) in sims {
            let r = run_modeled(sim, &trace);
            println!(
                "{:<10} {:<10} {:>12.2} {:>15.1}",
                sw,
                name,
                r.mpps,
                r.q3_latency_us()
            );
        }
    }

    // --- Controllability (§2) --------------------------------------------
    println!("\nIntent: move service 0 to a new port");
    for (name, repr) in [("universal", &gwlb.universal), ("goto", &goto)] {
        let plan = gwlb.move_service_port(repr, 0, 8443);
        let inv = gwlb.one_port_per_ip();
        let exposure = mapro::control::exposure(repr, &plan, &&inv).unwrap();
        println!(
            "  {name}: {} rule updates, {} hazardous intermediate states",
            plan.touched_entries(),
            exposure.violations.len()
        );
    }

    // --- Monitorability (§2) ---------------------------------------------
    println!("\nQuery: aggregate traffic of service 1");
    for (name, repr) in [("universal", &gwlb.universal), ("goto", &goto)] {
        let rules = gwlb.tenant_counters(repr, 1);
        let mut counters = mapro::control::CounterSet::new(rules);
        let idx = repr.name_index();
        for (_, pkt) in &trace.packets {
            counters.observe(&repr.run_indexed(pkt, &idx).unwrap());
        }
        println!(
            "  {name}: {} counters, aggregate = {} packets",
            counters.counters_needed(),
            counters.aggregate()
        );
    }
}
