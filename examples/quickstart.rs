//! Quickstart: from a universal table to a verified normal form.
//!
//! Builds the paper's Fig. 1a cloud gateway & load-balancer table, mines
//! its functional dependencies, classifies its normal form, decomposes it
//! along `ip_dst → tcp_dst` under all three join abstractions, and checks
//! each result semantically equivalent to the original.
//!
//! Run with: `cargo run --example quickstart`

use mapro::core::display;
use mapro::prelude::*;

fn main() {
    // 1. The universal representation (Fig. 1a).
    let gwlb = Gwlb::fig1();
    println!("Universal table ({} fields):", gwlb.universal.field_count());
    print!("{}", display::render_pipeline(&gwlb.universal));

    // 2. Classify against the model-level dependencies of §3. (Mining the
    //    6-row instance would also surface *transient* data-level
    //    dependencies like tcp_dst → ip_dst that disappear on the next
    //    update — exactly the distinction §3 draws; `analyze` mines, while
    //    `analyze_with` takes declared dependencies.)
    let table = gwlb.universal.table("t0").unwrap();
    let report = mapro::fd::analyze_with(table, &gwlb.universal.catalog, gwlb.declared_fds());
    println!(
        "Normal form under the declared dependencies: {}",
        report.level
    );
    println!("Candidate keys:");
    for key in &report.keys {
        let names: Vec<_> = report
            .fds
            .universe
            .decode(*key)
            .into_iter()
            .map(|a| gwlb.universal.catalog.name(a).to_owned())
            .collect();
        println!("  ({})", names.join(", "));
    }
    println!("Partial dependencies (2NF violations):");
    for fd in &report.partial_deps {
        println!(
            "  {}",
            report
                .fds
                .display_fd(*fd, |a| gwlb.universal.catalog.name(a).to_owned())
        );
    }

    // 3. Decompose along ip_dst → tcp_dst with each join abstraction.
    for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
        let normalized = gwlb.normalized(join).expect("decomposition succeeds");
        println!(
            "\n=== {join} join: {} tables, {} fields ===",
            normalized.tables.len(),
            normalized.field_count()
        );
        print!("{}", display::render_pipeline(&normalized));

        // 4. Machine-check the equivalence. The prelude front door is the
        //    symbolic engine: one decision diagram per program instead of
        //    packet enumeration, with the method reported alongside the
        //    verdict.
        match check_equivalent(&gwlb.universal, &normalized, &EquivConfig::default()).unwrap() {
            EquivOutcome::Equivalent {
                packets_checked,
                exhaustive,
                method,
            } => println!(
                "equivalent to the universal table ({packets_checked} nodes/packets, exhaustive: {exhaustive}, method: {method})"
            ),
            EquivOutcome::Counterexample(cx) => {
                panic!("BUG: representations differ on {:?}", cx.fields)
            }
        }
    }
}
