//! The appendix's SDX use case: decomposition beyond 3NF.
//!
//! The three-way announcement/outbound/inbound split of the collapsed SDX
//! policy table is a *join dependency* — no functional dependency implies
//! it — so it belongs to 4NF/5NF territory. Chaining the projections
//! naively is order-dependent and misroutes packets; communicating the
//! earlier stages' match results in an `all`-style metadata tag (Fig. 5c)
//! fixes it. This example demonstrates all three facts mechanically.
//!
//! Run with: `cargo run --example sdx_beyond_3nf`

use mapro::core::display;
use mapro::fd::join_dependency_holds;
use mapro::normalize::chain_components_naive;
use mapro::prelude::*;

fn main() {
    let sdx = Sdx::fig5();
    println!("Collapsed SDX policy table (Fig. 5a):");
    print!("{}", display::render_pipeline(&sdx.universal));

    let table = sdx.universal.table("sdx").unwrap();
    println!(
        "3-way join dependency holds: {}",
        join_dependency_holds(table, &sdx.components)
    );
    let mined = mine_fds(table, &sdx.universal.catalog);
    println!(
        "…but no mined FD determines fwd from member or ip_src alone \
         ({} minimal FDs in the instance).",
        mined.fds.len()
    );

    // The naive chain: order-dependent and wrong.
    let naive = chain_components_naive(&sdx.universal, "sdx", &sdx.components).unwrap();
    let last = naive.tables.last().unwrap();
    println!(
        "\nNaive 3-table chain: inbound stage has {} overlapping row pairs (not 1NF).",
        last.order_independence(&naive.catalog).len()
    );
    match check_equivalent(&sdx.universal, &naive, &EquivConfig::default()).unwrap() {
        EquivOutcome::Counterexample(cx) => {
            println!("Misrouted packet: {:?}", cx.fields);
            println!(
                "  collapsed table says {:?}, naive chain says {:?}",
                cx.left.output, cx.right.output
            );
        }
        _ => panic!("the naive chain should misroute — appendix, Fig. 5b"),
    }

    // The `all`-metadata pipeline: correct by construction.
    let jd = Split::Jd(sdx.components.clone());
    let tagged = split(&sdx.universal, "sdx", &jd, &SplitOpts::default()).unwrap();
    println!("\n`all`-metadata pipeline (Fig. 5c):");
    print!("{}", display::render_pipeline(&tagged));
    assert_equivalent(&sdx.universal, &tagged);
    println!("Verified equivalent to the collapsed table.");
}
