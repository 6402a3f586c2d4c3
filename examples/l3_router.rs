//! The Fig. 2 L3 pipeline: universal → Cartesian factor → 3NF.
//!
//! Shows the full normalization chain of §3: the universal router table
//! violates 2NF (`mod_dmac` determines the next-hop actions), its first
//! decomposition reproduces the OpenFlow group-table abstraction, the
//! remaining `out → mod_smac` dependency violates 3NF, and the constant
//! `(eth_type | mod_ttl)` columns factor into a Cartesian product.
//!
//! Run with: `cargo run --example l3_router`

use mapro::core::display;
use mapro::prelude::*;

fn main() {
    let l3 = L3::fig2();
    println!(
        "Universal L3 table (level: {}):",
        pipeline_level(&l3.universal)
    );
    print!("{}", display::render_pipeline(&l3.universal));

    // Step 1: Fig. 2c's Cartesian product — factor the constant columns.
    let constants = Split::Constant {
        only: Some(vec![l3.eth_type, l3.mod_ttl]),
        placement: FactorPlacement::Before,
    };
    let factored = split(&l3.universal, "l3", &constants, &SplitOpts::default()).unwrap();
    println!("\nAfter factoring (eth_type | mod_ttl) — the × of Fig. 2c:");
    print!("{}", display::render_pipeline(&factored));
    assert_equivalent(&l3.universal, &factored);

    // Step 2: normalize the remainder to 3NF (group tables appear).
    let normalized = normalize(&factored, &NormalizeOpts::default());
    println!(
        "\nNormalized to {} in {} decomposition steps:",
        pipeline_level(&normalized.pipeline),
        normalized.steps.len()
    );
    for s in &normalized.steps {
        println!(
            "  decomposed {} along ({}) -> ({})",
            s.table,
            s.lhs.join(", "),
            s.rhs.join(", ")
        );
    }
    print!("{}", display::render_pipeline(&normalized.pipeline));
    assert_equivalent(&l3.universal, &normalized.pipeline);
    println!("3NF pipeline verified equivalent to the universal table.");

    // And back: denormalize (flatten) — the §2 performance-critical path.
    let flat = flatten(&normalized.pipeline, "flat").unwrap();
    let flat_pipe = Pipeline::single(normalized.pipeline.catalog.clone(), flat);
    assert_equivalent(&l3.universal, &flat_pipe);
    println!(
        "Flattened back to a universal table with {} entries — round trip verified.",
        flat_pipe.total_entries()
    );
}
