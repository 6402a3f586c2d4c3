//! A composed enterprise edge pipeline (ACL → DNAT → L3), normalized
//! stage by stage.
//!
//! Demonstrates normalization in a multi-function program: the NAT stage
//! rewrites `ip_dst`/`tcp_dst` and the L3 stage matches the rewritten
//! values, yet every per-stage decomposition remains verifiable against
//! the whole pipeline.
//!
//! Run with: `cargo run --example enterprise_pipeline`

use mapro::core::display;
use mapro::prelude::*;
use mapro::workloads::Enterprise;

fn main() {
    let e = Enterprise::random(6, 3, 2026);
    println!("Composed pipeline ({} stages):", e.pipeline.tables.len());
    print!("{}", display::render_pipeline(&e.pipeline));

    // Where does each stage sit on the normal-form ladder?
    for (name, rep) in mapro::normalize::report(&e.pipeline) {
        println!("stage {name}: {}", rep.level);
    }

    // The NAT stage couples every same-kind service to the same private
    // port: tcp_dst → set_port. Decompose it in place.
    let fd = Split::Fd {
        x: vec![e.tcp_dst],
        y: vec![e.set_port],
        join: JoinKind::Metadata,
    };
    let q = split(&e.pipeline, "nat", &fd, &SplitOpts::default()).expect("shape-B decomposition");
    println!(
        "\nAfter decomposing nat along tcp_dst → set_port ({} stages):",
        q.tables.len()
    );
    print!("{}", display::render_pipeline(&q));
    assert_equivalent(&e.pipeline, &q);
    println!("verified equivalent across the full ACL→NAT→L3 path (through the rewrites).");

    // And let the normalizer do the whole program.
    let n = normalize(&e.pipeline, &NormalizeOpts::default());
    println!(
        "\nFull normalization: {} steps, level {}, {} stages, {} fields → {} fields",
        n.steps.len(),
        pipeline_level(&n.pipeline),
        n.pipeline.tables.len(),
        e.pipeline.field_count(),
        n.pipeline.field_count(),
    );
    assert_equivalent(&e.pipeline, &n.pipeline);

    // A packet's journey, before and after.
    let (pub_ip, pub_port, priv_ip, priv_port) = e.services[0];
    let pkt = Packet::from_fields(
        &e.pipeline.catalog,
        &[
            ("ip_src", 7),
            ("ip_dst", pub_ip as u64),
            ("tcp_dst", pub_port as u64),
        ],
    );
    let v = n.pipeline.run(&pkt).unwrap();
    println!(
        "\npacket to {pub_ip:#x}:{pub_port} → NAT to {priv_ip:#x}:{priv_port} → {} (visited {} tables)",
        v.output.as_deref().unwrap_or("drop"),
        v.lookups
    );
}
