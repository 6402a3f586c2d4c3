//! The full wire path: synthesize real Ethernet/IPv4/TCP frames, parse
//! them back, bind header fields to the program's attributes, and drive
//! the switch models — the end-to-end plumbing a testbed exercises.

use mapro::packet::{Binding, Frame};
use mapro::prelude::*;
use std::collections::HashMap;

#[test]
fn frames_route_identically_to_abstract_packets() {
    let g = Gwlb::fig1();
    let binding = Binding::standard(&g.universal.catalog);
    let goto = g.normalized(JoinKind::Goto).unwrap();

    let cases = [
        (0x0a00_0001u32, "192.0.2.1", 80u16, Some("vm1")),
        (0xc0a8_0101, "192.0.2.1", 80, Some("vm2")),
        (0x0a00_0001, "192.0.2.2", 443, Some("vm3")),
        (0x9000_0000, "192.0.2.2", 443, Some("vm5")),
        (0x0a00_0001, "192.0.2.3", 22, Some("vm6")),
        (0x0a00_0001, "192.0.2.3", 80, None),
    ];
    for (src, dst, port, want) in cases {
        // Synthesize a 64-byte-class frame, serialize, re-parse.
        let frame = Frame {
            ip_src: src,
            ip_dst: mapro::packet::ipv4(dst),
            dport: port,
            ..Default::default()
        };
        let wire = frame.emit();
        assert_eq!(wire.len(), mapro::packet::MIN_FRAME);
        let parsed = Frame::parse(&wire).expect("round-trips");

        // Bind into an abstract packet and evaluate.
        let pkt = binding.to_packet(&g.universal.catalog, &parsed, &HashMap::new());
        let v = g.universal.run(&pkt).unwrap();
        assert_eq!(v.output.as_deref(), want, "{dst}:{port}");

        // And through a compiled switch on the normalized form.
        let mut sim = SwitchModel::eswitch(&goto).unwrap();
        let out = sim.process(&pkt);
        assert_eq!(out.output.as_deref(), want, "eswitch {dst}:{port}");
    }
}

#[test]
fn vlan_tagged_frames_bind_correctly() {
    let v = Vlan::fig3();
    let binding = Binding::standard(&v.universal.catalog);
    for (in_port, vlan, want) in [
        (1u64, 1u16, Some("1")),
        (1, 2, Some("2")),
        (3, 1, Some("3")),
        (9, 1, None),
    ] {
        let frame = Frame {
            vlan: Some(vlan),
            ..Default::default()
        };
        let wire = frame.emit();
        let parsed = Frame::parse(&wire).unwrap();
        // in_port is sideband (not on the wire).
        let mut sideband = HashMap::new();
        sideband.insert(v.in_port, in_port);
        let pkt = binding.to_packet(&v.universal.catalog, &parsed, &sideband);
        let verdict = v.universal.run(&pkt).unwrap();
        assert_eq!(
            verdict.output.as_deref(),
            want,
            "port {in_port} vlan {vlan}"
        );
    }
}

#[test]
fn header_rewrites_flow_back_to_frames() {
    // The L3 pipeline rewrites MACs; push a frame through and write the
    // verdict's modifications back into the frame.
    let l3 = L3::fig2();
    let binding = Binding::standard(&l3.universal.catalog);
    let frame = Frame {
        ip_dst: 10 << 24, // P1
        ..Default::default()
    };
    let parsed = Frame::parse(&frame.emit()).unwrap();
    let pkt = binding.to_packet(&l3.universal.catalog, &parsed, &HashMap::new());
    let v = l3.universal.run(&pkt).unwrap();
    assert_eq!(v.output.as_deref(), Some("p1"));
    let mut out_frame = parsed.clone();
    let mut sideband = HashMap::new();
    for (attr, value) in &v.header_mods {
        binding.write(*attr, *value, &mut out_frame, &mut sideband);
    }
    // D1's MAC (0xD1) and the shared source MAC (0x51) landed in the frame.
    assert_eq!(out_frame.eth_dst[5], 0xD1);
    assert_eq!(out_frame.eth_src[5], 0x51);
}
