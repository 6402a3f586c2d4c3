//! The full wire path: synthesize real Ethernet/IPv4/TCP frames, parse
//! them back, bind header fields to the program's attributes, and drive
//! the switch models — the end-to-end plumbing a testbed exercises.

use mapro::packet::{u64_to_mac, Binding, Frame, ParseError};
use mapro::prelude::*;
use proptest::prelude::*;
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

/// Every name [`Binding::standard`] recognizes, each alias included, then
/// names it does not.
const NAMES: [&str; 28] = [
    "eth_dst", "dl_dst", "eth_src", "dl_src", "eth_type", "dl_type", "vlan", "vlan_vid", "dl_vlan",
    "ip_src", "nw_src", "ip_dst", "nw_dst", "ttl", "nw_ttl", "ip_proto", "nw_proto", "tcp_src",
    "tp_src", "udp_src", "sport", "tcp_dst", "tp_dst", "udp_dst", "dport", "in_port", "tun_id",
    "colour",
];

/// A catalog of up to 16 of [`NAMES`] (past `Packet`'s inline capacity
/// now and then): header fields mostly, some registered as metadata (a
/// metadata attribute is sideband whatever it is called) or as actions
/// (which no binding covers).
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    prop::collection::vec((0..NAMES.len(), 0u8..5), 0..=16).prop_map(|picks| {
        let mut c = Catalog::new();
        for (name, kind) in picks {
            let name = NAMES[name];
            match kind {
                _ if c.lookup(name).is_some() => continue,
                0 => c.meta(name, 32),
                1 => c.action(name, ActionSem::Output),
                _ => c.field(name, 48),
            };
        }
        c
    })
}

/// An IPv4 frame [`Frame::emit`] and [`Frame::parse`] round-trip: the
/// VLAN id within its 12 bits, the length no shorter than the headers.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (any::<u64>(), any::<u64>(), prop::option::of(0u16..1 << 12)),
        (any::<u32>(), any::<u32>(), any::<u8>(), any::<u8>()),
        (any::<u16>(), any::<u16>(), 46usize..200),
    )
        .prop_map(|(eth, ip, tp)| Frame {
            eth_dst: u64_to_mac(eth.0),
            eth_src: u64_to_mac(eth.1),
            vlan: eth.2,
            ip_src: ip.0,
            ip_dst: ip.1,
            ttl: ip.2,
            proto: ip.3,
            sport: tp.0,
            dport: tp.1,
            len: tp.2,
            ..Default::default()
        })
}

/// Sideband values for some matchable attributes of `c` (wire-bound ones
/// included, whose entries a binding must ignore).
fn sideband(c: &Catalog, picks: &[(usize, u64)]) -> HashMap<AttrId, u64> {
    let ids = c.matchable_ids();
    if ids.is_empty() {
        return HashMap::new();
    }
    picks
        .iter()
        .map(|&(i, v)| (ids[i % ids.len()], v))
        .collect()
}

/// The fused bind reads every attribute of the catalog as the
/// one-attribute reference does.
fn assert_binds_alike(b: &Binding, c: &Catalog, f: &Frame, sb: &HashMap<AttrId, u64>) {
    let p = b.to_packet(c, f, sb);
    for (id, a) in c.iter() {
        assert_eq!(p.get(id), b.read(id, f, sb), "{} of {f:?} + {sb:?}", a.name);
    }
}

proptest! {
    #[test]
    fn fused_bind_matches_the_per_attribute_read(
        c in arb_catalog(),
        f in arb_frame(),
        picks in prop::collection::vec((0usize..16, any::<u64>()), 0..4),
    ) {
        let b = Binding::standard(&c);
        assert_binds_alike(&b, &c, &f, &sideband(&c, &picks));
    }

    #[test]
    fn emit_then_parse_is_the_identity(f in arb_frame()) {
        prop_assert_eq!(Frame::parse(&f.emit()), Ok(f));
    }

    /// A valid frame with its EtherType, its VLAN tag (or the four bytes
    /// where one would sit), its version/IHL byte or any one byte replaced,
    /// cut at every length: `parse` answers, never panics, accepts only
    /// version 4 with a whole header, and what it accepts binds alike
    /// through both paths.
    #[test]
    fn hostile_frames_are_refused_or_bound_alike(
        c in arb_catalog(),
        f in arb_frame(),
        picks in prop::collection::vec((0usize..16, any::<u64>()), 0..4),
        noise in (any::<u16>(), any::<u32>(), any::<u8>(), (0usize..200, any::<u8>())),
    ) {
        let b = Binding::standard(&c);
        let sb = sideband(&c, &picks);
        let wire = f.emit().to_vec();
        let ip = if f.vlan.is_some() { 18 } else { 14 };
        let (ether_type, tag, ver_ihl, (at, byte)) = noise;
        let mut hostile = vec![wire.clone(); 5];
        hostile[1][12..14].copy_from_slice(&ether_type.to_be_bytes());
        hostile[2][14..18].copy_from_slice(&tag.to_be_bytes());
        hostile[3][ip] = ver_ihl;
        hostile[4][at % wire.len()] = byte;
        if ver_ihl >> 4 != 4 {
            prop_assert_eq!(Frame::parse(&hostile[3]), Err(ParseError::NotIpv4));
        }
        for bytes in &hostile {
            for cut in 0..=bytes.len() {
                let Ok(g) = Frame::parse(&bytes[..cut]) else { continue };
                let ip = if g.vlan.is_some() { 18 } else { 14 };
                prop_assert_eq!(bytes[ip] >> 4, 4);
                let ihl = usize::from(bytes[ip] & 0xf);
                prop_assert!(ihl >= 5 && ip + 4 * ihl + 4 <= cut);
                prop_assert_eq!(g.len, cut);
                assert_binds_alike(&b, &c, &g, &sb);
            }
        }
    }
}
