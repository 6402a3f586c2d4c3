//! A composed enterprise edge pipeline: ACL → DNAT → L3.
//!
//! The paper's examples are single-purpose tables; production pipelines
//! chain several functions, and normalization applies *per stage*. This
//! workload exercises that setting, plus the spiciest interaction in the
//! evaluator: the NAT stage **rewrites** `ip_dst`, and the L3 stage then
//! *matches on the rewritten value* — any bug in how transformations
//! handle write-then-match ordering shows up here as an equivalence
//! failure.
//!
//! Structure (all stages drop on miss):
//!
//! * `acl` — allowed `(ip_src prefix, ip_dst)` pairs, falls through to NAT;
//! * `nat` — public `(ip_dst, tcp_dst)` → rewrite to the private backend
//!   `(ip_dst ← priv_ip, tcp_dst ← priv_port)`. Services of the same kind
//!   share the private port (`tcp_dst → set_port`, an FD from a match
//!   field to a set-field action — decomposition shape B);
//! * `l3` — private prefixes → output port.

use mapro_core::{ActionSem, AttrId, Catalog, Pipeline, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The composed workload.
#[derive(Debug, Clone)]
pub struct Enterprise {
    /// The three-stage pipeline.
    pub pipeline: Pipeline,
    /// `ip_src` attribute.
    pub ip_src: AttrId,
    /// `ip_dst` attribute.
    pub ip_dst: AttrId,
    /// `tcp_dst` attribute.
    pub tcp_dst: AttrId,
    /// The NAT stage's IP-rewrite action.
    pub set_ip: AttrId,
    /// The NAT stage's port-rewrite action.
    pub set_port: AttrId,
    /// The L3 output action.
    pub out: AttrId,
    /// Public services: `(public ip, public port, private ip, private port)`.
    pub services: Vec<(u32, u16, u32, u16)>,
}

impl Enterprise {
    /// Build a random instance: `n` public services NATted onto private
    /// `10.0.x.y` backends; the private port is a function of the public
    /// one (80→8080, 443→8443, …); backends spread over `racks` L3 routes.
    pub fn random(n: usize, racks: usize, seed: u64) -> Enterprise {
        assert!((1..=256).contains(&racks) && n >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut c = Catalog::new();
        let ip_src = c.field("ip_src", 32);
        let ip_dst = c.field("ip_dst", 32);
        let tcp_dst = c.field("tcp_dst", 16);
        let set_ip = c.action("set_ip", ActionSem::SetField(ip_dst));
        let set_port = c.action("set_port", ActionSem::SetField(tcp_dst));
        let out = c.action("out", ActionSem::Output);

        let priv_port = |p: u16| -> u16 {
            match p {
                80 => 8080,
                443 => 8443,
                _ => 9000,
            }
        };

        let mut used = std::collections::HashSet::new();
        let mut services = Vec::with_capacity(n);
        for i in 0..n {
            let pub_ip = loop {
                // Public space: anything outside 10/8.
                let cand: u32 = rng.gen_range(0x2000_0000..0xdfff_ffff);
                if used.insert(cand) {
                    break cand;
                }
            };
            let pub_port = *[80u16, 443, 22].get(rng.gen_range(0..3usize)).unwrap();
            let rack = (i % racks) as u32;
            let host = (i / racks) as u32 + 1;
            let priv_ip = (10 << 24) | (rack << 16) | host;
            services.push((pub_ip, pub_port, priv_ip, priv_port(pub_port)));
        }

        // ACL: each service admits two client prefixes (0*, 1* split), so
        // the ACL also carries the redundant (ip_dst ↔ service) coupling.
        let mut acl = Table::new("acl", vec![ip_src, ip_dst], vec![]);
        for &(pub_ip, _, _, _) in &services {
            acl.row(
                vec![Value::prefix(0, 1, 32), Value::Int(pub_ip as u64)],
                vec![],
            );
            acl.row(
                vec![Value::prefix(0x8000_0000, 1, 32), Value::Int(pub_ip as u64)],
                vec![],
            );
        }
        acl.next = Some("nat".into());

        let mut nat = Table::new("nat", vec![ip_dst, tcp_dst], vec![set_ip, set_port]);
        for &(pub_ip, pub_port, priv_ip, priv_p) in &services {
            nat.row(
                vec![Value::Int(pub_ip as u64), Value::Int(pub_port as u64)],
                vec![Value::Int(priv_ip as u64), Value::Int(priv_p as u64)],
            );
        }
        nat.next = Some("l3".into());

        let mut l3 = Table::new("l3", vec![ip_dst], vec![out]);
        for rack in 0..racks as u64 {
            l3.row(
                vec![Value::prefix((10 << 24) | (rack << 16), 16, 32)],
                vec![Value::sym(format!("rack{rack}"))],
            );
        }

        Enterprise {
            pipeline: Pipeline::new(c, vec![acl, nat, l3], "acl"),
            ip_src,
            ip_dst,
            tcp_dst,
            set_ip,
            set_port,
            out,
            services,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{assert_equivalent, Packet};
    use mapro_normalize::{normalize, split, JoinKind, NormalizeOpts, Split, SplitOpts};

    fn probe(e: &Enterprise, p: &Pipeline, svc: usize, src: u64) -> Option<String> {
        let (pub_ip, pub_port, _, _) = e.services[svc];
        let pkt = Packet::from_fields(
            &p.catalog,
            &[
                ("ip_src", src),
                ("ip_dst", pub_ip as u64),
                ("tcp_dst", pub_port as u64),
            ],
        );
        p.run(&pkt).unwrap().output.map(|s| s.to_string())
    }

    #[test]
    fn pipeline_routes_through_rewrites() {
        let e = Enterprise::random(6, 3, 7);
        for (i, &(_, _, priv_ip, _)) in e.services.iter().enumerate() {
            let rack = (priv_ip >> 16) & 0xff;
            assert_eq!(
                probe(&e, &e.pipeline, i, 5).as_deref(),
                Some(format!("rack{rack}").as_str())
            );
        }
        // Unlisted destination dies at the ACL.
        let pkt = Packet::from_fields(
            &e.pipeline.catalog,
            &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)],
        );
        let v = e.pipeline.run(&pkt).unwrap();
        assert!(v.dropped);
        assert_eq!(v.lookups, 1);
    }

    #[test]
    fn nat_stage_decomposes_along_port_fd_mid_pipeline() {
        // tcp_dst → set_port: a field-to-action dependency inside a stage
        // whose rewrites feed the following stage's matches.
        let e = Enterprise::random(8, 2, 3);
        let fd = Split::Fd {
            x: vec![e.tcp_dst],
            y: vec![e.set_port],
            join: JoinKind::Metadata,
        };
        let q = split(&e.pipeline, "nat", &fd, &SplitOpts::default()).unwrap();
        assert_eq!(q.tables.len(), 4);
        assert_equivalent(&e.pipeline, &q);
        // The port-rewrite table has one row per *service kind*, not per
        // service.
        let kinds: std::collections::HashSet<u16> = e.services.iter().map(|s| s.1).collect();
        assert_eq!(q.table("nat_r").unwrap().len(), kinds.len());
    }

    #[test]
    fn full_normalizer_handles_the_composed_pipeline() {
        let e = Enterprise::random(8, 2, 11);
        let n = normalize(&e.pipeline, &NormalizeOpts::default());
        assert_equivalent(&e.pipeline, &n.pipeline);
        // At minimum the NAT port coupling is factored out.
        assert!(n.pipeline.tables.len() >= 4, "{}", n.pipeline.tables.len());
    }

    #[test]
    fn acl_stage_carries_the_same_partial_dependency_as_fig1() {
        // (ip_src, ip_dst) key with the dst-per-service coupling spread
        // over two rows per service — the ACL is GWLB-shaped and the
        // analyzer sees it.
        let e = Enterprise::random(8, 2, 5);
        let rep = mapro_fd::analyze(e.pipeline.table("acl").unwrap(), &e.pipeline.catalog);
        assert!(rep.first_issues.is_empty());
    }

    #[test]
    fn deterministic_and_serializable() {
        let a = Enterprise::random(5, 2, 9);
        let b = Enterprise::random(5, 2, 9);
        assert_eq!(a.pipeline, b.pipeline);
        let json = serde_json::to_string(&a.pipeline).unwrap();
        let back: Pipeline = serde_json::from_str(&json).unwrap();
        assert_eq!(a.pipeline, back);
    }
}
