//! The SDX appendix use case (Fig. 5): beyond the third normal form.
//!
//! A simplified software-defined IXP: member `A` ranks egress members per
//! (prefix, port) by its outbound policy restricted to actual BGP
//! announcements, and each egress member balances its ingress routers by
//! source prefix (inbound policy). The collapsed universal table encodes
//! announcement × outbound × inbound jointly; splitting it back into the
//! three policy tables is a *join dependency*, not derivable from
//! functional dependencies (4NF/5NF territory), and the naive chained
//! split is order-dependent — the appendix's point.

use mapro_core::{ActionSem, AttrId, Catalog, Pipeline, Table, Value};

/// The SDX workload.
#[derive(Debug, Clone)]
pub struct Sdx {
    /// The collapsed universal policy table.
    pub universal: Pipeline,
    /// `ip_dst` (announced prefix space).
    pub ip_dst: AttrId,
    /// `tcp_dst` (policy port space).
    pub tcp_dst: AttrId,
    /// `ip_src` (inbound balancing key).
    pub ip_src: AttrId,
    /// Selected egress member (opaque annotation — the `N`/`M` columns of
    /// Fig. 5).
    pub member: AttrId,
    /// Forwarding action (egress router).
    pub fwd: AttrId,
    /// Components of the announcement/outbound/inbound split.
    pub components: Vec<Vec<AttrId>>,
}

impl Sdx {
    /// The Fig. 5-flavoured instance: members C and D; C announces P₁
    /// only, D announces P₁ and P₂; A prefers C for HTTP to prefixes C
    /// announces; C balances ingress across routers c₁/c₂ by source
    /// prefix; everything else follows BGP ranking to D.
    pub fn fig5() -> Sdx {
        let mut c = Catalog::new();
        let ip_dst = c.field("ip_dst", 32);
        let tcp_dst = c.field("tcp_dst", 16);
        let ip_src = c.field("ip_src", 32);
        let member = c.action("member", ActionSem::Opaque);
        let fwd = c.action("fwd", ActionSem::Output);
        let p1 = mapro_packet::ipv4("203.0.113.0") as u64;
        let p2 = mapro_packet::ipv4("198.51.100.0") as u64;
        let mut t = Table::new("sdx", vec![ip_dst, tcp_dst, ip_src], vec![member, fwd]);
        let lo = Value::prefix(0, 1, 32);
        let hi = Value::prefix(0x8000_0000, 1, 32);
        let rows: Vec<(u64, u64, Value, &str, &str)> = vec![
            // P1 HTTP → C (announced by C), balanced c1/c2 by source.
            (p1, 80, lo.clone(), "C", "c1"),
            (p1, 80, hi.clone(), "C", "c2"),
            // P1 non-HTTP → BGP ranking: D, balanced d1/d2 by source
            // (each member's inbound policy is member-wide, which is what
            // makes the 3-way split a *join dependency*).
            (p1, 22, lo.clone(), "D", "d1"),
            (p1, 22, hi.clone(), "D", "d2"),
            // P2 (not announced by C) → D for every port.
            (p2, 80, lo.clone(), "D", "d1"),
            (p2, 80, hi.clone(), "D", "d2"),
            (p2, 22, lo, "D", "d1"),
            (p2, 22, hi, "D", "d2"),
        ];
        for (d, pt, s, m, f) in rows {
            t.row(
                vec![Value::Int(d), Value::Int(pt), s],
                vec![Value::sym(m), Value::sym(f)],
            );
        }
        let components = vec![
            // announcement: which members announce the prefix → candidate
            // member set is a function of (ip_dst, member) pairs.
            vec![ip_dst, member],
            // outbound policy: (prefix, port) → selected member.
            vec![ip_dst, tcp_dst, member],
            // inbound policy: member × source → router.
            vec![member, ip_src, fwd],
        ];
        Sdx {
            universal: Pipeline::single(c, t),
            ip_dst,
            tcp_dst,
            ip_src,
            member,
            fwd,
            components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{assert_equivalent, check_equivalent, EquivConfig};
    use mapro_fd::join_dependency_holds;
    use mapro_normalize::{chain_components_naive, split, Split, SplitOpts};

    #[test]
    fn split_is_a_join_dependency_not_an_fd() {
        let s = Sdx::fig5();
        let t = s.universal.table("sdx").unwrap();
        assert!(join_dependency_holds(t, &s.components));
        // No FD justifies the inbound split: ip_src does not determine fwd
        // (c1 vs d1 depending on member), member alone does not determine
        // fwd (C → c1 or c2).
        let mined = mapro_fd::mine_fds(t, &s.universal.catalog);
        let u = &mined.fds.universe;
        assert!(!mined
            .fds
            .implies(mapro_fd::Fd::new(u.encode(&[s.member]), u.encode(&[s.fwd]))));
        assert!(!mined
            .fds
            .implies(mapro_fd::Fd::new(u.encode(&[s.ip_src]), u.encode(&[s.fwd]))));
    }

    #[test]
    fn naive_three_table_pipeline_is_incorrect() {
        let s = Sdx::fig5();
        let naive = chain_components_naive(&s.universal, "sdx", &s.components).unwrap();
        // The appendix: T_in is not order-independent.
        let t_in = naive.tables.last().unwrap();
        assert!(!t_in.order_independence(&naive.catalog).is_empty());
        let r = check_equivalent(&s.universal, &naive, &EquivConfig::default()).unwrap();
        assert!(!r.is_equivalent(), "naive SDX chain must misroute");
    }

    fn tagged(s: &Sdx) -> Pipeline {
        let jd = Split::Jd(s.components.clone());
        split(&s.universal, "sdx", &jd, &SplitOpts::default()).unwrap()
    }

    #[test]
    fn all_metadata_pipeline_is_correct() {
        let s = Sdx::fig5();
        let tagged = tagged(&s);
        assert_eq!(tagged.tables.len(), 3);
        assert_equivalent(&s.universal, &tagged);
    }

    #[test]
    fn inbound_balancing_actually_balances() {
        let s = Sdx::fig5();
        let tagged = tagged(&s);
        let p1 = mapro_packet::ipv4("203.0.113.0") as u64;
        for (src, want) in [(0u64, "c1"), (1u64 << 31, "c2")] {
            let pkt = mapro_core::Packet::from_fields(
                &tagged.catalog,
                &[("ip_dst", p1), ("tcp_dst", 80), ("ip_src", src)],
            );
            let v = tagged.run(&pkt).unwrap();
            assert_eq!(v.output.as_deref(), Some(want));
        }
    }
}
