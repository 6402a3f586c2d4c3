//! The L3 forwarding pipeline (Fig. 2, §3).
//!
//! A universal table `(eth_type, ip_dst | mod_ttl, mod_smac, mod_dmac,
//! out)` with disjoint prefixes P₁–P₄ mapping to next-hops; several
//! prefixes share a next-hop (⇒ `mod_dmac → (mod_ttl, mod_smac, out)`,
//! violating 2NF) and several next-hops share an outgoing port
//! (⇒ `out → mod_smac`, violating 3NF). The 3NF pipeline factors the
//! constant `(eth_type | mod_ttl)` stage out as a Cartesian product
//! (Fig. 2c).

use mapro_core::{ActionSem, AttrId, Catalog, Pipeline, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The L3 workload: universal pipeline plus attribute handles.
#[derive(Debug, Clone)]
pub struct L3 {
    /// The universal (single-table) representation.
    pub universal: Pipeline,
    /// `eth_type` attribute.
    pub eth_type: AttrId,
    /// `mod_ttl` attribute (opaque TTL decrement).
    pub mod_ttl: AttrId,
    /// `mod_smac` attribute (source-MAC rewrite).
    pub mod_smac: AttrId,
    /// `mod_dmac` attribute (destination-MAC rewrite).
    pub mod_dmac: AttrId,
    /// `out` attribute.
    pub out: AttrId,
}

/// One route: `(prefix, next-hop dmac, smac, port)`.
pub(crate) type Route = (Value, u64, u64, String);

impl L3 {
    /// Build from explicit routes.
    pub(crate) fn from_routes(routes: Vec<Route>) -> L3 {
        let mut c = Catalog::new();
        let eth_type = c.field("eth_type", 16);
        let ip_dst = c.field("ip_dst", 32);
        let eth_src_f = c.field("eth_src", 48);
        let eth_dst_f = c.field("eth_dst", 48);
        let mod_ttl = c.action("mod_ttl", ActionSem::Opaque);
        let mod_smac = c.action("mod_smac", ActionSem::SetField(eth_src_f));
        let mod_dmac = c.action("mod_dmac", ActionSem::SetField(eth_dst_f));
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new(
            "l3",
            vec![eth_type, ip_dst],
            vec![mod_ttl, mod_smac, mod_dmac, out],
        );
        for (pfx, dmac, smac, port) in &routes {
            t.row(
                vec![Value::Int(0x0800), pfx.clone()],
                vec![
                    Value::sym("dec"),
                    Value::Int(*smac),
                    Value::Int(*dmac),
                    Value::sym(port),
                ],
            );
        }
        L3 {
            universal: Pipeline::single(c, t),
            eth_type,
            mod_ttl,
            mod_smac,
            mod_dmac,
            out,
        }
    }

    /// The exact instance of Fig. 2a: P₁, P₄ → D₁; P₂ → D₂ (same port and
    /// smac as D₁); P₃ → D₃ on a different port.
    pub fn fig2() -> L3 {
        let p = |bits: u64, len: u8| Value::prefix(bits << 24, len, 32);
        L3::from_routes(vec![
            (p(10, 8), 0xD1, 0x51, "p1".into()),
            (p(20, 8), 0xD2, 0x51, "p1".into()),
            (p(30, 8), 0xD3, 0x52, "p2".into()),
            (p(40, 8), 0xD1, 0x51, "p1".into()),
        ])
    }

    /// Random parametric instance: `n_prefixes` disjoint /16s distributed
    /// over `n_nexthops` next-hops over `n_ports` ports.
    pub fn random(n_prefixes: usize, n_nexthops: usize, n_ports: usize, seed: u64) -> L3 {
        assert!(n_prefixes <= 65_536, "at most 2^16 disjoint /16s");
        assert!(n_nexthops >= 1 && n_ports >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Next-hop k uses port (k mod n_ports); ports share smacs.
        let routes = (0..n_prefixes)
            .map(|i| {
                let nh = rng.gen_range(0..n_nexthops) as u64;
                let port = nh % n_ports as u64;
                (
                    Value::prefix((i as u64) << 16, 16, 32),
                    0xD000 + nh,
                    0x5000 + port,
                    format!("p{port}"),
                )
            })
            .collect();
        L3::from_routes(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::assert_equivalent;
    use mapro_fd::NfLevel;
    use mapro_normalize::{
        normalize, pipeline_level, split, FactorPlacement, NormalizeOpts, Split, SplitOpts,
    };

    #[test]
    fn fig2_universal_violates_2nf() {
        let l3 = L3::fig2();
        let lvl = pipeline_level(&l3.universal);
        assert!(lvl < NfLevel::Second, "level {lvl:?}");
    }

    #[test]
    fn fig2_normalizes_to_3nf_equivalently() {
        let l3 = L3::fig2();
        let n = normalize(&l3.universal, &NormalizeOpts::default());
        assert!(n.complete(), "skipped {:?}", n.skipped);
        assert!(pipeline_level(&n.pipeline) >= NfLevel::Third);
        assert_equivalent(&l3.universal, &n.pipeline);
        // Normalization produced a multi-stage pipeline (group tables).
        assert!(n.pipeline.tables.len() >= 2);
    }

    #[test]
    fn fig2c_cartesian_factoring() {
        let l3 = L3::fig2();
        // eth_type and mod_ttl are constant → factor them out first.
        let constants = Split::Constant {
            only: Some(vec![l3.eth_type, l3.mod_ttl]),
            placement: FactorPlacement::Before,
        };
        let factored = split(&l3.universal, "l3", &constants, &SplitOpts::default()).unwrap();
        assert_eq!(factored.tables.len(), 2);
        assert_eq!(factored.tables[0].len(), 1);
        assert_equivalent(&l3.universal, &factored);
        // The remainder still normalizes.
        let n = normalize(&factored, &NormalizeOpts::default());
        assert!(n.complete());
        assert_equivalent(&l3.universal, &n.pipeline);
    }

    #[test]
    fn random_instance_normalizes() {
        let l3 = L3::random(32, 6, 3, 11);
        let n = normalize(&l3.universal, &NormalizeOpts::default());
        assert!(n.complete(), "skipped {:?}", n.skipped);
        assert_equivalent(&l3.universal, &n.pipeline);
    }

    #[test]
    fn random_is_deterministic() {
        let a = L3::random(16, 4, 2, 3);
        let b = L3::random(16, 4, 2, 3);
        assert_eq!(a.universal, b.universal);
    }
}
