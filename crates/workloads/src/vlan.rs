//! The VLAN access table of Fig. 3 — the paper's counterexample.
//!
//! `(in_port, vlan | out)` with the *action-to-match* dependency
//! `out → vlan`. Decomposing along it would need the first stage to pick
//! `out` from `in_port` alone, which is ambiguous (`in_port = 1` maps to
//! two outputs) — the produced stage violates 1NF order-independence and
//! the decomposition must be refused.

use mapro_core::{ActionSem, AttrId, Catalog, Pipeline, Table, Value};

/// The Fig. 3 workload.
#[derive(Debug, Clone)]
pub struct Vlan {
    /// The universal table.
    pub universal: Pipeline,
    /// `in_port` attribute.
    pub in_port: AttrId,
    /// `vlan` attribute.
    pub vlan: AttrId,
    /// `out` attribute.
    pub out: AttrId,
}

impl Vlan {
    /// The exact instance of Fig. 3a.
    pub fn fig3() -> Vlan {
        let mut c = Catalog::new();
        let in_port = c.field("in_port", 32);
        let vlan = c.field("vlan", 12);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![in_port, vlan], vec![out]);
        for (ip, vl, o) in [(1u64, 1u64, "1"), (1, 2, "2"), (2, 1, "1"), (3, 1, "3")] {
            t.row(vec![Value::Int(ip), Value::Int(vl)], vec![Value::sym(o)]);
        }
        Vlan {
            universal: Pipeline::single(c, t),
            in_port,
            vlan,
            out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_fd::mine_fds;
    use mapro_normalize::{split, JoinKind, Split, SplitError, SplitOpts};

    #[test]
    fn out_determines_vlan_in_the_instance() {
        let v = Vlan::fig3();
        let t = v.universal.table("t0").unwrap();
        let mined = mine_fds(t, &v.universal.catalog);
        let u = &mined.fds.universe;
        let fd = mapro_fd::Fd::new(u.encode(&[v.out]), u.encode(&[v.vlan]));
        assert!(mined.fds.implies(fd));
    }

    #[test]
    fn fig3_decomposition_refused_for_every_join() {
        let v = Vlan::fig3();
        let out_vlan = |join| Split::Fd {
            x: vec![v.out],
            y: vec![v.vlan],
            join,
        };
        for join in [JoinKind::Metadata, JoinKind::Goto] {
            let err =
                split(&v.universal, "t0", &out_vlan(join), &SplitOpts::default()).unwrap_err();
            assert!(
                matches!(err, SplitError::StageNot1NF { .. }),
                "{join}: {err:?}"
            );
        }
        // Rematch cannot even express an action-valued X.
        let rematch = out_vlan(JoinKind::Rematch);
        let err = split(&v.universal, "t0", &rematch, &SplitOpts::default()).unwrap_err();
        assert_eq!(err, SplitError::RematchNeedsFieldX);
    }

    #[test]
    fn forced_fig3b_pipeline_misroutes() {
        // Reproduce Fig. 3b exactly (allow_non_1nf) and exhibit the broken
        // packet: in_port=1, vlan=2 matches T1's first row (tag for out=1)
        // and then dies or misroutes in T2.
        let v = Vlan::fig3();
        let fd = Split::Fd {
            x: vec![v.out],
            y: vec![v.vlan],
            join: JoinKind::Metadata,
        };
        let opts = SplitOpts {
            allow_non_1nf: true,
            ..Default::default()
        };
        let broken = split(&v.universal, "t0", &fd, &opts).unwrap();
        let r = mapro_core::check_equivalent(
            &v.universal,
            &broken,
            &mapro_core::EquivConfig::default(),
        )
        .unwrap();
        match r {
            mapro_core::EquivOutcome::Counterexample(cx) => {
                // The distinguishing packet involves the ambiguous in_port.
                let in_port = cx
                    .fields
                    .iter()
                    .find(|(n, _)| n == "in_port")
                    .map(|(_, v)| *v);
                assert_eq!(in_port, Some(1));
            }
            _ => panic!("Fig. 3b pipeline should be inequivalent"),
        }
    }
}
