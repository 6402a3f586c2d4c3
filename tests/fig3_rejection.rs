//! E3 — Fig. 3: action-to-match dependencies do not decompose.

use mapro::normalize::SplitError;
use mapro::prelude::*;

/// Fig. 3's dependency `out → vlan`, as a split under the metadata join.
fn out_to_vlan(v: &Vlan) -> Split {
    Split::Fd {
        x: vec![v.out],
        y: vec![v.vlan],
        join: JoinKind::Metadata,
    }
}

#[test]
fn out_to_vlan_decomposition_rejected_with_fig3_diagnosis() {
    let v = Vlan::fig3();
    let err = split(&v.universal, "t0", &out_to_vlan(&v), &SplitOpts::default()).unwrap_err();
    match err {
        SplitError::StageNot1NF { stage, rows } => {
            assert_eq!(stage, "t0");
            // The two in_port = 1 rows are the colliding pair.
            assert_eq!(rows, (0, 1));
        }
        e => panic!("expected StageNot1NF, got {e}"),
    }
}

#[test]
fn forced_fig3b_pipeline_is_demonstrably_wrong() {
    let v = Vlan::fig3();
    let opts = SplitOpts {
        allow_non_1nf: true,
        ..Default::default()
    };
    let broken = split(&v.universal, "t0", &out_to_vlan(&v), &opts).unwrap();
    let r = check_equivalent(&v.universal, &broken, &EquivConfig::default()).unwrap();
    assert!(!r.is_equivalent());
}

#[test]
fn match_to_action_direction_on_same_table_works() {
    // The dual direction — (in_port, vlan) → out — is the ordinary
    // match-to-action shape and decomposes fine (B-shape), showing the
    // asymmetry §4 describes.
    let v = Vlan::fig3();
    let fd = Split::Fd {
        x: vec![v.in_port, v.vlan],
        y: vec![v.out],
        join: JoinKind::Metadata,
    };
    let p = split(&v.universal, "t0", &fd, &SplitOpts::default()).unwrap();
    assert_equivalent(&v.universal, &p);
}

#[test]
fn normalizer_leaves_fig3_intact_but_equivalent() {
    let v = Vlan::fig3();
    let n = normalize(&v.universal, &NormalizeOpts::default());
    // Whatever the normalizer managed, semantics are preserved and the
    // impossible decomposition was not forced.
    assert_equivalent(&v.universal, &n.pipeline);
    for s in &n.skipped {
        assert!(matches!(
            s.reason,
            SplitError::StageNot1NF { .. } | SplitError::RematchNeedsFieldX
        ));
    }
}
