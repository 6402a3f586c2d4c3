//! Golden checks on the figure renderings (E1/E2/E3/E10 text output):
//! load-bearing lines of each rendering must keep appearing, so a
//! formatting or transformation regression cannot slip out unnoticed.

use mapro_bench::{fig1_rendering, fig2_rendering, fig3_rendering, fig5_rendering};

#[test]
fn fig1_rendering_contains_paper_structure() {
    let s = fig1_rendering();
    // The universal table, rendered in the paper's notation.
    for line in [
        "Fig. 1a: universal table",
        "| 0*     192.0.2.1 80",
        "| 1*     192.0.2.2 443",
        "| *      192.0.2.3 22",
        "Fig. 1b: goto join",
        "Fig. 1c: metadata join",
        "Fig. 1d: rematch join",
    ] {
        assert!(s.contains(line), "missing {line:?} in:\n{s}");
    }
    // Goto join: the per-tenant tables exist.
    assert!(s.contains("table t0_x1:"));
    assert!(s.contains("table t0_x3:"));
    // Metadata join introduces the tag pair.
    assert!(s.contains("M_t0"));
    assert!(s.contains("A_t0"));
}

#[test]
fn fig2_rendering_shows_the_chain() {
    let s = fig2_rendering();
    assert!(s.contains("Fig. 2a: universal L3 table"));
    assert!(s.contains("Cartesian factor"));
    assert!(s.contains("normalized to 3NF") || s.contains("normalized to BCNF"));
    // The group table: mod_dmac and friends in a second-stage table.
    assert!(s.contains("mod_dmac"));
    assert!(s.contains("mod_smac"));
}

#[test]
fn fig3_rendering_reports_the_refusal() {
    let s = fig3_rendering();
    assert!(s.contains("REFUSED"));
    assert!(s.contains("Fig. 3 phenomenon"));
}

#[test]
fn fig5_rendering_contrasts_naive_and_tagged() {
    let s = fig5_rendering();
    assert!(s.contains("Naive 3-table chain equivalent? false"));
    assert!(s.contains("Tagged pipeline equivalent? true"));
    assert!(s.contains("all"), "the `all` metadata fields should show");
}

/// FNV-1a over a program's text form: a rendering that moves by one byte
/// moves the digest.
fn program_digest(p: &mapro::core::Pipeline) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in mapro::core::format_program(p).bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("{h:016x}")
}

/// One golden line for a split: the output's digest, or the refusal text.
fn split_line<E: std::fmt::Display>(name: &str, r: Result<mapro::core::Pipeline, E>) -> String {
    match r {
        Ok(q) => format!("{name}: digest {}", program_digest(&q)),
        Err(e) => format!("{name}: refused: {e}"),
    }
}

/// The seven `mapro demo` programs, at the CLI's default sizes.
fn demos() -> Vec<(&'static str, mapro::core::Pipeline)> {
    use mapro::workloads::{Enterprise, Gwlb, Sdx, Vlan, L3};
    let deep: mapro::core::Pipeline = serde_json::from_str(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/deep_overlap.json"
        ))
        .expect("fixture readable"),
    )
    .expect("fixture parses");
    vec![
        ("fig1", Gwlb::fig1().universal),
        ("gwlb", Gwlb::random(20, 8, 2019).universal),
        ("vlan", Vlan::fig3().universal),
        ("sdx", Sdx::fig5().universal),
        ("enterprise", Enterprise::random(24, 4, 2019).pipeline),
        ("l3", L3::fig2().universal),
        ("deep", deep),
    ]
}

/// Every split the library performs today, reduced to one line per case:
/// `normalize --verify` on the seven demos under every join and target
/// (steps, skips with their reason text, digest of the output), the SDX
/// JD and naive chains, constant factoring before and after, an MVD
/// split, and Fig. 3 forced and refused. The expected lines are committed
/// in `tests/golden/splits.txt` and are never regenerated: a refactor of
/// the split must reproduce them byte for byte.
#[test]
fn split_outputs_match_the_committed_digests() {
    use mapro::normalize::{
        chain_components_naive, normalize, split, FactorPlacement, JoinKind, NormalizeOpts, Split,
        SplitOpts, Target,
    };
    let plain = SplitOpts::default();
    let mut out = Vec::new();
    for (demo, p) in demos() {
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            for (tname, target) in [
                ("2nf", Target::SecondNf),
                ("3nf", Target::ThirdNf),
                ("bcnf", Target::Bcnf),
            ] {
                let n = normalize(
                    &p,
                    &NormalizeOpts {
                        join,
                        target,
                        verify: true,
                        ..Default::default()
                    },
                );
                let steps: Vec<String> = n
                    .steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{} ({}) -> ({})",
                            s.table,
                            s.lhs.join(", "),
                            s.rhs.join(", ")
                        )
                    })
                    .collect();
                let skips: Vec<String> = n
                    .skipped
                    .iter()
                    .map(|s| format!("{} ({}): {}", s.table, s.lhs.join(", "), s.reason))
                    .collect();
                out.push(format!(
                    "normalize {demo} {join} {tname}: reached {} complete {} steps [{}] skipped [{}] digest {}",
                    n.reached,
                    n.complete(),
                    steps.join("; "),
                    skips.join("; "),
                    program_digest(&n.pipeline)
                ));
            }
        }
    }

    let sdx = mapro::workloads::Sdx::fig5();
    out.push(split_line(
        "jd sdx",
        split(
            &sdx.universal,
            "sdx",
            &Split::Jd(sdx.components.clone()),
            &plain,
        ),
    ));
    out.push(split_line(
        "naive sdx",
        chain_components_naive(&sdx.universal, "sdx", &sdx.components),
    ));

    let l3 = mapro::workloads::L3::fig2();
    for (name, only, placement) in [
        ("factor l3 before all", None, FactorPlacement::Before),
        (
            "factor l3 before eth_type,mod_ttl",
            Some(vec![l3.eth_type, l3.mod_ttl]),
            FactorPlacement::Before,
        ),
        (
            "factor l3 after mod_ttl",
            Some(vec![l3.mod_ttl]),
            FactorPlacement::After,
        ),
        ("factor l3 after all", None, FactorPlacement::After),
    ] {
        out.push(split_line(
            name,
            split(
                &l3.universal,
                "l3",
                &Split::Constant { only, placement },
                &plain,
            ),
        ));
    }

    // The classic 4NF table: per course, every teacher with every book.
    let mut c = mapro::core::Catalog::new();
    let course = c.field("course", 8);
    let teacher = c.field("teacher", 8);
    let book = c.field("book", 8);
    let mut t = mapro::core::Table::new("ctb", vec![course, teacher, book], vec![]);
    for tv in 1u64..=3 {
        for bv in [10u64, 20, 30] {
            t.row(
                vec![
                    mapro::core::Value::Int(1),
                    mapro::core::Value::Int(tv),
                    mapro::core::Value::Int(bv),
                ],
                vec![],
            );
        }
    }
    let ctb = mapro::core::Pipeline::single(c, t);
    out.push(split_line(
        "mvd ctb course->>teacher",
        split(
            &ctb,
            "ctb",
            &Split::Mvd {
                x: vec![course],
                y: vec![teacher],
            },
            &plain,
        ),
    ));

    let v = mapro::workloads::Vlan::fig3();
    for (name, allow_non_1nf) in [("fig3 refused", false), ("fig3b forced", true)] {
        out.push(split_line(
            name,
            split(
                &v.universal,
                "t0",
                &Split::Fd {
                    x: vec![v.out],
                    y: vec![v.vlan],
                    join: JoinKind::Metadata,
                },
                &SplitOpts {
                    allow_non_1nf,
                    ..plain
                },
            ),
        ));
    }

    let got = out.join("\n") + "\n";
    let expected = include_str!("golden/splits.txt");
    if got != expected {
        for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            if g != e {
                eprintln!(
                    "first difference at line {}:\n  got      {g}\n  expected {e}",
                    i + 1
                );
                break;
            }
        }
        panic!("split outputs moved; the committed tests/golden/splits.txt is:\n{expected}\nthis build produced:\n{got}");
    }
}
