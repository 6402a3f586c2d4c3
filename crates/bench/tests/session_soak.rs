//! Soak of the incremental equivalence session: tens of thousands of
//! action-only and match-changing flow-mods through one session on each
//! GWLB form, asserting what a long run must keep — a bounded diagram
//! arena (the session collects its own garbage; before it did, the only
//! collection was the overflow rebuild at four million nodes), zero
//! fallbacks, and a final verdict and witness byte-equal to a fresh check.
//!
//! One test, both forms in sequence: the arena is read off the process-wide
//! `dd.nodes` / `dd.gc.collected` counters, so nothing else in this process
//! may build diagrams while a session is being measured.

use mapro_core::{apply_plan_silent, plan_delta_rows, RuleUpdate, UpdatePlan};
use mapro_core::{EquivOutcome, Pipeline, Value};
use mapro_normalize::JoinKind;
use mapro_sym::{check_symbolic, IncrementalChecker, Side, SymConfig};
use mapro_workloads::Gwlb;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Flow-mods per form; the debug build (tier-1 runs it) keeps the shape at
/// a twentieth of the length.
const MODS: usize = if cfg!(debug_assertions) {
    2_500
} else {
    50_000
};

fn counter(name: &str) -> u64 {
    mapro_obs::registry().counter(name).get()
}

/// Swap one backend's VM (action-only, one row) or move one service to
/// another port (match-changing: `M` rows of the universal table, one row
/// of the goto form's first stage).
fn next_plan(g: &Gwlb, p: &Pipeline, rng: &mut SmallRng) -> UpdatePlan {
    if rng.gen_bool(0.5) {
        let t = p
            .tables
            .iter()
            .find(|t| matches!(t.column_of(g.out), Some((_, false))))
            .expect("some table outputs");
        let row = rng.gen_range(0..t.entries.len());
        UpdatePlan {
            intent: "swap backend".into(),
            updates: vec![RuleUpdate::Modify {
                table: t.name.clone(),
                matches: t.entries[row].matches.clone(),
                set: vec![(g.out, Value::sym(format!("vm-{}", rng.gen_range(0..64u32))))],
            }],
        }
    } else {
        let svc = rng.gen_range(0..g.services.len());
        g.move_service_port(p, svc, rng.gen_range(1024..1088))
    }
}

fn soak(form: &str, g: &Gwlb, base: &Pipeline) {
    let (nodes0, collected0, fallbacks0) = (
        counter("dd.nodes"),
        counter("dd.gc.collected"),
        counter("sym.incr.fallbacks"),
    );
    let arena = || (counter("dd.nodes") - nodes0) - (counter("dd.gc.collected") - collected0);

    let mut s = IncrementalChecker::new(base, base, &SymConfig::default()).unwrap();
    // What the two compiles left behind bounds the live diagrams from
    // above; nothing the churn does grows them by more than a few rows.
    let ceiling = 8 * arena().max(1 << 12);
    let mut rng = SmallRng::seed_from_u64(2019);
    let (mut mods, mut txn, mut peak) = (0usize, 0u64, 0u64);
    let mut step = |s: &mut IncrementalChecker, side, plan: &UpdatePlan| {
        let rows = plan_delta_rows(s.left(), plan);
        txn += 1;
        let token = s
            .update(side, &rows, 1, txn, |p| apply_plan_silent(p, plan))
            .expect("plan applies and re-check runs");
        peak = peak.max(arena());
        token.verdict
    };
    while mods < MODS {
        // Divergence window, then the mirror image: both directions of the
        // verdict, every time.
        let plan = next_plan(g, s.left(), &mut rng);
        step(&mut s, Side::Left, &plan);
        let v = step(&mut s, Side::Right, &plan);
        assert!(v.is_equivalent(), "{form}: mirrored mod must reconverge");
        mods += 2 * plan.updates.len();
    }

    // Leave the pair diverged so there is a witness to compare.
    let plan = next_plan(g, s.left(), &mut rng);
    let v = step(&mut s, Side::Left, &plan);

    if cfg!(feature = "obs") {
        assert!(
            counter("dd.gc.collected") > collected0,
            "{form}: {mods} mods never triggered a collection"
        );
        assert!(
            peak <= ceiling,
            "{form}: arena peaked at {peak} nodes over {mods} mods (ceiling {ceiling})"
        );
        assert_eq!(
            counter("sym.incr.fallbacks"),
            fallbacks0,
            "{form}: the session fell back to a full rebuild"
        );
    }

    let fresh = check_symbolic(s.left(), s.right(), &SymConfig::default()).unwrap();
    assert_eq!(v.is_equivalent(), fresh.is_equivalent(), "{form}");
    match (s.counterexample().unwrap(), fresh) {
        (Some(cx), EquivOutcome::Counterexample(fresh_cx)) => {
            assert_eq!(cx.fields, fresh_cx.fields, "{form}: witness drifted");
            assert_eq!(cx.packet, fresh_cx.packet, "{form}: witness drifted");
        }
        (None, EquivOutcome::Equivalent { .. }) => {}
        (cx, fresh) => panic!("{form}: session {cx:?} vs fresh {fresh:?}"),
    }
}

#[test]
fn long_sessions_stay_bounded_exact_and_never_fall_back() {
    let g = Gwlb::random(20, 4, 2019);
    soak("universal", &g, &g.universal);
    soak(
        "goto",
        &g,
        &g.normalized(JoinKind::Goto).expect("GWLB decomposes"),
    );
}
