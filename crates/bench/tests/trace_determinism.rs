//! Trace determinism: for a fixed-seed workload the collected span
//! *structure* — the sorted (path, count) table from
//! [`mapro_obs::trace::TraceData::structure`] — must be identical at any
//! thread count. Timing and track assignment may vary; which spans exist,
//! how they nest, and how many of each fire may not. This is the tracing
//! counterpart of the byte-identical-output contract in
//! `thread_invariance.rs`.
//!
//! Also pins down the ring-buffer overflow contract (oldest events drop
//! first, every drop is counted) and that concurrent emitters lose
//! nothing when the ring is large enough.

use mapro_core::{EquivConfig, EquivMode, EquivOutcome};
use mapro_normalize::JoinKind;
use mapro_obs::trace::{self, TraceConfig};
use mapro_switch::{OvsSim, Switch};
use mapro_workloads::Gwlb;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Trace sessions are process-global; serialize the tests touching them
/// (poisoning recovery keeps one failed test from cascading).
fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    match M.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run `work` under a fresh trace session at `threads` pool threads and
/// return the collected span structure.
fn structure_at(threads: usize, work: impl FnOnce()) -> Vec<(String, usize)> {
    mapro_par::set_threads(threads);
    assert!(
        trace::start(&TraceConfig::default()),
        "a trace session leaked from another test"
    );
    work();
    let data = trace::stop();
    mapro_par::set_threads(0);
    data.structure()
}

#[test]
fn symbolic_check_structure_is_thread_invariant() {
    let _g = lock();
    let g = Gwlb::random(8, 4, 2019);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let cfg = EquivConfig {
        mode: EquivMode::Symbolic,
        ..EquivConfig::default()
    };
    // One diagram manager, no fan-out: the same spans at 1 and 4 threads.
    let run = |threads| {
        structure_at(threads, || {
            let out = mapro_sym::check_equivalent(&g.universal, &goto, &cfg).expect("comparable");
            assert!(matches!(out, EquivOutcome::Equivalent { .. }));
        })
    };
    let s1 = run(1);
    let s4 = run(4);
    assert_eq!(s1, s4, "span structure differs between 1 and 4 threads");
    let expect = "check.symbolic.symbolic_dd.dd.compile";
    assert!(
        s1.iter().any(|(p, _)| p == expect),
        "{expect} missing from {s1:?}"
    );
}

#[test]
fn replay_structure_is_thread_invariant() {
    let _g = lock();
    let g = Gwlb::random(8, 4, 2019);
    let tr = mapro_packet::generate(&g.universal.catalog, &g.trace_spec(), 2_000, 7);
    let run = |threads| {
        structure_at(threads, || {
            let rep = mapro_switch::run_modeled_parallel(
                &|| {
                    Box::new(OvsSim::compile(&g.universal).expect("compiles"))
                        as Box<dyn Switch + Send>
                },
                &tr,
                4,
            );
            assert_eq!(rep.packets, 2_000);
        })
    };
    let s1 = run(1);
    let s4 = run(4);
    assert_eq!(s1, s4, "span structure differs between 1 and 4 threads");
    // The model keeps 4 shards regardless of thread count.
    let shards = s1
        .iter()
        .find(|(p, _)| p == "replay.shard")
        .map(|(_, n)| *n);
    assert_eq!(shards, Some(4), "expected 4 shard spans in {s1:?}");
}

#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let _g = lock();
    assert!(trace::start(&TraceConfig { buffer_capacity: 8 }));
    for i in 0..100u64 {
        let mut sp = trace::span("tick");
        sp.set("i", i);
    }
    let data = trace::stop();
    assert_eq!(data.dropped, 92, "every overflow must be counted");
    assert_eq!(data.events.len(), 8);
    // Oldest-first eviction: the survivors are the last 8 spans.
    let is: Vec<u64> = data
        .events
        .iter()
        .filter_map(|e| match e.fields.as_slice() {
            [("i", mapro_obs::trace::FieldVal::U64(v))] => Some(*v),
            _ => None,
        })
        .collect();
    assert_eq!(is, (92..100).collect::<Vec<u64>>());
}

#[test]
fn concurrent_emitters_lose_nothing() {
    let _g = lock();
    assert!(trace::start(&TraceConfig::default()));
    std::thread::scope(|s| {
        for t in 0..8usize {
            s.spawn(move || {
                trace::set_track_name(&format!("emitter-{t}"));
                for i in 0..200u64 {
                    let mut sp = trace::span("work");
                    sp.set("i", i);
                }
            });
        }
    });
    let data = trace::stop();
    assert_eq!(data.dropped, 0);
    let works = data.events.iter().filter(|e| e.name == "work").count();
    assert_eq!(works, 8 * 200, "all concurrently emitted spans collected");
    // Each emitter got exactly one named track, and no default `t{n}`
    // clutter track was registered alongside it.
    let mut names: Vec<&str> = data
        .tracks
        .iter()
        .map(|t| t.name.as_str())
        .filter(|n| n.starts_with("emitter-"))
        .collect();
    names.sort_unstable();
    assert_eq!(names.len(), 8, "tracks: {:?}", data.tracks);
    assert!(
        !data.tracks.iter().any(|t| {
            let n = t.name.as_str();
            n.starts_with('t') && n[1..].chars().all(|c| c.is_ascii_digit())
        }),
        "auto-named clutter track registered: {:?}",
        data.tracks
    );
}
