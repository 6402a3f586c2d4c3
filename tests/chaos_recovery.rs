//! Crash-recovery properties of the WAL-backed, epoch-fenced control
//! plane (DESIGN.md §13): killing a controller at *any* WAL injection
//! point must leave a log from which a successor recovers the switch to
//! a `mapro_sym`-verified pipeline, and a deposed generation's bundles
//! must never tear the switch state, no matter how its flow-mods
//! interleave with the successor's.

use mapro::control::{
    AckError, Controller, CrashInjector, CrashPoint, DriverConfig, DriverError, FaultPlan,
    FaultyChannel, FlowMod, Wal,
};
use mapro::core::FlowModOp;
use mapro::prelude::*;
use mapro::switch::LiveSwitch;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill generation 1 at the `nth` occurrence of each crash point —
    /// before the WAL `Begin`, with a flow-mod on the wire, mid-retry,
    /// between bundle prepare and commit, after commit but before the
    /// WAL `Commit`, or inside reconciliation — under a faulty channel.
    /// A successor replaying the shared WAL must reconcile the switch to
    /// its recovered intent and pass the equivalence guardrail.
    #[test]
    fn successor_recovers_verified_after_crash_at_any_wal_point(
        point_idx in 0usize..CrashPoint::ALL.len(),
        nth in 0u32..3,
        seed in 0u64..1u64 << 16,
    ) {
        let point = CrashPoint::ALL[point_idx];
        let g = Gwlb::random(4, 2, 11);
        let base = g.universal.clone();
        let sw = Rc::new(RefCell::new(LiveSwitch::noviflow(base.clone()).unwrap()));
        let mut ch = FaultyChannel::new(
            sw.clone(),
            FaultPlan {
                p_drop: 0.1,
                p_dup: 0.05,
                p_reorder: 0.05,
                restart_every: 30,
                latency_ns: 10_000,
                seed,
            },
        );
        let wal = Wal::shared(base.clone());
        let cfg = DriverConfig::default();
        let mut gen1 =
            Controller::recover(wal.clone(), cfg.clone(), 1, CrashInjector::at_nth(point, nth)).expect("the log replays");
        for k in 0..6u16 {
            let intended = gen1.intended().clone();
            let plan = g.move_service_port(&intended, k as usize % 4, 10_000 + k);
            if matches!(gen1.apply_plan(&mut ch, &plan), Err(DriverError::Crashed(_))) {
                break;
            }
            if matches!(gen1.reconcile(&mut ch), Err(DriverError::Crashed(_))) {
                break;
            }
        }
        // Whatever generation 1 got to — including nothing, when the
        // injection point never fired — the successor must recover from
        // the log alone, over its own (clean) channel to the same switch.
        let mut ch2 = FaultyChannel::new(sw.clone(), FaultPlan::lossless(seed ^ 1));
        let mut gen2 = Controller::recover(wal.clone(), cfg, 2, CrashInjector::Never).expect("the log replays");
        let rep = gen2.recover_switch(&mut ch2).expect("successor recovers");
        prop_assert!(rep.reconciled && rep.verified, "unverified recovery: {rep:?}");
        let swb = sw.borrow();
        assert_equivalent(swb.pipeline(), gen2.intended());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A deposed generation keeps pushing multi-flow-mod bundles after a
    /// fresher epoch fenced the switch. Every attempt must bounce off
    /// the fence as `Deposed` and leave the switch byte-identical: no
    /// prefix of the stale bundle may stick (the torn-update hazard the
    /// two-phase protocol plus epoch fencing is there to kill).
    /// Generation 1's channel duplicates, reorders and delays, and it
    /// still holds a bundle generation 1 put on the wire before the
    /// takeover: those stragglers reach the switch only after the fence
    /// went up, and every copy, in any order, must be refused.
    #[test]
    fn interleaved_epochs_never_tear_bundles(
        split in 1usize..5,
        stale_tries in 1usize..4,
        seed in 0u64..1u64 << 16,
    ) {
        let g = Gwlb::random(4, 2, 13);
        let base = g.universal.clone();
        let sw = Rc::new(RefCell::new(LiveSwitch::noviflow(base.clone()).unwrap()));
        let mut ch1 = FaultyChannel::new(
            sw.clone(),
            FaultPlan {
                p_drop: 0.0,
                p_dup: 0.3,
                p_reorder: 0.3,
                restart_every: 0,
                latency_ns: 50_000,
                seed,
            },
        );
        let mut ch2 = FaultyChannel::new(sw.clone(), FaultPlan::lossless(seed ^ 7));
        let wal = Wal::shared(base.clone());
        let cfg = DriverConfig::default();
        let mut gen1 = Controller::recover(wal.clone(), cfg.clone(), 1, CrashInjector::Never).expect("the log replays");
        for k in 0..split {
            let intended = gen1.intended().clone();
            let plan = g.move_service_port(&intended, k % 4, 10_000 + k as u16);
            gen1.apply_plan(&mut ch1, &plan).expect("no drops: every bundle lands");
        }
        // A bundle in flight on generation 1's channel when it is deposed.
        let straggler = g.move_service_port(gen1.intended(), split % 4, 30_000);
        let txn = 1 << 20;
        for (txn, op) in [
            (txn, FlowModOp::Prepare { bundle: txn, updates: straggler.updates }),
            (txn + 1, FlowModOp::Commit { bundle: txn }),
        ] {
            ch1.send(FlowMod { txn, epoch: 1, op });
        }
        // Epoch 2 takes over: replays the WAL and fences the switch.
        let mut gen2 = Controller::recover(wal.clone(), cfg, 2, CrashInjector::Never).expect("the log replays");
        let rep = gen2.recover_switch(&mut ch2).expect("takeover");
        prop_assert!(rep.reconciled && rep.verified, "takeover unverified: {rep:?}");
        let fenced = sw.borrow().pipeline().clone();
        ch1.pump();
        let mut stale = 0;
        while let Some(ack) = ch1.recv() {
            if ack.txn >= txn {
                prop_assert_eq!(ack.result, Err(AckError::StaleEpoch { current: 2 }));
                stale += 1;
            }
        }
        prop_assert!(stale >= 2, "only {} straggler acks", stale);
        prop_assert_eq!(&fenced, sw.borrow().pipeline(), "a straggler tore the switch");
        for k in 0..stale_tries {
            let before = sw.borrow().pipeline().clone();
            let intended = gen1.intended().clone();
            let plan = g.move_service_port(&intended, (split + k) % 4, 20_000 + k as u16);
            prop_assert!(plan.updates.len() > 1, "need a bundle to tear");
            let res = gen1.apply_plan(&mut ch1, &plan);
            prop_assert!(
                matches!(res, Err(DriverError::Deposed { .. })),
                "stale bundle not fenced: {res:?}"
            );
            let swb = sw.borrow();
            prop_assert_eq!(&before, swb.pipeline(), "stale epoch tore the switch");
        }
        // The live generation is undisturbed and still verifies.
        let rep = gen2.recover_switch(&mut ch2).expect("still leads");
        prop_assert!(rep.reconciled && rep.verified);
    }
}
