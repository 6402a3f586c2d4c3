//! A live switch: an engine plus its installed pipeline state, accepting
//! control-plane flow-mods at runtime.
//!
//! The reactiveness story (Fig. 4) has two halves: *how many* flow-mods an
//! intent costs (modeled in [`crate::churn`]) and *what the datapath does*
//! while applying them. [`LiveSwitch`] closes the loop functionally: it
//! owns the authoritative [`Pipeline`], applies `RuleUpdate`s to it, and
//! splices each changed row into the compiled table it belongs to
//! ([`CompiledEngine::apply_update`]) — so routing changes take effect
//! mid-trace, a flow-mod costs the row it changes, and per-update datapath
//! work is observable (rows spliced, tables rebuilt, stall estimate).
//!
//! No path here copies the pipeline per flow-mod. Every update applies in
//! place and yields an [`Undo`] record of what it overwrote:
//!
//! * a plan that fails midway undoes its applied prefix, newest first,
//!   and recompiles the tables it touched whole (the rare path);
//! * `Prepare` validates a bundle by applying it in place and undoing it
//!   at once (staging does no datapath work);
//! * the restart-durable `committed` state catches up at each bundle
//!   commit by replaying the single flow-mods applied since the previous
//!   commit, then the bundle. That is exactly the state a copy of the
//!   pipeline would give — the volatile mods that landed before the commit
//!   included — so restart semantics are those of a snapshot. When the log
//!   of single flow-mods outgrows the pipeline's entry count, it is dropped
//!   and that one commit copies the pipeline instead.

use crate::compile::{CompileError, CompiledEngine, ProcessOut, UpdateError};
use crate::cost::ModelSpec;
use crate::Switch;
use mapro_core::{
    Ack, AckError, AckOk, ApplyError, BundleId, Endpoint, Epoch, FlowMod, FlowModOp, Packet,
    Pipeline, RuleUpdate, TxnId, Undo, UpdatePlan,
};
use std::collections::HashMap;

/// A switch whose rules can change while traffic flows.
pub struct LiveSwitch {
    /// Authoritative control-plane state.
    pipeline: Pipeline,
    spec: ModelSpec,
    engine: CompiledEngine,
    /// Last durably committed state: what the datapath reverts to on a
    /// restart. Advances at install time and on every bundle commit, to
    /// everything `pipeline` then holds; single flow-mods are volatile
    /// until the next commit (the asymmetry the fault experiment
    /// measures).
    committed: Pipeline,
    /// The single flow-mods applied to `pipeline` since `committed` last
    /// caught up, in order; a commit replays them. `None` once the log
    /// grew longer than the pipeline has entries: the next commit copies
    /// the pipeline instead, so the log never outweighs it.
    since_commit: Option<Vec<RuleUpdate>>,
    /// Bundles staged by `Prepare`, awaiting `Commit`/`Rollback`.
    staged: HashMap<BundleId, Vec<RuleUpdate>>,
    /// Transaction dedup log, scoped per epoch: acks already emitted,
    /// replayed verbatim on redelivery so duplicated flow-mods have a
    /// single effect. Epoch scoping makes txn-id reuse across controller
    /// generations safe.
    acked: HashMap<(Epoch, TxnId), Ack>,
    /// The fence: highest controller epoch ever seen. Anything older is
    /// a dead generation's straggler and is refused before it can touch
    /// state — even before the dedup log. Survives restarts (a fence a
    /// power-cycle could reset would let a deposed controller write
    /// again).
    current_epoch: Epoch,
    /// Restarts simulated so far.
    pub(crate) restarts: u64,
    /// Cumulative modeled stall (ns) since construction.
    pub total_stall_ns: f64,
}

impl LiveSwitch {
    /// Install a pipeline on a switch of the given model. (Verdict costs
    /// are the engine's accumulated lookup costs for every model; the
    /// hardware latency rule belongs to [`crate::SwitchModel`] reports.)
    pub(crate) fn install(pipeline: Pipeline, spec: ModelSpec) -> Result<LiveSwitch, CompileError> {
        let engine = CompiledEngine::compile(&pipeline, spec.policy, spec.params.clone())?;
        // Declare up front so `--metrics` shows the fence counter even
        // for a run that never sees a stale epoch, and the split of
        // `deliver` for a run that never bundles.
        mapro_obs::counter!("control.epoch.rejections");
        mapro_obs::histogram!("switch.live.prepare_ns");
        mapro_obs::histogram!("switch.live.commit_ns");
        Ok(LiveSwitch {
            committed: pipeline.clone(),
            since_commit: Some(Vec::new()),
            pipeline,
            spec,
            engine,
            staged: HashMap::new(),
            acked: HashMap::new(),
            current_epoch: 0,
            restarts: 0,
            total_stall_ns: 0.0,
        })
    }

    /// A NoviFlow-flavoured live switch (TCAM templates, hardware stall
    /// constants).
    pub fn noviflow(pipeline: Pipeline) -> Result<LiveSwitch, CompileError> {
        LiveSwitch::install(pipeline, ModelSpec::noviflow())
    }

    /// An ESwitch-flavoured live switch: template specialization with
    /// software-switch stall constants (flow-mods on a software datapath
    /// cost microseconds of classifier rebuild, no TCAM bundle penalty).
    pub fn eswitch(pipeline: Pipeline) -> Result<LiveSwitch, CompileError> {
        LiveSwitch::install(pipeline, ModelSpec::eswitch())
    }

    /// The authoritative pipeline (what a controller would read back).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Apply one flow-mod: update control state, splice the changed row
    /// into *only the touched table* (every other table's program is
    /// reused), and return
    /// the modeled datapath stall (ns). The flow-mod is volatile until the
    /// next bundle commit.
    pub fn apply_update(&mut self, update: &RuleUpdate) -> Result<f64, UpdateError> {
        self.apply_one(update)?;
        self.log_volatile(std::slice::from_ref(update));
        Ok(self.spec.stall.per_flowmod_ns)
    }

    /// Apply a whole plan atomically: either every update lands, or the
    /// pipeline (and datapath) are rolled back to their pre-plan state and
    /// the first error is returned. An atomic multi-entry plan
    /// additionally pays the bundle-commit stall (§5 / Fig. 4) and
    /// advances the committed (restart-durable) state.
    pub fn apply_plan(&mut self, plan: &UpdatePlan) -> Result<f64, UpdateError> {
        let mut done = Vec::with_capacity(plan.updates.len());
        let mut stall = 0.0;
        for u in &plan.updates {
            match self.apply_one(u) {
                Ok(record) => {
                    done.push(record);
                    stall += self.spec.stall.per_flowmod_ns;
                }
                Err(e) => {
                    self.roll_back(&plan.updates[..done.len()], done);
                    return Err(e);
                }
            }
        }
        if plan.needs_bundle() {
            stall += self.spec.stall.bundle_ns;
            self.total_stall_ns += self.spec.stall.bundle_ns;
            self.advance_committed(&plan.updates);
        } else {
            self.log_volatile(&plan.updates);
        }
        Ok(stall)
    }

    /// Apply one flow-mod to the pipeline and the engine and accrue its
    /// stall; on error neither changed.
    fn apply_one(&mut self, update: &RuleUpdate) -> Result<Undo, UpdateError> {
        let record = {
            let _t = mapro_obs::time!("switch.live.recompile_ns");
            let _sp = mapro_obs::trace::span_kv(
                "recompile",
                vec![("table", update.table().to_owned().into())],
            );
            self.engine.apply_update(&mut self.pipeline, update)?
        };
        self.total_stall_ns += self.spec.stall.per_flowmod_ns;
        Ok(record)
    }

    /// Undo an aborted plan's `applied` prefix, newest first, and
    /// recompile the tables it touched. The modeled stall already accrued
    /// stays: the switch really did the work before aborting.
    fn roll_back(&mut self, applied: &[RuleUpdate], records: Vec<Undo>) {
        for record in records.into_iter().rev() {
            mapro_core::undo(&mut self.pipeline, record);
        }
        let mut done: Vec<&str> = Vec::new();
        for u in applied {
            let name = u.table();
            if !done.contains(&name) {
                done.push(name);
                self.engine
                    .recompile_table(&self.pipeline, name)
                    .expect("rollback recompiles previously-compiled state");
            }
        }
    }

    /// Note flow-mods that landed outside a bundle (see `since_commit`).
    fn log_volatile(&mut self, updates: &[RuleUpdate]) {
        if let Some(log) = &mut self.since_commit {
            log.extend_from_slice(updates);
            if log.len() > self.pipeline.total_entries() {
                self.since_commit = None;
            }
        }
    }

    /// A bundle of `plan` committed: make everything the pipeline holds
    /// durable, by replaying the volatile log and the plan onto
    /// `committed` (or, past the log's bound, by one copy).
    fn advance_committed(&mut self, plan: &[RuleUpdate]) {
        match &mut self.since_commit {
            Some(log) => {
                for u in log.iter().chain(plan) {
                    mapro_core::apply_update_silent(&mut self.committed, u)
                        .expect("replays a flow-mod that applied to this very state");
                }
                log.clear();
            }
            None => {
                self.committed = self.pipeline.clone();
                self.since_commit = Some(Vec::new());
            }
        }
    }
}

/// The switch side of the control channel: parse flow-mods, dedup by
/// transaction id, stage/commit/roll back bundles, answer state reads —
/// and lose all volatile state on a restart.
impl Endpoint for LiveSwitch {
    fn deliver(&mut self, msg: &FlowMod) -> Ack {
        mapro_obs::counter!("switch.live.flowmods").inc();
        // The fence comes before everything, including the dedup log: a
        // stale generation's message must not even replay a cached ack,
        // because its sender has no business learning anything but "you
        // are deposed".
        if msg.epoch < self.current_epoch {
            mapro_obs::counter!("control.epoch.rejections").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv(
                    "epoch_reject",
                    vec![
                        ("stale", msg.epoch.into()),
                        ("current", self.current_epoch.into()),
                    ],
                );
            }
            return Ack {
                txn: msg.txn,
                epoch: msg.epoch,
                result: Err(AckError::StaleEpoch {
                    current: self.current_epoch,
                }),
            };
        }
        if msg.epoch > self.current_epoch {
            // A new generation took over. Its predecessor's staged-but-
            // uncommitted bundles die here: the only controller that knew
            // how to commit them is fenced, and committing them later
            // would tear state the successor already reconciled.
            self.current_epoch = msg.epoch;
            self.staged.clear();
            self.acked.clear();
        }
        if let Some(prev) = self.acked.get(&(msg.epoch, msg.txn)) {
            // Redelivery: the switch still parses and re-stages the
            // message before the dedup log short-circuits it, so the
            // control CPU pays per carried flow-mod. This is the term
            // that scales retry cost with update-plan size.
            mapro_obs::counter!("switch.live.dedup_hits").inc();
            self.total_stall_ns += msg.op.mods_carried() as f64 * self.spec.stall.per_flowmod_ns;
            return prev.clone();
        }
        let result = match &msg.op {
            FlowModOp::Apply(u) => self
                .apply_update(u)
                .map(|_| AckOk::Done)
                .map_err(|e| AckError::Rejected(e.to_string())),
            FlowModOp::Prepare { bundle, updates } => {
                let _t = mapro_obs::time!("switch.live.prepare_ns");
                // Validate by applying in place and taking it straight
                // back; staging itself is free (no datapath work until
                // commit).
                let mut records = Vec::with_capacity(updates.len());
                let applied = updates.iter().try_for_each(|u| -> Result<(), ApplyError> {
                    records.push(mapro_core::apply_update(&mut self.pipeline, u)?);
                    Ok(())
                });
                for record in records.into_iter().rev() {
                    mapro_core::undo(&mut self.pipeline, record);
                }
                match applied {
                    Ok(()) => {
                        self.staged.insert(*bundle, updates.clone());
                        Ok(AckOk::Done)
                    }
                    Err(e) => Err(AckError::Rejected(e.to_string())),
                }
            }
            FlowModOp::Commit { bundle } => match self.staged.remove(bundle) {
                None => Err(AckError::BundleUnknown),
                Some(updates) => {
                    let _t = mapro_obs::time!("switch.live.commit_ns");
                    let plan = UpdatePlan {
                        intent: format!("bundle {bundle}"),
                        updates,
                    };
                    // apply_plan is atomic and advances `committed`.
                    self.apply_plan(&plan)
                        .map(|_| AckOk::Done)
                        .map_err(|e| AckError::Rejected(e.to_string()))
                }
            },
            FlowModOp::Rollback { bundle } => {
                self.staged.remove(bundle);
                Ok(AckOk::Done)
            }
            FlowModOp::ReadState => Ok(AckOk::State(Box::new(self.pipeline.clone()))),
        };
        let ack = Ack {
            txn: msg.txn,
            epoch: msg.epoch,
            result,
        };
        self.acked.insert((msg.epoch, msg.txn), ack.clone());
        ack
    }

    fn restart(&mut self) {
        mapro_obs::counter!("switch.live.restarts").inc();
        self.restarts += 1;
        self.pipeline = self.committed.clone();
        self.since_commit = Some(Vec::new());
        self.staged.clear();
        self.acked.clear();
        // `current_epoch` deliberately survives: the fence is durable.
        self.engine =
            CompiledEngine::compile(&self.pipeline, self.spec.policy, self.spec.params.clone())
                .expect("committed state compiled when it was committed");
    }
}

impl Switch for LiveSwitch {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        self.engine.process(pkt)
    }

    fn queue_factor(&self) -> f64 {
        self.spec.params.queue_factor
    }

    fn stages(&self) -> usize {
        self.engine.stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ControlStall;
    use mapro_core::{ActionSem, AttrId, Catalog, Entry, Table, Value};

    fn pipeline() -> (Pipeline, AttrId, AttrId) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2)], vec![Value::sym("b")]);
        (Pipeline::single(c, t), f, out)
    }

    #[test]
    fn updates_take_effect_mid_traffic() {
        let (p, _, out) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("a"));
        let stall = sw
            .apply_update(&RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(out, Value::sym("z"))],
            })
            .unwrap();
        assert_eq!(stall, ControlStall::default().per_flowmod_ns);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("z"));
    }

    #[test]
    fn plan_application_accounts_bundle_stall() {
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p).unwrap();
        let plan = UpdatePlan {
            intent: "renumber".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(f, Value::Int(11))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(12))],
                },
            ],
        };
        let stall = sw.apply_plan(&plan).unwrap();
        let cs = ControlStall::default();
        assert_eq!(stall, 2.0 * cs.per_flowmod_ns + cs.bundle_ns);
        assert_eq!(sw.total_stall_ns, stall);
        // The new match values route.
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 11)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("a"));
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 1)]);
        assert!(sw.process(&pkt).dropped);
    }

    #[test]
    fn bad_update_rejected_and_state_unchanged() {
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        let err = sw.apply_update(&RuleUpdate::Modify {
            table: "t".into(),
            matches: vec![Value::Int(99)],
            set: vec![(f, Value::Int(1))],
        });
        assert!(matches!(err, Err(UpdateError::Apply(_))));
        assert_eq!(*sw.pipeline(), p);
        assert_eq!(sw.total_stall_ns, 0.0);
    }

    fn two_tables() -> (Pipeline, AttrId, AttrId) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let g = c.field("g", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![out]);
        t0.row(vec![Value::Int(1)], vec![Value::Any]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![g], vec![out]);
        t1.row(vec![Value::Int(5)], vec![Value::sym("a")]);
        t1.row(vec![Value::Int(6)], vec![Value::sym("b")]);
        (Pipeline::new(c, vec![t0, t1], "t0"), g, out)
    }

    #[test]
    fn incremental_recompile_reuses_untouched_tables() {
        let (p, _, out) = two_tables();
        let mut sw = LiveSwitch::noviflow(p).unwrap();
        let before = sw.engine.table_addrs();
        let stats = sw.engine.update_stats();
        sw.apply_update(&RuleUpdate::Modify {
            table: "t1".into(),
            matches: vec![Value::Int(5)],
            set: vec![(out, Value::sym("z"))],
        })
        .unwrap();
        let after = sw.engine.table_addrs();
        assert_eq!(
            before[0], after[0],
            "t0 was untouched; its compiled table must be reused"
        );
        assert_eq!(
            sw.engine.update_stats().splices,
            stats.splices + 1,
            "t1 changed; its row must be spliced in"
        );
        // The spliced table routes the new action.
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 1), ("g", 5)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("z"));
    }

    #[test]
    fn mid_plan_failure_rolls_back_pipeline_and_datapath() {
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        let plan = UpdatePlan {
            intent: "partially bogus".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(f, Value::Int(11))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(99)], // no such entry
                    set: vec![(f, Value::Int(12))],
                },
            ],
        };
        assert!(matches!(sw.apply_plan(&plan), Err(UpdateError::Apply(_))));
        // Control state is byte-identical to the pre-plan state...
        assert_eq!(*sw.pipeline(), p);
        // ...and the datapath agrees (the first update's recompile was
        // reverted, so f=1 still routes and f=11 does not).
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 1)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("a"));
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 11)]);
        assert!(sw.process(&pkt).dropped);
    }

    #[test]
    fn endpoint_dedups_by_txn_and_charges_reprocessing() {
        use mapro_core::{Endpoint, FlowMod, FlowModOp};
        let (p, _, out) = pipeline();
        let mut sw = LiveSwitch::noviflow(p).unwrap();
        let msg = FlowMod {
            txn: 7,
            epoch: 0,
            op: FlowModOp::Apply(RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(out, Value::sym("z"))],
            }),
        };
        let first = sw.deliver(&msg);
        assert!(first.result.is_ok());
        let stall_after_first = sw.total_stall_ns;
        let replay = sw.deliver(&msg);
        assert_eq!(first, replay, "redelivery must replay the cached ack");
        // Redelivery cost: parsing one carried flow-mod, no datapath work.
        let cs = ControlStall::default();
        assert_eq!(sw.total_stall_ns, stall_after_first + cs.per_flowmod_ns);
        // The update was applied exactly once (entry still routes "z").
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 1)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("z"));
    }

    #[test]
    fn restart_reverts_to_committed_bundle() {
        use mapro_core::{Endpoint, FlowMod, FlowModOp};
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        // A committed bundle moves f=1 → f=11 durably.
        let bundle_updates = vec![
            RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(f, Value::Int(11))],
            },
            RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(2)],
                set: vec![(f, Value::Int(12))],
            },
        ];
        assert!(sw
            .deliver(&FlowMod {
                txn: 1,
                epoch: 0,
                op: FlowModOp::Prepare {
                    bundle: 9,
                    updates: bundle_updates
                }
            })
            .result
            .is_ok());
        assert!(sw
            .deliver(&FlowMod {
                txn: 2,
                epoch: 0,
                op: FlowModOp::Commit { bundle: 9 }
            })
            .result
            .is_ok());
        let committed_state = sw.pipeline().clone();
        // A volatile single apply on top.
        assert!(sw
            .deliver(&FlowMod {
                txn: 3,
                epoch: 0,
                op: FlowModOp::Apply(RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(11)],
                    set: vec![(f, Value::Int(31))],
                })
            })
            .result
            .is_ok());
        assert_ne!(*sw.pipeline(), committed_state);
        sw.restart();
        assert_eq!(sw.restarts, 1);
        assert_eq!(
            *sw.pipeline(),
            committed_state,
            "restart must revert to the last committed bundle, not install"
        );
        // The dedup log was wiped: txn 3 re-applies for real this time.
        assert!(sw
            .deliver(&FlowMod {
                txn: 3,
                epoch: 0,
                op: FlowModOp::Apply(RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(11)],
                    set: vec![(f, Value::Int(31))],
                })
            })
            .result
            .is_ok());
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 31)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("a"));
    }

    /// `committed` catches up by replay: a single flow-mod applied before
    /// a bundle becomes durable with it, one applied after does not. Run
    /// with a log shorter than the pipeline and one longer (whose commit
    /// copies the pipeline instead); a commit that replayed only its own
    /// plan fails both.
    #[test]
    fn commit_makes_the_single_mods_before_it_durable() {
        use mapro_core::{Endpoint, FlowMod, FlowModOp};
        let (p, f, out) = pipeline();
        for singles in [1u64, 5] {
            let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
            let mut txn = 0;
            let mut send = |sw: &mut LiveSwitch, op| {
                txn += 1;
                let ack = sw.deliver(&FlowMod { txn, epoch: 0, op });
                assert!(ack.result.is_ok(), "{ack:?}");
            };
            for k in 1..=singles {
                send(
                    &mut sw,
                    FlowModOp::Apply(RuleUpdate::Modify {
                        table: "t".into(),
                        matches: vec![Value::Int(1)],
                        set: vec![(out, Value::sym(format!("s{k}")))],
                    }),
                );
            }
            let updates = vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(12))],
                },
                RuleUpdate::Insert {
                    table: "t".into(),
                    entry: Entry::new(vec![Value::Int(3)], vec![Value::sym("c")]),
                },
            ];
            send(&mut sw, FlowModOp::Prepare { bundle: 1, updates });
            send(&mut sw, FlowModOp::Commit { bundle: 1 });
            let after_bundle = sw.pipeline().clone();
            send(
                &mut sw,
                FlowModOp::Apply(RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(12)],
                    set: vec![(f, Value::Int(13))],
                }),
            );
            sw.restart();
            assert_eq!(*sw.pipeline(), after_bundle, "{singles} single mods");
            let route = |sw: &mut LiveSwitch, v| {
                let pkt = Packet::from_fields(&p.catalog, &[("f", v)]);
                sw.process(&pkt).output
            };
            let last = format!("s{singles}");
            assert_eq!(route(&mut sw, 1).as_deref(), Some(last.as_str()));
            assert_eq!(route(&mut sw, 12).as_deref(), Some("b"));
            assert_eq!(route(&mut sw, 13), None);
        }
    }

    #[test]
    fn prepare_validates_in_place_and_leaves_the_pipeline_untouched() {
        use mapro_core::{AckError, Endpoint, FlowMod, FlowModOp};
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        let renumber = RuleUpdate::Modify {
            table: "t".into(),
            matches: vec![Value::Int(1)],
            set: vec![(f, Value::Int(11))],
        };
        // The second update names the row the first one renumbered.
        let stale = RuleUpdate::Delete {
            table: "t".into(),
            matches: vec![Value::Int(1)],
        };
        let prepare = |txn, bundle, updates| FlowMod {
            txn,
            epoch: 0,
            op: FlowModOp::Prepare { bundle, updates },
        };
        let ack = sw.deliver(&prepare(1, 1, vec![renumber.clone(), stale]));
        assert!(matches!(ack.result, Err(AckError::Rejected(_))), "{ack:?}");
        assert_eq!(*sw.pipeline(), p);
        assert!(sw.deliver(&prepare(2, 2, vec![renumber])).result.is_ok());
        assert_eq!(*sw.pipeline(), p, "staging applies nothing");
        let commit = |txn, bundle| FlowMod {
            txn,
            epoch: 0,
            op: FlowModOp::Commit { bundle },
        };
        assert_eq!(
            sw.deliver(&commit(3, 1)).result,
            Err(AckError::BundleUnknown),
            "a refused bundle is not staged"
        );
        assert!(sw.deliver(&commit(4, 2)).result.is_ok());
        assert_eq!(
            sw.pipeline().table("t").unwrap().entries[0].matches[0],
            Value::Int(11)
        );
    }

    #[test]
    fn malformed_insert_is_nacked_not_a_panic() {
        use mapro_core::{AckError, ApplyError, Endpoint, FlowMod, FlowModOp};
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        let pkts: Vec<Packet> = (0..4u64)
            .map(|v| Packet::from_fields(&p.catalog, &[("f", v)]))
            .collect();
        let verdicts = |sw: &mut LiveSwitch| pkts.iter().map(|k| sw.process(k)).collect::<Vec<_>>();
        let before = verdicts(&mut sw);
        let ok = RuleUpdate::Modify {
            table: "t".into(),
            matches: vec![Value::Int(1)],
            set: vec![(f, Value::Int(3))],
        };
        // A cell too many, and a cell wider than `f`'s 16 bits.
        let malformed = [
            (
                RuleUpdate::Insert {
                    table: "t".into(),
                    entry: Entry::new(vec![Value::Int(3), Value::Int(4)], vec![Value::sym("c")]),
                },
                ApplyError::Arity { table: "t".into() },
            ),
            (
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(1 << 16))],
                },
                ApplyError::Width {
                    table: "t".into(),
                    attr: f,
                },
            ),
        ];
        let mut txn = 0;
        for (bad, want) in malformed {
            let ops = [
                FlowModOp::Apply(bad.clone()),
                FlowModOp::Prepare {
                    bundle: 1,
                    updates: vec![ok.clone(), bad.clone()],
                },
            ];
            for op in ops {
                txn += 1;
                let ack = sw.deliver(&FlowMod { txn, epoch: 0, op });
                assert!(matches!(ack.result, Err(AckError::Rejected(_))), "{ack:?}");
                assert_eq!(*sw.pipeline(), p);
                assert_eq!(verdicts(&mut sw), before);
            }
            let plan = UpdatePlan {
                intent: "ok then malformed".into(),
                updates: vec![ok.clone(), bad],
            };
            assert_eq!(sw.apply_plan(&plan), Err(UpdateError::Apply(want)));
            assert_eq!(*sw.pipeline(), p);
            assert_eq!(verdicts(&mut sw), before);
        }
    }

    #[test]
    fn commit_of_unknown_bundle_refused() {
        use mapro_core::{AckError, Endpoint, FlowMod, FlowModOp};
        let (p, _, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p).unwrap();
        let ack = sw.deliver(&FlowMod {
            txn: 1,
            epoch: 0,
            op: FlowModOp::Commit { bundle: 404 },
        });
        assert_eq!(ack.result, Err(AckError::BundleUnknown));
        // Rollback of an unknown bundle is a harmless no-op.
        let ack = sw.deliver(&FlowMod {
            txn: 2,
            epoch: 0,
            op: FlowModOp::Rollback { bundle: 404 },
        });
        assert!(ack.result.is_ok());
    }

    #[test]
    fn live_eswitch_respecializes_templates_after_update() {
        use mapro_workloads::Gwlb;
        let g = Gwlb::random(4, 2, 1);
        let goto = g.normalized(mapro_normalize::JoinKind::Goto).unwrap();
        let mut sw = LiveSwitch::eswitch(goto.clone()).unwrap();
        let plan = g.move_service_port(&goto, 0, 4443);
        sw.apply_plan(&plan).unwrap();
        // Traffic to the new port routes; the old port drops.
        let svc = &g.services[0];
        let pkt = mapro_core::Packet::from_fields(
            &sw.pipeline().catalog,
            &[("ip_src", 3), ("ip_dst", svc.ip as u64), ("tcp_dst", 4443)],
        );
        assert!(sw.process(&pkt).output.is_some());
        let old = mapro_core::Packet::from_fields(
            &sw.pipeline().catalog,
            &[
                ("ip_src", 3),
                ("ip_dst", svc.ip as u64),
                ("tcp_dst", svc.port as u64),
            ],
        );
        assert!(sw.process(&old).dropped);
    }

    #[test]
    fn normalized_gwlb_update_on_live_switch() {
        use mapro_workloads::Gwlb;
        let g = Gwlb::fig1();
        let goto = g.normalized(mapro_normalize::JoinKind::Goto).unwrap();
        let mut uni_sw = LiveSwitch::noviflow(g.universal.clone()).unwrap();
        let mut norm_sw = LiveSwitch::noviflow(goto.clone()).unwrap();
        // Move tenant 1 to port 8443 on both.
        let uni_stall = uni_sw
            .apply_plan(&g.move_service_port(&g.universal, 0, 8443))
            .unwrap();
        let norm_stall = norm_sw
            .apply_plan(&g.move_service_port(&goto, 0, 8443))
            .unwrap();
        // The universal switch paid the bundle; the normalized one did not.
        assert!(uni_stall > 10.0 * norm_stall, "{uni_stall} vs {norm_stall}");
        // Both now route the new port identically.
        let pkt = mapro_core::Packet::from_fields(
            &g.universal.catalog,
            &[
                ("ip_src", 7),
                ("ip_dst", mapro_packet::ipv4("192.0.2.1") as u64),
                ("tcp_dst", 8443),
            ],
        );
        assert_eq!(
            uni_sw.process(&pkt).output.as_deref(),
            norm_sw.process(&pkt).output.as_deref()
        );
        assert_eq!(uni_sw.process(&pkt).output.as_deref(), Some("vm1"));
    }

    #[test]
    fn stale_epoch_fenced_before_dedup_and_fence_survives_restart() {
        use mapro_core::{AckError, Endpoint, FlowMod, FlowModOp};
        let (p, _, out) = pipeline();
        let mut sw = LiveSwitch::noviflow(p).unwrap();
        let modify = |txn, epoch, val: &str| FlowMod {
            txn,
            epoch,
            op: FlowModOp::Apply(RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(out, Value::sym(val))],
            }),
        };
        // Epoch 0 writes, then a successor at epoch 2 takes over.
        assert!(sw.deliver(&modify(1, 0, "x")).result.is_ok());
        assert!(sw.deliver(&modify(1, 2, "y")).result.is_ok());
        assert_eq!(sw.current_epoch, 2);
        // The deposed generation is fenced — even a txn id its successor
        // already used must NOT replay the cached ack across epochs.
        let ack = sw.deliver(&modify(1, 0, "z"));
        assert_eq!(ack.result, Err(AckError::StaleEpoch { current: 2 }));
        assert_eq!(ack.epoch, 0, "the ack echoes the sender's epoch");
        let pkt = Packet::from_fields(&sw.pipeline().catalog, &[("f", 1)]);
        assert_eq!(sw.process(&pkt).output.as_deref(), Some("y"));
        // The fence survives a power-cycle; the dedup log does not.
        sw.restart();
        assert_eq!(sw.current_epoch, 2);
        let ack = sw.deliver(&modify(9, 1, "z"));
        assert_eq!(ack.result, Err(AckError::StaleEpoch { current: 2 }));
    }

    #[test]
    fn epoch_advance_purges_predecessor_staged_bundles() {
        use mapro_core::{AckError, Endpoint, FlowMod, FlowModOp};
        let (p, f, _) = pipeline();
        let mut sw = LiveSwitch::noviflow(p.clone()).unwrap();
        // Epoch 1 stages a bundle, then dies without committing.
        assert!(sw
            .deliver(&FlowMod {
                txn: 1,
                epoch: 1,
                op: FlowModOp::Prepare {
                    bundle: 5,
                    updates: vec![RuleUpdate::Modify {
                        table: "t".into(),
                        matches: vec![Value::Int(1)],
                        set: vec![(f, Value::Int(77))],
                    }],
                },
            })
            .result
            .is_ok());
        // Epoch 2 appears; the orphaned staging dies with its owner.
        assert!(sw
            .deliver(&FlowMod {
                txn: 1,
                epoch: 2,
                op: FlowModOp::ReadState,
            })
            .result
            .is_ok());
        // Even the new generation cannot commit the orphan (it is gone),
        // and the old generation cannot either (it is fenced): no torn
        // bundle can ever land.
        let ack = sw.deliver(&FlowMod {
            txn: 2,
            epoch: 2,
            op: FlowModOp::Commit { bundle: 5 },
        });
        assert_eq!(ack.result, Err(AckError::BundleUnknown));
        let ack = sw.deliver(&FlowMod {
            txn: 2,
            epoch: 1,
            op: FlowModOp::Commit { bundle: 5 },
        });
        assert_eq!(ack.result, Err(AckError::StaleEpoch { current: 2 }));
        assert_eq!(*sw.pipeline(), p, "no torn bundle applied");
    }
}
