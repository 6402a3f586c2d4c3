//! # mapro-switch — the simulated testbed
//!
//! §5 of the paper measures the GWLB pipeline on OVS, ESwitch, Lagopus and
//! a NoviFlow 2128. This crate is the substitute testbed (see DESIGN.md
//! §2 for the substitution argument):
//!
//! * [`compile`] — [`CompiledEngine`], the one per-packet executor:
//!   every model below runs it; they differ in the [`ModelSpec`] it is
//!   compiled under (template policy, cost constants, latency rule,
//!   flow-mod stall), never in match-action semantics.
//! * [`sims`] — [`SwitchModel`]: the engine as ESwitch (template
//!   specialization), Lagopus (uniform TSS) or NoviFlow (TCAM line rate +
//!   per-stage latency).
//! * [`megaflow`] — the tuple-space megaflow store and [`CachedEngine`],
//!   the engine behind a cache whose masks are read off the walk on a miss,
//!   with precise invalidation.
//! * [`ovs`] — [`OvsSim`]: the same walk and megaflow store under
//!   conservative per-table masks (OVS's explicit denormalization).
//! * [`harness`] — trace replay producing Table-1-style Mpps / latency
//!   quartiles, modeled (deterministic) and wall-clock modes.
//! * [`churn`] — the Fig. 4 control-plane stall model (analytic and
//!   discrete-event timeline).
//! * [`live`] — [`LiveSwitch`]: the engine accepting control-plane
//!   flow-mods at runtime, one row spliced into its table per flow-mod.
//! * [`cost`] — the calibrated cost constants and the per-model
//!   [`ModelSpec`]s, documented in one place.
//! * [`cls`] — the packet-classifier templates a table is instantiated
//!   with (exact hash, LPM trie, tuple space, linear scan, TCAM model,
//!   decision tree) and the shape analysis that picks among them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod cls;
pub mod compile;
pub mod cost;
pub mod harness;
pub mod live;
pub mod megaflow;
pub mod ovs;
pub mod sims;

pub use churn::{
    churn_point, churn_sweep, queue_timeline, simulate_churn_timeline, ChurnPoint, ChurnSpec,
    QueueConfig, QueueReport,
};
pub use compile::{CompileError, CompiledEngine, ProcessOut, UpdateError};
pub use cost::{ControlStall, CostParams, HwLatency, ModelSpec, TemplatePolicy};
pub use harness::{
    replay_digest, run_modeled, run_modeled_parallel, run_with_updates, ClosedLoopReport, RunReport,
};
pub use live::LiveSwitch;
pub use megaflow::{CachedEngine, MegaflowStats};
pub use ovs::OvsSim;
pub use sims::SwitchModel;

use mapro_core::Packet;

/// A switch model under test.
pub trait Switch {
    /// Short identifier (`eswitch`, `ovs`, …).
    fn name(&self) -> &'static str;
    /// Process one packet.
    fn process(&mut self, pkt: &Packet) -> ProcessOut;
    /// Process a batch of packets into `out` (cleared first). The default
    /// forwards to [`Switch::process`]; the harness replays traces in
    /// [`compile::BATCH`]-packet chunks through this entry point, so one
    /// virtual call is paid per chunk instead of per packet and the
    /// engine's dispatch loop stays hot.
    fn process_batch(&mut self, pkts: &[&Packet], out: &mut Vec<ProcessOut>) {
        out.clear();
        out.reserve(pkts.len());
        for pkt in pkts {
            let r = self.process(pkt);
            out.push(r);
        }
    }
    /// Reporting scale from service time to measured latency (testbed
    /// queueing/batching; 1.0 for hardware).
    fn queue_factor(&self) -> f64;
    /// Longest pipeline chain (for hardware latency accounting).
    fn stages(&self) -> usize;
}
