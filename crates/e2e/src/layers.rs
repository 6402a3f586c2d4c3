//! The pinned API surface: every call the harness makes into the program
//! under test goes through one adapter in this file, named after the layer
//! (crate) it enters. A refactor that moves or renames a program function
//! edits the adapter here and nothing else in the benchmark.
//!
//! `Pipeline::run` appears only as [`oracle_run`]: it is the reference the
//! outputs are checked against, never a system under test.

use mapro_control::{
    Controller, DriverConfig, DriverError, Endpoint, FaultPlan, FaultyChannel, RuleUpdate,
    UpdatePlan,
};
use mapro_core::{Catalog, EquivConfig, EquivOutcome, Packet, Pipeline, Table, Value};
use mapro_lint::LintConfig;
use mapro_normalize::{JoinKind, NormalizeOpts, Normalized};
use mapro_packet::{Binding, Frame};
use mapro_switch::{CachedEngine, LiveSwitch, ProcessOut, Switch};
use mapro_workloads::{Enterprise, Gwlb, RandomSpec, L3};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What the benchmark compares between engine and oracle: the output port
/// and whether the packet was dropped.
pub type Fate = (Option<Arc<str>>, bool);

// ---- par / obs -------------------------------------------------------

/// Pin every analysis pool to one thread; returns the count in force.
pub fn pin_single_thread() -> usize {
    mapro_par::set_threads(1);
    1
}

/// Read-only snapshot of the program's own counters (gauges included,
/// clamped at zero; histograms skipped).
pub fn counters() -> BTreeMap<String, u64> {
    mapro_obs::registry()
        .snapshot()
        .entries
        .into_iter()
        .filter_map(|e| match e.value {
            mapro_obs::MetricValue::Counter(v) => Some((e.name, v)),
            mapro_obs::MetricValue::Gauge(v) => Some((e.name, v.max(0) as u64)),
            mapro_obs::MetricValue::Histogram(_) => None,
        })
        .collect()
}

// ---- workloads (set-up only) -----------------------------------------

/// The §5 gateway & load balancer: `services` × `backends`.
pub fn gwlb(services: usize, backends: usize, seed: u64) -> Gwlb {
    Gwlb::random(services, backends, seed)
}

/// Its goto-normalized form (Fig. 1b).
pub fn gwlb_goto(g: &Gwlb) -> Pipeline {
    g.normalized(JoinKind::Goto)
        .expect("a generated GWLB decomposes along ip_dst -> tcp_dst")
}

/// Intent compiler: move service `idx` to `port`, against `repr`.
pub fn plan_move_port(g: &Gwlb, repr: &Pipeline, idx: usize, port: u16) -> UpdatePlan {
    g.move_service_port(repr, idx, port)
}

/// Intent compiler: replace service `idx`'s backend split.
pub fn plan_reweight(
    g: &Gwlb,
    repr: &Pipeline,
    idx: usize,
    backends: &[(Value, String)],
) -> UpdatePlan {
    g.reweight_backends(repr, idx, backends)
}

/// `ip_src` prefixes proportional to power-of-two `weights`.
pub fn split(weights: &[u64]) -> Vec<Value> {
    mapro_workloads::weighted_split(weights)
}

/// The ACL → NAT → L3 edge pipeline with `n` services over `racks` routes.
pub fn enterprise(n: usize, racks: usize, seed: u64) -> Enterprise {
    Enterprise::random(n, racks, seed)
}

/// The Fig. 2 L3 pipeline with `prefixes` routes.
pub fn l3(prefixes: usize, seed: u64) -> L3 {
    L3::random(prefixes, 16, 8, seed)
}

/// A random table with planted dependencies, as a one-table program.
pub fn random_program(spec: &RandomSpec, seed: u64) -> Pipeline {
    mapro_workloads::random_table(spec, seed).pipeline
}

// ---- packet ----------------------------------------------------------

/// Append the wire bytes of `frame` to `buf`.
pub fn emit_into(frame: &Frame, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&frame.emit());
}

/// Wire bytes → parsed frame.
#[inline]
pub fn parse(bytes: &[u8]) -> Result<Frame, mapro_packet::ParseError> {
    Frame::parse(bytes)
}

/// The attribute ↔ header-field binding of a catalog.
pub fn binding(catalog: &Catalog) -> Binding {
    Binding::standard(catalog)
}

/// Parsed frame → abstract packet over `catalog`.
#[inline]
pub fn bind(
    b: &Binding,
    catalog: &Catalog,
    frame: &Frame,
    sideband: &HashMap<mapro_core::AttrId, u64>,
) -> Packet {
    b.to_packet(catalog, frame, sideband)
}

// ---- switch ----------------------------------------------------------

/// Build the serving engine: megaflow cache over the compiled tier.
pub fn engine(p: &Pipeline) -> CachedEngine {
    CachedEngine::eswitch(p).expect("benchmark pipelines compile")
}

/// One burst of packets in, one verdict per packet out.
#[inline]
pub fn process(e: &mut CachedEngine, pkts: &[&Packet], out: &mut Vec<ProcessOut>) {
    e.process_batch(pkts, out);
}

/// Apply one flow-mod to the serving engine.
pub fn engine_update(e: &mut CachedEngine, u: &RuleUpdate) -> Result<(), String> {
    e.apply_update(u).map_err(|err| err.to_string())
}

/// The serving engine's cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Fast-path hits.
    pub hits: u64,
    /// Compiled-tier walks behind the cache.
    pub misses: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Entries dropped by flow-mod invalidation.
    pub invalidations: u64,
    /// Megaflows installed now.
    pub entries: u64,
    /// Whether the behaviour cover fitted its budget.
    pub enabled: bool,
}

/// Read the serving engine's cache counters.
pub fn cache_counts(e: &CachedEngine) -> CacheCounts {
    let s = e.stats();
    CacheCounts {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        invalidations: s.invalidations,
        entries: e.cache_entries() as u64,
        enabled: e.cache_enabled(),
    }
}

/// The control endpoint: a live switch holding `p`.
pub fn live_switch(p: Pipeline) -> LiveSwitch {
    LiveSwitch::eswitch(p).expect("benchmark pipelines compile")
}

/// What a controller would read back from the control endpoint.
pub fn live_pipeline(s: &LiveSwitch) -> &Pipeline {
    s.pipeline()
}

// ---- control ---------------------------------------------------------

/// A controller that proves every committed intent inline.
pub fn controller(intended: Pipeline) -> Controller {
    Controller::new(
        intended,
        DriverConfig {
            verify_inline: true,
            ..DriverConfig::default()
        },
    )
}

/// A lossless control channel in front of `endpoint`.
pub fn channel<E: Endpoint>(endpoint: E, seed: u64) -> FaultyChannel<E> {
    FaultyChannel::new(endpoint, FaultPlan::lossless(seed))
}

/// The endpoint behind a channel.
pub fn endpoint<E: Endpoint>(ch: &FaultyChannel<E>) -> &E {
    ch.endpoint()
}

/// Drive one intent: WAL → channel → endpoint → proof receipt.
pub fn apply_plan<E: Endpoint>(
    c: &mut Controller,
    ch: &mut FaultyChannel<E>,
    plan: &UpdatePlan,
) -> Result<(), DriverError> {
    c.apply_plan(ch, plan)
}

/// The pipeline the controller is driving the switch toward.
pub fn intended(c: &Controller) -> &Pipeline {
    c.intended()
}

/// The controller's own accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlCounts {
    /// Retransmitted flow-mods.
    pub retries: u64,
    /// Intents refused by admission control.
    pub shed: u64,
    /// Inline proofs recorded.
    pub proofs: u64,
    /// Records in the write-ahead log.
    pub wal_records: u64,
}

/// Read the controller's accounting.
pub fn control_counts(c: &Controller) -> ControlCounts {
    let s = c.stats();
    ControlCounts {
        retries: s.retries,
        shed: s.shed,
        proofs: s.proofs,
        wal_records: c.wal().borrow().len() as u64,
    }
}

/// `(txn, equivalent)` of the most recent inline proof, if any.
pub fn last_proof(c: &Controller) -> Option<(u64, bool)> {
    c.last_proof().map(|t| (t.txn, t.verdict.is_equivalent()))
}

// ---- core ------------------------------------------------------------

/// The reference semantics: the fate of `pkt` under `p`.
pub fn oracle_run(p: &Pipeline, pkt: &Packet) -> Fate {
    let v = p.run(pkt).expect("benchmark pipelines evaluate");
    (v.output, v.dropped)
}

/// Program → `.mat` text.
pub fn format_program(p: &Pipeline) -> String {
    mapro_core::text::format_program(p)
}

/// `.mat` text → program.
pub fn parse_program(src: &str) -> Result<Pipeline, String> {
    mapro_core::text::parse_program(src).map_err(|e| e.to_string())
}

/// Both export back ends; returns the bytes produced.
pub fn export(p: &Pipeline) -> usize {
    mapro_core::export::to_p4(p).len() + mapro_core::export::to_openflow(p).len()
}

/// The paper's §2 size metric.
pub fn field_count(p: &Pipeline) -> usize {
    p.field_count()
}

// ---- fd / normalize / sym / lint -------------------------------------

/// Mine one table's dependencies; returns how many were found.
pub fn mine_fds(t: &Table, catalog: &Catalog) -> usize {
    mapro_fd::mine_fds(t, catalog).fds.len()
}

/// Normalize to 3NF with goto joins, verifying every step.
pub fn normalize(p: &Pipeline) -> Normalized {
    mapro_normalize::normalize(
        p,
        &NormalizeOpts {
            join: JoinKind::Goto,
            verify: true,
            ..NormalizeOpts::default()
        },
    )
}

/// The equivalence checker's verdict on `(left, right)`.
pub fn check_equivalent(left: &Pipeline, right: &Pipeline) -> Result<EquivOutcome, String> {
    mapro_sym::check_equivalent(left, right, &EquivConfig::default()).map_err(|e| e.to_string())
}

/// Lint a program; returns `(findings, undecided findings)`.
pub fn lint(p: &Pipeline) -> (usize, usize) {
    let r = mapro_lint::lint(p, &LintConfig::default());
    (r.diagnostics.len(), r.unknown_findings)
}
