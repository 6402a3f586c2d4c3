//! Regeneration functions for every table and figure of the paper.
//!
//! Experiment index (mirrors DESIGN.md §3): E1 = Fig. 1, E2 = Fig. 2,
//! E3 = Fig. 3, E4 = Fig. 4, E5 = Table 1, E6 = §2 encoding sizes,
//! E7 = §2 controllability, E8 = §2 monitorability, E9 = Theorem 1,
//! E10 = Fig. 5 / appendix, E11 = §5 ESwitch template mechanism,
//! E12 = OVS cache sensitivity, E13 = flow state explosion,
//! E14 = faults: churn under an unreliable control channel,
//! E16 = static analysis, E17 = symbolic vs enumerative equivalence,
//! E18 = phase attribution from span traces, E21 = decision diagrams at
//! width. E15, E19, E20 and E22 are retired: `crates/e2e` measures what
//! they did, end to end (EXPERIMENTS.md).

use mapro_core::{display, Pipeline};
use mapro_normalize::{split, JoinKind, Split, SplitOpts};
use mapro_packet::generate;
use mapro_switch::{
    churn_sweep, run_modeled, ChurnPoint, ControlStall, HwLatency, ModelSpec, OvsSim, Switch,
    SwitchModel, TemplatePolicy,
};
use mapro_workloads::{Gwlb, Sdx, Vlan, L3};
use serde::Serialize;

/// The §5 benchmark configuration.
#[derive(Debug, Clone, Serialize)]
pub struct BenchConfig {
    /// Number of services (paper: 20).
    pub services: usize,
    /// Backends per service (paper: 8).
    pub backends: usize,
    /// Packets per measured trace.
    pub packets: usize,
    /// RNG seed for workload and traffic.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            services: 20,
            backends: 8,
            packets: 50_000,
            seed: 2019,
        }
    }
}

/// Provenance header embedded in every benchmark artifact, so the
/// regression gate (`scripts/bench_diff.py`) can refuse apples-to-oranges
/// comparisons (different seed, workload shape, or artifact schema)
/// instead of reporting them as regressions.
#[derive(Debug, Clone, Serialize)]
pub struct RunMeta {
    /// Artifact schema version; bump when the report shape changes.
    pub schema: u32,
    /// Experiment id (`faults`, `symscale`, `ddscale`, `phases`, …).
    pub experiment: String,
    /// Workload seed the artifact was produced with.
    pub seed: u64,
    /// Resolved worker-pool size at production time.
    pub threads: usize,
    /// Crate version that produced the artifact.
    pub version: String,
    /// `available_parallelism` of the producing host.
    pub host_cores: usize,
}

impl RunMeta {
    /// Capture the provenance of the current run.
    pub fn new(experiment: &str, seed: u64) -> RunMeta {
        RunMeta {
            schema: 1,
            experiment: experiment.to_owned(),
            seed,
            threads: mapro_par::configured_threads(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

// ---------------------------------------------------------------- E5 ----

/// One row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Switch model.
    pub switch: String,
    /// Representation (`universal` / `goto`).
    pub repr: String,
    /// Modeled packet rate \[Mpps\].
    pub rate_mpps: f64,
    /// 3rd-quartile latency \[µs\].
    pub q3_latency_us: f64,
    /// Per-table templates chosen (ESwitch mechanism evidence).
    pub templates: Vec<String>,
}

/// Regenerate Table 1: static performance of the GWLB pipeline across the
/// four switch models, universal vs goto-normalized.
pub fn table1(cfg: &BenchConfig) -> Vec<Table1Row> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("gwlb decomposes");
    let trace = generate(&g.universal.catalog, &g.trace_spec(), cfg.packets, cfg.seed);

    let mut rows = Vec::new();
    for (repr_name, repr) in [("universal", &g.universal), ("goto", &goto)] {
        // OVS (with a warm-up pass so steady-state cache behaviour shows).
        {
            let mut sim = OvsSim::compile(repr).expect("compiles");
            let _ = run_modeled(&mut sim, &trace); // warm the megaflow cache
            let rep = run_modeled(&mut sim, &trace);
            rows.push(Table1Row {
                switch: "OVS".into(),
                repr: repr_name.into(),
                rate_mpps: rep.mpps,
                q3_latency_us: rep.q3_latency_us(),
                templates: vec![format!("megaflow×{}", sim.cache_tuples())],
            });
        }
        // The three stateless models: one engine, three specs.
        for (label, spec) in [
            ("ESwitch", ModelSpec::eswitch()),
            ("Lagopus", ModelSpec::lagopus()),
            ("NoviFlow", ModelSpec::noviflow()),
        ] {
            let policy = spec.policy;
            let mut sim = SwitchModel::new(repr, spec).expect("compiles");
            let templates = match policy {
                TemplatePolicy::Specialize { .. } => sim
                    .templates()
                    .into_iter()
                    .map(|(n, k)| format!("{n}:{k}"))
                    .collect(),
                TemplatePolicy::Uniform(kind) => vec![kind.to_string()],
                TemplatePolicy::Tcam => vec!["tcam".into()],
            };
            let rep = run_modeled(&mut sim, &trace);
            rows.push(Table1Row {
                switch: label.into(),
                repr: repr_name.into(),
                rate_mpps: rep.mpps,
                q3_latency_us: rep.q3_latency_us(),
                templates,
            });
        }
    }
    rows
}

/// One row of the join-abstraction comparison (E5b, extension).
#[derive(Debug, Clone, Serialize)]
pub struct JoinRow {
    /// Representation (universal or a join kind).
    pub repr: String,
    /// ESwitch-model throughput \[Mpps\].
    pub eswitch_mpps: f64,
    /// Encoding size (§2 fields).
    pub fields: usize,
    /// Templates chosen by the specializing datapath.
    pub templates: Vec<String>,
}

/// Extension experiment E5b: §4 notes the choice of join abstraction is
/// "highly implementation specific". On the specializing datapath the
/// choice is dramatic: the goto join's stages specialize fully, while the
/// metadata join's second stage matches (tag, ip_src) jointly and falls
/// back to the wildcard template — paying almost the universal price.
pub fn table1_joins(cfg: &BenchConfig) -> Vec<JoinRow> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let trace = generate(&g.universal.catalog, &g.trace_spec(), cfg.packets, cfg.seed);
    let mut rows = Vec::new();
    let mut add = |name: &str, p: &Pipeline| {
        let mut sim = SwitchModel::eswitch(p).expect("compiles");
        let templates = sim
            .templates()
            .into_iter()
            .map(|(n, k)| format!("{n}:{k}"))
            .collect();
        let rep = run_modeled(&mut sim, &trace);
        rows.push(JoinRow {
            repr: name.into(),
            eswitch_mpps: rep.mpps,
            fields: p.field_count(),
            templates,
        });
    };
    add("universal", &g.universal);
    for (name, join) in [
        ("goto", JoinKind::Goto),
        ("metadata", JoinKind::Metadata),
        ("rematch", JoinKind::Rematch),
    ] {
        let p = g.normalized(join).expect("decomposes");
        add(name, &p);
    }
    rows
}

// ---------------------------------------------------------------- E4 ----

/// One point of the Fig. 4 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Point {
    /// Control-plane update rate (intents/s).
    pub updates_per_sec: f64,
    /// Universal-table throughput \[Mpps\].
    pub universal_mpps: f64,
    /// Normalized-pipeline throughput \[Mpps\].
    pub normalized_mpps: f64,
    /// Universal 3rd-quartile latency \[µs\].
    pub universal_latency_us: f64,
    /// Normalized 3rd-quartile latency \[µs\].
    pub normalized_latency_us: f64,
}

/// Regenerate Fig. 4: reactiveness on the NoviFlow model. The per-intent
/// flow-mod counts come from the actual intent compiler against each
/// representation (8 entries universal, 1 normalized for M = 8) — the
/// "8× greater control plane churn" of §5.
pub fn fig4(cfg: &BenchConfig, rates: &[f64]) -> Vec<Fig4Point> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let uni_sim = SwitchModel::noviflow(&g.universal).expect("compiles");
    let line = uni_sim.line_rate_mpps();
    // Flow-mods per intent, per representation, from the compiler:
    let uni_plan = g.move_service_port(&g.universal, 0, 9999);
    let norm_plan = g.move_service_port(&goto, 0, 9999);
    let stall = ControlStall::default();
    let lat = HwLatency::default();
    let uni_stage_count = 1usize;
    let norm_stage_count = 2usize;
    let uni = churn_sweep(
        line,
        uni_stage_count,
        uni_plan.touched_entries(),
        true,
        rates,
        stall,
        lat,
    );
    let norm = churn_sweep(
        line,
        norm_stage_count,
        norm_plan.touched_entries(),
        true,
        rates,
        stall,
        lat,
    );
    uni.into_iter()
        .zip(norm)
        .map(
            |((r, u), (_, n)): ((f64, ChurnPoint), (f64, ChurnPoint))| Fig4Point {
                updates_per_sec: r,
                universal_mpps: u.mpps,
                normalized_mpps: n.mpps,
                universal_latency_us: u.latency_us,
                normalized_latency_us: n.latency_us,
            },
        )
        .collect()
}

/// One row of the queueing-level Fig. 4 (E4b, extension).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4QueueRow {
    /// Intents per second.
    pub updates_per_sec: f64,
    /// Representation.
    pub repr: String,
    /// Delivered throughput \[Mpps\].
    pub mpps: f64,
    /// Q3 latency of delivered packets \[µs\].
    pub q3_latency_us: f64,
    /// Worst delivered latency \[µs\].
    pub max_latency_us: f64,
    /// Tail drops.
    pub dropped: usize,
}

/// Extension experiment E4b: Fig. 4 as a queueing system. Poisson intents
/// (compiled by the real intent compiler) stall a line-rate server with a
/// finite ingress buffer; throughput collapse and bounded survivor latency
/// emerge from one mechanism instead of two separate models.
pub fn fig4_queue(cfg: &BenchConfig, rates: &[f64]) -> Vec<Fig4QueueRow> {
    use mapro_switch::{queue_timeline, QueueConfig};
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let uni_mods = g.move_service_port(&g.universal, 0, 9999).touched_entries();
    let norm_mods = g.move_service_port(&goto, 0, 9999).touched_entries();
    let qcfg = QueueConfig {
        offered_pps: 10.0e6,
        duration_sec: 0.5,
        buffer_pkts: 64,
        service_ns: 93.2,
    };
    let stall = ControlStall::default();
    let mut out = Vec::new();
    for &rate in rates {
        for (name, mods) in [("universal", uni_mods), ("goto", norm_mods)] {
            let events: Vec<(f64, usize, bool)> =
                mapro_control::poisson_stream(rate, qcfg.duration_sec, cfg.seed, |_| {
                    mapro_control::UpdatePlan {
                        intent: String::new(),
                        updates: Vec::new(),
                    }
                })
                .into_iter()
                .map(|e| (e.at_sec, mods, true))
                .collect();
            let r = queue_timeline(qcfg, &events, stall);
            out.push(Fig4QueueRow {
                updates_per_sec: rate,
                repr: name.into(),
                mpps: r.mpps,
                q3_latency_us: r.latency_us[2],
                max_latency_us: r.max_latency_us,
                dropped: r.dropped,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- E6 ----

/// One row of the encoding-size comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SizeRow {
    /// Services.
    pub n: usize,
    /// Backends per service.
    pub m: usize,
    /// Universal field count (§2 predicts `4MN`).
    pub universal: usize,
    /// Goto-normalized field count (§2 predicts `N(3+2M)`).
    pub goto: usize,
    /// Metadata-normalized field count.
    pub metadata: usize,
    /// Rematch-normalized field count.
    pub rematch: usize,
    /// The paper's universal formula `4MN`.
    pub formula_universal: usize,
    /// The paper's normalized formula `N(3+2M)`.
    pub formula_goto: usize,
}

/// Regenerate the §2 size claims across an (N, M) sweep.
pub fn encoding_sizes(ns: &[usize], ms: &[usize], seed: u64) -> Vec<SizeRow> {
    let mut out = Vec::new();
    for &n in ns {
        for &m in ms {
            let g = Gwlb::random(n, m, seed);
            let count = |j: JoinKind| g.normalized(j).expect("decomposes").field_count();
            out.push(SizeRow {
                n,
                m,
                universal: g.universal.field_count(),
                goto: count(JoinKind::Goto),
                metadata: count(JoinKind::Metadata),
                rematch: count(JoinKind::Rematch),
                formula_universal: 4 * m * n,
                formula_goto: n * (3 + 2 * m),
            });
        }
    }
    out
}

// ---------------------------------------------------------------- E7 ----

/// One row of the controllability comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ControlRow {
    /// Representation.
    pub repr: String,
    /// Entries touched by "move service port".
    pub move_port_updates: usize,
    /// Entries touched by "renumber public IP".
    pub change_ip_updates: usize,
    /// Intermediate states violating the one-port invariant when the
    /// move-port plan applies non-atomically.
    pub exposed_states: usize,
}

/// Regenerate the §2 controllability / consistency comparison on the
/// Fig. 1 instance (tenant 1).
pub fn controllability(cfg: &BenchConfig) -> Vec<ControlRow> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let inv = g.one_port_per_ip();
    let mut rows = Vec::new();
    let mut add = |name: &str, repr: &Pipeline| {
        let mv = g.move_service_port(repr, 0, 9999);
        let ip = g.change_public_ip(repr, 0, 0x0808_0808);
        let exp = mapro_control::exposure(repr, &mv, &&inv).expect("applies");
        rows.push(ControlRow {
            repr: name.into(),
            move_port_updates: mv.touched_entries(),
            change_ip_updates: ip.touched_entries(),
            exposed_states: exp.violations.len(),
        });
    };
    add("universal", &g.universal);
    for (name, join) in [
        ("goto", JoinKind::Goto),
        ("metadata", JoinKind::Metadata),
        ("rematch", JoinKind::Rematch),
    ] {
        let p = g.normalized(join).expect("decomposes");
        add(name, &p);
    }
    rows
}

// ---------------------------------------------------------------- E8 ----

/// One row of the monitorability comparison.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorRow {
    /// Representation.
    pub repr: String,
    /// Counters needed for one tenant's aggregate.
    pub counters: usize,
    /// Aggregate measured over the trace (must equal the ground truth).
    pub aggregate: u64,
    /// Ground-truth tenant packets in the trace.
    pub ground_truth: u64,
}

/// Regenerate the §2 monitorability comparison (tenant index 1, as in the
/// paper's "monitor the aggregate traffic of tenant 2").
pub fn monitorability(cfg: &BenchConfig) -> Vec<MonitorRow> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let trace = generate(
        &g.universal.catalog,
        &g.trace_spec(),
        cfg.packets.min(20_000),
        cfg.seed,
    );
    let tenant = 1usize;
    let truth: u64 = trace
        .packets
        .iter()
        .filter(|(_, p)| p.get(g.ip_dst) == g.services[tenant].ip as u64)
        .count() as u64;
    let mut rows = Vec::new();
    let mut add = |name: &str, repr: &Pipeline| {
        let mut cs = mapro_control::CounterSet::new(g.tenant_counters(repr, tenant));
        let idx = repr.name_index();
        for (_, pkt) in &trace.packets {
            cs.observe(&repr.run_indexed(pkt, &idx).expect("runs"));
        }
        rows.push(MonitorRow {
            repr: name.into(),
            counters: cs.counters_needed(),
            aggregate: cs.aggregate(),
            ground_truth: truth,
        });
    };
    add("universal", &g.universal);
    for (name, join) in [
        ("goto", JoinKind::Goto),
        ("metadata", JoinKind::Metadata),
        ("rematch", JoinKind::Rematch),
    ] {
        let p = g.normalized(join).expect("decomposes");
        add(name, &p);
    }
    rows
}

// ---------------------------------------------------------------- E9 ----

/// Summary of the Theorem 1 replay.
#[derive(Debug, Clone, Serialize)]
pub struct Theorem1Summary {
    /// Proof lines constructed.
    pub steps: usize,
    /// The axiom citations, in order.
    pub laws: Vec<String>,
    /// Packets evaluated to validate all consecutive line pairs.
    pub packets_checked: usize,
}

/// Replay and verify the Theorem 1 derivation on the Fig. 1 universal
/// table along `ip_dst → tcp_dst`.
pub fn theorem1_replay() -> Theorem1Summary {
    let g = Gwlb::fig1();
    let t = g.universal.table("t0").expect("exists");
    let steps = mapro_netkat::derivation(t, &g.universal.catalog, &[g.ip_dst], &[g.tcp_dst])
        .expect("hypotheses hold on Fig. 1");
    let checked = match mapro_netkat::verify(&steps, &g.universal.catalog) {
        Ok(n) => n,
        Err((i, pk)) => panic!("derivation broke at step {i}: {pk:?}"),
    };
    Theorem1Summary {
        steps: steps.len(),
        laws: steps.iter().map(|s| s.law.to_owned()).collect(),
        packets_checked: checked,
    }
}

// ------------------------------------------------------- E1/E2/E3/E10 ---

/// Render the Fig. 1 pipelines (universal + all three joins) as text.
pub fn fig1_rendering() -> String {
    let g = Gwlb::fig1();
    let mut s = String::new();
    s.push_str("=== Fig. 1a: universal table ===\n");
    s.push_str(&display::render_pipeline(&g.universal));
    for (title, join) in [
        ("Fig. 1b: goto join", JoinKind::Goto),
        ("Fig. 1c: metadata join", JoinKind::Metadata),
        ("Fig. 1d: rematch join", JoinKind::Rematch),
    ] {
        s.push_str(&format!("=== {title} ===\n"));
        s.push_str(&display::render_pipeline(
            &g.normalized(join).expect("decomposes"),
        ));
    }
    s
}

/// Render the Fig. 2 chain: universal → (Cartesian factor) → 3NF.
pub fn fig2_rendering() -> String {
    let l3 = L3::fig2();
    let mut s = String::new();
    s.push_str("=== Fig. 2a: universal L3 table ===\n");
    s.push_str(&display::render_pipeline(&l3.universal));
    let constants = Split::Constant {
        only: Some(vec![l3.eth_type, l3.mod_ttl]),
        placement: mapro_normalize::FactorPlacement::Before,
    };
    let factored =
        split(&l3.universal, "l3", &constants, &SplitOpts::default()).expect("constants factor");
    s.push_str("=== Fig. 2c step 1: Cartesian factor (eth_type | mod_ttl) ===\n");
    s.push_str(&display::render_pipeline(&factored));
    let n = mapro_normalize::normalize(&factored, &mapro_normalize::NormalizeOpts::default());
    s.push_str(&format!(
        "=== Fig. 2c step 2: normalized to {} ({} steps) ===\n",
        mapro_normalize::pipeline_level(&n.pipeline),
        n.steps.len()
    ));
    s.push_str(&display::render_pipeline(&n.pipeline));
    s
}

/// Demonstrate the Fig. 3 rejection.
pub fn fig3_rendering() -> String {
    let v = Vlan::fig3();
    let mut s = String::new();
    s.push_str("=== Fig. 3a: universal VLAN table ===\n");
    s.push_str(&display::render_pipeline(&v.universal));
    let fd = Split::Fd {
        x: vec![v.out],
        y: vec![v.vlan],
        join: JoinKind::Metadata,
    };
    let err = split(&v.universal, "t0", &fd, &SplitOpts::default()).expect_err("must be rejected");
    s.push_str(&format!("Decomposition along out -> vlan REFUSED: {err}\n"));
    s
}

/// Demonstrate the SDX appendix: JD holds, naive chain wrong, tagged
/// pipeline right.
pub fn fig5_rendering() -> String {
    let sdx = Sdx::fig5();
    let mut s = String::new();
    s.push_str("=== Fig. 5a: collapsed SDX table ===\n");
    s.push_str(&display::render_pipeline(&sdx.universal));
    let naive = mapro_normalize::chain_components_naive(&sdx.universal, "sdx", &sdx.components)
        .expect("builds");
    let r =
        mapro_core::check_equivalent(&sdx.universal, &naive, &mapro_core::EquivConfig::default())
            .expect("checks");
    s.push_str(&format!(
        "Naive 3-table chain equivalent? {} (appendix: must be incorrect)\n",
        r.is_equivalent()
    ));
    let jd = Split::Jd(sdx.components.clone());
    let tagged =
        split(&sdx.universal, "sdx", &jd, &SplitOpts::default()).expect("JD decomposition");
    s.push_str("=== Fig. 5c: `all`-metadata pipeline ===\n");
    s.push_str(&display::render_pipeline(&tagged));
    let r =
        mapro_core::check_equivalent(&sdx.universal, &tagged, &mapro_core::EquivConfig::default())
            .expect("checks");
    s.push_str(&format!(
        "Tagged pipeline equivalent? {}\n",
        r.is_equivalent()
    ));
    s
}

// ---------------------------------------------------------------- E11 ---

/// Template-selection evidence for the §5 ESwitch explanation.
#[derive(Debug, Clone, Serialize)]
pub struct TemplateRow {
    /// Representation.
    pub repr: String,
    /// `table: template` pairs.
    pub templates: Vec<String>,
}

/// Show which templates each GWLB representation compiles to on the
/// specializing datapath.
pub fn eswitch_templates(cfg: &BenchConfig) -> Vec<TemplateRow> {
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let mut rows = Vec::new();
    let mut add = |name: &str, p: &Pipeline| {
        let sim = SwitchModel::eswitch(p).expect("compiles");
        rows.push(TemplateRow {
            repr: name.into(),
            templates: sim
                .templates()
                .into_iter()
                .map(|(n, k)| format!("{n}:{k}"))
                .collect(),
        });
    };
    add("universal", &g.universal);
    for (name, join) in [
        ("goto", JoinKind::Goto),
        ("metadata", JoinKind::Metadata),
        ("rematch", JoinKind::Rematch),
    ] {
        add(name, &g.normalized(join).expect("decomposes"));
    }
    rows
}

// ---------------------------------------------------------------- E12 ---

/// One point of the OVS cache-sensitivity sweep (extension experiment).
#[derive(Debug, Clone, Serialize)]
pub struct CacheRow {
    /// Megaflow cache capacity (entries).
    pub capacity: usize,
    /// Zipf exponent of flow popularity (0 = uniform).
    pub zipf: f64,
    /// Fast-path hit rate.
    pub hit_rate: f64,
    /// Modeled throughput \[Mpps\].
    pub mpps: f64,
}

/// Extension experiment E12: how OVS's representation-agnosticism depends
/// on its cache actually holding the working set. Sweeps cache capacity ×
/// traffic skew on the §5 workload; with a thrashing cache the slow path
/// (where the pipeline *is* walked table by table) dominates and the
/// megaflow collapse no longer hides the representation.
pub fn ovs_cache_sensitivity(cfg: &BenchConfig) -> Vec<CacheRow> {
    use mapro_packet::Popularity;
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let mut out = Vec::new();
    for &zipf in &[0.0f64, 1.0, 1.6] {
        for &capacity in &[8usize, 32, 1024] {
            let mut spec = g.trace_spec();
            if zipf > 0.0 {
                spec.popularity = Popularity::Zipf(zipf);
            }
            let trace = generate(
                &g.universal.catalog,
                &spec,
                cfg.packets.min(20_000),
                cfg.seed,
            );
            let mut sim = OvsSim::compile(&g.universal).expect("compiles");
            sim.set_cache_capacity(capacity);
            let rep = run_modeled(&mut sim, &trace);
            out.push(CacheRow {
                capacity,
                zipf,
                hit_rate: 1.0 - rep.slow_path as f64 / rep.packets as f64,
                mpps: rep.mpps,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- E13 ---

/// One point of the scaling sweep (extension experiment).
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Number of services (universal table holds `N × M` entries).
    pub services: usize,
    /// Universal-table throughput on the specializing datapath \[Mpps\].
    pub universal_mpps: f64,
    /// Goto-normalized throughput \[Mpps\].
    pub goto_mpps: f64,
    /// Gain factor.
    pub gain: f64,
}

/// Extension experiment E13: the "flow state explosion" trend. The
/// universal table's wildcard template degrades linearly with `N × M`
/// while the normalized pipeline's exact+LPM stages stay flat — so the §5
/// gain factor *grows* with tenant count, from ~1.2× at 5 services to
/// several-fold at 80.
pub fn scaling(backends: usize, ns: &[usize], packets: usize, seed: u64) -> Vec<ScalingRow> {
    let mut out = Vec::new();
    for &n in ns {
        let g = Gwlb::random(n, backends, seed);
        let goto = g.normalized(JoinKind::Goto).expect("decomposes");
        let trace = generate(&g.universal.catalog, &g.trace_spec(), packets, seed);
        let mut uni = SwitchModel::eswitch(&g.universal).expect("compiles");
        let mut dec = SwitchModel::eswitch(&goto).expect("compiles");
        let u = run_modeled(&mut uni, &trace).mpps;
        let d = run_modeled(&mut dec, &trace).mpps;
        out.push(ScalingRow {
            services: n,
            universal_mpps: u,
            goto_mpps: d,
            gain: d / u,
        });
    }
    out
}

// ---------------------------------------------------------------- E14 ---

/// One cell of the fault-rate × representation sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultRow {
    /// Channel fault probability (`p_drop`; dup/reorder run at half).
    pub fault_rate: f64,
    /// `"universal"` or `"goto"`.
    pub repr: String,
    /// Intents driven through the controller.
    pub intents: usize,
    /// Intents whose delivery errored (repaired by reconciliation).
    pub intent_errors: usize,
    /// Flow-mods delivered to the switch (includes redeliveries).
    pub delivered: u64,
    /// Controller retransmissions.
    pub retries: u64,
    /// Switch restarts injected.
    pub restarts: u64,
    /// Repair flow-mods emitted by reconciliation.
    pub repairs: u64,
    /// True iff the switch converged to the intended pipeline.
    pub reconciled: bool,
    /// Worst reconcile pass, virtual-clock µs.
    pub max_convergence_us: f64,
    /// Cumulative switch control-CPU stall (ms).
    pub stall_ms: f64,
    /// Stall as a fraction of the churn window.
    pub stall_fraction: f64,
    /// Line rate minus the stall fraction \[Mpps\].
    pub goodput_mpps: f64,
}

/// The E14 artifact: fault-sweep rows under a provenance header.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsReport {
    /// Provenance header (seed, threads, version) for the regression gate.
    pub meta: RunMeta,
    /// One row per fault rate × representation.
    pub rows: Vec<FaultRow>,
}

/// [`faults`] wrapped in the artifact header `scripts/bench_diff.py`
/// keys on. The rows are virtual-clock deterministic, so the gate can
/// compare them exactly when the metadata matches.
pub fn faults_report(cfg: &BenchConfig, rates: &[f64]) -> FaultsReport {
    FaultsReport {
        meta: RunMeta::new("faults", cfg.seed),
        rows: faults(cfg, rates),
    }
}

/// Extension experiment E14: update amplification under an unreliable
/// control channel. GWLB under churn (each intent moves one service to a
/// fresh port) driven through a [`FaultyChannel`] at increasing fault
/// rates, universal vs goto-normalized, on the NoviFlow stall model.
///
/// The universal table pays M flow-mods per intent inside a two-phase
/// bundle; the goto form pays one. Every fault that forces a redelivery
/// re-parses the carried flow-mods on the switch's control CPU, so the
/// universal form's stall grows ~M× faster with the fault rate — the
/// Fig. 4 gap widens as the channel degrades. Restarts revert the switch
/// to its last committed bundle and reconciliation repairs the drift.
///
/// [`FaultyChannel`]: mapro_control::FaultyChannel
pub fn faults(cfg: &BenchConfig, rates: &[f64]) -> Vec<FaultRow> {
    use mapro_control::{Controller, DriverConfig, FaultPlan, FaultyChannel};
    use mapro_switch::LiveSwitch;

    const INTENTS: usize = 40;
    // Modeled churn window: 10 intents/s, as in the Fig. 4 sweep.
    const WINDOW_NS: f64 = INTENTS as f64 / 10.0 * 1e9;
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let line_mpps = 1e3 / mapro_switch::CostParams::noviflow().per_packet_ns;

    let mut out = Vec::new();
    for &rate in rates {
        for (name, repr) in [("universal", &g.universal), ("goto", &goto)] {
            let seed = cfg.seed ^ rate.to_bits().rotate_left(17) ^ name.len() as u64;
            let plan = FaultPlan {
                p_drop: rate,
                p_dup: rate / 2.0,
                p_reorder: rate / 2.0,
                restart_every: 60,
                latency_ns: 10_000,
                seed,
            };
            let sw = LiveSwitch::noviflow(repr.clone()).expect("compiles");
            let mut ch = FaultyChannel::new(sw, plan);
            let mut ctl = Controller::new(repr.clone(), DriverConfig::default());
            let mut row = FaultRow {
                fault_rate: rate,
                repr: name.to_owned(),
                intents: INTENTS,
                intent_errors: 0,
                delivered: 0,
                retries: 0,
                restarts: 0,
                repairs: 0,
                reconciled: true,
                max_convergence_us: 0.0,
                stall_ms: 0.0,
                stall_fraction: 0.0,
                goodput_mpps: 0.0,
            };
            for k in 0..INTENTS {
                let intended = ctl.intended().clone();
                let update = g.move_service_port(&intended, k % cfg.services, 10_000 + k as u16);
                if ctl.apply_plan(&mut ch, &update).is_err() {
                    row.intent_errors += 1;
                }
                match ctl.reconcile(&mut ch) {
                    Ok(mapro_control::ReconcileOutcome::Converged(rep)) => {
                        row.max_convergence_us =
                            row.max_convergence_us.max(rep.convergence_ns as f64 / 1e3)
                    }
                    Ok(mapro_control::ReconcileOutcome::Exhausted { .. }) | Err(_) => {
                        row.reconciled = false
                    }
                }
            }
            // A restart can land right after the final verifying read;
            // give reconciliation a last word before judging convergence.
            for _ in 0..3 {
                if ch.endpoint().pipeline() == ctl.intended() {
                    break;
                }
                let _ = ctl.reconcile(&mut ch);
            }
            row.reconciled &= ch.endpoint().pipeline() == ctl.intended();
            row.delivered = ch.stats().delivered;
            row.restarts = ch.stats().restarts;
            row.retries = ctl.stats().retries;
            row.repairs = ctl.stats().repairs;
            let stall_ns = ch.endpoint().total_stall_ns;
            row.stall_ms = stall_ns / 1e6;
            row.stall_fraction = (stall_ns / WINDOW_NS).min(1.0);
            row.goodput_mpps = line_mpps * (1.0 - row.stall_fraction);
            out.push(row);
        }
    }
    out
}

// --------------------------------------------------------------- E16 ----

/// One row of E16: static-analysis findings for a paper workload.
#[derive(Debug, Clone, Serialize)]
pub struct LintRow {
    /// Workload name.
    pub workload: String,
    /// Tables in the pipeline.
    pub tables: usize,
    /// Error-severity findings (must be zero for the paper programs).
    pub errors: usize,
    /// Warn-severity findings.
    pub warns: usize,
    /// Info-severity findings.
    pub infos: usize,
    /// Distinct lint ids reported, sorted.
    pub lints: Vec<String>,
}

/// Run `mapro-lint` over every workload generator and tabulate findings.
///
/// The rows double as an executable claim about the paper programs:
/// nothing in them is provably dead or broken (zero error-severity
/// findings), while the redundancy the paper normalizes away *is*
/// reported — Fig. 3 must surface its action-to-match dependency, Fig. 1
/// its `ip_dst ↔ tcp_dst` redundancy. Violations panic, so
/// `repro -e lint` is self-checking.
pub fn lint_workloads(cfg: &BenchConfig) -> Vec<LintRow> {
    let cases: Vec<(&str, Pipeline)> = vec![
        ("fig1", Gwlb::fig1().universal),
        (
            "gwlb",
            Gwlb::random(cfg.services, cfg.backends, cfg.seed).universal,
        ),
        ("fig2-l3", L3::fig2().universal),
        ("fig3-vlan", Vlan::fig3().universal),
        ("fig5-sdx", Sdx::fig5().universal),
        (
            "enterprise",
            mapro_workloads::Enterprise::random(cfg.services, 4, cfg.seed).pipeline,
        ),
    ];
    let lint_cfg = mapro_lint::LintConfig::default();
    cases
        .into_iter()
        .map(|(name, p)| {
            let r = mapro_lint::lint(&p, &lint_cfg);
            assert_eq!(
                r.count(mapro_lint::Severity::Error),
                0,
                "{name}: paper workload reports error-severity lints:\n{}",
                r.to_text()
            );
            match name {
                "fig3-vlan" => assert!(
                    r.with_lint("action-to-match-dependency").count() > 0,
                    "{name}: Fig. 3 hazard not reported:\n{}",
                    r.to_text()
                ),
                "fig1" => assert!(
                    r.with_lint("bcnf-dependency")
                        .any(|d| d.message.contains("ip_dst")),
                    "{name}: ip_dst redundancy not reported:\n{}",
                    r.to_text()
                ),
                _ => {}
            }
            let mut lints: Vec<String> = r.diagnostics.iter().map(|d| d.lint.clone()).collect();
            lints.sort();
            lints.dedup();
            LintRow {
                workload: name.to_owned(),
                tables: p.tables.len(),
                errors: r.count(mapro_lint::Severity::Error),
                warns: r.count(mapro_lint::Severity::Warn),
                infos: r.count(mapro_lint::Severity::Info),
                lints,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E17 ---

/// One configuration of the symbolic-vs-enumerative sweep (E17, extension).
#[derive(Debug, Clone, Serialize)]
pub struct SymScaleRow {
    /// Workload label.
    pub workload: String,
    /// log2 of the derived Cartesian packet-domain product.
    pub product_log2: f64,
    /// Whether exhaustive enumeration is feasible (product within the
    /// default `max_exhaustive`); when false, enumeration could only
    /// *sample* and the symbolic verdict is the only complete one.
    pub enum_feasible: bool,
    /// Best-of-reps wall clock of the enumerative engine \[ms\]; `None`
    /// when enumeration is infeasible and was not run.
    pub enum_ms: Option<f64>,
    /// Best-of-reps wall clock of the symbolic engine \[ms\].
    pub sym_ms: f64,
    /// `enum_ms / sym_ms` when both ran.
    pub speedup: Option<f64>,
    /// Nodes of the left pipeline's behavior diagram.
    pub dd_nodes_left: usize,
    /// Nodes of the right pipeline's behavior diagram.
    pub dd_nodes_right: usize,
    /// The check's own `packets_checked`: the shared node count of both
    /// diagrams on an equivalent verdict, 0 on a counterexample.
    pub packets_checked: usize,
    /// How the reported verdict was decided (`symbolic` always, here).
    pub method: String,
    /// `equivalent` or `counterexample`.
    pub verdict: String,
    /// Fingerprint of the deterministic parts of the result (node counts,
    /// verdict, counterexample fields) — never timings — so CI can diff it
    /// across thread counts.
    pub digest: String,
}

/// The E17 report.
#[derive(Debug, Clone, Serialize)]
pub struct SymScaleReport {
    /// Provenance header (seed, threads, version) for the regression gate.
    pub meta: RunMeta,
    /// `available_parallelism` of the measuring host.
    pub host_cores: usize,
    /// Workload seed.
    pub seed: u64,
    /// One row per configuration.
    pub rows: Vec<SymScaleRow>,
}

/// The E17/E18 `wide{f}` workload: `nrows` disjoint exact rows over
/// `fields` 16-bit fields, paired with the same rows in reverse priority
/// order. Every field sees `nrows` distinct values, so the derived
/// enumeration domain grows as `(2·nrows)^fields` while the behavior
/// covers stay near-linear in `nrows·fields` — at 4 fields the product
/// is large-but-feasible (the enumerative engine pays it in full), at 8
/// it passes 2^40 and only the symbolic engine can still prove
/// equivalence.
pub fn wide_pair(fields: usize, nrows: u64, seed: u64) -> (Pipeline, Pipeline) {
    use mapro_core::{ActionSem, Catalog, Table, Value};
    let build = |reversed: bool| {
        let mut c = Catalog::new();
        let fs: Vec<_> = (0..fields).map(|i| c.field(format!("w{i}"), 16)).collect();
        let out = c.action("out", ActionSem::Output);
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut rows: Vec<(Vec<Value>, Vec<Value>)> = (0..nrows)
            .map(|r| {
                let m: Vec<Value> = (0..fields).map(|_| Value::Int(rng() & 0xffff)).collect();
                (m, vec![Value::sym(format!("p{r}"))])
            })
            .collect();
        if reversed {
            rows.reverse();
        }
        let mut table = Table::new("wide", fs, vec![out]);
        for (m, a) in rows {
            table.row(m, a);
        }
        Pipeline::single(c, table)
    };
    (build(false), build(true))
}

/// Extension experiment E17: the symbolic (decision-diagram) equivalence
/// engine against the enumerative oracle, across the feasibility boundary.
///
/// Four configurations:
/// * `gwlb` — the E15 equivalence workload (universal vs goto-normalized
///   GWLB), where exhaustive enumeration is feasible: both engines run and
///   the speedup is reported.
/// * `wide4` — 4 × 16-bit fields with disjoint exact rows, reordered: the
///   representative product is ~10^6 (feasible, expensive) while the
///   diagrams stay small — the configuration where the symbolic engine is
///   orders of magnitude faster.
/// * `wide8` — same shape at 8 fields: the derived product exceeds 2^40
///   packets, enumeration can only sample, while the diagram check
///   completes and *proves* equivalence.
/// * `churn` — the `gwlb` pair re-checked after one action edit (the
///   update-churn shape): the engine pinpoints the exact counterexample.
///
/// Timing is best-of-`REPS` after an untimed warmup, like E15. The digest
/// column captures only deterministic results, so runs at different
/// `--threads` must produce byte-identical digests (CI enforces this).
pub fn symscale(cfg: &BenchConfig) -> SymScaleReport {
    use mapro_core::{Domain, EquivConfig, EquivMode, EquivOutcome, Value};
    use mapro_sym::{DdEngine, FieldSpace, SymConfig};
    use std::time::Instant;

    const REPS: usize = 3;
    let enum_cfg = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };
    let scfg = SymConfig::default();

    // `gwlb`: the E15 equivalence pair, and its churn variant with one
    // backend's output port edited (guaranteed counterexample).
    let g = Gwlb::random(cfg.services * 3, cfg.backends * 2, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let mut churned = goto.clone();
    'edit: for t in &mut churned.tables {
        for e in &mut t.entries {
            for v in &mut e.actions {
                if let Value::Sym(s) = v {
                    if s.as_ref().starts_with("vm") {
                        *v = Value::sym("vm-churned");
                        break 'edit;
                    }
                }
            }
        }
    }

    let (w4l, w4r) = wide_pair(4, 12, cfg.seed);
    let (w8l, w8r) = wide_pair(8, 24, cfg.seed);
    let cases: Vec<(&str, Pipeline, Pipeline)> = vec![
        ("gwlb", g.universal.clone(), goto),
        ("wide4", w4l, w4r),
        ("wide8", w8l, w8r),
        ("churn", g.universal.clone(), churned),
    ];

    let mut rows = Vec::new();
    for (name, l, r) in &cases {
        let product = Domain::from_pipelines(&[l, r])
            .map(|d| d.product_size())
            .unwrap_or(u128::MAX);
        let enum_feasible = product <= enum_cfg.max_exhaustive;

        // Untimed warmup.
        let _ = mapro_sym::check_equivalent_with(
            l,
            r,
            &EquivConfig {
                mode: EquivMode::Symbolic,
                ..EquivConfig::default()
            },
            &scfg,
        );

        let mut sym_ms = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            outcome = Some(
                mapro_sym::check_symbolic(l, r, &scfg)
                    .expect("symscale workloads are inside the symbolic fragment"),
            );
            sym_ms = sym_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        let outcome = outcome.expect("REPS >= 1");

        // Each side's diagram on its own, over the joint space.
        let space = FieldSpace::from_pipelines(&[l, r]);
        let nodes = |p: &Pipeline| {
            let mut eng = DdEngine::new(&space, &scfg);
            let root = eng.compile(p, &space, &scfg).expect("compiles");
            eng.mgr.node_count(&[root])
        };
        let (dd_nodes_left, dd_nodes_right) = (nodes(l), nodes(r));

        let (packets_checked, verdict, digest_tail) = match &outcome {
            EquivOutcome::Equivalent {
                packets_checked, ..
            } => (*packets_checked, "equivalent", "eq".to_owned()),
            EquivOutcome::Counterexample(cx) => {
                (0, "counterexample", format!("cx@{:?}", cx.fields))
            }
        };

        let enum_ms = if enum_feasible {
            let _ = mapro_core::check_equivalent(l, r, &enum_cfg); // warmup
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let e =
                    mapro_core::check_equivalent(l, r, &enum_cfg).expect("enumerative oracle runs");
                assert_eq!(
                    e.is_equivalent(),
                    outcome.is_equivalent(),
                    "symscale {name}: engines disagree — differential bug"
                );
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            Some(best)
        } else {
            None
        };

        rows.push(SymScaleRow {
            workload: (*name).to_owned(),
            product_log2: (product as f64).log2(),
            enum_feasible,
            enum_ms,
            sym_ms,
            speedup: enum_ms.map(|e| e / sym_ms),
            dd_nodes_left,
            dd_nodes_right,
            packets_checked,
            method: "symbolic".to_owned(),
            verdict: verdict.to_owned(),
            digest: format!("sym:{dd_nodes_left}:{dd_nodes_right}:{packets_checked}:{digest_tail}"),
        });
    }

    SymScaleReport {
        meta: RunMeta::new("symscale", cfg.seed),
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: cfg.seed,
        rows,
    }
}

// ---------------------------------------------------------------- E18 ---

/// One attributed phase of an E18 workload.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseRow {
    /// Logical span path, e.g. `check.symbolic.symbolic_dd.dd.compile`.
    pub path: String,
    /// Spans recorded at this path.
    pub count: u64,
    /// Summed span durations \[ms\] (across threads — may exceed wall).
    pub total_ms: f64,
    /// Total minus direct children \[ms\] — the phase's own work.
    pub self_ms: f64,
    /// `self_ms` as a fraction of the workload's trace wall clock.
    pub share: f64,
}

/// Phase attribution for one E18 workload.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseWorkload {
    /// Workload label.
    pub workload: String,
    /// Wall clock of the run \[ms\].
    pub wall_ms: f64,
    /// Fraction of the trace wall clock covered by root spans.
    pub coverage: f64,
    /// Events recorded for this workload.
    pub events: usize,
    /// Ring-buffer overflow count (0 unless the run outgrew the buffers).
    pub dropped: u64,
    /// Per-path attribution, sorted by path.
    pub phases: Vec<PhaseRow>,
}

/// The E18 report.
#[derive(Debug, Clone, Serialize)]
pub struct PhasesReport {
    /// Provenance header (seed, threads, version) for the regression gate.
    pub meta: RunMeta,
    /// One entry per traced workload.
    pub workloads: Vec<PhaseWorkload>,
}

/// Extension experiment E18: where does the time go? Runs each
/// instrumented hot path under a span-tracing session and attributes
/// wall clock to logical phases via [`mapro_obs::trace::TraceSummary`].
///
/// Six workloads cover the three instrumented subsystems: the symbolic
/// checker on the GWLB pair and the E17 `wide4`/`wide8` pairs (space vs
/// diagram compile), the enumerative checker on the same GWLB
/// pair (chunked scan), the sharded packet replay (per-shard compile vs
/// eval), and the E14 control driver (txn/bundle/reconcile lifecycle).
///
/// Composes with an ambient `repro --trace` session: when one is already
/// active the workloads are attributed from [`drain`]ed increments and
/// the session is left running (the final trace file still contains
/// everything); otherwise a private session is started and stopped.
///
/// [`drain`]: mapro_obs::trace::drain
pub fn phases(cfg: &BenchConfig) -> PhasesReport {
    use mapro_core::{EquivConfig, EquivMode};
    use mapro_obs::trace;
    use mapro_sym::SymConfig;
    use std::time::Instant;

    let own_session = !trace::active();
    if own_session {
        assert!(
            trace::start(&trace::TraceConfig::default()),
            "phases: a trace session must be startable"
        );
    } else {
        // Ambient `--trace` session: discard spans emitted by earlier
        // experiments so each workload below is attributed in isolation.
        let _ = trace::drain();
    }

    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let (w4l, w4r) = wide_pair(4, 12, cfg.seed);
    let (w8l, w8r) = wide_pair(8, 24, cfg.seed);
    let replay_trace = generate(
        &g.universal.catalog,
        &g.trace_spec(),
        cfg.packets.min(20_000),
        cfg.seed,
    );
    let sym_cfg = EquivConfig {
        mode: EquivMode::Symbolic,
        ..EquivConfig::default()
    };
    let enum_cfg = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };

    let mut workloads = Vec::new();
    let mut run = |name: &str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let data = trace::drain();
        let s = data.summary();
        let trace_wall = s.wall_ns.max(1) as f64;
        workloads.push(PhaseWorkload {
            workload: name.to_owned(),
            wall_ms,
            coverage: s.coverage(),
            events: data.events.len(),
            dropped: s.dropped,
            phases: s
                .phases
                .iter()
                .map(|p| PhaseRow {
                    path: p.path.clone(),
                    count: p.count,
                    total_ms: p.total_ns as f64 / 1e6,
                    self_ms: p.self_ns as f64 / 1e6,
                    share: p.self_ns as f64 / trace_wall,
                })
                .collect(),
        });
    };

    run("check-sym-gwlb", &mut || {
        let _ =
            mapro_sym::check_equivalent_with(&g.universal, &goto, &sym_cfg, &SymConfig::default());
    });
    run("check-sym-wide4", &mut || {
        let _ = mapro_sym::check_equivalent_with(&w4l, &w4r, &sym_cfg, &SymConfig::default());
    });
    run("check-sym-wide8", &mut || {
        let _ = mapro_sym::check_equivalent_with(&w8l, &w8r, &sym_cfg, &SymConfig::default());
    });
    run("check-enum-gwlb", &mut || {
        let _ = mapro_core::check_equivalent(&g.universal, &goto, &enum_cfg);
    });
    run("replay-gwlb", &mut || {
        let _ = mapro_switch::run_modeled_parallel(
            &|| {
                Box::new(OvsSim::compile(&g.universal).expect("compiles")) as Box<dyn Switch + Send>
            },
            &replay_trace,
            4,
        );
    });
    run("control-faults", &mut || {
        let _ = faults(cfg, &[0.2]);
    });

    if own_session {
        let _ = trace::stop();
    }

    PhasesReport {
        meta: RunMeta::new("phases", cfg.seed),
        workloads,
    }
}

// ---------------------------------------------------------------- E21 ---

/// Random entangled entries in the E21 `deep` workload (and the committed
/// `tests/golden/deep_overlap.json` fixture generated from it). The full
/// table is `DEEP_ROWS + 32` covering entries plus the planted wildcard.
pub const DEEP_ROWS: usize = 88;

/// The E21 `deep` workload: `nrows` entangled ternary entries, each with
/// 3–5 care bits scattered across three 8-bit fields, then a block of 32
/// entries enumerating every combination of 5 scattered bits (whose union
/// covers the joint space *by construction*), then a planted all-wildcard
/// entry — provably shadowed, but only by the union of many earlier
/// entries. The plant is re-verified at generation time by exact DD
/// subtraction ([`mapro_sym::TableLiveness`]); generation is
/// deterministic, so a given `(nrows, seed)` always yields the same
/// program.
///
/// The fragmented union is the adversarial shape for cube lists: splitting
/// the wildcard against the random layer fragments it long before the
/// covering block can close any branch — while the hash-consed diagram
/// stays near-linear in the entry count.
pub fn deep_overlap(nrows: usize, seed: u64) -> Pipeline {
    use mapro_core::{ActionSem, Catalog, Table, Value};
    use mapro_sym::{cube::Cube, SymConfig, TableLiveness};
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut c = Catalog::new();
    let fs: Vec<_> = (0..3).map(|i| c.field(format!("d{i}"), 8)).collect();
    let out = c.action("out", ActionSem::Output);
    let mut t = Table::new("deep", fs, vec![out]);
    // A ternary row from per-field (bits, mask) pairs.
    let row_of = |bits: [u64; 3], mask: [u64; 3]| -> Vec<Value> {
        (0..3)
            .map(|f| {
                if mask[f] == 0 {
                    Value::Any
                } else {
                    Value::Ternary {
                        bits: bits[f],
                        mask: mask[f],
                    }
                }
            })
            .collect()
    };
    for r in 0..nrows {
        let k = 3 + rng() % 3;
        let mut mask = [0u64; 3];
        let mut bits = [0u64; 3];
        let mut placed = 0;
        while placed < k {
            let b = rng() % 24;
            let (f, bit) = ((b / 8) as usize, b % 8);
            if mask[f] >> bit & 1 == 0 {
                mask[f] |= 1 << bit;
                if rng() & 1 == 1 {
                    bits[f] |= 1 << bit;
                }
                placed += 1;
            }
        }
        t.row(row_of(bits, mask), vec![Value::sym(format!("p{}", r % 4))]);
    }
    // Covering block: all 2^5 assignments of 5 scattered bits. Union =
    // the whole space, so the wildcard below is dead by construction.
    let mut cover_bits = Vec::new();
    while cover_bits.len() < 5 {
        let b = rng() % 24;
        if !cover_bits.contains(&b) {
            cover_bits.push(b);
        }
    }
    for combo in 0u64..32 {
        let mut mask = [0u64; 3];
        let mut bits = [0u64; 3];
        for (i, &b) in cover_bits.iter().enumerate() {
            let (f, bit) = ((b / 8) as usize, b % 8);
            mask[f] |= 1 << bit;
            if combo >> i & 1 == 1 {
                bits[f] |= 1 << bit;
            }
        }
        t.row(
            row_of(bits, mask),
            vec![Value::sym(format!("p{}", combo % 4))],
        );
    }
    t.row(vec![Value::Any; 3], vec![Value::sym("unreachable")]);
    let p = Pipeline::single(c, t);
    let table = &p.tables[0];
    let widths: Vec<u32> = table
        .match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width)
        .collect();
    let cubes: Vec<Option<Cube>> = table
        .entries
        .iter()
        .map(|e| Cube::of(&e.matches, &widths))
        .collect();
    let lv = TableLiveness::build(&widths, &cubes, SymConfig::default().max_nodes)
        .expect("deep-overlap liveness fits the default arena");
    assert_eq!(
        lv.covered.last(),
        Some(&Some(true)),
        "deep-overlap plant is not covered — covering block broken"
    );
    p
}

/// The deep-overlap equivalence pair: the planted program and the same
/// program with the shadowed wildcard entry removed. They are equivalent
/// *iff* the plant is dead — which generation proved — so the pair turns
/// the lint liveness question into an equivalence question the E21 sweep
/// can time.
pub fn deep_pair(nrows: usize, seed: u64) -> (Pipeline, Pipeline) {
    let left = deep_overlap(nrows, seed);
    let mut right = left.clone();
    right.tables[0].entries.pop();
    (left, right)
}

/// One equivalence row of the E21 report.
#[derive(Debug, Clone, Serialize)]
pub struct DdScaleRow {
    /// Workload label.
    pub workload: String,
    /// log2 of the derived Cartesian packet-domain product.
    pub product_log2: f64,
    /// Total match bits of the joint field space (the DD variable count).
    pub joint_bits: u32,
    /// Live MTBDD nodes reachable from both compiled roots.
    pub dd_nodes: usize,
    /// Best-of-reps wall clock of the full DD check \[ms\].
    pub dd_ms: f64,
    /// `equivalent`, or `cx@` and the counterexample's fields.
    pub verdict: String,
    /// Fingerprint of the deterministic parts (bits, nodes, verdict) —
    /// never timings — for the cross-thread diff.
    pub digest: String,
}

/// One lint row of the E21 report: liveness verdicts per workload.
#[derive(Debug, Clone, Serialize)]
pub struct DdLintRow {
    /// Workload label.
    pub workload: String,
    /// Undecided liveness findings — zero, by construction (asserted in
    /// the experiment).
    pub dd_unknown: usize,
    /// `dead-entry` findings.
    pub dd_dead: usize,
    /// Deterministic fingerprint of the two counts.
    pub digest: String,
}

/// The E21 report.
#[derive(Debug, Clone, Serialize)]
pub struct DdScaleReport {
    /// Provenance header (seed, threads, version) for the regression gate.
    pub meta: RunMeta,
    /// `available_parallelism` of the measuring host.
    pub host_cores: usize,
    /// Workload seed.
    pub seed: u64,
    /// One row per equivalence configuration.
    pub rows: Vec<DdScaleRow>,
    /// One row per lint workload.
    pub lint: Vec<DdLintRow>,
}

/// Extension experiment E21: the hash-consed decision-diagram engine
/// across the width boundary where cube lists stop being a usable
/// representation.
///
/// Equivalence sweep — four pairs:
/// * `wide4` / `wide8` — the E17 wide workloads.
/// * `wide16` — 16 × 16-bit fields, product ≥ 2^64: the acceptance bar
///   (asserted) — a product no enumeration can touch, proven in ms.
/// * `deep` — the [`deep_overlap`] pair: equivalent iff the planted
///   wildcard entry is dead, the shape where cube residue lists fragment.
///
/// Lint sweep — the six paper workloads plus the deep fixture: every
/// liveness verdict must be decided (asserted), and on `deep` the planted
/// entry must be flagged dead.
///
/// Timing is best-of-`REPS` after an untimed warmup. The digest columns
/// capture only deterministic results, so runs at different `--threads`
/// must produce byte-identical digests (CI enforces this).
pub fn ddscale(cfg: &BenchConfig) -> DdScaleReport {
    use mapro_core::{Domain, EquivOutcome};
    use mapro_sym::{BitLayout, DdEngine, FieldSpace, SymConfig};
    use std::time::Instant;

    const REPS: usize = 2;
    let dd_cfg = SymConfig::default();

    let (deep_l, deep_r) = deep_pair(DEEP_ROWS, cfg.seed);
    let (w4l, w4r) = wide_pair(4, 12, cfg.seed);
    let (w8l, w8r) = wide_pair(8, 24, cfg.seed);
    let (w16l, w16r) = wide_pair(16, 40, cfg.seed);
    let cases: Vec<(&str, Pipeline, Pipeline)> = vec![
        ("wide4", w4l, w4r),
        ("wide8", w8l, w8r),
        ("wide16", w16l, w16r),
        ("deep", deep_l.clone(), deep_r),
    ];

    let mut rows = Vec::new();
    for (name, l, r) in &cases {
        let space = FieldSpace::from_pipelines(&[l, r]);
        let joint_bits = BitLayout::of(&space).total_bits();
        let product = Domain::from_pipelines(&[l, r])
            .map(|d| d.product_size())
            .unwrap_or(u128::MAX);

        let mut dd_ms = f64::INFINITY;
        let mut out = None;
        for _ in 0..=REPS {
            // First pass is the untimed warmup.
            let t0 = Instant::now();
            let o = mapro_sym::check_symbolic(l, r, &dd_cfg)
                .expect("the DD engine decides every ddscale workload");
            if out.is_some() {
                dd_ms = dd_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            out = Some(o);
        }
        let verdict = match out.expect("REPS >= 1") {
            EquivOutcome::Equivalent { .. } => "equivalent".to_owned(),
            EquivOutcome::Counterexample(cx) => format!("cx@{:?}", cx.fields),
        };

        // Node count measured on a fresh engine so it is exact regardless
        // of which verdict path the timed check took.
        let mut eng = DdEngine::new(&space, &dd_cfg);
        let lr = eng
            .compile(l, &space, &dd_cfg)
            .expect("left cover compiles on the DD backend");
        let rr = eng
            .compile(r, &space, &dd_cfg)
            .expect("right cover compiles on the DD backend");
        let dd_nodes = eng.mgr.node_count(&[lr, rr]);

        if *name == "wide16" {
            assert!(
                (product as f64).log2() >= 64.0,
                "wide16 product shrank below 2^64"
            );
        }

        rows.push(DdScaleRow {
            workload: (*name).to_owned(),
            product_log2: (product as f64).log2(),
            joint_bits,
            dd_nodes,
            dd_ms,
            digest: format!("dd:{joint_bits}:{dd_nodes}:{verdict}"),
            verdict,
        });
    }

    // Lint sweep: every verdict decided.
    let lint_cases: Vec<(&str, Pipeline)> = vec![
        ("fig1", Gwlb::fig1().universal),
        (
            "gwlb",
            Gwlb::random(cfg.services, cfg.backends, cfg.seed).universal,
        ),
        ("fig2-l3", L3::fig2().universal),
        ("fig3-vlan", Vlan::fig3().universal),
        ("fig5-sdx", Sdx::fig5().universal),
        (
            "enterprise",
            mapro_workloads::Enterprise::random(cfg.services, 4, cfg.seed).pipeline,
        ),
        ("deep", deep_l),
    ];
    let mut lint = Vec::new();
    for (name, p) in &lint_cases {
        let dd = mapro_lint::lint(p, &mapro_lint::LintConfig::default());
        assert_eq!(
            dd.unknown_findings,
            0,
            "{name}: a lint verdict was left undecided:\n{}",
            dd.to_text()
        );
        if *name == "deep" {
            let planted = p.tables[0].entries.len() - 1;
            assert!(
                dd.with_lint("dead-entry").any(|d| d.entry == Some(planted)),
                "deep: the planted dead entry was missed:\n{}",
                dd.to_text()
            );
        }
        let dd_dead = dd.with_lint("dead-entry").count();
        lint.push(DdLintRow {
            workload: (*name).to_owned(),
            dd_unknown: dd.unknown_findings,
            dd_dead,
            digest: format!("lint:{}:{dd_dead}", dd.unknown_findings),
        });
    }

    DdScaleReport {
        meta: RunMeta::new("ddscale", cfg.seed),
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: cfg.seed,
        rows,
        lint,
    }
}
