//! Deterministic lookup-cost models.
//!
//! The paper's §5 numbers come from a physical testbed we do not have; the
//! simulators replace it with explicit per-template cost functions. The
//! *mechanisms* are structural (which template a table compiles to, how
//! many tuples a TSS probes, how many stages a packet traverses); the
//! *constants* below are calibrated so that the paper's workload (GWLB,
//! N=20 services × M=8 backends, §5) lands in the right order of magnitude
//! and reproduces the published shape:
//!
//! | switch | universal | goto-normalized | paper (Table 1) |
//! |---|---|---|---|
//! | ESwitch | slow wildcard template | exact + LPM templates | 9.6 → 15.0 Mpps, latency halves |
//! | OVS | megaflow cache hit | megaflow cache hit | 4.7 ≈ 4.8 Mpps |
//! | Lagopus | TSS, constant-ish | TSS, constant-ish | 1.4 ≈ 1.4 Mpps |
//! | NoviFlow | line rate, 1 stage | line rate, +1 stage latency | rate flat, delay 6.4 → 8.4 µs |
//!
//! Absolute agreement with the testbed is explicitly a non-goal
//! (EXPERIMENTS.md reports shape, not numbers).

use crate::cls::{LookupStats, TemplateKind};

/// How an engine chooses the classifier template whose cost a table
/// visit is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplatePolicy {
    /// Pick the cheapest template the table's shape admits (ESwitch).
    Specialize {
        /// Fallback for general-shaped tables.
        generic: TemplateKind,
    },
    /// Use one generic template for every table (Lagopus: TSS).
    Uniform(TemplateKind),
    /// Hardware TCAM everywhere.
    Tcam,
}

/// Per-switch cost parameters (all times in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Fixed per-packet cost (RX/TX, parsing, bookkeeping).
    pub per_packet_ns: f64,
    /// Fixed per-table-visit cost.
    pub(crate) per_table_ns: f64,
    /// Exact-match probe.
    pub(crate) exact_ns: f64,
    /// LPM trie: base plus per-level cost.
    pub(crate) lpm_base_ns: f64,
    /// LPM trie per-level cost (× depth).
    pub(crate) lpm_level_ns: f64,
    /// Linear ternary scan: base plus per-entry cost.
    pub(crate) linear_base_ns: f64,
    /// Linear ternary per-entry cost (× entries; average scan is half, the
    /// constant should fold that in).
    pub(crate) linear_entry_ns: f64,
    /// Tuple-space search per-tuple probe cost.
    pub(crate) tss_tuple_ns: f64,
    /// TCAM lookup (parallel compare).
    pub(crate) tcam_ns: f64,
    /// Multiplier from per-packet service time to measured latency
    /// (queueing/batching scale of the original testbed; purely a
    /// reporting scale, does not affect throughput).
    pub(crate) queue_factor: f64,
}

impl CostParams {
    /// ESwitch-like specializing software datapath.
    pub(crate) fn eswitch() -> CostParams {
        CostParams {
            per_packet_ns: 44.0,
            per_table_ns: 0.0,
            exact_ns: 15.0,
            lpm_base_ns: 6.0,
            lpm_level_ns: 0.25,
            linear_base_ns: 20.0,
            linear_entry_ns: 0.25,
            tss_tuple_ns: 15.0,
            tcam_ns: 10.0,
            queue_factor: 4100.0,
        }
    }

    /// OVS-like datapath (costs apply to its megaflow cache and slow path).
    pub(crate) fn ovs() -> CostParams {
        CostParams {
            per_packet_ns: 175.0,
            per_table_ns: 0.0,
            exact_ns: 15.0,
            lpm_base_ns: 8.0,
            lpm_level_ns: 0.5,
            linear_base_ns: 30.0,
            linear_entry_ns: 2.0,
            tss_tuple_ns: 12.0,
            tcam_ns: 10.0,
            queue_factor: 2000.0,
        }
    }

    /// Lagopus-like datapath: heavy fixed I/O cost, generic TSS tables.
    pub(crate) fn lagopus() -> CostParams {
        CostParams {
            per_packet_ns: 680.0,
            per_table_ns: 5.0,
            exact_ns: 12.0,
            lpm_base_ns: 8.0,
            lpm_level_ns: 0.5,
            linear_base_ns: 30.0,
            linear_entry_ns: 2.0,
            tss_tuple_ns: 10.0,
            tcam_ns: 10.0,
            queue_factor: 1000.0,
        }
    }

    /// Hardware TCAM pipeline (per-packet cost is the line-rate slot; the
    /// pipeline is fully parallel so stages do not reduce throughput).
    pub fn noviflow() -> CostParams {
        CostParams {
            per_packet_ns: 93.2, // 10.73 Mpps line rate
            per_table_ns: 0.0,
            exact_ns: 0.0,
            lpm_base_ns: 0.0,
            lpm_level_ns: 0.0,
            linear_base_ns: 0.0,
            linear_entry_ns: 0.0,
            tss_tuple_ns: 0.0,
            tcam_ns: 0.0,
            queue_factor: 1.0,
        }
    }

    /// Modeled cost of one lookup in a classifier with the given stats.
    pub(crate) fn lookup_ns(&self, s: &LookupStats) -> f64 {
        self.per_table_ns
            + match s.kind {
                TemplateKind::Exact => self.exact_ns,
                TemplateKind::Lpm => self.lpm_base_ns + self.lpm_level_ns * s.depth as f64,
                TemplateKind::Linear => {
                    self.linear_base_ns + self.linear_entry_ns * s.entries as f64
                }
                TemplateKind::Tss => self.tss_tuple_ns * s.tuples as f64,
                TemplateKind::Tcam => self.tcam_ns,
            }
    }
}

/// Hardware pipeline latency model for the NoviFlow simulator: a fixed
/// ingress/egress latency plus a per-stage traversal cost. Matches the
/// paper's 6.4 µs (1 stage) → 8.4 µs (2 stages) observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwLatency {
    /// Fixed portion (µs).
    pub(crate) base_us: f64,
    /// Added per pipeline stage (µs).
    pub(crate) per_stage_us: f64,
}

impl Default for HwLatency {
    fn default() -> Self {
        HwLatency {
            base_us: 4.4,
            per_stage_us: 2.0,
        }
    }
}

/// Control-channel stall model for hardware flow-mods (Fig. 4).
///
/// Each flow-mod stalls the forwarding pipeline briefly; a multi-entry
/// *atomic* update additionally requires a bundle commit whose
/// reconciliation dominates. Kuźniar et al. (ref. 18) measured flow-mod costs
/// in the millisecond range on hardware OpenFlow switches; the bundle
/// figure is calibrated to reproduce the paper's 20× throughput collapse
/// at 100 updates/s × 8 touched entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlStall {
    /// Forwarding stall per individual flow-mod (ns).
    pub(crate) per_flowmod_ns: f64,
    /// Extra stall per atomic bundle spanning more than one entry (ns).
    pub(crate) bundle_ns: f64,
}

impl Default for ControlStall {
    fn default() -> Self {
        ControlStall {
            per_flowmod_ns: 50_000.0, // 50 µs
            bundle_ns: 9_100_000.0,   // 9.1 ms
        }
    }
}

impl ControlStall {
    /// Software datapaths: a flow-mod costs microseconds of classifier
    /// rebuild and there is no TCAM bundle penalty.
    pub(crate) fn software() -> ControlStall {
        ControlStall {
            per_flowmod_ns: 5_000.0,
            bundle_ns: 0.0,
        }
    }
}

/// Everything §5 credits for the difference between two switches: which
/// template a table is charged as, what a lookup costs, whether latency
/// follows a hardware pipeline, and what a flow-mod stalls. The
/// match-action semantics is not on this list — every model runs the one
/// `crate::CompiledEngine`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Short identifier (`eswitch`, `ovs`, …).
    pub name: &'static str,
    /// Template selection.
    pub policy: TemplatePolicy,
    /// Lookup cost constants.
    pub(crate) params: CostParams,
    /// Hardware pipelines forward at the line-rate slot whatever the depth
    /// and report `base + per_stage · lookups` as latency.
    pub(crate) hw_latency: Option<HwLatency>,
    /// What a flow-mod costs the datapath.
    pub(crate) stall: ControlStall,
}

impl ModelSpec {
    /// ESwitch: per-table template specialization.
    pub fn eswitch() -> ModelSpec {
        ModelSpec {
            name: "eswitch",
            policy: TemplatePolicy::Specialize {
                generic: TemplateKind::Linear,
            },
            params: CostParams::eswitch(),
            hw_latency: None,
            stall: ControlStall::software(),
        }
    }

    /// OVS: the policy only prices the slow-path walk behind the
    /// megaflow cache ([`crate::OvsSim`] charges hits itself).
    pub(crate) fn ovs() -> ModelSpec {
        ModelSpec {
            name: "ovs",
            policy: TemplatePolicy::Uniform(TemplateKind::Linear),
            params: CostParams::ovs(),
            hw_latency: None,
            stall: ControlStall::software(),
        }
    }

    /// Lagopus: uniform tuple-space tables under a heavy fixed I/O cost.
    pub fn lagopus() -> ModelSpec {
        ModelSpec {
            name: "lagopus",
            policy: TemplatePolicy::Uniform(TemplateKind::Tss),
            params: CostParams::lagopus(),
            hw_latency: None,
            stall: ControlStall::software(),
        }
    }

    /// NoviFlow: TCAM stages at line rate, per-stage latency, and
    /// millisecond control-channel stalls (Fig. 4).
    pub fn noviflow() -> ModelSpec {
        ModelSpec {
            name: "noviflow",
            policy: TemplatePolicy::Tcam,
            params: CostParams::noviflow(),
            hw_latency: Some(HwLatency::default()),
            stall: ControlStall::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(kind: TemplateKind, entries: usize, tuples: usize, depth: usize) -> LookupStats {
        LookupStats {
            kind,
            entries,
            tuples,
            depth,
            key_cols: 2,
        }
    }

    #[test]
    fn eswitch_wildcard_much_slower_than_specialized() {
        let p = CostParams::eswitch();
        let universal = p.lookup_ns(&stats(TemplateKind::Linear, 160, 1, 160));
        let exact = p.lookup_ns(&stats(TemplateKind::Exact, 20, 1, 1));
        let lpm = p.lookup_ns(&stats(TemplateKind::Lpm, 8, 1, 4));
        assert!(universal > exact + lpm, "{universal} vs {}", exact + lpm);
        // Paper shape: universal ≈ 104 ns/pkt (9.6 Mpps), goto ≈ 67 (15).
        let uni_pkt = p.per_packet_ns + universal;
        let goto_pkt = p.per_packet_ns + exact + lpm;
        let ratio = uni_pkt / goto_pkt;
        assert!((1.3..1.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tss_scales_with_tuples_not_entries() {
        let p = CostParams::lagopus();
        let few = p.lookup_ns(&stats(TemplateKind::Tss, 1000, 2, 1));
        let many = p.lookup_ns(&stats(TemplateKind::Tss, 10, 8, 1));
        assert!(many > few);
    }

    #[test]
    fn tcam_constant() {
        let p = CostParams::noviflow();
        let a = p.lookup_ns(&stats(TemplateKind::Tcam, 10, 1, 1));
        let b = p.lookup_ns(&stats(TemplateKind::Tcam, 100_000, 1, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn hw_latency_matches_paper_shape() {
        let h = HwLatency::default();
        let one = h.base_us + h.per_stage_us;
        let two = h.base_us + 2.0 * h.per_stage_us;
        assert!((one - 6.4).abs() < 1e-9);
        assert!((two - 8.4).abs() < 1e-9);
    }
}
