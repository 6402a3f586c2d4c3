//! The ESwitch, Lagopus and NoviFlow models.
//!
//! Each is the [`CompiledEngine`] under the [`ModelSpec`] that captures
//! what §5 credits for that switch's behaviour:
//!
//! * **ESwitch** — per-table template specialization. The universal GWLB
//!   table (prefix + exact columns together) only fits the slow linear
//!   wildcard template; the goto-decomposed pipeline compiles to an
//!   exact-match stage plus tiny LPM stages, hence the paper's >50%
//!   throughput gain and halved latency.
//! * **Lagopus** — a uniform tuple-space datapath whose per-packet cost is
//!   dominated by fixed I/O overhead: representation-agnostic, low rate.
//! * **NoviFlow** — a TCAM pipeline: line-rate throughput regardless of
//!   representation; latency grows with pipeline depth (the +2 µs/stage of
//!   Table 1); control-plane updates stall the datapath (Fig. 4, modeled
//!   in [`crate::churn`]).

use crate::cls::TemplateKind;
use crate::compile::{CompileError, CompiledEngine, ProcessOut};
use crate::cost::{HwLatency, ModelSpec};
use crate::Switch;
use mapro_core::{Packet, Pipeline};

/// A stateless switch model: the engine plus the model's reporting rule.
pub struct SwitchModel {
    name: &'static str,
    engine: CompiledEngine,
    hw_latency: Option<HwLatency>,
}

impl SwitchModel {
    /// Compile a pipeline under `spec`.
    pub fn new(p: &Pipeline, spec: ModelSpec) -> Result<SwitchModel, CompileError> {
        Ok(SwitchModel {
            name: spec.name,
            engine: CompiledEngine::compile(p, spec.policy, spec.params)?,
            hw_latency: spec.hw_latency,
        })
    }

    /// ESwitch-like specializing software switch.
    pub fn eswitch(p: &Pipeline) -> Result<SwitchModel, CompileError> {
        SwitchModel::new(p, ModelSpec::eswitch())
    }

    /// Lagopus-like uniform-TSS software switch.
    pub fn lagopus(p: &Pipeline) -> Result<SwitchModel, CompileError> {
        SwitchModel::new(p, ModelSpec::lagopus())
    }

    /// NoviFlow-like hardware TCAM pipeline.
    pub fn noviflow(p: &Pipeline) -> Result<SwitchModel, CompileError> {
        SwitchModel::new(p, ModelSpec::noviflow())
    }

    /// The template chosen for each table.
    pub fn templates(&self) -> Vec<(String, TemplateKind)> {
        self.engine.templates()
    }

    /// Line rate in Mpps (the per-packet slot of the cost model).
    pub fn line_rate_mpps(&self) -> f64 {
        1000.0 / self.engine.params().per_packet_ns
    }
}

impl Switch for SwitchModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        let mut out = self.engine.process(pkt);
        if let Some(lat) = self.hw_latency {
            // Hardware pipeline: throughput is the line-rate slot
            // regardless of depth; latency is base + per-stage.
            out.service_ns = self.engine.params().per_packet_ns;
            out.latency_ns = (lat.base_us + lat.per_stage_us * out.lookups as f64) * 1000.0;
        }
        out
    }

    fn queue_factor(&self) -> f64 {
        self.engine.params().queue_factor
    }

    fn stages(&self) -> usize {
        self.engine.stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    /// Universal-vs-goto miniature (3 tenants, 2 backends each).
    fn universal() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let port = c.field("tcp_dst", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst, port], vec![out]);
        for tenant in 0..3u64 {
            for b in 0..2u64 {
                let pfx = Value::prefix(b << 31, 1, 32);
                t.row(
                    vec![pfx, Value::Int(tenant), Value::Int(80)],
                    vec![Value::sym(format!("vm{}", tenant * 2 + b))],
                );
            }
        }
        Pipeline::single(c, t)
    }

    fn goto_form() -> Pipeline {
        let p = universal();
        let dst = p.catalog.lookup("ip_dst").unwrap();
        let port = p.catalog.lookup("tcp_dst").unwrap();
        let fd = mapro_normalize::Split::Fd {
            x: vec![dst],
            y: vec![port],
            join: mapro_normalize::JoinKind::Goto,
        };
        mapro_normalize::split(&p, "t0", &fd, &Default::default()).unwrap()
    }

    #[test]
    fn eswitch_specializes_decomposed_pipeline() {
        let sim = SwitchModel::eswitch(&goto_form()).unwrap();
        let kinds: Vec<_> = sim.templates().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds[0], TemplateKind::Exact); // (ip_dst, tcp_dst) stage
        for k in &kinds[1..] {
            assert_eq!(*k, TemplateKind::Lpm); // per-tenant prefix stages
        }
        let uni = SwitchModel::eswitch(&universal()).unwrap();
        assert_eq!(uni.templates()[0].1, TemplateKind::Linear);
    }

    #[test]
    fn eswitch_goto_form_is_faster() {
        let mut uni = SwitchModel::eswitch(&universal()).unwrap();
        let mut dec = SwitchModel::eswitch(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.output, b.output);
        assert!(
            b.service_ns < a.service_ns,
            "{} !< {}",
            b.service_ns,
            a.service_ns
        );
    }

    #[test]
    fn noviflow_line_rate_constant_latency_grows() {
        let mut uni = SwitchModel::noviflow(&universal()).unwrap();
        let mut dec = SwitchModel::noviflow(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.service_ns, b.service_ns); // line rate
        assert!(b.latency_ns > a.latency_ns); // deeper pipeline
        assert!((a.latency_ns - 6400.0).abs() < 1.0);
        assert!((b.latency_ns - 8400.0).abs() < 1.0);
    }

    #[test]
    fn lagopus_agnostic_to_representation() {
        let mut uni = SwitchModel::lagopus(&universal()).unwrap();
        let mut dec = SwitchModel::lagopus(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.output, b.output);
        // Fixed I/O dominates: within 10%.
        let ratio = a.service_ns / b.service_ns;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batch_matches_singles() {
        let p = goto_form();
        let mut sim = SwitchModel::noviflow(&p).unwrap();
        let pkts: Vec<Packet> = (0..10u64)
            .map(|i| {
                Packet::from_fields(
                    &p.catalog,
                    &[("ip_src", i * 977), ("ip_dst", i % 4), ("tcp_dst", 80)],
                )
            })
            .collect();
        let singles: Vec<ProcessOut> = pkts.iter().map(|pk| sim.process(pk)).collect();
        let refs: Vec<&Packet> = pkts.iter().collect();
        let mut batched = Vec::new();
        sim.process_batch(&refs, &mut batched);
        assert_eq!(batched, singles);
    }

    #[test]
    fn sims_agree_on_verdicts() {
        let pu = universal();
        let pg = goto_form();
        let mut sims: Vec<Box<dyn Switch>> = vec![
            Box::new(SwitchModel::eswitch(&pu).unwrap()),
            Box::new(SwitchModel::lagopus(&pu).unwrap()),
            Box::new(SwitchModel::noviflow(&pu).unwrap()),
            Box::new(SwitchModel::eswitch(&pg).unwrap()),
        ];
        for (s, d, pt) in [
            (5u64, 1u64, 80u64),
            (1 << 31, 2, 80),
            (7, 9, 80),
            (7, 1, 22),
        ] {
            let pkt = Packet::from_fields(
                &pu.catalog,
                &[("ip_src", s), ("ip_dst", d), ("tcp_dst", pt)],
            );
            let want = pu.run(&pkt).unwrap();
            for sim in sims.iter_mut() {
                let got = sim.process(&pkt);
                assert_eq!(got.output.as_deref(), want.output.as_deref());
                assert_eq!(got.dropped, want.dropped);
            }
        }
    }
}
