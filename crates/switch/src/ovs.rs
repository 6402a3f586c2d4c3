//! The Open vSwitch model: a slow-path pipeline walk plus a megaflow cache.
//!
//! §5: "the \[OVS\] datapath collapses OpenFlow tables into a single flow
//! cache; in other words, OVS explicitly denormalizes the pipeline prior
//! to encoding it into the datapath" — which is why OVS is agnostic to
//! normalization. We model exactly that: the first packet of a flow walks
//! the full pipeline in the slow path; the walk's *megaflow* (the union of
//! the masks of every field examined along the way, conservative
//! unwildcarding) is installed into a single tuple-space cache; later
//! packets covered by the megaflow hit the cache in one lookup, at a cost
//! independent of how many tables the pipeline has.

use crate::compile::{CompileError, CompiledEngine, ProcessOut};
use crate::cost::ModelSpec;
use crate::megaflow::MegaflowStore;
use crate::Switch;
use mapro_core::value::prefix_mask;
use mapro_core::{AttrId, AttrKind, Packet, Pipeline, Table, Value};

/// The OVS simulator.
pub struct OvsSim {
    /// The slow path.
    engine: CompiledEngine,
    /// Per table (in table order), per engine register, the conservative
    /// mask.
    table_masks: Vec<Vec<u64>>,
    pub(crate) store: MegaflowStore,
    /// Modeled slow-path cost (upcall + pipeline interpretation), ns.
    pub(crate) slow_path_ns: f64,
    /// Miss-path scratch: the packet's registers before the walk.
    key: Vec<u64>,
}

/// Conservative unwildcarding over the registers `regs`: every bit of a
/// header field any entry of `t` examines. Metadata columns are internal,
/// resolved by the walk.
fn table_mask(p: &Pipeline, t: &Table, regs: &[AttrId]) -> Vec<u64> {
    let mut mask = vec![0u64; regs.len()];
    for (col, &attr) in t.match_attrs.iter().enumerate() {
        let a = p.catalog.attr(attr);
        if !matches!(a.kind, AttrKind::Field) {
            continue;
        }
        let r = regs.iter().position(|&x| x == attr);
        let r = r.expect("matched attr has a register");
        for e in &t.entries {
            mask[r] |= cell_mask(&e.matches[col], a.width);
        }
    }
    mask
}

impl OvsSim {
    /// Build the simulator around a pipeline.
    pub fn compile(p: &Pipeline) -> Result<OvsSim, CompileError> {
        let spec = ModelSpec::ovs();
        let engine = CompiledEngine::compile(p, spec.policy, spec.params)?;
        let regs = engine.reg_attrs();
        let table_masks = p.tables.iter().map(|t| table_mask(p, t, regs)).collect();
        Ok(OvsSim {
            store: MegaflowStore::new(regs.len()),
            key: Vec::with_capacity(regs.len()),
            engine,
            table_masks,
            slow_path_ns: 50_000.0,
        })
    }

    /// Bound the cache to `capacity` megaflows (OVS's `flow-limit`;
    /// defaults to the real datapath's 200 000).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.store.capacity = capacity;
    }

    /// Number of distinct megaflow mask tuples.
    pub fn cache_tuples(&self) -> usize {
        self.store.tuples()
    }
}

fn cell_mask(v: &Value, width: u32) -> u64 {
    match *v {
        Value::Int(_) => prefix_mask(width as u8, width),
        Value::Prefix { len, .. } => prefix_mask(len, width),
        Value::Ternary { mask, .. } => mask,
        Value::Any => 0,
        Value::Sym(_) => 0,
    }
}

impl Switch for OvsSim {
    fn name(&self) -> &'static str {
        "ovs"
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        // Fast path: megaflow cache.
        self.engine.load(pkt);
        let regs = self.engine.regs();
        if let Some(hit) = self.store.lookup(regs, self.engine.params()) {
            return hit;
        }
        // Slow path: walk the pipeline, collect the megaflow.
        self.key.clear();
        self.key.extend_from_slice(regs);
        let mut mask = vec![0u64; self.key.len()];
        let table_masks = &self.table_masks;
        let walk = self.engine.walk(|l| {
            for (m, tm) in mask.iter_mut().zip(&table_masks[l.table]) {
                *m |= tm;
            }
        });
        self.store.install(mask, &self.key, &walk);
        let params = self.engine.params();
        let cost =
            self.slow_path_ns + params.per_packet_ns + params.linear_base_ns * walk.lookups as f64;
        ProcessOut {
            service_ns: cost,
            latency_ns: cost,
            slow_path: true,
            ..walk
        }
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
    use mapro_core::{ActionSem, Catalog, Table};

    fn universal() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst], vec![out]);
        for tenant in 0..3u64 {
            for b in 0..2u64 {
                t.row(
                    vec![Value::prefix(b << 31, 1, 32), Value::Int(tenant)],
                    vec![Value::sym(format!("vm{}", tenant * 2 + b))],
                );
            }
        }
        Pipeline::single(c, t)
    }

    /// Goto-chained two-stage equivalent of [`universal`], built by hand
    /// (the two-field table has no FD to decompose along).
    fn decomposed() -> Pipeline {
        let p = universal();
        let mut c = p.catalog.clone();
        let goto = c.action("goto", ActionSem::Goto);
        let dst = c.lookup("ip_dst").unwrap();
        let src = c.lookup("ip_src").unwrap();
        let out = c.lookup("out").unwrap();
        let mut t0 = Table::new("t0", vec![dst], vec![goto]);
        let mut subs = Vec::new();
        for tenant in 0..3u64 {
            t0.row(
                vec![Value::Int(tenant)],
                vec![Value::sym(format!("t{}", tenant + 1))],
            );
            let mut s = Table::new(format!("t{}", tenant + 1), vec![src], vec![out]);
            for b in 0..2u64 {
                s.row(
                    vec![Value::prefix(b << 31, 1, 32)],
                    vec![Value::sym(format!("vm{}", tenant * 2 + b))],
                );
            }
            subs.push(s);
        }
        let mut tables = vec![t0];
        tables.extend(subs);
        Pipeline::new(c, tables, "t0")
    }

    #[test]
    fn first_packet_slow_then_fast() {
        let p = universal();
        let mut sim = OvsSim::compile(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let first = sim.process(&pkt);
        assert!(first.slow_path);
        assert_eq!(first.output.as_deref(), Some("vm2"));
        let second = sim.process(&pkt);
        assert!(!second.slow_path);
        assert_eq!(second.output.as_deref(), Some("vm2"));
        assert!(second.service_ns < first.service_ns);
        assert_eq!(sim.store.len(), 1);
    }

    #[test]
    fn megaflow_covers_the_flow_not_the_packet() {
        let p = universal();
        let mut sim = OvsSim::compile(&p).unwrap();
        let a = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        sim.process(&a);
        // Different ip_src in the same /1 + same dst → same megaflow.
        let b = Packet::from_fields(&p.catalog, &[("ip_src", 1234), ("ip_dst", 1)]);
        let r = sim.process(&b);
        assert!(!r.slow_path, "megaflow should cover the whole /1 flow");
        assert_eq!(r.output.as_deref(), Some("vm2"));
        // Other half of the /1 split → new megaflow.
        let c = Packet::from_fields(&p.catalog, &[("ip_src", 1u64 << 31), ("ip_dst", 1)]);
        let r = sim.process(&c);
        assert!(r.slow_path);
        assert_eq!(r.output.as_deref(), Some("vm3"));
    }

    #[test]
    fn cache_collapses_multi_table_pipeline() {
        let p = decomposed();
        let mut sim = OvsSim::compile(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let first = sim.process(&pkt);
        assert!(first.slow_path);
        assert_eq!(first.lookups, 2); // walked two tables
        let second = sim.process(&pkt);
        assert_eq!(second.lookups, 1); // single cache lookup
        assert_eq!(second.output.as_deref(), Some("vm2"));
    }

    #[test]
    fn fast_path_cost_representation_independent() {
        // Universal vs goto: once the cache is warm, per-packet cost is
        // within a whisker (same mask tuples → same probe count).
        let pu = universal();
        let pd = decomposed();
        let mut su = OvsSim::compile(&pu).unwrap();
        let mut sd = OvsSim::compile(&pd).unwrap();
        for sim in [&mut su, &mut sd] {
            for tenant in 0..3u64 {
                for srcbit in [0u64, 1] {
                    let pkt = Packet::from_fields(
                        &pu.catalog,
                        &[("ip_src", srcbit << 31), ("ip_dst", tenant)],
                    );
                    sim.process(&pkt);
                }
            }
        }
        let pkt = Packet::from_fields(&pu.catalog, &[("ip_src", 9), ("ip_dst", 2)]);
        let a = su.process(&pkt);
        let b = sd.process(&pkt);
        assert!(!a.slow_path && !b.slow_path);
        assert_eq!(a.output, b.output);
        let ratio = a.service_ns / b.service_ns;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn skewed_traffic_keeps_hit_rate_high_under_small_cache() {
        use mapro_packet::{generate, Popularity};
        let g = mapro_workloads::Gwlb::random(32, 4, 3);
        let mut spec = g.trace_spec();
        spec.popularity = Popularity::Zipf(1.6);
        let trace = generate(&g.universal.catalog, &spec, 6_000, 5);
        let mut small = OvsSim::compile(&g.universal).unwrap();
        small.set_cache_capacity(16); // 128 flows total
        let mut upcalls = 0usize;
        for (_, pkt) in &trace.packets {
            if small.process(pkt).slow_path {
                upcalls += 1;
            }
        }
        let hit_rate = 1.0 - upcalls as f64 / trace.len() as f64;
        // Zipf(1.6) concentrates traffic on the top flows: even a 16-entry
        // FIFO cache serves most packets from the fast path.
        assert!(hit_rate > 0.7, "hit rate {hit_rate}");
        // Uniform traffic with the same tiny cache thrashes much more.
        let uniform = generate(&g.universal.catalog, &g.trace_spec(), 6_000, 5);
        let mut sim2 = OvsSim::compile(&g.universal).unwrap();
        sim2.set_cache_capacity(16);
        let mut upcalls2 = 0usize;
        for (_, pkt) in &uniform.packets {
            if sim2.process(pkt).slow_path {
                upcalls2 += 1;
            }
        }
        assert!(upcalls2 > upcalls * 2, "{upcalls2} vs {upcalls}");
    }

    #[test]
    fn dropped_flows_cached_too() {
        let p = universal();
        let mut sim = OvsSim::compile(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 99)]);
        let first = sim.process(&pkt);
        assert!(first.dropped && first.slow_path);
        let second = sim.process(&pkt);
        assert!(second.dropped && !second.slow_path);
    }
}
