//! The cloud access-gateway & load-balancer pipeline (Fig. 1, §2, §5).
//!
//! `N` tenant services, each reachable at a public `(ip_dst, tcp_dst)`
//! pair, each load-balanced across `M` backends by disjoint `ip_src`
//! prefixes. The universal table holds `N·M` rows over
//! `(ip_src, ip_dst, tcp_dst | out)`; the functional dependency
//! `ip_dst → tcp_dst` drives the Fig. 1b–d decompositions. This module
//! also hosts the representation-aware *intent compilers* (§2
//! controllability), counter placement (§2 monitorability) and the §5
//! traffic description (20 random services × 8 backends, 64-byte packets).

use mapro_core::{ActionSem, AttrId, Catalog, Pipeline, RuleUpdate, Table, UpdatePlan, Value};
use mapro_normalize::{split, JoinKind, Split, SplitError, SplitOpts};
use mapro_packet::{FlowSpec, TraceSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One tenant service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Service {
    /// Public IPv4 address.
    pub ip: u32,
    /// Public TCP port.
    pub port: u16,
    /// Backends: `(ip_src prefix, vm name)`, prefixes disjoint and
    /// covering.
    pub backends: Vec<(Value, String)>,
}

/// The generated workload: the universal pipeline plus its blueprint.
#[derive(Debug, Clone)]
pub struct Gwlb {
    /// The universal (single-table) representation.
    pub universal: Pipeline,
    /// The services the table encodes.
    pub services: Vec<Service>,
    /// `ip_src` attribute id.
    pub ip_src: AttrId,
    /// `ip_dst` attribute id.
    pub ip_dst: AttrId,
    /// `tcp_dst` attribute id.
    pub tcp_dst: AttrId,
    /// `out` attribute id.
    pub out: AttrId,
}

/// Split the `ip_src` space into `m` equal disjoint prefixes
/// (`m` must be a power of two).
pub fn even_split(m: usize) -> Vec<Value> {
    assert!(m.is_power_of_two() && m > 0, "m must be a power of two");
    let len = m.trailing_zeros() as u8;
    (0..m as u64)
        .map(|i| {
            let bits = if len == 0 {
                0
            } else {
                i << (32 - u32::from(len))
            };
            Value::prefix(bits, len, 32)
        })
        .collect()
}

/// Split the `ip_src` space into prefixes proportional to `weights`
/// (each weight a power of two, total a power of two) — the 1:1:2 pattern
/// of Fig. 1's tenant 2. Returns one prefix per weight, in input order.
///
/// # Panics
/// Panics if any weight is zero or not a power of two, or the sum is not
/// a power of two (such splits need several prefixes per backend, which a
/// single `ip_src` cell cannot hold).
pub fn weighted_split(weights: &[u64]) -> Vec<Value> {
    assert!(!weights.is_empty());
    let total: u64 = weights.iter().sum();
    assert!(total.is_power_of_two(), "weight sum must be a power of two");
    for &w in weights {
        assert!(
            w > 0 && w.is_power_of_two(),
            "weights must be powers of two"
        );
    }
    let k = total.trailing_zeros(); // the split operates on the top k bits
                                    // Allocate large blocks first so every block lands aligned; remember
                                    // the original positions.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut out = vec![Value::Any; weights.len()];
    let mut addr = 0u64; // in 1/total units of the 32-bit space
    for &i in &order {
        let w = weights[i];
        debug_assert_eq!(addr % w, 0, "alignment invariant");
        let len = (k - w.trailing_zeros()) as u8;
        let bits = if k == 0 {
            0
        } else {
            (addr / w) << (32 - u64::from(len))
        };
        out[i] = Value::prefix(if len == 0 { 0 } else { bits }, len, 32);
        addr += w;
    }
    debug_assert_eq!(addr, total);
    out
}

impl Gwlb {
    /// Build a workload from explicit services.
    pub fn from_services(services: Vec<Service>) -> Gwlb {
        let mut c = Catalog::new();
        let ip_src = c.field("ip_src", 32);
        let ip_dst = c.field("ip_dst", 32);
        let tcp_dst = c.field("tcp_dst", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![ip_src, ip_dst, tcp_dst], vec![out]);
        for s in &services {
            for (pfx, vm) in &s.backends {
                t.row(
                    vec![
                        pfx.clone(),
                        Value::Int(s.ip as u64),
                        Value::Int(s.port as u64),
                    ],
                    vec![Value::sym(vm)],
                );
            }
        }
        Gwlb {
            universal: Pipeline::single(c, t),
            services,
            ip_src,
            ip_dst,
            tcp_dst,
            out,
        }
    }

    /// The exact instance of Fig. 1a: tenant 1 at 192.0.2.1:80 split 1:1,
    /// tenant 2 at 192.0.2.2:443 split 1:1:2, tenant 3 at 192.0.2.3:22
    /// unsplit.
    pub fn fig1() -> Gwlb {
        let ip = |s: &str| mapro_packet::ipv4(s);
        Gwlb::from_services(vec![
            Service {
                ip: ip("192.0.2.1"),
                port: 80,
                backends: vec![
                    (Value::prefix(0, 1, 32), "vm1".into()),
                    (Value::prefix(0x8000_0000, 1, 32), "vm2".into()),
                ],
            },
            Service {
                ip: ip("192.0.2.2"),
                port: 443,
                backends: vec![
                    (Value::prefix(0, 2, 32), "vm3".into()),
                    (Value::prefix(0x4000_0000, 2, 32), "vm4".into()),
                    (Value::prefix(0x8000_0000, 1, 32), "vm5".into()),
                ],
            },
            Service {
                ip: ip("192.0.2.3"),
                port: 22,
                backends: vec![(Value::Any, "vm6".into())],
            },
        ])
    }

    /// The §5 benchmark configuration: `n` random services × `m` backends
    /// (even split; `m` a power of two), deterministic under `seed`.
    pub fn random(n: usize, m: usize, seed: u64) -> Gwlb {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut used_ips = HashSet::new();
        let mut services = Vec::with_capacity(n);
        let mut vm = 0usize;
        for _ in 0..n {
            let ip = loop {
                let cand: u32 = rng.gen();
                if used_ips.insert(cand) {
                    break cand;
                }
            };
            // Random well-known-ish port; collisions across services are
            // realistic (many tenants run HTTPS) and keep tcp_dst from
            // spuriously determining ip_dst.
            let port = *[80u16, 443, 22, 8080, 53]
                .get(rng.gen_range(0..5usize))
                .unwrap();
            let backends = even_split(m)
                .into_iter()
                .map(|pfx| {
                    vm += 1;
                    (pfx, format!("vm{vm}"))
                })
                .collect();
            services.push(Service { ip, port, backends });
        }
        Gwlb::from_services(services)
    }

    /// Like [`Gwlb::random`] but with a shared weighted backend split
    /// (e.g. `&[1, 1, 2]` reproduces Fig. 1's tenant-2 proportions for
    /// every service).
    pub fn random_weighted(n: usize, weights: &[u64], seed: u64) -> Gwlb {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut used_ips = HashSet::new();
        let prefixes = weighted_split(weights);
        let mut services = Vec::with_capacity(n);
        let mut vm = 0usize;
        for _ in 0..n {
            let ip = loop {
                let cand: u32 = rng.gen();
                if used_ips.insert(cand) {
                    break cand;
                }
            };
            let port = *[80u16, 443, 22, 8080, 53]
                .get(rng.gen_range(0..5usize))
                .unwrap();
            let backends = prefixes
                .iter()
                .map(|pfx| {
                    vm += 1;
                    (pfx.clone(), format!("vm{vm}"))
                })
                .collect();
            services.push(Service { ip, port, backends });
        }
        Gwlb::from_services(services)
    }

    /// The *model-level* dependencies of §3: `ip_dst → tcp_dst` (a service
    /// lives at one port — "an intrinsic consequence of the way the access
    /// gateway service is defined"), `(ip_src, ip_dst)` identifies an
    /// entry, and `out` identifies an entry (each VM serves one flow
    /// aggregate). Declared FDs matter because tiny instances (like the
    /// 6-row Fig. 1a) also satisfy *transient* data-level dependencies
    /// (e.g. `tcp_dst → ip_dst`) that "may easily disappear during the
    /// next update" (§3) and would distort the key structure.
    pub fn declared_fds(&self) -> mapro_fd::FdSet {
        let t = self.universal.table("t0").expect("t0 exists");
        let universe = mapro_fd::Universe::new(t.attrs());
        let mut fds = mapro_fd::FdSet::new(universe);
        let all = [self.ip_src, self.ip_dst, self.tcp_dst, self.out];
        fds.add_ids(&[self.ip_dst], &[self.tcp_dst]);
        fds.add_ids(&[self.ip_src, self.ip_dst], &all);
        fds.add_ids(&[self.out], &all);
        fds
    }

    /// Split along `ip_dst → tcp_dst` with the given join — Fig. 1b
    /// (goto), Fig. 1c (metadata) or Fig. 1d (rematch).
    pub fn normalized(&self, join: JoinKind) -> Result<Pipeline, SplitError> {
        let fd = Split::Fd {
            x: vec![self.ip_dst],
            y: vec![self.tcp_dst],
            join,
        };
        split(&self.universal, "t0", &fd, &SplitOpts::default())
    }

    /// §2 controllability: compile "move service `idx` to `new_port`"
    /// against an arbitrary representation of this workload. Touches every
    /// entry that encodes the service's `(ip_dst, tcp_dst)` association —
    /// `M` entries of the universal table, one entry of a normalized form.
    pub fn move_service_port(&self, repr: &Pipeline, idx: usize, new_port: u16) -> UpdatePlan {
        let svc = &self.services[idx];
        let mut updates = Vec::new();
        for t in &repr.tables {
            let (Some((ip_col, true)), Some((port_col, true))) =
                (t.column_of(self.ip_dst), t.column_of(self.tcp_dst))
            else {
                continue; // table doesn't re-encode the association
            };
            let _ = port_col;
            for e in &t.entries {
                if e.matches[ip_col] == Value::Int(svc.ip as u64) {
                    updates.push(RuleUpdate::Modify {
                        table: t.name.clone(),
                        matches: e.matches.clone(),
                        set: vec![(self.tcp_dst, Value::Int(new_port as u64))],
                    });
                }
            }
        }
        UpdatePlan {
            intent: format!("move service {idx} to port {new_port}"),
            updates,
        }
    }

    /// §2 controllability: compile "renumber service `idx` to `new_ip`".
    pub fn change_public_ip(&self, repr: &Pipeline, idx: usize, new_ip: u32) -> UpdatePlan {
        let svc = &self.services[idx];
        let mut updates = Vec::new();
        for t in &repr.tables {
            let Some((ip_col, true)) = t.column_of(self.ip_dst) else {
                continue;
            };
            for e in &t.entries {
                if e.matches[ip_col] == Value::Int(svc.ip as u64) {
                    updates.push(RuleUpdate::Modify {
                        table: t.name.clone(),
                        matches: e.matches.clone(),
                        set: vec![(self.ip_dst, Value::Int(new_ip as u64))],
                    });
                }
            }
        }
        UpdatePlan {
            intent: format!("renumber service {idx}"),
            updates,
        }
    }

    /// Compile "replace service `idx`'s backend split with `new_backends`"
    /// against an arbitrary representation.
    ///
    /// The affected rows are located *representation-independently*: a
    /// probe packet of the service is traced through the pipeline, the
    /// table that matched on `ip_src` is the one carrying the split, and
    /// the matched row's non-`ip_src` cells (the tenant's selector — `(ip,
    /// port)` in the universal table, the metadata tag in Fig. 1c, nothing
    /// in a per-tenant goto table) identify its siblings.
    ///
    /// Note the shape of the result: `M` deletes + `M'` inserts in *every*
    /// representation — unlike the move-port intent, resplitting is
    /// inherently multi-update, so normalization does not buy atomicity
    /// here (a negative result worth stating).
    pub fn reweight_backends(
        &self,
        repr: &Pipeline,
        idx: usize,
        new_backends: &[(Value, String)],
    ) -> UpdatePlan {
        let svc = &self.services[idx];
        // Probe: any source address, the service's (ip, port).
        let mut probe = mapro_core::Packet::zero(&repr.catalog);
        probe.set(self.ip_src, 0);
        probe.set(self.ip_dst, svc.ip as u64);
        probe.set(self.tcp_dst, svc.port as u64);
        let v = repr.run(&probe).expect("probe evaluates");
        let mut updates = Vec::new();
        for (tname, hit) in v.path.iter().zip(&v.hits) {
            let Some(row) = hit else { continue };
            let t = repr.table(tname).expect("visited table exists");
            let Some((src_col, true)) = t.column_of(self.ip_src) else {
                continue;
            };
            // Selector: the matched row's cells in every other match column.
            let selector: Vec<(usize, Value)> = (0..t.match_attrs.len())
                .filter(|&c| c != src_col)
                .map(|c| (c, t.entries[*row].matches[c].clone()))
                .collect();
            for e in &t.entries {
                if selector.iter().all(|(c, v)| &e.matches[*c] == v) {
                    updates.push(RuleUpdate::Delete {
                        table: tname.clone(),
                        matches: e.matches.clone(),
                    });
                }
            }
            for (pfx, vm) in new_backends {
                let mut matches = t.entries[*row].matches.clone();
                matches[src_col] = pfx.clone();
                let mut actions = t.entries[*row].actions.clone();
                // The out column (if this table carries it) gets the VM.
                if let Some((out_col, false)) = t.column_of(self.out) {
                    actions[out_col] = Value::sym(vm);
                }
                updates.push(RuleUpdate::Insert {
                    table: tname.clone(),
                    entry: mapro_core::Entry::new(matches, actions),
                });
            }
            break; // the split lives in exactly one table per path
        }
        UpdatePlan {
            intent: format!("reweight service {idx} to {} backends", new_backends.len()),
            updates,
        }
    }

    /// §2 monitorability: counters capturing *all* of service `idx`'s
    /// traffic, placed in the first table (from the entry point) that
    /// matches `ip_dst` — `M` rules on the universal table, one on a
    /// normalized pipeline's first stage.
    pub fn tenant_counters(&self, repr: &Pipeline, idx: usize) -> Vec<(String, usize)> {
        let svc = &self.services[idx];
        // Walk tables in execution order from the start (start, then
        // breadth over next/goto). The first ip_dst-matching table sees
        // every tenant packet exactly once.
        let mut order: Vec<&Table> = Vec::new();
        if let Some(t) = repr.table(&repr.start) {
            order.push(t);
        }
        for t in &repr.tables {
            if t.name != repr.start {
                order.push(t);
            }
        }
        for t in order {
            let Some((ip_col, true)) = t.column_of(self.ip_dst) else {
                continue;
            };
            let rules: Vec<(String, usize)> = t
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.matches[ip_col] == Value::Int(svc.ip as u64))
                .map(|(row, _)| (t.name.clone(), row))
                .collect();
            if !rules.is_empty() {
                return rules;
            }
        }
        Vec::new()
    }

    /// §2 consistency invariant: every public IP is exposed on at most one
    /// TCP port across all tables that encode the association.
    pub fn one_port_per_ip(&self) -> impl Fn(&Pipeline) -> Result<(), String> + '_ {
        let ip_dst = self.ip_dst;
        let tcp_dst = self.tcp_dst;
        move |p: &Pipeline| {
            let mut seen: std::collections::HashMap<Value, Value> = Default::default();
            for t in &p.tables {
                let (Some((ipc, true)), Some((pc, true))) =
                    (t.column_of(ip_dst), t.column_of(tcp_dst))
                else {
                    continue;
                };
                for e in &t.entries {
                    let ip = e.matches[ipc].clone();
                    let port = e.matches[pc].clone();
                    match seen.get(&ip) {
                        Some(prev) if *prev != port => {
                            return Err(format!("IP {ip} exposed on ports {prev} and {port}"));
                        }
                        _ => {
                            seen.insert(ip, port);
                        }
                    }
                }
            }
            Ok(())
        }
    }

    /// The §5 traffic: one flow per (service, backend) pair, equal weight,
    /// with `ip_src` drawn inside the backend's prefix.
    pub fn trace_spec(&self) -> TraceSpec {
        let mut flows = Vec::new();
        for s in &self.services {
            for (pfx, _) in &s.backends {
                let src = match *pfx {
                    Value::Prefix { bits, .. } => bits | 0x0000_1234,
                    Value::Any => 0x0a00_0042,
                    Value::Int(v) => v,
                    _ => 0,
                };
                flows.push(FlowSpec {
                    fields: vec![
                        (self.ip_src, src),
                        (self.ip_dst, s.ip as u64),
                        (self.tcp_dst, s.port as u64),
                    ],
                    weight: 1,
                });
            }
        }
        TraceSpec::uniform(flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::assert_equivalent;

    #[test]
    fn fig1_field_counts_match_paper() {
        let g = Gwlb::fig1();
        assert_eq!(g.universal.field_count(), 24);
        let goto = g.normalized(JoinKind::Goto).unwrap();
        assert_eq!(goto.field_count(), 21);
    }

    #[test]
    fn all_representations_equivalent() {
        let g = Gwlb::fig1();
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            let n = g.normalized(join).unwrap();
            assert_equivalent(&g.universal, &n);
        }
    }

    #[test]
    fn parametric_size_formulas() {
        // §2: universal 4MN fields; goto form N(3 + 2M).
        let (n, m) = (6, 4);
        let g = Gwlb::random(n, m, 42);
        assert_eq!(g.universal.field_count(), 4 * m * n);
        let goto = g.normalized(JoinKind::Goto).unwrap();
        assert_eq!(goto.field_count(), n * (3 + 2 * m));
    }

    #[test]
    fn move_port_touches_m_vs_1() {
        let g = Gwlb::fig1();
        // Tenant 1 (M=2): universal plan touches 2, goto plan touches 1.
        let uni = g.move_service_port(&g.universal, 0, 443);
        assert_eq!(uni.touched_entries(), 2);
        let goto = g.normalized(JoinKind::Goto).unwrap();
        let norm = g.move_service_port(&goto, 0, 443);
        assert_eq!(norm.touched_entries(), 1);
        // Tenant 3 association is stated thrice in the universal table.
        let uni2 = g.move_service_port(&g.universal, 1, 80);
        assert_eq!(uni2.touched_entries(), 3);
    }

    #[test]
    fn moved_port_plans_converge_semantically() {
        let g = Gwlb::fig1();
        let mut uni = g.universal.clone();
        mapro_core::apply_plan(&mut uni, &g.move_service_port(&g.universal, 0, 443)).unwrap();
        let goto0 = g.normalized(JoinKind::Goto).unwrap();
        let mut goto = goto0.clone();
        mapro_core::apply_plan(&mut goto, &g.move_service_port(&goto0, 0, 443)).unwrap();
        assert_equivalent(&uni, &goto);
    }

    #[test]
    fn halfway_exposed_hazard_only_in_universal() {
        let g = Gwlb::fig1();
        let inv = g.one_port_per_ip();
        // Universal: 2-entry plan has an exposed intermediate state.
        let plan = g.move_service_port(&g.universal, 0, 443);
        let r = mapro_control::exposure(&g.universal, &plan, &&inv).unwrap();
        assert!(!r.safe());
        // Normalized: single entry → no intermediate state.
        let goto = g.normalized(JoinKind::Goto).unwrap();
        let plan = g.move_service_port(&goto, 0, 443);
        let r = mapro_control::exposure(&goto, &plan, &&inv).unwrap();
        assert!(r.safe());
    }

    #[test]
    fn counters_3_vs_1_for_tenant2() {
        let g = Gwlb::fig1();
        // Paper: "installation of 3 counters into the universal table (for
        // entries 3-5)" vs monitoring "at a single point" in T0.
        assert_eq!(g.tenant_counters(&g.universal, 1).len(), 3);
        let goto = g.normalized(JoinKind::Goto).unwrap();
        assert_eq!(g.tenant_counters(&goto, 1).len(), 1);
    }

    #[test]
    fn counters_capture_all_tenant_traffic() {
        let g = Gwlb::fig1();
        let goto = g.normalized(JoinKind::Goto).unwrap();
        let spec = g.trace_spec();
        let trace = mapro_packet::generate(&g.universal.catalog, &spec, 600, 3);
        for (repr, expected_counters) in [(&g.universal, 3), (&goto, 1)] {
            let mut cs = mapro_control::CounterSet::new(g.tenant_counters(repr, 1));
            assert_eq!(cs.counters_needed(), expected_counters);
            let mut tenant_pkts = 0u64;
            for (_, pkt) in &trace.packets {
                let v = repr.run(pkt).unwrap();
                cs.observe(&v);
                if pkt.get(g.ip_dst) == g.services[1].ip as u64 {
                    tenant_pkts += 1;
                }
            }
            assert_eq!(cs.aggregate(), tenant_pkts, "{}", repr.start);
        }
    }

    #[test]
    fn declared_fds_reproduce_paper_classification() {
        // With the model-level dependencies, Fig. 1a is 1NF but not 2NF:
        // keys (ip_src, ip_dst) and (out); tcp_dst non-prime; the partial
        // dependency ip_dst → tcp_dst is the §3 witness.
        let g = Gwlb::fig1();
        let t = g.universal.table("t0").unwrap();
        let r = mapro_fd::analyze_with(t, &g.universal.catalog, g.declared_fds());
        assert_eq!(r.level, mapro_fd::NfLevel::First);
        let u = &r.fds.universe;
        assert_eq!(r.keys, {
            let mut k = vec![u.encode(&[g.ip_src, g.ip_dst]), u.encode(&[g.out])];
            k.sort();
            k
        });
        assert!(r.partial_deps.contains(&mapro_fd::Fd::new(
            u.encode(&[g.ip_dst]),
            u.encode(&[g.tcp_dst])
        )));
    }

    #[test]
    fn mined_fds_on_large_instance_match_declared_keys() {
        // On the §5-sized workload the transient dependencies vanish: the
        // mined keys coincide with the declared ones.
        let g = Gwlb::random(20, 8, 2019);
        let t = g.universal.table("t0").unwrap();
        let r = mapro_fd::analyze(t, &g.universal.catalog);
        assert_eq!(r.level, mapro_fd::NfLevel::First);
        let u = &r.fds.universe;
        assert!(r.keys.contains(&u.encode(&[g.ip_src, g.ip_dst])));
        assert!(r.keys.contains(&u.encode(&[g.out])));
        assert!(r.partial_deps.contains(&mapro_fd::Fd::new(
            u.encode(&[g.ip_dst]),
            u.encode(&[g.tcp_dst])
        )));
    }

    #[test]
    fn random_workload_deterministic_and_well_formed() {
        let a = Gwlb::random(20, 8, 7);
        let b = Gwlb::random(20, 8, 7);
        assert_eq!(a.universal, b.universal);
        assert_eq!(a.universal.table("t0").unwrap().len(), 160);
        // 1NF: unique + order independent.
        let t = a.universal.table("t0").unwrap();
        assert!(t.rows_unique());
        assert!(t.order_independence(&a.universal.catalog).is_empty());
    }

    #[test]
    fn trace_hits_every_backend() {
        let g = Gwlb::fig1();
        let trace = mapro_packet::generate(&g.universal.catalog, &g.trace_spec(), 2000, 9);
        let mut outs = HashSet::new();
        for (_, pkt) in &trace.packets {
            let v = g.universal.run(pkt).unwrap();
            assert!(!v.dropped, "benchmark traffic must hit");
            outs.insert(v.output.unwrap().to_string());
        }
        assert_eq!(outs.len(), 6); // vm1..vm6
    }

    #[test]
    fn even_split_is_disjoint_and_covering() {
        for m in [1usize, 2, 4, 8] {
            let parts = even_split(m);
            assert_eq!(parts.len(), m);
            for probe in [0u64, 1 << 31, u32::MAX as u64, 0x1234_5678] {
                let hits = parts.iter().filter(|p| p.matches(probe, 32)).count();
                assert_eq!(hits, 1, "m={m} probe={probe:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn uneven_split_rejected() {
        even_split(3);
    }

    #[test]
    fn weighted_split_reproduces_fig1_tenant2_proportions() {
        // Canonical layout allocates the /1 block first; the proportions
        // (not the exact addresses) are what Fig. 1's 1:1:2 split fixes.
        let parts = weighted_split(&[1, 1, 2]);
        let lens: Vec<u8> = parts
            .iter()
            .map(|p| match p {
                Value::Prefix { len, .. } => *len,
                _ => panic!("expected prefixes"),
            })
            .collect();
        assert_eq!(lens, vec![2, 2, 1]);
    }

    #[test]
    fn weighted_split_disjoint_covering_and_proportional() {
        for weights in [vec![1u64, 1], vec![1, 1, 2], vec![2, 1, 4, 1], vec![8u64]] {
            let parts = weighted_split(&weights);
            let total: u64 = weights.iter().sum();
            // Probe a grid of source addresses: exactly one prefix matches,
            // and hit counts are proportional to the weights.
            let probes = 1u64 << 12;
            let mut hits = vec![0u64; parts.len()];
            for i in 0..probes {
                let v = i << 20; // spread over the top bits
                let matching: Vec<usize> = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.matches(v, 32))
                    .map(|(j, _)| j)
                    .collect();
                assert_eq!(matching.len(), 1, "weights {weights:?} probe {v:#x}");
                hits[matching[0]] += 1;
            }
            for (j, &w) in weights.iter().enumerate() {
                assert_eq!(hits[j], probes * w / total, "weights {weights:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn weighted_split_rejects_non_power_weights() {
        weighted_split(&[3, 1]);
    }

    #[test]
    fn reweight_backends_works_in_every_representation() {
        let g = Gwlb::fig1();
        let new_split: Vec<(Value, String)> = even_split(4)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, format!("nvm{i}")))
            .collect();
        // Expected post-state: rebuild the workload with tenant 1 resplit.
        let mut services = g.services.clone();
        services[0].backends = new_split.clone();
        let want = Gwlb::from_services(services);

        for repr in [
            g.universal.clone(),
            g.normalized(JoinKind::Goto).unwrap(),
            g.normalized(JoinKind::Metadata).unwrap(),
            g.normalized(JoinKind::Rematch).unwrap(),
        ] {
            let plan = g.reweight_backends(&repr, 0, &new_split);
            // M deletes + M' inserts, in every representation.
            assert_eq!(plan.touched_entries(), 2 + 4, "{}", repr.start);
            let mut after = repr.clone();
            mapro_core::apply_plan(&mut after, &plan).unwrap();
            mapro_core::assert_equivalent(&want.universal, &after);
        }
    }

    #[test]
    fn reweight_is_multi_update_everywhere_negative_result() {
        // Unlike move-port, the resplit has hazardous intermediate states
        // in the normalized forms too: after the deletes, part of the
        // source space is unserved.
        let g = Gwlb::fig1();
        let goto = g.normalized(JoinKind::Goto).unwrap();
        let new_split: Vec<(Value, String)> = even_split(2)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, format!("nvm{i}")))
            .collect();
        let plan = g.reweight_backends(&goto, 0, &new_split);
        assert!(plan.needs_bundle(), "resplit cannot be a single flow-mod");
        // Intermediate state after the deletes: tenant-1 HTTP traffic drops.
        let mid = mapro_core::apply_prefix(&goto, &plan, 2).unwrap();
        let pkt = mapro_core::Packet::from_fields(
            &goto.catalog,
            &[
                ("ip_src", 7),
                ("ip_dst", mapro_packet::ipv4("192.0.2.1") as u64),
                ("tcp_dst", 80),
            ],
        );
        assert!(
            mid.run(&pkt).unwrap().dropped,
            "halfway state loses traffic"
        );
    }

    #[test]
    fn random_weighted_workload_equivalent_across_joins() {
        let g = Gwlb::random_weighted(4, &[1, 1, 2], 9);
        assert_eq!(g.universal.table("t0").unwrap().len(), 12);
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            let p = g.normalized(join).unwrap();
            assert_equivalent(&g.universal, &p);
        }
    }
}
