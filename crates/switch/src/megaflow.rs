//! Megaflow caching: the tuple-space store shared by both cached switch
//! models, and the cube-keyed cache in front of the engine.
//!
//! A megaflow is a `(mask, masked key)` pair standing for every packet
//! whose key agrees with it under the mask. [`MegaflowStore`] keeps them
//! the way OVS does — one hash map per distinct mask tuple, probed in
//! turn — under a FIFO capacity bound, and is the only implementation of
//! install / probe / evict / invalidate in the crate. Its two users differ
//! in who supplies the mask:
//!
//! * [`crate::OvsSim`] models OVS bottom-up: the slow-path walk unions the
//!   conservative per-table masks of every table it visited;
//! * [`CachedEngine`] derives megaflows top-down from the symbolic
//!   structure we already compute: `mapro_sym::compile` partitions the
//!   input space into disjoint behavior atoms, and the cube of the atom a
//!   packet lands in *is* its megaflow — maximal by construction (the atom
//!   is the whole forwarding equivalence class) and exact (every packet in
//!   the cube provably gets the cached verdict, by the cover's partition
//!   invariant — no conservative unwildcarding needed).
//!
//! `CachedEngine` invalidation is precise rather than flush-the-world: a
//! flow-mod's [`mapro_sym::dirty_region`] describes the input region whose
//! behavior the update can touch (its match row restricted to *stable*
//! coordinates — match fields never targeted by a `SetField`), and only
//! cached entries whose cubes intersect it are dropped. Entries for
//! disjoint regions keep serving packets across the update, which is
//! what keeps churn workloads off the slow path.
//!
//! When the symbolic compiler cannot express the pipeline (goto cycle,
//! blown budget — see [`mapro_sym::Unsupported`]), the cache is disabled
//! and every packet takes the inner engine: slower, never wrong.

use crate::compile::{CompileError, CompiledEngine, ProcessOut, UpdateError};
use crate::cost::{CostParams, ModelSpec};
use crate::Switch;
use mapro_core::{Packet, Pipeline};
use mapro_sym::{BehaviorCover, Cube, FieldSpace, SymConfig};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Default megaflow capacity (OVS's `flow-limit` default). With
/// cube-exact megaflows the working set is the atom count, typically far
/// below this.
pub const DEFAULT_CACHE_CAPACITY: usize = 200_000;

/// Cache-behavior counters, kept locally so reports work with the `obs`
/// feature compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MegaflowStats {
    /// Fast-path hits.
    pub hits: u64,
    /// Slow-path misses (engine walks).
    pub misses: u64,
    /// Entries evicted by the capacity FIFO.
    pub evictions: u64,
    /// Entries dropped by flow-mod invalidation.
    pub invalidations: u64,
}

/// A cached verdict.
struct Megaflow {
    output: Option<Arc<str>>,
    dropped: bool,
}

/// The tuple-space megaflow store.
pub(crate) struct MegaflowStore {
    /// Per mask tuple, masked-key → verdict, in first-install order.
    #[allow(clippy::type_complexity)]
    tuples: Vec<(Vec<u64>, HashMap<Vec<u64>, Megaflow>)>,
    /// Installed (mask, masked key) pairs in insertion order, for FIFO
    /// eviction.
    fifo: VecDeque<(Vec<u64>, Vec<u64>)>,
    /// Entries across all tuples.
    len: usize,
    /// Maximum entries before eviction.
    pub(crate) capacity: usize,
    pub(crate) stats: MegaflowStats,
    probe: Vec<u64>,
}

impl MegaflowStore {
    /// An empty store over `ncols`-wide keys.
    pub(crate) fn new(ncols: usize) -> MegaflowStore {
        MegaflowStore {
            tuples: Vec::new(),
            fifo: VecDeque::new(),
            len: 0,
            capacity: DEFAULT_CACHE_CAPACITY,
            stats: MegaflowStats::default(),
            probe: vec![0; ncols],
        }
    }

    /// Entries installed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Distinct mask tuples (what a hit's probe cost scales with).
    pub(crate) fn tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Tuple-space probe: mask `key` under each installed tuple in turn.
    /// A hit is one lookup whose cost scales with the tuples installed,
    /// whatever the pipeline behind the cache looks like.
    #[inline]
    pub(crate) fn lookup(&mut self, key: &[u64], params: &CostParams) -> Option<ProcessOut> {
        for (mask, map) in &self.tuples {
            for (i, m) in mask.iter().enumerate() {
                self.probe[i] = key[i] & m;
            }
            if let Some(hit) = map.get(self.probe.as_slice()) {
                self.stats.hits += 1;
                let ntuples = self.tuples.len().max(1);
                let cost = params.per_packet_ns + params.tss_tuple_ns * ntuples as f64;
                return Some(ProcessOut {
                    output: hit.output.clone(),
                    dropped: hit.dropped,
                    lookups: 1,
                    service_ns: cost,
                    latency_ns: cost,
                    slow_path: false,
                });
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Install `walk`'s verdict as a megaflow, evicting the oldest entries
    /// first while the store is at capacity (OVS's revalidators use
    /// fancier heuristics; FIFO preserves the property under test —
    /// bounded cache, churn under overload). `masked` must already be
    /// `key & mask`. Returns the number of entries evicted.
    pub(crate) fn install(&mut self, mask: Vec<u64>, masked: Vec<u64>, walk: &ProcessOut) -> u64 {
        let mut evicted = 0;
        while self.len >= self.capacity {
            let Some((emask, ekey)) = self.fifo.pop_front() else {
                break;
            };
            if let Some(i) = self.tuples.iter().position(|(m, _)| *m == emask) {
                let map = &mut self.tuples[i].1;
                if map.remove(&ekey).is_some() {
                    self.len -= 1;
                    evicted += 1;
                }
                if map.is_empty() {
                    self.tuples.remove(i);
                }
            }
        }
        self.stats.evictions += evicted;
        self.fifo.push_back((mask.clone(), masked.clone()));
        let map = match self.tuples.iter().position(|(m, _)| *m == mask) {
            Some(i) => &mut self.tuples[i].1,
            None => {
                self.tuples.push((mask, HashMap::new()));
                &mut self.tuples.last_mut().expect("just pushed").1
            }
        };
        let v = Megaflow {
            output: walk.output.clone(),
            dropped: walk.dropped,
        };
        if map.insert(masked, v).is_none() {
            self.len += 1;
        }
        evicted
    }

    /// Drop every entry whose `(mask, masked key)` fails `keep` (which
    /// must be a pure function of the pair). Returns the number of entries
    /// invalidated.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[u64], &[u64]) -> bool) -> u64 {
        let before = self.len;
        for (mask, map) in &mut self.tuples {
            map.retain(|key, _| keep(mask, key));
        }
        self.len = self.tuples.iter().map(|(_, m)| m.len()).sum();
        let removed = (before - self.len) as u64;
        if removed > 0 {
            self.tuples.retain(|(_, m)| !m.is_empty());
            self.fifo.retain(|(mask, key)| keep(mask, key));
            self.stats.invalidations += removed;
        }
        removed
    }
}

/// Budgets for the cache's behavior-cover compilation: tighter than the
/// equivalence checker's defaults, because a cover too large to build
/// quickly would also be too large to probe profitably — past this size
/// the engine degrades to the (still correct) uncached engine.
fn cache_sym_config() -> SymConfig {
    SymConfig {
        max_atoms: 1 << 16,
        partition_budget: 1 << 16,
        ..SymConfig::default()
    }
}

/// Does the megaflow `(mask, bits)` — a cube in the same column order —
/// share a packet with `cube`? ([`Cube::intersects`] without rebuilding
/// the stored side.)
fn cube_intersects(cube: &Cube, mask: &[u64], bits: &[u64]) -> bool {
    cube.0
        .iter()
        .zip(mask.iter().zip(bits))
        .all(|(t, (m, b))| (t.bits ^ b) & t.mask & m == 0)
}

/// The engine fronted by a cube-keyed megaflow cache.
pub struct CachedEngine {
    inner: CompiledEngine,
    pipeline: Pipeline,
    space: FieldSpace,
    /// `None` ⇒ the symbolic compiler declined the pipeline; the cache is
    /// disabled and every packet takes the inner engine.
    cover: Option<BehaviorCover>,
    /// Atom disjointness guarantees at most one tuple can hit a given key.
    store: MegaflowStore,
    /// Modeled extra cost of a miss (atom search + install), ns. In-process
    /// specialization, not an OVS upcall — orders of magnitude below
    /// `OvsSim::slow_path_ns`.
    pub install_ns: f64,
    key: Vec<u64>,
}

impl CachedEngine {
    /// Build the cached engine: compile the inner engine, then the behavior
    /// cover the cache is keyed on. All four `switch.megaflow.*` counters
    /// are registered here so they appear in metrics dumps even when the
    /// run never exercises them.
    pub fn new(p: &Pipeline, spec: ModelSpec) -> Result<CachedEngine, CompileError> {
        mapro_obs::counter!("switch.megaflow.hits");
        mapro_obs::counter!("switch.megaflow.misses");
        mapro_obs::counter!("switch.megaflow.evictions");
        mapro_obs::counter!("switch.megaflow.invalidations");
        let inner = CompiledEngine::compile(p, spec.policy, spec.params)?;
        let space = FieldSpace::from_pipelines(&[p]);
        let cover = match mapro_sym::compile(p, &space, &cache_sym_config()) {
            Ok(c) => Some(c),
            Err(e) => {
                mapro_obs::counter!("switch.megaflow.disabled").inc();
                let _ = e.label(); // cause is visible via sym.fallback.* too
                None
            }
        };
        let ncols = space.coords.len();
        Ok(CachedEngine {
            inner,
            pipeline: p.clone(),
            space,
            cover,
            store: MegaflowStore::new(ncols),
            install_ns: 500.0,
            key: vec![0; ncols],
        })
    }

    /// The ESwitch-model cached engine.
    pub fn eswitch(p: &Pipeline) -> Result<CachedEngine, CompileError> {
        CachedEngine::new(p, ModelSpec::eswitch())
    }

    /// Cache-behavior counters so far.
    pub fn stats(&self) -> MegaflowStats {
        self.store.stats
    }

    /// Megaflow entries currently installed.
    pub fn cache_entries(&self) -> usize {
        self.store.len()
    }

    /// Bound the cache to `capacity` megaflows (FIFO eviction beyond it).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.store.capacity = capacity;
    }

    /// Whether the cube cache is active (the symbolic compiler accepted
    /// the pipeline).
    pub fn cache_enabled(&self) -> bool {
        self.cover.is_some()
    }

    /// Apply a control-plane flow-mod: recompile the touched table,
    /// incrementally refresh the cover, and invalidate precisely the
    /// cached megaflows whose cubes intersect the update's dirty region.
    ///
    /// The dirty region is *one* cube computation
    /// ([`mapro_control::delta_rows`] → [`mapro_sym::dirty_region`],
    /// against the pre-update pipeline — for Modify, old and new match
    /// rows both contribute when `set` rewrites match cells), shared by
    /// cache invalidation and the incremental cover refresh — the same
    /// cubes the inline verifier rechecks, so churn costs one region
    /// analysis, not three.
    pub fn apply_update(&mut self, update: &mapro_control::RuleUpdate) -> Result<(), UpdateError> {
        let rows = mapro_control::delta_rows(&self.pipeline, update);
        let dirty = self
            .cover
            .is_some()
            .then(|| mapro_sym::dirty_region(&self.pipeline, &self.space, &rows))
            .flatten();

        self.inner.apply_update(&mut self.pipeline, update)?;
        // The space is stable under entry edits (match columns are fixed
        // per table), so cached cubes and new-cover cubes stay comparable.
        // Touched atoms are re-tiled in place where possible; a refresh
        // failure (budget, unsupported construct) falls back to a full
        // recompile, and an unexpressible dirty region flushes the cache.
        self.cover = match (&self.cover, &dirty) {
            (Some(cover), Some(d)) => {
                match mapro_sym::refresh_cover(cover, &self.pipeline, d, &cache_sym_config()) {
                    Ok((next, _fresh)) => Some(next),
                    Err(_) => {
                        mapro_sym::compile(&self.pipeline, &self.space, &cache_sym_config()).ok()
                    }
                }
            }
            _ => mapro_sym::compile(&self.pipeline, &self.space, &cache_sym_config()).ok(),
        };

        let removed = match (&self.cover, &dirty) {
            (Some(_), Some(dirty)) => self
                .store
                .retain(|mask, bits| !dirty.iter().any(|d| cube_intersects(d, mask, bits))),
            // Cache disabled or dirty region unknown: nothing cached can
            // be trusted to survive the update.
            _ => self.store.retain(|_, _| false),
        };
        mapro_obs::counter!("switch.megaflow.invalidations").add(removed);
        Ok(())
    }

    #[inline]
    fn run_one(&mut self, pkt: &Packet) -> ProcessOut {
        let Some(cover) = &self.cover else {
            return self.inner.process(pkt);
        };
        self.space.key_into(pkt, &mut self.key);
        // Fast path: tuple-space probe over the installed mask tuples.
        if let Some(hit) = self.store.lookup(&self.key, self.inner.params()) {
            mapro_obs::counter!("switch.megaflow.hits").inc();
            return hit;
        }
        // Miss: run the engine, install the atom's cube-exact megaflow
        // with the verdict the engine just produced (the cover's partition
        // invariant extends it to the whole cube).
        mapro_obs::counter!("switch.megaflow.misses").inc();
        let mut r = self.inner.process(pkt);
        if let Some(ai) = cover.atom_of(&self.key) {
            // `bits ⊆ mask` per column (the `Tern` invariant), so the
            // cube's bits vector is exactly the masked key of every
            // member packet.
            let cube = &cover.atoms[ai].cube;
            let evicted = self.store.install(
                cube.0.iter().map(|t| t.mask).collect(),
                cube.0.iter().map(|t| t.bits).collect(),
                &r,
            );
            mapro_obs::counter!("switch.megaflow.evictions").add(evicted);
        }
        r.service_ns += self.install_ns;
        r.latency_ns += self.install_ns;
        r.slow_path = true;
        r
    }
}

impl Switch for CachedEngine {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        self.run_one(pkt)
    }

    fn queue_factor(&self) -> f64 {
        self.inner.params().queue_factor
    }

    fn stages(&self) -> usize {
        self.inner.stages()
    }
}

impl fmt::Debug for CachedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedEngine")
            .field("cache_enabled", &self.cache_enabled())
            .field("cache_entries", &self.cache_entries())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OvsSim, SwitchModel};
    use mapro_core::{ActionSem, Catalog, Table, Value};

    /// The OvsSim test pipeline: 3 tenants × 2 backend prefixes.
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

    #[test]
    fn first_packet_misses_then_cube_hits() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        assert!(sim.cache_enabled());
        let a = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let first = sim.process(&a);
        assert!(first.slow_path);
        assert_eq!(first.output.as_deref(), Some("vm2"));
        // The cube covers the whole /1 × tenant region, not just the packet.
        let b = Packet::from_fields(&p.catalog, &[("ip_src", 123_456), ("ip_dst", 1)]);
        let r = sim.process(&b);
        assert!(!r.slow_path, "cube megaflow must cover the atom");
        assert_eq!(r.output.as_deref(), Some("vm2"));
        assert_eq!(sim.stats().hits, 1);
        assert_eq!(sim.stats().misses, 1);
        // Other half of the /1 split is a different atom.
        let c = Packet::from_fields(&p.catalog, &[("ip_src", 1u64 << 31), ("ip_dst", 1)]);
        let r = sim.process(&c);
        assert!(r.slow_path);
        assert_eq!(r.output.as_deref(), Some("vm3"));
    }

    #[test]
    fn verdicts_agree_with_inner_engine_everywhere() {
        let p = universal();
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        let mut plain = SwitchModel::eswitch(&p).unwrap();
        for src in [0u64, 7, 1 << 31, (1 << 31) + 9] {
            for dst in 0..4u64 {
                let pkt = Packet::from_fields(&p.catalog, &[("ip_src", src), ("ip_dst", dst)]);
                // Twice: once cold (miss), once warm (hit).
                for _ in 0..2 {
                    let a = cached.process(&pkt);
                    let b = plain.process(&pkt);
                    assert_eq!(a.output, b.output, "src={src} dst={dst}");
                    assert_eq!(a.dropped, b.dropped, "src={src} dst={dst}");
                }
            }
        }
    }

    #[test]
    fn dropped_atoms_cached_too() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 99)]);
        let first = sim.process(&pkt);
        assert!(first.dropped && first.slow_path);
        let second = sim.process(&pkt);
        assert!(second.dropped && !second.slow_path);
    }

    #[test]
    fn flowmod_invalidates_intersecting_cubes_only() {
        use mapro_control::RuleUpdate;
        let p = universal();
        let out = p.catalog.lookup("out").unwrap();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let hot = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let other = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 2)]);
        assert_eq!(sim.process(&hot).output.as_deref(), Some("vm2"));
        assert_eq!(sim.process(&other).output.as_deref(), Some("vm4"));
        assert!(!sim.process(&hot).slow_path);
        assert!(!sim.process(&other).slow_path);
        // Rewire tenant 1's low half; tenant 2's megaflow must survive.
        sim.apply_update(&RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::prefix(0, 1, 32), Value::Int(1)],
            set: vec![(out, Value::sym("vmX"))],
        })
        .unwrap();
        assert!(sim.stats().invalidations >= 1);
        let r = sim.process(&hot);
        assert!(r.slow_path, "stale megaflow must not serve vm2");
        assert_eq!(r.output.as_deref(), Some("vmX"));
        let r = sim.process(&other);
        assert!(!r.slow_path, "disjoint megaflow survives the flow-mod");
        assert_eq!(r.output.as_deref(), Some("vm4"));
    }

    /// Evictions and invalidations must count exactly the entries that
    /// left the store, for the cube-keyed cache and for OVS alike.
    #[test]
    fn bookkeeping_counts_entries_actually_removed() {
        use mapro_control::RuleUpdate;
        let p = universal();
        let out = p.catalog.lookup("out").unwrap();
        // Six flows, one per (tenant, /1 half): six megaflows in either
        // cache (one atom each; one conservative megaflow each).
        let flows: Vec<Packet> = (0..6u64)
            .map(|i| {
                Packet::from_fields(&p.catalog, &[("ip_src", (i % 2) << 31), ("ip_dst", i / 2)])
            })
            .collect();
        let rewire = RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::prefix(0, 1, 32), Value::Int(1)],
            set: vec![(out, Value::sym("vmX"))],
        };

        let mut cached = CachedEngine::eswitch(&p).unwrap();
        cached.set_cache_capacity(4);
        for (i, pkt) in flows.iter().enumerate() {
            assert!(cached.process(pkt).slow_path);
            assert_eq!(cached.cache_entries(), (i + 1).min(4));
        }
        // Flows 0 and 1 were evicted, 2..6 are resident; the flow-mod's
        // dirty cube intersects flow 2's megaflow only.
        assert_eq!(cached.stats().evictions, 2);
        cached.apply_update(&rewire).unwrap();
        assert_eq!(cached.stats().invalidations, 1);
        assert_eq!(cached.cache_entries(), 3);
        assert!(!cached.process(&flows[3]).slow_path);
        let r = cached.process(&flows[2]);
        assert!(r.slow_path);
        assert_eq!(r.output.as_deref(), Some("vmX"));
        // Back at capacity: the next install evicts the oldest survivor.
        assert!(cached.process(&flows[0]).slow_path);
        assert_eq!((cached.cache_entries(), cached.stats().evictions), (4, 3));
        assert!(cached.process(&flows[3]).slow_path, "flow 3 was the oldest");
        let s = cached.stats();
        assert_eq!(
            s.misses - s.evictions - s.invalidations,
            cached.cache_entries() as u64,
            "every miss installed one entry; every entry gone is accounted for"
        );

        let mut ovs = OvsSim::compile(&p).unwrap();
        ovs.set_cache_capacity(4);
        for pkt in &flows {
            assert!(ovs.process(pkt).slow_path);
        }
        assert_eq!((ovs.cache_entries(), ovs.stats().evictions), (4, 2));
        // FIFO: the newest flow still hits; the first was evicted, and
        // re-installing it evicts the oldest survivor.
        assert!(!ovs.process(&flows[5]).slow_path);
        assert!(ovs.process(&flows[0]).slow_path);
        assert!(ovs.process(&flows[2]).slow_path);
        assert_eq!((ovs.cache_entries(), ovs.stats().evictions), (4, 4));
        // OVS revalidation is a full flush: all four resident entries.
        ovs.apply_update(&rewire).unwrap();
        assert_eq!((ovs.cache_entries(), ovs.stats().invalidations), (0, 4));
        assert_eq!(ovs.process(&flows[2]).output.as_deref(), Some("vmX"));
        let s = ovs.stats();
        assert_eq!((s.hits, s.misses), (1, 9));
        assert_eq!(
            s.misses - s.evictions - s.invalidations,
            ovs.cache_entries() as u64
        );
    }

    #[test]
    fn unsupported_pipeline_disables_cache_but_stays_correct() {
        // A goto cycle: sym declines, the engine's cycle guard kicks
        // in, and cached must agree with compiled.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        assert!(!cached.cache_enabled());
        let mut plain = SwitchModel::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        assert_eq!(cached.process(&pkt), plain.process(&pkt));
        assert_eq!(cached.cache_entries(), 0);
    }

    #[test]
    fn hit_cost_cheaper_than_miss_cost() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let miss = sim.process(&pkt);
        let hit = sim.process(&pkt);
        assert!(hit.service_ns < miss.service_ns);
        assert_eq!(hit.lookups, 1);
    }
}
