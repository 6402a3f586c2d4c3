//! Megaflow caching: the tuple-space store shared by both cached switch
//! models, and [`CachedEngine`], the engine behind a cache whose masks are
//! read off the walk.
//!
//! A megaflow is a `(mask, masked key)` pair over the engine's register
//! file, standing for every packet whose initial registers agree with it
//! under the mask. `MegaflowStore` keeps them the way OVS does — one hash
//! map per distinct mask tuple, probed in turn — under a FIFO capacity
//! bound, and is the only implementation of install / probe / evict /
//! invalidate in the crate. Both users build the mask on the miss path,
//! from what the engine's one walk reports about each lookup
//! (`compile::Lookup`); they differ in how much of it they
//! keep:
//!
//! * [`crate::OvsSim`] models OVS's conservative unwildcarding: the union
//!   of every bit any entry of a visited table examines;
//! * [`CachedEngine`] keeps only what pinned the outcome
//!   (`Lookup::pin`).
//!
//! Why a `CachedEngine` hit is the verdict a walk would produce — by
//! induction over the lookups of the walk that installed the megaflow: a
//! packet agreeing with the key on the mask starts every lookup with the
//! same registers as the key wherever the lookup looked (unwritten
//! registers agree on the pinned bits, written ones hold constants stored
//! by entries that, by hypothesis, won for both); so the same row wins (the
//! winner's care bits are pinned, and every higher-priority row still
//! fails on its pinned bit), the same stores run, the same table follows.
//! Megaflows may overlap; every one that covers a packet holds its verdict.
//!
//! Invalidation is precise rather than flush-the-world: a flow-mod's
//! footprint ([`Reach::footprint`]) says which input packets can
//! reach the edited row, and only megaflows sharing a packet with it are
//! dropped. The footprint is the row's cells met with the edited table's
//! *reach cube* — the ternary hull of the rows and `Fall` misses on every
//! path from the start table — both restricted to attributes no table can
//! `SetField`, whose value at every table is the one the packet arrived
//! with. So editing one service's sub-table of a goto-normalized program
//! evicts that service's megaflows, not every megaflow the row's own cells
//! overlap. A hull over unwritten attributes is sound because any packet
//! that reaches the row satisfied, on those attributes, every row it hit on
//! the way; a `Fall` miss passes its table's reach on whole, since the miss
//! region is the complement of the rows, not a cube. The engine keeps its
//! [`Reach`] across flow-mods that cannot move it
//! ([`Pipeline::moves_reach`]). The incremental verifier rechecks by the
//! same footprint.

use crate::compile::{CompileError, CompiledEngine, ProcessOut, UpdateError};
use crate::cost::{CostParams, ModelSpec};
use crate::Switch;
use mapro_core::{AttrId, Packet, Pipeline, Reach};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Default megaflow capacity (OVS's `flow-limit` default).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 200_000;

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

/// Hasher of the per-tuple maps: one rotate-xor-multiply per key word. A
/// hit re-hashes the masked key once per tuple it probes, and walk-derived
/// masks make more tuples than one mask per pipeline, so the probe has to
/// be cheap: under SipHash a `churn_universal` burst cost 1.1–1.2× what it
/// did when one tuple held every megaflow, under this 0.93×.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the bits that pick a bucket.
        self.0 ^ (self.0 >> 32)
    }
}

/// Masked-key → verdict under one mask.
type Tuple = (
    Vec<u64>,
    HashMap<Vec<u64>, Megaflow, BuildHasherDefault<KeyHasher>>,
);

/// The tuple-space megaflow store.
pub(crate) struct MegaflowStore {
    /// Per mask tuple, in first-install order.
    tuples: Vec<Tuple>,
    /// Installed (mask, masked key) pairs in insertion order, for FIFO
    /// eviction.
    fifo: VecDeque<(Vec<u64>, Vec<u64>)>,
    /// Entries across all tuples.
    len: usize,
    /// Maximum entries before eviction; 0 installs nothing.
    pub(crate) capacity: usize,
    pub(crate) stats: MegaflowStats,
    probe: Vec<u64>,
}

/// The first tuple (in install order) with an entry covering `key`.
fn find<'a>(
    tuples: &'a [Tuple],
    key: &[u64],
    probe: &mut [u64],
) -> Option<(&'a [u64], &'a Megaflow)> {
    tuples.iter().find_map(|(mask, map)| {
        for ((p, k), m) in probe.iter_mut().zip(key).zip(mask) {
            *p = k & m;
        }
        map.get(&*probe).map(|hit| (mask.as_slice(), hit))
    })
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
        let Some((_, hit)) = find(&self.tuples, key, &mut self.probe) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let cost = params.per_packet_ns + params.tss_tuple_ns * self.tuples.len() as f64;
        Some(ProcessOut {
            output: hit.output.clone(),
            dropped: hit.dropped,
            lookups: 1,
            service_ns: cost,
            latency_ns: cost,
            slow_path: false,
        })
    }

    /// The mask of the megaflow that would serve `key`, without counting a
    /// probe.
    pub(crate) fn mask_of(&self, key: &[u64]) -> Option<&[u64]> {
        find(&self.tuples, key, &mut vec![0; key.len()]).map(|(mask, _)| mask)
    }

    /// Install `walk`'s verdict as the megaflow `(mask, key & mask)`,
    /// evicting the oldest entries first while the store is at capacity
    /// (OVS's revalidators use fancier heuristics; FIFO preserves the
    /// property under test — bounded cache, churn under overload). Returns
    /// the number of entries evicted.
    pub(crate) fn install(&mut self, mask: Vec<u64>, key: &[u64], walk: &ProcessOut) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
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
        let masked: Vec<u64> = key.iter().zip(&mask).map(|(k, m)| k & m).collect();
        self.fifo.push_back((mask.clone(), masked.clone()));
        let map = match self.tuples.iter().position(|(m, _)| *m == mask) {
            Some(i) => &mut self.tuples[i].1,
            None => {
                self.tuples.push((mask, HashMap::default()));
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

/// The engine fronted by a megaflow cache keyed on its own register file.
pub struct CachedEngine {
    inner: CompiledEngine,
    pipeline: Pipeline,
    /// `pipeline`'s reach cubes: computed at the first flow-mod, and again
    /// only after one that [moves](Pipeline::moves_reach) them.
    reach: Option<Reach>,
    store: MegaflowStore,
    /// Modeled extra cost of a miss (mask derivation + install), ns.
    /// In-process specialization, not an OVS upcall — orders of magnitude
    /// below `OvsSim::slow_path_ns`.
    pub install_ns: f64,
    /// Miss-path scratch: the packet's initial registers (the walk
    /// overwrites the engine's), and which of them the walk has stored to.
    key: Vec<u64>,
    written: Vec<bool>,
}

impl CachedEngine {
    /// Build the cached engine. All four `switch.megaflow.*` counters are
    /// registered here so they appear in metrics dumps even when the run
    /// never exercises them.
    pub(crate) fn new(p: &Pipeline, spec: ModelSpec) -> Result<CachedEngine, CompileError> {
        mapro_obs::counter!("switch.megaflow.hits");
        mapro_obs::counter!("switch.megaflow.misses");
        mapro_obs::counter!("switch.megaflow.evictions");
        mapro_obs::counter!("switch.megaflow.invalidations");
        let inner = CompiledEngine::compile(p, spec.policy, spec.params)?;
        let nregs = inner.reg_attrs().len();
        Ok(CachedEngine {
            inner,
            pipeline: p.clone(),
            reach: None,
            store: MegaflowStore::new(nregs),
            install_ns: 500.0,
            key: Vec::with_capacity(nregs),
            written: vec![false; nregs],
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

    /// Bound the cache to `capacity` megaflows (FIFO eviction beyond it;
    /// 0 caches nothing).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.store.capacity = capacity;
    }

    /// Whether the cache is active. Always: masks come from the walk, and
    /// every pipeline the engine compiles can be walked.
    pub fn cache_enabled(&self) -> bool {
        true
    }

    /// The mask of the resident megaflow that would serve `pkt`, per
    /// matched attribute (exact-hash columns pin whole registers, hence
    /// `u64::MAX`), or `None` if `pkt` would miss. Counts no probe.
    pub fn megaflow_mask(&self, pkt: &Packet) -> Option<Vec<(AttrId, u64)>> {
        let attrs = self.inner.reg_attrs();
        let key: Vec<u64> = attrs.iter().map(|&a| pkt.get(a)).collect();
        let mask = self.store.mask_of(&key)?;
        Some(attrs.iter().copied().zip(mask.iter().copied()).collect())
    }

    /// Apply a control-plane flow-mod: splice the changed row into the
    /// touched table and drop exactly the megaflows that share a packet
    /// with the flow-mod's footprint ([`mapro_core::delta_rows`] →
    /// [`Reach::footprint`]; for a Modify that rewrites match cells, old
    /// and new row both count). The reach cubes are kept across flow-mods
    /// that cannot move them. A refused flow-mod changes neither the
    /// engine nor the cache.
    pub fn apply_update(&mut self, update: &mapro_core::RuleUpdate) -> Result<(), UpdateError> {
        self.inner.apply_update(&mut self.pipeline, update)?;
        if self.pipeline.moves_reach(update.table()) {
            self.reach = None;
        }
        let reach = self.reach.get_or_insert_with(|| self.pipeline.reach());
        let attrs = self.inner.reg_attrs();
        let rows = mapro_core::delta_rows(&self.pipeline, update);
        let dirty: Vec<Vec<(usize, u64, u64)>> = reach
            .footprint(&self.pipeline, &rows)
            .into_iter()
            .flatten()
            .map(|cells| {
                cells
                    .into_iter()
                    .map(|(attr, bits, care)| {
                        let reg = attrs.iter().position(|&a| a == attr);
                        (reg.expect("matched attr has a register"), bits, care)
                    })
                    .collect()
            })
            .collect();
        let removed = self.store.retain(|mask, key| {
            !dirty.iter().any(|row| {
                row.iter()
                    .all(|&(r, bits, care)| (bits ^ key[r]) & care & mask[r] == 0)
            })
        });
        mapro_obs::counter!("switch.megaflow.invalidations").add(removed);
        Ok(())
    }

    /// The miss path, entered with `self.inner`'s registers freshly loaded
    /// and the store's probe already counted as a miss: walk, reading the
    /// megaflow's mask off the lookups, and install it.
    #[cold]
    fn miss(&mut self) -> ProcessOut {
        mapro_obs::counter!("switch.megaflow.misses").inc();
        self.key.clear();
        self.key.extend_from_slice(self.inner.regs());
        self.written.fill(false);
        let mut mask = vec![0; self.key.len()];
        let mut r = self.inner.walk(|l| l.pin(&mut mask, &mut self.written));
        let evicted = self.store.install(mask, &self.key, &r);
        mapro_obs::counter!("switch.megaflow.evictions").add(evicted);
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

    #[inline]
    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        // Fast path: tuple-space probe on the freshly loaded registers.
        self.inner.load(pkt);
        if let Some(hit) = self.store.lookup(self.inner.regs(), self.inner.params()) {
            mapro_obs::counter!("switch.megaflow.hits").inc();
            return hit;
        }
        self.miss()
    }

    /// The hit loop. Guarantee: a hit allocates nothing and touches no
    /// shared counter — its only atomics are the clone (and the caller's
    /// drop) of the verdict's port handle. Hits are counted in a local and
    /// added to `switch.megaflow.hits` before the call returns, so the obs
    /// counters equal [`CachedEngine::stats`] at every call boundary.
    fn process_batch(&mut self, pkts: &[&Packet], out: &mut Vec<ProcessOut>) {
        out.clear();
        out.reserve(pkts.len());
        let mut hits = 0;
        for pkt in pkts {
            self.inner.load(pkt);
            let hit = self.store.lookup(self.inner.regs(), self.inner.params());
            hits += u64::from(hit.is_some());
            out.push(hit.unwrap_or_else(|| self.miss()));
        }
        mapro_obs::counter!("switch.megaflow.hits").add(hits);
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
    fn first_packet_misses_then_megaflow_hits() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let a = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let first = sim.process(&a);
        assert!(first.slow_path);
        assert_eq!(first.output.as_deref(), Some("vm2"));
        // The winner's care bits already tell every other row apart, so
        // the megaflow is the whole /1 × tenant region, not just the packet.
        let src = p.catalog.lookup("ip_src").unwrap();
        let dst = p.catalog.lookup("ip_dst").unwrap();
        assert_eq!(
            sim.megaflow_mask(&a),
            Some(vec![(src, 1 << 31), (dst, 0xffff_ffff)])
        );
        let b = Packet::from_fields(&p.catalog, &[("ip_src", 123_456), ("ip_dst", 1)]);
        let r = sim.process(&b);
        assert!(!r.slow_path, "megaflow must cover the whole region");
        assert_eq!(r.output.as_deref(), Some("vm2"));
        assert_eq!(sim.stats().hits, 1);
        assert_eq!(sim.stats().misses, 1);
        // The other half of the /1 split is another megaflow.
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
    fn dropped_flows_cached_too() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 99)]);
        let first = sim.process(&pkt);
        assert!(first.dropped && first.slow_path);
        let second = sim.process(&pkt);
        assert!(second.dropped && !second.slow_path);
    }

    #[test]
    fn flowmod_invalidates_intersecting_megaflows_only() {
        use mapro_core::RuleUpdate;
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

    /// Goto fan-out: `t0` sends each tenant (`ip_dst`) to its own
    /// sub-table, which splits `ip_src` in halves. Editing one tenant's
    /// row evicts that tenant's megaflow only, though the other tenant's
    /// megaflow overlaps the row's own `ip_src` cell.
    #[test]
    fn sub_table_edit_evicts_only_the_branch_that_reaches_it() {
        use mapro_core::RuleUpdate;
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![dst], vec![goto]);
        let mut tables = Vec::new();
        for tenant in 0..2u64 {
            let name = format!("tenant{tenant}");
            t0.row(vec![Value::Int(tenant)], vec![Value::sym(&name)]);
            let mut t = Table::new(name, vec![src], vec![out]);
            for half in 0..2u64 {
                t.row(
                    vec![Value::prefix(half << 31, 1, 32)],
                    vec![Value::sym(format!("vm{tenant}{half}"))],
                );
            }
            tables.push(t);
        }
        tables.insert(0, t0);
        let p = Pipeline::new(c, tables, "t0");
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkts: Vec<Packet> = (0..2)
            .map(|tenant| Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", tenant)]))
            .collect();
        for pkt in &pkts {
            assert!(sim.process(pkt).slow_path);
        }
        sim.apply_update(&RuleUpdate::Modify {
            table: "tenant0".into(),
            matches: vec![Value::prefix(0, 1, 32)],
            set: vec![(out, Value::sym("vmX"))],
        })
        .unwrap();
        assert_eq!(sim.stats().invalidations, 1);
        assert_eq!(sim.process(&pkts[0]).output.as_deref(), Some("vmX"));
        let r = sim.process(&pkts[1]);
        assert!(!r.slow_path, "the other tenant's megaflow survives");
        assert_eq!(r.output.as_deref(), Some("vm10"));
    }

    /// Evictions and invalidations must count exactly the entries that
    /// left the store, for the walk-masked cache and for OVS alike.
    #[test]
    fn bookkeeping_counts_entries_actually_removed() {
        use mapro_core::RuleUpdate;
        let p = universal();
        let out = p.catalog.lookup("out").unwrap();
        // Six flows, one per (tenant, /1 half): six megaflows in either
        // cache.
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
        // footprint intersects flow 2's megaflow only.
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
        assert_eq!((ovs.store.len(), ovs.store.stats.evictions), (4, 2));
        // FIFO: the newest flow still hits; the first was evicted, and
        // re-installing it evicts the oldest survivor.
        assert!(!ovs.process(&flows[5]).slow_path);
        assert!(ovs.process(&flows[0]).slow_path);
        assert!(ovs.process(&flows[2]).slow_path);
        assert_eq!((ovs.store.len(), ovs.store.stats.evictions), (4, 4));
        let s = ovs.store.stats;
        assert_eq!((s.hits, s.misses), (1, 8));
        assert_eq!(
            s.misses - s.evictions - s.invalidations,
            ovs.store.len() as u64
        );

        // Capacity 0 means "install nothing", not "keep one".
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        let mut ovs = OvsSim::compile(&p).unwrap();
        cached.set_cache_capacity(0);
        ovs.set_cache_capacity(0);
        for _ in 0..2 {
            assert!(cached.process(&flows[4]).slow_path);
            assert!(ovs.process(&flows[4]).slow_path);
        }
        assert_eq!((cached.cache_entries(), ovs.store.len()), (0, 0));
        assert_eq!(
            (cached.stats().evictions, ovs.store.stats.evictions),
            (0, 0)
        );
    }

    /// Batching loses no verdict: over a trace with hits, misses, capacity
    /// evictions and a flow-mod invalidation in the middle, `process_batch`
    /// in chunks of any size is `process` packet by packet.
    #[test]
    fn process_batch_is_process_in_chunks() {
        use mapro_core::RuleUpdate;
        let p = universal();
        let out = p.catalog.lookup("out").unwrap();
        // Eight regions (six rows and tenant 3's two drops) in a scrambled
        // order through a four-entry cache.
        let mut x = 1u64;
        let mut trace: Vec<Packet> = (0..200)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (region, low) = (x >> 61, x >> 40 & 0xff);
                let src = (region % 2) << 31 | low;
                Packet::from_fields(&p.catalog, &[("ip_src", src), ("ip_dst", region / 2)])
            })
            .collect();
        // The flow-mod rewires tenant 1's low half; have its megaflow
        // resident when it lands.
        let mid = trace.len() / 2;
        trace[mid - 1] = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let rewire = RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::prefix(0, 1, 32), Value::Int(1)],
            set: vec![(out, Value::sym("vmX"))],
        };
        let run = |chunk: Option<usize>| {
            let mut e = CachedEngine::eswitch(&p).unwrap();
            e.set_cache_capacity(4);
            let mut outs = Vec::new();
            let mut batch = Vec::new();
            for (half, then) in [(&trace[..mid], Some(&rewire)), (&trace[mid..], None)] {
                match chunk {
                    None => outs.extend(half.iter().map(|pkt| e.process(pkt))),
                    Some(n) => {
                        for pkts in half.chunks(n) {
                            e.process_batch(&pkts.iter().collect::<Vec<_>>(), &mut batch);
                            outs.append(&mut batch);
                        }
                    }
                }
                if let Some(update) = then {
                    e.apply_update(update).unwrap();
                }
            }
            (outs, e.stats(), e.cache_entries())
        };
        let want = run(None);
        let s = want.1;
        assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0 && s.invalidations > 0);
        assert_eq!(want.0.len(), trace.len());
        for chunk in [1, 7, 32] {
            assert_eq!(run(Some(chunk)), want, "chunks of {chunk}");
        }
    }

    #[test]
    fn goto_cycle_is_cached_and_agrees_with_the_engine() {
        // A goto cycle: the engine's cycle guard ends the walk, and the
        // walk is all the cache needs — it stays on and must agree with
        // the uncached model, cold and warm.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        assert!(cached.cache_enabled());
        let mut plain = SwitchModel::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        let want = plain.process(&pkt);
        let cold = cached.process(&pkt);
        assert!(cold.slow_path);
        assert_eq!(
            (&cold.output, cold.dropped, cold.lookups),
            (&want.output, want.dropped, want.lookups)
        );
        let warm = cached.process(&pkt);
        assert!(!warm.slow_path);
        assert_eq!((&warm.output, warm.dropped), (&want.output, want.dropped));
        assert_eq!(cached.cache_entries(), 1);
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
