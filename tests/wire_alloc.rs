//! The wire path's budget per frame, counted rather than timed: heap
//! allocations per emitted frame and on a megaflow hit, and the
//! `switch.megaflow.*` obs counters against the engine's own
//! [`MegaflowStats`]. Counts repeat exactly, so this is the regression
//! guard a noisy clock cannot give.
//!
//! One `#[test]`: the allocator and the obs registry are process-global,
//! and a second test running beside this one would show up in both.

use mapro::packet::{generate, Binding, Frame, Popularity};
use mapro::prelude::*;
use mapro::switch::{CachedEngine, MegaflowStats, ProcessOut};
use mapro_obs::Counter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Frames per burst, bursts in the replay buffer, bursts measured.
const BURST: usize = 32;
const BUFFER: usize = 32;
const MEASURED: usize = 1_000;

/// `mapro_core`'s private inline capacity of a [`Packet`]: a catalog this
/// large binds without the heap, one attribute more spills.
const INLINE: usize = 12;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls on the calling thread only (the
/// test harness's own threads allocate whenever they like).
struct Counting;

// SAFETY: every request goes to `System` unchanged; the count is a plain
// thread-local integer. `realloc` and `alloc_zeroed` default to `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The four `switch.megaflow.*` obs counters, zeroed: from here on they
/// read what the stats of the one engine built next read.
struct ObsCounters([Arc<Counter>; 4]);

impl ObsCounters {
    fn reset() -> ObsCounters {
        let c = |name| {
            let counter = mapro_obs::registry().counter(name);
            counter.reset();
            counter
        };
        ObsCounters([
            c("switch.megaflow.hits"),
            c("switch.megaflow.misses"),
            c("switch.megaflow.evictions"),
            c("switch.megaflow.invalidations"),
        ])
    }

    fn read(&self) -> MegaflowStats {
        let [hits, misses, evictions, invalidations] = &self.0;
        MegaflowStats {
            hits: hits.get(),
            misses: misses.get(),
            evictions: evictions.get(),
            invalidations: invalidations.get(),
        }
    }
}

/// Parse → bind → `process_batch`, as the benchmark's serving loop runs
/// them, into buffers sized once.
struct WirePath {
    catalog: Catalog,
    binding: Binding,
    engine: CachedEngine,
    sideband: HashMap<AttrId, u64>,
    frames: Vec<Frame>,
    packets: Vec<Packet>,
    out: Vec<ProcessOut>,
    obs: ObsCounters,
}

impl WirePath {
    fn new(p: &Pipeline) -> WirePath {
        WirePath {
            catalog: p.catalog.clone(),
            binding: Binding::standard(&p.catalog),
            obs: ObsCounters::reset(),
            engine: CachedEngine::eswitch(p).unwrap(),
            sideband: HashMap::new(),
            frames: Vec::with_capacity(BURST),
            packets: Vec::with_capacity(BURST),
            out: Vec::with_capacity(BURST),
        }
    }

    /// The obs counters read exactly what the engine's own stats do.
    fn assert_counters_exact(&self) {
        assert_eq!(self.obs.read(), self.engine.stats());
    }

    fn bind(&mut self, wire: &[Vec<u8>]) {
        self.frames.clear();
        for bytes in wire {
            self.frames
                .push(Frame::parse(bytes).expect("emitted frames parse"));
        }
        self.packets.clear();
        for f in &self.frames {
            let p = self.binding.to_packet(&self.catalog, f, &self.sideband);
            self.packets.push(p);
        }
    }

    fn burst(&mut self, wire: &[Vec<u8>]) {
        self.bind(wire);
        let refs: [&Packet; BURST] = std::array::from_fn(|i| &self.packets[i]);
        self.engine.process_batch(&refs, &mut self.out);
        self.assert_counters_exact();
    }

    /// Frame by frame through the single-packet entry point.
    fn singly(&mut self, wire: &[Vec<u8>]) {
        self.bind(wire);
        for p in &self.packets {
            let r = self.engine.process(p);
            assert!(r.output.is_some());
            self.assert_counters_exact();
        }
    }

    /// Warm the cache with one pass over `wire`, then count this thread's
    /// allocations over `MEASURED` further bursts, every one a hit.
    fn allocations_when_warm(&mut self, wire: &[Vec<u8>]) -> u64 {
        let (first, rest) = wire.split_at(BURST);
        self.singly(first);
        rest.chunks(BURST).for_each(|b| self.burst(b));
        let cold = self.engine.stats();
        assert!(cold.misses > 0 && cold.hits > 0);
        let before = allocs();
        for b in wire.chunks(BURST).cycle().take(MEASURED) {
            self.burst(b);
        }
        let counted = allocs() - before;
        let warm = self.engine.stats();
        assert_eq!(warm.misses, cold.misses, "the measured bursts all hit");
        assert_eq!(warm.hits - cold.hits, (MEASURED * BURST) as u64);
        assert!(self.out.iter().all(|r| !r.slow_path && r.output.is_some()));
        counted
    }
}

#[test]
fn a_hit_allocates_nothing_and_counters_are_exact_at_call_boundaries() {
    // §5's instance: 20 services × 8 backends, goto-normalized, Zipf frames.
    let g = Gwlb::random(20, 8, 7919);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    assert!(goto.catalog.len() <= INLINE);
    let mut spec = g.trace_spec();
    spec.popularity = Popularity::Zipf(1.1);
    let binding = Binding::standard(&goto.catalog);
    let frames: Vec<Frame> = generate(&goto.catalog, &spec, BUFFER * BURST, 7919)
        .packets
        .iter()
        .map(|(_, pkt)| {
            let mut f = Frame::default();
            for a in [g.ip_src, g.ip_dst, g.tcp_dst] {
                binding.write(a, pkt.get(a), &mut f, &mut HashMap::new());
            }
            f
        })
        .collect();

    // The transmit side: one buffer per emitted frame, nothing more.
    let mut wire = Vec::with_capacity(frames.len());
    let before = allocs();
    wire.extend(frames.iter().map(Frame::emit));
    assert_eq!(allocs() - before, frames.len() as u64);

    assert_eq!(WirePath::new(&goto).allocations_when_warm(&wire), 0);

    // One attribute past the inline capacity: the spill, and nothing else.
    let mut wide = goto.clone();
    for i in goto.catalog.len()..=INLINE {
        wide.catalog.field(format!("pad{i}"), 8);
    }
    assert_eq!(
        WirePath::new(&wide).allocations_when_warm(&wire),
        (MEASURED * BURST) as u64
    );
}
