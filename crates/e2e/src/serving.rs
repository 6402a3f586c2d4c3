//! The datapath client shared by the `wire_*` and `churn_*` workloads: one
//! thread that takes a burst of wire frames through parse → bind →
//! `process_batch` and waits for the verdicts (a closed loop with one
//! client).

use crate::inputs::{Traffic, BURST};
use crate::layers::{self, CacheCounts, Fate};
use crate::stats::{self, Log2Hist};
use crate::trace::Recorder;
use mapro_core::{AttrId, Catalog, Packet, Pipeline};
use mapro_packet::{Binding, Frame};
use mapro_switch::{CachedEngine, ProcessOut};
use std::collections::HashMap;
use std::hint::black_box;

/// Keep full spans for one burst in this many during a traced section.
pub const SPAN_EVERY: u64 = 1024;

/// The serving engine with the parse and bind stages in front of it.
pub struct Serving {
    /// The engine under test.
    pub engine: CachedEngine,
    catalog: Catalog,
    binding: Binding,
    sideband: HashMap<AttrId, u64>,
    frames: Vec<Frame>,
    packets: Vec<Packet>,
    out: Vec<ProcessOut>,
    /// Frames `Frame::parse` refused.
    pub parse_errors: u64,
}

/// What a traced section adds up per layer, over all of its bursts.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Bursts traced.
    pub bursts: u64,
    /// Frames traced.
    pub frames: u64,
    /// Wall of the traced bursts, first stamp to last.
    pub wall_ns: u64,
    /// Ns per frame of each traced slice's quiet chunk: the rate the
    /// untraced slices report, for the tracing overhead.
    pub slice_ns_per_frame: Vec<f64>,
    /// Time inside `Frame::parse`.
    pub parse: Log2Hist,
    /// Time inside `Binding::to_packet`.
    pub bind: Log2Hist,
    /// Time inside `process_batch`.
    pub process: Log2Hist,
    /// Table lookups the engine reported.
    pub lookups: u64,
}

impl LayerTotals {
    /// The three stage histograms, by span name.
    pub fn into_histograms(self) -> std::collections::BTreeMap<&'static str, Log2Hist> {
        [
            ("packet.parse", self.parse),
            ("packet.bind", self.bind),
            ("switch.process_batch", self.process),
        ]
        .into()
    }
}

impl Serving {
    /// Build the engine for `p` and the stages in front of it.
    pub fn new(p: &Pipeline) -> Serving {
        Serving {
            engine: layers::engine(p),
            catalog: p.catalog.clone(),
            binding: layers::binding(&p.catalog),
            sideband: HashMap::new(),
            frames: Vec::with_capacity(BURST),
            packets: Vec::with_capacity(BURST),
            out: Vec::with_capacity(BURST),
            parse_errors: 0,
        }
    }

    /// Take `wire` frames through the three stages. With `TRACED` the five
    /// stage boundaries are stamped (ns on `rec`'s clock); without, no
    /// clock is read and the stamps are zero.
    #[inline]
    fn stages<'a, const TRACED: bool>(
        &mut self,
        wire: impl Iterator<Item = &'a [u8]>,
        rec: &Recorder,
    ) -> [u64; 5] {
        let stamp = || if TRACED { rec.now_ns() } else { 0 };
        let t0 = stamp();
        self.frames.clear();
        for bytes in wire {
            match layers::parse(black_box(bytes)) {
                Ok(f) => self.frames.push(f),
                Err(_) => self.parse_errors += 1,
            }
        }
        let t1 = stamp();
        self.packets.clear();
        for f in &self.frames {
            self.packets.push(layers::bind(
                &self.binding,
                &self.catalog,
                f,
                &self.sideband,
            ));
        }
        let t2 = stamp();
        let refs: Vec<&Packet> = self.packets.iter().collect();
        let t3 = stamp();
        layers::process(&mut self.engine, &refs, &mut self.out);
        black_box(&self.out);
        let t4 = stamp();
        [t0, t1, t2, t3, t4]
    }

    /// Serve burst `b` of `traffic`, untraced.
    #[inline]
    pub fn burst(&mut self, traffic: &Traffic, b: usize, rec: &Recorder) {
        let wire = (b * BURST..(b + 1) * BURST).map(|i| traffic.frame(i));
        self.stages::<false>(wire, rec);
    }

    /// Serve burst `b` of `traffic`, stamping every stage into `totals` and,
    /// for one burst in [`SPAN_EVERY`], into `rec` as full spans. Returns
    /// the burst's first and last stamp.
    pub fn burst_traced(
        &mut self,
        traffic: &Traffic,
        b: usize,
        rec: &mut Recorder,
        totals: &mut LayerTotals,
    ) -> (u64, u64) {
        let wire = (b * BURST..(b + 1) * BURST).map(|i| traffic.frame(i));
        let [t0, t1, t2, t3, t4] = self.stages::<true>(wire, rec);
        totals.parse.record(t1 - t0);
        totals.bind.record(t2 - t1);
        totals.process.record(t4 - t3);
        totals.lookups += self.out.iter().map(|o| o.lookups as u64).sum::<u64>();
        totals.frames += self.out.len() as u64;
        // `is_multiple_of` is newer than the workspace's rust-version.
        #[allow(clippy::manual_is_multiple_of)]
        if totals.bursts % SPAN_EVERY == 0 {
            let request = totals.bursts;
            let burst = rec.push("burst", t0, t4, None, request);
            rec.push("packet.parse", t0, t1, Some(burst), request);
            rec.push("packet.bind", t1, t2, Some(burst), request);
            rec.push("switch.process_batch", t3, t4, Some(burst), request);
        }
        totals.bursts += 1;
        (t0, t4)
    }

    /// Serve one frame on its own (probes and verification sweeps).
    pub fn one(&mut self, bytes: &[u8], rec: &Recorder) -> Option<Fate> {
        self.stages::<false>(std::iter::once(bytes), rec);
        self.out.first().map(|o| (o.output.clone(), o.dropped))
    }

    /// Fates of the burst just served, in frame order.
    pub fn fates(&self) -> impl Iterator<Item = Fate> + '_ {
        self.out.iter().map(|o| (o.output.clone(), o.dropped))
    }

    /// The engine's cache counters.
    pub fn cache(&self) -> CacheCounts {
        layers::cache_counts(&self.engine)
    }
}

/// What one slice of a timed section — `Scale::slice_bursts` bursts, one
/// after the other — gave.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Median burst latency, first byte in to last verdict out.
    pub p50_us: f64,
    /// 99th-percentile burst latency.
    pub p99_us: f64,
    /// Wall per frame of the slice's quiet chunk. The rate is taken over
    /// chunks of a few dozen bursts, not over the slice: when the host is
    /// busy its interference comes as stalls of a fraction of a millisecond
    /// to several, the median burst barely moves while the mean over a
    /// thousand bursts moves by 15 %, and only a window that short has a
    /// fair chance of holding no stall.
    pub ns_per_frame: f64,
}

/// The statistics of a slice from its `bursts + 1` contiguous stamps (ns):
/// burst `i` ran from `stamps[i]` to `stamps[i + 1]`, bookkeeping included.
pub fn slice_stats(stamps: &[u64], chunk: usize) -> Slice {
    let mut lat: Vec<f64> = stamps.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    lat.sort_by(f64::total_cmp);
    let chunk = chunk.clamp(1, lat.len().max(1));
    let chunk_ns: Vec<f64> = stamps
        .chunks(chunk)
        .zip(stamps.chunks(chunk).skip(1))
        .map(|(a, b)| (b[0] - a[0]) as f64)
        .collect();
    Slice {
        p50_us: stats::percentile_sorted(&lat, 0.50) / 1e3,
        p99_us: stats::percentile_sorted(&lat, 0.99) / 1e3,
        ns_per_frame: stats::quiet(&chunk_ns) / (chunk * BURST) as f64,
    }
}

/// Serve one slice of `bursts` bursts starting at `*cursor` (wrapping over
/// `traffic`), untraced. `stamps` is scratch space.
pub fn timed_slice(
    serving: &mut Serving,
    traffic: &Traffic,
    cursor: &mut usize,
    (bursts, chunk): (usize, usize),
    stamps: &mut Vec<u64>,
    rec: &Recorder,
) -> Slice {
    stamps.clear();
    stamps.push(rec.now_ns());
    for _ in 0..bursts {
        serving.burst(traffic, *cursor, rec);
        stamps.push(rec.now_ns());
        *cursor = (*cursor + 1) % traffic.bursts();
    }
    slice_stats(stamps, chunk)
}

/// The same slice with every stage stamped into `totals`.
pub fn traced_slice(
    serving: &mut Serving,
    traffic: &Traffic,
    cursor: &mut usize,
    (bursts, chunk): (usize, usize),
    stamps: &mut Vec<u64>,
    rec: &mut Recorder,
    totals: &mut LayerTotals,
) {
    // The bursts' own first stamps serve as the slice's: no extra clock
    // read per burst.
    stamps.clear();
    let mut end = rec.now_ns();
    for _ in 0..bursts {
        let (t0, t4) = serving.burst_traced(traffic, *cursor, rec, totals);
        stamps.push(t0);
        end = t4;
        *cursor = (*cursor + 1) % traffic.bursts();
    }
    stamps.push(end);
    totals.wall_ns += stamps[bursts] - stamps[0];
    totals
        .slice_ns_per_frame
        .push(slice_stats(stamps, chunk).ns_per_frame);
}

/// The quiet slice's three numbers as end-to-end metrics; the rate comes
/// from `ns_per_frame`, which the caller may have loaded with stalls.
pub fn quiet_slice(slices: &[Slice]) -> Slice {
    let of = |f: fn(&Slice) -> f64| stats::quiet(&slices.iter().map(f).collect::<Vec<_>>());
    Slice {
        p50_us: of(|s| s.p50_us),
        p99_us: of(|s| s.p99_us),
        ns_per_frame: of(|s| s.ns_per_frame),
    }
}

/// Compare the engine's fate for every slot of `traffic` with the oracle's
/// fate of the slot's flow. Returns `(slots checked, mismatches, digest of
/// the engine's fates)`.
pub fn verify_against(
    serving: &mut Serving,
    traffic: &Traffic,
    oracle: &[Fate],
    rec: &Recorder,
) -> (u64, u64, u64) {
    let mut digest = crate::inputs::Fnv::default();
    let mut bad = 0;
    let errors_before = serving.parse_errors;
    for b in 0..traffic.bursts() {
        serving.burst(traffic, b, rec);
        for (k, fate) in serving.fates().enumerate() {
            digest.fate(&fate);
            if fate != oracle[traffic.flow_of[b * BURST + k] as usize] {
                bad += 1;
            }
        }
    }
    bad += serving.parse_errors - errors_before;
    ((traffic.bursts() * BURST) as u64, bad, digest.0)
}
