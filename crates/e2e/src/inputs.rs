//! Seeded input generation: every byte the program sees is a function of
//! `--seed`. The harness carries its own generator so the inputs do not
//! change when the program's `rand` shim does.

use crate::layers::{self, Fate};
use mapro_core::{Catalog, Packet, Pipeline, Value};
use mapro_packet::Frame;
use mapro_workloads::{Enterprise, Gwlb};

/// Frames per burst: the unit a client sends and waits for.
pub const BURST: usize = 32;

/// Bytes per generated frame (the paper's 64-byte packets, less the FCS).
pub const FRAME_LEN: usize = mapro_packet::MIN_FRAME;

/// The [`Rng`] stream the replay buffers are drawn from (`"wire"`).
pub const TRAFFIC_STREAM: u64 = 0x7769_7265;

/// SplitMix64: small, fast, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so two input sets drawn
    /// from one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream: the digest of inputs and verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a packet's fate in.
    pub fn fate(&mut self, f: &Fate) {
        match &f.0 {
            Some(port) => self.bytes(port.as_bytes()),
            None => self.bytes(b"-"),
        }
        self.bytes(&[0xff, u8::from(f.1)]);
    }
}

/// Draw `n` ranks in `[0, population)` with P(rank r) ∝ 1/(r+1)^s.
pub fn zipf(population: usize, s: f64, n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(population);
    let mut acc = 0.0;
    for r in 0..population {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(population - 1) as u32
        })
        .collect()
}

/// A replay buffer of wire frames with the flow each slot belongs to.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// `slots × FRAME_LEN` wire bytes, contiguous.
    pub bytes: Vec<u8>,
    /// Flow index of each slot.
    pub flow_of: Vec<u32>,
    /// One representative frame per distinct flow.
    pub flows: Vec<Frame>,
}

impl Traffic {
    /// Lay `order` (flow indices) out as wire bytes.
    pub fn new(flows: Vec<Frame>, order: Vec<u32>) -> Traffic {
        let mut bytes = Vec::with_capacity(order.len() * FRAME_LEN);
        for &f in &order {
            layers::emit_into(&flows[f as usize], &mut bytes);
        }
        assert_eq!(
            bytes.len(),
            order.len() * FRAME_LEN,
            "frames are fixed size"
        );
        Traffic {
            bytes,
            flow_of: order,
            flows,
        }
    }

    /// Slots in the buffer.
    pub fn slots(&self) -> usize {
        self.flow_of.len()
    }

    /// Whole bursts in the buffer.
    pub fn bursts(&self) -> usize {
        self.slots() / BURST
    }

    /// Wire bytes of slot `i`.
    #[inline]
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[i * FRAME_LEN..(i + 1) * FRAME_LEN]
    }

    /// Digest of the wire bytes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.bytes(&self.bytes);
        h.0
    }
}

/// A minimum-size TCP frame with the three matched fields set.
pub fn frame(ip_src: u64, ip_dst: u64, dport: u64, k: usize) -> Frame {
    Frame {
        ip_src: ip_src as u32,
        ip_dst: ip_dst as u32,
        dport: dport as u16,
        // Unmatched by every benchmark pipeline; varies so that frames of
        // one megaflow still differ on the wire.
        sport: 1024 + (k % 60_000) as u16,
        ..Frame::default()
    }
}

fn prefix_base(v: &Value) -> u64 {
    match *v {
        Value::Prefix { bits, .. } => bits,
        Value::Int(x) => x,
        _ => 0,
    }
}

/// GWLB traffic (E20's population): flow `k` cycles the (service, backend)
/// pairs and varies the low 16 `ip_src` bits inside the backend's prefix,
/// so `flows` can grow while the behaviour atoms stay a few hundred.
/// Slots draw flows Zipf(1.1).
pub fn gwlb_traffic(g: &Gwlb, flows: usize, slots: usize, rng: &mut Rng) -> Traffic {
    let pairs: Vec<(u64, u64, u64)> = g
        .services
        .iter()
        .flat_map(|s| {
            s.backends
                .iter()
                .map(move |(pfx, _)| (prefix_base(pfx), u64::from(s.ip), u64::from(s.port)))
        })
        .collect();
    let frames = (0..flows)
        .map(|k| {
            let (base, ip, port) = pairs[k % pairs.len()];
            let low = (k / pairs.len()) as u64 & 0xffff;
            frame(base | low, ip, port, k)
        })
        .collect();
    let order = zipf(flows, 1.1, slots, rng);
    Traffic::new(frames, order)
}

/// Enterprise traffic: flows uniform over the public services with random
/// sources; one flow in 16 is aimed to miss (alternately an unlisted
/// destination, which dies in the ACL, and a wrong port, which dies in the
/// NAT). Slots draw flows uniformly.
pub fn enterprise_traffic(e: &Enterprise, flows: usize, slots: usize, rng: &mut Rng) -> Traffic {
    let frames = (0..flows)
        .map(|k| {
            let (ip, port, _, _) = e.services[rng.below(e.services.len() as u64) as usize];
            let src = rng.next_u64() & 0xffff_ffff;
            match k % 32 {
                0 => frame(src, 0x0a00_0000 | rng.below(1 << 24), u64::from(port), k),
                16 => frame(src, u64::from(ip), 1, k),
                _ => frame(src, u64::from(ip), u64::from(port), k),
            }
        })
        .collect();
    let order = (0..slots).map(|_| rng.below(flows as u64) as u32).collect();
    Traffic::new(frames, order)
}

/// The packet the oracle is asked about, built from the generator's own
/// field values: neither `Frame::parse` nor `Binding` is between the
/// inputs and the expected fates.
pub fn oracle_packet(catalog: &Catalog, ip_src: u64, ip_dst: u64, dport: u64) -> Packet {
    Packet::from_fields(
        catalog,
        &[("ip_src", ip_src), ("ip_dst", ip_dst), ("tcp_dst", dport)],
    )
}

/// The oracle's fate for every distinct flow of `traffic` under `p`.
pub fn oracle_table(p: &Pipeline, traffic: &Traffic) -> Vec<Fate> {
    traffic
        .flows
        .iter()
        .map(|f| {
            let pkt = oracle_packet(
                &p.catalog,
                u64::from(f.ip_src),
                u64::from(f.ip_dst),
                u64::from(f.dport),
            );
            layers::oracle_run(p, &pkt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2019, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2019, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2019, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let mut rng = Rng::new(7, 0);
        let draws = zipf(1000, 1.1, 20_000, &mut rng);
        assert!(draws.iter().all(|&r| r < 1000));
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn traffic_round_trips_through_the_wire() {
        let g = layers::gwlb(4, 2, 3);
        let mut rng = Rng::new(3, 0);
        let t = gwlb_traffic(&g, 64, 128, &mut rng);
        assert_eq!(t.slots(), 128);
        assert_eq!(t.bursts(), 4);
        for i in 0..t.slots() {
            let parsed = layers::parse(t.frame(i)).unwrap();
            assert_eq!(parsed, t.flows[t.flow_of[i] as usize]);
        }
    }
}
