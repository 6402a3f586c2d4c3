//! A ternary bit-trie over cube lists: "which stored cubes intersect this
//! query cube" in time proportional to the compatible paths rather than
//! the list length.
//!
//! [`crate::compile`] indexes a table partition's pieces with it, so a
//! constrained table visit reaches only the pieces its state can meet
//! instead of scanning every region + miss fragment (the miss region of a
//! large exact-match table fragments into tens of thousands of cubes).
//!
//! ## Shape
//!
//! A stored cube walks one path — one trit per bit, columns in order, bits
//! msb-first: `0`, `1`, or `*` (wildcard) — truncated after its last
//! non-wildcard bit (every suffix bit is `*`, so the cube intersects
//! anything that reached its node). A query walks the same bit order but
//! fans out: a query `0` visits the `0` and `*` children, a query `*`
//! visits all three. Per-bit compatibility along the whole walk is exactly
//! [`Cube::intersects`], so the result set is exact, not a superset.

use crate::cube::Cube;

/// Child slot sentinel: no node.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    /// Children by trit: `[zero, one, star]`.
    kids: [u32; 3],
    /// Stored cubes whose path ends at this node (wildcard tail).
    slots: Vec<u32>,
}

impl Node {
    fn new() -> Node {
        Node {
            kids: [NONE; 3],
            slots: Vec::new(),
        }
    }
}

/// The trie. Construct with the column widths of the cube space it
/// indexes; every inserted or queried cube must have those columns.
#[derive(Debug)]
pub(crate) struct CubeTrie {
    widths: Vec<u32>,
    nodes: Vec<Node>,
}

impl CubeTrie {
    /// An empty trie over columns of the given bit widths.
    pub(crate) fn new(widths: &[u32]) -> CubeTrie {
        CubeTrie {
            widths: widths.to_vec(),
            nodes: vec![Node::new()],
        }
    }

    /// The trit string of `c` in walk order, truncated after the last
    /// non-wildcard bit.
    fn trits(&self, c: &Cube) -> Vec<u8> {
        debug_assert_eq!(c.0.len(), self.widths.len());
        let mut out = Vec::new();
        let mut last = 0usize;
        for (t, &w) in c.0.iter().zip(&self.widths) {
            for b in (0..w).rev() {
                let m = 1u64 << b;
                let trit = if t.mask & m == 0 {
                    2
                } else if t.bits & m != 0 {
                    1
                } else {
                    0
                };
                out.push(trit);
                if trit != 2 {
                    last = out.len();
                }
            }
        }
        out.truncate(last);
        out
    }

    /// Insert `c` under the identifier `slot`.
    pub(crate) fn insert(&mut self, c: &Cube, slot: u32) {
        let path = self.trits(c);
        let mut n = 0usize;
        for &trit in &path {
            let k = trit as usize;
            if self.nodes[n].kids[k] == NONE {
                let id = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[n].kids[k] = id;
            }
            n = self.nodes[n].kids[k] as usize;
        }
        self.nodes[n].slots.push(slot);
    }

    /// Append every stored slot whose cube intersects `q` to `out`, then
    /// sort ascending (the caller's iteration order must not depend on
    /// trie internals). Exact: per-bit compatibility along the walk is the
    /// cube intersection test.
    pub(crate) fn query_into(&self, q: &Cube, out: &mut Vec<u32>) {
        let path = self.trits(q);
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((n, depth)) = stack.pop() {
            let node = &self.nodes[n];
            out.extend_from_slice(&node.slots);
            // Past the query's truncated path every query bit is `*`.
            let trit = path.get(depth).copied().unwrap_or(2);
            let visit: &[usize] = match trit {
                0 => &[0, 2],
                1 => &[1, 2],
                _ => &[0, 1, 2],
            };
            for &k in visit {
                if node.kids[k] != NONE {
                    stack.push((node.kids[k] as usize, depth + 1));
                }
            }
        }
        out.sort_unstable();
    }

    /// Nodes allocated (diagnostics only).
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Tern;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rnd_cube(rng: &mut SmallRng, widths: &[u32]) -> Cube {
        Cube(
            widths
                .iter()
                .map(|&w| {
                    let full = (1u64 << w) - 1;
                    let mask = rng.gen_range(0..=full);
                    Tern {
                        bits: rng.gen_range(0..=full) & mask,
                        mask,
                    }
                })
                .collect(),
        )
    }

    /// Randomized oracle: query results must equal a linear intersection
    /// scan, for point-like and wildcard-heavy cubes alike.
    #[test]
    fn query_matches_linear_scan() {
        let widths = [5u32, 3, 6];
        let mut rng = SmallRng::seed_from_u64(2019);
        for _round in 0..50 {
            let stored: Vec<Cube> = (0..60).map(|_| rnd_cube(&mut rng, &widths)).collect();
            let mut trie = CubeTrie::new(&widths);
            for (i, c) in stored.iter().enumerate() {
                trie.insert(c, i as u32);
            }
            for _q in 0..20 {
                let q = rnd_cube(&mut rng, &widths);
                let mut got = Vec::new();
                trie.query_into(&q, &mut got);
                let want: Vec<u32> = stored
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.intersects(&q))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "query {q:?}");
            }
        }
    }

    /// Wildcard-tail truncation keeps the trie small: a cube exact only in
    /// its first bit allocates one node path of length 1, not `width`.
    #[test]
    fn wildcard_tails_are_truncated() {
        let widths = [16u32];
        let mut trie = CubeTrie::new(&widths);
        let c = Cube(vec![Tern {
            bits: 1 << 15,
            mask: 1 << 15,
        }]);
        trie.insert(&c, 0);
        assert_eq!(trie.node_count(), 2, "root + one path node");
        let all_star = Cube::any(1);
        trie.insert(&all_star, 1);
        assert_eq!(trie.node_count(), 2, "all-star cube lives at the root");
        let mut got = Vec::new();
        trie.query_into(
            &Cube(vec![Tern {
                bits: 0,
                mask: 1 << 15,
            }]),
            &mut got,
        );
        assert_eq!(got, vec![1], "exact-msb cube filtered, all-star kept");
    }
}
