//! Decision-tree packet classifier (HiCuts-lite).
//!
//! An *extension* beyond the paper's template set: a geometric classifier
//! that recursively cuts the most discriminating dimension into equal
//! intervals until few enough rules remain per leaf, then scans the leaf
//! linearly. Real software datapaths (and the TCAM-optimization
//! literature the paper cites [21, 23]) use this family for multi-field
//! wildcard tables — the very shape that defeats the exact/LPM templates —
//! so it slots into the ablation (E11) as "what a cleverer generic
//! template buys the universal representation".
//!
//! Supports interval-shaped predicates (exact, prefix, wildcard). General
//! ternary cells make a rule span the whole dimension (sound, possibly
//! slower).

use crate::cls::view::TableView;
use crate::cls::{Classifier, LookupStats, TemplateKind};
use mapro_core::Value;

/// Build parameters.
#[derive(Debug, Clone, Copy)]
pub struct DtreeConfig {
    /// Maximum rules per leaf before cutting stops (HiCuts' `binth`).
    pub binth: usize,
    /// Number of equal-width cuts per internal node.
    pub cuts: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for DtreeConfig {
    fn default() -> Self {
        DtreeConfig {
            binth: 8,
            cuts: 4,
            max_depth: 16,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<u32>),
    Cut {
        dim: usize,
        lo: u64,
        width: u64, // interval width per child
        children: Vec<u32>,
    },
}

/// The decision-tree classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    widths: Vec<u32>,
    /// Rule intervals per dimension: `rules[r][d] = (lo, hi)`.
    rules: Vec<Vec<(u64, u64)>>,
    nodes: Vec<Node>,
    entries: usize,
    depth: usize,
}

impl DecisionTree {
    /// Build from a view (never fails; non-interval cells widen to the
    /// full dimension).
    pub fn build(view: &TableView, cfg: DtreeConfig) -> DecisionTree {
        let dims = view.cols();
        let full = |d: usize| -> (u64, u64) { (0, mapro_core::value::low_mask(view.widths[d])) };
        let rules: Vec<Vec<(u64, u64)>> = view
            .rows
            .iter()
            .map(|row| {
                (0..dims)
                    .map(|d| match &row[d] {
                        Value::Sym(_) => (1, 0), // empty: matches nothing
                        v => v.interval(view.widths[d]).unwrap_or(full(d)),
                    })
                    .collect()
            })
            .collect();
        let mut t = DecisionTree {
            widths: view.widths.clone(),
            rules,
            nodes: Vec::new(),
            entries: view.len(),
            depth: 0,
        };
        let all: Vec<u32> = (0..view.len() as u32).collect();
        let bounds: Vec<(u64, u64)> = (0..dims).map(full).collect();
        let root = t.split(all, &bounds, cfg, 0);
        debug_assert_eq!(root, 0);
        t
    }

    #[allow(clippy::needless_range_loop)] // dimension index selects bounds+rules
    fn split(
        &mut self,
        rules_here: Vec<u32>,
        bounds: &[(u64, u64)],
        cfg: DtreeConfig,
        depth: usize,
    ) -> u32 {
        self.depth = self.depth.max(depth);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf(vec![])); // placeholder
        if rules_here.len() <= cfg.binth || depth >= cfg.max_depth {
            self.nodes[id as usize] = Node::Leaf(rules_here);
            return id;
        }
        // Pick the dimension where rules are most separable: the one with
        // the most rules *not* spanning the whole node range.
        let mut best_dim = None;
        let mut best_score = 0usize;
        for d in 0..bounds.len() {
            let (lo, hi) = bounds[d];
            let score = rules_here
                .iter()
                .filter(|&&r| {
                    let (rl, rh) = self.rules[r as usize][d];
                    rl > lo || rh < hi
                })
                .count();
            if score > best_score {
                best_score = score;
                best_dim = Some(d);
            }
        }
        let Some(dim) = best_dim else {
            // Every rule spans every dimension: cutting cannot help.
            self.nodes[id as usize] = Node::Leaf(rules_here);
            return id;
        };
        let (lo, hi) = bounds[dim];
        let span = hi - lo + 1;
        let cuts = (cfg.cuts as u64).min(span).max(2);
        let width = span.div_ceil(cuts);
        let mut children = Vec::with_capacity(cuts as usize);
        for c in 0..cuts {
            let clo = lo + c * width;
            if clo > hi {
                break;
            }
            let chi = (clo + width - 1).min(hi);
            let sub: Vec<u32> = rules_here
                .iter()
                .copied()
                .filter(|&r| {
                    let (rl, rh) = self.rules[r as usize][dim];
                    rl <= chi && rh >= clo
                })
                .collect();
            // Degenerate cut (no discrimination) → avoid infinite descent.
            if sub.len() == rules_here.len() && cuts == 2 && span <= 2 {
                self.nodes[id as usize] = Node::Leaf(rules_here);
                return id;
            }
            let mut b = bounds.to_vec();
            b[dim] = (clo, chi);
            let child = if sub.len() == rules_here.len() && chi - clo + 1 == span {
                // No progress possible; make a leaf.
                let leaf = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(sub));
                leaf
            } else {
                self.split(sub, &b, cfg, depth + 1)
            };
            children.push(child);
        }
        self.nodes[id as usize] = Node::Cut {
            dim,
            lo,
            width,
            children,
        };
        id
    }
}

impl Classifier for DecisionTree {
    fn lookup(&self, key: &[u64]) -> Option<usize> {
        mapro_obs::counter!("classifier.dtree.lookups").inc();
        let _t = mapro_obs::time!("classifier.dtree.lookup_ns");
        let probes = mapro_obs::counter!("classifier.dtree.probes");
        let mut node = 0usize;
        loop {
            probes.inc();
            match &self.nodes[node] {
                Node::Leaf(rules) => {
                    let mut best: Option<usize> = None;
                    'rule: for &r in rules {
                        probes.inc();
                        for (d, &(lo, hi)) in self.rules[r as usize].iter().enumerate() {
                            if key[d] < lo || key[d] > hi {
                                continue 'rule;
                            }
                        }
                        best = Some(match best {
                            None => r as usize,
                            Some(b) => b.min(r as usize),
                        });
                        // Rules in a leaf are ordered; first hit is best.
                        break;
                    }
                    return best;
                }
                Node::Cut {
                    dim,
                    lo,
                    width,
                    children,
                } => {
                    let v = key[*dim];
                    if v < *lo {
                        return None;
                    }
                    let idx = ((v - lo) / width) as usize;
                    if idx >= children.len() {
                        return None;
                    }
                    node = children[idx] as usize;
                }
            }
        }
    }

    fn stats(&self) -> LookupStats {
        LookupStats {
            kind: TemplateKind::Linear, // generic family for cost models
            entries: self.entries,
            tuples: 1,
            depth: self.depth + 1,
            key_cols: self.widths.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn view(widths: &[u32], rows: Vec<Vec<Value>>) -> TableView {
        TableView {
            widths: widths.to_vec(),
            rows,
        }
    }

    #[test]
    fn basic_agreement_with_reference() {
        let v = view(
            &[8, 8],
            vec![
                vec![Value::prefix(0x80, 1, 8), Value::Int(3)],
                vec![Value::Int(5), Value::Any],
                vec![Value::Any, Value::Int(9)],
            ],
        );
        let t = DecisionTree::build(&v, DtreeConfig::default());
        for a in [0u64, 5, 0x80, 0x90, 255] {
            for b in [0u64, 3, 9, 200] {
                assert_eq!(t.lookup(&[a, b]), v.linear_lookup(&[a, b]), "{a},{b}");
            }
        }
    }

    #[test]
    fn deep_tree_on_many_disjoint_rules() {
        let rows: Vec<Vec<Value>> = (0..64u64).map(|i| vec![Value::Int(i * 4)]).collect();
        let v = view(&[16], rows);
        let t = DecisionTree::build(
            &v,
            DtreeConfig {
                binth: 2,
                cuts: 4,
                max_depth: 12,
            },
        );
        assert!(t.stats().depth > 1);
        for i in 0..64u64 {
            assert_eq!(t.lookup(&[i * 4]), Some(i as usize));
            assert_eq!(t.lookup(&[i * 4 + 1]), None);
        }
    }

    #[test]
    fn all_wildcard_rules_degenerate_to_leaf() {
        let v = view(&[8], vec![vec![Value::Any], vec![Value::Any]]);
        let t = DecisionTree::build(&v, DtreeConfig::default());
        assert_eq!(t.lookup(&[42]), Some(0)); // priority order
    }

    #[test]
    fn empty_table() {
        let v = view(&[8], vec![]);
        let t = DecisionTree::build(&v, DtreeConfig::default());
        assert_eq!(t.lookup(&[1]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_agrees_with_linear_reference(
            rows in proptest::collection::vec(
                (0u64..64, 0u8..7, 0u64..64, prop::bool::ANY),
                1..24
            ),
            keys in proptest::collection::vec((0u64..64, 0u64..64), 16),
        ) {
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|(bits, len, x, wild)| {
                    vec![
                        Value::prefix(bits << (6 - len.min(6)), len.min(6), 6),
                        if wild { Value::Any } else { Value::Int(x) },
                    ]
                })
                .collect();
            let v = view(&[6, 6], rows);
            let t = DecisionTree::build(&v, DtreeConfig { binth: 3, cuts: 4, max_depth: 10 });
            for (a, b) in keys {
                prop_assert_eq!(t.lookup(&[a, b]), v.linear_lookup(&[a, b]));
            }
        }
    }
}
