//! Mining functional dependencies from a table instance.
//!
//! §3 leaves open *how* dependencies are known ("they may exist inherently
//! encoded into the high-level data plane model … or they may be transient
//! data-level dependencies"). This module covers the data-level case: given
//! a concrete table, discover every **minimal** nontrivial FD `X → A` that
//! holds in the instance, using level-wise lattice search over attribute
//! partitions (the classic TANE strategy, sized for control-plane tables).
//!
//! A dependency holds iff the partition of rows induced by `X` has exactly
//! as many classes as the partition induced by `X ∪ {A}` — i.e. fixing `X`
//! fixes `A`. Minimality pruning: once `X → A` is recorded, no superset of
//! `X` can yield a *minimal* dependency on `A`; and once `X` is a superkey,
//! no superset of `X` yields any minimal dependency at all.
//!
//! ## Performance model
//!
//! Partitions are **stripped** (TANE's representation): only classes with
//! at least two rows are materialized — singleton classes carry no
//! refinement information — so work per product is `O(‖π‖)`, the number of
//! rows in non-singleton classes, which shrinks rapidly down the lattice.
//! Products and dependency checks run through a reusable [`Probe`] table
//! (two `u32` arrays indexed by base-class id) instead of a per-product
//! `HashMap`. Each lattice level keeps the level-(k−1) partitions of its
//! parents cached in `entries`, checks all of the level's candidate FDs,
//! then computes its candidate products, in sorted candidate order. It all
//! runs on the calling thread: on control-plane tables a level is
//! microseconds of work, and handing it to a thread pool cost more than it
//! saved (on a 2-core host, mining the e2e `toolchain` corpus took 3.8 ms a
//! round at two workers against 0.85 ms at one, and normalizing it 20 ms
//! against 6 ms).

use crate::fd::{Fd, FdSet};
use crate::set::{AttrSet, Universe};
use mapro_core::{Catalog, Table};
use std::collections::HashMap;

/// Dense row→class map of one attribute column (the lattice's base rank).
struct BaseColumn {
    row_class: Vec<u32>,
    nclasses: usize,
}

impl BaseColumn {
    /// Class ids by first occurrence of each distinct cell value. The only
    /// hash map the miner builds — once per column, never per product.
    fn of_column<'a>(cells: impl Iterator<Item = &'a mapro_core::Value>) -> BaseColumn {
        let mut ids: HashMap<&mapro_core::Value, u32> = HashMap::new();
        let mut row_class = Vec::new();
        for v in cells {
            let next = ids.len() as u32;
            row_class.push(*ids.entry(v).or_insert(next));
        }
        BaseColumn {
            nclasses: ids.len(),
            row_class,
        }
    }
}

/// Stripped row-partition: classes of size ≥ 2 only (row ids ascending
/// within a class, classes in deterministic first-occurrence order), plus
/// the total class count *including* the singletons not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stripped {
    classes: Vec<Vec<u32>>,
    count: usize,
}

impl Stripped {
    /// Stripped form of a base column's partition.
    fn of_base(base: &BaseColumn) -> Stripped {
        let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); base.nclasses];
        for (r, &c) in base.row_class.iter().enumerate() {
            by_class[c as usize].push(r as u32);
        }
        Stripped {
            classes: by_class.into_iter().filter(|c| c.len() >= 2).collect(),
            count: base.nclasses,
        }
    }

    /// Does `X → A` hold, for `self = π_X` and `base = π_A`? True iff no
    /// stored class mixes two `A`-classes (singleton rows cannot violate).
    /// Short-circuits on the first violation — no product is materialized.
    fn holds(&self, base: &BaseColumn) -> bool {
        self.classes.iter().all(|class| {
            let first = base.row_class[class[0] as usize];
            class[1..]
                .iter()
                .all(|&r| base.row_class[r as usize] == first)
        })
    }

    /// Product (common refinement) with a base column, via the reusable
    /// probe table. `nrows` is the relation size (needed to account for
    /// the singleton classes not stored).
    fn refine(&self, base: &BaseColumn, probe: &mut Probe, nrows: usize) -> Stripped {
        probe.ensure(base.nclasses);
        let mut out: Vec<Vec<u32>> = Vec::new();
        let mut stored_rows = 0usize;
        let mut split_classes = 0usize;
        for class in &self.classes {
            stored_rows += class.len();
            let stamp = probe.next_stamp();
            let mut used = 0usize;
            for &r in class {
                let g = base.row_class[r as usize] as usize;
                if probe.stamp[g] != stamp {
                    probe.stamp[g] = stamp;
                    probe.slot[g] = used as u32;
                    if probe.buckets.len() == used {
                        probe.buckets.push(Vec::new());
                    } else {
                        probe.buckets[used].clear();
                    }
                    used += 1;
                }
                probe.buckets[probe.slot[g] as usize].push(r);
            }
            split_classes += used;
            for b in &probe.buckets[..used] {
                if b.len() >= 2 {
                    out.push(b.clone());
                }
            }
        }
        Stripped {
            classes: out,
            // Unstored singletons stay singleton; stored classes split.
            count: (nrows - stored_rows) + split_classes,
        }
    }
}

/// Reusable probe table for stripped-partition products: `stamp`/`slot`
/// are indexed by base-class id and invalidated by bumping the stamp, so
/// no clearing pass and no hashing happens per product. One probe is
/// reused across every product of a mining run.
struct Probe {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    cur: u32,
    buckets: Vec<Vec<u32>>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            stamp: Vec::new(),
            slot: Vec::new(),
            cur: 0,
            buckets: Vec::new(),
        }
    }

    /// Grow to cover `n` base classes.
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.slot.resize(n, 0);
        }
    }

    /// A fresh stamp value; resets the table on (astronomically rare)
    /// wraparound so stale stamps can never collide.
    fn next_stamp(&mut self) -> u32 {
        if self.cur == u32::MAX {
            self.stamp.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
        self.cur
    }
}

/// Result of mining a table.
#[derive(Debug, Clone)]
pub struct Mined {
    /// All minimal nontrivial dependencies `X → A` (singleton RHS) holding
    /// in the instance. Constant columns appear as `∅ → A`.
    pub fds: FdSet,
    /// Number of distinct rows the analysis saw.
    pub distinct_rows: usize,
}

/// Mine all minimal functional dependencies of `table`'s relation (match
/// *and* action attributes, per the paper's uniform attribute treatment).
///
/// Duplicate rows are collapsed first: FDs are a property of the relation
/// as a set.
///
/// # Panics
/// Panics if the table has more than 64 attributes.
///
/// ```
/// use mapro_core::{ActionSem, Catalog, Table, Value};
/// use mapro_fd::{mine_fds, Fd};
///
/// let mut c = Catalog::new();
/// let dst = c.field("dst", 8);
/// let port = c.field("port", 16);
/// let mut t = Table::new("t", vec![dst, port], vec![]);
/// t.row(vec![Value::Int(1), Value::Int(80)], vec![]);
/// t.row(vec![Value::Int(2), Value::Int(80)], vec![]);
/// t.row(vec![Value::Int(3), Value::Int(22)], vec![]);
///
/// let mined = mine_fds(&t, &c);
/// let u = &mined.fds.universe;
/// // dst determines port, not vice versa.
/// assert!(mined.fds.implies(Fd::new(u.encode(&[dst]), u.encode(&[port]))));
/// assert!(!mined.fds.implies(Fd::new(u.encode(&[port]), u.encode(&[dst]))));
/// ```
#[allow(clippy::needless_range_loop)] // index drives several parallel arrays
pub fn mine_fds(table: &Table, _catalog: &Catalog) -> Mined {
    mapro_obs::counter!("fd.mine.calls").inc();
    let _t = mapro_obs::time!("fd.mine.mine_ns");
    let mut lattice_levels = 0u64;
    let mut partition_products = 0u64;
    let mut pruned_candidates = 0u64;
    let attrs = table.attrs();
    let universe = Universe::new(attrs.clone());
    let n = universe.len();
    let full = universe.full();

    // Distinct rows, as cell tuples in universe order.
    let mut seen = std::collections::HashSet::new();
    let mut rows: Vec<Vec<mapro_core::Value>> = Vec::new();
    for r in 0..table.len() {
        let tup = table.tuple(r, &attrs);
        if seen.insert(tup.clone()) {
            rows.push(tup);
        }
    }
    let nrows = rows.len();

    let mut fds = FdSet::new(universe.clone());
    if n == 0 {
        return Mined {
            fds,
            distinct_rows: nrows,
        };
    }

    // Per-attribute base columns and their stripped partitions.
    let base: Vec<BaseColumn> = (0..n)
        .map(|p| BaseColumn::of_column(rows.iter().map(|r| &r[p])))
        .collect();

    // found[a]: minimal LHS masks recorded for dependent attribute position a.
    let mut found: Vec<Vec<AttrSet>> = vec![Vec::new(); n];
    let dead = |found: &Vec<Vec<AttrSet>>, x: AttrSet, a: usize| -> bool {
        found[a].iter().any(|&l| l.subset_of(x))
    };

    // Level 0: the empty set — detects constant columns (∅ → A).
    for a in 0..n {
        if base[a].nclasses <= 1 && nrows > 0 {
            fds.add(Fd::new(AttrSet::EMPTY, AttrSet::single(a)));
            found[a].push(AttrSet::EMPTY);
        }
    }

    // Level-wise search over `entries`, the cached level-k partitions,
    // kept sorted by attribute set so the FdSet order is deterministic.
    let mut probe = Probe::new();
    let mut entries: Vec<(AttrSet, Stripped)> = (0..n)
        .map(|p| (AttrSet::single(p), Stripped::of_base(&base[p])))
        .collect();

    let mut superkeys: Vec<AttrSet> = Vec::new();
    while !entries.is_empty() {
        lattice_levels += 1;

        // Phase A: for every cached entry, check each live candidate
        // `X → A` against the stripped partition. Minimality pruning
        // consults `found` as of the previous level: a same-level LHS has
        // the same cardinality as `X` and so can never be a proper subset.
        let checks: Vec<Vec<(usize, bool)>> = entries
            .iter()
            .map(|(x, px)| {
                full.minus(*x)
                    .iter()
                    .filter(|a| !dead(&found, *x, *a))
                    .map(|a| (a, px.holds(&base[a])))
                    .collect()
            })
            .collect();

        // Phase B: fold the results in sorted entry order.
        let mut expansions: Vec<(usize, usize, AttrSet)> = Vec::new();
        for (ei, (x, px)) in entries.iter().enumerate() {
            partition_products += checks[ei].len() as u64;
            for &(a, holds) in &checks[ei] {
                if holds {
                    fds.add(Fd::new(*x, AttrSet::single(a)));
                    found[a].push(*x);
                }
            }
            // Superkey pruning: supersets of a superkey yield nothing minimal.
            if px.count == nrows {
                superkeys.push(*x);
                continue;
            }
            // Dead-end pruning: if every attribute outside X already has a
            // recorded LHS within X, supersets of X are useless.
            if full.minus(*x).iter().all(|a| dead(&found, *x, a)) {
                continue;
            }
            // Expand canonically: add attributes with position greater than
            // the maximum of X, so each set is generated exactly once.
            let max = x.iter().last().unwrap_or(0);
            for p in (max + 1)..n {
                let y = x.with(p);
                if superkeys.iter().any(|&k| k.subset_of(y)) {
                    pruned_candidates += 1;
                    continue;
                }
                expansions.push((ei, p, y));
            }
        }

        // Phase C: materialize the next level's partitions through the one
        // probe table.
        partition_products += expansions.len() as u64;
        let parts: Vec<Stripped> = expansions
            .iter()
            .map(|&(ei, p, _)| {
                let _t = mapro_obs::time!("fd.mine.partition_ns");
                entries[ei].1.refine(&base[p], &mut probe, nrows)
            })
            .collect();
        entries = expansions
            .iter()
            .zip(parts)
            .map(|(&(_, _, y), part)| (y, part))
            .collect();
        entries.sort_unstable_by_key(|(s, _)| *s);
    }

    mapro_obs::histogram!("fd.mine.lattice_levels").record(lattice_levels);
    mapro_obs::counter!("fd.mine.partitions").add(partition_products);
    mapro_obs::counter!("fd.mine.pruned_candidates").add(pruned_candidates);
    mapro_obs::histogram!("fd.mine.fds_found").record(fds.fds().len() as u64);

    Mined {
        fds,
        distinct_rows: nrows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    /// Fig. 1a-shaped toy: f determines g (each f value pairs with one g).
    fn table_fg_out(rows: &[(u64, u64, &str)]) -> (Catalog, Table) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let g = c.field("g", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        for &(fv, gv, o) in rows {
            t.row(vec![Value::Int(fv), Value::Int(gv)], vec![Value::sym(o)]);
        }
        (c, t)
    }

    fn has(m: &Mined, lhs: &[u32], rhs: u32) -> bool {
        let lhs: Vec<_> = lhs.iter().map(|&i| mapro_core::AttrId(i)).collect();
        let l = m.fds.universe.encode(&lhs);
        let r = m.fds.universe.encode(&[mapro_core::AttrId(rhs)]);
        m.fds.fds().contains(&Fd::new(l, r))
    }

    #[test]
    fn mines_simple_dependency() {
        // f → g holds; out is a key (all distinct).
        let (c, t) = table_fg_out(&[(1, 10, "a"), (2, 10, "b"), (3, 20, "c")]);
        let m = mine_fds(&t, &c);
        assert!(has(&m, &[0], 1)); // f → g
        assert!(!has(&m, &[1], 0)); // g does not determine f (g=10 → f∈{1,2})
        assert!(has(&m, &[2], 0)); // out → f (out distinct per row)
        assert!(has(&m, &[2], 1)); // out → g
        assert_eq!(m.distinct_rows, 3);
    }

    #[test]
    fn constants_mined_as_empty_lhs() {
        let (c, t) = table_fg_out(&[(1, 7, "a"), (2, 7, "b")]);
        let m = mine_fds(&t, &c);
        // g constant: ∅ → g, and that is the minimal LHS (not f → g).
        assert!(has(&m, &[], 1));
        assert!(!has(&m, &[0], 1));
    }

    #[test]
    fn no_spurious_dependencies() {
        // All combinations of f ∈ {1,2}, g ∈ {1,2}: nothing determines anything.
        let (c, t) = table_fg_out(&[(1, 1, "a"), (1, 2, "b"), (2, 1, "c"), (2, 2, "d")]);
        let m = mine_fds(&t, &c);
        assert!(!has(&m, &[0], 1));
        assert!(!has(&m, &[1], 0));
        // But out (unique) determines everything, minimally.
        assert!(has(&m, &[2], 0));
        assert!(has(&m, &[2], 1));
        // And (f,g) → out.
        assert!(has(&m, &[0, 1], 2));
    }

    #[test]
    fn duplicates_collapsed() {
        let (c, t) = table_fg_out(&[(1, 10, "a"), (1, 10, "a"), (2, 20, "b")]);
        let m = mine_fds(&t, &c);
        assert_eq!(m.distinct_rows, 2);
        assert!(has(&m, &[0], 1));
    }

    #[test]
    fn minimality_excludes_superset_lhs() {
        let (c, t) = table_fg_out(&[(1, 10, "a"), (2, 10, "b"), (3, 20, "c")]);
        let m = mine_fds(&t, &c);
        // (f,g) → out is minimal only if neither f→out nor g→out holds.
        // f is unique per row here, so f→out holds and (f,g)→out must not
        // be reported.
        assert!(has(&m, &[0], 2));
        let l = m
            .fds
            .universe
            .encode(&[mapro_core::AttrId(0), mapro_core::AttrId(1)]);
        assert!(!m.fds.fds().iter().any(|fd| fd.lhs == l));
    }

    #[test]
    fn mined_keys_match_instance_uniqueness() {
        let (c, t) = table_fg_out(&[(1, 10, "a"), (2, 10, "b"), (3, 20, "a")]);
        let m = mine_fds(&t, &c);
        let keys = m.fds.candidate_keys();
        // f alone identifies rows; out does not (repeated "a"); g does not.
        assert!(keys.contains(&m.fds.universe.encode(&[mapro_core::AttrId(0)])));
        for k in keys {
            assert!(m.fds.is_superkey(k));
        }
    }

    #[test]
    fn empty_and_singleton_tables() {
        let (c, t) = table_fg_out(&[]);
        let m = mine_fds(&t, &c);
        assert_eq!(m.distinct_rows, 0);
        let (c, t) = table_fg_out(&[(1, 2, "a")]);
        let m = mine_fds(&t, &c);
        // Single row: every column is constant.
        assert!(has(&m, &[], 0));
        assert!(has(&m, &[], 1));
        assert!(has(&m, &[], 2));
    }

    /// Brute-force reference: `X → A` holds iff no two rows agree on `X`
    /// and differ on `A`; minimal iff no proper subset of `X` also works.
    fn reference_minimal_fds(rows: &[Vec<u64>], n: usize) -> Vec<(u64, usize)> {
        let holds = |mask: u64, a: usize| -> bool {
            for i in 0..rows.len() {
                for j in i + 1..rows.len() {
                    let agree = (0..n).all(|p| mask & (1 << p) == 0 || rows[i][p] == rows[j][p]);
                    if agree && rows[i][a] != rows[j][a] {
                        return false;
                    }
                }
            }
            true
        };
        let mut out = Vec::new();
        for a in 0..n {
            for mask in 0u64..(1 << n) {
                if mask & (1 << a) != 0 || !holds(mask, a) {
                    continue;
                }
                let minimal = (0..n)
                    .filter(|p| mask & (1 << p) != 0)
                    .all(|p| !holds(mask & !(1 << p), a));
                if minimal {
                    out.push((mask, a));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The stripped-partition miner agrees with the brute-force reference
    /// on seeded random tables (the refine/holds fast paths cut no corner).
    #[test]
    fn mined_fds_match_brute_force_reference() {
        let mut state = 0x5eed_2019_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for ncols in [2usize, 3, 4, 5] {
            for _case in 0..6 {
                let nrows = 3 + (rng() % 10) as usize;
                let rows: Vec<Vec<u64>> = (0..nrows)
                    .map(|_| (0..ncols).map(|_| rng() % 3).collect())
                    .collect();
                // Deduplicate as the miner does.
                let mut dedup = rows.clone();
                dedup.sort_unstable();
                dedup.dedup();

                let mut c = Catalog::new();
                let fields: Vec<_> = (0..ncols).map(|i| c.field(format!("c{i}"), 8)).collect();
                let mut t = Table::new("t", fields, vec![]);
                for r in &rows {
                    t.row(r.iter().map(|&v| Value::Int(v)).collect(), vec![]);
                }
                let m = mine_fds(&t, &c);
                let mut got: Vec<(u64, usize)> = m
                    .fds
                    .fds()
                    .iter()
                    .map(|fd| (fd.lhs.0, fd.rhs.iter().next().expect("singleton rhs")))
                    .collect();
                got.sort_unstable();
                let want = reference_minimal_fds(&dedup, ncols);
                assert_eq!(got, want, "ncols={ncols} rows={rows:?}");
            }
        }
    }

    #[test]
    fn prefix_values_are_opaque() {
        // Two different prefixes are two different relational values.
        let mut c = Catalog::new();
        let f = c.field("f", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::prefix(0, 1, 32)], vec![Value::sym("a")]);
        t.row(
            vec![Value::prefix(0x8000_0000, 1, 32)],
            vec![Value::sym("b")],
        );
        let m = mine_fds(&t, &c);
        // f → out and out → f, no constants.
        assert!(has(&m, &[0], 1));
        assert!(has(&m, &[1], 0));
        assert!(!has(&m, &[], 0));
    }
}
