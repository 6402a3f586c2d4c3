//! # mapro-par — deterministic scoped work-stealing parallelism
//!
//! The analysis hot paths (semantic-equivalence checking, FD mining,
//! packet replay) all have the same shape: a statically known list of
//! independent tasks whose results must be combined *in submission order*
//! so that every seeded experiment stays bit-identical no matter how many
//! threads executed it. This crate provides exactly that and nothing more:
//!
//! - a scoped work-stealing pool over `std::thread` — per-worker chunk
//!   deques, steal-half when a worker runs dry, no allocation after the
//!   initial task split;
//! - an **ordered-reduction** API ([`Pool::map_ordered`],
//!   `Pool::map_ordered_with`): results come back indexed by submission
//!   order, so folds over them are independent of scheduling;
//! - **deterministic first-hit search** ([`Pool::find_first`]): tasks
//!   race, but the result reported is the one the *lowest-indexed* task
//!   produced — identical to a serial left-to-right scan;
//! - a cooperative [`CancelToken`] for early exit: cancelled workers
//!   drain their deques without running the remaining task bodies;
//! - thread-count resolution with a strict precedence — explicit
//!   [`set_threads`] (the `--threads` flag) over the `MAPRO_THREADS`
//!   environment variable over `std::thread::available_parallelism` —
//!   and an **inline path**: one thread means zero pool overhead (no
//!   spawns, no locks, same code the callers wrote before).
//!
//! Determinism argument: every task is a pure function of its index (plus
//! worker-local scratch state that never leaks into results), results are
//! reassembled by index before any reduction, and first-hit search takes
//! the minimum index over all hits. Scheduling order therefore cannot be
//! observed by callers; only wall-clock time changes with thread count.
//!
//! Zero dependencies outside the workspace (`mapro-obs` is itself
//! dependency-free and compiles to no-ops without the `obs` feature).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ------------------------------------------------------------ config ----

/// Explicit override set by `--threads` / [`set_threads`]; 0 = unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the global thread count (`0` clears the override and returns to
/// `MAPRO_THREADS` / auto detection). Called by the binaries' `--threads`
/// flag and by determinism tests.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Release);
}

/// The raw [`set_threads`] override (`0` = unset). Lets callers that
/// sweep thread counts (the scaling benchmark) save and restore whatever
/// the user configured.
pub fn thread_override() -> usize {
    THREAD_OVERRIDE.load(Ordering::Acquire)
}

/// Parse a thread-count argument: a positive integer.
pub fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid thread count {s:?}: expected a positive integer"
        )),
    }
}

/// Thread count requested via the `MAPRO_THREADS` environment variable:
/// `Ok(None)` when unset, `Err` when set to something unusable (binaries
/// surface this as a usage error instead of silently ignoring it).
pub fn env_threads() -> Result<Option<usize>, String> {
    match std::env::var("MAPRO_THREADS") {
        Ok(v) => parse_threads(&v)
            .map(Some)
            .map_err(|e| format!("MAPRO_THREADS: {e}")),
        Err(_) => Ok(None),
    }
}

/// Resolve the effective thread count: [`set_threads`] override, else a
/// *valid* `MAPRO_THREADS`, else `available_parallelism`, else 1.
pub fn configured_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Acquire);
    if o > 0 {
        return o;
    }
    if let Ok(Some(n)) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ------------------------------------------------------------ cancel ----

/// Cooperative cancellation flag shared between a pool run and its tasks.
///
/// Cancelling never interrupts a running task body; workers observe the
/// flag between tasks (and task bodies may poll it at convenient points)
/// and then *drain*: remaining queued tasks are discarded, every worker
/// exits, and the run returns the results produced so far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request early exit. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has early exit been requested?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ----------------------------------------------------------- control ----

/// Per-run control handle passed to task bodies: cancellation and the
/// first-hit race state for [`Pool::find_first`].
pub struct TaskCtl<'a> {
    cancel: &'a CancelToken,
    first_hit: &'a AtomicUsize,
}

impl TaskCtl<'_> {
    /// True when the run has been cancelled outright. Long task bodies
    /// should poll this at loop boundaries.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// True when a task with a *strictly lower* index has already produced
    /// a hit — this task's result can no longer win a first-hit search, so
    /// its body may stop early.
    pub fn superseded(&self, task: usize) -> bool {
        self.first_hit.load(Ordering::Acquire) < task
    }

    /// Record that `task` produced a hit (used by [`Pool::find_first`]).
    pub(crate) fn hit(&self, task: usize) {
        self.first_hit.fetch_min(task, Ordering::AcqRel);
        if mapro_obs::trace::active() {
            mapro_obs::trace::sched_instant("par.cancel", vec![("task", task.into())]);
        }
    }

    /// A task should be skipped without running its body: the run was
    /// cancelled, or a lower-indexed hit makes it irrelevant.
    fn skip(&self, task: usize) -> bool {
        self.is_cancelled() || self.superseded(task)
    }
}

/// Execution statistics of one pool run (exact, not sampled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Task bodies actually executed (skipped tasks are not counted).
    pub tasks_run: usize,
    /// Tasks skipped by cancellation or first-hit supersession.
    pub tasks_skipped: usize,
    /// Steal-half operations between worker deques.
    pub(crate) steals: u64,
    /// Workers spawned (0 for the inline single-thread path).
    pub(crate) workers: usize,
}

// -------------------------------------------------------------- pool ----

/// A scoped work-stealing thread pool of a fixed size.
///
/// The pool owns no threads between runs: each run spawns scoped workers,
/// which lets task closures borrow from the caller's stack freely. With
/// `threads == 1` (or a single task) no thread is spawned at all and the
/// run degenerates to the plain serial loop.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Pool of exactly `threads` workers (`>= 1`).
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1, "a pool needs at least one thread");
        Pool { threads }
    }

    /// Pool sized by the global configuration (see [`configured_threads`]).
    pub fn current() -> Pool {
        Pool::new(configured_threads())
    }

    /// Core primitive: run `ntasks` indexed tasks, each `f(state, index,
    /// ctl)`, over the pool and return all produced results **sorted by
    /// task index** together with run statistics.
    ///
    /// `init` builds one scratch `state` per worker (a probe table, a
    /// compiled classifier, …) which is reused across every task that
    /// worker executes — the "per-shard reuse" the hot paths rely on.
    /// Tasks returning `None` contribute nothing to the result vector.
    pub fn run_tasks_stats<S, R, FS, F>(
        &self,
        ntasks: usize,
        cancel: &CancelToken,
        init: FS,
        f: F,
    ) -> (Vec<(usize, R)>, RunStats)
    where
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &TaskCtl<'_>) -> Option<R> + Sync,
        R: Send,
        S: Send,
    {
        let first_hit = AtomicUsize::new(usize::MAX);
        let mut stats = RunStats::default();
        mapro_obs::counter!("par.runs").inc();

        // Inline path: no pool machinery at all.
        if self.threads == 1 || ntasks <= 1 {
            let ctl = TaskCtl {
                cancel,
                first_hit: &first_hit,
            };
            let mut state = init();
            let mut out = Vec::new();
            for i in 0..ntasks {
                if ctl.skip(i) {
                    stats.tasks_skipped += 1;
                    continue;
                }
                stats.tasks_run += 1;
                if let Some(r) = f(&mut state, i, &ctl) {
                    out.push((i, r));
                }
            }
            mapro_obs::counter!("par.tasks").add(stats.tasks_run as u64);
            return (out, stats);
        }

        let workers = self.threads.min(ntasks);
        // Logical trace parent for spans emitted inside task bodies:
        // workers inherit the spawning thread's innermost span path so
        // the span *tree* is identical at any thread count.
        let trace_parent = mapro_obs::trace::current_path();
        let mut run_span = mapro_obs::trace::sched_span("par.run");
        run_span.set("tasks", ntasks);
        run_span.set("workers", workers);
        // Contiguous block split: worker w starts on tasks
        // [w·n/W, (w+1)·n/W) so low indices (which first-hit search favors)
        // are attacked first by worker 0.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * ntasks / workers;
                let hi = (w + 1) * ntasks / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(ntasks));
        let steals = AtomicU64::new(0);
        let run_ctr = AtomicUsize::new(0);
        let skip_ctr = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let results = &results;
                let steals = &steals;
                let run_ctr = &run_ctr;
                let skip_ctr = &skip_ctr;
                let first_hit = &first_hit;
                let init = &init;
                let f = &f;
                let trace_parent = &trace_parent;
                scope.spawn(move || {
                    if mapro_obs::trace::active() {
                        mapro_obs::trace::set_track_name(&format!("worker-{w}"));
                    }
                    mapro_obs::trace::ambient_scope(trace_parent.clone(), || {
                        let mut worker_span = mapro_obs::trace::sched_span("par.worker");
                        let ctl = TaskCtl { cancel, first_hit };
                        let mut state = init();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let mut ran = 0usize;
                        let mut skipped = 0usize;
                        while let Some(i) = next_task(deques, w, steals) {
                            if ctl.skip(i) {
                                skipped += 1;
                                continue;
                            }
                            ran += 1;
                            if let Some(r) = f(&mut state, i, &ctl) {
                                local.push((i, r));
                            }
                        }
                        worker_span.set("ran", ran);
                        worker_span.set("skipped", skipped);
                        run_ctr.fetch_add(ran, Ordering::Relaxed);
                        skip_ctr.fetch_add(skipped, Ordering::Relaxed);
                        results.lock().expect("results lock").extend(local);
                    });
                });
            }
        });

        stats.tasks_run = run_ctr.load(Ordering::Relaxed);
        stats.tasks_skipped = skip_ctr.load(Ordering::Relaxed);
        stats.steals = steals.load(Ordering::Relaxed);
        stats.workers = workers;
        mapro_obs::counter!("par.tasks").add(stats.tasks_run as u64);
        mapro_obs::counter!("par.steals").add(stats.steals);

        let mut out = results.into_inner().expect("results lock");
        out.sort_unstable_by_key(|(i, _)| *i);
        (out, stats)
    }

    /// [`Pool::run_tasks_stats`] without the statistics.
    pub(crate) fn run_tasks<S, R, FS, F>(
        &self,
        ntasks: usize,
        cancel: &CancelToken,
        init: FS,
        f: F,
    ) -> Vec<(usize, R)>
    where
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &TaskCtl<'_>) -> Option<R> + Sync,
        R: Send,
        S: Send,
    {
        self.run_tasks_stats(ntasks, cancel, init, f).0
    }

    /// Apply `f` to every item and return the results in item order —
    /// the ordered reduction: any fold over the returned vector sees
    /// results exactly as a serial left-to-right run would produce them.
    pub fn map_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_ordered_with(items, || (), move |_, i, t| f(i, t))
    }

    /// [`Pool::map_ordered`] with per-worker scratch state built by `init`
    /// and reused across all tasks a worker executes.
    pub(crate) fn map_ordered_with<S, T, R, FS, F>(&self, items: &[T], init: FS, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let cancel = CancelToken::new();
        let res = self.run_tasks(items.len(), &cancel, init, |s, i, _| {
            Some(f(s, i, &items[i]))
        });
        debug_assert_eq!(res.len(), items.len(), "uncancelled map loses no task");
        res.into_iter().map(|(_, r)| r).collect()
    }

    /// Deterministic first-hit search: run tasks `0..ntasks` in parallel;
    /// a task may return `Some(hit)`. The hit of the **lowest-indexed**
    /// task is returned — identical to what a serial left-to-right scan
    /// would report — and higher-indexed tasks are cancelled as soon as a
    /// lower hit exists (they are skipped if not yet started; running
    /// bodies can poll [`TaskCtl::superseded`] to stop early).
    pub fn find_first<R, F>(&self, ntasks: usize, cancel: &CancelToken, f: F) -> Option<R>
    where
        R: Send,
        F: Fn(usize, &TaskCtl<'_>) -> Option<R> + Sync,
    {
        let hits = self.run_tasks(
            ntasks,
            cancel,
            || (),
            |_, i, ctl| {
                let r = f(i, ctl);
                if r.is_some() {
                    ctl.hit(i);
                }
                r
            },
        );
        // Sorted by index: the first element is the domain-order winner.
        hits.into_iter().next().map(|(_, r)| r)
    }
}

/// Split `0..len` into contiguous ranges of at most `chunk` elements.
/// The split depends only on `len` and `chunk` — never on thread count —
/// so chunked task indices mean the same thing at any pool size.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk >= 1, "chunk size must be positive");
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

/// Pop from our own deque, else steal the back half of the first
/// non-empty victim (steal-half keeps thieves fed without re-stealing
/// every task individually; the victim keeps its low-index front, which
/// first-hit search prioritizes).
fn next_task(deques: &[Mutex<VecDeque<usize>>], me: usize, steals: &AtomicU64) -> Option<usize> {
    if let Some(i) = deques[me].lock().expect("deque lock").pop_front() {
        return Some(i);
    }
    let n = deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        let stolen = {
            let mut v = deques[victim].lock().expect("deque lock");
            let len = v.len();
            if len == 0 {
                continue;
            }
            v.split_off(len - len.div_ceil(2))
        };
        steals.fetch_add(1, Ordering::Relaxed);
        if mapro_obs::trace::active() {
            mapro_obs::trace::sched_instant(
                "par.steal",
                vec![("victim", victim.into()), ("count", stolen.len().into())],
            );
        }
        let mut mine = deques[me].lock().expect("deque lock");
        *mine = stolen;
        return mine.pop_front();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = Pool::new(threads).map_ordered(&items, |_, x| x * x);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_reused_not_rebuilt() {
        let inits = AtomicUsize::new(0);
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..256).collect();
        let out = pool.map_ordered_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, _, &x| {
                *seen += 1;
                x
            },
        );
        assert_eq!(out.len(), 256);
        let inits = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&inits),
            "one state per worker, not per task (got {inits})"
        );
    }

    #[test]
    fn find_first_reports_lowest_index_hit() {
        // Hits at 37, 41, 900 — every thread count must report 37.
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let got = pool.find_first(1000, &CancelToken::new(), |i, _| {
                [37usize, 41, 900].contains(&i).then_some(i)
            });
            assert_eq!(got, Some(37), "threads={threads}");
        }
    }

    #[test]
    fn find_first_none_when_no_hit() {
        assert_eq!(
            Pool::new(4).find_first(100, &CancelToken::new(), |_, _| None::<usize>),
            None
        );
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let ranges = chunk_ranges(10, 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert!(chunk_ranges(0, 5).is_empty());
        let ranges = chunk_ranges(6, 6);
        assert_eq!(ranges, vec![0..6]);
    }

    #[test]
    fn stealing_happens_under_skew() {
        // Worker 0's block is slow, the rest are instant: with 2 workers
        // the fast one must steal from the slow one's deque to finish.
        let pool = Pool::new(2);
        let cancel = CancelToken::new();
        let (_out, stats) = pool.run_tasks_stats(
            64,
            &cancel,
            || (),
            |_, i, _| {
                if i < 32 {
                    std::thread::sleep(std::time::Duration::from_micros(300));
                }
                Some(i)
            },
        );
        assert_eq!(stats.tasks_run, 64);
        assert_eq!(stats.workers, 2);
        assert!(stats.steals > 0, "expected at least one steal-half");
    }

    #[test]
    fn inline_path_spawns_no_workers() {
        let (out, stats) =
            Pool::new(1).run_tasks_stats(100, &CancelToken::new(), || (), |_, i, _| Some(i));
        assert_eq!(out.len(), 100);
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn thread_parsing() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 1 "), Ok(1));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("lots").is_err());
    }
}
