//! # mapro-obs — zero-dependency metrics and tracing
//!
//! The measurement substrate for the workspace: the paper's evaluation
//! (§6) is entirely about *measured* effects of normalization, so every
//! hot path — pipeline evaluation, classifier lookups, FD mining,
//! decomposition, rule churn — records into this crate and the `repro`
//! harness dumps a [`MetricsReport`] per run.
//!
//! Design rules:
//!
//! - **No dependencies.** Importable from every crate without cycles.
//! - **Near-free.** Counters are single relaxed atomic adds; histograms
//!   are one atomic add into a power-of-two bucket. With the `enabled`
//!   feature off (dependent crates expose it as their `obs` feature),
//!   every operation compiles to an inline empty body and [`ScopedTimer`]
//!   never reads the clock.
//! - **Global registry, cached handles.** Call-site pattern:
//!
//!   ```
//!   use std::sync::{Arc, OnceLock};
//!   use mapro_obs::{registry, Counter};
//!
//!   fn packets() -> &'static Arc<Counter> {
//!       static M: OnceLock<Arc<Counter>> = OnceLock::new();
//!       M.get_or_init(|| registry().counter("core.pipeline.runs"))
//!   }
//!
//!   packets().inc();
//!   ```
//!
//!   or, equivalently, the [`counter!`]/[`gauge!`]/[`histogram!`]/[`time!`]
//!   macros, which expand to exactly that pattern.
//!
//! - **Naming convention** `crate.component.metric`, e.g.
//!   `classifier.tss.probes`. Durations are histograms in
//!   nanoseconds and end in `_ns`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of power-of-two histogram buckets: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub(crate) const BUCKETS: usize = 65;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub(crate) fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A value that can go up and down (e.g. installed rule count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub(crate) fn new() -> Self {
        Gauge::default()
    }

    /// Set to an absolute value.
    #[inline(always)]
    pub fn set(&self, v: i64) {
        #[cfg(feature = "enabled")]
        self.value.store(v, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Add a (possibly negative) delta.
    #[inline(always)]
    pub fn add(&self, delta: i64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(delta, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = delta;
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }

    /// Reset to zero.
    pub(crate) fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds or
/// probe counts). Records are one relaxed atomic add; quantiles are
/// approximate with one-power-of-two resolution, `max` is exact.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`, so
/// bucket `i` covers `[2^(i-1), 2^i)`.
#[inline(always)]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (used as its quantile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "enabled")]
        {
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
            self.max.fetch_max(v, Relaxed);
            self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest recorded sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`. Within
    /// one power of two of the true value; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count.load(Relaxed);
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Relaxed);
            if cum >= rank {
                // The top bucket's nominal bound overstates; cap by the
                // exact max.
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Reset all buckets and statistics to zero.
    pub(crate) fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }

    /// Point-in-time summary of count/sum/mean, quantiles, and max.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// RAII timer recording elapsed nanoseconds into a [`Histogram`] on drop;
/// [`ScopedTimer::new`] takes an explicit (cached) histogram.
///
/// With the `enabled` feature off, construction is free and the clock is
/// never read.
#[must_use = "a ScopedTimer records on drop; binding it to `_` drops immediately"]
pub struct ScopedTimer {
    #[cfg(feature = "enabled")]
    inner: Option<TimerInner>,
    #[cfg(not(feature = "enabled"))]
    _noop: (),
}

#[cfg(feature = "enabled")]
struct TimerInner {
    hist: Arc<Histogram>,
    start: Instant,
}

impl ScopedTimer {
    /// Time until drop into `hist`.
    #[inline]
    pub fn new(hist: &Arc<Histogram>) -> Self {
        #[cfg(feature = "enabled")]
        {
            ScopedTimer {
                inner: Some(TimerInner {
                    hist: Arc::clone(hist),
                    start: Instant::now(),
                }),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = hist;
            ScopedTimer { _noop: () }
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = self.inner.take() {
            inner.hist.record(inner.start.elapsed().as_nanos() as u64);
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A name-keyed collection of metrics. Usually accessed through the
/// process-wide [`registry()`], but independent instances are handy in
/// tests.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<HashMap<String, Metric>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Snapshot every registered metric, sorted by name (deterministic).
    pub fn snapshot(&self) -> MetricsReport {
        let m = self.metrics.lock().unwrap();
        let mut entries: Vec<MetricEntry> = m
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                },
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            meta: Vec::new(),
            entries,
        }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        let m = self.metrics.lock().unwrap();
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry all instrumentation records into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Point-in-time summary statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact mean.
    pub(crate) mean: f64,
    /// Approximate median (one-power-of-two resolution).
    pub(crate) p50: u64,
    /// Approximate 90th percentile.
    pub(crate) p90: u64,
    /// Approximate 99th percentile.
    pub(crate) p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// One named metric in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Metric name (`crate.component.metric`).
    pub name: String,
    /// Snapshot value.
    pub value: MetricValue,
}

/// A deterministic (name-sorted) snapshot of a [`Registry`], renderable
/// as an aligned text table or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Run metadata (`key`, `value`) pairs embedded in the JSON header
    /// so an artifact is self-describing: seed, thread count, crate
    /// version, experiment id. Empty by default; populate with
    /// [`MetricsReport::with_meta`].
    pub(crate) meta: Vec<(String, String)>,
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsReport {
    /// Append one metadata pair (builder-style) for the JSON header.
    pub fn with_meta(mut self, key: &str, value: impl ToString) -> Self {
        self.meta.push((key.to_owned(), value.to_string()));
        self
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{:<width$}  counter    {v}", e.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{:<width$}  gauge      {v}", e.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{:<width$}  histogram  count={} mean={:.1} p50={} p90={} p99={} max={}",
                        e.name, h.count, h.mean, h.p50, h.p90, h.p99, h.max
                    );
                }
            }
        }
        out
    }

    /// Render as pretty-printed JSON (hand-written — this crate has no
    /// dependencies; see the `serde` feature of downstream crates for
    /// typed serialization).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        if !self.meta.is_empty() {
            out.push_str("  \"meta\": {");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n    {}: {}", json_str(k), json_str(v));
            }
            out.push_str("\n  },\n");
        }
        out.push_str("  \"metrics\": {");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: ", json_str(&e.name));
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{{\"kind\": \"counter\", \"value\": {v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{{\"kind\": \"gauge\", \"value\": {v}}}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                        h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.max
                    );
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Escape a string as a JSON literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Call-site convenience macros
// ---------------------------------------------------------------------

/// Cached [`Counter`] handle for a hot call site: resolves the registry
/// entry once per site and returns `&'static Arc<Counter>` afterwards.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        __OBS_H.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Cached [`Gauge`] handle for a hot call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __OBS_H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        __OBS_H.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Cached [`Histogram`] handle for a hot call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __OBS_H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        __OBS_H.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// RAII timer recording elapsed nanoseconds into the named histogram on
/// drop. Binds the guard to a local so it lives to end of scope:
/// `let _t = obs::time!("core.pipeline.eval_ns");`
#[macro_export]
macro_rules! time {
    ($name:expr) => {
        $crate::ScopedTimer::new($crate::histogram!($name))
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let r = Registry::new();
        let c = r.counter("a.b.c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("a.b.c").get(), 5, "same handle by name");
        let g = r.gauge("a.b.g");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn timer_records() {
        let r = Registry::new();
        let h = r.histogram("t.ns");
        {
            let _t = ScopedTimer::new(&h);
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }
}
