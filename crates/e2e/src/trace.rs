//! Harness-side spans: recorded around each call into a layer, kept in
//! memory, written as Chrome trace JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `packet.parse` or `control.apply_plan`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one burst, intent or program.
    pub request: u64,
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// The instant every span is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Recorder::close`]. Lets a parent be
    /// named before its children exist.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, request)
    }

    /// Close a span opened with [`Recorder::open`]; returns its duration.
    pub fn close(&mut self, idx: usize) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Time `f` as a child span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, request);
        (out, end - start)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the spans over when the run ends.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover (children are disjoint: the harness is
/// single-threaded and closes a child before opening its sibling).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
    }
    out
}

/// Render spans in the Chrome trace-event format (`chrome://tracing`,
/// Perfetto): complete events, one track per request.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.request,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::default();
        let intent = r.push("intent", 0, 100, None, 7);
        let plan = r.push("control.apply_plan", 10, 70, Some(intent), 7);
        r.push("switch.live.deliver", 20, 50, Some(plan), 7);
        r.push("switch.cache.apply_update", 70, 95, Some(intent), 7);
        let st = self_times(r.spans());
        assert_eq!(st["intent"], 100 - 60 - 25);
        assert_eq!(st["control.apply_plan"], 60 - 30);
        assert_eq!(st["switch.live.deliver"], 30);
        assert_eq!(st["switch.cache.apply_update"], 25);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_sums_over_spans_of_one_name() {
        let mut r = Recorder::default();
        for k in 0..3 {
            let b = r.push("burst", k * 100, k * 100 + 90, None, k);
            r.push("packet.parse", k * 100, k * 100 + 30, Some(b), k);
        }
        let st = self_times(r.spans());
        assert_eq!(st["burst"], 3 * 60);
        assert_eq!(st["packet.parse"], 3 * 30);
    }

    #[test]
    fn chrome_json_parses_and_keeps_parent_links() {
        let mut r = Recorder::default();
        let a = r.open("intent", None, 1);
        r.time("control.apply_plan", Some(a), 1, || ());
        r.close(a);
        let doc = serde_json::parse(&chrome_json(r.spans())).expect("valid JSON");
        let serde::Content::Seq(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&serde::Content::U64(0))
        );
    }
}
