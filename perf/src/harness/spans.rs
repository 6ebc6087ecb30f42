//! An in-memory span recorder.
//!
//! The load generator wraps each of its own calls into the middleware
//! in a span: name, start, end, and the span that caused it; the spans
//! of one request share a request id. Nothing is written while the
//! benchmark runs — spans are aggregated (and optionally dumped) at
//! exit. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use super::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Recorder::enter`]; pass it to [`Recorder::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: Option<u32>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate over all recorded spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times, ns.
    pub self_ns: u64,
}

/// Records spans on one thread. Disabled, `enter`/`exit` cost one
/// branch, so the same driver code runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, initially disabled.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off; only between requests.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request: spans entered from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = super::nanos_since(self.origin);
        self.enter_at(name, now)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let now = super::nanos_since(self.origin);
        self.exit_at(id, now);
    }

    /// [`Recorder::enter`] with an explicit timestamp.
    pub fn enter_at(&mut self, name: &'static str, at_ns: u64) -> SpanId {
        let name = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name: u16::try_from(name).expect("fewer than 2^16 span names"),
            parent: self.open.last().copied(),
            request: self.request,
            start_ns: at_ns,
            end_ns: at_ns,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// [`Recorder::exit`] with an explicit timestamp.
    pub fn exit_at(&mut self, id: SpanId, at_ns: u64) {
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        self.spans[id.0 as usize].end_ns = at_ns;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        assert!(self.open.is_empty(), "aggregated with a span still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let t = totals.entry(self.names[span.name as usize]).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Every span as a JSON array, in start order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(i as f64)),
                        ("name".into(), Json::Str(self.names[s.name as usize].into())),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("request".into(), Json::Num(s.request as f64)),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Recorder {
        let mut r = Recorder::with_capacity(16);
        r.set_enabled(true);
        r
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // request [0,100]
        //   submit [10,40]
        //     route [15,25]
        //   step   [40,90]
        //     invoke [45,60]
        //     commit [60,85]
        //       ship [70,80]
        let mut r = recorder();
        r.next_request();
        let request = r.enter_at("request", 0);
        let submit = r.enter_at("submit", 10);
        let route = r.enter_at("route", 15);
        r.exit_at(route, 25);
        r.exit_at(submit, 40);
        let step = r.enter_at("step", 40);
        let invoke = r.enter_at("invoke", 45);
        r.exit_at(invoke, 60);
        let commit = r.enter_at("commit", 60);
        let ship = r.enter_at("ship", 70);
        r.exit_at(ship, 80);
        r.exit_at(commit, 85);
        r.exit_at(step, 90);
        r.exit_at(request, 100);

        let t = r.totals();
        assert_eq!(t["request"].self_ns, 100 - 30 - 50); // two siblings
        assert_eq!(t["submit"].self_ns, 30 - 10);
        assert_eq!(t["route"].self_ns, 10);
        assert_eq!(t["step"].self_ns, 50 - 15 - 25); // siblings, not the grandchild
        assert_eq!(t["invoke"].self_ns, 15);
        assert_eq!(t["commit"].self_ns, 25 - 10);
        assert_eq!(t["ship"].self_ns, 10);
        // Self times partition the root interval exactly.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(t["step"].total_ns, 50);
    }

    #[test]
    fn repeated_names_aggregate_and_requests_are_tagged() {
        let mut r = recorder();
        for i in 0..3u64 {
            r.next_request();
            let op = r.enter_at("op", i * 10);
            let inner = r.enter_at("inner", i * 10 + 2);
            r.exit_at(inner, i * 10 + 5);
            r.exit_at(op, i * 10 + 8);
        }
        let t = r.totals();
        assert_eq!(
            t["op"],
            SpanTotals {
                count: 3,
                total_ns: 24,
                self_ns: 15
            }
        );
        assert_eq!(t["inner"].count, 3);
        let Json::Arr(spans) = r.to_json() else {
            panic!("array")
        };
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[5].get("request").and_then(Json::as_f64), Some(3.0));
        assert_eq!(spans[5].get("parent").and_then(Json::as_f64), Some(4.0));
        assert_eq!(spans[4].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::with_capacity(0);
        let id = r.enter("op");
        r.exit(id);
        assert!(r.is_empty());
        r.set_enabled(true);
        let id = r.enter("op");
        r.exit(id);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn out_of_order_exit_is_a_bug() {
        let mut r = recorder();
        let a = r.enter_at("a", 0);
        let _b = r.enter_at("b", 1);
        r.exit_at(a, 2);
    }
}
