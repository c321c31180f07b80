//! In-memory spans around the calls the harness makes into each layer.
//!
//! Spans are recorded from outside the program under test (this PR adds
//! no instrumentation to `crates/**`): one span per call into a layer's
//! public function, or per timed loop of such calls with `count` saying
//! how many. Nothing is written until the pass ends ([`Tracer::to_json`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it;
/// spans of one client request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: Option<u64>,
    /// Calls covered by the interval (1 for a single call).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Timing always happens (end-to-end numbers such as
/// `setup_s` need it untraced too); spans are kept only when enabled.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of whatever starts next.
    open: Vec<usize>,
    /// Request spans seen but not kept (see [`Tracer::MAX_REQUEST_SPANS`]).
    dropped_requests: u64,
    kept_requests: u64,
}

impl Tracer {
    /// Request spans kept for the trace file. Percentiles are computed
    /// from every request before sampling; this only bounds the file.
    pub const MAX_REQUEST_SPANS: u64 = 20_000;

    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            dropped_requests: 0,
            kept_requests: 0,
        }
    }

    /// The clock every span is stamped against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// elapsed seconds. Spans opened by `f` become children.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.timed_n(name, |t| (f(t), 1))
    }

    /// [`timed`](Self::timed) for a loop: `f` also returns how many calls
    /// the interval covered.
    pub fn timed_n<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> (T, f64) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                request_id: None,
                count: 1,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let (value, count) = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(slot) = slot {
            self.spans[slot].end_ns = self.now_ns();
            self.spans[slot].count = count;
            self.open.pop();
        }
        (value, secs)
    }

    /// Record one client request (stamped by a client thread against
    /// [`epoch`](Self::epoch)) and the two calls it made into the client
    /// layer as its children. Kept up to the file cap, counted beyond.
    pub fn request(&mut self, request_id: u64, times: &RequestTimes) {
        if !self.enabled {
            return;
        }
        if self.kept_requests >= Self::MAX_REQUEST_SPANS {
            self.dropped_requests += 1;
            return;
        }
        self.kept_requests += 1;
        let parent = self.open.last().copied();
        let request = self.spans.len();
        let mut push = |name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                request_id: Some(request_id),
                count: 1,
            });
        };
        push("client.request", times.send_start, times.recv_end, parent);
        push(
            "serve.proto.client_send",
            times.send_start,
            times.send_end,
            Some(request),
        );
        push(
            "serve.proto.client_recv",
            times.recv_start,
            times.recv_end,
            Some(request),
        );
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of it its direct
    /// children cover (children may overlap each other; covered time is
    /// the union).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for child in &self.spans {
            if let Some(parent) = child.parent {
                let span = &self.spans[parent];
                let clipped = (
                    child.start_ns.max(span.start_ns),
                    child.end_ns.min(span.end_ns),
                );
                if clipped.1 > clipped.0 {
                    children[parent].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, children)| {
                children.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in children.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// `(calls, total ns, self ns)` per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&str, (u64, u64, u64)> {
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = totals.entry(span.name.as_str()).or_default();
            entry.0 += span.count;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        totals
    }

    /// Every kept span as one JSON document, a span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":1,\"dropped_request_spans\":{},\"spans\":[",
            self.dropped_requests
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"count\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request_id),
                span.count
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The four stamps a traced client request carries, in nanoseconds since
/// the tracer's epoch: around the send call and around the receive call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTimes {
    pub send_start: u64,
    pub send_end: u64,
    pub recv_start: u64,
    pub recv_end: u64,
}

impl RequestTimes {
    pub fn latency_ns(&self) -> u64 {
        self.recv_end.saturating_sub(self.send_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request_id: None,
            count: 1,
        }
    }

    #[test]
    fn nesting_sets_parents_and_disabled_keeps_nothing() {
        let mut tracer = Tracer::new(true);
        let ((), secs) = tracer.timed("outer", |t| {
            t.timed("inner", |_| ());
            t.timed_n("loop", |_| ((), 7));
        });
        assert!(secs >= 0.0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].count, 7);
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false);
        let (value, _) = off.timed("outer", |_| 5);
        assert_eq!(value, 5);
        off.request(1, &RequestTimes::default());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("grandchild", 12, 20, Some(1)),
        ];
        // covered: [10,60) = 50 and [90,100) = 10
        assert_eq!(tracer.self_ns(), [40, 22, 30, 30, 8]);
        let by_name = tracer.totals_by_name();
        assert_eq!(by_name["parent"], (1, 100, 40));
        assert_eq!(by_name["grandchild"], (1, 8, 8));
    }

    #[test]
    fn request_spans_share_an_id_and_are_capped() {
        let mut tracer = Tracer::new(true);
        let times = RequestTimes {
            send_start: 5,
            send_end: 8,
            recv_start: 9,
            recv_end: 30,
        };
        tracer.timed("segment", |t| {
            for id in 0..Tracer::MAX_REQUEST_SPANS + 3 {
                t.request(id, &times);
            }
        });
        assert_eq!(tracer.dropped_requests, 3);
        let spans = tracer.spans();
        assert_eq!(spans[1].name, "client.request");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[3].request_id, Some(0));
        // request self time = latency minus the two client calls
        assert_eq!(tracer.self_ns()[1], 25 - 3 - 21);
        assert_eq!(times.latency_ns(), 25);
    }
}
