//! In-memory spans around the harness's calls into each layer.
//!
//! The traced run wraps every call into a product crate in a span named
//! after the crate and module it enters (`lk.chain_step`,
//! `distclk.node.step`, …). Spans nest by call order on the calling
//! thread; a layer's *self time* is its span's duration minus the time
//! its direct children cover. Spans are kept in memory and written to
//! `benchmark/out/trace-<workload>.json` when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The repetition (solver workloads) or job (service) the span
    /// belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: end-to-end runs pass it to the
    /// code they share with traced runs, so that they measure with
    /// tracing off.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; the span's parent is the innermost span
    /// still open on this tracer.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let id = self.push(name, request, start_ns, start_ns);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a span measured elsewhere (start and end relative to
    /// [`Tracer::epoch`]), e.g. one phase of a job timed on its client.
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.push(name, request, start_ns, end_ns);
        }
    }

    fn push(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() * 1e-9
    }

    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("request", Json::Num(s.request as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
            ])
        });
        let layers = self.layer_times().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("layers", Json::obj(layers)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Aggregate spans by name: call count, total time, and self time
/// (duration minus the durations of direct children).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            request: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { b 15..25 }, a 50..70 }
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["a"],
            LayerTime {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            t["b"],
            LayerTime {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut tr = Tracer::new();
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| ());
            tr.span("inner", 7, |_| ());
        });
        tr.span("outer", 8, |_| ());
        let parents: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name, s.request, s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("outer", 7, None),
                ("inner", 7, Some(0)),
                ("inner", 7, Some(0)),
                ("outer", 8, None)
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.durations_ns("inner").len(), 2);
        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", 1, |tr| tr.span("inner", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
        let json = tr.to_json("w").to_string();
        assert!(Json::parse(&json).is_ok());
    }
}
