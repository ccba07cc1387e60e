//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the program's public functions; nothing inside the program is
//! instrumented. Each span carries a name, start, end, parent and a
//! study id (the seed of the study it belongs to). Spans stay in memory
//! and are written once, with the iteration's result.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Serialize, Value};

/// Index of a recorded span; children name their parent by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub study: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Thread-safe span recorder: spans may open on pool workers, naming a
/// parent that opened on another thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so it can parent spans of its own.
    pub fn span<R>(
        &self,
        name: &'static str,
        study: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span recorder poisoned by a panic");
            spans.push(Span {
                name,
                study,
                parent: parent.map(|p| p.0),
                start: 0.0,
                end: 0.0,
            });
            spans.len() - 1
        };
        let start = self.now();
        let out = f(SpanId(id));
        let end = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panic");
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    /// Closes recording and returns every span, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span recorder poisoned by a panic")
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

fn child_intervals(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut children = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    children
}

/// Per-name sums of self time (span duration minus the union of its
/// children) and of inclusive time (the whole span).
pub struct Times {
    pub self_s: BTreeMap<&'static str, f64>,
    pub inclusive_s: BTreeMap<&'static str, f64>,
}

pub fn times(spans: &[Span]) -> Times {
    let children = child_intervals(spans);
    let mut self_s = BTreeMap::new();
    let mut inclusive_s = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = s.duration() - union_len(kids, s.start, s.end);
        *self_s.entry(s.name).or_insert(0.0) += own.max(0.0);
        *inclusive_s.entry(s.name).or_insert(0.0) += s.duration();
    }
    Times {
        self_s,
        inclusive_s,
    }
}

/// Share of the `container` spans covered by their children, the named
/// layer spans: the union of each container's children over its own
/// interval, summed over the containers and divided by their summed
/// length.
pub fn coverage(spans: &[Span], container: &str) -> f64 {
    let children = child_intervals(spans);
    let (mut covered, mut wall) = (0.0, 0.0);
    for (s, kids) in spans.iter().zip(children) {
        if s.name == container {
            covered += union_len(kids, s.start, s.end);
            wall += s.duration();
        }
    }
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}

/// The spans as a JSON array, for the trace file.
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Object(vec![
                    ("id".into(), i.to_value()),
                    ("name".into(), s.name.to_value()),
                    ("study".into(), s.study.to_value()),
                    ("parent".into(), s.parent.to_value()),
                    ("start_s".into(), s.start.to_value()),
                    ("end_s".into(), s.end.to_value()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            study: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 5.0),
            span("b", Some(0), 3.0, 6.0),
        ];
        let t = times(&spans);
        assert!((t.self_s["root"] - 5.0).abs() < 1e-12);
        assert!((t.inclusive_s["root"] - 10.0).abs() < 1e-12);
        assert!((coverage(&spans, "root") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_sums_over_every_container() {
        let spans = vec![
            span("root", None, 0.0, 8.0),
            span("seed", Some(0), 0.0, 4.0),
            span("seed", Some(0), 4.0, 8.0),
            span("layer", Some(1), 0.0, 4.0),
            span("layer", Some(2), 4.0, 6.0),
        ];
        assert!((coverage(&spans, "seed") - 0.75).abs() < 1e-12);
        assert!((coverage(&spans, "root") - 1.0).abs() < 1e-12);
    }
}
