//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call from this crate into a crate's public function.

use crate::report::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this id.
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Records spans relative to a shared origin. Each thread owns one
/// recorder; `id_base` keeps ids unique across recorders.
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, id_base: u64) -> Recorder {
        Recorder {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id for children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.origin.elapsed();
        let idx = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: start,
        });
        let out = f(self, id);
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Record an already-measured child interval (phases a call reports
    /// about itself, such as `RunStats`' plan/filter/join split).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Duration,
        len: Duration,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request,
            name,
            start,
            end: start + len,
        });
    }

    pub fn start_of(&self, id: u64) -> Duration {
        self.spans
            .iter()
            .find(|s| s.id == id)
            .map_or(Duration::ZERO, |s| s.start)
    }
}

/// Total time covered by `intervals` inside `[lo, hi]`.
fn covered(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per span name: count, total time and self time (total minus the part
/// of each span its children cover).
#[derive(Debug, Default, Clone, Copy)]
struct SelfTime {
    pub count: u64,
    pub total: Duration,
    pub own: Duration,
}

fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur.saturating_sub(covered(kids, s.start, s.end));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += dur;
        e.own += own;
    }
    out
}

pub fn self_times_json(spans: &[Span]) -> Json {
    let mut obj = Json::obj();
    for (name, t) in self_times(spans) {
        obj = obj.set(
            name,
            Json::obj()
                .int("count", t.count)
                .num("total_ms", t.total.as_secs_f64() * 1e3)
                .num("self_ms", t.own.as_secs_f64() * 1e3),
        );
    }
    obj
}

/// One JSON object per line, in start order.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let mut out = String::new();
    for s in sorted {
        let mut j = Json::obj()
            .int("id", s.id)
            .int("request", s.request)
            .str("name", s.name)
            .num("start_us", s.start.as_secs_f64() * 1e6)
            .num("end_us", s.end.as_secs_f64() * 1e6);
        j = match s.parent {
            Some(p) => j.int("parent", p),
            None => j.set("parent", Json::Null),
        };
        out.push_str(&j.render());
        out.push('\n');
    }
    out
}
