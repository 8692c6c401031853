//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start, end, the span that caused it and an
//! optional work count (cells placed, steps simulated, …). Spans nest
//! through a per-thread stack; a span caused on another thread (a pool
//! worker running a job its batch submitted, or the server executing a
//! job a client dispatched) names its parent explicitly. Nothing is
//! written until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span open on this
    /// thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.span_under(name, parent)
    }

    /// Opens a span with an explicit parent (a span of another thread).
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> Guard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard {
            rec: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            work: 0,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    work: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }

    pub fn set_work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                work: self.work,
            });
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children (two workers under one
/// batch) count once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Totals per span name, with self time.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_time_ns(s, kids);
        t.work += s.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let root = span(1, None, 0, 100);
        // Two overlapping children [10,40) ∪ [30,60) = 50, one disjoint
        // [70,80) = 10, one spilling past the end [95,120) → 5.
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 60);
        let c = span(4, Some(1), 70, 80);
        let d = span(5, Some(1), 95, 120);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c, &d]), 100 - 50 - 10 - 5);
        assert_eq!(self_time_ns(&root, &[]), 100);
        // A child nested inside another child is still covered once.
        let inner = span(6, Some(1), 15, 20);
        assert_eq!(self_time_ns(&root, &[&a, &inner]), 70);
    }

    #[test]
    fn layer_totals_split_self_and_total_time() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 10, 70)];
        spans[1].name = "child";
        spans[1].work = 7;
        let t = layer_totals(&spans);
        assert_eq!(t["t"].self_ns, 40);
        assert_eq!(t["t"].total_ns, 100);
        assert_eq!(t["child"].self_ns, 60);
        assert_eq!(t["child"].work, 7);
    }

    #[test]
    fn recorder_nests_on_one_thread_and_links_across_threads() {
        let rec = Recorder::default();
        let outer_id;
        {
            let outer = rec.span("outer");
            outer_id = outer.id();
            {
                let _inner = rec.span("inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _remote = rec.span_under("remote", Some(outer_id));
                    let _leaf = rec.span("leaf");
                });
            });
        }
        let spans = rec.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("outer").parent, None);
        assert_eq!(by("inner").parent, Some(outer_id));
        assert_eq!(by("remote").parent, Some(outer_id));
        assert_eq!(by("leaf").parent, Some(by("remote").id));
    }
}
