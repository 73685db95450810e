//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public API: name, request id, parent span, start and end.
//! They stay in memory while the workload runs and are written out once
//! at the end. With tracing off, [`Tracer::span`] records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on recorded spans, so a long traced run cannot grow
/// without limit; spans past it are counted as dropped.
const MAX_SPANS: usize = 2_000_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for none.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if o.last() == Some(&self.id) {
                o.pop();
            }
        });
        let mut spans = self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                req: self.req,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        } else {
            self.tracer.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for request `req`; it closes when the
    /// guard drops. A no-op when tracing is off.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: 0,
                req,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied().unwrap_or(0);
            o.push(id);
            p
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            req,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Durations in seconds of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Totals per span name. Children of one span run on its thread one
    /// after another, so the time they cover is the sum of their
    /// durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let _op = t.span("op", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _c = t.span("child", 7);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let totals = t.totals();
        let op = totals["op"];
        let child = totals["child"];
        assert_eq!((op.count, child.count), (1, 1));
        assert!((op.total_s - op.self_s - child.total_s).abs() < 1e-9);
        assert!(child.self_s == child.total_s);
        let spans = t.spans.lock().unwrap();
        let c = spans.iter().find(|s| s.name == "child").unwrap();
        let o = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!((c.parent, c.req, o.parent), (o.id, 7, 0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("op", 1);
        }
        assert_eq!(t.len(), 0);
        assert!(t.totals().is_empty());
    }
}
