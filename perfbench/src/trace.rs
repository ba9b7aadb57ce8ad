//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the id of the span that caused it, and the id of the request
//! it belongs to (0 when it belongs to none). Spans nest per thread via
//! a stack, so a span's self time — its duration minus the part its
//! children cover — is derived when it closes. Per-name totals are kept
//! for every span; the spans themselves are kept up to a cap and written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run: the tracer's number in the high 32 bits.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request this span serves, 0 for none.
    pub req: u64,
    /// The layer boundary, as `module.operation`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Per-name totals over every span closed, stored or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    req: u64,
    start: u64,
    child_ns: u64,
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call, so untraced runs share the traced code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    cap: usize,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

/// Spans each tracer stores before it keeps totals only.
const SPAN_CAP: usize = 1 << 16;

impl Tracer {
    /// A recording tracer; `tag` keeps its span ids apart from other
    /// tracers of the same run.
    pub fn new(epoch: Instant, tag: u32) -> Self {
        Self {
            enabled: true,
            epoch,
            tag: u64::from(tag) << 32,
            next: 0,
            cap: SPAN_CAP,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        let mut t = Self::new(Instant::now(), 0);
        t.enabled = false;
        t
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc(&mut self) -> u64 {
        self.next += 1;
        self.tag | self.next
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let id = self.alloc();
        let start = self.now();
        self.stack.push(Open {
            id,
            name,
            req,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let open = self.stack.pop().expect("close matches an open");
        let dur = end - open.start;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        self.store(
            Span {
                id: open.id,
                parent,
                req: open.req,
                name: open.name,
                start: open.start,
                end,
            },
            dur.saturating_sub(open.child_ns),
        );
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, req);
        let r = f();
        self.close();
        r
    }

    /// Records a span whose interval was measured elsewhere (a request
    /// that overlaps others, so it cannot sit on the stack). It has no
    /// children; its parent is the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start, end) = (since(start), since(end));
        let id = self.alloc();
        let parent = self.stack.last().map(|p| p.id);
        self.store(
            Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            },
            end - start.min(end),
        );
    }

    fn store(&mut self, span: Span, self_ns: u64) {
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.end - span.start.min(span.end);
        t.self_ns += self_ns;
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
    }

    /// Totals for one span name (zero when none closed).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Totals for every span name, by name.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, Total)> + '_ {
        self.totals.iter().map(|(n, t)| (*n, *t))
    }

    /// The stored spans, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds another tracer's spans and totals into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let room = self.cap.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Writes the stored spans as tab-separated lines:
    /// `id parent req name start_ns end_ns` (parent 0 for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent.unwrap_or(0),
                s.req,
                s.name,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.open("outer", 9);
        busy(Duration::from_millis(2));
        tr.span("inner", 9, || busy(Duration::from_millis(3)));
        tr.span("inner", 9, || busy(Duration::from_millis(3)));
        tr.close();
        let outer = tr.total("outer");
        let inner = tr.total("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
        let spans = tr.spans();
        let root = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(root.parent.is_none());
        for s in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(s.parent, Some(root.id));
            assert_eq!(s.req, 9);
            assert!(s.start >= root.start && s.end <= root.end);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.span("x", 1, || ());
        tr.record("y", 1, Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
        assert_eq!(tr.total("x"), Total::default());
    }

    #[test]
    fn absorbed_tracers_keep_distinct_ids_and_sum_totals() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1);
        let mut b = Tracer::new(epoch, 2);
        a.span("s", 0, || ());
        b.span("s", 0, || ());
        a.absorb(b);
        assert_eq!(a.total("s").count, 2);
        let ids: Vec<u64> = a.spans().iter().map(|s| s.id).collect();
        assert_ne!(ids[0], ids[1]);
        let mut out = Vec::new();
        a.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
