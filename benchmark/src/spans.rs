//! The benchmark's own spans: `(name, start, end, parent, txn)` records
//! taken around each call into a layer's public functions.
//!
//! Spans are kept in memory per client thread and only aggregated or
//! written after the repetition ends. The untraced run uses
//! [`NoTrace`], whose methods compile to nothing, so one generic client
//! loop serves both runs and the difference between them is exactly
//! the cost of these spans (`bench.span_overhead_frac`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of "no parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the buffer's
/// epoch (the start of the repetition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by all spans of one unit of work (the spec
    /// index for engine workloads).
    pub txn: u64,
}

/// What the client loop records through. Implemented by [`NoTrace`]
/// (untraced run) and [`SpanBuf`] (traced run).
pub trait Tracer: Sized {
    /// A tracer whose clock starts at `epoch`, with room for `cap`
    /// spans so recording does not reallocate inside the timed window.
    fn start(epoch: Instant, cap: usize) -> Self;
    /// Everything recorded (every span closed).
    fn finish(self) -> Vec<Span>;
    /// Opens a span that later calls nest under, until [`Tracer::exit`].
    fn enter(&mut self, name: &'static str, txn: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Records `f` as a leaf span under the innermost open span.
    fn leaf<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> R) -> R;
}

/// The untraced run: every method is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    fn start(_epoch: Instant, _cap: usize) -> NoTrace {
        NoTrace
    }
    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _txn: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn leaf<R>(&mut self, _name: &'static str, _txn: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// An in-memory span buffer for one thread.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanBuf {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for SpanBuf {
    fn start(epoch: Instant, cap: usize) -> SpanBuf {
        SpanBuf { epoch, spans: Vec::with_capacity(cap), open: Vec::new() }
    }

    fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span buffer harvested with open spans");
        self.spans
    }

    #[inline]
    fn enter(&mut self, name: &'static str, txn: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, txn });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    #[inline]
    fn leaf<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> R) -> R {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns, parent, txn });
        r
    }
}

/// Per-name self times: each span's duration minus the durations of
/// its direct children (children of one parent never overlap — they
/// are recorded by one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        out.entry(s.name).or_default().push((s.end_ns - s.start_ns).saturating_sub(children));
    }
    out
}

/// Writes spans as CSV (`thread,index,name,start_ns,end_ns,parent,txn`),
/// at most `cap` rows per thread so a run's file stays small.
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>], cap: usize) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,name,start_ns,end_ns,parent,txn")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().take(cap).enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(w, "{t},{i},{},{},{},{parent},{}", s.name, s.start_ns, s.end_ns, s.txn)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, txn: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // txn [0,100] > commit [10,60] > force [20,50]; txn > read [70,80]
        let spans = vec![
            span("txn", 0, 100, ROOT),
            span("commit", 10, 60, 0),
            span("force", 20, 50, 1),
            span("read", 70, 80, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["txn"], vec![100 - 50 - 10]);
        assert_eq!(st["commit"], vec![50 - 30]);
        assert_eq!(st["force"], vec![30]);
        assert_eq!(st["read"], vec![10]);
    }

    #[test]
    fn span_buf_nests_leaves_under_the_open_span() {
        let mut buf = SpanBuf::start(Instant::now(), 8);
        buf.enter("txn", 7);
        let v = buf.leaf("read", 7, || 41 + 1);
        buf.leaf("commit", 7, || ());
        buf.exit();
        buf.leaf("orphan", 8, || ());
        assert_eq!(v, 42);
        let spans = buf.finish();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.txn)).collect();
        assert_eq!(
            shape,
            [("txn", ROOT, 7), ("read", 0, 7), ("commit", 0, 7), ("orphan", ROOT, 8)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns, "parent closes after its children");
    }

    #[test]
    fn no_trace_only_runs_the_closure() {
        let mut t = NoTrace::start(Instant::now(), 0);
        t.enter("txn", 0);
        assert_eq!(t.leaf("read", 0, || 5), 5);
        t.exit();
        assert!(t.finish().is_empty());
    }
}
