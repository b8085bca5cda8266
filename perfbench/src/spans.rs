//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Each span
//! has a name, start, end and parent. A *grouped* span stands for many
//! short timed pieces of one kind (for example every run of consecutive
//! events a window operator folds): it keeps the first start, the last end,
//! the summed busy time and the piece count, so a million pieces cost one
//! record. Self time is a span's busy time minus its children's busy time.
//! Spans stay in memory and are written out when the run ends.

use crate::alloc;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `strategy` or `window_fold`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Time covered: `end - start` for a plain span, the sum of its pieces
    /// (less the clock-read overhead) for a grouped one.
    pub busy_ns: u64,
    /// Timed calls: 1 for a plain span, the piece count for a grouped one.
    pub calls: u64,
    /// Allocation calls made inside the span (when counting is on).
    pub allocs: u64,
}

/// Handle to a grouped span, returned by [`Tracer::group`].
#[derive(Debug, Clone, Copy)]
pub struct Group(usize);

/// Span recorder; one per traced round.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    piece_overhead_ns: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose per-piece clock overhead is calibrated now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            piece_overhead_ns: clock_overhead_ns(),
        }
    }

    /// Median cost of timing an empty piece, subtracted from every piece.
    pub fn piece_overhead_ns(&self) -> u64 {
        self.piece_overhead_ns
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a plain span nested in the currently open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let a0 = alloc::allocs();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
            calls: 1,
            allocs: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.busy_ns = end - start;
        s.allocs = alloc::allocs() - a0;
        out
    }

    /// Open a grouped span nested in the currently open one.
    pub fn group(&mut self, name: &'static str) -> Group {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: u64::MAX,
            end_ns: 0,
            busy_ns: 0,
            calls: 0,
            allocs: 0,
        });
        Group(id)
    }

    /// Time one piece of a grouped span.
    #[inline]
    pub fn piece<T>(&mut self, g: Group, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let dt = (t1 - t0).as_nanos() as u64;
        let start = (t0 - self.epoch).as_nanos() as u64;
        let s = &mut self.spans[g.0];
        s.start_ns = s.start_ns.min(start);
        s.end_ns = s.end_ns.max(start + dt);
        s.busy_ns += dt.saturating_sub(self.piece_overhead_ns);
        s.calls += 1;
        s.allocs += alloc::allocs() - a0;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with this handle.
    pub fn get(&self, g: Group) -> &Span {
        &self.spans[g.0]
    }

    /// Summed busy time of every span named `name`, in nanoseconds.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.busy_ns).sum()
    }

    /// Summed timed calls of every span named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Summed allocation calls of every span named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of span `id`: its busy time minus its children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    /// Append every span as one JSON line, tagged with `round`.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, round: usize) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"round\":{round},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"self_ns\":{},\"calls\":{},\"allocs\":{}}}",
                s.name,
                s.start_ns.min(s.end_ns),
                s.end_ns,
                s.busy_ns,
                self.self_ns(id),
                s.calls,
                s.allocs
            )?;
        }
        Ok(())
    }
}

/// Median wall time of timing an empty piece (two clock reads).
pub fn clock_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Write every round's spans to `path` as JSON lines.
///
/// # Errors
/// Propagates directory-creation and write failures.
pub fn write_rounds(path: &Path, rounds: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, t) in rounds.iter().enumerate() {
        t.write_jsonl(&mut out, i)?;
    }
    out.flush()
}
