//! Spans recorded from the benchmark's own code around the calls it makes
//! into the repository's crates, and the forwarding event sink that times
//! the simulator's calls.
//!
//! A query driven with [`Tracer::drive`] gets one span, and its
//! `ExecStep::step` calls get child spans: consecutive steps of the same
//! kind (local work, or work that sent overlay messages) are merged into
//! one span that carries the number of calls and their summed duration,
//! so a shower over thousands of partitions stays a handful of spans.

use sqo_core::{ExecStep, QueryStats, SimilarityEngine, StepOutcome};
use sqo_overlay::clock::{EventSink, MsgKind, SimLatency};
use sqo_overlay::PeerId;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. `id` is its 1-based index; `parent` 0 means none.
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (merged step runs and batched replays).
    pub calls: u64,
    /// Summed duration of the covered calls themselves.
    pub busy_ns: u64,
}

/// Per-query step accounting of the queries driven so far.
#[derive(Default, Clone, Copy)]
pub struct StepTotals {
    pub queries: u64,
    pub steps: u64,
    pub local_ns: u64,
    pub remote_ns: u64,
    /// Wall time of the driven queries, bookkeeping between steps included.
    pub query_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub steps: StepTotals,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), steps: StepTotals::default() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Time `calls` calls made by `f` as one span; returns `f`'s result
    /// and the span's duration in nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let busy_ns = end_ns - start_ns;
        self.push(Span { name, parent: 0, start_ns, end_ns, calls, busy_ns });
        (r, busy_ns)
    }

    /// Drive `task` to completion the way `SimilarityEngine::run_task`
    /// does, timing every `step` call and splitting the time by whether
    /// the step sent overlay messages.
    pub fn drive(
        &mut self,
        engine: &mut SimilarityEngine,
        name: &'static str,
        task: &mut dyn ExecStep,
    ) -> QueryStats {
        let start_ns = self.now_ns();
        let query = self.push(Span { name, parent: 0, start_ns, end_ns: 0, calls: 1, busy_ns: 0 });
        let mut at = engine.network().sim_now_us().unwrap_or(0);
        // The open run of same-kind steps: (remote, first start, calls, busy).
        let mut run: Option<(bool, u64, u64, u64)> = None;
        let mut last_end = start_ns;
        let stats = loop {
            let messages = engine.network().metrics().messages;
            let t0 = Instant::now();
            let out = task.step(engine, at);
            let dt = t0.elapsed().as_nanos() as u64;
            let remote = engine.network().metrics().messages != messages;
            let end = self.now_ns();
            self.steps.steps += 1;
            if remote {
                self.steps.remote_ns += dt;
            } else {
                self.steps.local_ns += dt;
            }
            match &mut run {
                Some((r, _, calls, busy)) if *r == remote => {
                    *calls += 1;
                    *busy += dt;
                }
                _ => {
                    if let Some(done) = run.take() {
                        self.close_run(query, done, last_end);
                    }
                    run = Some((remote, end - dt, 1, dt));
                }
            }
            last_end = end;
            match out {
                StepOutcome::Yield { at_us } => at = at_us,
                StepOutcome::Done(stats) => break stats,
            }
        };
        if let Some(done) = run.take() {
            self.close_run(query, done, last_end);
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[query as usize - 1];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - start_ns;
        self.steps.queries += 1;
        self.steps.query_ns += end_ns - start_ns;
        stats
    }

    fn close_run(
        &mut self,
        parent: u32,
        (remote, start_ns, calls, busy_ns): (bool, u64, u64, u64),
        end_ns: u64,
    ) {
        let name = if remote { "core.step.remote" } else { "core.step.local" };
        self.push(Span { name, parent, start_ns, end_ns, calls, busy_ns });
    }

    /// Write the spans as tab-separated lines, one per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tcalls\tbusy_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls,
                s.busy_ns
            )?;
        }
        out.flush()
    }
}

/// Calls into the wrapped sink and the time they took, counted while `on`.
#[derive(Default)]
pub struct SinkCounters {
    pub on: Cell<bool>,
    pub calls: Cell<u64>,
    pub nanos: Cell<u64>,
}

/// An [`EventSink`] that forwards every call to the sink it wraps and,
/// while its counters are on, counts and times the calls.
pub struct TimedSink {
    inner: Box<dyn EventSink>,
    counters: Rc<SinkCounters>,
}

impl TimedSink {
    pub fn new(inner: Box<dyn EventSink>, counters: Rc<SinkCounters>) -> Self {
        Self { inner, counters }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn EventSink) -> R) -> R {
        if !self.counters.on.get() {
            return f(self.inner.as_mut());
        }
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let c = &self.counters;
        c.nanos.set(c.nanos.get() + t0.elapsed().as_nanos() as u64);
        c.calls.set(c.calls.get() + 1);
        r
    }
}

impl EventSink for TimedSink {
    fn begin_query(&mut self) {
        self.timed(|s| s.begin_query())
    }
    fn end_query(&mut self) -> SimLatency {
        self.timed(|s| s.end_query())
    }
    fn deliver(&mut self, from: PeerId, to: PeerId, bytes: usize, kind: MsgKind) {
        self.timed(|s| s.deliver(from, to, bytes, kind))
    }
    fn local_work(&mut self, peer: PeerId, items: u64) {
        self.timed(|s| s.local_work(peer, items))
    }
    fn fork(&mut self) {
        self.timed(|s| s.fork())
    }
    fn branch(&mut self) {
        self.timed(|s| s.branch())
    }
    fn join(&mut self) {
        self.timed(|s| s.join())
    }
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn reset_to_us(&mut self, t_us: u64) {
        self.timed(|s| s.reset_to_us(t_us))
    }
    fn busy_until_us(&self, peer: PeerId) -> u64 {
        self.inner.busy_until_us(peer)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}
