//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer gets a span: name, start,
//! end, parent, thread and campaign id. Spans are kept in memory and
//! written as JSON lines when the run ends; `run.py` computes busy and
//! self times from them. A disabled tracer hands out inert spans, so the
//! untraced serve-mix client runs the same code without timing it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

struct Record {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u64,
    campaign: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one probe invocation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
}

/// An open span; it closes when dropped. Spans on one thread must close
/// in the reverse order they opened, which scoping guarantees.
#[must_use = "a span times the scope it lives in"]
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    campaign: u64,
    start: Option<Instant>,
}

impl Tracer {
    /// A recording tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A tracer whose spans record nothing.
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Milliseconds since the epoch; the clock every output shares.
    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Opens a span whose parent is the innermost open span of this
    /// thread (none at the top level).
    pub fn span(&self, name: &'static str, campaign: u64) -> Span<'_> {
        let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.child_of(name, campaign, parent)
    }

    /// Opens a span under an explicit parent, which may live on another
    /// thread (a worker under the pool span that spawned it).
    pub fn child_of(&self, name: &'static str, campaign: u64, parent: u64) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                id: 0,
                parent,
                name,
                campaign,
                start: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Span {
            tracer: self,
            id,
            parent,
            name,
            campaign,
            start: Some(Instant::now()),
        }
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let records = self.records.lock().expect("tracer lock poisoned");
        let mut out = String::with_capacity(records.len() * 120);
        for r in records.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"campaign\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.parent, r.name, r.thread, r.campaign, r.start_ns, r.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

impl Span<'_> {
    /// This span's id (0 for an inert span), for children on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans closed out of order");
        });
        let record = Record {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD_ID.with(|t| *t),
            campaign: self.campaign,
            start_ns: self.tracer.ns_since_epoch(start),
            end_ns: self.tracer.ns_since_epoch(end),
        };
        // Drop must not panic: a poisoned store only loses this span.
        if let Ok(mut records) = self.tracer.records.lock() {
            records.push(record);
        }
    }
}
