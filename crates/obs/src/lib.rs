//! `qufi-obs`: zero-overhead telemetry for the QuFI stack.
//!
//! A process-wide recorder of named **counters**, log-bucketed
//! **histograms** ([`hist`]), per-point **cost records**, and span
//! **trace events** ([`trace`]), plus a leveled stderr [`log`] sink.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every record path checks one `static`
//!    [`AtomicBool`] (relaxed load) and returns. No thread-local is
//!    touched, no time is read, no allocation happens. The replay hot
//!    loop can keep its call sites unconditionally.
//! 2. **Outside the determinism envelope.** The recorder never touches
//!    RNG state, never writes to campaign artifacts, and observes wall
//!    time only — enabling it cannot change a single exported byte.
//! 3. **Lock-light.** Events aggregate into a thread-local sink
//!    ([`std::thread_local`]); the global mutex is taken once per thread
//!    *lifetime* plus once per [`flush`]/[`snapshot`], never per event.
//!    Worker threads must call [`flush`] at the end of their closure:
//!    `std::thread::scope` synchronizes with closure completion, not
//!    with TLS destructors, so the sink's at-exit `Drop` (kept as a
//!    backstop for detached threads) can land *after* a snapshot taken
//!    right after the scope.
//!
//! Spans time *phases*, not cells: a [`span`] pays one `Instant::now()`
//! pair however much work happens inside it. Per-cell work is counted
//! with [`add`] (one atomic load + one thread-local add per chunk).

pub mod hist;
pub mod json;
pub mod log;
pub mod trace;

pub use hist::Histogram;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use trace::TraceEvent;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Global> = Mutex::new(Global::new());

/// One per-point cost observation — the row type of `costs.csv` and the
/// direct input for cost-aware shard allocation (ROADMAP item 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRecord {
    /// Job id the point belongs to (e.g. `bv-4@jakarta`), `""` if none.
    pub job: String,
    /// Gate index of the injection point.
    pub op_index: usize,
    /// Logical qubit of the injection point.
    pub qubit: usize,
    /// Wall-clock spent preparing the point (transpile + prefix evolve).
    pub prepare_ns: u64,
    /// Wall-clock spent replaying the fault grid from the prepared state.
    pub replay_ns: u64,
    /// Grid cells replayed.
    pub cells: u64,
}

/// A span event still carrying its absolute open time; converted to
/// epoch-relative [`TraceEvent`]s by [`take_trace`].
struct RawEvent {
    name: &'static str,
    thread: u64,
    start: Instant,
    dur_ns: u64,
    depth: u32,
}

/// The merged, process-wide aggregate.
struct Global {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    costs: Vec<CostRecord>,
    trace: Vec<RawEvent>,
    epoch: Option<Instant>,
}

impl Global {
    const fn new() -> Self {
        Global {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            costs: Vec::new(),
            trace: Vec::new(),
            epoch: None,
        }
    }
}

fn global() -> MutexGuard<'static, Global> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-thread event sink; merged into [`GLOBAL`] at thread exit.
struct ThreadSink {
    id: u64,
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, Histogram>,
    costs: Vec<CostRecord>,
    trace: Vec<RawEvent>,
    depth: u32,
    job: Option<Arc<str>>,
}

impl ThreadSink {
    fn new() -> Self {
        ThreadSink {
            id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            counters: HashMap::new(),
            hists: HashMap::new(),
            costs: Vec::new(),
            trace: Vec::new(),
            depth: 0,
            job: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.costs.is_empty()
            && self.trace.is_empty()
    }

    fn merge_into_global(&mut self) {
        if self.is_empty() {
            return;
        }
        let mut g = global();
        for (name, n) in self.counters.drain() {
            *g.counters.entry(name).or_insert(0) += n;
        }
        for (name, h) in self.hists.drain() {
            g.hists.entry(name).or_default().merge(&h);
        }
        g.costs.append(&mut self.costs);
        g.trace.append(&mut self.trace);
    }
}

impl Drop for ThreadSink {
    fn drop(&mut self) {
        self.merge_into_global();
    }
}

thread_local! {
    static SINK: RefCell<ThreadSink> = RefCell::new(ThreadSink::new());
}

/// Turns recording on. Sets the trace epoch if not already set; call
/// [`reset`] first for a fresh epoch and empty aggregates.
pub fn enable() {
    {
        let mut g = global();
        if g.epoch.is_none() {
            g.epoch = Some(Instant::now());
        }
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Additionally records a [`TraceEvent`] per finished span. Implies the
/// recorder must be (or become) enabled to have any effect.
pub fn enable_trace() {
    TRACE_ON.store(true, Ordering::SeqCst);
}

/// Turns recording (and tracing) off. Already-recorded events remain
/// until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    TRACE_ON.store(false, Ordering::SeqCst);
}

/// Clears all aggregates (global and this thread's sink) and restarts
/// the trace epoch. Other threads' unmerged sinks are untouched — reset
/// from the thread that owns the recorder lifecycle, before spawning
/// workers.
pub fn reset() {
    let _ = SINK.try_with(|sink| {
        let mut s = sink.borrow_mut();
        s.counters.clear();
        s.hists.clear();
        s.costs.clear();
        s.trace.clear();
    });
    let mut g = global();
    g.counters.clear();
    g.hists.clear();
    g.costs.clear();
    g.trace.clear();
    g.epoch = Some(Instant::now());
}

/// Adds `n` to the named counter. One relaxed atomic load when disabled.
pub fn add(name: &'static str, n: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = SINK.try_with(|sink| {
        *sink.borrow_mut().counters.entry(name).or_insert(0) += n;
    });
}

/// Records one observation in the named histogram.
pub fn observe(name: &'static str, value: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = SINK.try_with(|sink| {
        sink.borrow_mut()
            .hists
            .entry(name)
            .or_default()
            .observe(value);
    });
}

/// A live span timer; the name doubles as the histogram fed on close.
/// Closing happens on [`Span::finish`] (returning the elapsed ns) or on
/// drop. A span opened while the recorder is disabled is inert.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
}

/// Opens a span. Costs one relaxed atomic load when disabled.
pub fn span(name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            name,
            start: None,
            depth: 0,
        };
    }
    let depth = SINK
        .try_with(|sink| {
            let mut s = sink.borrow_mut();
            let d = s.depth;
            s.depth += 1;
            d
        })
        .unwrap_or(0);
    Span {
        name,
        start: Some(Instant::now()),
        depth,
    }
}

impl Span {
    /// Closes the span and returns its duration in nanoseconds (0 if the
    /// recorder was disabled when it opened).
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let name = self.name;
        let depth = self.depth;
        let tracing = TRACE_ON.load(Ordering::Relaxed);
        let _ = SINK.try_with(|sink| {
            let mut s = sink.borrow_mut();
            s.depth = s.depth.saturating_sub(1);
            s.hists.entry(name).or_default().observe(dur_ns);
            if tracing {
                let thread = s.id;
                s.trace.push(RawEvent {
                    name,
                    thread,
                    start,
                    dur_ns,
                    depth,
                });
            }
        });
        dur_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Labels cost records made on this thread until the guard drops (the
/// previous label is restored, so scopes nest).
pub struct JobScope {
    prev: Option<Arc<str>>,
    active: bool,
}

/// Opens a job-label scope for [`record_cost`].
#[must_use = "the scope ends when the guard drops; bind it to a variable"]
pub fn job_scope(job: &str) -> JobScope {
    if !ENABLED.load(Ordering::Relaxed) {
        return JobScope {
            prev: None,
            active: false,
        };
    }
    let prev = SINK
        .try_with(|sink| {
            let mut s = sink.borrow_mut();
            s.job.replace(Arc::from(job))
        })
        .unwrap_or(None);
    JobScope { prev, active: true }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let prev = self.prev.take();
        let _ = SINK.try_with(move |sink| sink.borrow_mut().job = prev);
    }
}

/// Records one per-point cost row under the current [`job_scope`] label.
pub fn record_cost(op_index: usize, qubit: usize, prepare_ns: u64, replay_ns: u64, cells: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = SINK.try_with(|sink| {
        let mut s = sink.borrow_mut();
        let job = s.job.as_deref().unwrap_or("").to_string();
        s.costs.push(CostRecord {
            job,
            op_index,
            qubit,
            prepare_ns,
            replay_ns,
            cells,
        });
    });
}

/// Merges this thread's sink into the global aggregate now. Call this at
/// the **end of every worker closure**: joining (even via
/// `std::thread::scope`) synchronizes with closure completion, not with
/// TLS destructors, so the sink's at-exit merge can race a snapshot taken
/// after the join. The main thread flushes implicitly via [`snapshot`].
pub fn flush() {
    let _ = SINK.try_with(|sink| sink.borrow_mut().merge_into_global());
}

/// A point-in-time copy of the merged aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name (span histograms use the span name).
    pub hists: BTreeMap<String, Histogram>,
    /// Per-point cost rows, sorted by `(job, op_index, qubit)`.
    pub costs: Vec<CostRecord>,
}

/// Flushes this thread and snapshots the global aggregate.
#[must_use]
pub fn snapshot() -> Snapshot {
    flush();
    let g = global();
    let mut costs = g.costs.clone();
    costs.sort_by(|a, b| (&a.job, a.op_index, a.qubit).cmp(&(&b.job, b.op_index, b.qubit)));
    Snapshot {
        counters: g
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        hists: g
            .hists
            .iter()
            .map(|(k, h)| ((*k).to_string(), h.clone()))
            .collect(),
        costs,
    }
}

/// Flushes this thread, then drains and returns all trace events,
/// epoch-relative and sorted by open time.
#[must_use]
pub fn take_trace() -> Vec<TraceEvent> {
    flush();
    let mut g = global();
    let epoch = g.epoch.unwrap_or_else(Instant::now);
    let mut events: Vec<TraceEvent> = g
        .trace
        .drain(..)
        .map(|raw| TraceEvent {
            name: raw.name.to_string(),
            thread: raw.thread,
            start_ns: u64::try_from(raw.start.saturating_duration_since(epoch).as_nanos())
                .unwrap_or(u64::MAX),
            dur_ns: raw.dur_ns,
            depth: raw.depth,
        })
        .collect();
    events.sort_by_key(|e| (e.start_ns, e.thread, e.depth));
    events
}

impl Snapshot {
    /// Renders the snapshot as `metrics.json` (counters + histograms;
    /// cost rows go to [`Snapshot::costs_csv`] instead).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"counters\": {");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {n}", json::quote(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let min = if h.count == 0 { 0 } else { h.min };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json::quote(name),
                h.count,
                h.sum,
                min,
                h.max
            );
            for (j, (idx, c)) in h.nonzero_buckets().iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}[{idx},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str(if self.hists.is_empty() {
            "}\n}\n"
        } else {
            "\n  }\n}\n"
        });
        out
    }

    /// Parses a `metrics.json` document back into a snapshot (cost rows
    /// are carried separately in `costs.csv`; see [`parse_costs_csv`]).
    ///
    /// # Errors
    ///
    /// Malformed JSON or an unexpected document shape.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("version").and_then(json::Value::as_u64) != Some(1) {
            return Err("unsupported metrics version".to_string());
        }
        let mut snap = Snapshot::default();
        let counters = doc
            .get("counters")
            .and_then(json::Value::as_obj)
            .ok_or("missing counters object")?;
        for (name, v) in counters {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} not a u64"))?;
            snap.counters.insert(name.clone(), n);
        }
        let hists = doc
            .get("histograms")
            .and_then(json::Value::as_obj)
            .ok_or("missing histograms object")?;
        for (name, h) in hists {
            let field = |key: &str| -> Result<u64, String> {
                h.get(key)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("histogram {name:?} missing {key:?}"))
            };
            let pairs = h
                .get("buckets")
                .and_then(json::Value::as_arr)
                .ok_or_else(|| format!("histogram {name:?} missing buckets"))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().unwrap_or(&[]);
                    match (
                        pair.first().and_then(json::Value::as_u64),
                        pair.get(1).and_then(json::Value::as_u64),
                    ) {
                        (Some(i), Some(c)) => Ok((i as usize, c)),
                        _ => Err(format!("histogram {name:?} has a malformed bucket pair")),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            snap.hists.insert(
                name.clone(),
                Histogram::from_parts(
                    field("count")?,
                    field("sum")?,
                    field("min")?,
                    field("max")?,
                    &pairs,
                ),
            );
        }
        Ok(snap)
    }

    /// Renders the cost rows as `costs.csv`.
    #[must_use]
    pub fn costs_csv(&self) -> String {
        let mut out = String::from("job,op_index,qubit,prepare_ns,replay_ns,cells\n");
        for c in &self.costs {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                c.job, c.op_index, c.qubit, c.prepare_ns, c.replay_ns, c.cells
            );
        }
        out
    }
}

/// Parses a `costs.csv` document back into cost rows.
///
/// # Errors
///
/// A malformed header or row.
pub fn parse_costs_csv(text: &str) -> Result<Vec<CostRecord>, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != "job,op_index,qubit,prepare_ns,replay_ns,cells" {
        return Err(format!("unexpected costs.csv header: {header:?}"));
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(format!("costs.csv row {}: expected 6 fields", i + 2));
        }
        let num = |idx: usize| -> Result<u64, String> {
            fields[idx]
                .parse::<u64>()
                .map_err(|_| format!("costs.csv row {}: bad number {:?}", i + 2, fields[idx]))
        };
        out.push(CostRecord {
            job: fields[0].to_string(),
            op_index: num(1)? as usize,
            qubit: num(2)? as usize,
            prepare_ns: num(3)?,
            replay_ns: num(4)?,
            cells: num(5)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that toggle it serialize on
    /// this lock so `cargo test`'s parallel harness can't interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let _guard = exclusive();
        disable();
        reset();
        add("c", 3);
        observe("h", 5);
        let sp = span("s");
        record_cost(1, 2, 3, 4, 5);
        assert_eq!(sp.finish(), 0);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.costs.is_empty());
        assert!(take_trace().is_empty());
    }

    #[test]
    fn counters_spans_and_costs_aggregate() {
        let _guard = exclusive();
        reset();
        enable();
        add("cells", 312);
        add("cells", 312);
        {
            let outer = span("outer_ns");
            let inner = span("inner_ns");
            assert!(inner.finish() < u64::MAX);
            drop(outer);
        }
        {
            let _scope = job_scope("bv-2@lima");
            record_cost(4, 1, 100, 900, 312);
        }
        record_cost(9, 0, 50, 200, 6);
        disable();

        let snap = snapshot();
        assert_eq!(snap.counters["cells"], 624);
        assert_eq!(snap.hists["outer_ns"].count, 1);
        assert_eq!(snap.hists["inner_ns"].count, 1);
        assert_eq!(snap.costs.len(), 2);
        // Sorted by (job, op_index, qubit): unlabeled row first.
        assert_eq!(snap.costs[0].job, "");
        assert_eq!(snap.costs[1].job, "bv-2@lima");
        assert_eq!(snap.costs[1].cells, 312);
        reset();
    }

    #[test]
    fn worker_threads_merge_on_flush() {
        let _guard = exclusive();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    add("work", 10);
                    observe("lat_ns", 128);
                    flush();
                });
            }
        });
        add("work", 2);
        disable();
        let snap = snapshot();
        assert_eq!(snap.counters["work"], 42);
        assert_eq!(snap.hists["lat_ns"].count, 4);
        reset();
    }

    #[test]
    fn trace_events_nest_and_round_trip() {
        let _guard = exclusive();
        reset();
        enable();
        enable_trace();
        {
            let outer = span("outer_ns");
            {
                let _inner = span("inner_ns");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(outer);
        }
        disable();
        let events = take_trace();
        assert_eq!(events.len(), 2);
        trace::validate_nesting(&events).unwrap();
        let reparsed = trace::parse_jsonl(&trace::to_jsonl(&events)).unwrap();
        assert_eq!(reparsed, events);
        let inner = events.iter().find(|e| e.name == "inner_ns").unwrap();
        assert_eq!(inner.depth, 1);
        assert!(inner.dur_ns >= 1_000_000);
        reset();
    }

    #[test]
    fn snapshot_serializes_and_parses_back() {
        let _guard = exclusive();
        reset();
        enable();
        add("export.files", 7);
        observe("phase_ns", 1000);
        observe("phase_ns", 2500);
        {
            let _scope = job_scope("ghz-2@lima");
            record_cost(3, 1, 11, 22, 6);
        }
        disable();
        let snap = snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.hists, snap.hists);
        let costs = parse_costs_csv(&snap.costs_csv()).unwrap();
        assert_eq!(costs, snap.costs);
        reset();
    }

    #[test]
    fn json_artifacts_reject_wrong_shapes() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("{\"version\":2,\"counters\":{},\"histograms\":{}}").is_err());
        assert!(parse_costs_csv("nope\n").is_err());
        assert!(
            parse_costs_csv("job,op_index,qubit,prepare_ns,replay_ns,cells\na,b,c,d,e,f\n")
                .is_err()
        );
        let empty = Snapshot::default();
        assert_eq!(Snapshot::from_json(&empty.to_json()).unwrap(), empty);
    }
}
