//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! A span is one call from the benchmark into a layer of the program:
//! name, start, end (nanoseconds since the recorder was created), the
//! span that was open on the same thread when it began, and the request
//! id where there is one. Spans stay in memory and are written out once,
//! when the run ends. With tracing off, [`span`] returns an inert guard
//! and records nothing, so the untraced run pays one atomic load and one
//! branch per call.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub req: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static RECORDING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turns tracing on for the rest of the process.
pub fn enable() {
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        next_id: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    });
    RECORDING.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Pauses (`false`) or resumes (`true`) an enabled recorder, so the
/// untraced path of [`span`] can be timed in a traced run.
pub fn set_recording(on: bool) {
    RECORDING.store(on && RECORDER.get().is_some(), Ordering::Relaxed);
}

/// The span open on this thread, if any.
pub fn current() -> Option<u32> {
    OPEN.with(|s| s.borrow().last().copied())
}

/// Makes `parent` (a span open on another thread) the parent of the spans
/// this thread opens next.
pub fn adopt(parent: Option<u32>) {
    if let Some(p) = parent {
        OPEN.with(|s| s.borrow_mut().push(p));
    }
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<SpanRec>,
}

/// Opens a span named `name` (with request id `req`) if tracing is on.
pub fn span(name: &'static str, req: Option<u64>) -> Guard {
    if !RECORDING.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let Some(rec) = RECORDER.get() else {
        return Guard { open: None };
    };
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some(SpanRec {
            id,
            parent,
            name,
            req,
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let (Some(mut span), Some(rec)) = (self.open, RECORDER.get()) else {
            return;
        };
        span.end_ns = rec.origin.elapsed().as_nanos() as u64;
        OPEN.with(|s| {
            s.borrow_mut().pop();
        });
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<SpanRec> {
    RECORDER
        .get()
        .map(|r| r.spans.lock().expect("span store poisoned").clone())
        .unwrap_or_default()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::ms)
        .collect()
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent.map(u64::from)),
            s.name,
            opt(s.req),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
