//! Hierarchical span tracing: RAII guards, per-thread buffers, a bounded
//! global ring, and JSON-lines / Chrome trace-event exporters.
//!
//! # Model
//!
//! A [`SpanGuard`] (from [`span`] or [`request_span`]) measures the
//! wall-clock interval between its creation and its drop on a monotonic
//! clock.  Guards nest naturally with scopes: each thread keeps a stack
//! of open span ids, so every record carries its parent id and the
//! full tree of a CEGIS run or an HTTP request can be reconstructed.
//!
//! # Cost model
//!
//! Closing a span appends one record to a *thread-local* buffer — no
//! locks.  The buffer drains into the process-wide bounded ring only
//! when the thread's outermost span closes (or the buffer hits its
//! flush threshold), so the mutex is touched once per request / CEGIS
//! iteration rather than once per span.  When the ring is full the
//! oldest records are dropped and counted in the
//! `vrl_obs_spans_dropped_total` counter — tracing never blocks and
//! never grows without bound.
//!
//! # Export
//!
//! [`drain_spans`] moves the ring's contents out; [`spans_to_json_lines`]
//! renders one JSON object per record, and [`spans_to_chrome_trace`]
//! renders the Chrome trace-event array format (complete `"ph":"X"`
//! events, microsecond timestamps) that Perfetto and `chrome://tracing`
//! open directly.  Rendering follows the same conventions as the wire
//! codec in `vrl-runtime`: u64s as exact decimal integers, strings with
//! minimal JSON escaping.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use crate::enabled;
use crate::registry::registry;
use crate::Counter;

/// Maximum records the global ring retains; beyond it the oldest are
/// dropped (and counted).  8192 ≈ a few thousand requests or a long
/// CEGIS run at ~4 spans each, well under a megabyte.
pub const SPAN_RING_CAPACITY: usize = 8192;

/// Thread-local buffer length that forces an early drain to the global
/// ring even while spans are still open.
const FLUSH_THRESHOLD: usize = 256;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"cegis.verify"`.
    pub name: &'static str,
    /// Process-unique span id (never zero).
    pub id: u64,
    /// Id of the enclosing span, or zero for a root span.
    pub parent: u64,
    /// Process-unique index of the recording thread.
    pub thread: u64,
    /// Start offset from the process trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Request id attached via [`request_span`], if any.
    pub request_id: Option<Box<str>>,
}

/// Monotonic epoch all span timestamps are relative to (first use wins).
fn epoch() -> Instant {
    static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);
    *EPOCH
}

/// Whole seconds elapsed since the process trace epoch.
pub fn uptime_seconds() -> u64 {
    epoch().elapsed().as_secs()
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(1);

static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());

/// Spans evicted from the full ring (also a registered metric).
fn dropped_counter() -> &'static Counter {
    static DROPPED: LazyLock<&'static Counter> = LazyLock::new(|| {
        registry().counter(
            "vrl_obs_spans_dropped_total",
            "Trace spans evicted from the bounded span ring.",
        )
    });
    *DROPPED
}

struct ThreadTrace {
    thread: u64,
    stack: Vec<u64>,
    buffer: Vec<SpanRecord>,
}

thread_local! {
    static THREAD_TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        thread: NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buffer: Vec::new(),
    });
}

fn flush_buffer(buffer: &mut Vec<SpanRecord>) {
    if buffer.is_empty() {
        return;
    }
    let mut ring = RING.lock().expect("span ring poisoned");
    for record in buffer.drain(..) {
        if ring.len() >= SPAN_RING_CAPACITY {
            ring.pop_front();
            dropped_counter().inc();
        }
        ring.push_back(record);
    }
}

/// RAII guard measuring one span; the record is captured when the guard
/// drops.  Returned by [`span`] and [`request_span`].
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at creation: drop is a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    start_ns: u64,
    request_id: Option<Box<str>>,
}

impl SpanGuard {
    /// The span's process-unique id (zero if tracing was disabled).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map(|l| l.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = live.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        THREAD_TRACE.with(|cell| {
            let mut trace = cell.borrow_mut();
            // Pop our id; tolerate a foreign top (mismatched drop order
            // across scopes) by searching from the end.
            if let Some(pos) = trace.stack.iter().rposition(|&id| id == live.id) {
                trace.stack.remove(pos);
            }
            let record = SpanRecord {
                name: live.name,
                id: live.id,
                parent: live.parent,
                thread: trace.thread,
                start_ns: live.start_ns,
                dur_ns,
                request_id: live.request_id,
            };
            trace.buffer.push(record);
            if trace.stack.is_empty() || trace.buffer.len() >= FLUSH_THRESHOLD {
                flush_buffer(&mut trace.buffer);
            }
        });
    }
}

fn open_span(name: &'static str, request_id: Option<&str>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let start = Instant::now();
    let start_ns = start
        .duration_since(epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = THREAD_TRACE.with(|cell| {
        let mut trace = cell.borrow_mut();
        let parent = trace.stack.last().copied().unwrap_or(0);
        trace.stack.push(id);
        parent
    });
    SpanGuard {
        live: Some(LiveSpan {
            name,
            id,
            parent,
            start,
            start_ns,
            request_id: request_id.map(Box::from),
        }),
    }
}

/// Opens a span named `name`, child of the thread's innermost open span.
///
/// # Examples
///
/// ```
/// vrl_obs::drain_spans();
/// {
///     let _outer = vrl_obs::span("doc.outer");
///     let _inner = vrl_obs::span("doc.inner");
/// }
/// let spans = vrl_obs::drain_spans();
/// let inner = spans.iter().find(|s| s.name == "doc.inner").unwrap();
/// let outer = spans.iter().find(|s| s.name == "doc.outer").unwrap();
/// assert_eq!(inner.parent, outer.id);
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// Opens a span tagged with a request id (see `X-Request-Id` handling in
/// `vrl-runtime`), child of the thread's innermost open span.
pub fn request_span(name: &'static str, request_id: &str) -> SpanGuard {
    open_span(name, Some(request_id))
}

/// Moves every record out of the global ring (oldest first).  Records
/// of spans still open, or closed but not yet flushed by their thread,
/// are not included.
pub fn drain_spans() -> Vec<SpanRecord> {
    // Flush this thread's closed-but-buffered spans first so a
    // single-threaded export sees everything it recorded.
    THREAD_TRACE.with(|cell| flush_buffer(&mut cell.borrow_mut().buffer));
    let mut ring = RING.lock().expect("span ring poisoned");
    ring.drain(..).collect()
}

/// Appends `s` to `out` as a JSON string literal.
///
/// Escapes `"` and `\`, writes `\n`, `\r` and `\t` in their short
/// forms and every other control character below U+0020 as `\u00XX`; all
/// other characters pass through unchanged (the output is UTF-8, not
/// ASCII-escaped).  The span exporters here and the `vrl-runtime` JSON
/// wire codec both write strings through this one function.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders records as JSON-lines: one object per span with exact-u64
/// `id` / `parent` / `thread` / `start_ns` / `dur_ns` fields.
pub fn spans_to_json_lines(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str("{\"name\":");
        push_json_string(&mut out, r.name);
        let _ = write!(
            out,
            ",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}",
            r.id, r.parent, r.thread, r.start_ns, r.dur_ns
        );
        if let Some(request_id) = &r.request_id {
            out.push_str(",\"request_id\":");
            push_json_string(&mut out, request_id);
        }
        out.push_str("}\n");
    }
    out
}

/// Renders records as a Chrome trace-event JSON array (complete events,
/// `"ph":"X"`), openable in Perfetto or `chrome://tracing`.  Timestamps
/// and durations are microseconds; span/parent ids and the request id
/// ride along under `"args"`.
pub fn spans_to_chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, r.name);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            r.thread,
            fmt_us(r.start_ns),
            fmt_us(r.dur_ns)
        );
        let _ = write!(
            out,
            ",\"args\":{{\"span_id\":{},\"parent_id\":{}",
            r.id, r.parent
        );
        if let Some(request_id) = &r.request_id {
            out.push_str(",\"request_id\":");
            push_json_string(&mut out, request_id);
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// Formats nanoseconds as microseconds with exact thousandths (trace
/// viewers take fractional `ts`/`dur`), avoiding any f64 rounding.
fn fmt_us(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state (the ring); serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record_parents() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = drain_spans();
        {
            let outer = span("test.outer");
            let outer_id = outer.id();
            {
                let inner = span("test.inner");
                assert_ne!(inner.id(), 0);
                assert_ne!(inner.id(), outer_id);
            }
            let sibling = span("test.sibling");
            drop(sibling);
        }
        let records = drain_spans();
        let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
        let inner = records.iter().find(|r| r.name == "test.inner").unwrap();
        let sibling = records.iter().find(|r| r.name == "test.sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(inner.thread, outer.thread);
        // Children close before the parent and start no earlier.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn request_ids_ride_on_spans() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = drain_spans();
        drop(request_span("test.request", "req-42"));
        let records = drain_spans();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].request_id.as_deref(), Some("req-42"));
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = drain_spans();
        assert!(crate::enabled(), "collection is on by default");
        crate::set_enabled(false);
        assert!(!crate::enabled());
        let g = span("test.disabled");
        assert_eq!(g.id(), 0);
        drop(g);
        crate::set_enabled(true);
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = drain_spans();
        let before = dropped_counter().get();
        for _ in 0..(SPAN_RING_CAPACITY + 10) {
            drop(span("test.flood"));
        }
        let records = drain_spans();
        assert_eq!(records.len(), SPAN_RING_CAPACITY);
        assert!(dropped_counter().get() >= before + 10);
    }

    #[test]
    fn exporters_render_exact_integers() {
        let record = SpanRecord {
            name: "exp\"ort",
            id: u64::MAX,
            parent: 7,
            thread: 3,
            start_ns: 9_007_199_254_740_993, // 2^53 + 1: would corrupt via f64
            dur_ns: 1_500,
            request_id: Some(Box::from("r-1")),
        };
        let lines = spans_to_json_lines(std::slice::from_ref(&record));
        assert!(lines.contains("\"start_ns\":9007199254740993"));
        assert!(lines.contains(&format!("\"id\":{}", u64::MAX)));
        assert!(lines.contains("\"name\":\"exp\\\"ort\""));
        assert!(lines.ends_with("}\n"));
        let trace = spans_to_chrome_trace(&[record]);
        assert!(trace.starts_with('[') && trace.ends_with(']'));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ts\":9007199254740.993"));
        assert!(trace.contains("\"dur\":1.5"));
        assert!(trace.contains("\"request_id\":\"r-1\""));
    }

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(fmt_us(0), "0");
        assert_eq!(fmt_us(1000), "1");
        assert_eq!(fmt_us(1500), "1.500");
        assert_eq!(fmt_us(1), "0.001");
        assert_eq!(fmt_us(999), "0.999");
    }
}
