//! `vrl-obs` — process-wide metrics registry and hierarchical span
//! tracing for the `vrl` workspace.
//!
//! Std-only and dependency-free, like every crate in this workspace.
//! Two pillars:
//!
//! 1. **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`],
//!    [`CounterVec`]): named instruments on `Relaxed` atomics, handed
//!    out as `&'static` handles so hot paths pay one relaxed RMW per
//!    event.  [`Registry::render_prometheus`] produces the Prometheus
//!    text exposition format served by the `vrl-runtime` HTTP
//!    front-end at `GET /metrics`.
//! 2. **Tracing** ([`span`], [`request_span`], [`drain_spans`]): RAII
//!    span guards on a monotonic clock, buffered per thread and drained
//!    to a bounded ring; exportable as JSON-lines
//!    ([`spans_to_json_lines`]) or the Chrome trace-event format
//!    ([`spans_to_chrome_trace`]) for Perfetto.
//!
//! # Invariants
//!
//! Observability never touches numerics: instruments only *read* what
//! the instrumented code already computed, so decisions are bit
//! identical with the registry enabled or disabled (the conformance
//! sweeps in `vrl-bench` check this).  The [`set_enabled`] kill switch
//! exists to *measure* the overhead, not to restore correctness.
//!
//! # Quickstart
//!
//! ```
//! use vrl_obs::{registry, span};
//!
//! let decided = registry().counter("doc_decisions_total", "Decisions served.");
//! {
//!     let _span = span("doc.decide");
//!     decided.inc();
//! }
//! let text = registry().render_prometheus();
//! assert!(text.contains("doc_decisions_total 1"));
//! assert!(!vrl_obs::drain_spans().is_empty());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{Counter, CounterVec, Gauge, Histogram, HistogramVec, HISTOGRAM_BUCKETS};
pub use registry::{registry, Registry};
pub use trace::{
    drain_spans, push_json_string, request_span, span, spans_to_chrome_trace, spans_to_json_lines,
    uptime_seconds, SpanGuard, SpanRecord, SPAN_RING_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether observability collection is enabled (the default).
///
/// Metric handles keep working either way — the flag gates span
/// *collection* inside this crate and is checked by instrumented hot
/// paths (e.g. the `vrl-runtime` decide path) before recording, so the
/// `serve_throughput` bench can measure the enabled-vs-disabled
/// overhead.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns observability collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
