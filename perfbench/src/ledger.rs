//! Reading what the program records: counter deltas from the `vrl-obs`
//! registry, span collection that keeps the bounded ring from dropping,
//! and the metric list the benchmark prints.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use vrl_obs::{registry, SpanRecord};

/// Counters the per-layer ledger reads, by their registered names.
pub const COUNTERS: &[&str] = &[
    "vrl_runtime_decisions_total",
    "vrl_runtime_interventions_total",
    "vrl_shield_decide_table_hits_total",
    "vrl_shield_decide_table_fallbacks_total",
    "vrl_synth_cegis_attempts_total",
    "vrl_synth_cegis_counterexamples_total",
    "vrl_synth_cegis_pieces_total",
    "vrl_synth_oracle_queries_total",
    "vrl_solver_bb_boxes_total",
    "vrl_solver_bb_queries_total",
    "vrl_solver_bb_waves_total",
    "vrl_solver_bb_guard_prunes_total",
    "vrl_solver_bb_counterexamples_total",
    "vrl_solver_query_cache_hits_total",
    "vrl_solver_query_cache_misses_total",
];

/// A point-in-time copy of [`COUNTERS`] plus the two codec-phase and the
/// decide-latency histograms (count and nanosecond sum each).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, (u64, u64)>,
}

impl Snapshot {
    /// Reads the registry now.
    pub fn take() -> Snapshot {
        let reg = registry();
        let counters = COUNTERS
            .iter()
            .map(|&name| (name, reg.counter(name, "").get()))
            .collect();
        let codec = reg.histogram_vec("vrl_http_codec_phase_seconds", "phase", "");
        let decide = reg.histogram("vrl_runtime_decide_latency_seconds", "");
        let mut histograms = BTreeMap::new();
        for (key, h) in [
            ("decode", codec.with("decode")),
            ("encode", codec.with("encode")),
            ("decide", decide),
        ] {
            histograms.insert(key, (h.count(), h.sum_ns()));
        }
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Growth of counter `name` since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`COUNTERS`].
    pub fn delta(&self, earlier: &Snapshot, name: &str) -> f64 {
        let now = self.counters[name];
        let then = earlier.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(then) as f64
    }

    /// Mean nanoseconds per observation of histogram `key` (`decode`,
    /// `encode` or `decide`) since `earlier`, or 0 with none.
    pub fn histogram_mean_ns(&self, earlier: &Snapshot, key: &str) -> f64 {
        let (count, sum) = self.histograms[key];
        let (c0, s0) = earlier.histograms.get(key).copied().unwrap_or((0, 0));
        crate::stats::ratio(
            sum.saturating_sub(s0) as f64,
            count.saturating_sub(c0) as f64,
        )
    }
}

/// Collects spans from the ring while a traced phase runs.  A background
/// thread drains every 20 ms, well inside the 8,192-span ring even at the
/// highest request rate the benchmark drives.
struct SpanSink {
    records: Mutex<Vec<SpanRecord>>,
    stop: AtomicBool,
}

impl SpanSink {
    /// An empty sink.
    fn new() -> SpanSink {
        SpanSink {
            records: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    /// Drains the ring into the sink.
    fn drain(&self) {
        let drained = vrl_obs::drain_spans();
        self.records
            .lock()
            .expect("span sink never poisoned")
            .extend(drained);
    }

    /// Drains every 20 ms until [`SpanSink::stop`]; run on its own thread.
    fn run(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
            self.drain();
        }
        self.drain();
    }

    /// Ends [`SpanSink::run`].
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Everything collected so far (a final drain included).
    fn take(&self) -> Vec<SpanRecord> {
        self.drain();
        std::mem::take(&mut *self.records.lock().expect("span sink never poisoned"))
    }
}

/// Runs `f` with tracing on and a draining thread beside it; returns its
/// result and every span recorded meanwhile.  Tracing is off again on
/// return: everything outside a traced phase runs untraced.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let sink = SpanSink::new();
    vrl_obs::drain_spans();
    vrl_obs::set_enabled(true);
    let out = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| sink.run());
        let out = f();
        sink.stop();
        drainer.join().expect("span drainer panicked");
        out
    });
    vrl_obs::set_enabled(false);
    (out, sink.take())
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [SpanRecord], name: &str) -> impl Iterator<Item = &'a SpanRecord> {
    let name = name.to_string();
    spans.iter().filter(move |s| s.name == name)
}

/// Whether a span belongs to a deploy (`PUT`) request of the benchmark.
pub fn is_put(span: &SpanRecord) -> bool {
    span.request_id
        .as_deref()
        .is_some_and(|id| id.starts_with("put-"))
}

/// Nanoseconds covered by each span's direct children, by parent id.  A
/// span's self time is its duration minus this.
pub fn children_ns(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut covered = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0) += s.dur_ns;
    }
    covered
}

/// Sum of the durations of spans named `name`, in seconds.
pub fn total_s(spans: &[SpanRecord], name: &str) -> f64 {
    named(spans, name).map(|s| s.dur_ns as f64).sum::<f64>() / 1e9
}

/// Mean duration of spans named `name`, in nanoseconds, or 0 when none
/// were recorded.
pub fn mean_ns(spans: &[SpanRecord], name: &str) -> f64 {
    let (n, sum) = named(spans, name).fold((0u64, 0f64), |(n, s), r| (n + 1, s + r.dur_ns as f64));
    crate::stats::ratio(sum, n as f64)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered list of metrics with a convenience pusher.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value of `name`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}
