//! Solver metrics: branch-and-bound work counters and query-cache
//! traffic, registered in the process-wide [`vrl_obs`] registry.
//!
//! The proof loop is a hot path, so per-box accounting goes through
//! [`BbTally`]: plain [`Cell`] increments while the query runs, one
//! relaxed atomic `add` per counter when the query finishes (the tally
//! flushes on `Drop`, which covers every return path of
//! [`crate::prove_bound`] including counterexample and budget-exhausted
//! exits).  Cache traffic is mirrored straight from
//! [`crate::CompiledQueryCache::get_or_compile`] — registration is
//! lazy, the steady-state cost is one relaxed RMW per lookup.
//!
//! Instrumentation is strictly read-only: it observes values the proof
//! loop already computed, so outcomes are bit-identical with or without
//! the registry (the conformance sweeps in `vrl-bench` exercise this).

use std::cell::Cell;
use std::sync::LazyLock;
use vrl_obs::{registry, Counter};

macro_rules! solver_counter {
    ($fn_name:ident, $metric:literal, $help:literal) => {
        /// Lazily registered handle for the metric named in the body.
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: LazyLock<&'static Counter> =
                LazyLock::new(|| registry().counter($metric, $help));
            *HANDLE
        }
    };
}

solver_counter!(
    bb_queries,
    "vrl_solver_bb_queries_total",
    "Branch-and-bound bound queries started."
);
solver_counter!(
    bb_boxes,
    "vrl_solver_bb_boxes_total",
    "Boxes popped off branch-and-bound frontiers."
);
solver_counter!(
    bb_waves,
    "vrl_solver_bb_waves_total",
    "Frontier waves popped by branch-and-bound searches."
);
solver_counter!(
    bb_guard_prunes,
    "vrl_solver_bb_guard_prunes_total",
    "Boxes excluded by guard pruning before objective evaluation."
);
solver_counter!(
    bb_counterexamples,
    "vrl_solver_bb_counterexamples_total",
    "Branch-and-bound queries refuted by a genuine counterexample."
);
solver_counter!(
    min_boxes,
    "vrl_solver_min_boxes_total",
    "Boxes refined by sound_minimum best-first searches."
);
solver_counter!(
    cache_hits,
    "vrl_solver_query_cache_hits_total",
    "Compiled-query-cache lookups answered from the cache."
);
solver_counter!(
    cache_misses,
    "vrl_solver_query_cache_misses_total",
    "Compiled-query-cache lookups that had to compile."
);
solver_counter!(
    cache_evictions,
    "vrl_solver_query_cache_evictions_total",
    "Compiled-query-cache entries evicted by the capacity bound."
);
solver_counter!(
    shared_cache_hits,
    "vrl_solver_shared_query_cache_hits_total",
    "Thread-cache misses answered by the process-wide compiled-family store."
);
solver_counter!(
    shared_cache_misses,
    "vrl_solver_shared_query_cache_misses_total",
    "Compiled-family compilations new to the whole process."
);
solver_counter!(
    shared_cache_contended,
    "vrl_solver_shared_query_cache_contended_total",
    "Shared-store shard-lock acquisitions that found the lock held."
);

/// Forces registration of every solver metric so a scrape shows the
/// full solver series set (at zero) before any proof has run.
pub fn install_metrics() {
    let _ = bb_queries();
    let _ = bb_boxes();
    let _ = bb_waves();
    let _ = bb_guard_prunes();
    let _ = bb_counterexamples();
    let _ = min_boxes();
    let _ = cache_hits();
    let _ = cache_misses();
    let _ = cache_evictions();
    let _ = shared_cache_hits();
    let _ = shared_cache_misses();
    let _ = shared_cache_contended();
}

/// Per-query work tally for one [`crate::prove_bound`] call.
///
/// Increments are non-atomic [`Cell`] bumps; the flush to the global
/// counters happens exactly once, on `Drop`, whichever way the query
/// returns.
pub(crate) struct BbTally {
    boxes: Cell<u64>,
    waves: Cell<u64>,
    prunes: Cell<u64>,
    counterexample: Cell<bool>,
}

impl BbTally {
    /// Starts a tally (and counts the query itself).
    pub(crate) fn start() -> Self {
        bb_queries().inc();
        BbTally {
            boxes: Cell::new(0),
            waves: Cell::new(0),
            prunes: Cell::new(0),
            counterexample: Cell::new(false),
        }
    }

    /// Counts one popped box.
    #[inline]
    pub(crate) fn box_examined(&self) {
        self.boxes.set(self.boxes.get() + 1);
    }

    /// Counts one popped wave.
    #[inline]
    pub(crate) fn wave(&self) {
        self.waves.set(self.waves.get() + 1);
    }

    /// Counts one guard-pruned box.
    #[inline]
    pub(crate) fn guard_prune(&self) {
        self.prunes.set(self.prunes.get() + 1);
    }

    /// Marks the query as refuted by a counterexample.
    #[inline]
    pub(crate) fn found_counterexample(&self) {
        self.counterexample.set(true);
    }
}

impl Drop for BbTally {
    fn drop(&mut self) {
        bb_boxes().add(self.boxes.get());
        bb_waves().add(self.waves.get());
        bb_guard_prunes().add(self.prunes.get());
        if self.counterexample.get() {
            bb_counterexamples().inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_registers_all_series() {
        install_metrics();
        let text = registry().render_prometheus();
        for series in [
            "vrl_solver_bb_queries_total",
            "vrl_solver_bb_boxes_total",
            "vrl_solver_bb_waves_total",
            "vrl_solver_bb_guard_prunes_total",
            "vrl_solver_bb_counterexamples_total",
            "vrl_solver_min_boxes_total",
            "vrl_solver_query_cache_hits_total",
            "vrl_solver_query_cache_misses_total",
            "vrl_solver_query_cache_evictions_total",
            "vrl_solver_shared_query_cache_hits_total",
            "vrl_solver_shared_query_cache_misses_total",
            "vrl_solver_shared_query_cache_contended_total",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
    }
}
