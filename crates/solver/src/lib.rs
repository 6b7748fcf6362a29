//! Constraint-solving substrate for the verifiable-RL framework.
//!
//! The paper's toolchain relies on two external solvers: Mosek (sum-of-squares
//! programming to find barrier-certificate coefficients) and Z3 (to check
//! coverage of the initial state space).  This crate provides the self-contained
//! replacements used by `vrl-verify`:
//!
//! * [`prove_bound`] / [`prove_nonpositive`] / [`prove_positive`] — sound
//!   interval branch-and-bound proving of polynomial inequalities over boxes,
//!   optionally restricted by polynomial guards (used both for the
//!   verification conditions and for the CEGIS coverage check);
//! * [`solve_feasibility`] — an iterative margin-maximization solver for the
//!   sampled linear constraints that candidate invariant coefficients must
//!   satisfy;
//! * [`solve_discrete_lyapunov`] — exact quadratic certificates for linear
//!   closed loops, the scalable back-end for high-dimensional LTI benchmarks.
//!
//! # Branch-and-bound evaluation and the query cache
//!
//! Every `prove_*` query compiles its objective and its guards into flat
//! compiled families and encloses each box through the one scalar interval
//! kernel, bit-for-bit the reference `Polynomial::eval_interval`.  The
//! frontier is expanded in small waves of boxes processed in pop order;
//! the opening boxes are traversed one per wave in classic depth-first
//! order, so refutations surface as fast as a plain depth-first probe.
//! Compiled families are memoized in a two-level
//! [`CompiledQueryCache`] keyed by the exact term content of the query
//! polynomials — a lock-free per-thread L1 backed by a process-wide
//! sharded L2, so CEGIS loops that re-prove the same certificate family
//! (every verification back-end and [`sound_minimum`] route through the
//! cache) skip recompilation entirely, workloads fanning one family across
//! worker threads compile it once per process, and a hit can never change
//! an outcome because the cached kernel is exactly what a fresh
//! compilation would produce.  Both levels are bounded (LRU eviction; see
//! [`DEFAULT_QUERY_CACHE_CAPACITY`]); [`query_cache_stats`] /
//! [`reset_query_cache`] expose the per-thread counters for tests and
//! benches, and [`shared_query_cache_stats`] the process-wide ones.  Cache
//! traffic and branch-and-bound work tallies (queries, boxes, waves,
//! prunes, counterexamples) are additionally mirrored into the
//! process-wide [`vrl_obs`] registry for `GET /metrics` scrapes;
//! [`install_metrics`] forces registration of the full series set.
//!
//! # Examples
//!
//! ```
//! use vrl_poly::{Interval, Polynomial};
//! use vrl_solver::{prove_nonpositive, BranchBoundConfig};
//!
//! // x² − 1 ≤ 0 on [−1, 1]
//! let x = Polynomial::variable(0, 1);
//! let p = &(&x * &x) - &Polynomial::constant(1.0, 1);
//! let outcome = prove_nonpositive(&p, &[Interval::new(-1.0, 1.0)], &BranchBoundConfig::default());
//! assert!(outcome.is_proved());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod branch_bound;
mod cache;
mod feasibility;
mod lyapunov;
mod obs;

pub use branch_bound::{
    prove_bound, prove_nonpositive, prove_positive, sound_minimum, BoundQuery, BranchBoundConfig,
    ProofOutcome,
};
pub use cache::{
    query_cache_stats, reset_query_cache, reset_shared_query_cache, shared_query_cache_stats,
    with_query_cache, CompiledQueryCache, QueryCacheStats, SharedQueryCacheStats,
    DEFAULT_QUERY_CACHE_CAPACITY,
};
pub use feasibility::{
    solve_feasibility, FeasibilityConfig, FeasibilitySolution, LinearConstraint,
};
pub use lyapunov::{decrease_certificate, solve_discrete_lyapunov, LyapunovError};
pub use obs::install_metrics;
