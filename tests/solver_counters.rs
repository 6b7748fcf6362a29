//! Exact deltas on the process-global branch-and-bound work counters.
//!
//! Every integration-test file is its own process, and libtest runs the
//! tests of one process concurrently, so an exact `before`/`after` delta on
//! a global counter only holds when no other test in the binary runs a
//! proof.  This binary holds a single test for that reason.

use vrl_poly::{Interval, Polynomial};
use vrl_solver::{prove_nonpositive, BranchBoundConfig, ProofOutcome};

fn counter(name: &str) -> u64 {
    vrl_obs::registry().counter(name, "").get()
}

#[test]
fn each_query_flushes_its_tally_exactly_once() {
    vrl_solver::install_metrics();
    let x = Polynomial::variable(0, 1);
    let p = &(&x * &x) - &Polynomial::constant(1.0, 1);
    let config = BranchBoundConfig::default();

    // A proof: the boxes counter moves by exactly the returned box count,
    // and inside the one-box-per-wave probing window every box is a wave.
    let queries = counter("vrl_solver_bb_queries_total");
    let boxes = counter("vrl_solver_bb_boxes_total");
    let waves = counter("vrl_solver_bb_waves_total");
    let refuted = counter("vrl_solver_bb_counterexamples_total");
    let outcome = prove_nonpositive(&p, &[Interval::new(-1.0, 1.0)], &config);
    let ProofOutcome::Proved { boxes_examined } = outcome else {
        panic!("x² − 1 ≤ 0 holds on [−1, 1], got {outcome:?}");
    };
    assert!(boxes_examined < 1024, "the proof must stay in the window");
    assert_eq!(counter("vrl_solver_bb_queries_total"), queries + 1);
    assert_eq!(
        counter("vrl_solver_bb_boxes_total"),
        boxes + boxes_examined as u64
    );
    assert_eq!(
        counter("vrl_solver_bb_waves_total"),
        waves + boxes_examined as u64
    );
    assert_eq!(counter("vrl_solver_bb_counterexamples_total"), refuted);

    // A refutation counts one query and one counterexample.
    let queries = counter("vrl_solver_bb_queries_total");
    let outcome = prove_nonpositive(&p, &[Interval::new(-2.0, 2.0)], &config);
    assert!(
        outcome.counterexample().is_some(),
        "x = ±2 violates the bound"
    );
    assert_eq!(counter("vrl_solver_bb_queries_total"), queries + 1);
    assert_eq!(counter("vrl_solver_bb_counterexamples_total"), refuted + 1);
}
