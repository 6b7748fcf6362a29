//! Exact deltas on the process-global `vrl-obs` counters the farm bumps.
//!
//! Every integration-test file is its own process, and libtest runs the
//! tests of one process concurrently, so an exact `before`/`after` delta on
//! a global counter only holds when no other test in the binary touches
//! that counter.  This binary is that isolation: each counter below is
//! bumped by exactly one test.
//!
//! - `vrl_shield_decide_table_build_fallbacks_total`: only the table-build
//!   test builds decision tables (the farm test runs without one).
//! - `vrl_farm_jobs_total`: only the farm test runs the scheduler.

use vrl::dynamics::EnvironmentContext;
use vrl::shield::{CegisConfig, Shield, ShieldPiece, TableConfig};
use vrl::synth::PolicyProgram;
use vrl_farm::{generate, run_farm, scenario_by_id, FarmConfig, JobConfig};
use vrl_runtime::fixtures;

/// The demo shield of the farm conformance sweep: an ellipsoid at a
/// quarter of the safe-box widths under mildly stabilizing linear gains.
fn demo_shield(env: &EnvironmentContext) -> Shield {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let gains = vec![vec![-0.5; env.state_dim()]; env.action_dim()];
    let program = PolicyProgram::linear(&gains, &vec![0.0; env.action_dim()]);
    Shield::new(
        env.clone(),
        vec![ShieldPiece::new(
            program,
            fixtures::ellipsoid_certificate(env, &radii),
        )],
    )
}

#[test]
fn each_table_build_fallback_is_recorded_exactly_once() {
    // Low-dimensional instances build their table; the 8-D and 16-D
    // platoons and the 18-D oscillator overflow the cell cap and degrade.
    let ids = [
        "quadcopter/d0.300",
        "platoon/n2",
        "platoon/n4",
        "platoon/n8",
        "oscillator/k16",
    ];
    let (mut built, mut fell_back) = (0, 0);
    for id in ids {
        let scenario = scenario_by_id(id).unwrap_or_else(|| panic!("{id} regenerates"));
        let before = vrl::shield::decide_table_build_fallback_count();
        let shield = demo_shield(scenario.env()).with_table_or_fallback(&TableConfig::uniform(8));
        let after = vrl::shield::decide_table_build_fallback_count();
        if shield.table().is_some() {
            built += 1;
            assert_eq!(after, before, "{id}: spurious fallback count");
        } else {
            fell_back += 1;
            assert_eq!(
                after,
                before + 1,
                "{id}: fallback must be recorded in the obs counter"
            );
        }
    }
    assert!(built > 0 && fell_back > 0, "both regimes must be exercised");
}

#[test]
fn every_farm_job_is_recorded_in_the_jobs_counter() {
    let subset: Vec<_> = generate(&FarmConfig::smoke())
        .into_iter()
        .filter(|s| s.family() == "quadcopter")
        .collect();
    assert!(!subset.is_empty());
    let mut cegis = CegisConfig::smoke_test();
    cegis.distill.iterations = 30;
    cegis.distill.trajectories = 2;
    cegis.distill.horizon = 150;
    let config = JobConfig {
        cegis,
        oracle_hidden: vec![8],
        table: None,
        timeout: None,
    };
    let jobs_before = vrl_farm::jobs_completed();
    let report = run_farm(&subset, &config, 3);
    assert_eq!(report.records.len(), subset.len());
    assert_eq!(
        vrl_farm::jobs_completed() - jobs_before,
        subset.len() as u64,
        "every job must be recorded in vrl_farm_jobs_total"
    );
}
