//! Differential soundness sweep for branch-and-bound: over every Table 1
//! benchmark, the compiled interval kernel the prover runs on must enclose
//! the induction query's polynomials **bit-for-bit** like the reference
//! `Polynomial::eval_interval` (on the root domain and on every box of a
//! fixed-depth bisection), every witness the prover returns must be a
//! genuine counterexample under the reference `Polynomial::eval`,
//! `sound_minimum` must bracket the true minimum, and the full
//! verification pipeline must synthesize **identical certificates** from a
//! cold and a warm query cache.
//!
//! Like `batch_conformance`, the certificates here are the fixtures'
//! ellipsoidal demo shields sized from each benchmark's safe box (the
//! queries need not be provable — refuted and budget-exhausted outcomes are
//! checked just as strictly); the pipeline tests then cover genuinely
//! certifiable programs.  Per-benchmark timings are printed so CI logs
//! surface verification-speed regressions (run with `--nocapture`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vrl::poly::{Interval, Polynomial};
use vrl::solver::{
    prove_bound, reset_query_cache, sound_minimum, with_query_cache, BoundQuery, BranchBoundConfig,
    ProofOutcome,
};
use vrl::verify::{verify_program, VerificationConfig};
use vrl_benchmarks::{all_benchmarks, benchmark_by_name};
use vrl_runtime::fixtures;

/// Bisection depth of the enclosure sweep: every node of the depth-6 tree
/// (127 boxes per benchmark) is checked.
const BISECTION_DEPTH: usize = 6;

/// The induction-style query of the eval-kernel benches, generalized to any
/// benchmark: `E(s') ≤ 0` under the guard `E(s) ≤ 0`, with `E` the
/// ellipsoid at a quarter of the safe-box widths and a mildly stabilizing
/// linear program (every action pulls against every state coordinate).
fn induction_query(
    env: &vrl::dynamics::EnvironmentContext,
) -> (Polynomial, Polynomial, Vec<Interval>) {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let programs: Vec<Polynomial> = (0..env.action_dim())
        .map(|_| Polynomial::linear(&vec![-0.5; env.state_dim()], 0.0))
        .collect();
    let successor = env.successor_polynomials(&programs);
    let barrier = fixtures::ellipsoid_certificate(env, &radii)
        .polynomial()
        .clone();
    let next_value = barrier.substitute(&successor);
    let domain = safe.to_intervals();
    (next_value, barrier, domain)
}

/// Every box of the depth-`depth` bisection tree of `domain` (root
/// included), each node split along its widest dimension as the prover
/// splits.
fn bisection_tree(domain: &[Interval], depth: usize) -> Vec<Vec<Interval>> {
    let mut level = vec![domain.to_vec()];
    let mut all = level.clone();
    for _ in 0..depth {
        level = level
            .iter()
            .flat_map(|current| {
                let split_dim = (0..current.len())
                    .max_by(|&a, &b| current[a].width().total_cmp(&current[b].width()))
                    .unwrap_or(0);
                let (left, right) = current[split_dim].bisect();
                let mut left_box = current.clone();
                left_box[split_dim] = left;
                let mut right_box = current.clone();
                right_box[split_dim] = right;
                [left_box, right_box]
            })
            .collect();
        all.extend(level.iter().cloned());
    }
    all
}

fn bits(iv: Interval) -> (u64, u64) {
    (iv.lo().to_bits(), iv.hi().to_bits())
}

#[test]
fn compiled_branch_and_bound_matches_reference_on_all_table1_benchmarks() {
    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 15, "Table 1 lists 15 benchmarks");
    let config = BranchBoundConfig {
        max_boxes: 3_000,
        ..BranchBoundConfig::default()
    };
    let sweep_start = Instant::now();
    for spec in benchmarks {
        let name = spec.name();
        let env = spec.into_env();
        let (next_value, barrier, domain) = induction_query(&env);

        // The families the prover pulls from the query cache: the objective
        // alone and the guard alone, plus both together.
        let start = Instant::now();
        let families = [
            vec![&next_value],
            vec![&barrier],
            vec![&next_value, &barrier],
        ];
        let boxes = bisection_tree(&domain, BISECTION_DEPTH);
        for polys in &families {
            let compiled = with_query_cache(|cache| cache.get_or_compile(polys));
            let mut enclosures = vec![Interval::zero(); polys.len()];
            for (b, current) in boxes.iter().enumerate() {
                compiled.eval_interval_into(current, &mut enclosures);
                for (poly, &enclosure) in polys.iter().zip(enclosures.iter()) {
                    assert_eq!(
                        bits(enclosure),
                        bits(poly.eval_interval(current)),
                        "{name}: compiled enclosure diverged from the reference on box {b}"
                    );
                }
            }
        }
        let enclosure_elapsed = start.elapsed();

        let query = BoundQuery::new(&next_value, 0.0).with_guard(&barrier);
        let start = Instant::now();
        let outcome = prove_bound(&query, &domain, &config);
        let prove_elapsed = start.elapsed();
        if let ProofOutcome::Counterexample { point, value } = &outcome {
            assert!(
                point
                    .iter()
                    .zip(domain.iter())
                    .all(|(&x, iv)| iv.contains(x)),
                "{name}: witness {point:?} lies outside the domain"
            );
            assert!(
                barrier.eval(point) <= 0.0,
                "{name}: witness {point:?} violates the guard"
            );
            let reference = next_value.eval(point);
            assert!(
                reference > 0.0,
                "{name}: witness {point:?} does not violate the bound"
            );
            assert_eq!(
                value.to_bits(),
                reference.to_bits(),
                "{name}: witness value differs from the reference evaluator"
            );
        }
        println!(
            "branch_bound_conformance: {name:<20} enclosures {enclosure_elapsed:>10.3?}  prove {prove_elapsed:>10.3?}  outcome {}",
            match &outcome {
                o if o.is_proved() => "proved",
                o if o.counterexample().is_some() => "refuted",
                _ => "unknown",
            }
        );
    }
    println!(
        "branch_bound_conformance: full 15-benchmark sweep in {:.3?}",
        sweep_start.elapsed()
    );
}

#[test]
fn sound_minimum_brackets_the_minimum_on_all_table1_benchmarks() {
    // The returned bound must lie between the reference root enclosure's
    // lower endpoint and the reference value at every sampled point, on
    // every benchmark's certificate and successor polynomials, across
    // budgets that stop mid-wave, exactly at a wave boundary, and deep into
    // refinement.
    let mut rng = SmallRng::seed_from_u64(2019);
    for spec in all_benchmarks() {
        let name = spec.name();
        let env = spec.into_env();
        let (next_value, barrier, domain) = induction_query(&env);
        let mut samples: Vec<Vec<f64>> = vec![
            domain.iter().map(Interval::midpoint).collect(),
            domain.iter().map(Interval::lo).collect(),
            domain.iter().map(Interval::hi).collect(),
        ];
        samples.extend((0..32).map(|_| {
            domain
                .iter()
                .map(|iv| iv.lo() + rng.gen_range(0.0..1.0) * iv.width())
                .collect()
        }));
        for polynomial in [&barrier, &next_value] {
            let root_lo = polynomial.eval_interval(&domain).lo();
            let sampled_min = samples
                .iter()
                .map(|s| polynomial.eval(s))
                .fold(f64::INFINITY, f64::min);
            for max_boxes in [1usize, 7, 16, 300] {
                let minimum = sound_minimum(polynomial, &domain, max_boxes);
                assert!(
                    root_lo <= minimum && minimum <= sampled_min,
                    "{name}: sound_minimum {minimum} at max_boxes={max_boxes} \
                     escapes the bracket [{root_lo}, {sampled_min}]"
                );
            }
        }
    }
}

#[test]
fn verification_certificates_are_identical_across_runs() {
    // Full-pipeline certificate identity: the linear (Lyapunov) back-end on
    // a Table 1 LTI benchmark, and the nonlinear (sampled-constraint +
    // branch-and-bound) back-end on the Duffing oscillator with the paper's
    // Example 4.3 program.  Verification is seeded, so the only difference
    // between the two runs is the query cache — cold for the first, warm
    // for the second — and identical certificates prove it changes nothing.
    let cases: Vec<(
        &str,
        vrl::dynamics::EnvironmentContext,
        Vec<Polynomial>,
        u32,
    )> = vec![
        (
            "satellite",
            benchmark_by_name("satellite").unwrap().into_env(),
            vec![Polynomial::linear(&[-2.0, -2.0], 0.0)],
            2,
        ),
        (
            // Example 4.3's first synthesized policy P1 on a restricted
            // initial region (the full Duffing region needs several CEGIS
            // pieces; one is enough to exercise the nonlinear back-end).
            "duffing",
            vrl_benchmarks::duffing::duffing_env()
                .with_init(vrl::dynamics::BoxRegion::symmetric(&[1.0, 1.0])),
            vec![Polynomial::linear(&[0.39, -1.41], 0.0)],
            4,
        ),
    ];
    for (name, env, program, degree) in cases {
        let config = VerificationConfig::with_degree(degree);
        reset_query_cache();
        let start = Instant::now();
        let cold = verify_program(&env, &program, env.init(), &config)
            .unwrap_or_else(|e| panic!("{name}: cold-cache verification failed: {e}"));
        let cold_elapsed = start.elapsed();
        let start = Instant::now();
        let warm = verify_program(&env, &program, env.init(), &config)
            .unwrap_or_else(|e| panic!("{name}: warm-cache verification failed: {e}"));
        let warm_elapsed = start.elapsed();
        assert_eq!(
            cold.polynomial(),
            warm.polynomial(),
            "{name}: the two runs synthesized different certificates"
        );
        println!(
            "branch_bound_conformance: verify {name:<12} cold {cold_elapsed:>10.3?}  warm {warm_elapsed:>10.3?}  (identical certificate)"
        );
    }
}
