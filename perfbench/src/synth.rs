//! The synthesis workloads, `synth_verify` and `synth_distill`, the
//! independent checks every synthesized artifact must pass, and the
//! synthesis half of the per-layer ledger.

use crate::ledger::{self, Snapshot};
use crate::serve::{self, Inputs, Stand};
use crate::stats;
use crate::Outcome;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use vrl::dynamics::{BoxRegion, Policy};
use vrl::shield::{CegisConfig, TableConfig};
use vrl::solver::{reset_shared_query_cache, shared_query_cache_stats, SharedQueryCacheStats};
use vrl_farm::{
    family, fnv1a64, generate, run_farm, FarmConfig, FarmReport, JobConfig, JobOutcome, JobRecord,
    Scenario,
};
use vrl_obs::SpanRecord;
use vrl_runtime::ShieldArtifact;

/// Worker threads of every farm run.
pub const THREADS: usize = 2;
/// Catalogue generations per set-up round; a run makes one round before
/// its first pass and one after each pass, so `setup_s`, the median of all
/// of them, samples the whole run.
const SETUP_REPS: usize = 11;

/// The per-job budget of the repository's farm bench.
pub fn job_config() -> JobConfig {
    let mut cegis = CegisConfig::smoke_test();
    cegis.distill.iterations = 30;
    cegis.distill.trajectories = 2;
    cegis.distill.horizon = 150;
    JobConfig {
        cegis,
        oracle_hidden: vec![8],
        table: Some(TableConfig::uniform(8)),
        timeout: None,
    }
}

/// Which synthesis workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Verification-bound jobs: the Duffing family plus two small platoons.
    Verify,
    /// Distillation-bound jobs: the quadcopter family plus every family
    /// scenario of state dimension at least 8.
    Distill,
}

/// The jobs of `kind` in a generated catalogue, in catalogue order.
pub fn select(kind: Kind, catalogue: &[Scenario]) -> Vec<Scenario> {
    catalogue
        .iter()
        .filter(|s| match kind {
            Kind::Verify => {
                s.family() == "duffing" || s.id() == "platoon/n2" || s.id() == "platoon/n3"
            }
            // Sampled products are left out: their seed-dependent mix moved
            // the median job time by a quarter from seed to seed.
            Kind::Distill => {
                s.family() == "quadcopter" || (s.family() != "product" && s.env().state_dim() >= 8)
            }
        })
        .cloned()
        .collect()
}

/// Generates the catalogue for `seed` and selects the jobs, highest state
/// dimension first (catalogue order among equals), the order of a run's
/// first pass; later passes run [`longest_first`].
fn job_list(kind: Kind, seed: u64) -> Vec<Scenario> {
    let catalogue = generate(&FarmConfig {
        seed,
        ..FarmConfig::default()
    });
    let mut jobs = select(kind, &catalogue);
    jobs.sort_by_key(|s| std::cmp::Reverse(s.env().state_dim()));
    jobs
}

/// One farm pass with a cold shared query cache; returns the report and
/// the shared-cache figures it produced.
fn pass(jobs: &[Scenario], config: &JobConfig) -> (FarmReport, SharedQueryCacheStats) {
    reset_shared_query_cache();
    let report = run_farm(jobs, config, THREADS);
    (report, shared_query_cache_stats())
}

/// Verdict labels of a report, by scenario id.
fn verdicts(report: &FarmReport) -> Vec<(String, &'static str)> {
    let mut v: Vec<_> = report
        .records
        .iter()
        .map(|r| (r.scenario_id.clone(), r.outcome.label()))
        .collect();
    v.sort();
    v
}

/// `jobs` reordered longest first by their durations in `report`, which
/// ran them in this order.  A job's work is fixed by its count budgets, so
/// the order holds from pass to pass, and the pass ends on the shortest
/// jobs: ordered by state dimension alone, a 0.7 s quadcopter variant
/// sometimes ran last while the other thread idled, and moved the
/// makespan of a 3.5 s `synth_distill` pass by a sixth.
fn longest_first(jobs: &[Scenario], report: &FarmReport) -> Vec<Scenario> {
    let mut timed: Vec<(Duration, &Scenario)> = report
        .records
        .iter()
        .map(|r| r.duration)
        .zip(jobs)
        .collect();
    timed.sort_by(|a, b| b.0.cmp(&a.0));
    timed.into_iter().map(|(_, s)| s.clone()).collect()
}

/// What the artifact checks of a run examined.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    artifacts: u64,
    init: u64,
    unsafe_successors: u64,
    invariant_successors: u64,
    rollout_steps: u64,
}

impl Tally {
    fn note(&self, out: &mut Outcome) {
        out.note(format!(
            "artifact checks: {} artifacts, {} initial states, {} unsafe successors, {} invariant successors, {} shielded rollout steps",
            self.artifacts, self.init, self.unsafe_successors, self.invariant_successors, self.rollout_steps
        ));
    }
}

/// Generates the catalogue and selects the workload's jobs
/// [`SETUP_REPS`] times, pushing each time onto `times`; returns the jobs.
fn setup_round(kind: Kind, seed: u64, times: &mut Vec<f64>) -> Vec<Scenario> {
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        jobs = job_list(kind, seed);
        times.push(start.elapsed().as_secs_f64());
    }
    jobs
}

/// Whether job `id` must synthesize.  On the code this benchmark was
/// written against, every Duffing and quadcopter variant and `platoon/n2`
/// synthesize, while `platoon/n3` and every job of state dimension 8 or
/// more end infeasible.  Job budgets are counts, not wall-clock time, so a
/// verdict depends on the code alone: a job that stops synthesizing fails,
/// and lost verification cannot pass for a faster farm.
pub fn must_synthesize(id: &str) -> bool {
    id.starts_with("duffing/") || id.starts_with("quadcopter/") || id == "platoon/n2"
}

/// Jobs per pass of each workload; another count means the workload
/// changed.
fn job_count(kind: Kind) -> usize {
    match kind {
        Kind::Verify => 18,
        Kind::Distill => 28,
    }
}

/// Checks every job of `report`: a job of [`must_synthesize`] that did not
/// synthesize fails, and so does a synthesized artifact that fails
/// [`check_artifact`].  Each job and each artifact check is an operation.
fn check_report(out: &mut Outcome, report: &FarmReport, tally: &mut Tally) {
    let mut failed = 0;
    let mut checked = 0;
    for record in &report.records {
        let synthesized = matches!(record.outcome, JobOutcome::Synthesized { .. });
        if must_synthesize(&record.scenario_id) && !synthesized {
            failed += 1;
            out.note(format!(
                "VERDICT LOST {}: {} where it must synthesize",
                record.scenario_id,
                record.outcome.label()
            ));
        }
        if record.artifact.is_none() {
            continue;
        }
        checked += 1;
        if let Err(why) = check_artifact(record, tally) {
            failed += 1;
            out.note(format!("CHECK FAILED {}: {why}", record.scenario_id));
        }
    }
    tally.artifacts += checked;
    out.count(report.records.len() as u64 + checked, failed);
}

/// Samples drawn by each point check.
const SAMPLES: usize = 64;
/// Shielded rollouts per artifact, and their length.
const ROLLOUTS: usize = 4;
const HORIZON: usize = 200;

/// The independent checks on one synthesized artifact:
///
/// 1. its bytes hash to the checksum the job reported and round-trip
///    through `from_bytes` unchanged;
/// 2. point samples of its certificates: some piece has `B ≤ 0` on each
///    initial-state sample, a piece has `B > 0` on each unsafe one-step
///    successor of a safe state under its program, and a piece's own
///    program keeps sampled states of `{B ≤ 0}` inside it for one step;
/// 3. shielded rollouts from initial states never leave the safe set.
pub fn check_artifact(record: &JobRecord, tally: &mut Tally) -> Result<(), String> {
    let artifact = record.artifact.as_ref().ok_or("no artifact")?;
    let JobOutcome::Synthesized {
        artifact_checksum, ..
    } = record.outcome
    else {
        return Err(format!(
            "artifact beside outcome {}",
            record.outcome.label()
        ));
    };
    let bytes = artifact.to_bytes();
    if fnv1a64(&bytes) != artifact_checksum {
        return Err("artifact bytes do not hash to the reported checksum".into());
    }
    let decoded = ShieldArtifact::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    if decoded.to_bytes() != bytes {
        return Err("artifact does not round-trip through its bytes".into());
    }

    let shield = artifact.shield();
    let env = shield.env();
    let safety = env.safety();
    let safe = safety.safe_box();
    let mut rng = SmallRng::seed_from_u64(fnv1a64(record.scenario_id.as_bytes()));
    for _ in 0..SAMPLES {
        let s = env.init().sample(&mut rng);
        tally.init += 1;
        if !shield
            .pieces()
            .iter()
            .any(|p| p.invariant().value(&s) <= 0.0)
        {
            return Err(format!("initial state {s:?} has B > 0 for every piece"));
        }
    }
    // Unsafe samples where the certificate makes its claim: one-step
    // successors, under a piece's own program, of safe states pushed onto a
    // face of the safe box.  Beyond that one-step band `{B ≤ 0}` is
    // unconstrained, and no run of the system can get there.
    for (k, piece) in shield.pieces().iter().enumerate() {
        let mut unsafe_seen = 0;
        for _ in 0..SAMPLES * 20 {
            let mut s = safe.sample(&mut rng);
            let axis = rng.gen_range(0..s.len());
            s[axis] = if rng.gen_bool(0.5) {
                safe.low(axis)
            } else {
                safe.high(axis)
            };
            if !safety.is_safe(&s) {
                continue;
            }
            let next = env.step_deterministic(&s, &piece.program().action(&s));
            if !safety.is_unsafe(&next) {
                continue;
            }
            unsafe_seen += 1;
            tally.unsafe_successors += 1;
            if piece.invariant().value(&next) <= 0.0 {
                return Err(format!("piece {k}: unsafe successor {next:?} has B <= 0"));
            }
            if unsafe_seen == SAMPLES {
                break;
            }
        }
    }
    for (k, piece) in shield.pieces().iter().enumerate() {
        let b = piece.invariant();
        let mut inside = 0;
        for draw in 0..SAMPLES * 20 {
            let region: &BoxRegion = if draw % 2 == 0 { env.init() } else { safe };
            let s = region.sample(&mut rng);
            if b.value(&s) > 0.0 {
                continue;
            }
            inside += 1;
            tally.invariant_successors += 1;
            let next = env.step_deterministic(&s, &piece.program().action(&s));
            if b.value(&next) > 0.0 {
                return Err(format!(
                    "piece {k}: successor of {s:?} leaves its invariant (B = {})",
                    b.value(&next)
                ));
            }
            if inside == SAMPLES {
                break;
            }
        }
    }
    for _ in 0..ROLLOUTS {
        let mut s = env.init().sample(&mut rng);
        for step in 0..HORIZON {
            let decision = shield.decide(&s, &artifact.oracle().action(&s));
            s = env.step_deterministic(&s, &decision.action);
            tally.rollout_steps += 1;
            if !safety.is_safe(&s) {
                return Err(format!("shielded rollout left the safe set at step {step}"));
            }
        }
    }
    Ok(())
}

/// The synthesis figures of one traced farm pass.
fn farm_metrics(
    out: &mut Outcome,
    report: &FarmReport,
    spans: &[SpanRecord],
    before: &Snapshot,
    after: &Snapshot,
    l2: &SharedQueryCacheStats,
) {
    let jobs = report.records.len() as f64;
    let durations: Vec<Duration> = report.records.iter().map(|r| r.duration).collect();
    let d = |name: &str| after.delta(before, name);
    let m = &mut out.metrics;
    m.put(
        "farm.idle_share",
        stats::idle_share(&durations, report.threads, report.elapsed),
        "ratio",
    );
    m.put(
        "verified_share",
        report.synthesized() as f64 / jobs,
        "ratio",
    );
    m.put(
        "cegis.coverage_s",
        ledger::total_s(spans, "cegis.coverage") / jobs,
        "s",
    );
    m.put(
        "cegis.verify_s",
        ledger::total_s(spans, "cegis.verify") / jobs,
        "s",
    );
    m.put(
        "synth.distill_s",
        ledger::total_s(spans, "synth.distill") / jobs,
        "s",
    );
    let attempts = d("vrl_synth_cegis_attempts_total");
    m.put("cegis.attempts", attempts, "count");
    m.put(
        "cegis.counterexamples",
        d("vrl_synth_cegis_counterexamples_total"),
        "count",
    );
    m.put(
        "cegis.useful_ratio",
        stats::ratio(d("vrl_synth_cegis_pieces_total"), attempts),
        "ratio",
    );
    m.put(
        "synth.oracle_queries",
        d("vrl_synth_oracle_queries_total"),
        "count",
    );
    m.put("solver.bb_boxes", d("vrl_solver_bb_boxes_total"), "count");
    m.put(
        "solver.bb_queries",
        d("vrl_solver_bb_queries_total"),
        "count",
    );
    m.put("solver.bb_waves", d("vrl_solver_bb_waves_total"), "count");
    m.put(
        "solver.bb_guard_prunes",
        d("vrl_solver_bb_guard_prunes_total"),
        "count",
    );
    m.put(
        "solver.bb_counterexamples",
        d("vrl_solver_bb_counterexamples_total"),
        "count",
    );
    let l1_hits = d("vrl_solver_query_cache_hits_total");
    let l1_misses = d("vrl_solver_query_cache_misses_total");
    m.put(
        "solver.l1_hit_rate",
        stats::ratio(l1_hits, l1_hits + l1_misses),
        "ratio",
    );
    m.put("solver.l2_hit_rate", l2.hit_rate(), "ratio");
    m.put("solver.l2_lock_wait_ms", l2.lock_wait_ns as f64 / 1e6, "ms");
}

/// A traced farm pass over `jobs`, checked, with its ledger figures put
/// into `out`; returns the report.
fn traced_pass(out: &mut Outcome, jobs: &[Scenario], config: &JobConfig) -> FarmReport {
    let before = Snapshot::take();
    let ((report, l2), spans) = ledger::traced(|| pass(jobs, config));
    let after = Snapshot::take();
    let mut tally = Tally::default();
    check_report(out, &report, &mut tally);
    tally.note(out);
    farm_metrics(out, &report, &spans, &before, &after, &l2);
    out.spans.extend(spans);
    report
}

/// The serving workloads' synthesis replay: a traced two-job farm over two
/// quadcopter drag variants, the cheapest scenarios that synthesize, so the
/// synthesis layers have measured figures in every ledger.
pub fn quadcopter_replay(out: &mut Outcome) {
    let jobs: Vec<Scenario> = [0.3, 0.7]
        .into_iter()
        .map(|drag| family::quadcopter_scenario(drag).expect("valid quadcopter"))
        .collect();
    let report = traced_pass(out, &jobs, &job_config());
    out.note(format!("synthesis replay: {:?}", verdicts(&report)));
}

/// `synth_verify` / `synth_distill`: farm passes over the selected jobs
/// with two threads while another pass of the last one's length still ends
/// within the run length (at least one pass).
pub fn synth(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = Vec::new();
    let jobs = setup_round(kind, seed, &mut setup);
    let config = job_config();
    let mut out = Outcome::new(1, u64::from(jobs.len() != job_count(kind)));
    if jobs.len() != job_count(kind) {
        out.note(format!(
            "JOB LIST CHANGED: {} jobs where the workload has {}",
            jobs.len(),
            job_count(kind)
        ));
    }
    if trace {
        let (untraced, _) = pass(&jobs, &config);
        check_report(&mut out, &untraced, &mut Tally::default());
        let traced = traced_pass(&mut out, &jobs, &config);
        if verdicts(&traced) != verdicts(&untraced) {
            out.count(0, 1);
            out.note("VERDICTS DIFFER between the untraced and the traced pass".into());
        }
        // The probe records its own figures for these two; the farm's win.
        probe(&mut out, &traced, seed);
        out.metrics.put(
            "obs.tracing_overhead_pct",
            100.0 * (untraced.jobs_per_sec() - traced.jobs_per_sec()) / untraced.jobs_per_sec(),
            "%",
        );
        let job_ms: Vec<f64> = untraced
            .records
            .iter()
            .map(|r| r.duration.as_secs_f64() * 1e3)
            .collect();
        let jobs = stats::summarize(&job_ms);
        out.metrics.put("p90_ms", jobs.p90, "ms");
        out.metrics.put("p99_ms", jobs.p99, "ms");
        return out;
    }

    let start = Instant::now();
    let mut reports: Vec<FarmReport> = Vec::new();
    let mut tally = Tally::default();
    let mut jobs = jobs;
    loop {
        let (report, _) = pass(&jobs, &config);
        check_report(&mut out, &report, &mut tally);
        setup_round(kind, seed, &mut setup);
        if reports.is_empty() {
            jobs = longest_first(&jobs, &report);
        }
        if let Some(first) = reports.first() {
            if verdicts(first) != verdicts(&report) {
                out.count(0, 1);
                out.note("VERDICTS DIFFER between passes".into());
            }
        }
        let last = report.elapsed.as_secs_f64();
        reports.push(report);
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    tally.note(&mut out);
    let mut first: Vec<&JobRecord> = reports[0].records.iter().collect();
    first.sort_by(|a, b| a.scenario_id.cmp(&b.scenario_id));
    for r in first {
        out.note(format!(
            "verdict {} {} ({:.1} ms in the first pass)",
            r.scenario_id,
            r.outcome.label(),
            r.duration.as_secs_f64() * 1e3
        ));
    }
    let jobs_done: usize = reports.iter().map(|r| r.records.len()).sum();
    let makespan: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let durations_ms: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.records.iter().map(|j| j.duration.as_secs_f64() * 1e3))
        .collect();
    let latency = stats::summarize(&durations_ms);
    let pass_s: Vec<String> = reports
        .iter()
        .map(|r| format!("{:.2}", r.elapsed.as_secs_f64()))
        .collect();
    out.note(format!(
        "{} pass(es) of {} s, {jobs_done} jobs in {makespan:.2} s, {} synthesized per pass; job time n={} p50 {:.1} p90 {:.1} mean {:.1} ms",
        reports.len(),
        pass_s.join(" / "),
        reports[0].synthesized(),
        latency.count,
        latency.p50,
        latency.p90,
        latency.mean
    ));
    out.note(format!(
        "{} catalogue generations, median {:.6} s",
        setup.len(),
        stats::median(&setup)
    ));
    let m = &mut out.metrics;
    m.put("setup_s", stats::median(&setup), "s");
    // Jobs over the time of every pass, not the median pass: the host's
    // speed switches between two levels every few seconds, and a median of
    // three or four passes jumps with it where the total only shifts.
    m.put("ops_per_s", stats::ratio(jobs_done as f64, makespan), "1/s");
    m.put("p50_ms", latency.p50, "ms");
    out
}

/// Serves the first synthesized artifact (by scenario id) of `report` over
/// HTTP for the serving half of the ledger.
fn probe(out: &mut Outcome, report: &FarmReport, seed: u64) {
    let Some(record) = report
        .records
        .iter()
        .filter(|r| r.artifact.is_some())
        .min_by(|a, b| a.scenario_id.cmp(&b.scenario_id))
    else {
        out.note("no synthesized artifact to serve".into());
        out.count(0, 1);
        return;
    };
    let artifact = record.artifact.clone().expect("filtered on presence");
    out.note(format!("serving probe on {}", record.scenario_id));
    let mut stand = Stand::up("probe", artifact);
    let inputs = Inputs::draw(&stand.artifact, seed);
    serve::single_ledger(out, &mut stand, &inputs, Duration::from_millis(500));
    serve::put_replay(out, &stand);
    stand.down();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_and_verdict_floors() {
        for (kind, must) in [(Kind::Verify, 17), (Kind::Distill, 16)] {
            for seed in [1, 2019] {
                let jobs = job_list(kind, seed);
                assert_eq!(jobs.len(), job_count(kind));
                let floor = jobs.iter().filter(|s| must_synthesize(s.id())).count();
                assert_eq!(floor, must);
            }
        }
        assert!(must_synthesize("platoon/n2"));
        assert!(!must_synthesize("platoon/n3"));
        assert!(!must_synthesize("platoon/n20"));
    }
}
