//! Scenario identity and deterministic farm generation.
//!
//! A [`Scenario`] is a complete synthesis job description: an environment,
//! a linear expert oracle to distill from, and an invariant degree.  Every
//! scenario carries a canonical string ID from which the *entire* scenario
//! can be regenerated bit-for-bit ([`scenario_by_id`]), plus a
//! deterministic per-scenario seed (FNV-1a over the ID) that drives every
//! random choice its synthesis job makes.  The farm seed only selects
//! *which* scenarios are generated (the sampled compositional products);
//! it never changes the content of any scenario.

use crate::compose::compose;
use crate::family;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use vrl::dynamics::EnvironmentContext;

/// FNV-1a over bytes: the farm's canonical deterministic hash, used for
/// per-scenario seeds and artifact checksums.  This is the artifact
/// codec's own hash, re-exported so the two can never drift apart.
pub use vrl_runtime::fnv1a64;

/// A generated synthesis scenario: an environment plus everything a CEGIS
/// job needs to run on it deterministically.
#[derive(Debug, Clone)]
pub struct Scenario {
    id: String,
    family: String,
    env: EnvironmentContext,
    oracle_gains: Vec<Vec<f64>>,
    invariant_degree: u32,
    seed: u64,
}

impl Scenario {
    /// Builds and validates a scenario.  The seed is derived from the ID
    /// (FNV-1a), so equal IDs always mean equal seeds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first well-formedness violation:
    /// inconsistent dimensions between dynamics, oracle gains, initial
    /// region, and safety specification; non-finite dynamics coefficients
    /// or gains; or an empty/degenerate safe box.
    pub fn new(
        id: impl Into<String>,
        family: impl Into<String>,
        env: EnvironmentContext,
        oracle_gains: Vec<Vec<f64>>,
        invariant_degree: u32,
    ) -> Result<Self, String> {
        let id = id.into();
        let family = family.into();
        let n = env.state_dim();
        let m = env.action_dim();
        if oracle_gains.len() != m {
            return Err(format!(
                "{id}: oracle has {} gain rows but the action space has {m} dimensions",
                oracle_gains.len()
            ));
        }
        for (r, row) in oracle_gains.iter().enumerate() {
            if row.len() != n {
                return Err(format!(
                    "{id}: oracle gain row {r} has {} entries but the state space has {n}",
                    row.len()
                ));
            }
            if row.iter().any(|g| !g.is_finite()) {
                return Err(format!("{id}: oracle gain row {r} has a non-finite entry"));
            }
        }
        for (i, p) in env.dynamics().derivatives().iter().enumerate() {
            if p.terms().any(|(_, c)| !c.is_finite()) {
                return Err(format!(
                    "{id}: dynamics component {i} has a non-finite coefficient"
                ));
            }
        }
        if env.init().dim() != n || env.safety().dim() != n {
            return Err(format!(
                "{id}: region dimensions disagree with the dynamics"
            ));
        }
        let safe = env.safety().safe_box();
        for d in 0..n {
            let (lo, hi) = (safe.low(d), safe.high(d));
            if !lo.is_finite() || !hi.is_finite() || lo >= hi {
                return Err(format!(
                    "{id}: safe box is empty or unbounded in dimension {d} ([{lo}, {hi}])"
                ));
            }
        }
        // Initial region ⊆ safe region, checked per dimension rather than by
        // corner enumeration (2^n corners is prohibitive for products).
        let init = env.init();
        for d in 0..n {
            if init.low(d) < safe.low(d) || init.high(d) > safe.high(d) {
                return Err(format!(
                    "{id}: initial region leaves the safe box in dimension {d}"
                ));
            }
        }
        for (k, obstacle) in env.safety().obstacles().iter().enumerate() {
            let intersects =
                (0..n).all(|d| init.low(d) <= obstacle.high(d) && obstacle.low(d) <= init.high(d));
            if intersects {
                return Err(format!("{id}: initial region intersects obstacle {k}"));
            }
        }
        if invariant_degree < 2 {
            return Err(format!("{id}: invariant degree must be at least 2"));
        }
        let seed = fnv1a64(id.as_bytes());
        Ok(Scenario {
            id,
            family,
            env,
            oracle_gains,
            invariant_degree,
            seed,
        })
    }

    /// Canonical scenario ID; [`scenario_by_id`] regenerates the identical
    /// scenario from it.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Family key (`pendulum`, `platoon`, `quadcopter`, `oscillator`,
    /// `duffing`, or `product`).
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The environment the job synthesizes a shield for.
    pub fn env(&self) -> &EnvironmentContext {
        &self.env
    }

    /// Linear expert-oracle gains (one row per action dimension) the CEGIS
    /// job distills from.
    pub fn oracle_gains(&self) -> &[Vec<f64>] {
        &self.oracle_gains
    }

    /// Invariant degree for verification (Eq. 7 of the paper).
    pub fn invariant_degree(&self) -> u32 {
        self.invariant_degree
    }

    /// Deterministic per-scenario seed (FNV-1a of the ID): every random
    /// choice the scenario's synthesis job makes derives from this, which
    /// is what makes farm runs reproducible across thread counts.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// How many scenarios each family contributes, and how the compositional
/// products are sampled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmConfig {
    /// Seed selecting the sampled products (never the content of any
    /// individual scenario).
    pub seed: u64,
    /// Pendulum mass grid points.
    pub pendulum_masses: usize,
    /// Pendulum length grid points.
    pub pendulum_lengths: usize,
    /// Platoon sizes `1..=platoon_max` (each size `n` is a `2n`-state
    /// environment).
    pub platoon_max: usize,
    /// Quadcopter drag-coefficient grid points.
    pub quadcopter_drags: usize,
    /// Oscillator filter orders `1..=oscillator_orders` (each order `k` is
    /// a `2+k`-state environment).
    pub oscillator_orders: usize,
    /// Duffing damping grid points.
    pub duffing_dampings: usize,
    /// Number of distinct compositional product scenarios to sample.
    pub products: usize,
    /// Maximum composition depth (2 = pairs, 3 = triples, ...).
    pub product_depth_max: usize,
    /// Skip sampled products whose state dimension would exceed this.
    pub product_dim_max: usize,
}

impl Default for FarmConfig {
    /// The acceptance-scale farm: ≥ 200 distinct scenarios across all five
    /// families plus 100 sampled products.
    fn default() -> Self {
        FarmConfig {
            seed: 2019,
            pendulum_masses: 8,
            pendulum_lengths: 8,
            platoon_max: 8,
            quadcopter_drags: 16,
            oscillator_orders: 12,
            duffing_dampings: 16,
            products: 100,
            product_depth_max: 3,
            product_dim_max: 26,
        }
    }
}

impl FarmConfig {
    /// A deliberately small farm for unit tests and smoke runs.
    pub fn smoke() -> Self {
        FarmConfig {
            seed: 7,
            pendulum_masses: 2,
            pendulum_lengths: 2,
            platoon_max: 3,
            quadcopter_drags: 3,
            oscillator_orders: 3,
            duffing_dampings: 3,
            products: 6,
            product_depth_max: 2,
            product_dim_max: 12,
        }
    }
}

/// Generates the farm's scenario set for `config`: every family grid point
/// plus `config.products` sampled compositional products, deduplicated by
/// ID.  The output order is deterministic (families in declaration order,
/// products in sampling order).
pub fn generate(config: &FarmConfig) -> Vec<Scenario> {
    let _span = vrl_obs::span("farm.generate");
    let mut scenarios: Vec<Scenario> = Vec::new();
    scenarios.extend(family::pendulum_grid(
        &family::linspace3(0.6, 1.6, config.pendulum_masses),
        &family::linspace3(0.7, 1.4, config.pendulum_lengths),
    ));
    scenarios.extend(family::platoon_sizes(config.platoon_max));
    scenarios.extend(family::quadcopter_drags(&family::linspace3(
        0.1,
        0.9,
        config.quadcopter_drags,
    )));
    scenarios.extend(family::oscillator_orders(config.oscillator_orders));
    scenarios.extend(family::duffing_dampings(&family::linspace3(
        0.3,
        1.2,
        config.duffing_dampings,
    )));

    let mut ids: HashSet<String> = scenarios.iter().map(|s| s.id().to_string()).collect();
    scenarios.retain({
        // Defensive: a degenerate grid could round two points onto the same
        // ID; keep the first occurrence only.
        let mut seen = HashSet::new();
        move |s| seen.insert(s.id().to_string())
    });

    let atoms: Vec<Scenario> = scenarios.clone();
    if !atoms.is_empty() && config.products > 0 {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let depth_max = config.product_depth_max.max(2);
        let mut added = 0usize;
        let mut attempts = 0usize;
        let attempt_cap = config.products.saturating_mul(50).max(64);
        while added < config.products && attempts < attempt_cap {
            attempts += 1;
            let depth = rng.gen_range(2..=depth_max);
            let mut product = atoms[rng.gen_range(0..atoms.len())].clone();
            let mut ok = true;
            for _ in 1..depth {
                let next = &atoms[rng.gen_range(0..atoms.len())];
                if product.env().state_dim() + next.env().state_dim() > config.product_dim_max {
                    ok = false;
                    break;
                }
                match compose(&product, next) {
                    Ok(p) => product = p,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && ids.insert(product.id().to_string()) {
                scenarios.push(product);
                added += 1;
            }
        }
    }
    for s in &scenarios {
        crate::obs::scenarios_generated(s.family()).inc();
    }
    scenarios
}

/// Regenerates the scenario a canonical ID denotes, bit-for-bit: family
/// scenarios parse their parameters back out of the ID, and product IDs
/// (`product/a+b+...`) re-compose their atoms left to right.
///
/// Returns `None` for IDs no farm generator produces.
pub fn scenario_by_id(id: &str) -> Option<Scenario> {
    if let Some(atoms) = id.strip_prefix("product/") {
        let mut parts = atoms.split('+');
        let mut product = scenario_by_id(parts.next()?)?;
        let mut any = false;
        for part in parts {
            any = true;
            product = compose(&product, &scenario_by_id(part)?).ok()?;
        }
        return any.then_some(product);
    }
    let (family, params) = id.split_once('/')?;
    match family {
        "pendulum" => {
            let (m, l) = params.strip_prefix('m')?.split_once("-l")?;
            family::pendulum_scenario(m.parse().ok()?, l.parse().ok()?).ok()
        }
        "platoon" => family::platoon_scenario(params.strip_prefix('n')?.parse().ok()?).ok(),
        "quadcopter" => family::quadcopter_scenario(params.strip_prefix('d')?.parse().ok()?).ok(),
        "oscillator" => family::oscillator_scenario(params.strip_prefix('k')?.parse().ok()?).ok(),
        "duffing" => family::duffing_scenario(params.strip_prefix('c')?.parse().ok()?).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reaches_acceptance_scale() {
        let scenarios = generate(&FarmConfig::default());
        assert!(
            scenarios.len() >= 200,
            "expected at least 200 scenarios, got {}",
            scenarios.len()
        );
        let families: HashSet<&str> = scenarios.iter().map(|s| s.family()).collect();
        assert!(families.len() >= 5, "families: {families:?}");
        assert!(families.contains("product"));
        let ids: HashSet<&str> = scenarios.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), scenarios.len(), "IDs must be distinct");
    }

    #[test]
    fn generation_is_deterministic_in_the_config() {
        let a = generate(&FarmConfig::smoke());
        let b = generate(&FarmConfig::smoke());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.seed(), y.seed());
        }
        let c = generate(&FarmConfig {
            seed: 8,
            ..FarmConfig::smoke()
        });
        // A different farm seed may sample different products but never
        // changes the family grids.
        assert_eq!(
            a.iter().filter(|s| s.family() != "product").count(),
            c.iter().filter(|s| s.family() != "product").count()
        );
    }

    #[test]
    fn every_generated_id_round_trips() {
        for s in generate(&FarmConfig::smoke()) {
            let again =
                scenario_by_id(s.id()).unwrap_or_else(|| panic!("{} must be regenerable", s.id()));
            assert_eq!(again.id(), s.id());
            assert_eq!(again.seed(), s.seed());
            assert_eq!(again.env().state_dim(), s.env().state_dim());
            assert_eq!(again.oracle_gains(), s.oracle_gains());
            // The dynamics must be coefficient-identical, not just shaped
            // alike.
            for (p, q) in again
                .env()
                .dynamics()
                .derivatives()
                .iter()
                .zip(s.env().dynamics().derivatives().iter())
            {
                assert_eq!(p, q, "{}: dynamics differ", s.id());
            }
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(scenario_by_id("nope/x1").is_none());
        assert!(scenario_by_id("pendulum/bogus").is_none());
        assert!(scenario_by_id("product/pendulum/m1.000-l1.000").is_none());
        assert!(scenario_by_id("").is_none());
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        let good = family::quadcopter_scenario(0.3).unwrap();
        let err = Scenario::new(
            "bad",
            "test",
            good.env().clone(),
            vec![vec![1.0, f64::NAN]],
            2,
        );
        assert!(err.is_err());
        let err = Scenario::new("bad", "test", good.env().clone(), vec![], 2);
        assert!(err.is_err());
        let err = Scenario::new(
            "bad",
            "test",
            good.env().clone(),
            good.oracle_gains().to_vec(),
            1,
        );
        assert!(err.is_err());
    }
}
