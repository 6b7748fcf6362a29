//! Multivariate polynomial algebra for the verifiable-RL framework.
//!
//! The synthesis and verification pipeline of the paper manipulates three
//! kinds of polynomial objects:
//!
//! * the environment dynamics `ṡ = f(s, a)` of each benchmark, which are
//!   polynomial vector fields over state and action variables;
//! * the deterministic policy programs drawn from the sketch grammar of
//!   Fig. 5, whose expressions are polynomials over state variables; and
//! * the inductive-invariant sketches `E[c](X) ≤ 0` of Eq. (7), polynomials
//!   whose monomial basis is bounded by a user-chosen degree.
//!
//! This crate provides exactly that machinery: sparse multivariate
//! [`Polynomial`]s with arithmetic, composition/substitution, differentiation,
//! degree-bounded [`monomial_basis`] generation, and sound [`Interval`]
//! evaluation used by the branch-and-bound verifier.
//!
//! For the evaluation-heavy consumers (branch-and-bound, certificate
//! checking, the deployed shield's serving path) the sparse form can be
//! lowered once into a flat [`CompiledPolynomial`] / [`CompiledPolySet`],
//! whose kernels are bit-for-bit compatible with the reference evaluators
//! but allocation-free in steady state and several times faster.  The
//! compiled form is an immutable snapshot of the source polynomial: any
//! operation that produces a new [`Polynomial`] requires recompiling before
//! the result can be evaluated through the fast path.
//!
//! # Batched evaluation
//!
//! When many independent states must be evaluated against the *same*
//! compiled polynomial — the deployed shield's `decide_batch`, barrier
//! membership sweeps, guard cascades — the lane-batched kernels amortize
//! the per-variable power-table fill across a [`BatchPoints`]
//! structure-of-arrays batch, sweeping [`LANE_WIDTH`] states at a time
//! through fixed-width inner loops the compiler can vectorize.  Every lane
//! is **bit-for-bit** the scalar result (debug builds assert this per
//! lane), so batching never changes a decision.  Interval evaluation has
//! one kernel only, the scalar [`CompiledPolySet::eval_interval_into_with`]
//! (and [`CompiledPolynomial::eval_interval_with`] for a single member):
//! branch-and-bound, the sound minimum and the decision-table build all
//! enclose one box at a time.
//!
//! ```
//! use vrl_poly::{BatchPoints, Polynomial};
//!
//! // E(x, y) = x² + y² − 1, evaluated at three states in one sweep.
//! let x = Polynomial::variable(0, 2);
//! let y = Polynomial::variable(1, 2);
//! let e = &(&(&x * &x) + &(&y * &y)) - &Polynomial::constant(1.0, 2);
//! let compiled = e.compile();
//!
//! let states = [vec![0.0, 0.0], vec![0.5, 0.5], vec![2.0, 0.0]];
//! let batch = BatchPoints::from_states(2, &states);
//! let mut values = Vec::new();
//! compiled.evaluate_batch(&batch, &mut values);
//! for (state, &value) in states.iter().zip(values.iter()) {
//!     assert_eq!(value.to_bits(), e.eval(state).to_bits()); // bit-exact
//! }
//! assert_eq!(values.iter().filter(|&&v| v <= 0.0).count(), 2);
//! ```
//!
//! # Examples
//!
//! ```
//! use vrl_poly::Polynomial;
//!
//! // p(x, y) = x^2 + 2xy
//! let x = Polynomial::variable(0, 2);
//! let y = Polynomial::variable(1, 2);
//! let p = &(&x * &x) + &(&(&x * &y) * 2.0);
//! assert_eq!(p.eval(&[1.0, 3.0]), 7.0);
//! assert_eq!(p.degree(), 2);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod basis;
mod batch;
mod compiled;
mod interval;
mod polynomial;
mod portable;

pub use basis::{basis_size, monomial_basis};
pub use batch::BatchPoints;
pub use compiled::{CompiledPolySet, CompiledPolynomial, PolyScratch, LANE_WIDTH};
pub use interval::Interval;
pub use polynomial::Polynomial;
pub use portable::PortablePolynomial;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles() {
        let x = Polynomial::variable(0, 2);
        let y = Polynomial::variable(1, 2);
        let p = &(&x * &x) + &(&(&x * &y) * 2.0);
        assert_eq!(p.eval(&[1.0, 3.0]), 7.0);
        assert_eq!(p.degree(), 2);
        assert_eq!(basis_size(2, 2), 6);
    }
}
