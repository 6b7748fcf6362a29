//! Dense linear algebra substrate for the verifiable-RL framework.
//!
//! This crate provides the small amount of numerical linear algebra the rest
//! of the framework needs: dense [`Vector`]s and [`Matrix`]es, LU and Cholesky
//! factorizations, linear system solves, and a symmetric eigen-decomposition
//! (cyclic Jacobi).  It is deliberately minimal and dependency-free so the
//! framework remains self-contained and auditable.
//!
//! # Examples
//!
//! ```
//! use vrl_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b).unwrap();
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm() < 1e-10);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod decomp;
mod eigen;
mod error;
mod matrix;
mod vector;

pub use decomp::{is_positive_definite, Cholesky, Lu};
pub use eigen::{spectral_radius, SymmetricEigen};
pub use error::LinalgError;
pub use matrix::{Matrix, DOT_START};
pub use vector::Vector;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x = a.solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        assert!(r.norm() < 1e-10);
    }
}
