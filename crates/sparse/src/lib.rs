#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! Sparse and dense linear algebra for `repsim`.
//!
//! The similarity search algorithms in this workspace are all, at bottom,
//! matrix computations over adjacency structure:
//!
//! * PathSim / R-PathSim multiply chains of *biadjacency* matrices into
//!   commuting matrices ([`Csr`] and [`ops::spmm`]);
//! * R-PathSim's informative-walk restriction subtracts diagonals between
//!   multiplications ([`Csr::subtract_diagonal`]);
//! * the \*-label extension binarizes segment products ([`Csr::binarized`]);
//! * random walk with restart is a sparse power iteration
//!   ([`ops::matvec`]); and
//! * SimRank iterates `S ← max(C · Wᵀ S W, I)` over a dense score matrix
//!   ([`Dense`] with [`ops::dense_sparse_mul`] / [`ops::sparse_t_dense_mul`]).
//!
//! Values are stored as `f64`. Walk *counts* are integers; `f64` arithmetic
//! on integers is exact below 2^53, far beyond any count produced by the
//! meta-walk lengths used in the paper, so equality of counts across database
//! representations (Theorems 4.2, 4.3, 5.2, 5.3) can be asserted exactly.
//!
//! The crate has no dependencies and makes no attempt at SIMD heroics; it
//! follows the usual CSR discipline (sorted column indices, no explicit
//! zeros after construction via [`Csr::from_triplets`], dense accumulator
//! for row-by-row spmm).
//!
//! Execution is resource-governed: every kernel has a fallible `try_*`
//! variant that takes a [`Budget`] (wall-clock deadline, output-size cap,
//! cooperative cancellation) and returns a structured [`ExecError`]
//! instead of panicking; see [`budget`] for the taxonomy and the
//! fault-injection failpoints used to test the abort paths.

pub mod accum;
pub mod binio;
pub mod budget;
pub mod chain;
pub mod csr;
pub mod dense;
pub mod ops;
pub mod par;
pub mod parallelism;
pub mod vector;

pub use accum::SpgemmArena;
pub use binio::{checksum, DecodeError};
pub use budget::{Budget, ExecError};
pub use csr::{Csr, CsrInvariant};
pub use dense::Dense;
pub use parallelism::Parallelism;
