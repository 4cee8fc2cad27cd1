//! Mathematical foundations for the QuFI quantum fault-injection stack.
//!
//! The QuFI reproduction deliberately avoids external linear-algebra
//! dependencies; everything the simulator needs lives here:
//!
//! * [`Complex`] — a `f64`-based complex scalar with the usual arithmetic,
//!   polar form and `e^{iθ}` helpers.
//! * [`CMatrix`] — a small dense complex matrix used for gate unitaries,
//!   Kraus operators and density matrices, with multiplication, adjoint,
//!   Kronecker product and unitarity checks.
//! * [`decompose`] — ZYZ (Euler-angle) decomposition of arbitrary 2×2
//!   unitaries, used by the transpiler's basis-translation pass.
//! * [`angles`] — the φ/θ grids of the QuFI fault model (15° steps) and
//!   pretty-printing of angles as fractions of π for figure axes.
//!
//! # Example
//!
//! ```
//! use qufi_math::{CMatrix, Complex};
//!
//! let h = CMatrix::hadamard();
//! assert!(h.is_unitary(1e-12));
//! let hh = h.matmul(&h);
//! assert!(hh.approx_eq(&CMatrix::identity(2), 1e-12));
//! let _amp = Complex::new(0.5, -0.5);
//! ```

pub mod angles;
pub mod complex;
pub mod decompose;
pub mod matrix;

pub use angles::{deg, AngleGrid, PiFraction};
pub use complex::Complex;
pub use decompose::{zyz_decompose, ZyzAngles};
pub use matrix::CMatrix;
