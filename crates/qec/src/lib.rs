//! CSS quantum error-correcting codes for the PropHunt suite.
//!
//! This crate provides the *code-level* objects the paper's tool consumes: CSS stabilizer
//! codes described by a pair of parity-check matrices `H_X`, `H_Z` together with logical
//! observable matrices `L_X`, `L_Z`, plus the concrete code families used in the
//! evaluation:
//!
//! * rotated **surface codes** ([`surface::rotated_surface_code`]),
//! * small codes used in the paper's discussion (**Steane**, quantum **repetition**),
//! * **hypergraph-product** codes,
//! * **generalized-bicycle** / **bivariate-bicycle** / cyclic **lifted-product** codes,
//!   which stand in for the paper's LP and Random Quantum Tanner instances (see
//!   `README.md` for the substitution rationale).
//!
//! The central type is [`CssCode`]; construction validates stabilizer commutation and
//! derives a symplectically paired basis of logical operators. A code's exact distance
//! is solved from its checks and logicals by `prophunt::minweight::code_distance`.
//!
//! # Example
//!
//! ```
//! use prophunt_qec::surface::rotated_surface_code;
//!
//! let code = rotated_surface_code(3);
//! assert_eq!((code.n(), code.k()), (9, 1));
//! assert_eq!(code.num_x_stabilizers(), 4);
//! assert_eq!(code.num_z_stabilizers(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classical;
pub mod css;
pub mod product;
pub mod small;
pub mod surface;

pub use classical::ClassicalCode;
pub use css::{CssCode, CssCodeError, StabilizerKind};
