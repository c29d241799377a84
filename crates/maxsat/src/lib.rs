//! SAT and MaxSAT solving for PropHunt's minimum-weight logical-error search.
//!
//! The paper formulates minimum-weight logical-error finding as a MaxSAT problem
//! (Section 5.2): syndrome and logical-observable parities become hard XOR constraints
//! (encoded with auxiliary variables in a Tseitin tree), and each error variable carries
//! a unit soft clause preferring it to be off; the optimum is a minimum-weight
//! undetected logical error. The paper solves these models with Z3 + Loandra; this crate
//! implements the full stack from scratch:
//!
//! * [`CnfBuilder`] — variables, clauses, XOR-tree encoding and totalizer cardinality
//!   encoding ([`encode`]),
//! * [`Solver`] — an incremental CDCL SAT solver with blocker-literal watches,
//!   first-UIP clause learning, heap-ordered activity branching, phase saving and
//!   restarts; variables and clauses may be added between solves ([`solver`]),
//! * [`MaxSatSolver`] — unweighted partial MaxSAT (unit soft clauses) by linear search
//!   (LSU) on one incremental SAT solver per solve, bounding the violated softs with a
//!   totalizer cut at the first model's cost, with deterministic conflict budgets
//!   ([`SolveBudget`]) and model-size statistics matching the columns of the paper's
//!   Table 2 ([`maxsat`]).
//!
//! Termination is deterministic by construction: budgets are measured in SAT-solver
//! conflicts, never wall-clock time, so the same instance with the same budget
//! returns the same outcome on every machine. `Duration`-denominated budgets are
//! converted through the fixed [`maxsat::CONFLICTS_PER_BUDGET_SECOND`] exchange rate.
//!
//! # Example
//!
//! ```
//! use prophunt_maxsat::{CnfBuilder, MaxSatSolver};
//! use std::time::Duration;
//!
//! // Minimise the number of true variables subject to x0 XOR x1 XOR x2 = 1.
//! let mut builder = CnfBuilder::new();
//! let vars: Vec<_> = (0..3).map(|_| builder.new_var()).collect();
//! let lits: Vec<_> = vars.iter().map(|v| v.positive()).collect();
//! builder.add_xor_constraint(&lits, true);
//! let mut solver = MaxSatSolver::new(builder);
//! for v in &vars {
//!     solver.add_soft_false(*v);
//! }
//! let outcome = solver.solve(Duration::from_secs(10));
//! assert_eq!(outcome.cost(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod encode;
pub mod maxsat;
pub mod solver;

pub use cnf::{CnfBuilder, Lit, Var};
pub use maxsat::{duration_to_conflicts, MaxSatOutcome, MaxSatSolver, MaxSatStats};
pub use solver::{SolveBudget, SolveResult, Solver};
