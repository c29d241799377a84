//! Linear-search (LSU) MaxSAT on top of the CDCL solver.
//!
//! PropHunt's minimum-weight logical-error models use unit soft clauses only (each error
//! variable prefers to be false), so unweighted partial MaxSAT with a cardinality bound
//! over the violated softs is exactly what is needed. The search repeatedly solves the
//! hard formula augmented with "at most `cost − 1` violated softs" until it proves
//! optimality or exhausts its conflict budget — the same upper-bounding strategy
//! Loandra's linear search uses.
//!
//! One incremental [`Solver`] serves a whole solve. The first call sees the hard clauses
//! alone; the first model's cost `c` sizes a totalizer over the violation indicators,
//! cut at `c` (no count above `c` is ever asked for), and each later bound is one unit
//! clause on a totalizer output. Learnt clauses, activities and phases survive from
//! bound to bound. Nothing is shared between solves, so a solve stays a pure function
//! of the instance and its budget.
//!
//! Termination is governed by a deterministic [`SolveBudget`] measured in SAT-solver
//! conflicts, never by wall-clock time: the same instance with the same budget performs
//! exactly the same search everywhere. The convenience [`MaxSatSolver::solve`] entry
//! point still accepts a `Duration` for API compatibility, but maps it onto conflicts
//! through the fixed [`CONFLICTS_PER_BUDGET_SECOND`] exchange rate.

use crate::cnf::{CnfBuilder, Lit, Var};
use crate::solver::{SolveBudget, SolveResult, Solver};
use std::time::Duration;

/// Exchange rate used to map a wall-clock `Duration` budget onto a deterministic
/// conflict budget: one "budget second" buys this many SAT-solver conflicts.
///
/// The constant is calibrated so that the paper-scale budgets behave as intended on
/// the subgraph models (a few hundred variables, ~1k clauses): the 20 s "quick"
/// budget buys enough conflicts to close every ambiguous subgraph the test
/// fixtures produce, while the global circuit-level models still exhaust the budget
/// exactly as they do in the paper's Table 2. Because the mapping is a fixed
/// constant — not a measurement — a budget of `Duration::from_secs(20)` means the
/// *same* amount of search on every machine.
pub const CONFLICTS_PER_BUDGET_SECOND: u64 = 50_000;

/// Converts a wall-clock-style budget into its deterministic conflict equivalent.
pub fn duration_to_conflicts(budget: Duration) -> u64 {
    // Millisecond granularity keeps sub-second test budgets meaningful.
    (budget.as_millis() as u64).saturating_mul(CONFLICTS_PER_BUDGET_SECOND) / 1000
}

/// Size and effort statistics of a MaxSAT solve, matching the columns of the paper's
/// Table 2 (variables, hard clauses, soft clauses, wall-clock time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxSatStats {
    /// Total number of variables in the solver at the end of the solve: the hard
    /// formula's (error variables and XOR-tree auxiliaries) plus the totalizer cut at
    /// the first model's cost. The paper-style model sizes of Table 2 come from
    /// `subgraph_model_size` / `global_model_size` in the `prophunt` crate instead.
    pub num_variables: usize,
    /// Number of hard clauses (before cardinality strengthening clauses are added).
    pub num_hard_clauses: usize,
    /// Number of soft clauses.
    pub num_soft_clauses: usize,
    /// Wall-clock time spent solving. Reported for Table 2 parity only; it never
    /// influences the search (see [`SolveBudget`]), so it may differ across machines
    /// while every other field is bit-identical.
    pub wall_time: Duration,
    /// Total conflicts across all SAT calls (search effort proxy).
    pub conflicts: u64,
    /// Number of SAT calls performed by the linear search (all on one solver).
    pub iterations: usize,
}

/// The outcome of a MaxSAT solve.
#[derive(Debug, Clone, PartialEq)]
pub enum MaxSatOutcome {
    /// An optimal model was found.
    Optimal {
        /// Variable assignment (indexed by variable).
        model: Vec<bool>,
        /// Number of violated soft clauses.
        cost: usize,
    },
    /// The conflict budget was exhausted after at least one model was found; the
    /// incumbent is returned but may not be optimal.
    Feasible {
        /// Best variable assignment found.
        model: Vec<bool>,
        /// Number of violated soft clauses in the incumbent.
        cost: usize,
    },
    /// The hard clauses are unsatisfiable.
    Unsatisfiable,
    /// The conflict budget was exhausted before any model was found.
    Timeout,
}

impl MaxSatOutcome {
    /// Returns the cost of the returned model, if any.
    pub fn cost(&self) -> Option<usize> {
        match self {
            MaxSatOutcome::Optimal { cost, .. } | MaxSatOutcome::Feasible { cost, .. } => {
                Some(*cost)
            }
            _ => None,
        }
    }

    /// Returns the model, if any.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            MaxSatOutcome::Optimal { model, .. } | MaxSatOutcome::Feasible { model, .. } => {
                Some(model)
            }
            _ => None,
        }
    }

    /// Returns `true` if the outcome is provably optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self, MaxSatOutcome::Optimal { .. })
    }
}

/// An unweighted partial MaxSAT solver (hard CNF + unit soft clauses).
#[derive(Debug, Clone)]
pub struct MaxSatSolver {
    hard: CnfBuilder,
    soft: Vec<Lit>,
    last_stats: Option<MaxSatStats>,
}

impl MaxSatSolver {
    /// Creates a MaxSAT instance whose hard constraints are the clauses of `hard`.
    pub fn new(hard: CnfBuilder) -> Self {
        MaxSatSolver {
            hard,
            soft: Vec::new(),
            last_stats: None,
        }
    }

    /// Adds a unit soft clause preferring `lit` to be true.
    pub fn add_soft(&mut self, lit: Lit) {
        self.soft.push(lit);
    }

    /// Adds a unit soft clause preferring variable `var` to be false — the form used by
    /// the paper's formulation (`E_i = False` soft constraints).
    pub fn add_soft_false(&mut self, var: Var) {
        self.soft.push(var.negative());
    }

    /// Returns the statistics of the most recent [`MaxSatSolver::solve`] call.
    pub fn last_stats(&self) -> Option<MaxSatStats> {
        self.last_stats
    }

    /// Solves the instance within a `Duration`-denominated budget.
    ///
    /// The duration is **not** a wall-clock deadline: it is converted to a
    /// deterministic conflict budget via [`duration_to_conflicts`] and passed to
    /// [`MaxSatSolver::solve_budget`]. Two calls with the same instance and budget
    /// return identical outcomes (and identical [`MaxSatStats::conflicts`]) on any
    /// machine, regardless of load.
    pub fn solve(&mut self, budget: Duration) -> MaxSatOutcome {
        self.solve_budget(SolveBudget::Conflicts(duration_to_conflicts(budget)))
    }

    /// Solves the instance within an explicit deterministic conflict budget.
    ///
    /// One [`Solver`] serves the whole linear search. The first SAT call sees
    /// the hard clauses alone; the first model's cost `c` then sizes a
    /// totalizer over the soft-violation indicators, cut at `c`, which is
    /// added to the same solver. After every model of cost `c' > 0` a single
    /// unit clause "at most `c' − 1` violated softs" tightens the bound, so
    /// learnt clauses, activities and saved phases carry over from call to
    /// call. The budget is shared across all calls: each receives whatever
    /// remains after the conflicts already spent, so the whole MaxSAT solve —
    /// not just each inner SAT call — is bounded and reproducible.
    pub fn solve_budget(&mut self, budget: SolveBudget) -> MaxSatOutcome {
        #[allow(
            clippy::disallowed_types,
            reason = "timing only: feeds the wall_time stat for Table 2; the conflict budget alone decides termination"
        )]
        let start = std::time::Instant::now();
        let mut solver = self.hard.build_solver();
        let mut iterations = 0usize;
        // Totalizer outputs over the violated softs, built after the first model.
        let mut violation_outputs: Vec<Lit> = Vec::new();

        let cost_of = |model: &[bool]| -> usize {
            self.soft
                .iter()
                .filter(|l| !l.apply(model[l.var().index()]))
                .count()
        };

        let mut best: Option<(Vec<bool>, usize)> = None;
        let outcome = loop {
            let remaining = budget.minus(solver.num_conflicts());
            if iterations > 0 && remaining.is_exhausted() {
                break match best.take() {
                    Some((model, cost)) => MaxSatOutcome::Feasible { model, cost },
                    None => MaxSatOutcome::Timeout,
                };
            }
            iterations += 1;
            match solver.solve(remaining) {
                SolveResult::Sat(model) => {
                    let cost = cost_of(&model);
                    assert!(
                        best.as_ref().is_none_or(|(_, bound)| cost < *bound),
                        "each model must beat the bound asserted before the call"
                    );
                    if cost == 0 {
                        break MaxSatOutcome::Optimal { model, cost };
                    }
                    if violation_outputs.is_empty() {
                        violation_outputs = self.add_totalizer(&mut solver, cost);
                    }
                    // Strengthen: at most cost - 1 violations. A conflict here
                    // leaves the solver unsatisfiable, which the next call reports.
                    solver.add_clause(&[!violation_outputs[cost - 1]]);
                    best = Some((model, cost));
                }
                SolveResult::Unsat => {
                    break match best.take() {
                        Some((model, cost)) => MaxSatOutcome::Optimal { model, cost },
                        None => MaxSatOutcome::Unsatisfiable,
                    };
                }
                SolveResult::Unknown => {
                    break match best.take() {
                        Some((model, cost)) => MaxSatOutcome::Feasible { model, cost },
                        None => MaxSatOutcome::Timeout,
                    };
                }
            }
        };

        self.last_stats = Some(MaxSatStats {
            num_variables: solver.num_vars(),
            num_hard_clauses: self.hard.num_clauses(),
            num_soft_clauses: self.soft.len(),
            wall_time: start.elapsed(),
            conflicts: solver.num_conflicts(),
            iterations,
        });
        outcome
    }

    /// Adds a totalizer over the soft-violation indicators, cut at `limit`, to
    /// `solver` and returns its outputs.
    fn add_totalizer(&self, solver: &mut Solver, limit: usize) -> Vec<Lit> {
        // Encode into an empty formula over the same variables, then move the
        // new variables and clauses into the solver.
        let mut encoding = CnfBuilder::new();
        encoding.new_vars(solver.num_vars());
        let violated: Vec<Lit> = self.soft.iter().map(|&l| !l).collect();
        let outputs = encoding.totalizer(&violated, limit);
        while solver.num_vars() < encoding.num_vars() {
            solver.add_var();
        }
        for clause in encoding.clauses() {
            solver.add_clause(clause);
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn minimises_true_variables_under_parity_constraint() {
        // XOR of 5 variables must be 1; minimum cost is a single true variable.
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(5);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        b.add_xor_constraint(&lits, true);
        let mut solver = MaxSatSolver::new(b);
        for v in &vars {
            solver.add_soft_false(*v);
        }
        let outcome = solver.solve(Duration::from_secs(5));
        assert!(outcome.is_optimal());
        assert_eq!(outcome.cost(), Some(1));
        let model = outcome.model().unwrap();
        assert_eq!(vars.iter().filter(|v| model[v.index()]).count(), 1);
        let stats = solver.last_stats().unwrap();
        assert_eq!(stats.num_soft_clauses, 5);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn unsat_hard_clauses_reported() {
        let mut b = CnfBuilder::new();
        let v = b.new_var();
        b.add_unit(v.positive());
        b.add_unit(v.negative());
        let mut solver = MaxSatSolver::new(b);
        assert_eq!(
            solver.solve(Duration::from_secs(1)),
            MaxSatOutcome::Unsatisfiable
        );
    }

    #[test]
    fn zero_cost_when_soft_clauses_are_satisfiable() {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(4);
        // Hard: x0 or x1 (can be satisfied with everything false except... no: needs one
        // true). Softs prefer x2, x3 false, which costs nothing.
        b.add_clause(&[vars[0].positive(), vars[1].positive()]);
        let mut solver = MaxSatSolver::new(b);
        solver.add_soft_false(vars[2]);
        solver.add_soft_false(vars[3]);
        let outcome = solver.solve(Duration::from_secs(1));
        assert_eq!(outcome.cost(), Some(0));
        assert!(outcome.is_optimal());
    }

    /// Brute-force optimum for cross-validation.
    fn brute_force_optimum(num_vars: usize, clauses: &[Vec<Lit>], soft: &[Lit]) -> Option<usize> {
        let mut best = None;
        for mask in 0u64..(1 << num_vars) {
            let values: Vec<bool> = (0..num_vars).map(|v| (mask >> v) & 1 == 1).collect();
            if clauses
                .iter()
                .all(|c| c.iter().any(|l| l.apply(values[l.var().index()])))
            {
                let cost = soft
                    .iter()
                    .filter(|l| !l.apply(values[l.var().index()]))
                    .count();
                best = Some(best.map_or(cost, |b: usize| b.min(cost)));
            }
        }
        best
    }

    #[test]
    fn random_instances_match_brute_force_optimum() {
        // First with every soft preferring its variable false (the PropHunt form),
        // then with random polarities, where the solver's all-false starting phases
        // make the first model far from optimal and the linear search must walk
        // down several bounds on the one solver.
        let mut rng = StdRng::seed_from_u64(99);
        for mixed in [false, true] {
            for case in 0..30 {
                let num_vars = rng.gen_range(3..8);
                let mut b = CnfBuilder::new();
                let vars = b.new_vars(num_vars);
                let mut clauses = Vec::new();
                for _ in 0..rng.gen_range(2..10) {
                    let len = rng.gen_range(1..=3);
                    let clause: Vec<Lit> = (0..len)
                        .map(|_| Lit::new(vars[rng.gen_range(0..num_vars)], rng.gen_bool(0.5)))
                        .collect();
                    b.add_clause(&clause);
                    clauses.push(clause);
                }
                let soft: Vec<Lit> = vars
                    .iter()
                    .map(|&v| Lit::new(v, mixed && rng.gen_bool(0.5)))
                    .collect();
                let expected = brute_force_optimum(num_vars, &clauses, &soft);
                let mut solver = MaxSatSolver::new(b);
                for &l in &soft {
                    solver.add_soft(l);
                }
                let outcome = solver.solve(Duration::from_secs(5));
                let what = format!("case {case} (mixed polarity: {mixed})");
                match expected {
                    Some(opt) => {
                        assert!(outcome.is_optimal(), "{what}: expected optimal");
                        assert_eq!(outcome.cost(), Some(opt), "{what}: wrong optimum");
                    }
                    None => assert_eq!(outcome, MaxSatOutcome::Unsatisfiable, "{what}"),
                }
            }
        }
    }

    /// A moderately hard parity instance used by the budget tests below.
    fn hard_parity_instance() -> MaxSatSolver {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(14);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        b.add_xor_constraint(&lits, true);
        b.add_xor_constraint(&lits[0..7], true);
        b.add_xor_constraint(&lits[7..14], false);
        let mut solver = MaxSatSolver::new(b);
        for v in &vars {
            solver.add_soft_false(*v);
        }
        solver
    }

    #[test]
    fn repeated_solves_are_bit_identical() {
        // The determinism pin for the conflict-budget rework: two solves of the same
        // instance with the same budget must do exactly the same search — identical
        // outcome, cost, model, conflict count and iteration count. Under the old
        // wall-clock deadline this could differ between runs on a loaded machine.
        let run = || {
            let mut solver = hard_parity_instance();
            let outcome = solver.solve_budget(SolveBudget::Conflicts(100_000));
            let stats = solver.last_stats().unwrap();
            (outcome, stats.conflicts, stats.iterations)
        };
        let (outcome_a, conflicts_a, iterations_a) = run();
        let (outcome_b, conflicts_b, iterations_b) = run();
        assert_eq!(outcome_a, outcome_b);
        assert_eq!(conflicts_a, conflicts_b);
        assert_eq!(iterations_a, iterations_b);
        assert!(outcome_a.is_optimal());
        assert_eq!(outcome_a.cost(), Some(1));
    }

    #[test]
    fn duration_budget_maps_to_conflicts_deterministically() {
        assert_eq!(
            duration_to_conflicts(Duration::from_secs(1)),
            CONFLICTS_PER_BUDGET_SECOND
        );
        assert_eq!(
            duration_to_conflicts(Duration::from_millis(100)),
            CONFLICTS_PER_BUDGET_SECOND / 10
        );
        // The Duration entry point is just sugar over the conflict budget.
        let mut via_duration = hard_parity_instance();
        let out_d = via_duration.solve(Duration::from_secs(2));
        let mut via_conflicts = hard_parity_instance();
        let out_c = via_conflicts.solve_budget(SolveBudget::Conflicts(duration_to_conflicts(
            Duration::from_secs(2),
        )));
        assert_eq!(out_d, out_c);
        assert_eq!(
            via_duration.last_stats().unwrap().conflicts,
            via_conflicts.last_stats().unwrap().conflicts
        );
    }

    /// An unsatisfiable pigeonhole instance: `pigeons` pigeons into `pigeons - 1`
    /// holes. Refuting it needs exponentially many conflicts, so a small budget is
    /// guaranteed to run out before a verdict.
    fn pigeonhole_instance(pigeons: usize) -> MaxSatSolver {
        let holes = pigeons - 1;
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(pigeons * holes);
        let at = |p: usize, h: usize| vars[p * holes + h];
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| at(p, h).positive()).collect();
            b.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    b.add_clause(&[at(p1, h).negative(), at(p2, h).negative()]);
                }
            }
        }
        let mut solver = MaxSatSolver::new(b);
        for v in &vars {
            solver.add_soft_false(*v);
        }
        solver
    }

    #[test]
    fn exhausted_budget_reports_timeout_deterministically() {
        // The hard clauses are an unsatisfiable pigeonhole formula whose refutation
        // needs far more than 10 conflicts, so the budget must run out — and the
        // exhausted search must look identical across runs.
        let run = || {
            let mut solver = pigeonhole_instance(8);
            let outcome = solver.solve_budget(SolveBudget::Conflicts(10));
            (outcome, solver.last_stats().unwrap().conflicts)
        };
        let (outcome_a, conflicts_a) = run();
        let (outcome_b, conflicts_b) = run();
        assert_eq!(outcome_a, MaxSatOutcome::Timeout);
        assert_eq!(outcome_a, outcome_b);
        assert_eq!(conflicts_a, conflicts_b);
    }

    #[test]
    fn unlimited_budget_always_reaches_a_verdict() {
        let mut solver = hard_parity_instance();
        let outcome = solver.solve_budget(SolveBudget::Unlimited);
        assert!(outcome.is_optimal());
    }

    #[test]
    fn stats_record_model_size() {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(6);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        b.add_xor_constraint(&lits, false);
        let hard_clauses = b.num_clauses();
        let mut solver = MaxSatSolver::new(b);
        for v in &vars {
            solver.add_soft_false(*v);
        }
        let outcome = solver.solve(Duration::from_secs(5));
        assert_eq!(outcome.cost(), Some(0));
        let stats = solver.last_stats().unwrap();
        assert_eq!(stats.num_hard_clauses, hard_clauses);
        assert_eq!(stats.num_soft_clauses, 6);
        assert!(stats.num_variables >= 6);
        assert!(stats.wall_time < Duration::from_secs(5));
    }
}
