//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The solver implements the standard modern architecture: two watched literals per
//! clause (each watch carrying a blocker literal), first-UIP conflict analysis with
//! clause learning, exponential variable activity (VSIDS-style) kept in a heap, phase
//! saving, and geometric restarts. It is incremental: variables and clauses may be
//! added at decision level 0 between [`Solver::solve`] calls, and learnt clauses,
//! activities and saved phases carry over, which is how the MaxSAT linear search
//! tightens its bound without rebuilding the solver. It is deliberately
//! compact — the MaxSAT models PropHunt produces for ambiguous subgraphs have a few
//! hundred variables and around a thousand clauses (Table 2 of the paper), far below the
//! sizes where a highly tuned solver would matter. The *global* circuit-level models are
//! intentionally allowed to time out, exactly as they do in the paper.

use crate::cnf::{Lit, Var};

/// A deterministic search-effort budget for a [`Solver::solve`] call.
///
/// Budgets are measured in *conflicts*, not wall-clock time: two solves of
/// the same formula with the same budget do exactly the same work and return
/// the same result on any machine, under any load, at any thread count —
/// which is what keeps the `maxsat` search arm inside the workspace's
/// determinism contract. (An earlier revision used an `Instant`-based
/// deadline; a solve racing a heavily loaded machine could then return a
/// different incumbent than the same solve on an idle one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveBudget {
    /// Search until a verdict is reached, however long that takes.
    Unlimited,
    /// Give up (returning [`SolveResult::Unknown`]) after this many
    /// conflicts in this call.
    Conflicts(u64),
}

impl SolveBudget {
    /// Returns the remaining budget after `spent` conflicts, saturating at 0.
    pub fn minus(self, spent: u64) -> SolveBudget {
        match self {
            SolveBudget::Unlimited => SolveBudget::Unlimited,
            SolveBudget::Conflicts(n) => SolveBudget::Conflicts(n.saturating_sub(spent)),
        }
    }

    /// True when the budget allows no further conflicts.
    pub fn is_exhausted(self) -> bool {
        matches!(self, SolveBudget::Conflicts(0))
    }
}

/// The outcome of a SAT solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// The formula is satisfiable; the payload maps each variable index to its value.
    Sat(Vec<bool>),
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

impl SolveResult {
    /// Returns the model if the result is [`SolveResult::Sat`].
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

const UNASSIGNED: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// A watch-list entry: the watching clause plus a *blocker*, another literal
/// of that clause. When the blocker is already true the clause is satisfied
/// and propagation skips it without touching the clause itself.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: usize,
    blocker: Lit,
}

fn value_in(assign: &[i8], lit: Lit) -> i8 {
    let v = assign[lit.var().index()];
    if lit.is_positive() {
        v
    } else {
        -v
    }
}

/// Marks a variable that is not in the [`VarOrder`] heap.
const NOT_IN_HEAP: usize = usize::MAX;

/// The branching order: a binary max-heap of variables keyed by activity,
/// ties broken toward the lower index.
///
/// It holds every unassigned variable (assigned ones are dropped lazily when
/// they reach the top), so popping the first unassigned variable picks
/// exactly the variable a full scan for "highest activity, then lowest index"
/// would pick.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<usize>, // var -> heap slot, or NOT_IN_HEAP
}

impl VarOrder {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Registers a new variable and inserts it.
    fn push_var(&mut self, activity: &[f64]) {
        let v = self.pos.len() as u32;
        self.pos.push(NOT_IN_HEAP);
        self.insert(v, activity);
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap after `v`'s activity grew.
    fn increased(&mut self, v: u32, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != NOT_IN_HEAP {
            self.sift_up(i, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is nonempty");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-heapifies after activities were rescaled (rounding can create ties,
    /// which the index tie-break then orders differently).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }
}

/// An incremental CDCL SAT solver.
///
/// Clauses are added with [`Solver::add_clause`] and variables with
/// [`Solver::add_var`]; [`Solver::solve`] runs the search within a deterministic
/// conflict budget. Every solve returns at decision level 0, so more variables and
/// clauses may be added before the next solve: the formula only grows, and the
/// next call searches the extended formula with everything learnt so far (the MaxSAT
/// linear search adds one bound clause per call this way). A call that ran out of budget
/// resumes where it stopped.
#[derive(Debug)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>, // literal index -> clauses watching that literal
    assign: Vec<i8>,            // var -> UNASSIGNED / TRUE / FALSE
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>, // work buffer of `analyze`, all false between calls
    ok: bool,
    conflicts: u64,
}

impl Solver {
    /// Creates a solver over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        let mut solver = Solver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::with_capacity(num_vars * 2),
            assign: Vec::with_capacity(num_vars),
            level: Vec::with_capacity(num_vars),
            reason: Vec::with_capacity(num_vars),
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::with_capacity(num_vars),
            var_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::with_capacity(num_vars),
            seen: Vec::with_capacity(num_vars),
            ok: true,
            conflicts: 0,
        };
        for _ in 0..num_vars {
            solver.add_var();
        }
        solver
    }

    /// Adds a fresh unassigned variable and returns it. Allowed at any time
    /// between solves.
    pub fn add_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.order.push_var(&self.activity);
        v
    }

    /// Returns the number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of conflicts encountered so far (a proxy for search effort).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    fn lit_value(&self, lit: Lit) -> i8 {
        value_in(&self.assign, lit)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause, before the first solve or between solves (both at decision
    /// level 0). Returns `false` if the formula became trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable outside the solver.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses may be added only at decision level 0, between solves"
        );
        if !self.ok {
            return false;
        }
        // Normalise: remove duplicates and satisfied/falsified literals at level 0.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!(l.var().index() < self.num_vars, "literal out of range");
            if self.lit_value(l) == TRUE || clause.contains(&!l) {
                return true; // clause already satisfied or tautological
            }
            if self.lit_value(l) == FALSE || clause.contains(&l) {
                continue;
            }
            clause.push(l);
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(clause[0], None) {
                    self.ok = false;
                    return false;
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach(clause);
                true
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) -> bool {
        match self.lit_value(lit) {
            TRUE => true,
            FALSE => false,
            _ => {
                let v = lit.var().index();
                self.assign[v] = if lit.is_positive() { TRUE } else { FALSE };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Stores a clause of two or more literals and watches its first two;
    /// returns its index.
    fn attach(&mut self, lits: Vec<Lit>) -> usize {
        let clause = self.clauses.len();
        self.watches[lits[0].index()].push(Watcher {
            clause,
            blocker: lits[1],
        });
        self.watches[lits[1].index()].push(Watcher {
            clause,
            blocker: lits[0],
        });
        self.clauses.push(Clause { lits });
        clause
    }

    /// Unit propagation; returns the index of a conflicting clause if one is found.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let falsified = !lit;
            let mut watchers = std::mem::take(&mut self.watches[falsified.index()]);
            // Kept watchers are compacted into `watchers[..kept]`.
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                if value_in(&self.assign, w.blocker) == TRUE {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                let lits = &mut self.clauses[w.clause].lits;
                // Ensure the falsified literal is in position 1.
                if lits[0] == falsified {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                let keep = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && value_in(&self.assign, first) == TRUE {
                    watchers[kept] = keep;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| value_in(&self.assign, lits[k]) != FALSE)
                {
                    lits.swap(1, k);
                    self.watches[lits[1].index()].push(keep);
                    continue;
                }
                // Clause is unit or conflicting.
                watchers[kept] = keep;
                kept += 1;
                if !self.enqueue(first, Some(w.clause)) {
                    conflict = Some(w.clause);
                    break;
                }
            }
            // Drop the moved watchers; any not visited because of a conflict stay.
            watchers.drain(kept..i);
            self.watches[falsified.index()] = watchers;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(var as u32, &self.activity);
        }
    }

    fn decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting literal first)
    /// and the backtrack level.
    fn analyze(&mut self, confl: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = Some(confl);
        let mut index = self.trail.len();
        loop {
            let clause = confl.expect("conflict analysis requires a reason clause");
            let start = usize::from(p.is_some());
            // For reason clauses, lits[0] is the implied literal p; skip it.
            for k in start..self.clauses[clause].lits.len() {
                let q = self.clauses[clause].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal from the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            confl = self.reason[v];
        }
        learnt[0] = !p.expect("first UIP exists");
        // Current-level marks were cleared while resolving; clear the rest.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backtrack level: highest level among the non-asserting literals.
        let mut bt = 0u32;
        let mut swap_idx = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt {
                bt = lv;
                swap_idx = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, swap_idx);
        }
        (learnt, bt)
    }

    /// Undoes every assignment above `level`. Below the current level the
    /// trail is fully propagated, so propagation resumes at the cut; at the
    /// current level nothing changes, which keeps a unit learnt at level 0
    /// queued when the budget stops a solve right after learning it.
    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail nonempty");
                let v = lit.var().index();
                self.assign[v] = UNASSIGNED;
                self.reason[v] = None;
                self.order.insert(v as u32, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Picks the unassigned variable of highest activity (lowest index on
    /// ties) and its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == UNASSIGNED {
                return Some(Lit::new(Var(v), self.phase[v as usize]));
            }
        }
        None
    }

    /// Runs the CDCL search, bounded by a deterministic conflict budget.
    ///
    /// With [`SolveBudget::Conflicts`]`(n)` the search gives up and returns
    /// [`SolveResult::Unknown`] once this call has generated `n` conflicts
    /// (conflicts from earlier calls on a reused solver do not count against
    /// the budget). The same formula with the same budget always returns the
    /// same result, independent of machine speed or load.
    pub fn solve(&mut self, budget: SolveBudget) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let conflicts_at_start = self.conflicts;
        let mut restart_limit = 128u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let SolveBudget::Conflicts(limit) = budget {
                if self.conflicts - conflicts_at_start >= limit {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
            }
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    let ok = self.enqueue(asserting, None);
                    debug_assert!(ok, "asserting unit must be enqueueable after backtrack");
                } else {
                    let idx = self.attach(learnt);
                    let ok = self.enqueue(asserting, Some(idx));
                    debug_assert!(ok, "asserting literal must be enqueueable after backtrack");
                }
                self.decay();
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit = (restart_limit as f64 * 1.5) as u64;
                    self.backtrack(0);
                    continue;
                }
                match self.decide() {
                    None => {
                        // All variables assigned: model found.
                        let model = (0..self.num_vars).map(|v| self.assign[v] == TRUE).collect();
                        self.backtrack(0);
                        return SolveResult::Sat(model);
                    }
                    Some(lit) => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, None);
                        debug_assert!(ok, "decision literal must be unassigned");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lit(v: u32, positive: bool) -> Lit {
        Lit::new(Var(v), positive)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new(1);
        assert!(s.add_clause(&[lit(0, true)]));
        assert!(s.solve(SolveBudget::Unlimited).is_sat());

        let mut s = Solver::new(1);
        s.add_clause(&[lit(0, true)]);
        s.add_clause(&[lit(0, false)]);
        assert_eq!(s.solve(SolveBudget::Unlimited), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(2);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(SolveBudget::Unlimited), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (x0) & (~x0 | x1) & (~x1 | x2) forces all true.
        let mut s = Solver::new(3);
        s.add_clause(&[lit(0, true)]);
        s.add_clause(&[lit(0, false), lit(1, true)]);
        s.add_clause(&[lit(1, false), lit(2, true)]);
        match s.solve(SolveBudget::Unlimited) {
            SolveResult::Sat(m) => assert_eq!(m, vec![true, true, true]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // Pigeons p in 0..3, holes h in 0..2; var(p, h) = p * 2 + h.
        let mut s = Solver::new(6);
        let v = |p: u32, h: u32| lit(p * 2 + h, true);
        for p in 0..3 {
            s.add_clause(&[v(p, 0), v(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause(&[!v(p1, h), !v(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(SolveBudget::Unlimited), SolveResult::Unsat);
    }

    /// Brute-force satisfiability check for cross-validation.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        for mask in 0u64..(1 << num_vars) {
            let assignment: Vec<bool> = (0..num_vars).map(|v| (mask >> v) & 1 == 1).collect();
            if clauses
                .iter()
                .all(|c| c.iter().any(|l| l.apply(assignment[l.var().index()])))
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..60 {
            let num_vars = rng.gen_range(3..10);
            let num_clauses = rng.gen_range(3..(num_vars * 5));
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| random_clause(&mut rng, num_vars))
                .collect();
            let mut builder = CnfBuilder::new();
            builder.new_vars(num_vars);
            for clause in &clauses {
                builder.add_clause(clause);
            }
            let result = builder.build_solver().solve(SolveBudget::Unlimited);
            assert_matches_brute_force(&result, num_vars, &clauses, &format!("case {case}"));
        }
    }

    #[test]
    fn solver_counts_conflicts_on_hard_instances() {
        let mut s = Solver::new(8);
        let v = |p: u32, h: u32| lit(p * 3 + h, true);
        // Pigeonhole 4 into... keep it small: 3 pigeons, 2 holes again but via 3-hole vars
        // to generate more conflicts.
        for p in 0..2 {
            s.add_clause(&[v(p, 0), v(p, 1), v(p, 2)]);
        }
        s.add_clause(&[!v(0, 0), !v(1, 0)]);
        s.add_clause(&[!v(0, 1), !v(1, 1)]);
        s.add_clause(&[!v(0, 2), !v(1, 2)]);
        assert!(s.solve(SolveBudget::Unlimited).is_sat());
    }

    /// Checks `result` against brute force: a model must satisfy every
    /// clause, and a verdict must agree with exhaustive search.
    fn assert_matches_brute_force(
        result: &SolveResult,
        num_vars: usize,
        clauses: &[Vec<Lit>],
        what: &str,
    ) {
        let expected = brute_force_sat(num_vars, clauses);
        match (result, expected) {
            (SolveResult::Sat(model), true) => {
                assert_eq!(model.len(), num_vars, "{what}: model length");
                for clause in clauses {
                    assert!(
                        clause.iter().any(|l| l.apply(model[l.var().index()])),
                        "{what}: returned model violates a clause"
                    );
                }
            }
            (SolveResult::Unsat, false) => {}
            other => panic!("{what}: solver said {other:?} but brute force said {expected}"),
        }
    }

    fn random_clause(rng: &mut StdRng, num_vars: usize) -> Vec<Lit> {
        let len = rng.gen_range(1..=3);
        (0..len)
            .map(|_| lit(rng.gen_range(0..num_vars) as u32, rng.gen_bool(0.5)))
            .collect()
    }

    #[test]
    fn incremental_solves_agree_with_brute_force() {
        // One solver per instance: between solves, fresh variables and clauses
        // over old and new variables are added at level 0. Learnt clauses,
        // activities and phases carry over; every verdict must still match
        // exhaustive search over the formula as it stands.
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..80 {
            let mut num_vars = rng.gen_range(3..=6);
            let mut solver = Solver::new(num_vars);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..rng.gen_range(2..(num_vars * 3)) {
                let clause = random_clause(&mut rng, num_vars);
                solver.add_clause(&clause);
                clauses.push(clause);
            }
            for call in 0..6 {
                let result = solver.solve(SolveBudget::Unlimited);
                let what = format!("case {case} call {call}");
                assert_matches_brute_force(&result, num_vars, &clauses, &what);
                if result == SolveResult::Unsat {
                    break;
                }
                if num_vars < 9 && rng.gen_bool(0.5) {
                    assert_eq!(solver.add_var(), Var(num_vars as u32));
                    num_vars += 1;
                }
                for _ in 0..rng.gen_range(1..=3) {
                    let clause = random_clause(&mut rng, num_vars);
                    solver.add_clause(&clause);
                    clauses.push(clause);
                }
            }
        }
    }

    #[test]
    fn a_solve_cut_by_its_budget_resumes_to_the_brute_force_verdict() {
        // Random 3-SAT at the satisfiability threshold. Whenever a one-conflict
        // budget cuts the first call short, calling again on the same solver
        // must reach the exact verdict, whether the next call is unbounded or
        // itself limited to one conflict at a time (each call still learns).
        let mut rng = StdRng::seed_from_u64(11);
        let mut resumed = 0;
        for case in 0..40 {
            let num_vars = 12;
            let clauses: Vec<Vec<Lit>> = (0..51)
                .map(|_| {
                    (0..3)
                        .map(|_| lit(rng.gen_range(0..num_vars) as u32, rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            for unbounded in [true, false] {
                let mut solver = Solver::new(num_vars);
                for clause in &clauses {
                    solver.add_clause(clause);
                }
                if solver.solve(SolveBudget::Conflicts(1)) != SolveResult::Unknown {
                    continue;
                }
                resumed += 1;
                let result = if unbounded {
                    solver.solve(SolveBudget::Unlimited)
                } else {
                    loop {
                        let r = solver.solve(SolveBudget::Conflicts(1));
                        if r != SolveResult::Unknown {
                            break r;
                        }
                    }
                };
                let what = format!("case {case} (unbounded resume: {unbounded})");
                assert_matches_brute_force(&result, num_vars, &clauses, &what);
            }
        }
        assert!(
            resumed >= 20,
            "only {resumed} solves were cut by the budget"
        );
    }

    #[test]
    fn models_of_larger_threshold_instances_satisfy_every_clause() {
        // Too large for brute force, but every model is checked clause by clause:
        // a watch lost during propagation shows up as a violated clause. Half of
        // the clauses arrive between solves.
        let mut rng = StdRng::seed_from_u64(5);
        let mut sat = 0;
        for case in 0..40 {
            let num_vars = 40;
            let clauses: Vec<Vec<Lit>> = (0..170)
                .map(|_| {
                    (0..3)
                        .map(|_| lit(rng.gen_range(0..num_vars) as u32, rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let mut solver = Solver::new(num_vars);
            for (half, part) in clauses.chunks(85).enumerate() {
                for clause in part {
                    solver.add_clause(clause);
                }
                let SolveResult::Sat(model) = solver.solve(SolveBudget::Unlimited) else {
                    break;
                };
                sat += 1;
                for clause in &clauses[..85 * (half + 1)] {
                    assert!(
                        clause.iter().any(|l| l.apply(model[l.var().index()])),
                        "case {case}: model violates a clause"
                    );
                }
            }
        }
        assert!(sat > 40, "only {sat} satisfiable calls");
    }

    #[test]
    fn pigeonhole_cut_by_its_budget_resumes_to_unsat() {
        // 4 pigeons, 3 holes: unsatisfiable, and never refuted in one conflict.
        let mut s = Solver::new(12);
        let v = |p: u32, h: u32| lit(p * 3 + h, true);
        for p in 0..4 {
            s.add_clause(&[v(p, 0), v(p, 1), v(p, 2)]);
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(&[!v(p1, h), !v(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(SolveBudget::Conflicts(1)), SolveResult::Unknown);
        assert_eq!(s.num_conflicts(), 1);
        assert_eq!(s.solve(SolveBudget::Unlimited), SolveResult::Unsat);
    }
}
