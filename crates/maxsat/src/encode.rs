//! Higher-level constraint encodings: XOR trees and totalizer cardinality constraints.
//!
//! The XOR encoding follows the paper's Section 5.2: naively expanding a multivariate
//! XOR into CNF is exponential, so auxiliary variables are introduced in a balanced tree
//! (a Tseitin transformation) giving a linear number of clauses. The totalizer encoding
//! is used by the MaxSAT linear search to bound the number of violated soft clauses.

use crate::cnf::{CnfBuilder, Lit};

impl CnfBuilder {
    /// Returns a literal equivalent to the XOR of `lits`, introducing auxiliary
    /// variables in a balanced tree.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn xor_to_lit(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "cannot take the XOR of zero literals");
        if lits.len() == 1 {
            return lits[0];
        }
        let mid = lits.len() / 2;
        let a = self.xor_to_lit(&lits[..mid]);
        let b = self.xor_to_lit(&lits[mid..]);
        let c = self.new_var().positive();
        // c <-> a XOR b
        self.add_clause(&[!a, !b, !c]);
        self.add_clause(&[a, b, !c]);
        self.add_clause(&[a, !b, c]);
        self.add_clause(&[!a, b, c]);
        c
    }

    /// Adds the hard constraint `XOR(lits) = parity`.
    ///
    /// An empty `lits` with `parity == true` makes the formula unsatisfiable (an empty
    /// clause is added); with `parity == false` it is a no-op.
    pub fn add_xor_constraint(&mut self, lits: &[Lit], parity: bool) {
        if lits.is_empty() {
            if parity {
                self.add_clause(&[]);
            }
            return;
        }
        let x = self.xor_to_lit(lits);
        self.add_unit(if parity { x } else { !x });
    }

    /// Builds a totalizer over `lits`, cut at `limit`, and returns its output
    /// literals.
    ///
    /// There are `min(limit, lits.len())` outputs. Output literal `out[i]` is
    /// implied to be true whenever at least `i + 1` of the inputs are true, so
    /// asserting `!out[k]` for `k < limit` enforces "at most `k` inputs true".
    /// Only the direction needed for upper bounds is encoded, and no counts
    /// above `limit` are built: every node of the tree keeps at most `limit`
    /// outputs, which shrinks the encoding from `O(n²)` to `O(n · limit)`
    /// clauses.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn totalizer(&mut self, lits: &[Lit], limit: usize) -> Vec<Lit> {
        assert!(!lits.is_empty(), "totalizer needs at least one input");
        if lits.len() == 1 {
            return lits[..limit.min(1)].to_vec();
        }
        let mid = lits.len() / 2;
        let left = self.totalizer(&lits[..mid], limit);
        let right = self.totalizer(&lits[mid..], limit);
        let outputs: Vec<Lit> = (0..lits.len().min(limit))
            .map(|_| self.new_var().positive())
            .collect();
        // sum(left) >= i and sum(right) >= j implies sum >= i + j. Sums above
        // the cut need no clause: they already imply sum >= limit through
        // smaller i and j, because the children's outputs are monotone.
        for i in 0..=left.len() {
            for j in 0..=right.len() {
                if i + j == 0 || i + j > outputs.len() {
                    continue;
                }
                let mut clause = Vec::with_capacity(3);
                if i > 0 {
                    clause.push(!left[i - 1]);
                }
                if j > 0 {
                    clause.push(!right[j - 1]);
                }
                clause.push(outputs[i + j - 1]);
                self.add_clause(&clause);
            }
        }
        outputs
    }

    /// Adds the constraint "at most `k` of `lits` are true" via a totalizer
    /// cut at `k + 1`.
    pub fn add_at_most_k(&mut self, lits: &[Lit], k: usize) {
        if lits.is_empty() || k >= lits.len() {
            return;
        }
        let outputs = self.totalizer(lits, k + 1);
        self.add_unit(!outputs[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;
    use crate::solver::{SolveBudget, SolveResult};

    /// Enumerates every assignment of `vars` and checks that the formula's satisfying
    /// assignments (projected to `vars`) are exactly those where `predicate` holds.
    fn assert_projection_matches(
        builder: &CnfBuilder,
        vars: &[Var],
        predicate: impl Fn(&[bool]) -> bool,
    ) {
        for mask in 0u64..(1 << vars.len()) {
            let values: Vec<bool> = (0..vars.len()).map(|i| (mask >> i) & 1 == 1).collect();
            // Fix the projection with unit clauses and check satisfiability.
            let mut fixed = builder.clone();
            for (v, &val) in vars.iter().zip(values.iter()) {
                fixed.add_unit(if val { v.positive() } else { v.negative() });
            }
            let mut solver = fixed.build_solver();
            let sat = solver.solve(SolveBudget::Unlimited).is_sat();
            assert_eq!(
                sat,
                predicate(&values),
                "projection {values:?} disagreement"
            );
        }
    }

    #[test]
    fn xor_constraint_matches_parity_semantics() {
        for n in 1..6 {
            for parity in [false, true] {
                let mut b = CnfBuilder::new();
                let vars = b.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                b.add_xor_constraint(&lits, parity);
                assert_projection_matches(&b, &vars, |vals| {
                    vals.iter().filter(|&&x| x).count() % 2 == usize::from(parity)
                });
            }
        }
    }

    #[test]
    fn xor_with_negated_literals() {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(3);
        let lits = vec![vars[0].positive(), vars[1].negative(), vars[2].positive()];
        b.add_xor_constraint(&lits, true);
        assert_projection_matches(&b, &vars, |v| v[0] ^ !v[1] ^ v[2]);
    }

    #[test]
    fn empty_xor_true_is_unsat() {
        let mut b = CnfBuilder::new();
        b.add_xor_constraint(&[], true);
        assert_eq!(
            b.build_solver().solve(SolveBudget::Unlimited),
            SolveResult::Unsat
        );
        let mut b = CnfBuilder::new();
        let _ = b.new_var();
        b.add_xor_constraint(&[], false);
        assert!(b.build_solver().solve(SolveBudget::Unlimited).is_sat());
    }

    #[test]
    fn xor_tree_uses_linear_clause_count() {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(64);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        b.add_xor_constraint(&lits, false);
        // The tree introduces 63 auxiliary variables and 4 clauses each plus one unit.
        assert_eq!(b.num_vars(), 64 + 63);
        assert_eq!(b.num_clauses(), 63 * 4 + 1);
    }

    #[test]
    fn at_most_k_matches_counting_semantics() {
        for n in 1..6 {
            for k in 0..n {
                let mut b = CnfBuilder::new();
                let vars = b.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                b.add_at_most_k(&lits, k);
                assert_projection_matches(&b, &vars, |vals| {
                    vals.iter().filter(|&&x| x).count() <= k
                });
            }
        }
    }

    #[test]
    fn cut_totalizer_bounds_match_counting_semantics() {
        // For every input count n, every cut and every output the cut keeps,
        // asserting !out[c - 1] must allow exactly the assignments with at
        // most c - 1 true inputs.
        for n in 1..=6 {
            for limit in 1..=n + 1 {
                for c in 1..=limit.min(n) {
                    let mut b = CnfBuilder::new();
                    let vars = b.new_vars(n);
                    let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                    let outputs = b.totalizer(&lits, limit);
                    assert_eq!(outputs.len(), limit.min(n), "n {n} limit {limit}");
                    b.add_unit(!outputs[c - 1]);
                    assert_projection_matches(&b, &vars, |vals| {
                        vals.iter().filter(|&&x| x).count() < c
                    });
                }
            }
        }
    }

    #[test]
    fn cutting_the_totalizer_shrinks_it() {
        let mut full = CnfBuilder::new();
        let mut cut = CnfBuilder::new();
        let lits: Vec<Lit> = full.new_vars(64).iter().map(|v| v.positive()).collect();
        cut.new_vars(64);
        full.totalizer(&lits, 64);
        cut.totalizer(&lits, 4);
        // Uncut, each of the six tree levels has 64 outputs in all; cut at 4,
        // no node has more than 4.
        assert_eq!((full.num_vars() - 64, full.num_clauses()), (384, 2400));
        assert_eq!((cut.num_vars() - 64, cut.num_clauses()), (188, 434));
    }

    #[test]
    fn at_most_k_is_noop_when_k_at_least_n() {
        let mut b = CnfBuilder::new();
        let vars = b.new_vars(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        b.add_at_most_k(&lits, 3);
        assert_eq!(b.num_clauses(), 0);
    }
}
