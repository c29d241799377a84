//! The circuit-level Pauli noise model of the paper's evaluation (Section 6.1).
//!
//! Single-qubit operations are followed by one of `{X, Y, Z}` with probability `p/3`
//! each; two-qubit operations are followed by one of the fifteen non-identity two-qubit
//! Paulis with probability `p/15` each; measurements are preceded by an outcome-flipping
//! error with probability `p`. Idle qubits optionally pick up a Pauli-twirled
//! decoherence error between gate layers (Section 6.3's sensitivity study).

use crate::ops::{Circuit, Op};

/// A single-qubit Pauli operator (excluding identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Bit-flip error.
    X,
    /// Combined bit- and phase-flip error.
    Y,
    /// Phase-flip error.
    Z,
}

impl Pauli {
    /// All three non-identity Paulis.
    pub const ALL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns `true` if the Pauli has an X component (X or Y).
    pub fn has_x(self) -> bool {
        matches!(self, Pauli::X | Pauli::Y)
    }

    /// Returns `true` if the Pauli has a Z component (Z or Y).
    pub fn has_z(self) -> bool {
        matches!(self, Pauli::Z | Pauli::Y)
    }
}

/// The Pauli error of an elementary fault: one or two `(qubit, Pauli)` terms, stored
/// inline so that enumerating a circuit's faults allocates nothing per fault.
///
/// It dereferences to the slice of its terms, in push order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparsePauli {
    /// The terms; slots past `len` hold `(0, Pauli::X)`, so derived equality and
    /// hashing see only the terms.
    terms: [(usize, Pauli); 2],
    len: u8,
}

impl SparsePauli {
    /// The identity: no terms.
    pub fn new() -> Self {
        SparsePauli {
            terms: [(0, Pauli::X); 2],
            len: 0,
        }
    }

    /// The single-qubit error `pauli` on `qubit`.
    pub fn single(qubit: usize, pauli: Pauli) -> Self {
        let mut error = Self::new();
        error.push((qubit, pauli));
        error
    }

    /// Appends a term.
    ///
    /// # Panics
    ///
    /// Panics if the error already has two terms: elementary faults act on at most
    /// the two qubits of a gate.
    pub fn push(&mut self, term: (usize, Pauli)) {
        assert!(
            self.len < 2,
            "an elementary fault acts on at most two qubits"
        );
        self.terms[usize::from(self.len)] = term;
        self.len += 1;
    }
}

impl Default for SparsePauli {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for SparsePauli {
    type Target = [(usize, Pauli)];

    fn deref(&self) -> &[(usize, Pauli)] {
        &self.terms[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for SparsePauli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Circuit-level noise parameters.
///
/// All probabilities are per-operation. The model is a small *family*:
///
/// * [`NoiseModel::uniform_depolarizing`] — the paper's model with a single physical
///   error rate `p` (every Pauli equally likely).
/// * [`NoiseModel::si1000`] — a superconducting-inspired profile: full-strength
///   two-qubit errors, weak (`p/10`) single-qubit and idle errors, strong (`2p`)
///   measurement flips.
/// * [`NoiseModel::biased`] — depolarizing with a Z-biased Pauli distribution,
///   parameterized by the bias ratio `eta = p_Z / (p_X + p_Y)`.
///
/// The Pauli distribution is controlled by [`NoiseModel::pauli_weights`]: relative
/// `[X, Y, Z]` weights. Uniform weights `[1, 1, 1]` reproduce the classic `p/3`
/// (single-qubit) and `p/15` (two-qubit) probabilities bit-for-bit; biased weights
/// reshape both the single-qubit Paulis and, via a product form, the fifteen
/// two-qubit Paulis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after each single-qubit gate or reset.
    pub p_single: f64,
    /// Depolarizing probability after each two-qubit gate.
    pub p_double: f64,
    /// Outcome-flip probability before each measurement.
    pub p_measure: f64,
    /// Depolarizing probability applied to each idle qubit in each moment.
    pub p_idle: f64,
    /// Relative weights of the `[X, Y, Z]` error components. `[1, 1, 1]` is the
    /// unbiased (uniform depolarizing) distribution.
    pub pauli_weights: [f64; 3],
}

/// The unbiased Pauli weights.
const UNIFORM_WEIGHTS: [f64; 3] = [1.0, 1.0, 1.0];

impl NoiseModel {
    /// The paper's uniform circuit-level depolarizing model at physical error rate `p`.
    pub fn uniform_depolarizing(p: f64) -> Self {
        NoiseModel {
            p_single: p,
            p_double: p,
            p_measure: p,
            p_idle: 0.0,
            pauli_weights: UNIFORM_WEIGHTS,
        }
    }

    /// A superconducting-inspired profile at base error rate `p` (the SI1000 family):
    /// two-qubit gates depolarize at `p`, single-qubit operations and idling at
    /// `p / 10`, and measurement outcomes flip at `2p` (clamped to `0.5`).
    pub fn si1000(p: f64) -> Self {
        NoiseModel {
            p_single: p / 10.0,
            p_double: p,
            p_measure: (2.0 * p).min(0.5),
            p_idle: p / 10.0,
            pauli_weights: UNIFORM_WEIGHTS,
        }
    }

    /// A Z-biased depolarizing model at error rate `p` with bias ratio
    /// `eta = p_Z / (p_X + p_Y)`. `eta = 0.5` is the unbiased model; large `eta`
    /// concentrates errors on the Z component (dephasing-dominated hardware).
    pub fn biased(p: f64, eta: f64) -> Self {
        NoiseModel {
            pauli_weights: [1.0, 1.0, 2.0 * eta],
            ..NoiseModel::uniform_depolarizing(p)
        }
    }

    /// Adds idle errors of strength `p_idle` per qubit per moment (Pauli-twirled
    /// decoherence approximation). The idle strength is typically `t_gate / T_coherence`
    /// as in the paper's Figure 15.
    pub fn with_idle(mut self, p_idle: f64) -> Self {
        self.p_idle = p_idle;
        self
    }

    /// Overrides the relative `[X, Y, Z]` error-component weights.
    pub fn with_pauli_weights(mut self, weights: [f64; 3]) -> Self {
        self.pauli_weights = weights;
        self
    }

    /// A noiseless model (useful in tests).
    pub fn noiseless() -> Self {
        NoiseModel {
            p_single: 0.0,
            p_double: 0.0,
            p_measure: 0.0,
            p_idle: 0.0,
            pauli_weights: UNIFORM_WEIGHTS,
        }
    }

    /// Per-Pauli weight normalized so the unbiased model yields exactly `1.0` for
    /// every component (which keeps the uniform `p/3` / `p/15` probabilities
    /// bit-identical to the unweighted formulas).
    fn normalized_weight(&self, pauli: Pauli) -> f64 {
        let sum: f64 = self.pauli_weights.iter().sum();
        let w = match pauli {
            Pauli::X => self.pauli_weights[0],
            Pauli::Y => self.pauli_weights[1],
            Pauli::Z => self.pauli_weights[2],
        };
        3.0 * w / sum
    }

    /// Probability of the single-qubit error `pauli` after a single-qubit operation
    /// at strength `p`: `p * w / (w_x + w_y + w_z)`.
    fn single_pauli_probability(&self, p: f64, pauli: Pauli) -> f64 {
        let sum: f64 = self.pauli_weights.iter().sum();
        let w = match pauli {
            Pauli::X => self.pauli_weights[0],
            Pauli::Y => self.pauli_weights[1],
            Pauli::Z => self.pauli_weights[2],
        };
        p * w / sum
    }

    /// Enumerates every elementary fault the model can inject into `circuit`.
    ///
    /// Each fault is returned as `(moment, op_index_within_moment, error, probability,
    /// is_pre_op)`. `is_pre_op` is `true` for measurement-flip errors, which are applied
    /// *before* their operation so the flipped outcome is recorded.
    pub fn enumerate_faults(&self, circuit: &Circuit) -> Vec<Fault> {
        let mut faults = Vec::new();
        for (mi, moment) in circuit.moments().enumerate() {
            for (oi, op) in moment.iter().enumerate() {
                match *op {
                    Op::Cnot(c, t) => {
                        if self.p_double > 0.0 {
                            for pc in [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)] {
                                for pt in [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)] {
                                    if pc.is_none() && pt.is_none() {
                                        continue;
                                    }
                                    // Product-form biased distribution over the 15
                                    // non-identity two-qubit Paulis: identity weight 1,
                                    // normalized per-component weights (uniform => every
                                    // pair has weight 1 and probability p/15 exactly).
                                    let weight = pc.map_or(1.0, |p| self.normalized_weight(p))
                                        * pt.map_or(1.0, |p| self.normalized_weight(p));
                                    if weight == 0.0 {
                                        continue;
                                    }
                                    let mut error = SparsePauli::new();
                                    if let Some(pc) = pc {
                                        error.push((c, pc));
                                    }
                                    if let Some(pt) = pt {
                                        error.push((t, pt));
                                    }
                                    faults.push(Fault {
                                        moment: mi,
                                        op_index: oi,
                                        op: *op,
                                        error,
                                        probability: self.p_double * weight / 15.0,
                                        pre_op: false,
                                    });
                                }
                            }
                        }
                    }
                    Op::H(q) | Op::ResetZ(q) | Op::ResetX(q) => {
                        if self.p_single > 0.0 {
                            for pauli in Pauli::ALL {
                                let probability =
                                    self.single_pauli_probability(self.p_single, pauli);
                                if probability == 0.0 {
                                    continue;
                                }
                                faults.push(Fault {
                                    moment: mi,
                                    op_index: oi,
                                    op: *op,
                                    error: SparsePauli::single(q, pauli),
                                    probability,
                                    pre_op: false,
                                });
                            }
                        }
                    }
                    Op::MeasureZ(q) => {
                        if self.p_measure > 0.0 {
                            faults.push(Fault {
                                moment: mi,
                                op_index: oi,
                                op: *op,
                                error: SparsePauli::single(q, Pauli::X),
                                probability: self.p_measure,
                                pre_op: true,
                            });
                        }
                    }
                    Op::MeasureX(q) => {
                        if self.p_measure > 0.0 {
                            faults.push(Fault {
                                moment: mi,
                                op_index: oi,
                                op: *op,
                                error: SparsePauli::single(q, Pauli::Z),
                                probability: self.p_measure,
                                pre_op: true,
                            });
                        }
                    }
                }
            }
            if self.p_idle > 0.0 {
                for q in circuit.idle_qubits(mi) {
                    for pauli in Pauli::ALL {
                        let probability = self.single_pauli_probability(self.p_idle, pauli);
                        if probability == 0.0 {
                            continue;
                        }
                        faults.push(Fault {
                            moment: mi,
                            op_index: usize::MAX,
                            op: Op::H(q), // placeholder op descriptor for idle locations
                            error: SparsePauli::single(q, pauli),
                            probability,
                            pre_op: true,
                        });
                    }
                }
            }
        }
        faults
    }
}

/// A single elementary fault location produced by [`NoiseModel::enumerate_faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Moment index in the circuit.
    pub moment: usize,
    /// Index of the operation within the moment (`usize::MAX` for idle-qubit faults).
    pub op_index: usize,
    /// The operation the fault is attached to.
    pub op: Op,
    /// The Pauli error injected.
    pub error: SparsePauli,
    /// The probability of this elementary fault.
    pub probability: f64,
    /// Whether the error acts before its operation (measurement flips, idle errors) or
    /// after it (gate errors).
    pub pre_op: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Circuit, Op};

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push_moment(vec![Op::ResetZ(0), Op::ResetX(1)]);
        c.push_moment(vec![Op::Cnot(1, 0)]);
        c.push_moment(vec![Op::H(1)]);
        c.push_moment(vec![Op::MeasureZ(0), Op::MeasureX(1)]);
        c
    }

    #[test]
    fn uniform_model_counts_fault_locations() {
        let c = small_circuit();
        let model = NoiseModel::uniform_depolarizing(1e-3);
        let faults = model.enumerate_faults(&c);
        // 2 resets * 3 + 1 CNOT * 15 + 1 H * 3 + 2 measurements * 1 = 26.
        assert_eq!(faults.len(), 26);
        let total_p: f64 = faults.iter().map(|f| f.probability).sum();
        // 3 single-qubit-style ops at p + 1 two-qubit op at p + 2 measurement flips at p.
        assert!((total_p - 6.0e-3).abs() < 1e-12);
    }

    #[test]
    fn idle_errors_added_when_enabled() {
        let c = small_circuit();
        let model = NoiseModel::uniform_depolarizing(1e-3).with_idle(1e-4);
        let faults = model.enumerate_faults(&c);
        // Idle qubits: moment 0 has qubit 2, moment 1 has qubit 2, moment 2 has 0 and 2,
        // moment 3 has qubit 2 -> 5 idle locations * 3 Paulis.
        let idle_faults = faults.iter().filter(|f| f.op_index == usize::MAX).count();
        assert_eq!(idle_faults, 5 * 3);
    }

    #[test]
    fn sparse_paulis_compare_by_their_terms_and_hold_at_most_two() {
        let mut pair = SparsePauli::new();
        pair.push((3, Pauli::Y));
        assert_eq!(pair, SparsePauli::single(3, Pauli::Y));
        assert_eq!(*pair, [(3, Pauli::Y)]);
        pair.push((0, Pauli::X));
        // The second term equals the unused-slot filler, yet the length tells them apart.
        assert_ne!(pair, SparsePauli::single(3, Pauli::Y));
        assert_eq!(format!("{pair:?}"), "[(3, Y), (0, X)]");
        let third = std::panic::catch_unwind(move || pair.push((1, Pauli::Z)));
        assert!(third.is_err());
    }

    #[test]
    fn noiseless_model_has_no_faults() {
        let c = small_circuit();
        assert!(NoiseModel::noiseless().enumerate_faults(&c).is_empty());
    }

    #[test]
    fn measurement_faults_are_pre_op() {
        let c = small_circuit();
        let model = NoiseModel::uniform_depolarizing(1e-3);
        for f in model.enumerate_faults(&c) {
            if matches!(f.op, Op::MeasureZ(_) | Op::MeasureX(_)) {
                assert!(f.pre_op);
            } else {
                assert!(!f.pre_op);
            }
        }
    }

    #[test]
    fn biased_model_with_unbiased_eta_matches_uniform_depolarizing() {
        let c = small_circuit();
        let uniform = NoiseModel::uniform_depolarizing(1e-3).enumerate_faults(&c);
        let biased = NoiseModel::biased(1e-3, 0.5).enumerate_faults(&c);
        assert_eq!(uniform.len(), biased.len());
        for (u, b) in uniform.iter().zip(&biased) {
            assert_eq!(u.error, b.error);
            assert_eq!(u.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn biased_model_concentrates_probability_on_z() {
        let c = small_circuit();
        let faults = NoiseModel::biased(1e-3, 10.0).enumerate_faults(&c);
        // Total per-op budgets are preserved: 3 single-qubit-style ops + 1 CNOT +
        // 2 measurement flips, all at p.
        let total: f64 = faults.iter().map(|f| f.probability).sum();
        assert!((total - 6.0e-3).abs() < 1e-12, "total {total}");
        // For a single-qubit op, Z must now carry eta/(eta+1) of the budget.
        let reset_z: f64 = faults
            .iter()
            .filter(|f| matches!(f.op, Op::ResetZ(_)) && *f.error == [(0, Pauli::Z)])
            .map(|f| f.probability)
            .sum();
        assert!((reset_z - 1e-3 * 10.0 / 11.0).abs() < 1e-15, "{reset_z}");
    }

    #[test]
    fn fully_biased_model_drops_zero_weight_faults() {
        let c = small_circuit();
        // eta = 0: no Z component anywhere; every remaining fault is X/Y only.
        let faults = NoiseModel::biased(1e-3, 0.0).enumerate_faults(&c);
        assert!(!faults.is_empty());
        for f in &faults {
            // Measurement flips are injected directly (X before MZ, Z before MX)
            // and are not part of the depolarizing Pauli distribution.
            if f.pre_op {
                continue;
            }
            assert!(
                f.error.iter().all(|&(_, p)| p != Pauli::Z),
                "unexpected Z fault {f:?}"
            );
            assert!(f.probability > 0.0);
        }
    }

    #[test]
    fn si1000_profile_has_the_documented_strengths() {
        let m = NoiseModel::si1000(1e-3);
        assert_eq!(m.p_double, 1e-3);
        assert_eq!(m.p_single, 1e-4);
        assert_eq!(m.p_idle, 1e-4);
        assert_eq!(m.p_measure, 2e-3);
        // The measurement flip clamps at 0.5 for absurd base rates.
        assert_eq!(NoiseModel::si1000(0.4).p_measure, 0.5);
        let c = small_circuit();
        let faults = m.enumerate_faults(&c);
        // si1000 enables idle errors, so idle fault locations appear.
        assert!(faults.iter().any(|f| f.op_index == usize::MAX));
    }

    #[test]
    fn pauli_component_queries() {
        assert!(Pauli::X.has_x() && !Pauli::X.has_z());
        assert!(Pauli::Y.has_x() && Pauli::Y.has_z());
        assert!(!Pauli::Z.has_x() && Pauli::Z.has_z());
    }
}
