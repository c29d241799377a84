//! CSS stabilizer codes: parity-check matrices, logical operators and validation.

use prophunt_gf2::{BitMatrix, BitVec};
use std::fmt;

/// The two stabilizer types of a CSS code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabilizerKind {
    /// An X-type stabilizer (product of Pauli X operators); detects Z errors.
    X,
    /// A Z-type stabilizer (product of Pauli Z operators); detects X errors.
    Z,
}

impl StabilizerKind {
    /// Returns the opposite stabilizer kind.
    pub fn opposite(self) -> StabilizerKind {
        match self {
            StabilizerKind::X => StabilizerKind::Z,
            StabilizerKind::Z => StabilizerKind::X,
        }
    }
}

impl fmt::Display for StabilizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilizerKind::X => write!(f, "X"),
            StabilizerKind::Z => write!(f, "Z"),
        }
    }
}

/// Errors produced when constructing a [`CssCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CssCodeError {
    /// `H_X` and `H_Z` have different numbers of columns (data qubits).
    QubitCountMismatch {
        /// Number of columns of `H_X`.
        hx_cols: usize,
        /// Number of columns of `H_Z`.
        hz_cols: usize,
    },
    /// The CSS commutation condition `H_X · H_Zᵀ = 0` is violated.
    StabilizersDoNotCommute,
    /// The code encodes zero logical qubits.
    NoLogicalQubits,
}

impl fmt::Display for CssCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CssCodeError::QubitCountMismatch { hx_cols, hz_cols } => write!(
                f,
                "H_X has {hx_cols} columns but H_Z has {hz_cols}; both must act on the same data qubits"
            ),
            CssCodeError::StabilizersDoNotCommute => {
                write!(f, "H_X * H_Z^T != 0: X and Z stabilizers do not commute")
            }
            CssCodeError::NoLogicalQubits => write!(f, "code encodes zero logical qubits"),
        }
    }
}

impl std::error::Error for CssCodeError {}

/// A CSS stabilizer code `[[n, k, d]]` described by its X/Z parity-check matrices and a
/// symplectically paired basis of logical operators.
///
/// * `H_X` (rows = X stabilizers) detects Z errors: syndromes are `s_X = H_X · e_Z`.
/// * `H_Z` (rows = Z stabilizers) detects X errors: syndromes are `s_Z = H_Z · e_X`.
/// * `L_X` (rows = X-type logical operators) and `L_Z` (Z-type) satisfy
///   `L_X · L_Zᵀ = I_k` after construction, so logical qubit `i` is acted on by the pair
///   `(L_X[i], L_Z[i])`.
///
/// # Example
///
/// ```
/// use prophunt_gf2::BitMatrix;
/// use prophunt_qec::CssCode;
///
/// // The [[4, 1, 2]] "surface-like" code used in many QEC introductions is not CSS-valid
/// // with arbitrary matrices: commutation is checked at construction time.
/// let hx = BitMatrix::from_rows_u8(&[&[1, 1, 1, 1]]);
/// let hz = BitMatrix::from_rows_u8(&[&[1, 1, 0, 0], &[0, 0, 1, 1]]);
/// let code = CssCode::new("[[4,1,2]]", hx, hz)?;
/// assert_eq!(code.k(), 1);
/// # Ok::<(), prophunt_qec::CssCodeError>(())
/// ```
#[derive(Clone)]
pub struct CssCode {
    name: String,
    hx: BitMatrix,
    hz: BitMatrix,
    lx: BitMatrix,
    lz: BitMatrix,
    /// The designed/known code distance, if the construction knows it.
    known_distance: Option<usize>,
}

impl CssCode {
    /// Builds a CSS code from its parity-check matrices, deriving logical operators.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrices act on different numbers of qubits, if the
    /// stabilizers do not commute (`H_X · H_Zᵀ ≠ 0`), or if the code encodes no logical
    /// qubits.
    pub fn new(
        name: impl Into<String>,
        hx: BitMatrix,
        hz: BitMatrix,
    ) -> Result<CssCode, CssCodeError> {
        let name = name.into();
        if hx.num_cols() != hz.num_cols() {
            return Err(CssCodeError::QubitCountMismatch {
                hx_cols: hx.num_cols(),
                hz_cols: hz.num_cols(),
            });
        }
        let commute = hx
            .mul(&hz.transpose())
            .expect("dimension already checked")
            .is_zero();
        if !commute {
            return Err(CssCodeError::StabilizersDoNotCommute);
        }
        let (lx, lz) = derive_logicals(&hx, &hz)?;
        Ok(CssCode {
            name,
            hx,
            hz,
            lx,
            lz,
            known_distance: None,
        })
    }

    /// Builds a CSS code and records its designed distance.
    ///
    /// # Errors
    ///
    /// Same as [`CssCode::new`].
    pub fn with_known_distance(
        name: impl Into<String>,
        hx: BitMatrix,
        hz: BitMatrix,
        distance: usize,
    ) -> Result<CssCode, CssCodeError> {
        let mut code = CssCode::new(name, hx, hz)?;
        code.known_distance = Some(distance);
        Ok(code)
    }

    /// Returns the human-readable code name (e.g. `"surface_d3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of data qubits `n`.
    pub fn n(&self) -> usize {
        self.hx.num_cols()
    }

    /// Returns the number of logical qubits `k`.
    pub fn k(&self) -> usize {
        self.lx.num_rows()
    }

    /// Returns the designed code distance if the construction recorded one.
    pub fn known_distance(&self) -> Option<usize> {
        self.known_distance
    }

    /// Returns the X-type parity-check matrix `H_X`.
    pub fn hx(&self) -> &BitMatrix {
        &self.hx
    }

    /// Returns the Z-type parity-check matrix `H_Z`.
    pub fn hz(&self) -> &BitMatrix {
        &self.hz
    }

    /// Returns the X-type logical operator matrix `L_X` (`k × n`).
    pub fn lx(&self) -> &BitMatrix {
        &self.lx
    }

    /// Returns the Z-type logical operator matrix `L_Z` (`k × n`).
    pub fn lz(&self) -> &BitMatrix {
        &self.lz
    }

    /// Returns the number of X stabilizers (rows of `H_X`).
    pub fn num_x_stabilizers(&self) -> usize {
        self.hx.num_rows()
    }

    /// Returns the number of Z stabilizers (rows of `H_Z`).
    pub fn num_z_stabilizers(&self) -> usize {
        self.hz.num_rows()
    }

    /// Returns the total number of stabilizers.
    pub fn num_stabilizers(&self) -> usize {
        self.num_x_stabilizers() + self.num_z_stabilizers()
    }

    /// Returns the parity-check matrix of the given stabilizer kind.
    pub fn checks(&self, kind: StabilizerKind) -> &BitMatrix {
        match kind {
            StabilizerKind::X => &self.hx,
            StabilizerKind::Z => &self.hz,
        }
    }

    /// Returns the logical-operator matrix of the given kind.
    pub fn logicals(&self, kind: StabilizerKind) -> &BitMatrix {
        match kind {
            StabilizerKind::X => &self.lx,
            StabilizerKind::Z => &self.lz,
        }
    }

    /// Returns the data qubits in the support of stabilizer `index` of the given kind,
    /// in increasing qubit order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the given kind.
    pub fn stabilizer_support(&self, kind: StabilizerKind, index: usize) -> Vec<usize> {
        self.checks(kind).row(index).ones().collect()
    }

    /// Returns the maximum stabilizer weight across both kinds.
    pub fn max_stabilizer_weight(&self) -> usize {
        self.hx
            .rows_iter()
            .chain(self.hz.rows_iter())
            .map(BitVec::weight)
            .max()
            .unwrap_or(0)
    }

    /// Returns, for each data qubit, the list of `(kind, stabilizer index)` pairs acting
    /// on it — the data-qubit side of the Tanner graph.
    pub fn qubit_stabilizers(&self) -> Vec<Vec<(StabilizerKind, usize)>> {
        let mut out = vec![Vec::new(); self.n()];
        for (i, row) in self.hx.rows_iter().enumerate() {
            for q in row.ones() {
                out[q].push((StabilizerKind::X, i));
            }
        }
        for (i, row) in self.hz.rows_iter().enumerate() {
            for q in row.ones() {
                out[q].push((StabilizerKind::Z, i));
            }
        }
        out
    }

    /// Returns the data qubits shared by an X stabilizer and a Z stabilizer.
    pub fn shared_qubits(&self, x_index: usize, z_index: usize) -> Vec<usize> {
        self.hx
            .row(x_index)
            .and(self.hz.row(z_index))
            .ones()
            .collect()
    }

    /// Computes the syndrome of an X-error pattern (`s_Z = H_Z · e_X`).
    ///
    /// # Panics
    ///
    /// Panics if `e_x.len() != self.n()`.
    pub fn syndrome_of_x_errors(&self, e_x: &BitVec) -> BitVec {
        self.hz.mul_vec(e_x)
    }

    /// Returns `true` if the X-error pattern `e_x` flips any Z-type logical observable.
    pub fn x_errors_flip_logical(&self, e_x: &BitVec) -> bool {
        !self.lz.mul_vec(e_x).is_zero()
    }

    /// Replaces the logical-operator matrices with caller-provided ones.
    ///
    /// Useful when a construction has a conventional choice of logicals (e.g. the
    /// horizontal/vertical string operators of the surface code). The provided operators
    /// are validated: they must commute with the opposite-type stabilizers, be
    /// independent of the stabilizer group, and pair symplectically (`L_X · L_Zᵀ = I`).
    ///
    /// # Errors
    ///
    /// Returns [`CssCodeError::StabilizersDoNotCommute`] if validation fails.
    pub fn with_logicals(mut self, lx: BitMatrix, lz: BitMatrix) -> Result<CssCode, CssCodeError> {
        let k = self.k();
        let valid = lx.num_rows() == k
            && lz.num_rows() == k
            && lx.num_cols() == self.n()
            && lz.num_cols() == self.n()
            && self
                .hz
                .mul(&lx.transpose())
                .map(|m| m.is_zero())
                .unwrap_or(false)
            && self
                .hx
                .mul(&lz.transpose())
                .map(|m| m.is_zero())
                .unwrap_or(false)
            && lx
                .mul(&lz.transpose())
                .map(|m| m == BitMatrix::identity(k))
                .unwrap_or(false)
            && lx.rows_iter().all(|r| !self.hx.row_space_contains(r))
            && lz.rows_iter().all(|r| !self.hz.row_space_contains(r));
        if !valid {
            return Err(CssCodeError::StabilizersDoNotCommute);
        }
        self.lx = lx;
        self.lz = lz;
        Ok(self)
    }
}

impl fmt::Debug for CssCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CssCode {{ name: {:?}, n: {}, k: {}, x_stabs: {}, z_stabs: {}, d: {:?} }}",
            self.name,
            self.n(),
            self.k(),
            self.num_x_stabilizers(),
            self.num_z_stabilizers(),
            self.known_distance
        )
    }
}

impl fmt::Display for CssCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.known_distance {
            Some(d) => write!(f, "{} [[{},{},{}]]", self.name, self.n(), self.k(), d),
            None => write!(f, "{} [[{},{},?]]", self.name, self.n(), self.k()),
        }
    }
}

/// Derives a symplectically paired logical-operator basis from the check matrices.
fn derive_logicals(hx: &BitMatrix, hz: &BitMatrix) -> Result<(BitMatrix, BitMatrix), CssCodeError> {
    let n = hx.num_cols();
    let k = n - hx.rank() - hz.rank();
    if k == 0 {
        return Err(CssCodeError::NoLogicalQubits);
    }

    // X-type logicals: vectors commuting with all Z stabilizers (ker H_Z) that are
    // independent modulo the X-stabilizer group (rowspace H_X).
    let lx = logicals_one_kind(hz, hx, k);
    // Z-type logicals symmetrically.
    let lz = logicals_one_kind(hx, hz, k);

    // Symplectically pair: find change of basis A with L_X · (A·L_Z)ᵀ = I, i.e. M·Aᵀ = I
    // where M = L_X · L_Zᵀ. M is invertible because the pairing between the two logical
    // quotient spaces is non-degenerate.
    let m = lx.mul(&lz.transpose()).expect("shape");
    let mut new_lz_rows = Vec::with_capacity(k);
    for j in 0..k {
        // Column j of A^T = solution of M x = e_j  =>  row j of A solves M^T? We need
        // A such that M A^T = I, so column j of A^T satisfies M * col_j = e_j.
        let mut e = BitVec::zeros(k);
        e.set(j, true);
        let col = m
            .solve(&e)
            .expect("logical pairing matrix must be invertible");
        // Row j of new L_Z is sum_i col[i] * L_Z[i]  (since A[j][i] = A^T[i][j] = col[i]).
        let mut row = BitVec::zeros(n);
        for i in col.ones() {
            row.xor_assign_with(lz.row(i));
        }
        new_lz_rows.push(row);
    }
    let lz = BitMatrix::from_rows(new_lz_rows, n);
    Ok((lx, lz))
}

/// Returns `k` logical operators of one kind: elements of `ker(opposite_checks)` that are
/// independent modulo `rowspace(same_checks)`.
fn logicals_one_kind(opposite_checks: &BitMatrix, same_checks: &BitMatrix, k: usize) -> BitMatrix {
    let n = opposite_checks.num_cols();
    let kernel = opposite_checks.kernel_basis();
    let mut picked: Vec<BitVec> = Vec::with_capacity(k);
    let mut span = same_checks.clone();
    let mut span_rank = span.rank();
    for row in kernel.rows_iter() {
        if picked.len() == k {
            break;
        }
        let mut candidate_span = span.clone();
        candidate_span.push_row(row.clone());
        let r = candidate_span.rank();
        if r > span_rank {
            picked.push(row.clone());
            span = candidate_span;
            span_rank = r;
        }
    }
    assert_eq!(
        picked.len(),
        k,
        "failed to find a full logical basis; code matrices are inconsistent"
    );
    BitMatrix::from_rows(picked, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_gf2::BitMatrix;

    /// The paper's explicit d=3 rotated surface code matrices (Section 2.2).
    fn paper_d3_matrices() -> (BitMatrix, BitMatrix) {
        let hx = BitMatrix::from_rows_u8(&[
            &[1, 1, 0, 1, 1, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 0, 1, 1],
            &[0, 0, 0, 1, 0, 0, 1, 0, 0],
            &[0, 0, 1, 0, 0, 1, 0, 0, 0],
        ]);
        let hz = BitMatrix::from_rows_u8(&[
            &[0, 1, 1, 0, 1, 1, 0, 0, 0],
            &[0, 0, 0, 1, 1, 0, 1, 1, 0],
            &[1, 1, 0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0, 1, 1],
        ]);
        (hx, hz)
    }

    #[test]
    fn paper_d3_code_has_expected_parameters() {
        let (hx, hz) = paper_d3_matrices();
        let code = CssCode::new("paper_d3", hx, hz).unwrap();
        assert_eq!(code.n(), 9);
        assert_eq!(code.k(), 1);
        assert_eq!(code.num_stabilizers(), 8);
        assert_eq!(code.max_stabilizer_weight(), 4);
    }

    #[test]
    fn paper_d3_correctable_and_uncorrectable_examples() {
        // Reproduces the worked examples of Section 2.5. The paper's 1-indexed "qubit 5"
        // is our index 4; for the undetected pattern we use the middle row {3, 4, 5},
        // which is a minimum-weight logical X representative for these matrices.
        let (hx, hz) = paper_d3_matrices();
        let lx = BitMatrix::from_rows_u8(&[&[0, 0, 0, 1, 1, 1, 0, 0, 0]]);
        let lz = BitMatrix::from_rows_u8(&[&[0, 1, 0, 0, 1, 0, 0, 1, 0]]);
        let code = CssCode::new("paper_d3", hx, hz)
            .unwrap()
            .with_logicals(lx, lz)
            .unwrap();

        let single = BitVec::from_indices(9, &[4]);
        assert_eq!(
            code.syndrome_of_x_errors(&single)
                .ones()
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(code.x_errors_flip_logical(&single));

        let undetected = BitVec::from_indices(9, &[3, 4, 5]);
        assert!(code.syndrome_of_x_errors(&undetected).is_zero());
        assert!(code.x_errors_flip_logical(&undetected));
    }

    #[test]
    fn logical_operators_commute_with_stabilizers_and_pair() {
        let (hx, hz) = paper_d3_matrices();
        let code = CssCode::new("paper_d3", hx, hz).unwrap();
        // L_X commutes with H_Z, L_Z with H_X.
        assert!(code.hz().mul(&code.lx().transpose()).unwrap().is_zero());
        assert!(code.hx().mul(&code.lz().transpose()).unwrap().is_zero());
        // Symplectic pairing is the identity.
        let pairing = code.lx().mul(&code.lz().transpose()).unwrap();
        assert_eq!(pairing, BitMatrix::identity(code.k()));
        // Logicals are not stabilizers.
        for row in code.lx().rows_iter() {
            assert!(!code.hx().row_space_contains(row));
        }
        for row in code.lz().rows_iter() {
            assert!(!code.hz().row_space_contains(row));
        }
    }

    #[test]
    fn rejects_noncommuting_matrices() {
        let hx = BitMatrix::from_rows_u8(&[&[1, 1, 0]]);
        let hz = BitMatrix::from_rows_u8(&[&[1, 0, 0]]);
        assert_eq!(
            CssCode::new("bad", hx, hz).unwrap_err(),
            CssCodeError::StabilizersDoNotCommute
        );
    }

    #[test]
    fn rejects_mismatched_qubit_counts() {
        let hx = BitMatrix::from_rows_u8(&[&[1, 1]]);
        let hz = BitMatrix::from_rows_u8(&[&[1, 1, 0]]);
        assert!(matches!(
            CssCode::new("bad", hx, hz),
            Err(CssCodeError::QubitCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_zero_logical_qubits() {
        // Two qubits fully constrained by one X and one Z stabilizer leave k = 0.
        let hx = BitMatrix::from_rows_u8(&[&[1, 1]]);
        let hz = BitMatrix::from_rows_u8(&[&[1, 1]]);
        assert_eq!(
            CssCode::new("bad", hx, hz).unwrap_err(),
            CssCodeError::NoLogicalQubits
        );
    }

    #[test]
    fn qubit_stabilizers_is_tanner_adjacency() {
        let (hx, hz) = paper_d3_matrices();
        let code = CssCode::new("paper_d3", hx, hz).unwrap();
        let adj = code.qubit_stabilizers();
        assert_eq!(adj.len(), 9);
        // Central qubit (index 4) touches 2 X and 2 Z stabilizers.
        let central = &adj[4];
        assert_eq!(central.len(), 4);
        assert_eq!(
            central
                .iter()
                .filter(|(k, _)| *k == StabilizerKind::X)
                .count(),
            2
        );
        // Shared qubits between X stabilizer 0 and Z stabilizer 0 are {1, 4}.
        assert_eq!(code.shared_qubits(0, 0), vec![1, 4]);
    }

    #[test]
    fn with_logicals_rejects_invalid_choices() {
        let (hx, hz) = paper_d3_matrices();
        let code = CssCode::new("paper_d3", hx, hz).unwrap();
        // A stabilizer row is not a valid logical operator.
        let bad_lx = BitMatrix::from_rows_u8(&[&[1, 1, 0, 1, 1, 0, 0, 0, 0]]);
        let lz = code.lz().clone();
        assert!(code.clone().with_logicals(bad_lx, lz).is_err());
    }

    #[test]
    fn display_and_debug_mention_parameters() {
        let (hx, hz) = paper_d3_matrices();
        let code = CssCode::with_known_distance("paper_d3", hx, hz, 3).unwrap();
        assert_eq!(format!("{code}"), "paper_d3 [[9,1,3]]");
        assert!(format!("{code:?}").contains("k: 1"));
    }

    #[test]
    fn stabilizer_kind_opposite_and_display() {
        assert_eq!(StabilizerKind::X.opposite(), StabilizerKind::Z);
        assert_eq!(StabilizerKind::Z.opposite(), StabilizerKind::X);
        assert_eq!(format!("{}", StabilizerKind::X), "X");
    }

    use prophunt_gf2::BitVec;
}
