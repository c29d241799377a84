//! Detector error models: every circuit fault mapped to the detectors and logical
//! observables it flips — the circuit-level check matrix `H` and observable matrix `L` —
//! plus Monte-Carlo sampling.
//!
//! This is the circuit-level model of the paper's Section 2.7: each elementary fault the
//! noise model can inject is recorded by the set of detectors and logical observables it
//! flips under the Pauli propagation rules of Figure 3b. Faults with identical signatures
//! are merged into a single *error mechanism* with a combined probability. The resulting
//! bipartite structure (error mechanisms vs. detectors) is exactly the decoding graph
//! PropHunt's ambiguity analysis walks over.
//!
//! Signatures come from one *backward* sweep over the circuit (Stim's backward error
//! analysis), not from propagating each fault forward. Every detector and observable owns
//! one bit of a `⌈(detectors + observables) / 64⌉`-word row, and each qubit carries two
//! rows: the detectors/observables that an `X` (resp. `Z`) on that qubit, at the current
//! sweep position, would flip. Walking the operations last to first, a CNOT, Hadamard,
//! reset or measurement updates those rows with a few word XORs, and a fault's signature
//! is the XOR of the rows its Pauli components select at its own position. A build costs
//! `O((operations + faults) · words)` instead of `O(faults · remaining circuit)`.
//!
//! The sweep is public as [`FaultSignatures`]: per-fault packed words, detector bits
//! first, then observable bits. [`DetectorErrorModel::from_faults`] is that sweep followed
//! by the merge into mechanisms; candidate verification in `prophunt` reads the
//! signatures directly, because it needs a few columns of a changed circuit's `H`/`L`,
//! not mechanism objects with their sources.

use crate::builder::MemoryExperiment;
use crate::noise::{Fault, NoiseModel, SparsePauli};
use crate::ops::Op;
use prophunt_gf2::{BitMatrix, BitVec};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// The circuit fault (or one of several merged faults) behind an [`ErrorMechanism`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSource {
    /// Moment index of the faulty operation.
    pub moment: usize,
    /// The operation the fault is attached to.
    pub op: Op,
    /// The injected Pauli error.
    pub error: SparsePauli,
}

/// One column of the detector error model: a set of detectors and observables flipped
/// together with some probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMechanism {
    /// Probability that this mechanism fires in one shot.
    pub probability: f64,
    /// Sorted detector indices flipped by the mechanism.
    pub detectors: Vec<usize>,
    /// Sorted observable indices flipped by the mechanism.
    pub observables: Vec<usize>,
    /// The circuit faults merged into this mechanism.
    pub sources: Vec<FaultSource>,
}

impl ErrorMechanism {
    /// Returns `true` if the mechanism flips at least one logical observable.
    pub fn flips_observable(&self) -> bool {
        !self.observables.is_empty()
    }
}

/// The detector error model of a noisy memory experiment.
///
/// Rows of [`DetectorErrorModel::h_matrix`] are detectors, columns are error mechanisms;
/// rows of [`DetectorErrorModel::l_matrix`] are logical observables.
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    errors: Vec<ErrorMechanism>,
    /// Flattened mechanism tables shared by every [`DemSampler`] over this
    /// model, built on first use: [`DetectorErrorModel::sampler`] is called
    /// once per Monte-Carlo *chunk*, so it must not copy the mechanism list.
    sampler_tables: std::sync::OnceLock<std::sync::Arc<SamplerTables>>,
}

impl DetectorErrorModel {
    /// Builds the detector error model of `experiment` under `noise` by enumerating every
    /// elementary fault and signing it with one backward sensitivity sweep.
    pub fn from_experiment(experiment: &MemoryExperiment, noise: &NoiseModel) -> Self {
        let faults = noise.enumerate_faults(&experiment.circuit);
        Self::from_faults(experiment, &faults)
    }

    /// Builds a detector error model from an explicit fault list (used by tests and by
    /// effective-distance analyses that want unit-probability faults).
    ///
    /// The faults are signed by one [`FaultSignatures`] sweep and then merged in list
    /// order, so mechanism order, source order and the probability-combination order
    /// follow `faults`: mechanism `i` is the `i`-th distinct nonzero signature in
    /// first-appearance order. Faults that flip nothing — including faults placed at a
    /// moment past the end of the circuit — are dropped.
    pub fn from_faults(experiment: &MemoryExperiment, faults: &[Fault]) -> Self {
        let signatures = FaultSignatures::new(experiment, faults);

        // Lookup-only index from signature to mechanism: never iterated.
        let mut merged: HashMap<&[u64], usize> = HashMap::new();
        let mut errors: Vec<ErrorMechanism> = Vec::new();
        for (fault, signature) in faults.iter().zip(signatures.iter()) {
            if signature.iter().all(|&w| w == 0) {
                continue;
            }
            let source = FaultSource {
                moment: fault.moment,
                op: fault.op,
                error: fault.error,
            };
            match merged.get(signature) {
                Some(&idx) => {
                    let mech = &mut errors[idx];
                    mech.probability = mech.probability * (1.0 - fault.probability)
                        + fault.probability * (1.0 - mech.probability);
                    mech.sources.push(source);
                }
                None => {
                    merged.insert(signature, errors.len());
                    let (detectors, observables) = signatures.split(signature);
                    errors.push(ErrorMechanism {
                        probability: fault.probability,
                        detectors,
                        observables,
                        sources: vec![source],
                    });
                }
            }
        }

        DetectorErrorModel {
            num_detectors: signatures.num_detectors(),
            num_observables: signatures.num_observables(),
            errors,
            sampler_tables: std::sync::OnceLock::new(),
        }
    }

    /// Rebuilds a detector error model from its serialized parts: detector/observable
    /// counts and an explicit mechanism list. This is the constructor behind the
    /// `prophunt-formats` `.dem` parser; mechanisms reconstructed from a file carry no
    /// [`FaultSource`]s (the file format does not record circuit provenance).
    ///
    /// Detector and observable index lists are sorted; mechanisms are kept in the given
    /// order and are *not* merged by signature.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CircuitError::InvalidErrorModel`] if any mechanism names a detector
    /// `>= num_detectors` or observable `>= num_observables`, repeats an index, or has a
    /// probability outside `[0, 1]`.
    pub fn from_parts(
        num_detectors: usize,
        num_observables: usize,
        mut errors: Vec<ErrorMechanism>,
    ) -> Result<Self, crate::CircuitError> {
        let invalid = |reason: String| crate::CircuitError::InvalidErrorModel { reason };
        for (i, err) in errors.iter_mut().enumerate() {
            if !(0.0..=1.0).contains(&err.probability) {
                return Err(invalid(format!(
                    "error mechanism {i} has probability {} outside [0, 1]",
                    err.probability
                )));
            }
            err.detectors.sort_unstable();
            err.observables.sort_unstable();
            if err.detectors.windows(2).any(|w| w[0] == w[1]) {
                return Err(invalid(format!("error mechanism {i} repeats a detector")));
            }
            if err.observables.windows(2).any(|w| w[0] == w[1]) {
                return Err(invalid(format!(
                    "error mechanism {i} repeats an observable"
                )));
            }
            if let Some(&d) = err.detectors.last() {
                if d >= num_detectors {
                    return Err(invalid(format!(
                        "error mechanism {i} flips detector {d} but the model has {num_detectors}"
                    )));
                }
            }
            if let Some(&o) = err.observables.last() {
                if o >= num_observables {
                    return Err(invalid(format!(
                        "error mechanism {i} flips observable {o} but the model has {num_observables}"
                    )));
                }
            }
        }
        Ok(DetectorErrorModel {
            num_detectors,
            num_observables,
            errors,
            sampler_tables: std::sync::OnceLock::new(),
        })
    }

    /// Returns `true` if `self` and `other` describe the same error distribution: equal
    /// detector/observable counts and, mechanism by mechanism *in order*, bit-identical
    /// probabilities and identical detector/observable signatures.
    ///
    /// Fault provenance ([`ErrorMechanism::sources`]) is deliberately ignored — it is
    /// what the `.dem` file format cannot carry, and it does not affect sampling or
    /// decoding. Two models equal under this predicate produce identical
    /// [`DemSampler`] streams for every seed.
    pub fn same_distribution(&self, other: &Self) -> bool {
        self.num_detectors == other.num_detectors
            && self.num_observables == other.num_observables
            && self.errors.len() == other.errors.len()
            && self.errors.iter().zip(other.errors.iter()).all(|(a, b)| {
                a.probability.to_bits() == b.probability.to_bits()
                    && a.detectors == b.detectors
                    && a.observables == b.observables
            })
    }

    /// Returns the number of detectors (rows of `H`).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Returns the number of logical observables (rows of `L`).
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Returns the number of distinct error mechanisms (columns of `H` and `L`).
    pub fn num_errors(&self) -> usize {
        self.errors.len()
    }

    /// Returns the error mechanisms.
    pub fn errors(&self) -> &[ErrorMechanism] {
        &self.errors
    }

    /// Returns error mechanism `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn error(&self, index: usize) -> &ErrorMechanism {
        &self.errors[index]
    }

    /// Returns the circuit-level check matrix `H` (detectors × error mechanisms).
    pub fn h_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.num_detectors, self.errors.len());
        for (col, err) in self.errors.iter().enumerate() {
            for &d in &err.detectors {
                m.set(d, col, true);
            }
        }
        m
    }

    /// Returns the circuit-level observable matrix `L` (observables × error mechanisms).
    pub fn l_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.num_observables, self.errors.len());
        for (col, err) in self.errors.iter().enumerate() {
            for &o in &err.observables {
                m.set(o, col, true);
            }
        }
        m
    }

    /// Returns, for each detector, the indices of error mechanisms that flip it — the
    /// adjacency used by subgraph expansion and by matching-style decoders.
    pub fn detector_to_errors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_detectors];
        for (col, err) in self.errors.iter().enumerate() {
            for &d in &err.detectors {
                out[d].push(col);
            }
        }
        out
    }

    /// Creates a Monte-Carlo sampler over this model with the given seed.
    ///
    /// The first call flattens the mechanism list into shared `SamplerTables`;
    /// every subsequent call is O(1) (an [`std::sync::Arc`] clone plus RNG
    /// seeding). The estimation engines create one sampler per chunk, so this
    /// must stay cheap.
    pub fn sampler(&self, seed: u64) -> DemSampler {
        let tables = self
            .sampler_tables
            .get_or_init(|| std::sync::Arc::new(SamplerTables::build(&self.errors)));
        DemSampler {
            tables: std::sync::Arc::clone(tables),
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// Every fault's detector/observable signature, from one backward sweep over the
/// circuit — the public form of the sweep behind [`DetectorErrorModel::from_faults`].
///
/// Fault `f` owns [`FaultSignatures::words`] words, in `faults` order: bit
/// `d < num_detectors` is detector `d`, bit `num_detectors + o` is observable `o`, and
/// the bits past the last observable are zero. Two faults belong to the same
/// [`ErrorMechanism`] exactly when their signatures are equal and nonzero. Callers that read only a few columns of a changed circuit's `H`/`L`
/// (candidate verification) sign the faults and skip the merge.
///
/// The sweep keeps, per qubit, the rows `sx[q]` / `sz[q]` of detectors and observables
/// that an `X` / `Z` on `q` would flip from the current position on, and walks the
/// moments last to first and each moment's operations in reverse list order:
///
/// - `CNOT(c, t)`: `sx[c] ^= sx[t]`, `sz[t] ^= sz[c]` (an `X` on the control spreads to
///   the target, a `Z` on the target spreads to the control);
/// - `H(q)`: swap `sx[q]` and `sz[q]`;
/// - a reset clears both rows of its qubit;
/// - `MeasureZ(q)` / `MeasureX(q)` XOR the measurement's detector/observable bits into
///   `sx[q]` / `sz[q]`.
///
/// A fault sits at position `min(op_index (+1 unless pre-op), moment length)` of its
/// moment — the first operation it passes through — and its signature is the XOR of
/// `sx[q]` over its `X` components and `sz[q]` over its `Z` components at that position.
/// Faults are bucketed by position with a counting sort, so the fault list may come in
/// any order; a fault at a moment past the end of the circuit keeps an all-zero
/// signature. A sweep costs `O((operations + faults) · words)`.
#[derive(Debug, Clone)]
pub struct FaultSignatures {
    num_detectors: usize,
    num_observables: usize,
    words: usize,
    bits: Vec<u64>,
}

impl FaultSignatures {
    /// Signs every fault of `faults` against the detectors and observables of
    /// `experiment` with one backward sweep.
    pub fn new(experiment: &MemoryExperiment, faults: &[Fault]) -> Self {
        let num_detectors = experiment.num_detectors();
        let num_observables = experiment.num_observables();
        let words = (num_detectors + num_observables).div_ceil(64).max(1);
        FaultSignatures {
            num_detectors,
            num_observables,
            words,
            bits: sweep(experiment, faults, words),
        }
    }

    /// Returns the number of detectors (the low bits of each signature).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Returns the number of logical observables (the bits after the detectors).
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Returns the number of `u64` words per signature.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Returns the signature of fault `fault` (its index in the signed list).
    ///
    /// # Panics
    ///
    /// Panics if `fault` is out of range.
    pub fn get(&self, fault: usize) -> &[u64] {
        &self.bits[fault * self.words..(fault + 1) * self.words]
    }

    /// Iterates over the signatures in fault order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.bits.chunks_exact(self.words)
    }

    /// Splits a signature of this layout — one of [`FaultSignatures::get`], or an XOR
    /// of several — into its sorted detector and observable indices.
    pub fn split(&self, signature: &[u64]) -> (Vec<usize>, Vec<usize>) {
        let mut detectors = Vec::new();
        let mut observables = Vec::new();
        for (k, &word) in signature.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = k * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if bit < self.num_detectors {
                    detectors.push(bit);
                } else {
                    observables.push(bit - self.num_detectors);
                }
            }
        }
        (detectors, observables)
    }
}

/// The backward sweep of [`FaultSignatures`]: `words` words per fault, in `faults`
/// order.
fn sweep(experiment: &MemoryExperiment, faults: &[Fault], words: usize) -> Vec<u64> {
    let circuit = &experiment.circuit;
    let num_detectors = experiment.num_detectors();

    // Signature bits each measurement feeds (its detectors, then its observables).
    let mut meas_bits: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_measurements()];
    for (d, members) in experiment.detectors.iter().enumerate() {
        for &m in members {
            meas_bits[m].push(d);
        }
    }
    for (o, members) in experiment.observables.iter().enumerate() {
        for &m in members {
            meas_bits[m].push(num_detectors + o);
        }
    }

    // Sweep positions: moment `m` owns positions `first[m] + s` for `s` in `0..=len`,
    // where `s` is "just before operation `s`" and `len` is "end of moment".
    let mut first = Vec::with_capacity(circuit.num_moments());
    let mut num_positions = 0;
    for ops in circuit.moments() {
        first.push(num_positions);
        num_positions += ops.len() + 1;
    }
    let position = |fault: &Fault| -> Option<usize> {
        if fault.moment >= circuit.num_moments() {
            return None;
        }
        let len = circuit.moment(fault.moment).len();
        let s = if fault.pre_op {
            fault.op_index
        } else {
            fault.op_index.saturating_add(1)
        };
        Some(first[fault.moment] + s.min(len))
    };

    // Counting sort of fault indices by position.
    let positions: Vec<Option<usize>> = faults.iter().map(position).collect();
    let mut bucket_start = vec![0usize; num_positions + 1];
    for &p in positions.iter().flatten() {
        bucket_start[p + 1] += 1;
    }
    for p in 0..num_positions {
        bucket_start[p + 1] += bucket_start[p];
    }
    let mut next = bucket_start.clone();
    let mut by_position = vec![0usize; bucket_start[num_positions]];
    for (f, &p) in positions.iter().enumerate() {
        if let Some(p) = p {
            by_position[next[p]] = f;
            next[p] += 1;
        }
    }

    let num_qubits = circuit.num_qubits();
    let row = |q: usize| q * words..(q + 1) * words;
    let mut sx = vec![0u64; num_qubits * words];
    let mut sz = vec![0u64; num_qubits * words];
    let mut signatures = vec![0u64; faults.len() * words];
    let mut meas = circuit.num_measurements();
    for m in (0..circuit.num_moments()).rev() {
        let ops = circuit.moment(m);
        for s in (0..=ops.len()).rev() {
            let p = first[m] + s;
            for &f in &by_position[bucket_start[p]..bucket_start[p + 1]] {
                let signature = &mut signatures[f * words..(f + 1) * words];
                for &(q, pauli) in faults[f].error.iter() {
                    if pauli.has_x() {
                        xor_into(signature, &sx[row(q)]);
                    }
                    if pauli.has_z() {
                        xor_into(signature, &sz[row(q)]);
                    }
                }
            }
            let Some(op) = s.checked_sub(1).map(|i| ops[i]) else {
                continue;
            };
            match op {
                Op::Cnot(c, t) => {
                    xor_row(&mut sx, c, t, words);
                    xor_row(&mut sz, t, c, words);
                }
                Op::H(q) => sx[row(q)].swap_with_slice(&mut sz[row(q)]),
                Op::ResetZ(q) | Op::ResetX(q) => {
                    sx[row(q)].fill(0);
                    sz[row(q)].fill(0);
                }
                Op::MeasureZ(q) | Op::MeasureX(q) => {
                    meas -= 1;
                    let rows = if matches!(op, Op::MeasureZ(_)) {
                        &mut sx
                    } else {
                        &mut sz
                    };
                    for &b in &meas_bits[meas] {
                        rows[q * words + b / 64] ^= 1 << (b % 64);
                    }
                }
            }
        }
    }
    signatures
}

/// `dst ^= src`, word by word.
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `rows[dst] ^= rows[src]` for `words`-word rows of one flat buffer.
fn xor_row(rows: &mut [u64], dst: usize, src: usize, words: usize) {
    for k in 0..words {
        rows[dst * words + k] ^= rows[src * words + k];
    }
}

/// The mechanism list of a [`DetectorErrorModel`] flattened into CSR-style
/// arrays for sampling: per-mechanism probability plus the concatenated
/// detector and observable signatures. Built once per model and shared by all
/// its samplers.
#[derive(Debug)]
struct SamplerTables {
    probabilities: Vec<f64>,
    det_offsets: Vec<u32>,
    det_indices: Vec<u32>,
    obs_offsets: Vec<u32>,
    obs_indices: Vec<u32>,
    /// Mechanisms grouped by bit-identical probability, for the frame engine's
    /// grouped sampling paths (frame XORs commute, so sampling mechanisms in
    /// group order draws the same per-mechanism law as mechanism order).
    groups: Vec<SampleGroup>,
}

/// A set of mechanisms sharing one probability, with the sampling strategy the
/// frame engine uses for it.
#[derive(Debug)]
struct SampleGroup {
    probability: f64,
    /// `1 / ln(1 - p)` for the geometric-skip path, chosen for rare
    /// mechanisms; `None` selects the per-mechanism Bernoulli-word path.
    inv_ln_q: Option<f64>,
    /// Mechanism indices, ascending.
    mechs: Vec<u32>,
}

/// Below this probability the frame engine samples a group by geometric
/// skipping over (mechanism, lane) trials — expected cost proportional to the
/// number of *fired* events — instead of drawing a Bernoulli word per
/// mechanism.
const GEOMETRIC_SKIP_MAX_P: f64 = 0.02;

impl SamplerTables {
    fn build(errors: &[ErrorMechanism]) -> Self {
        let mut tables = SamplerTables {
            probabilities: Vec::with_capacity(errors.len()),
            det_offsets: Vec::with_capacity(errors.len() + 1),
            det_indices: Vec::new(),
            obs_offsets: Vec::with_capacity(errors.len() + 1),
            obs_indices: Vec::new(),
            groups: Vec::new(),
        };
        tables.det_offsets.push(0);
        tables.obs_offsets.push(0);
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        for (i, err) in errors.iter().enumerate() {
            let p = err.probability;
            tables.probabilities.push(p);
            for &d in &err.detectors {
                tables
                    .det_indices
                    .push(u32::try_from(d).expect("detector index fits u32"));
            }
            for &o in &err.observables {
                tables
                    .obs_indices
                    .push(u32::try_from(o).expect("observable index fits u32"));
            }
            tables.det_offsets.push(tables.det_indices.len() as u32);
            tables.obs_offsets.push(tables.obs_indices.len() as u32);
            if p <= 0.0 {
                // Never fires; keep it out of the frame path entirely.
                continue;
            }
            let gi = *group_of.entry(p.to_bits()).or_insert_with(|| {
                let inv_ln_q = (p < GEOMETRIC_SKIP_MAX_P).then(|| (1.0 - p).ln().recip());
                tables.groups.push(SampleGroup {
                    probability: p,
                    inv_ln_q,
                    mechs: Vec::new(),
                });
                tables.groups.len() - 1
            });
            tables.groups[gi]
                .mechs
                .push(u32::try_from(i).expect("mechanism index fits u32"));
        }
        tables
    }

    fn detectors(&self, i: usize) -> &[u32] {
        &self.det_indices[self.det_offsets[i] as usize..self.det_offsets[i + 1] as usize]
    }

    fn observables(&self, i: usize) -> &[u32] {
        &self.obs_indices[self.obs_offsets[i] as usize..self.obs_offsets[i + 1] as usize]
    }
}

/// Samples detector/observable outcomes from a [`DetectorErrorModel`].
///
/// Sampling happens directly in detector space: each error mechanism fires independently
/// with its probability and XORs its detector and observable signature into the shot,
/// which is equivalent to Pauli-frame simulation of the underlying circuit noise.
#[derive(Debug, Clone)]
pub struct DemSampler {
    tables: std::sync::Arc<SamplerTables>,
    num_detectors: usize,
    num_observables: usize,
    rng: SmallRng,
}

impl DemSampler {
    /// Samples one shot, returning `(detector outcomes, observable flips)`.
    pub fn sample(&mut self) -> (BitVec, BitVec) {
        let mut dets = BitVec::zeros(self.num_detectors);
        let mut obs = BitVec::zeros(self.num_observables);
        let tables = &self.tables;
        for (i, &p) in tables.probabilities.iter().enumerate() {
            if self.rng.gen_bool(p) {
                for &d in tables.detectors(i) {
                    dets.flip(d as usize);
                }
                for &o in tables.observables(i) {
                    obs.flip(o as usize);
                }
            }
        }
        (dets, obs)
    }

    /// Samples up to 64 shots at once into detector-major *frame* buffers: bit
    /// `lane` of `det_frames[d]` (resp. `obs_frames[o]`) is detector `d`
    /// (observable `o`) of shot-lane `lane`.
    ///
    /// This is the bit-parallel sampling kernel of the frame engine.
    /// Mechanisms are visited grouped by probability (frame XORs commute, so
    /// the sampled law is unchanged by the reordering), and each group uses the
    /// cheaper of two strategies:
    ///
    /// - *rare* groups (`p < GEOMETRIC_SKIP_MAX_P`) geometrically skip
    ///   across the group's (mechanism, lane) trial sequence, so the expected
    ///   cost is proportional to the number of events that actually *fire*
    ///   rather than to the mechanism count;
    /// - the remaining groups draw a fired-lane *word* per mechanism — one
    ///   exact `Bernoulli(p)` bit per lane in expected `~log2(lanes)` RNG
    ///   draws, by comparing each lane's implicit uniform variate against the
    ///   binary expansion of `p`.
    ///
    /// Fired events XOR the mechanism's detector and observable signature into
    /// the fired lanes. The RNG stream is therefore laid out group- and
    /// mechanism-major, unlike the shot-major stream of [`DemSampler::sample`]
    /// — each layout is deterministic per seed, but the two engines produce
    /// different (equally valid) shot sequences.
    ///
    /// The frame buffers are cleared before sampling; lanes `>= lanes` stay
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64, or if the buffer lengths
    /// differ from `num_detectors` / `num_observables`.
    pub fn sample_frames(&mut self, lanes: usize, det_frames: &mut [u64], obs_frames: &mut [u64]) {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        assert_eq!(det_frames.len(), self.num_detectors, "detector frame rows");
        assert_eq!(
            obs_frames.len(),
            self.num_observables,
            "observable frame rows"
        );
        det_frames.fill(0);
        obs_frames.fill(0);
        let lane_mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let tables = &self.tables;
        for group in &tables.groups {
            if let Some(inv_ln_q) = group.inv_ln_q {
                // Geometric skipping: trial index t runs mechanism-major over
                // the group's (mechanism, lane) pairs; each skip length is the
                // number of non-firing trials before the next firing one.
                let total = group.mechs.len() as u64 * lanes as u64;
                let mut t = 0u64;
                loop {
                    // 53 high bits -> uniform f64 in (0, 1].
                    let u =
                        1.0 - ((self.rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                    t = t.saturating_add((u.ln() * inv_ln_q) as u64);
                    if t >= total {
                        break;
                    }
                    let mech = group.mechs[t as usize / lanes] as usize;
                    let fired = 1u64 << (t as usize % lanes);
                    for &d in tables.detectors(mech) {
                        det_frames[d as usize] ^= fired;
                    }
                    for &o in tables.observables(mech) {
                        obs_frames[o as usize] ^= fired;
                    }
                    t += 1;
                }
            } else {
                for &mech in &group.mechs {
                    let fired = bernoulli_word(&mut self.rng, group.probability, lane_mask);
                    if fired != 0 {
                        for &d in tables.detectors(mech as usize) {
                            det_frames[d as usize] ^= fired;
                        }
                        for &o in tables.observables(mech as usize) {
                            obs_frames[o as usize] ^= fired;
                        }
                    }
                }
            }
        }
    }

    /// Returns the number of detectors per shot.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Returns the number of observables per shot.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }
}

/// Draws a word of independent exact `Bernoulli(p)` bits, one per set bit of
/// `lane_mask` (clear lanes stay 0).
///
/// Each lane conceptually holds a uniform variate `U` built from the lane's
/// bits of successive `u64` draws (most significant first) and fires iff
/// `U < p`. Scanning the binary expansion of `p` one bit at a time decides
/// every lane as soon as its `U` prefix differs from the prefix of `p`:
/// each round halves the undecided set in expectation, so the expected number
/// of draws is `~log2(lanes) + 2` regardless of `p`. Every `f64` in `[0, 1)`
/// is dyadic, so lanes still undecided when the expansion is exhausted have
/// `U >= p` and do not fire — the per-lane law is *exactly* `Bernoulli(p)`,
/// not an approximation.
fn bernoulli_word(rng: &mut SmallRng, p: f64, lane_mask: u64) -> u64 {
    if p >= 1.0 {
        return lane_mask;
    }
    let mut fired = 0u64;
    let mut undecided = lane_mask;
    // Remaining binary expansion of p: doubling and subtracting 1 are exact
    // on f64, so the bits come out unrounded.
    let mut rest = p;
    while rest > 0.0 && undecided != 0 {
        let draw = rng.next_u64();
        rest *= 2.0;
        if rest >= 1.0 {
            // p-bit 1: lanes whose U-bit is 0 have U < p.
            rest -= 1.0;
            fired |= undecided & !draw;
            undecided &= draw;
        } else {
            // p-bit 0: lanes whose U-bit is 1 have U > p.
            undecided &= !draw;
        }
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MemoryBasis, MemoryExperiment};
    use crate::noise::Pauli;
    use crate::schedule::ScheduleSpec;
    use prophunt_qec::small::quantum_repetition_code;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use prophunt_qec::StabilizerKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use std::collections::BTreeMap;

    /// The forward propagator `from_faults` used before the backward sweep: each
    /// fault is injected into a one-bool-per-qubit Pauli frame and pushed through
    /// the rest of the circuit. Kept as the equivalence oracle.
    fn forward_oracle(experiment: &MemoryExperiment, faults: &[Fault]) -> Vec<ErrorMechanism> {
        let circuit = &experiment.circuit;
        let num_qubits = circuit.num_qubits();

        let mut meas_index: Vec<Vec<usize>> = Vec::with_capacity(circuit.num_moments());
        let mut counter = 0usize;
        for moment in circuit.moments() {
            let mut row = Vec::with_capacity(moment.len());
            for op in moment {
                if op.is_measurement() {
                    row.push(counter);
                    counter += 1;
                } else {
                    row.push(usize::MAX);
                }
            }
            meas_index.push(row);
        }
        let mut meas_to_detectors: Vec<Vec<usize>> = vec![Vec::new(); counter];
        for (d, members) in experiment.detectors.iter().enumerate() {
            for &m in members {
                meas_to_detectors[m].push(d);
            }
        }
        let mut meas_to_observables: Vec<Vec<usize>> = vec![Vec::new(); counter];
        for (o, members) in experiment.observables.iter().enumerate() {
            for &m in members {
                meas_to_observables[m].push(o);
            }
        }

        let mut frame_x = vec![false; num_qubits];
        let mut frame_z = vec![false; num_qubits];
        let mut touched: Vec<usize> = Vec::new();
        let mut merged: HashMap<(Vec<usize>, Vec<usize>), usize> = HashMap::new();
        let mut errors: Vec<ErrorMechanism> = Vec::new();
        for fault in faults {
            for &(q, pauli) in fault.error.iter() {
                if pauli.has_x() {
                    frame_x[q] = !frame_x[q];
                }
                if pauli.has_z() {
                    frame_z[q] = !frame_z[q];
                }
                touched.push(q);
            }
            let mut flipped_meas: Vec<usize> = Vec::new();
            let start_op = if fault.pre_op {
                fault.op_index
            } else {
                fault.op_index.saturating_add(1)
            };
            for mi in fault.moment..circuit.num_moments() {
                let ops = circuit.moment(mi);
                let first = if mi == fault.moment {
                    start_op.min(ops.len())
                } else {
                    0
                };
                for (oi, op) in ops.iter().enumerate().skip(first) {
                    match *op {
                        Op::Cnot(c, t) => {
                            if frame_x[c] {
                                frame_x[t] = !frame_x[t];
                                touched.push(t);
                            }
                            if frame_z[t] {
                                frame_z[c] = !frame_z[c];
                                touched.push(c);
                            }
                        }
                        Op::H(q) => {
                            let (x, z) = (frame_x[q], frame_z[q]);
                            frame_x[q] = z;
                            frame_z[q] = x;
                        }
                        Op::ResetZ(q) | Op::ResetX(q) => {
                            frame_x[q] = false;
                            frame_z[q] = false;
                        }
                        Op::MeasureZ(q) => {
                            if frame_x[q] {
                                flipped_meas.push(meas_index[mi][oi]);
                            }
                        }
                        Op::MeasureX(q) => {
                            if frame_z[q] {
                                flipped_meas.push(meas_index[mi][oi]);
                            }
                        }
                    }
                }
            }
            for &q in &touched {
                frame_x[q] = false;
                frame_z[q] = false;
            }
            touched.clear();

            let mut det_parity: BTreeMap<usize, bool> = BTreeMap::new();
            let mut obs_parity: BTreeMap<usize, bool> = BTreeMap::new();
            for &m in &flipped_meas {
                for &d in &meas_to_detectors[m] {
                    *det_parity.entry(d).or_insert(false) ^= true;
                }
                for &o in &meas_to_observables[m] {
                    *obs_parity.entry(o).or_insert(false) ^= true;
                }
            }
            let detectors: Vec<usize> = det_parity
                .into_iter()
                .filter_map(|(d, on)| on.then_some(d))
                .collect();
            let observables: Vec<usize> = obs_parity
                .into_iter()
                .filter_map(|(o, on)| on.then_some(o))
                .collect();
            if detectors.is_empty() && observables.is_empty() {
                continue;
            }
            let source = FaultSource {
                moment: fault.moment,
                op: fault.op,
                error: fault.error,
            };
            let key = (detectors.clone(), observables.clone());
            match merged.get(&key) {
                Some(&idx) => {
                    let mech = &mut errors[idx];
                    mech.probability = mech.probability * (1.0 - fault.probability)
                        + fault.probability * (1.0 - mech.probability);
                    mech.sources.push(source);
                }
                None => {
                    merged.insert(key, errors.len());
                    errors.push(ErrorMechanism {
                        probability: fault.probability,
                        detectors,
                        observables,
                        sources: vec![source],
                    });
                }
            }
        }
        errors
    }

    /// Asserts `dem` equals the oracle mechanism for mechanism: signatures,
    /// sources and probability bits.
    fn assert_matches_oracle(dem: &DetectorErrorModel, oracle: &[ErrorMechanism]) {
        assert_eq!(dem.num_errors(), oracle.len(), "mechanism count");
        for (i, (got, want)) in dem.errors().iter().zip(oracle).enumerate() {
            assert_eq!(got, want, "mechanism {i}");
            assert_eq!(
                got.probability.to_bits(),
                want.probability.to_bits(),
                "mechanism {i} probability bits"
            );
        }
    }

    /// The same experiment with every X-basis reset and measurement compiled to
    /// a Z-basis one conjugated by Hadamards (the builder emits no `H`), so the
    /// sweep's Hadamard rule meets the oracle too.
    fn hadamard_compiled(exp: &MemoryExperiment) -> MemoryExperiment {
        let mut circuit = crate::ops::Circuit::new(exp.circuit.num_qubits());
        for ops in exp.circuit.moments() {
            let hadamards = |pick: fn(Op) -> Option<usize>| -> Vec<Op> {
                ops.iter().filter_map(|&op| pick(op)).map(Op::H).collect()
            };
            let before = hadamards(|op| match op {
                Op::MeasureX(q) => Some(q),
                _ => None,
            });
            let after = hadamards(|op| match op {
                Op::ResetX(q) => Some(q),
                _ => None,
            });
            if !before.is_empty() {
                circuit.push_moment(before);
            }
            circuit.push_moment(
                ops.iter()
                    .map(|&op| match op {
                        Op::ResetX(q) => Op::ResetZ(q),
                        Op::MeasureX(q) => Op::MeasureZ(q),
                        op => op,
                    })
                    .collect(),
            );
            if !after.is_empty() {
                circuit.push_moment(after);
            }
        }
        MemoryExperiment {
            circuit,
            ..exp.clone()
        }
    }

    /// Builds a model from the enumerated faults in list order, then from a
    /// shuffled list with faults past the last moment mixed in, and checks both
    /// against the forward oracle on the same list; then does the same for the
    /// Hadamard-compiled circuit.
    fn check_against_oracle(
        code: &prophunt_qec::CssCode,
        rounds: usize,
        basis: MemoryBasis,
        noise: &NoiseModel,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = ScheduleSpec::coloration_random(code, &mut rng);
        let exp = MemoryExperiment::build(code, &schedule, rounds, basis).unwrap();
        for exp in [hadamard_compiled(&exp), exp] {
            let mut faults = noise.enumerate_faults(&exp.circuit);
            let dem = DetectorErrorModel::from_faults(&exp, &faults);
            assert!(dem.num_errors() > 0);
            assert_matches_oracle(&dem, &forward_oracle(&exp, &faults));

            let end = exp.circuit.num_moments();
            let mut late = faults[0].clone();
            late.moment = end;
            faults.push(late.clone());
            late.moment = end + 3;
            late.pre_op = !late.pre_op;
            faults.push(late);
            faults.shuffle(&mut rng);
            let dem = DetectorErrorModel::from_faults(&exp, &faults);
            assert_matches_oracle(&dem, &forward_oracle(&exp, &faults));
        }
    }

    /// The three noise families of the equivalence property: uniform, SI1000
    /// (idle faults on) and a biased model whose zero-weight Paulis are skipped.
    fn oracle_noise(which: usize) -> NoiseModel {
        match which {
            0 => NoiseModel::uniform_depolarizing(1e-3),
            1 => NoiseModel::si1000(2e-3),
            _ => NoiseModel::biased(2e-3, 5.0).with_pauli_weights([1.0, 0.0, 10.0]),
        }
    }

    fn oracle_basis(z: bool) -> MemoryBasis {
        if z {
            MemoryBasis::Z
        } else {
            MemoryBasis::X
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn backward_sweep_matches_the_forward_oracle_on_small_codes(
            family in 0usize..3,
            rounds in 1usize..4,
            z in any::<bool>(),
            noise in 0usize..3,
            seed in any::<u64>(),
        ) {
            let code = match family {
                0 => rotated_surface_code_with_layout(3).0,
                1 => rotated_surface_code_with_layout(5).0,
                _ => quantum_repetition_code(5),
            };
            check_against_oracle(&code, rounds, oracle_basis(z), &oracle_noise(noise), seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn backward_sweep_matches_the_forward_oracle_on_gb_36_2(
            z in any::<bool>(),
            noise in 0usize..3,
            seed in any::<u64>(),
        ) {
            let code = prophunt_qec::product::generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2");
            check_against_oracle(&code, 2, oracle_basis(z), &oracle_noise(noise), seed);
        }
    }

    /// FNV-1a over every field of every mechanism, in order.
    fn model_fingerprint(dem: &DetectorErrorModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for err in dem.errors() {
            eat(err.probability.to_bits());
            eat(err.detectors.len() as u64);
            err.detectors.iter().for_each(|&d| eat(d as u64));
            eat(err.observables.len() as u64);
            err.observables.iter().for_each(|&o| eat(o as u64));
            eat(err.sources.len() as u64);
            for src in &err.sources {
                eat(src.moment as u64);
                let (tag, a, b) = match src.op {
                    Op::ResetZ(q) => (0, q, 0),
                    Op::ResetX(q) => (1, q, 0),
                    Op::H(q) => (2, q, 0),
                    Op::Cnot(c, t) => (3, c, t),
                    Op::MeasureZ(q) => (4, q, 0),
                    Op::MeasureX(q) => (5, q, 0),
                };
                eat(tag);
                eat(a as u64);
                eat(b as u64);
                eat(src.error.len() as u64);
                for &(q, p) in src.error.iter() {
                    eat(q as u64);
                    eat(u64::from(p.has_x()) | u64::from(p.has_z()) << 1);
                }
            }
        }
        h
    }

    #[test]
    fn gb_36_2_coloration_model_is_pinned() {
        // Mechanism counts and fingerprints recorded with the forward propagator:
        // any change to mechanism order, signatures, sources or probability bits
        // shows up here.
        let code = prophunt_qec::product::generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2");
        let schedule = ScheduleSpec::coloration(&code);
        let noise = NoiseModel::uniform_depolarizing(1e-3);
        for (basis, fingerprint) in [
            (MemoryBasis::Z, 0x3461_9e81_517a_88b6u64),
            (MemoryBasis::X, 0x86af_c899_cb5f_2a11),
        ] {
            let exp = MemoryExperiment::build(&code, &schedule, 3, basis).unwrap();
            let dem = DetectorErrorModel::from_experiment(&exp, &noise);
            assert_eq!(dem.num_errors(), 1836, "{basis:?} mechanism count");
            assert_eq!(
                model_fingerprint(&dem),
                fingerprint,
                "{basis:?} fingerprint"
            );
        }
    }

    #[test]
    fn mechanisms_are_the_distinct_nonzero_sweep_signatures_in_first_appearance_order() {
        // `from_faults` is the public sweep plus a merge: mechanism `i` must be the
        // `i`-th distinct nonzero signature, with every fault of that signature as a
        // source, in fault order. Idle-only noise gives many repeated signatures.
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_poor(&code, &layout);
        for noise in [
            NoiseModel::uniform_depolarizing(1e-3),
            NoiseModel::si1000(2e-3),
            NoiseModel::noiseless().with_idle(2e-3),
        ] {
            for basis in [MemoryBasis::Z, MemoryBasis::X] {
                let exp = MemoryExperiment::build(&code, &schedule, 3, basis).unwrap();
                let faults = noise.enumerate_faults(&exp.circuit);
                let signatures = FaultSignatures::new(&exp, &faults);
                assert_eq!(signatures.iter().len(), faults.len());
                let mut distinct: Vec<(&[u64], Vec<usize>)> = Vec::new();
                for (f, signature) in signatures.iter().enumerate() {
                    let (dets, obs) = signatures.split(signature);
                    assert!(obs.iter().all(|&o| o < signatures.num_observables()));
                    if dets.is_empty() && obs.is_empty() {
                        continue;
                    }
                    match distinct.iter_mut().find(|(s, _)| *s == signature) {
                        Some((_, members)) => members.push(f),
                        None => distinct.push((signature, vec![f])),
                    }
                }
                let dem = DetectorErrorModel::from_faults(&exp, &faults);
                assert_eq!(dem.num_errors(), distinct.len(), "{noise:?} {basis:?}");
                for (mech, (signature, members)) in dem.errors().iter().zip(&distinct) {
                    let (dets, obs) = signatures.split(signature);
                    assert_eq!((&mech.detectors, &mech.observables), (&dets, &obs));
                    let want: Vec<FaultSource> = members
                        .iter()
                        .map(|&f| FaultSource {
                            moment: faults[f].moment,
                            op: faults[f].op,
                            error: faults[f].error,
                        })
                        .collect();
                    assert_eq!(mech.sources, want);
                }
            }
        }
    }

    fn d3_experiment(rounds: usize) -> (prophunt_qec::CssCode, MemoryExperiment) {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, rounds, MemoryBasis::Z).unwrap();
        (code, exp)
    }

    #[test]
    fn noiseless_model_has_no_error_mechanisms() {
        let (_, exp) = d3_experiment(2);
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::noiseless());
        assert_eq!(dem.num_errors(), 0);
    }

    #[test]
    fn every_mechanism_flips_something_and_probabilities_are_sane() {
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        assert!(dem.num_errors() > 100);
        for err in dem.errors() {
            assert!(!err.detectors.is_empty() || !err.observables.is_empty());
            assert!(err.probability > 0.0 && err.probability < 0.1);
            assert!(!err.sources.is_empty());
            assert!(err.detectors.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn mechanism_index_sets_are_sorted_and_extraction_is_reproducible() {
        // The per-mechanism index sets come out of the ascending signature bit
        // scan in canonical order (no post-sort pass exists), and two independent
        // extractions must agree mechanism-for-mechanism.
        let (_, exp) = d3_experiment(3);
        let noise = NoiseModel::uniform_depolarizing(1e-3);
        let dem_a = DetectorErrorModel::from_experiment(&exp, &noise);
        let dem_b = DetectorErrorModel::from_experiment(&exp, &noise);
        assert_eq!(dem_a.num_errors(), dem_b.num_errors());
        for (a, b) in dem_a.errors().iter().zip(dem_b.errors()) {
            assert!(a.detectors.windows(2).all(|w| w[0] < w[1]));
            assert!(a.observables.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(a.detectors, b.detectors);
            assert_eq!(a.observables, b.observables);
            assert_eq!(a.probability, b.probability);
        }
    }

    #[test]
    fn initial_data_x_error_flips_round_zero_z_detectors_and_observable() {
        let (code, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // Find the mechanism sourced from an X error after the initial reset of data
        // qubit 4 (the central qubit, in the support of L_Z).
        let mech = dem
            .errors()
            .iter()
            .find(|e| {
                e.sources
                    .iter()
                    .any(|s| s.moment == 0 && s.op == Op::ResetZ(4) && *s.error == [(4, Pauli::X)])
            })
            .expect("central data qubit reset fault must appear in the DEM");
        // It flips the two round-0 detectors of the Z stabilizers containing qubit 4 and
        // the logical observable.
        assert_eq!(mech.detectors.len(), 2);
        for &d in &mech.detectors {
            let info = exp.detector_info[d];
            assert_eq!(info.round, 0);
            let (kind, index) = exp.schedule.kind_index(info.stabilizer);
            assert_eq!(kind, StabilizerKind::Z);
            assert!(code
                .stabilizer_support(StabilizerKind::Z, index)
                .contains(&4));
        }
        assert_eq!(mech.observables, vec![0]);
    }

    #[test]
    fn ancilla_measurement_flip_gives_time_pair() {
        let (_, exp) = d3_experiment(4);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // A measurement flip on a Z ancilla in a middle round flips exactly the two
        // detectors comparing that round to its neighbours, and no observable.
        let mech = dem
            .errors()
            .iter()
            .find(|e| {
                e.sources.iter().any(|s| {
                    matches!(s.op, Op::MeasureZ(q) if q >= 9)
                        && exp.round_of_moment(s.moment) == Some(1)
                        && s.error.len() == 1
                })
            })
            .expect("ancilla measurement flip must appear");
        assert_eq!(mech.detectors.len(), 2);
        assert!(mech.observables.is_empty());
        let rounds: Vec<usize> = mech
            .detectors
            .iter()
            .map(|&d| exp.detector_info[d].round)
            .collect();
        assert_eq!(rounds, vec![1, 2]);
    }

    #[test]
    fn h_and_l_matrices_have_matching_shapes() {
        let (_, exp) = d3_experiment(2);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-3));
        let h = dem.h_matrix();
        let l = dem.l_matrix();
        assert_eq!(h.num_rows(), exp.num_detectors());
        assert_eq!(h.num_cols(), dem.num_errors());
        assert_eq!(l.num_rows(), 1);
        assert_eq!(l.num_cols(), dem.num_errors());
        // detector_to_errors is the transpose adjacency of H.
        let adj = dem.detector_to_errors();
        for (d, errs) in adj.iter().enumerate() {
            for &e in errs {
                assert!(h.get(d, e));
            }
        }
    }

    #[test]
    fn no_single_mechanism_is_an_undetected_logical_error_for_good_schedule() {
        // With a valid schedule and d = 3, no single fault may flip the observable while
        // flipping no detector (that would mean d_eff = 1).
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        for err in dem.errors() {
            assert!(
                !(err.detectors.is_empty() && err.flips_observable()),
                "found an undetectable single-fault logical error: {err:?}"
            );
        }
    }

    #[test]
    fn repetition_code_dem_is_a_repetition_decoding_graph() {
        let code = quantum_repetition_code(5);
        let schedule = ScheduleSpec::coloration(&code);
        let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // Every mechanism flips at most 2 detectors (the decoding graph is matchable).
        for err in dem.errors() {
            assert!(
                err.detectors.len() <= 2,
                "repetition DEM must be graph-like: {err:?}"
            );
        }
    }

    #[test]
    fn sampler_is_deterministic_per_seed_and_zero_for_zero_noise() {
        let (_, exp) = d3_experiment(2);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(5e-3));
        let mut a = dem.sampler(42);
        let mut b = dem.sampler(42);
        for _ in 0..20 {
            assert_eq!(a.sample(), b.sample());
        }
        let noiseless = DetectorErrorModel::from_experiment(&exp, &NoiseModel::noiseless());
        let mut s = noiseless.sampler(1);
        let (d, o) = s.sample();
        assert!(d.is_zero() && o.is_zero());
    }

    #[test]
    fn sample_frames_is_deterministic_and_respects_lane_count() {
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-2));
        let mut det_a = vec![0u64; dem.num_detectors()];
        let mut obs_a = vec![0u64; dem.num_observables()];
        let mut det_b = det_a.clone();
        let mut obs_b = obs_a.clone();
        dem.sampler(7).sample_frames(64, &mut det_a, &mut obs_a);
        dem.sampler(7).sample_frames(64, &mut det_b, &mut obs_b);
        assert_eq!(det_a, det_b);
        assert_eq!(obs_a, obs_b);
        assert!(det_a.iter().any(|&w| w != 0), "noise must flip something");
        // A partial word leaves lanes >= `lanes` zero in every row.
        let mut det_c = vec![0u64; dem.num_detectors()];
        let mut obs_c = vec![0u64; dem.num_observables()];
        dem.sampler(7).sample_frames(5, &mut det_c, &mut obs_c);
        assert!(det_c.iter().chain(obs_c.iter()).all(|&w| w >> 5 == 0));
    }

    #[test]
    fn sample_frames_of_a_certain_mechanism_flips_its_signature_in_every_lane() {
        // A single mechanism with probability 1 must fire in every lane.
        let dem = DetectorErrorModel::from_parts(
            3,
            2,
            vec![ErrorMechanism {
                probability: 1.0,
                detectors: vec![0, 2],
                observables: vec![1],
                sources: Vec::new(),
            }],
        )
        .unwrap();
        let mut det = vec![0u64; 3];
        let mut obs = vec![0u64; 2];
        dem.sampler(0).sample_frames(64, &mut det, &mut obs);
        assert_eq!(det, vec![u64::MAX, 0, u64::MAX]);
        assert_eq!(obs, vec![0, u64::MAX]);
        dem.sampler(0).sample_frames(3, &mut det, &mut obs);
        assert_eq!(det, vec![0b111, 0, 0b111]);
        assert_eq!(obs, vec![0, 0b111]);
    }

    #[test]
    fn bernoulli_word_is_exact_at_the_endpoints_and_unbiased_in_between() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(bernoulli_word(&mut rng, 0.0, u64::MAX), 0);
        assert_eq!(bernoulli_word(&mut rng, 1.0, u64::MAX), u64::MAX);
        assert_eq!(bernoulli_word(&mut rng, 1.0, 0b101), 0b101);
        // Clear lanes of the mask never fire.
        for _ in 0..100 {
            assert_eq!(bernoulli_word(&mut rng, 0.7, 0b1111) & !0b1111, 0);
        }
        // Empirical rate over many words tracks p to a few standard errors.
        for p in [0.001, 0.25, 0.5, 0.9] {
            let words = 4000usize;
            let ones: u32 = (0..words)
                .map(|_| bernoulli_word(&mut rng, p, u64::MAX).count_ones())
                .sum();
            let n = (words * 64) as f64;
            let rate = f64::from(ones) / n;
            let sigma = (p * (1.0 - p) / n).sqrt();
            assert!(
                (rate - p).abs() < 6.0 * sigma.max(1e-5),
                "p = {p}: empirical rate {rate} too far off"
            );
        }
    }

    #[test]
    fn frame_sampling_matches_scalar_sampling_statistics() {
        // The two engines draw different streams (and the frame path mixes
        // geometric skipping with Bernoulli words), but the per-shot law is the
        // same — so the mean number of flipped detectors must agree.
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-2));
        let shots = 6400;
        let mut sampler = dem.sampler(13);
        let mut scalar_flips = 0usize;
        for _ in 0..shots {
            let (d, _) = sampler.sample();
            scalar_flips += d.weight();
        }
        let mut sampler = dem.sampler(99);
        let mut det = vec![0u64; dem.num_detectors()];
        let mut obs = vec![0u64; dem.num_observables()];
        let mut frame_flips = 0usize;
        for _ in 0..shots / 64 {
            sampler.sample_frames(64, &mut det, &mut obs);
            frame_flips += det.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
        let scalar_mean = scalar_flips as f64 / shots as f64;
        let frame_mean = frame_flips as f64 / shots as f64;
        assert!(
            (scalar_mean - frame_mean).abs() < 0.1 * scalar_mean,
            "scalar mean {scalar_mean} vs frame mean {frame_mean}"
        );
    }

    #[test]
    fn sampled_detector_rate_tracks_physical_error_rate() {
        let (_, exp) = d3_experiment(3);
        let p = 2e-2;
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p));
        let mut sampler = dem.sampler(7);
        let shots = 500;
        let mut flips = 0usize;
        for _ in 0..shots {
            let (d, _) = sampler.sample();
            flips += d.weight();
        }
        let mean = flips as f64 / shots as f64;
        // The expected number of flipped detectors per shot is of order
        // (total error probability); just check it is clearly nonzero and bounded.
        assert!(mean > 0.5 && mean < 50.0, "mean flipped detectors {mean}");
    }
}
