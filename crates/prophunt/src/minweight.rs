//! Minimum-weight logical errors of ambiguous subgraphs (paper Section 5.2 and
//! Table 2), of whole decoding graphs and of codes.
//!
//! PropHunt asks one question of every ambiguous subgraph: find `e` with
//! `H_sub e = 0`, `L_sub e ≠ 0` and minimum weight. The paper answers it with
//! MaxSAT. [`min_weight_logical_error`] answers it exactly with a
//! meet-in-the-middle search over column subsets, because the problem is
//! linear over GF(2). The MaxSAT formulation stays as
//! [`min_weight_logical_error_maxsat`]: it is the subgraph model of the paper's
//! Table 2 and the exact solver's test oracle. [`global_min_weight_logical_error`]
//! is the Table 2 global model.
//!
//! [`min_weight`] is the search on any pair of matrices `(H, L)`: exact, or
//! "at least `lower`" when the subset cap is reached first (a
//! [`DistanceBound`]). Every exact minimum weight in the workspace goes
//! through it: the subgraph solves above, a circuit's effective distance
//! (`H`, `L` of the whole decoding graph, see
//! [`crate::PropHunt::effective_distance`]) and a code's distance
//! ([`code_distance`], the code's checks and logicals).
//!
//! # The meet-in-the-middle search
//!
//! Each column of `(H_sub, L_sub)` is a pair: its syndrome and its observable
//! flips. For `w = 1, 2, …` the search looks for a column set of weight `w`
//! whose syndromes cancel and whose observables do not:
//!
//! - A table maps the syndrome of every subset of size `⌊w/2⌋` to the
//!   observable flips of the first such subset in lexicographic order.
//! - At odd `w`, every subset of size `⌈w/2⌉` probes the table in
//!   lexicographic order.
//! - At even `w`, both halves have size `w/2`, so building the table is the
//!   probe: a subset whose syndrome is already in the table with different
//!   observable flips is the hit. The table is then reused at `w + 1`.
//!
//! A hit joins two subsets with equal syndromes and different observable
//! flips, so their symmetric difference is a logical error of weight at most
//! `w`. Every lower level was searched and found nothing, so it has weight
//! exactly `w`: the two subsets are disjoint and the union is minimal. Every
//! weight-`w` logical error splits into a first `⌊w/2⌋` columns and a last
//! `⌈w/2⌉`, so a level that finds nothing proves there is none of weight `w`.
//! The same argument shows the table never holds one syndrome with two
//! observable values at an odd level, which is why one entry per syndrome is
//! enough.
//!
//! The result depends only on `(H, L)` and the cap: the enumeration order is
//! fixed and the table's hash has no seed. Syndromes of any width use the same
//! multi-word keys.

use crate::ambiguity::{is_ambiguous, AmbiguousSubgraph, DecodingGraph};
use prophunt_gf2::BitMatrix;
use prophunt_maxsat::{CnfBuilder, MaxSatOutcome, MaxSatSolver, MaxSatStats, Var};
use prophunt_qec::{CssCode, StabilizerKind};
use std::fmt;
use std::time::{Duration, Instant};

/// Column subsets the exact solver may enumerate per second of budget. Table
/// entries and probes both count.
///
/// [`min_weight`] converts its `Duration` budget at this fixed rate into a
/// deterministic cap, so the same budget buys the same search on every
/// machine, like the MaxSAT conflict budget. The quick profile's 20 s buys
/// 100M subsets. On a 2-core Xeon a subset costs 10–150 ns, the upper
/// end once the table outgrows the caches, so the cap also bounds time.
///
/// The cap bounds memory too. A table never holds more than half the cap,
/// because the level before it probes with as many subsets. Each entry takes
/// two slots of one word per 64 rows plus one per 64 observables: at most
/// 1.6 GB at the quick cap for subgraphs with 64 or fewer rows and
/// observables; a whole-graph solve has one more word per 64 detectors. The
/// largest count seen on the pinned corpus, the tests and the benchmark
/// workloads is 4.4M, on a 68-column gb_36_2 subgraph of weight 9.
pub const SUBSETS_PER_BUDGET_SECOND: u64 = 5_000_000;

/// Converts a solve budget into the exact solver's cap on enumerated subsets.
pub fn duration_to_subsets(budget: Duration) -> u64 {
    // Millisecond granularity keeps sub-second test budgets meaningful.
    (budget.as_millis() as u64).saturating_mul(SUBSETS_PER_BUDGET_SECOND) / 1000
}

/// A minimum-weight logical error of a subgraph or of the whole decoding graph.
#[derive(Debug, Clone)]
pub struct MinWeightSolution {
    /// Global error-mechanism indices forming the logical error.
    pub errors: Vec<usize>,
    /// The weight (number of mechanisms) of the solution.
    pub weight: usize,
    /// Whether the weight is proved minimal. The exact solver always proves it;
    /// a MaxSAT solve whose conflict budget runs out returns its incumbent with
    /// `false`.
    pub optimal: bool,
    /// Solve statistics: the MaxSAT model's size and effort, or the exact
    /// search's as documented on [`min_weight_logical_error`], with wall-clock
    /// time as in Table 2.
    pub stats: MaxSatStats,
}

/// Encodes the hard part of the MaxSAT model for a set of detectors (rows of `h`) and
/// error columns: XOR constraints forcing every syndrome to zero and a clause that at
/// least one logical observable is flipped. Returns the builder and the error variables.
fn encode(h: &BitMatrix, l: &BitMatrix) -> (CnfBuilder, Vec<Var>) {
    let mut builder = CnfBuilder::new();
    let error_vars = builder.new_vars(h.num_cols());
    // Syndrome parity constraints: every detector's incident errors XOR to false.
    for row in h.rows_iter() {
        let lits: Vec<_> = row.ones().map(|e| error_vars[e].positive()).collect();
        if !lits.is_empty() {
            builder.add_xor_constraint(&lits, false);
        }
    }
    // Logical observables: at least one flips.
    let mut observable_lits = Vec::new();
    for row in l.rows_iter() {
        let lits: Vec<_> = row.ones().map(|e| error_vars[e].positive()).collect();
        if !lits.is_empty() {
            observable_lits.push(builder.xor_to_lit(&lits));
        }
    }
    builder.add_clause(&observable_lits);
    (builder, error_vars)
}

/// Builds the MaxSAT model: the [`encode`]d hard constraints plus unit soft clauses
/// preferring every error off.
fn build_model(h: &BitMatrix, l: &BitMatrix) -> (MaxSatSolver, Vec<Var>) {
    let (builder, error_vars) = encode(h, l);
    let mut solver = MaxSatSolver::new(builder);
    for v in &error_vars {
        solver.add_soft_false(*v);
    }
    (solver, error_vars)
}

fn extract_solution(
    outcome: &MaxSatOutcome,
    error_vars: &[Var],
    index_map: &[usize],
    stats: MaxSatStats,
) -> Option<MinWeightSolution> {
    let model = outcome.model()?;
    let errors: Vec<usize> = error_vars
        .iter()
        .enumerate()
        .filter(|&(_i, v)| model[v.index()])
        .map(|(i, _v)| index_map[i])
        .collect();
    Some(MinWeightSolution {
        weight: errors.len(),
        errors,
        optimal: outcome.is_optimal(),
        stats,
    })
}

/// Finds a minimum-weight logical error inside an ambiguous subgraph, exactly,
/// with the meet-in-the-middle search of the module docs.
///
/// `errors` are sorted global mechanism indices and `optimal` is always `true`.
/// `budget` is converted through [`SUBSETS_PER_BUDGET_SECOND`] into a cap on
/// enumerated subsets. Returns `None` if the cap is reached first, or if the
/// subgraph has no logical error at all.
///
/// The [`MaxSatStats`] describe the search, not a MaxSAT model:
/// `num_variables` and `num_soft_clauses` are the columns, `num_hard_clauses`
/// the rows, `conflicts` is 0, `iterations` is the number of weight levels
/// searched (the weight found) and `wall_time` is the time taken.
pub fn min_weight_logical_error(
    subgraph: &AmbiguousSubgraph,
    budget: Duration,
) -> Option<MinWeightSolution> {
    // lint: allow(no-wall-clock) — timing-only: feeds the wall_time stat; the
    // search is bounded by its subset cap alone.
    let start = Instant::now();
    let (h, l) = (&subgraph.h_sub, &subgraph.l_sub);
    if !is_ambiguous(h, l) {
        return None;
    }
    let local = min_weight(h, l, budget).witness?;
    let errors: Vec<usize> = local.iter().map(|&c| subgraph.errors[c]).collect();
    let stats = MaxSatStats {
        num_variables: h.num_cols(),
        num_hard_clauses: h.num_rows(),
        num_soft_clauses: h.num_cols(),
        wall_time: start.elapsed(),
        conflicts: 0,
        iterations: errors.len(),
    };
    Some(MinWeightSolution {
        weight: errors.len(),
        errors,
        optimal: true,
        stats,
    })
}

/// The minimum weight of a logical error: exactly `lower` when a witness was
/// found, at least `lower` when the subset cap was reached first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceBound {
    /// No logical error is lighter. Every lower weight level was searched in
    /// full, so this is a proof, not an estimate.
    pub lower: usize,
    /// A logical error of weight exactly `lower` as sorted column indices
    /// (mechanisms of a decoding graph, qubits of a code), or `None` if the
    /// cap was spent during level `lower`.
    pub witness: Option<Vec<usize>>,
}

impl DistanceBound {
    /// The weight, if it is exact.
    pub fn exact(&self) -> Option<usize> {
        self.witness.as_ref().map(|_| self.lower)
    }
}

impl fmt::Display for DistanceBound {
    /// `w` for an exact weight, `≥w` for a lower bound. Width and alignment
    /// flags apply to the whole text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.witness {
            Some(_) => f.pad(&self.lower.to_string()),
            None => f.pad(&format!("≥{}", self.lower)),
        }
    }
}

/// Solves the minimum weight of `x` with `H x = 0` and `L x ≠ 0` with the
/// meet-in-the-middle search of the module docs; the witness lists the
/// columns of `x`.
///
/// `budget` is converted through [`SUBSETS_PER_BUDGET_SECOND`] into a cap on
/// enumerated subsets. A pair without any such `x` reads "at least" one more
/// than the column count.
pub fn min_weight(h: &BitMatrix, l: &BitMatrix, budget: Duration) -> DistanceBound {
    match search(&Columns::new(h, l), duration_to_subsets(budget)) {
        Ok(errors) => DistanceBound {
            lower: errors.len(),
            witness: Some(errors),
        },
        Err(lower) => DistanceBound {
            lower,
            witness: None,
        },
    }
}

/// The minimum weight of a `kind`-type logical operator of `code`: a
/// `kind`-type Pauli that no opposite-kind check detects and that flips an
/// opposite-kind logical. The code distance is the smaller of the two kinds.
/// The witness lists the operator's qubits.
pub fn code_distance(code: &CssCode, kind: StabilizerKind, budget: Duration) -> DistanceBound {
    min_weight(
        code.checks(kind.opposite()),
        code.logicals(kind.opposite()),
        budget,
    )
}

/// The columns of `(H, L)`, each packed as its syndrome words followed by its
/// observable words.
struct Columns {
    count: usize,
    syndrome_words: usize,
    stride: usize,
    words: Vec<u64>,
}

impl Columns {
    fn new(h: &BitMatrix, l: &BitMatrix) -> Self {
        let (ht, lt) = (h.transpose(), l.transpose());
        let syndrome_words = h.num_rows().div_ceil(64);
        let stride = syndrome_words + l.num_rows().div_ceil(64);
        let mut words = Vec::with_capacity(h.num_cols() * stride);
        for c in 0..h.num_cols() {
            words.extend_from_slice(ht.row(c).words());
            words.extend_from_slice(lt.row(c).words());
        }
        Columns {
            count: h.num_cols(),
            syndrome_words,
            stride,
            words,
        }
    }

    fn column(&self, c: usize) -> &[u64] {
        &self.words[c * self.stride..(c + 1) * self.stride]
    }

    /// Calls `visit(subset, sum)` for every `size`-subset in lexicographic
    /// order, where `sum` is the XOR of the subset's columns, until `visit`
    /// returns `true`. Returns whether it did.
    fn for_each_subset(
        &self,
        size: usize,
        mut visit: impl FnMut(&[usize], &[u64]) -> bool,
    ) -> bool {
        let (n, stride) = (self.count, self.stride);
        let mut leaf = vec![0u64; stride];
        if size == 0 {
            return visit(&[], &leaf);
        }
        if size > n {
            return false;
        }
        let last = size - 1;
        let mut subset: Vec<usize> = (0..size).collect();
        // Block k of `sums` is the XOR of the first k chosen columns.
        let mut sums = vec![0u64; size * stride];
        let mut stale = 0;
        loop {
            for k in stale..last {
                let (done, rest) = sums.split_at_mut((k + 1) * stride);
                xor_into(
                    &mut rest[..stride],
                    &done[k * stride..],
                    self.column(subset[k]),
                );
            }
            // The last position runs over its whole range in one tight loop.
            let prefix = &sums[last * stride..];
            for c in subset[last]..n {
                subset[last] = c;
                xor_into(&mut leaf, prefix, self.column(c));
                if visit(&subset, &leaf) {
                    return true;
                }
            }
            // Bump the rightmost earlier position that can still move, then
            // reset the positions after it to their smallest values.
            let Some(k) = (0..last).rev().find(|&k| subset[k] < n - size + k) else {
                return false;
            };
            subset[k] += 1;
            for j in k + 1..size {
                subset[j] = subset[j - 1] + 1;
            }
            stale = k;
        }
    }

    /// The first `size`-subset in lexicographic order with syndrome `syndrome`.
    fn first_with_syndrome(&self, size: usize, syndrome: &[u64]) -> Vec<usize> {
        let mut found = Vec::new();
        self.for_each_subset(size, |subset, sum| {
            let hit = words_eq(&sum[..self.syndrome_words], syndrome);
            if hit {
                found = subset.to_vec();
            }
            hit
        });
        found
    }
}

/// `out = a ^ b`, word by word.
fn xor_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x ^ y;
    }
}

/// Word-by-word equality, as an inlined loop rather than a `memcmp` call.
fn words_eq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
}

/// An open-addressing table from a syndrome to the observable flips of the
/// first subset inserted with it. The hash has no seed, so the table behaves
/// the same in every run.
///
/// Occupancy lives in a bitmap apart from the slots. It is small enough to
/// stay in cache, so a probe whose syndrome lands on an empty slot, which is
/// what most probes do, never touches the slots.
struct SyndromeTable {
    syndrome_words: usize,
    stride: usize,
    capacity: usize,
    occupied: Vec<u64>,
    slots: Vec<u64>,
}

impl SyndromeTable {
    /// A table for up to `entries` distinct syndromes, at most half full.
    fn new(columns: &Columns, entries: u64) -> Self {
        let capacity = 2 * entries.max(1) as usize;
        SyndromeTable {
            syndrome_words: columns.syndrome_words,
            stride: columns.stride,
            capacity,
            occupied: vec![0; capacity.div_ceil(64)],
            slots: vec![0; capacity * columns.stride],
        }
    }

    fn is_occupied(&self, i: usize) -> bool {
        self.occupied[i / 64] >> (i % 64) & 1 == 1
    }

    /// The slot holding `sum`'s syndrome, or the empty slot where it belongs,
    /// and whether it is occupied.
    fn slot(&self, sum: &[u64]) -> (usize, bool) {
        let syndrome = &sum[..self.syndrome_words];
        let hash = syndrome.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        // The high half of `hash * capacity` maps the hash onto the slots.
        let mut i = ((u128::from(hash) * self.capacity as u128) >> 64) as usize;
        while self.is_occupied(i) {
            if words_eq(
                &self.slots[i * self.stride..][..self.syndrome_words],
                syndrome,
            ) {
                return (i, true);
            }
            i = if i + 1 == self.capacity { 0 } else { i + 1 };
        }
        (i, false)
    }

    /// Whether the observable flips stored in slot `i` differ from `sum`'s.
    fn differs(&self, i: usize, sum: &[u64]) -> bool {
        let stored = &self.slots[i * self.stride..(i + 1) * self.stride];
        !words_eq(&stored[self.syndrome_words..], &sum[self.syndrome_words..])
    }

    /// Whether `sum`'s syndrome is stored with observable flips other than
    /// `sum`'s.
    fn conflicts(&self, sum: &[u64]) -> bool {
        let (i, occupied) = self.slot(sum);
        occupied && self.differs(i, sum)
    }

    /// Stores `sum` (syndrome, then observable flips) unless its syndrome is
    /// already present; returns whether the stored observable flips differ
    /// from `sum`'s.
    fn insert(&mut self, sum: &[u64]) -> bool {
        let (i, occupied) = self.slot(sum);
        if occupied {
            return self.differs(i, sum);
        }
        self.occupied[i / 64] |= 1 << (i % 64);
        self.slots[i * self.stride..(i + 1) * self.stride].copy_from_slice(sum);
        false
    }
}

/// `C(n, k)`, saturating at `u64::MAX`.
fn binomial(n: usize, k: usize) -> u64 {
    (0..k as u64).fold(1, |acc: u64, i| acc.saturating_mul(n as u64 - i) / (i + 1))
}

/// Raises the weight level of the module docs until a logical error turns up;
/// returns its sorted local column indices. `Err(w)` means no logical error
/// has weight below `w`: the `cap` on enumerated subsets was spent during
/// level `w`, or every level up to the column count was searched in vain.
fn search(columns: &Columns, cap: u64) -> Result<Vec<usize>, usize> {
    let sw = columns.syndrome_words;
    let mut remaining = cap;
    // The table of 0-subsets holds the empty set.
    let mut table = SyndromeTable::new(columns, 1);
    table.insert(&vec![0; columns.stride]);
    for w in 1..=columns.count {
        let (half, even) = (w / 2, w % 2 == 0);
        if even {
            let entries = binomial(columns.count, half).min(remaining);
            table = SyndromeTable::new(columns, entries);
        }
        // The new subset of the hit and its syndrome, if any.
        let mut hit: Option<(Vec<usize>, Vec<u64>)> = None;
        columns.for_each_subset(w - half, |subset, sum| {
            if remaining == 0 {
                return true;
            }
            remaining -= 1;
            let found = if even {
                table.insert(sum)
            } else {
                table.conflicts(sum)
            };
            if found {
                hit = Some((subset.to_vec(), sum[..sw].to_vec()));
            }
            found
        });
        if let Some((probe, syndrome)) = hit {
            let mut errors = columns.first_with_syndrome(half, &syndrome);
            errors.extend(probe);
            errors.sort_unstable();
            return Ok(errors);
        }
        if remaining == 0 {
            return Err(w);
        }
    }
    Err(columns.count + 1)
}

/// Solves the subgraph's MaxSAT model: the paper's formulation, kept for the
/// Table 2 and Figure 14 harnesses and as the oracle for
/// [`min_weight_logical_error`].
///
/// Returns `None` only if the conflict budget runs out before any model is
/// found, or if the subgraph has no logical error.
pub fn min_weight_logical_error_maxsat(
    subgraph: &AmbiguousSubgraph,
    budget: Duration,
) -> Option<MinWeightSolution> {
    let (mut solver, vars) = build_model(&subgraph.h_sub, &subgraph.l_sub);
    let outcome = solver.solve(budget);
    let stats = solver.last_stats().expect("solve records stats");
    extract_solution(&outcome, &vars, &subgraph.errors, stats)
}

/// Solves (or attempts to solve) the global formulation over the entire decoding graph,
/// as compared against the subgraph formulation in the paper's Table 2.
///
/// Returns the solution if one was found within the budget together with the model-size
/// statistics; for moderate codes the solver is expected to time out, in which case the
/// statistics are still returned.
pub fn global_min_weight_logical_error(
    graph: &DecodingGraph,
    budget: Duration,
) -> (Option<MinWeightSolution>, MaxSatStats) {
    let (mut solver, vars) = build_model(&graph.dem().h_matrix(), &graph.dem().l_matrix());
    let outcome = solver.solve(budget);
    let stats = solver.last_stats().expect("solve records stats");
    let all_errors: Vec<usize> = (0..graph.num_errors()).collect();
    let solution = extract_solution(&outcome, &vars, &all_errors, stats);
    (solution, stats)
}

/// Returns the model-size statistics (variables, hard clauses, soft clauses) of the
/// subgraph formulation without solving it — used by the Table 2 harness.
pub fn subgraph_model_size(subgraph: &AmbiguousSubgraph) -> (usize, usize, usize) {
    model_size_of(&subgraph.h_sub, &subgraph.l_sub)
}

/// Returns the model-size statistics of the global formulation without solving it.
pub fn global_model_size(graph: &DecodingGraph) -> (usize, usize, usize) {
    model_size_of(&graph.dem().h_matrix(), &graph.dem().l_matrix())
}

fn model_size_of(h: &BitMatrix, l: &BitMatrix) -> (usize, usize, usize) {
    let (builder, _) = encode(h, l);
    (builder.num_vars(), builder.num_clauses(), h.num_cols())
}

/// Verifies that a claimed solution really is an undetected logical error of the graph:
/// its mechanisms flip no detector but flip at least one observable.
pub fn is_undetected_logical_error(graph: &DecodingGraph, errors: &[usize]) -> bool {
    let mut det = vec![false; graph.num_detectors()];
    let mut obs = vec![false; graph.dem().num_observables()];
    for &e in errors {
        let err = graph.dem().error(e);
        for &d in &err.detectors {
            det[d] = !det[d];
        }
        for &o in &err.observables {
            obs[o] = !obs[o];
        }
    }
    det.iter().all(|&x| !x) && obs.iter().any(|&x| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambiguity::find_ambiguous_subgraph;
    use prophunt_circuit::{MemoryBasis, ScheduleSpec};
    use prophunt_gf2::BitVec;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph_for(d: usize, poor: bool) -> DecodingGraph {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let schedule = if poor {
            ScheduleSpec::surface_poor(&code, &layout)
        } else {
            ScheduleSpec::surface_hand_designed(&code, &layout)
        };
        DecodingGraph::build(&code, &schedule, d, MemoryBasis::Z, 1e-3).unwrap()
    }

    #[test]
    fn subgraph_solutions_are_genuine_logical_errors() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut solved = 0;
        for _ in 0..10 {
            let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) else {
                continue;
            };
            let solution = min_weight_logical_error(&sub, Duration::from_secs(20))
                .expect("ambiguous subgraphs always have a logical error");
            assert!(solution.weight >= 1);
            assert!(solution.optimal);
            // The union of the two ambiguous explanations is undetected *within the
            // subgraph*: check it flips no subgraph detector but flips an observable.
            let mut det = vec![false; sub.detectors.len()];
            let mut obs_flipped = false;
            for &e in &solution.errors {
                let err = graph.dem().error(e);
                for &d in &err.detectors {
                    let pos = sub
                        .detectors
                        .iter()
                        .position(|&x| x == d)
                        .expect("in subgraph");
                    det[pos] = !det[pos];
                }
                obs_flipped ^= !err.observables.is_empty();
            }
            assert!(
                det.iter().all(|&x| !x),
                "solution must be undetected in the subgraph"
            );
            assert!(
                obs_flipped,
                "solution must flip an observable an odd number of times"
            );
            solved += 1;
        }
        assert!(solved > 0);
    }

    #[test]
    fn poor_schedule_has_lower_min_weight_than_good_schedule() {
        // The poor d=3 schedule has reduced effective distance; the hand-designed one
        // does not. Sampling min-weight logical errors should reflect that ordering.
        let mut rng = StdRng::seed_from_u64(5);
        let min_weight = |graph: &DecodingGraph, rng: &mut StdRng| -> usize {
            let mut best = usize::MAX;
            for _ in 0..12 {
                if let Some(sub) = find_ambiguous_subgraph(graph, rng, 60) {
                    if let Some(sol) = min_weight_logical_error(&sub, Duration::from_secs(10)) {
                        best = best.min(sol.weight);
                    }
                }
            }
            best
        };
        let poor = min_weight(&graph_for(3, true), &mut rng);
        let good = min_weight(&graph_for(3, false), &mut rng);
        assert!(poor <= good, "poor schedule weight {poor} vs good {good}");
        assert!(
            poor <= 2,
            "poor schedule should expose weight-2 logical errors, got {poor}"
        );
        assert!(
            good >= 2,
            "hand-designed schedule should not have weight-1 logical errors"
        );
    }

    #[test]
    fn global_model_is_much_larger_than_subgraph_model() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(9);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        let (sub_vars, sub_clauses, sub_soft) = subgraph_model_size(&sub);
        let (glob_vars, glob_clauses, glob_soft) = global_model_size(&graph);
        assert!(glob_vars > 5 * sub_vars, "{glob_vars} vs {sub_vars}");
        assert!(
            glob_clauses > 5 * sub_clauses,
            "{glob_clauses} vs {sub_clauses}"
        );
        assert!(glob_soft > 5 * sub_soft);
    }

    #[test]
    fn model_sizes_are_pinned_on_the_poor_surface_d3_schedule() {
        // (vars, hard clauses, soft clauses) of the Table 2 formulations on
        // surface_d3 `surface_poor`, subgraph seeded as in the test above.
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(9);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        assert_eq!(subgraph_model_size(&sub), (89, 251, 28));
        assert_eq!(global_model_size(&graph), (814, 2421, 215));
    }

    #[test]
    fn solution_weight_matches_error_count_and_stats_are_recorded() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(13);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        let sol = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        assert_eq!(sol.weight, sol.errors.len());
        assert!(sol.optimal);
        // The exact solver's documented stats: columns, rows, no conflicts,
        // one iteration per weight level.
        assert_eq!(sol.stats.num_variables, sub.errors.len());
        assert_eq!(sol.stats.num_hard_clauses, sub.detectors.len());
        assert_eq!(sol.stats.num_soft_clauses, sub.errors.len());
        assert_eq!(sol.stats.conflicts, 0);
        assert_eq!(sol.stats.iterations, sol.weight);
        let maxsat = min_weight_logical_error_maxsat(&sub, Duration::from_secs(10)).unwrap();
        assert_eq!(maxsat.weight, sol.weight);
        assert!(maxsat.stats.num_variables > sol.stats.num_variables);
    }

    /// A subgraph over `(h, l)` whose column `c` is global mechanism `10 + 3c`,
    /// so a mix-up of local and global indices shows.
    fn instance(h: BitMatrix, l: BitMatrix) -> AmbiguousSubgraph {
        AmbiguousSubgraph {
            detectors: (0..h.num_rows()).collect(),
            errors: (0..h.num_cols()).map(|c| 10 + 3 * c).collect(),
            h_sub: h,
            l_sub: l,
        }
    }

    /// Checks a solution of `sub` is a sorted, undetected logical error and
    /// returns its weight.
    fn checked_weight(sub: &AmbiguousSubgraph, sol: &MinWeightSolution) -> usize {
        assert!(sol.optimal);
        assert_eq!(sol.weight, sol.errors.len());
        assert!(
            sol.errors.windows(2).all(|w| w[0] < w[1]),
            "sorted, distinct"
        );
        let local: Vec<usize> = sol
            .errors
            .iter()
            .map(|e| sub.errors.binary_search(e).expect("a subgraph mechanism"))
            .collect();
        let x = BitVec::from_indices(sub.errors.len(), &local);
        assert!(sub.h_sub.mul_vec(&x).is_zero(), "flips no detector");
        assert!(!sub.l_sub.mul_vec(&x).is_zero(), "flips an observable");
        sol.weight
    }

    /// The minimum weight of `x` with `h x = 0` and `l x != 0`, by trying all
    /// `2^n` column sets.
    fn brute_force(h: &BitMatrix, l: &BitMatrix) -> Option<usize> {
        let n = h.num_cols();
        (1u32..1 << n)
            .filter(|&mask| {
                let ones: Vec<usize> = (0..n).filter(|&c| mask >> c & 1 == 1).collect();
                let x = BitVec::from_indices(n, &ones);
                h.mul_vec(&x).is_zero() && !l.mul_vec(&x).is_zero()
            })
            .map(|mask| mask.count_ones() as usize)
            .min()
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, rng.gen_bool(density));
            }
        }
        m
    }

    #[test]
    fn exact_solver_matches_exhaustive_enumeration_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut solved = 0;
        for _ in 0..300 {
            let rows = rng.gen_range(0..7);
            let cols = rng.gen_range(1..12);
            let observables = rng.gen_range(1..4);
            let density = [0.2, 0.4, 0.6][rng.gen_range(0..3)];
            let mut h = random_matrix(&mut rng, rows, cols, density);
            let mut l = random_matrix(&mut rng, observables, cols, density);
            // Duplicate a column now and then, and zero one's syndrome.
            if cols >= 2 && rng.gen_bool(0.3) {
                let (from, to) = (rng.gen_range(0..cols), rng.gen_range(0..cols));
                for r in 0..rows {
                    h.set(r, to, h.get(r, from));
                }
                for o in 0..observables {
                    l.set(o, to, l.get(o, from));
                }
            }
            if rng.gen_bool(0.2) {
                let c = rng.gen_range(0..cols);
                for r in 0..rows {
                    h.set(r, c, false);
                }
            }
            let expected = brute_force(&h, &l);
            let sub = instance(h, l);
            let got = min_weight_logical_error(&sub, Duration::from_secs(1));
            assert_eq!(
                got.as_ref().map(|sol| checked_weight(&sub, sol)),
                expected,
                "{sub:?}"
            );
            solved += usize::from(expected.is_some());
        }
        assert!(solved > 100, "only {solved} instances had a logical error");
    }

    #[test]
    fn a_zero_syndrome_column_that_flips_an_observable_is_a_weight_one_error() {
        let h = BitMatrix::from_rows_u8(&[&[1, 0, 1], &[1, 0, 0]]);
        let l = BitMatrix::from_rows_u8(&[&[1, 1, 0]]);
        let sub = instance(h, l);
        let sol = min_weight_logical_error(&sub, Duration::from_secs(1)).unwrap();
        assert_eq!(sol.errors, vec![13]);
        assert_eq!(sol.stats.iterations, 1);
    }

    #[test]
    fn observables_are_compared_as_vectors_and_duplicate_columns_cancel() {
        // Columns 0 and 1 are duplicates: together they flip nothing. Column 2
        // has the same syndrome but flips the other observable, so the only
        // weight-2 logical errors pair it with column 0 or 1.
        let h = BitMatrix::from_rows_u8(&[&[1, 1, 1]]);
        let l = BitMatrix::from_rows_u8(&[&[1, 1, 0], &[0, 0, 1]]);
        let sub = instance(h, l);
        let sol = min_weight_logical_error(&sub, Duration::from_secs(1)).unwrap();
        assert_eq!(sol.errors, vec![10, 16]);
        // Without column 2 the duplicates have no logical error at all.
        let h = BitMatrix::from_rows_u8(&[&[1, 1]]);
        let l = BitMatrix::from_rows_u8(&[&[1, 1], &[0, 0]]);
        assert!(min_weight_logical_error(&instance(h, l), Duration::from_secs(1)).is_none());
    }

    #[test]
    fn syndromes_wider_than_one_word_use_the_same_search() {
        // Plant a few low-weight vectors as the null space of `h`, then enumerate
        // that null space to find the true minimum. `h` has more than 64 rows.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let cols = 80;
            let mut planted = BitMatrix::zeros(0, cols);
            for _ in 0..4 {
                let support: Vec<usize> = (0..rng.gen_range(2..4))
                    .map(|_| rng.gen_range(0..cols))
                    .collect();
                planted.push_row(BitVec::from_indices(cols, &support));
            }
            let h = planted.kernel_basis();
            assert!(h.num_rows() > 64);
            let l = random_matrix(&mut rng, 2, cols, 0.3);
            let kernel = h.kernel_basis();
            let expected = (1u32..1 << kernel.num_rows())
                .map(|mask| {
                    let mut x = BitVec::zeros(cols);
                    for (i, row) in kernel.rows_iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            x.xor_assign_with(row);
                        }
                    }
                    x
                })
                .filter(|x| !l.mul_vec(x).is_zero())
                .map(|x| x.weight())
                .min();
            let sub = instance(h, l);
            let got = min_weight_logical_error(&sub, Duration::from_secs(1));
            assert_eq!(got.as_ref().map(|sol| checked_weight(&sub, sol)), expected);
        }
    }

    #[test]
    fn repeated_solves_return_the_identical_error() {
        let graph = graph_for(3, false);
        let mut rng = StdRng::seed_from_u64(17);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        let first = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        for _ in 0..3 {
            let again = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
            assert_eq!(again.errors, first.errors);
        }
    }

    #[test]
    fn a_tiny_budget_on_a_large_subgraph_finds_nothing() {
        let graph = graph_for(5, false);
        let mut rng = StdRng::seed_from_u64(2);
        let sub = std::iter::repeat_with(|| find_ambiguous_subgraph(&graph, &mut rng, 80))
            .take(50)
            .flatten()
            .max_by_key(|s| s.errors.len())
            .expect("subgraph found");
        let full = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        let weight = checked_weight(&sub, &full);
        // One millisecond of budget cannot cover the lower weight levels.
        let cap = duration_to_subsets(Duration::from_millis(1));
        assert!(binomial(sub.errors.len(), weight / 2) > cap, "{sub:?}");
        assert!(min_weight_logical_error(&sub, Duration::from_millis(1)).is_none());
        assert!(min_weight_logical_error(&sub, Duration::ZERO).is_none());
    }
}
