//! Incremental schedule evaluation: O(pairs-touched) commutation deltas,
//! O(cone) depth maintenance, and canonical fingerprints.
//!
//! The search strategies in `prophunt-search` evaluate thousands of mutated
//! schedules per round, and the from-scratch path — clone the
//! [`ScheduleSpec`], rescan every X/Z stabilizer pair for commutation, rebuild
//! the whole CNOT dependency DAG and relayer it — makes proposal evaluation
//! the binding cost of the search loop. [`ScheduleEval`] wraps one
//! `ScheduleSpec` and keeps three pieces of derived state up to date as moves
//! are applied and reverted:
//!
//! * **Commutation parity counters.** For every X/Z stabilizer pair that
//!   shares data qubits, the number of shared qubits on which the X check
//!   acts first. The schedule commutes iff every counter is even, so a
//!   relative-order swap updates validity in O(1) (one counter, one parity
//!   flip) instead of an O(X·Z·shared) rescan.
//! * **The CNOT dependency DAG with longest-path layers.** A move flips a
//!   handful of edges; only the forward cone of the touched nodes can change
//!   layer, and the cone is relayered in place with a worklist. A move whose
//!   cone blows up past a small multiple of the node count falls back to one
//!   full rebuild, and a move that would create a cycle is detected (layers
//!   on an acyclic graph are bounded by the node count) and rolled back.
//! * **A canonical 64-bit fingerprint** ([`ScheduleSpec::fingerprint`]) of
//!   the per-stabilizer orders plus the normalized relative entries, enabling
//!   cheap deduplication of equal schedules across search candidates.
//!
//! Moves are typed values ([`Move`]) that resolve to primitive operations
//! ([`EvalOp`]); [`ScheduleEval::try_apply`] applies a move and returns the
//! new depth (or `None`, restoring the previous state, when the move breaks
//! commutation or creates a cycle), and [`ScheduleEval::revert`] undoes the
//! last applied move — so an annealer can mutate one eval in place and undo
//! rejected proposals instead of cloning the spec per proposal.
//!
//! The incremental results are exact: after any sequence of applies and
//! reverts, [`ScheduleEval::depth`] equals [`ScheduleSpec::depth`] of the
//! wrapped spec and validity equals [`ScheduleSpec::check_commutation`] +
//! acyclicity, which the `eval` property tests replay move-by-move.

use super::{ScheduleSpec, StabilizerId};
use crate::CircuitError;
use std::collections::{HashMap, VecDeque};

/// Multiplier of the FxHash-style mixing step used by the fingerprint.
const FINGERPRINT_K: u64 = 0x517c_c1b7_2722_0a95;

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(FINGERPRINT_K)
}

impl ScheduleSpec {
    /// Canonical 64-bit fingerprint of the schedule.
    ///
    /// Hashes the stabilizer counts, every per-stabilizer interaction order,
    /// and the normalized relative entries (the `(qubit, a, b) → first`
    /// map in its canonical `a < b` key order). Equal schedules therefore
    /// always produce equal fingerprints, and any mutation — a reorder or a
    /// relative-order flip — produces a different fingerprint with
    /// overwhelming probability, which is what candidate deduplication in the
    /// search portfolio needs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(0x9e37_79b9_7f4a_7c15, self.num_x as u64);
        h = mix(h, self.num_z as u64);
        for order in &self.orders {
            h = mix(h, 0x5eed);
            for &q in order {
                h = mix(h, q as u64 + 1);
            }
        }
        for (&(q, a, b), &first) in self.relative.iter() {
            h = mix(h, q as u64);
            h = mix(h, a as u64);
            h = mix(h, b as u64);
            h = mix(h, u64::from(first == a) + 1);
        }
        h
    }
}

/// A primitive schedule operation: the currency between typed [`Move`]s, the
/// optimizer's candidate changes, and the incremental engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalOp {
    /// Move `move_qubit` immediately before `anchor_qubit` in the interaction
    /// order of `stabilizer` ([`ScheduleSpec::reorder_before`]).
    Reorder {
        /// The stabilizer whose CNOT order changes.
        stabilizer: StabilizerId,
        /// The data qubit moved within the order.
        move_qubit: usize,
        /// The data qubit it is moved in front of.
        anchor_qubit: usize,
    },
    /// Flip which of two stabilizers interacts first with a shared qubit
    /// ([`ScheduleSpec::swap_relative_order`]).
    Swap {
        /// The shared data qubit.
        qubit: usize,
        /// One stabilizer of the pair.
        a: StabilizerId,
        /// The other stabilizer of the pair.
        b: StabilizerId,
    },
}

impl EvalOp {
    /// Applies the operation to a plain [`ScheduleSpec`] — the from-scratch
    /// evaluation path (used as the baseline the incremental engine is
    /// benchmarked and property-tested against).
    ///
    /// # Panics
    ///
    /// Panics exactly like the underlying [`ScheduleSpec`] mutators when the
    /// named qubits or pair are absent.
    pub fn apply(&self, spec: &mut ScheduleSpec) {
        match *self {
            EvalOp::Reorder {
                stabilizer,
                move_qubit,
                anchor_qubit,
            } => spec.reorder_before(stabilizer, move_qubit, anchor_qubit),
            EvalOp::Swap { qubit, a, b } => spec.swap_relative_order(qubit, a, b),
        }
    }
}

/// A typed schedule mutation, resolved against the current schedule state by
/// [`ScheduleEval::resolve`].
///
/// The four variants are the move universe shared by every local-search
/// strategy (see `prophunt-search`): reorders and same-kind swaps are always
/// commutation-safe, paired cross-kind swaps preserve the X-first parity by
/// construction, and promotion is the macro move that interleaves one
/// stabilizer past the coloration plateau.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Move one data qubit within a stabilizer's interaction order.
    Reorder {
        /// The stabilizer whose CNOT order changes.
        stabilizer: StabilizerId,
        /// The data qubit moved within the order.
        move_qubit: usize,
        /// The data qubit it is moved in front of.
        anchor_qubit: usize,
    },
    /// Flip the relative order of two same-kind stabilizers on a shared qubit.
    SameKindSwap {
        /// The shared data qubit.
        qubit: usize,
        /// One stabilizer of the pair.
        a: StabilizerId,
        /// The other stabilizer of the pair.
        b: StabilizerId,
    },
    /// Flip an X/Z pair's relative order on exactly two shared qubits,
    /// preserving the X-first parity.
    PairedCrossSwap {
        /// The X stabilizer of the pair.
        x: StabilizerId,
        /// The Z stabilizer of the pair.
        z: StabilizerId,
        /// First flipped shared qubit.
        qubit_a: usize,
        /// Second flipped shared qubit (distinct from `qubit_a`).
        qubit_b: usize,
    },
    /// Macro move: flip every cross-kind pair involving the stabilizer (on all
    /// of the pair's shared qubits) so the stabilizer acts first; when it
    /// already leads everywhere, flip every pair instead so it acts last —
    /// the move never resolves to a no-op for a stabilizer with cross pairs.
    Promote {
        /// The stabilizer promoted (or, when already leading, demoted).
        stabilizer: StabilizerId,
    },
}

/// One cross-kind stabilizer pair with its parity counter.
#[derive(Debug, Clone)]
struct CrossPair {
    x: StabilizerId,
    z: StabilizerId,
    /// Shared data qubits, in deterministic (relative-entry) order.
    qubits: Vec<usize>,
    /// Number of shared qubits on which the X check acts first.
    x_first: usize,
}

/// The primitive mutations the engine actually journals: a swap is its own
/// inverse, and a reorder is journaled as an index move within the
/// stabilizer's order (`remove(from)` then `insert(to)`), whose inverse is
/// the index move back — both allocation-free.
#[derive(Debug, Clone)]
enum RawOp {
    Swap {
        qubit: usize,
        a: StabilizerId,
        b: StabilizerId,
    },
    MoveWithin {
        stabilizer: StabilizerId,
        from: usize,
        to: usize,
    },
}

/// Everything needed to undo one applied move in O(move size + cone): the
/// inverse primitives (restoring spec, edges and parity counters) plus the
/// layer snapshot the relayer recorded for every node it touched — rollback
/// restores layers directly instead of relayering a second time.
#[derive(Debug, Clone)]
struct UndoFrame {
    inverses: Vec<RawOp>,
    /// `(node, layer before this move)` for every node the relayer changed,
    /// each node at most once.
    layers: Vec<(usize, usize)>,
    max_layer: usize,
}

/// Incremental evaluator over one [`ScheduleSpec`]. See the [module
/// documentation](self) for the design.
///
/// # Invariant
///
/// Between calls, the wrapped schedule is always **valid**: commuting and
/// acyclic. [`ScheduleEval::try_apply`] / [`ScheduleEval::try_ops`] restore
/// the previous state before returning `None`, so an eval can never be
/// observed holding a broken schedule.
#[derive(Debug, Clone)]
pub struct ScheduleEval {
    spec: ScheduleSpec,
    /// `nodes[i]` = the CNOT `(stabilizer, data_qubit)` of DAG node `i`.
    nodes: Vec<(StabilizerId, usize)>,
    /// `stab_nodes[s]` = `(qubit, node)` pairs of stabilizer `s`. Stabilizer
    /// supports are tiny (the code's check weight), so a linear scan beats a
    /// hash lookup on the hot path.
    stab_nodes: Vec<Vec<(usize, usize)>>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Longest-path layer per node (always the exact ASAP layering).
    layer: Vec<usize>,
    /// `layer_counts[l]` = number of nodes currently on layer `l`.
    layer_counts: Vec<usize>,
    max_layer: usize,
    pairs: Vec<CrossPair>,
    pair_of: HashMap<(StabilizerId, StabilizerId), usize>,
    /// Cross-pair indices per stabilizer (empty for stabilizers without
    /// cross-kind neighbors).
    pairs_of_stab: Vec<Vec<usize>>,
    /// Number of cross pairs whose X-first counter is odd; the schedule
    /// commutes iff this is zero.
    odd_pairs: usize,
    /// Journal of applied moves.
    undo: Vec<UndoFrame>,
    /// Reusable scratch flags for the relayer worklist.
    in_queue: Vec<bool>,
    /// Reusable relayer worklist (always drained empty between calls).
    queue: VecDeque<usize>,
    /// Epoch stamp per node marking whether its pre-move layer is already in
    /// the current move's snapshot.
    snap_epoch: Vec<u64>,
    /// Current move epoch (bumped once per [`ScheduleEval::try_ops`]).
    epoch: u64,
    /// Reusable dirty-node scratch (cleared between moves).
    dirty_scratch: Vec<usize>,
    /// Reusable relayer seed scratch (cleared between moves).
    seed_scratch: Vec<usize>,
    /// Spent undo frames recycled for their allocations.
    frame_pool: Vec<UndoFrame>,
}

impl ScheduleEval {
    /// Builds an evaluator for a **valid** schedule, deriving the dependency
    /// DAG, its layers, and the cross-pair parity counters.
    ///
    /// The schedule's relative entries must cover every stabilizer pair
    /// sharing a data qubit (which every trusted constructor and
    /// [`ScheduleSpec::check_covers`]-validated schedule guarantees) — the
    /// parity counters are derived from those entries alone, with no code
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BreaksCommutation`] when some X/Z pair has an
    /// odd X-first count, or [`CircuitError::Unschedulable`] when the
    /// dependency graph has a cycle.
    pub fn new(spec: ScheduleSpec) -> Result<ScheduleEval, CircuitError> {
        let mut node_of: HashMap<(StabilizerId, usize), usize> = HashMap::new();
        let mut nodes = Vec::new();
        let mut stab_nodes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); spec.num_stabilizers()];
        for (s, order) in spec.orders.iter().enumerate() {
            for &q in order {
                node_of.insert((s, q), nodes.len());
                stab_nodes[s].push((q, nodes.len()));
                nodes.push((s, q));
            }
        }
        let n = nodes.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (s, order) in spec.orders.iter().enumerate() {
            for w in order.windows(2) {
                let a = node_of[&(s, w[0])];
                let b = node_of[&(s, w[1])];
                succs[a].push(b);
                preds[b].push(a);
            }
        }
        for (&(q, a, b), &first) in spec.relative.iter() {
            let second = if first == a { b } else { a };
            if let (Some(&na), Some(&nb)) = (node_of.get(&(first, q)), node_of.get(&(second, q))) {
                succs[na].push(nb);
                preds[nb].push(na);
            }
        }

        let mut pairs: Vec<CrossPair> = Vec::new();
        let mut pair_of: HashMap<(StabilizerId, StabilizerId), usize> = HashMap::new();
        for (&(q, a, b), &first) in spec.relative.iter() {
            if spec.kind_of(a) == spec.kind_of(b) {
                continue;
            }
            // Keys are canonical (a < b), and X ids precede Z ids, so `a` is
            // the X stabilizer of every cross pair.
            let idx = *pair_of.entry((a, b)).or_insert_with(|| {
                pairs.push(CrossPair {
                    x: a,
                    z: b,
                    qubits: Vec::new(),
                    x_first: 0,
                });
                pairs.len() - 1
            });
            pairs[idx].qubits.push(q);
            if first == a {
                pairs[idx].x_first += 1;
            }
        }
        if let Some(odd) = pairs.iter().find(|p| p.x_first % 2 == 1) {
            return Err(CircuitError::BreaksCommutation {
                x_stabilizer: odd.x,
                z_stabilizer: odd.z - spec.num_x,
            });
        }
        let mut pairs_of_stab: Vec<Vec<usize>> = vec![Vec::new(); spec.num_stabilizers()];
        for (i, pair) in pairs.iter().enumerate() {
            pairs_of_stab[pair.x].push(i);
            pairs_of_stab[pair.z].push(i);
        }

        let mut eval = ScheduleEval {
            spec,
            nodes,
            stab_nodes,
            preds,
            succs,
            layer: vec![0; n],
            // Sized for the relayer's transient bound: layers settle below
            // `n` on a DAG but may transiently reach `2n - 2` mid-worklist
            // (a stale predecessor value below `n` plus a path).
            layer_counts: vec![0; (2 * n).max(1)],
            max_layer: 0,
            pairs,
            pair_of,
            pairs_of_stab,
            odd_pairs: 0,
            undo: Vec::new(),
            in_queue: vec![false; n],
            queue: VecDeque::new(),
            snap_epoch: vec![0; n],
            epoch: 0,
            dirty_scratch: Vec::new(),
            seed_scratch: Vec::new(),
            frame_pool: Vec::new(),
        };
        eval.full_relayer()
            .map_err(|()| CircuitError::Unschedulable)?;
        Ok(eval)
    }

    /// The wrapped (always valid) schedule.
    pub fn spec(&self) -> &ScheduleSpec {
        &self.spec
    }

    /// Consumes the evaluator, returning the wrapped schedule.
    pub fn into_spec(self) -> ScheduleSpec {
        self.spec
    }

    /// Current CNOT depth (number of ASAP layers), maintained incrementally.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            0
        } else {
            self.max_layer + 1
        }
    }

    /// Fingerprint of the current schedule ([`ScheduleSpec::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint()
    }

    /// Resolves a typed [`Move`] into primitive operations against the
    /// *current* schedule state (promotion inspects which pairs the stabilizer
    /// already leads). Resolution is deterministic and read-only.
    pub fn resolve(&self, mv: &Move) -> Vec<EvalOp> {
        match *mv {
            Move::Reorder {
                stabilizer,
                move_qubit,
                anchor_qubit,
            } => vec![EvalOp::Reorder {
                stabilizer,
                move_qubit,
                anchor_qubit,
            }],
            Move::SameKindSwap { qubit, a, b } => vec![EvalOp::Swap { qubit, a, b }],
            Move::PairedCrossSwap {
                x,
                z,
                qubit_a,
                qubit_b,
            } => vec![
                EvalOp::Swap {
                    qubit: qubit_a,
                    a: x,
                    b: z,
                },
                EvalOp::Swap {
                    qubit: qubit_b,
                    a: x,
                    b: z,
                },
            ],
            Move::Promote { stabilizer } => {
                let mut ops = Vec::new();
                let flip_all = |ops: &mut Vec<EvalOp>, lead: bool| {
                    for &pi in &self.pairs_of_stab[stabilizer] {
                        let pair = &self.pairs[pi];
                        let leads = self.spec.first_on_qubit(pair.qubits[0], pair.x, pair.z)
                            == Some(stabilizer);
                        if leads == lead {
                            continue;
                        }
                        for &q in &pair.qubits {
                            ops.push(EvalOp::Swap {
                                qubit: q,
                                a: pair.x,
                                b: pair.z,
                            });
                        }
                    }
                };
                // Promote: flip every pair the stabilizer does not yet lead.
                flip_all(&mut ops, true);
                if ops.is_empty() {
                    // Already leading everywhere: toggle to demotion so the
                    // move never dead-ends on a promotable stabilizer.
                    flip_all(&mut ops, false);
                }
                ops
            }
        }
    }

    /// Applies a typed move. Returns the new depth when the mutated schedule
    /// is still valid; returns `None` — with the previous state fully
    /// restored — when the move breaks commutation or creates a dependency
    /// cycle. Successful moves can be undone with [`ScheduleEval::revert`].
    pub fn try_apply(&mut self, mv: &Move) -> Option<usize> {
        let ops = self.resolve(mv);
        self.try_ops(&ops)
    }

    /// Applies a sequence of primitive operations as one atomic move (the
    /// entry point used for the optimizer's candidate changes). Same contract
    /// as [`ScheduleEval::try_apply`].
    ///
    /// # Panics
    ///
    /// Panics if an operation names a qubit or pair absent from the schedule,
    /// exactly like the underlying [`ScheduleSpec`] mutators.
    pub fn try_ops(&mut self, ops: &[EvalOp]) -> Option<usize> {
        self.epoch += 1;
        // Recycle a spent frame's allocations where possible.
        let mut frame = self.frame_pool.pop().unwrap_or(UndoFrame {
            inverses: Vec::new(),
            layers: Vec::new(),
            max_layer: 0,
        });
        frame.max_layer = self.max_layer;
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        for op in ops {
            let raw = self.raw_of(op);
            let inverse = self.apply_raw(&raw, &mut dirty);
            frame.inverses.push(inverse);
        }
        // Commutation first: an O(1)-per-swap parity check, no relayering
        // needed to reject a non-commuting move. Otherwise relayer the cone,
        // snapshotting the pre-move layer of every node it changes.
        let mut layers = std::mem::take(&mut frame.layers);
        let valid = self.odd_pairs == 0 && self.relayer(&dirty, &mut layers).is_ok();
        frame.layers = layers;
        dirty.clear();
        self.dirty_scratch = dirty;
        if valid {
            self.undo.push(frame);
            Some(self.depth())
        } else {
            self.rollback(frame);
            None
        }
    }

    /// Undoes the last successfully applied move, restoring schedule, parity
    /// counters and layers exactly.
    ///
    /// # Panics
    ///
    /// Panics when there is no applied move to revert.
    pub fn revert(&mut self) {
        let frame = self
            .undo
            .pop()
            .expect("revert called without a matching applied move");
        self.rollback(frame);
    }

    /// Accepts the most recent applied move permanently: its undo frame is
    /// recycled and the move can no longer be reverted. Callers that keep a
    /// move should commit it so a long walk's journal stays bounded (and the
    /// frame allocations get reused).
    ///
    /// # Panics
    ///
    /// Panics when there is no applied move to commit.
    pub fn commit(&mut self) {
        let mut frame = self
            .undo
            .pop()
            .expect("commit called without a matching applied move");
        frame.inverses.clear();
        frame.layers.clear();
        self.frame_pool.push(frame);
    }

    /// Number of applied moves currently on the undo journal.
    pub fn applied_moves(&self) -> usize {
        self.undo.len()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Resolves an [`EvalOp`] into the journaled primitive form.
    fn raw_of(&self, op: &EvalOp) -> RawOp {
        match *op {
            EvalOp::Swap { qubit, a, b } => RawOp::Swap { qubit, a, b },
            EvalOp::Reorder {
                stabilizer,
                move_qubit,
                anchor_qubit,
            } => {
                // Mirror ScheduleSpec::reorder_before in index space: remove
                // at `from`, insert before the anchor's position in the
                // order-without-the-moved-qubit.
                let order = &self.spec.orders[stabilizer];
                let from = order
                    .iter()
                    .position(|&q| q == move_qubit)
                    .expect("move_qubit not in stabilizer order");
                let mut to = order
                    .iter()
                    .position(|&q| q == anchor_qubit)
                    .expect("anchor_qubit not in stabilizer order");
                if to > from {
                    to -= 1;
                }
                RawOp::MoveWithin {
                    stabilizer,
                    from,
                    to,
                }
            }
        }
    }

    /// Node id of the `(stabilizer, qubit)` CNOT, or `None` when the
    /// stabilizer does not act on the qubit. Linear scan over the (tiny)
    /// stabilizer support — measurably faster than a hash lookup here.
    #[inline]
    fn node(&self, s: StabilizerId, q: usize) -> Option<usize> {
        self.stab_nodes[s]
            .iter()
            .find(|&&(qubit, _)| qubit == q)
            .map(|&(_, node)| node)
    }

    /// Applies one primitive, pushing the DAG nodes whose predecessor sets
    /// changed onto `dirty`, and returns the inverse primitive.
    fn apply_raw(&mut self, op: &RawOp, dirty: &mut Vec<usize>) -> RawOp {
        match op {
            RawOp::Swap { qubit, a, b } => {
                let (q, x, z) = (*qubit, (*a).min(*b), (*a).max(*b));
                // One map traversal: read the current leader and flip it in
                // place (this module owns the spec's internals).
                let entry = self
                    .spec
                    .relative
                    .get_mut(&(q, x, z))
                    .expect("swap of a pair with no recorded order");
                let old_first = *entry;
                let new_first = if old_first == x { z } else { x };
                *entry = new_first;
                // Cross pair iff the canonical pair straddles the X/Z id split.
                if x < self.spec.num_x && z >= self.spec.num_x {
                    let pair = &mut self.pairs[self.pair_of[&(x, z)]];
                    let was_odd = pair.x_first % 2 == 1;
                    if old_first == x {
                        pair.x_first -= 1;
                    } else {
                        pair.x_first += 1;
                    }
                    if was_odd {
                        self.odd_pairs -= 1;
                    } else {
                        self.odd_pairs += 1;
                    }
                }
                if let (Some(from), Some(to)) = (self.node(old_first, q), self.node(new_first, q)) {
                    remove_edge(&mut self.succs, &mut self.preds, from, to);
                    add_edge(&mut self.succs, &mut self.preds, to, from);
                    dirty.push(from);
                    dirty.push(to);
                }
                RawOp::Swap {
                    qubit: q,
                    a: x,
                    b: z,
                }
            }
            RawOp::MoveWithin {
                stabilizer,
                from,
                to,
            } => {
                let (s, from, to) = (*stabilizer, *from, *to);
                // Tear down the old chain, move the qubit in index space,
                // rebuild the new chain. Supports are check-weight sized, so
                // this is a handful of edge flips with no allocation.
                for i in 0..self.spec.orders[s].len().saturating_sub(1) {
                    let (qa, qb) = (self.spec.orders[s][i], self.spec.orders[s][i + 1]);
                    let a = self.node(s, qa).expect("order qubits have nodes");
                    let b = self.node(s, qb).expect("order qubits have nodes");
                    remove_edge(&mut self.succs, &mut self.preds, a, b);
                }
                let q = self.spec.orders[s].remove(from);
                self.spec.orders[s].insert(to, q);
                for i in 0..self.spec.orders[s].len().saturating_sub(1) {
                    let (qa, qb) = (self.spec.orders[s][i], self.spec.orders[s][i + 1]);
                    let a = self.node(s, qa).expect("order qubits have nodes");
                    let b = self.node(s, qb).expect("order qubits have nodes");
                    add_edge(&mut self.succs, &mut self.preds, a, b);
                }
                for i in 0..self.stab_nodes[s].len() {
                    dirty.push(self.stab_nodes[s][i].1);
                }
                RawOp::MoveWithin {
                    stabilizer: s,
                    from: to,
                    to: from,
                }
            }
        }
    }

    /// Undoes one move frame: replays the inverse primitives (restoring the
    /// spec, the edges and the parity counters) and writes the snapshotted
    /// layers back — O(move size + touched cone), with no second relayering.
    fn rollback(&mut self, mut frame: UndoFrame) {
        let mut scratch = std::mem::take(&mut self.dirty_scratch);
        for op in frame.inverses.iter().rev() {
            self.apply_raw(op, &mut scratch);
        }
        scratch.clear();
        self.dirty_scratch = scratch;
        for &(v, old) in &frame.layers {
            let current = self.layer[v];
            self.layer_counts[current] -= 1;
            self.layer_counts[old] += 1;
            self.layer[v] = old;
        }
        self.max_layer = frame.max_layer;
        debug_assert_eq!(self.odd_pairs, 0, "rollback must restore commutation");
        frame.inverses.clear();
        frame.layers.clear();
        self.frame_pool.push(frame);
    }

    /// Worklist relayering of the forward cone of `dirty`, maintaining the
    /// exact longest-path layers.
    ///
    /// On success the layers are the unique ASAP fixed point of the current
    /// graph, and `snapshot` holds the pre-move layer of every node that
    /// changed (each node once) — enough to restore the previous layering
    /// without relayering again. Starting from layers below the node count
    /// `n`, transient worklist values are bounded by `2n - 2` on an acyclic
    /// graph (a stale predecessor plus a path), so a node reaching layer
    /// `>= 2n` proves a cycle and the relayer stops with `Err` (the caller
    /// rolls the snapshot back). A cone that blows up past a small multiple
    /// of the node count completes the snapshot and falls back to one full
    /// rebuild instead of chasing the worklist.
    fn relayer(&mut self, dirty: &[usize], snapshot: &mut Vec<(usize, usize)>) -> Result<(), ()> {
        let n = self.nodes.len();
        let bound = 2 * n;
        debug_assert!(self.queue.is_empty());
        // Seed in ascending current-layer order: recomputation then roughly
        // follows topological order, which keeps re-pops rare.
        let mut seeds = std::mem::take(&mut self.seed_scratch);
        for &v in dirty {
            if !self.in_queue[v] {
                self.in_queue[v] = true;
                seeds.push(v);
            }
        }
        seeds.sort_unstable_by_key(|&v| self.layer[v]);
        self.queue.extend(seeds.iter().copied());
        seeds.clear();
        self.seed_scratch = seeds;
        // One Kahn rebuild visits every node exactly once, so a worklist that
        // has popped about `n` nodes is no longer winning: complete the
        // snapshot and rebuild instead of chasing the cone.
        let budget = n + 64;
        let mut pops = 0usize;
        while let Some(v) = self.queue.pop_front() {
            self.in_queue[v] = false;
            pops += 1;
            if pops > budget {
                while let Some(u) = self.queue.pop_front() {
                    self.in_queue[u] = false;
                }
                // Cone blow-up: snapshot every not-yet-recorded node (their
                // current layer is still the pre-move one unless recorded)
                // and rebuild from scratch.
                for v in 0..n {
                    if self.snap_epoch[v] != self.epoch {
                        self.snap_epoch[v] = self.epoch;
                        snapshot.push((v, self.layer[v]));
                    }
                }
                return self.full_relayer();
            }
            let new = self.preds[v]
                .iter()
                .map(|&p| self.layer[p] + 1)
                .max()
                .unwrap_or(0);
            if new == self.layer[v] {
                continue;
            }
            if new >= bound {
                while let Some(u) = self.queue.pop_front() {
                    self.in_queue[u] = false;
                }
                return Err(());
            }
            if self.snap_epoch[v] != self.epoch {
                self.snap_epoch[v] = self.epoch;
                snapshot.push((v, self.layer[v]));
            }
            self.set_layer(v, new);
            for i in 0..self.succs[v].len() {
                let s = self.succs[v][i];
                if !self.in_queue[s] {
                    self.in_queue[s] = true;
                    self.queue.push_back(s);
                }
            }
        }
        Ok(())
    }

    /// Full Kahn rebuild of the layers. Commits only on success; a cycle
    /// leaves the (possibly disturbed) incremental layers in place for the
    /// caller's rollback to fix.
    fn full_relayer(&mut self) -> Result<(), ()> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut layer = vec![0usize; n];
        let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut processed = 0usize;
        while let Some(v) = stack.pop() {
            processed += 1;
            for &s in &self.succs[v] {
                layer[s] = layer[s].max(layer[v] + 1);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        if processed != n {
            return Err(());
        }
        self.layer = layer;
        self.layer_counts.iter_mut().for_each(|c| *c = 0);
        self.max_layer = 0;
        for &l in &self.layer {
            self.layer_counts[l] += 1;
            self.max_layer = self.max_layer.max(l);
        }
        Ok(())
    }

    /// Moves node `v` to layer `new`, keeping the per-layer counts and the
    /// running maximum consistent.
    fn set_layer(&mut self, v: usize, new: usize) {
        let old = self.layer[v];
        self.layer[v] = new;
        self.layer_counts[old] -= 1;
        self.layer_counts[new] += 1;
        if new > self.max_layer {
            self.max_layer = new;
        } else if old == self.max_layer && self.layer_counts[old] == 0 {
            while self.max_layer > 0 && self.layer_counts[self.max_layer] == 0 {
                self.max_layer -= 1;
            }
        }
    }
}

fn remove_edge(succs: &mut [Vec<usize>], preds: &mut [Vec<usize>], from: usize, to: usize) {
    let i = succs[from]
        .iter()
        .position(|&v| v == to)
        .expect("removed edge must exist in succs");
    succs[from].swap_remove(i);
    let i = preds[to]
        .iter()
        .position(|&v| v == from)
        .expect("removed edge must exist in preds");
    preds[to].swap_remove(i);
}

fn add_edge(succs: &mut [Vec<usize>], preds: &mut [Vec<usize>], from: usize, to: usize) {
    succs[from].push(to);
    preds[to].push(from);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use prophunt_qec::StabilizerKind;

    #[test]
    fn eval_matches_from_scratch_depth_on_construction() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        for schedule in [
            ScheduleSpec::surface_hand_designed(&code, &layout),
            ScheduleSpec::coloration(&code),
        ] {
            let eval = ScheduleEval::new(schedule.clone()).unwrap();
            assert_eq!(eval.depth(), schedule.depth().unwrap());
            assert_eq!(eval.fingerprint(), schedule.fingerprint());
        }
    }

    #[test]
    fn construction_rejects_non_commuting_and_cyclic_schedules() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let mut broken = ScheduleSpec::surface_hand_designed(&code, &layout);
        let shared = code.shared_qubits(0, 0);
        let z0 = broken.stabilizer_id(StabilizerKind::Z, 0);
        broken.swap_relative_order(shared[0], 0, z0);
        assert!(matches!(
            ScheduleEval::new(broken),
            Err(CircuitError::BreaksCommutation { .. })
        ));
    }

    #[test]
    fn paired_cross_swap_applies_and_reverts_exactly() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let original_fp = schedule.fingerprint();
        let mut eval = ScheduleEval::new(schedule.clone()).unwrap();
        let shared = code.shared_qubits(0, 0);
        let z0 = schedule.stabilizer_id(StabilizerKind::Z, 0);
        let mv = Move::PairedCrossSwap {
            x: 0,
            z: z0,
            qubit_a: shared[0],
            qubit_b: shared[1],
        };
        let depth = eval.try_apply(&mv).expect("paired swap preserves parity");
        assert_eq!(depth, eval.spec().depth().unwrap());
        assert_ne!(eval.fingerprint(), original_fp);
        eval.revert();
        assert_eq!(eval.spec(), &schedule);
        assert_eq!(eval.fingerprint(), original_fp);
        assert_eq!(eval.depth(), schedule.depth().unwrap());
    }

    #[test]
    fn single_cross_swap_is_rejected_and_state_restored() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let mut eval = ScheduleEval::new(schedule.clone()).unwrap();
        let shared = code.shared_qubits(0, 0);
        let z0 = schedule.stabilizer_id(StabilizerKind::Z, 0);
        let rejected = eval.try_ops(&[EvalOp::Swap {
            qubit: shared[0],
            a: 0,
            b: z0,
        }]);
        assert_eq!(rejected, None, "odd parity flip must be rejected");
        assert_eq!(eval.spec(), &schedule);
        assert_eq!(eval.depth(), schedule.depth().unwrap());
        assert_eq!(eval.applied_moves(), 0);
    }

    #[test]
    fn promotion_toggles_instead_of_dead_ending() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::coloration(&code);
        let mut eval = ScheduleEval::new(schedule).unwrap();
        // In a coloration schedule every X check already leads everywhere, so
        // promoting X stabilizer 0 must resolve to a demotion, not a no-op.
        let ops = eval.resolve(&Move::Promote { stabilizer: 0 });
        assert!(!ops.is_empty(), "promotion must never resolve to a no-op");
        if let Some(depth) = eval.try_apply(&Move::Promote { stabilizer: 0 }) {
            assert_eq!(depth, eval.spec().depth().unwrap());
            assert!(eval.spec().check_commutation(&code).is_ok());
        }
    }

    #[test]
    fn fingerprints_distinguish_mutations_and_match_on_equality() {
        let (code, layout) = rotated_surface_code_with_layout(5);
        let a = ScheduleSpec::surface_hand_designed(&code, &layout);
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        let order = c.order(0).to_vec();
        c.reorder_before(0, order[2], order[0]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(
            a.fingerprint(),
            ScheduleSpec::surface_poor(&code, &layout).fingerprint()
        );
    }
}
