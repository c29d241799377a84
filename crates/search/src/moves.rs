//! The commutation-aware move universe over [`ScheduleSpec`]s.
//!
//! The local-search strategies (annealing, beam, hill climbing) all explore
//! the same neighborhood, built from the two primitive schedule changes the
//! paper manipulates (Section 5.3) and the structure of the commutation
//! condition. Moves are the typed [`Move`] values of the incremental
//! evaluation engine (`prophunt_circuit::schedule::eval`):
//!
//! * **Reorder** — move one data qubit within a stabilizer's interaction
//!   order. Touches only the per-stabilizer CNOT chain, never the relative
//!   orders, so commutation is preserved by construction; only acyclicity can
//!   fail.
//! * **Same-kind swap** — flip the relative order of two stabilizers of the
//!   *same* kind on a shared qubit. Commutation only constrains X/Z pairs, so
//!   these flips are always commutation-safe.
//! * **Paired cross-kind swap** — flip an X/Z pair's relative order on
//!   exactly **two** of their shared qubits. A single flip changes the
//!   "X first" count's parity and always breaks commutation; flipping two at
//!   once preserves the parity, so the move stays inside the commuting
//!   subspace (the same observation behind the optimizer's rescheduling
//!   candidates).
//! * **Stabilizer promotion** — a macro move: pick one stabilizer and flip
//!   every cross-kind pair involving it (on *all* of the pair's shared
//!   qubits) so the picked stabilizer acts first — or acts last, when it
//!   already leads everywhere (the toggle means a promotion draw never
//!   dead-ends). Single swaps diffuse across the huge equal-depth plateau of
//!   a coloration schedule (all X checks before all Z checks) too slowly to
//!   ever restructure it; promotion interleaves a whole stabilizer in one
//!   step, which is exactly the structure hand-designed schedules use to
//!   reach minimal depth.
//!
//! [`MoveSet::draw`] only *selects* a move; strategies evaluate it with
//! [`ScheduleEval::try_apply`], which validates (parity counters + cone
//! relayering) in O(pairs touched + cone) and restores the previous state on
//! rejection — no per-proposal schedule clone, no full commutation rescan.

use prophunt_circuit::schedule::eval::Move;
use prophunt_circuit::schedule::{ScheduleSpec, StabilizerId};
use rand::Rng;

/// The immutable move universe of one search problem.
///
/// Mutations never change which stabilizers share which qubits, so the move
/// universe is computed once from the starting schedule and shared by every
/// schedule derived from it.
#[derive(Debug, Clone)]
pub struct MoveSet {
    /// Stabilizers whose interaction order has at least two qubits.
    reorderable: Vec<StabilizerId>,
    /// `(qubit, a, b)` entries whose stabilizers are of the same kind.
    same_kind: Vec<(usize, StabilizerId, StabilizerId)>,
    /// X/Z stabilizer pairs with their (>= 2) shared qubits.
    cross_pairs: Vec<(StabilizerId, StabilizerId, Vec<usize>)>,
    /// Stabilizers involved in at least one cross pair — the only ones a
    /// promotion draw can pick, precomputed so class-3 draws never dead-end
    /// on a stabilizer with nothing to flip.
    promotable: Vec<StabilizerId>,
}

impl MoveSet {
    /// Builds the move universe of `schedule` (and of every schedule derived
    /// from it by these moves).
    pub fn new(schedule: &ScheduleSpec) -> MoveSet {
        let reorderable = (0..schedule.num_stabilizers())
            .filter(|&s| schedule.order(s).len() >= 2)
            .collect();
        let mut same_kind = Vec::new();
        let mut cross: Vec<(StabilizerId, StabilizerId, Vec<usize>)> = Vec::new();
        // `relative_entries` iterates in deterministic (qubit, a, b) order, so
        // the move universe — and therefore every seeded random draw over it —
        // is a pure function of the schedule.
        for (q, a, b, _) in schedule.relative_entries() {
            if schedule.kind_of(a) == schedule.kind_of(b) {
                same_kind.push((q, a, b));
            } else {
                match cross.iter_mut().find(|(x, z, _)| *x == a && *z == b) {
                    Some((_, _, shared)) => shared.push(q),
                    None => cross.push((a, b, vec![q])),
                }
            }
        }
        let cross_pairs: Vec<(StabilizerId, StabilizerId, Vec<usize>)> = cross
            .into_iter()
            .filter(|(_, _, shared)| shared.len() >= 2)
            .collect();
        let mut promotable: Vec<StabilizerId> =
            cross_pairs.iter().flat_map(|&(x, z, _)| [x, z]).collect();
        promotable.sort_unstable();
        promotable.dedup();
        MoveSet {
            reorderable,
            same_kind,
            cross_pairs,
            promotable,
        }
    }

    /// Draws one random typed move against the current `schedule` state, or
    /// `None` when the universe is empty. The draw only selects; evaluation
    /// (and validity checking) happens in `ScheduleEval::try_apply`.
    pub fn draw<R: Rng>(&self, schedule: &ScheduleSpec, rng: &mut R) -> Option<Move> {
        let mut classes: Vec<u8> = Vec::with_capacity(4);
        if !self.reorderable.is_empty() {
            classes.push(0);
        }
        if !self.same_kind.is_empty() {
            classes.push(1);
        }
        if !self.cross_pairs.is_empty() {
            classes.push(2);
            classes.push(3);
        }
        let class = *classes.get(rng.gen_range(0..classes.len().max(1)))?;
        Some(match class {
            0 => {
                let s = self.reorderable[rng.gen_range(0..self.reorderable.len())];
                let order = schedule.order(s);
                let from = rng.gen_range(0..order.len());
                let mut to = rng.gen_range(0..order.len() - 1);
                if to >= from {
                    to += 1;
                }
                Move::Reorder {
                    stabilizer: s,
                    move_qubit: order[from],
                    anchor_qubit: order[to],
                }
            }
            1 => {
                let (q, a, b) = self.same_kind[rng.gen_range(0..self.same_kind.len())];
                Move::SameKindSwap { qubit: q, a, b }
            }
            2 => {
                let (x, z, shared) = &self.cross_pairs[rng.gen_range(0..self.cross_pairs.len())];
                let i = rng.gen_range(0..shared.len());
                let mut j = rng.gen_range(0..shared.len() - 1);
                if j >= i {
                    j += 1;
                }
                Move::PairedCrossSwap {
                    x: *x,
                    z: *z,
                    qubit_a: shared[i],
                    qubit_b: shared[j],
                }
            }
            _ => Move::Promote {
                stabilizer: self.promotable[rng.gen_range(0..self.promotable.len())],
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_circuit::schedule::eval::ScheduleEval;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drawn_moves_keep_the_eval_valid_for_the_code() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::coloration(&code);
        let moves = MoveSet::new(&schedule);
        let mut eval = ScheduleEval::new(schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut accepted = 0;
        for _ in 0..200 {
            let Some(mv) = moves.draw(eval.spec(), &mut rng) else {
                continue;
            };
            if let Some(depth) = eval.try_apply(&mv) {
                eval.spec().validate_for_code(&code).unwrap();
                assert_eq!(eval.spec().depth().unwrap(), depth);
                accepted += 1;
            }
        }
        assert!(accepted > 20, "move generator too restrictive: {accepted}");
    }

    #[test]
    fn move_universe_covers_all_classes_on_the_surface_code() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::coloration(&code);
        let moves = MoveSet::new(&schedule);
        assert!(!moves.reorderable.is_empty());
        assert!(
            !moves.cross_pairs.is_empty(),
            "surface plaquettes share 2 qubits with their X/Z neighbors"
        );
        for (_, _, shared) in &moves.cross_pairs {
            assert!(shared.len() >= 2);
        }
        // Every stabilizer of a cross pair is promotable, and only those.
        assert_eq!(
            moves.promotable.len(),
            {
                let mut stabs: Vec<_> = moves
                    .cross_pairs
                    .iter()
                    .flat_map(|&(x, z, _)| [x, z])
                    .collect();
                stabs.sort_unstable();
                stabs.dedup();
                stabs.len()
            },
            "promotable set must be exactly the cross-pair stabilizers"
        );
    }

    #[test]
    fn promotion_draws_never_dead_end() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::coloration(&code);
        let moves = MoveSet::new(&schedule);
        let eval = ScheduleEval::new(schedule).unwrap();
        // Every promotable stabilizer resolves to a non-empty op list, even
        // in the coloration schedule where X checks already lead everywhere.
        for &s in &moves.promotable {
            assert!(
                !eval.resolve(&Move::Promote { stabilizer: s }).is_empty(),
                "promotion of stabilizer {s} resolved to a no-op"
            );
        }
    }
}
