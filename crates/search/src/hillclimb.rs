//! Random-restart hill climbing over schedule mutations.

use crate::moves::MoveSet;
use crate::strategy::{Incumbent, Proposal, SearchContext, Strategy};
use prophunt_circuit::schedule::eval::ScheduleEval;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_obs::Counter;
use prophunt_qec::surface::{Corner, SurfaceLayout};
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds without strict improvement before the climber restarts.
const RESTART_STALL: usize = 2;

/// Hill climbing with deterministic restarts over permuted orderings.
///
/// Each round greedily takes every seeded random move that does not increase
/// depth (equal-depth moves walk plateaus), mutating one [`ScheduleEval`] in
/// place and reverting worsening moves instead of cloning a schedule per
/// proposal. After `RESTART_STALL` rounds without strict improvement the
/// climber restarts from a fresh basin — the portfolio's diversity arm,
/// sampling far-apart starting points instead of refining one (Sato &
/// Suzuki's permuted-ordering restarts):
///
/// * codes with a surface layout restart from random members of the
///   precomputed **valid corner-order family**
///   ([`ScheduleSpec::surface_from_corner_orders`] over all 24 × 24 corner
///   permutations, minus the slot-colliding and commutation-breaking pairs) —
///   the family the hand-designed minimum-depth circuits live in, unreachable
///   from a coloration baseline by local moves alone;
/// * all other codes (and every other restart) draw randomized colorations
///   ([`ScheduleSpec::coloration_random`], valid by construction).
///
/// Incumbent policy: none. Restart diversity is this arm's whole contribution;
/// adopting the incumbent would collapse it onto the trajectories the other
/// arms already cover. The global best is still tracked across restarts and is
/// what every round proposes.
#[derive(Debug)]
pub struct HillClimb {
    code: CssCode,
    moves: MoveSet,
    /// The valid corner-order schedule family (empty for codes without a
    /// surface layout), shared with every other instance of the context.
    corner_restarts: std::sync::Arc<Vec<ScheduleSpec>>,
    eval: ScheduleEval,
    best: Proposal,
    stalled_rounds: usize,
    proposals_per_round: usize,
    /// Hoisted `search.hillclimb.*` counter handles (None when the context's
    /// observability is disabled).
    accepts: Option<Counter>,
    reverts: Option<Counter>,
    restarts: Option<Counter>,
}

/// All 24 permutations of the four plaquette corners.
fn corner_permutations() -> Vec<[Corner; 4]> {
    let mut out = Vec::with_capacity(24);
    let c = Corner::ALL;
    for i in 0..4 {
        for j in 0..4 {
            if j == i {
                continue;
            }
            for k in 0..4 {
                if k == i || k == j {
                    continue;
                }
                let l = 6 - i - j - k;
                out.push([c[i], c[j], c[k], c[l]]);
            }
        }
    }
    out
}

/// Whether a `(x_order, z_order)` pair assigns two CNOTs of one data qubit to
/// the same time slot — the pairs [`ScheduleSpec::surface_from_corner_orders`]
/// cannot lay out (its constructor asserts against them).
fn corner_orders_collide(
    layout: &SurfaceLayout,
    n: usize,
    x_order: &[Corner; 4],
    z_order: &[Corner; 4],
) -> bool {
    let slot_of = |order: &[Corner; 4], ci: usize| -> usize {
        order
            .iter()
            .position(|&c| c == Corner::ALL[ci])
            .expect("corner orders are permutations of ALL")
    };
    let mut taken = vec![false; n * 4];
    for (corners, order) in layout
        .x_corners
        .iter()
        .map(|c| (c, x_order))
        .chain(layout.z_corners.iter().map(|c| (c, z_order)))
    {
        for (ci, q) in corners.iter().enumerate() {
            if let Some(q) = q {
                let slot = q * 4 + slot_of(order, ci);
                if taken[slot] {
                    return true;
                }
                taken[slot] = true;
            }
        }
    }
    false
}

/// Enumerates every valid corner-order schedule of a surface layout: all
/// 24 × 24 `(x_order, z_order)` permutation pairs, minus the slot-colliding
/// and commutation-breaking ones. The hand-designed and "poor" schedules are
/// both members; so are the minimum-depth schedules the restarts aim for.
///
/// Computed once per [`SearchContext`] and shared by every instance — a
/// portfolio cycling several `HillClimb` slots must not redo the enumeration
/// per slot.
pub(crate) fn valid_corner_schedules(code: &CssCode, layout: &SurfaceLayout) -> Vec<ScheduleSpec> {
    let perms = corner_permutations();
    let mut out = Vec::new();
    for x_order in &perms {
        for z_order in &perms {
            if corner_orders_collide(layout, code.n(), x_order, z_order) {
                continue;
            }
            let candidate =
                ScheduleSpec::surface_from_corner_orders(code, layout, x_order, z_order);
            if candidate.validate(code).is_ok() {
                out.push(candidate);
            }
        }
    }
    out
}

impl HillClimb {
    /// Creates an instance climbing from the context's initial schedule.
    pub fn new(ctx: &SearchContext) -> HillClimb {
        let eval =
            ScheduleEval::new(ctx.initial.clone()).expect("search context schedules are validated");
        let depth = eval.depth();
        HillClimb {
            code: ctx.code.clone(),
            moves: MoveSet::new(&ctx.initial),
            corner_restarts: ctx.corner_schedules(),
            eval,
            best: Proposal {
                schedule: ctx.initial.clone(),
                depth,
            },
            stalled_rounds: 0,
            proposals_per_round: ctx.params.proposals_per_round,
            accepts: ctx.obs.counter("search.hillclimb.accepts"),
            reverts: ctx.obs.counter("search.hillclimb.reverts"),
            restarts: ctx.obs.counter("search.hillclimb.restarts"),
        }
    }

    /// Draws the next restart point: alternately a random member of the valid
    /// corner-order family (when the code has one) and a randomized coloration,
    /// so structured and unstructured basins both stay covered.
    fn restart_schedule(&self, rng: &mut StdRng) -> ScheduleSpec {
        if !self.corner_restarts.is_empty() && rng.gen_range(0..2) == 0 {
            return self.corner_restarts[rng.gen_range(0..self.corner_restarts.len())].clone();
        }
        ScheduleSpec::coloration_random(&self.code, rng)
    }
}

impl Strategy for HillClimb {
    fn name(&self) -> &'static str {
        "hillclimb"
    }

    fn propose(&mut self, _round: usize, seed: u64) -> Proposal {
        let mut rng = StdRng::seed_from_u64(seed);
        if self.stalled_rounds >= RESTART_STALL {
            self.eval = ScheduleEval::new(self.restart_schedule(&mut rng))
                .expect("restart schedules are validated or valid by construction");
            if let Some(c) = &self.restarts {
                c.inc();
            }
            if self.eval.depth() < self.best.depth {
                self.best = Proposal {
                    schedule: self.eval.spec().clone(),
                    depth: self.eval.depth(),
                };
            }
            self.stalled_rounds = 0;
        }
        let depth_before = self.eval.depth();
        let mut current_depth = depth_before;
        for _ in 0..self.proposals_per_round {
            let Some(mv) = self.moves.draw(self.eval.spec(), &mut rng) else {
                continue;
            };
            let Some(depth) = self.eval.try_apply(&mv) else {
                continue;
            };
            if depth <= current_depth {
                self.eval.commit();
                if let Some(c) = &self.accepts {
                    c.inc();
                }
                current_depth = depth;
                if depth < self.best.depth {
                    self.best = Proposal {
                        schedule: self.eval.spec().clone(),
                        depth,
                    };
                }
            } else {
                self.eval.revert();
                if let Some(c) = &self.reverts {
                    c.inc();
                }
            }
        }
        if current_depth < depth_before {
            self.stalled_rounds = 0;
        } else {
            self.stalled_rounds += 1;
        }
        self.best.clone()
    }

    fn observe(&mut self, _incumbent: &Incumbent, _accepted: bool) {}
}
