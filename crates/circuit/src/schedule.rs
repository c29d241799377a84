//! Abstract CNOT schedules for syndrome-measurement circuits.
//!
//! A schedule is described exactly the way the paper's Section 5.3 manipulates it:
//!
//! * for every stabilizer, the **order** in which its ancilla interacts with its data
//!   qubits (*reordering* changes permute this list), and
//! * for every data qubit, the **relative order** of the stabilizers that touch it
//!   (*rescheduling* changes flip one of these pairwise orientations — the directed
//!   multigraph of the paper's Figure 11).
//!
//! Together these constraints form a dependency DAG over individual CNOTs which
//! [`ScheduleSpec::cnot_layers`] lays out as parallel layers (ASAP / longest-path
//! layering). A schedule is *valid* when the DAG is acyclic **and** the measured
//! operators still commute, which for CSS codes means: for every X-stabilizer /
//! Z-stabilizer pair, the number of shared data qubits on which the X-check acts first
//! must be even.

use crate::CircuitError;
use prophunt_qec::surface::{Corner, SurfaceLayout};
use prophunt_qec::{CssCode, StabilizerKind};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

pub mod eval;

/// The CNOT nodes of a schedule with their ASAP layer indices (parallel
/// vectors) — the internal currency of [`ScheduleSpec::cnot_layers`] and
/// [`ScheduleSpec::depth`].
type Layering = (Vec<(StabilizerId, usize)>, Vec<usize>);

/// Flat stabilizer identifier: X stabilizers come first (`0..num_x`), then Z stabilizers
/// (`num_x..num_x + num_z`).
pub type StabilizerId = usize;

/// An abstract CNOT schedule for one round of syndrome measurement.
///
/// See the [module documentation](self) for the representation. Instances are typically
/// created by [`ScheduleSpec::coloration`] (the paper's baseline) or
/// [`ScheduleSpec::surface_hand_designed`], and then mutated by the PropHunt optimizer
/// through [`ScheduleSpec::reorder_before`] and [`ScheduleSpec::swap_relative_order`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    num_x: usize,
    num_z: usize,
    /// `orders[s]` = data qubits of stabilizer `s` in interaction order.
    orders: Vec<Vec<usize>>,
    /// For every data qubit and unordered pair of stabilizers touching it, the stabilizer
    /// that interacts with the qubit first. Keys are `(qubit, min(a, b), max(a, b))`.
    relative: BTreeMap<(usize, StabilizerId, StabilizerId), StabilizerId>,
}

impl ScheduleSpec {
    /// Number of X stabilizers covered by this schedule.
    pub fn num_x_stabilizers(&self) -> usize {
        self.num_x
    }

    /// Number of Z stabilizers covered by this schedule.
    pub fn num_z_stabilizers(&self) -> usize {
        self.num_z
    }

    /// Total number of stabilizers.
    pub fn num_stabilizers(&self) -> usize {
        self.num_x + self.num_z
    }

    /// Returns the kind of the stabilizer with flat id `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn kind_of(&self, s: StabilizerId) -> StabilizerKind {
        assert!(s < self.num_stabilizers(), "stabilizer id {s} out of range");
        if s < self.num_x {
            StabilizerKind::X
        } else {
            StabilizerKind::Z
        }
    }

    /// Converts a `(kind, index)` pair into a flat [`StabilizerId`].
    pub fn stabilizer_id(&self, kind: StabilizerKind, index: usize) -> StabilizerId {
        match kind {
            StabilizerKind::X => index,
            StabilizerKind::Z => self.num_x + index,
        }
    }

    /// Converts a flat [`StabilizerId`] back into a `(kind, index)` pair.
    pub fn kind_index(&self, s: StabilizerId) -> (StabilizerKind, usize) {
        if s < self.num_x {
            (StabilizerKind::X, s)
        } else {
            (StabilizerKind::Z, s - self.num_x)
        }
    }

    /// Returns the interaction order of stabilizer `s`.
    pub fn order(&self, s: StabilizerId) -> &[usize] {
        &self.orders[s]
    }

    /// Returns the stabilizer of the pair `(a, b)` that interacts with `qubit` first,
    /// or `None` if the pair was never ordered on that qubit.
    pub fn first_on_qubit(
        &self,
        qubit: usize,
        a: StabilizerId,
        b: StabilizerId,
    ) -> Option<StabilizerId> {
        if a == b {
            return Some(a);
        }
        let key = (qubit, a.min(b), a.max(b));
        self.relative.get(&key).copied()
    }

    /// Records that stabilizer `first` interacts with `qubit` before stabilizer `second`.
    pub fn set_relative_order(&mut self, qubit: usize, first: StabilizerId, second: StabilizerId) {
        assert_ne!(
            first, second,
            "a stabilizer cannot be ordered against itself"
        );
        let key = (qubit, first.min(second), first.max(second));
        self.relative.insert(key, first);
    }

    /// Flips the relative order of stabilizers `a` and `b` on `qubit` (a *rescheduling*
    /// change in the paper's terminology).
    ///
    /// # Panics
    ///
    /// Panics if the pair has no recorded order on that qubit.
    pub fn swap_relative_order(&mut self, qubit: usize, a: StabilizerId, b: StabilizerId) {
        let key = (qubit, a.min(b), a.max(b));
        let current = *self
            .relative
            .get(&key)
            .expect("swap_relative_order: pair has no recorded order on this qubit");
        let other = if current == a { b } else { a };
        self.relative.insert(key, other);
    }

    /// Moves `qubit_to_move` immediately before `anchor_qubit` in the interaction order of
    /// stabilizer `s` (a *reordering* change in the paper's terminology).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is not in the stabilizer's order.
    pub fn reorder_before(&mut self, s: StabilizerId, qubit_to_move: usize, anchor_qubit: usize) {
        assert_ne!(
            qubit_to_move, anchor_qubit,
            "cannot move a qubit before itself"
        );
        let order = &mut self.orders[s];
        let from = order
            .iter()
            .position(|&q| q == qubit_to_move)
            .expect("qubit_to_move not in stabilizer order");
        order.remove(from);
        let to = order
            .iter()
            .position(|&q| q == anchor_qubit)
            .expect("anchor_qubit not in stabilizer order");
        order.insert(to, qubit_to_move);
    }

    /// Returns every recorded relative order as `(qubit, a, b, first)` with `a < b` and
    /// `first ∈ {a, b}`, in deterministic `(qubit, a, b)` order.
    ///
    /// Together with [`ScheduleSpec::order`] this exposes the complete state of a
    /// schedule, which is what the `prophunt-formats` schedule file format serializes
    /// ([`ScheduleSpec::from_components`] is the inverse).
    pub fn relative_entries(
        &self,
    ) -> impl Iterator<Item = (usize, StabilizerId, StabilizerId, StabilizerId)> + '_ {
        self.relative
            .iter()
            .map(|(&(q, a, b), &first)| (q, a, b, first))
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a schedule from explicit per-stabilizer orders and per-qubit stabilizer
    /// orders.
    ///
    /// `qubit_orders[q]` lists the stabilizers acting on data qubit `q` from first to
    /// last; every pair in that list receives a relative-order entry.
    ///
    /// # Panics
    ///
    /// Panics if the orders are inconsistent with the code's check matrices (missing or
    /// extra qubits). Use [`ScheduleSpec::try_from_orders`] for a fallible variant.
    pub fn from_orders(
        code: &CssCode,
        x_orders: Vec<Vec<usize>>,
        z_orders: Vec<Vec<usize>>,
        qubit_orders: Vec<Vec<StabilizerId>>,
    ) -> ScheduleSpec {
        Self::try_from_orders(code, x_orders, z_orders, qubit_orders)
            .expect("orders must be consistent with the code's check matrices")
    }

    /// Fallible variant of [`ScheduleSpec::from_orders`]: builds a schedule from explicit
    /// per-stabilizer orders and per-qubit stabilizer orders, validating instead of
    /// panicking. This is the entry point used when the orders come from *outside* the
    /// process (e.g. a parsed schedule file) rather than from a trusted constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] if the order lists have the wrong
    /// lengths, name out-of-range stabilizers, order a stabilizer against itself, or do
    /// not cover exactly the code's Tanner graph.
    pub fn try_from_orders(
        code: &CssCode,
        x_orders: Vec<Vec<usize>>,
        z_orders: Vec<Vec<usize>>,
        qubit_orders: Vec<Vec<StabilizerId>>,
    ) -> Result<ScheduleSpec, CircuitError> {
        let num_x = code.num_x_stabilizers();
        let num_z = code.num_z_stabilizers();
        let invalid = |reason: String| CircuitError::InvalidSchedule { reason };
        if x_orders.len() != num_x {
            return Err(invalid(format!(
                "expected {num_x} X-stabilizer orders, got {}",
                x_orders.len()
            )));
        }
        if z_orders.len() != num_z {
            return Err(invalid(format!(
                "expected {num_z} Z-stabilizer orders, got {}",
                z_orders.len()
            )));
        }
        if qubit_orders.len() != code.n() {
            return Err(invalid(format!(
                "expected {} per-qubit orders, got {}",
                code.n(),
                qubit_orders.len()
            )));
        }
        let mut orders = x_orders;
        orders.extend(z_orders);
        let mut spec = ScheduleSpec {
            num_x,
            num_z,
            orders,
            relative: BTreeMap::new(),
        };
        for (q, stabs) in qubit_orders.iter().enumerate() {
            for (i, &s) in stabs.iter().enumerate() {
                if s >= spec.num_stabilizers() {
                    return Err(invalid(format!(
                        "qubit {q} orders an out-of-range stabilizer id {s}"
                    )));
                }
                if stabs[..i].contains(&s) {
                    return Err(invalid(format!(
                        "qubit {q} lists stabilizer {s} twice in its order"
                    )));
                }
            }
            for i in 0..stabs.len() {
                for j in i + 1..stabs.len() {
                    spec.set_relative_order(q, stabs[i], stabs[j]);
                }
            }
        }
        spec.check_covers(code)?;
        Ok(spec)
    }

    /// Rebuilds a schedule from its serialized components: the stabilizer counts, the
    /// per-stabilizer interaction orders, and the list of `(qubit, first, second)`
    /// relative orders — exactly what [`ScheduleSpec::order`] and
    /// [`ScheduleSpec::relative_entries`] expose.
    ///
    /// Unlike [`ScheduleSpec::try_from_orders`], this does not require the code: a
    /// schedule file is self-contained. Consistency with a particular code is checked
    /// separately by [`ScheduleSpec::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] if `orders` has the wrong length, an
    /// order repeats a qubit, or a relative entry names an out-of-range stabilizer,
    /// orders a stabilizer against itself, involves a stabilizer that does not act on
    /// the named qubit, or contradicts an earlier entry for the same pair.
    pub fn from_components(
        num_x: usize,
        num_z: usize,
        orders: Vec<Vec<usize>>,
        relative: impl IntoIterator<Item = (usize, StabilizerId, StabilizerId)>,
    ) -> Result<ScheduleSpec, CircuitError> {
        let invalid = |reason: String| CircuitError::InvalidSchedule { reason };
        let num_stabs = num_x + num_z;
        if orders.len() != num_stabs {
            return Err(invalid(format!(
                "expected {num_stabs} stabilizer orders ({num_x} X + {num_z} Z), got {}",
                orders.len()
            )));
        }
        for (s, order) in orders.iter().enumerate() {
            let mut seen = order.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(invalid(format!(
                    "stabilizer {s} lists a data qubit twice in its order"
                )));
            }
        }
        let mut spec = ScheduleSpec {
            num_x,
            num_z,
            orders,
            relative: BTreeMap::new(),
        };
        for (qubit, first, second) in relative {
            if first == second {
                return Err(invalid(format!(
                    "qubit {qubit}: stabilizer {first} is ordered against itself"
                )));
            }
            for s in [first, second] {
                if s >= num_stabs {
                    return Err(invalid(format!(
                        "qubit {qubit}: stabilizer id {s} out of range (have {num_stabs})"
                    )));
                }
                if !spec.orders[s].contains(&qubit) {
                    return Err(invalid(format!(
                        "qubit {qubit}: stabilizer {s} does not act on this qubit"
                    )));
                }
            }
            // Reject duplicate/conflicting entries instead of silently letting the
            // last one win — a hand-edited file with both `first q : a b` and
            // `first q : b a` is a mistake the author needs to see.
            if let Some(previous) = spec.first_on_qubit(qubit, first, second) {
                return Err(invalid(format!(
                    "qubit {qubit}: pair ({first}, {second}) is ordered twice \
                     (earlier entry puts {previous} first)"
                )));
            }
            spec.set_relative_order(qubit, first, second);
        }
        Ok(spec)
    }

    /// Builds the paper's baseline **coloration circuit** schedule (Algorithm 1 of
    /// Tremblay et al.): edge-color the X Tanner graph and the Z Tanner graph separately
    /// and run all X-check CNOT layers before all Z-check CNOT layers.
    pub fn coloration(code: &CssCode) -> ScheduleSpec {
        Self::coloration_impl(code, None::<&mut rand::rngs::ThreadRng>)
    }

    /// Builds a randomized coloration schedule (used by the paper's Figure 13): the edge
    /// coloring is computed over a randomly permuted edge order, producing a different —
    /// but still valid — baseline circuit for each seed.
    pub fn coloration_random<R: Rng>(code: &CssCode, rng: &mut R) -> ScheduleSpec {
        Self::coloration_impl(code, Some(rng))
    }

    fn coloration_impl<R: Rng>(code: &CssCode, mut rng: Option<&mut R>) -> ScheduleSpec {
        let num_x = code.num_x_stabilizers();
        let num_z = code.num_z_stabilizers();
        let x_supports: Vec<Vec<usize>> = (0..num_x)
            .map(|i| code.stabilizer_support(StabilizerKind::X, i))
            .collect();
        let z_supports: Vec<Vec<usize>> = (0..num_z)
            .map(|i| code.stabilizer_support(StabilizerKind::Z, i))
            .collect();
        let x_colors = edge_color_bipartite(&x_supports, code.n(), rng.as_deref_mut());
        let z_colors = edge_color_bipartite(&z_supports, code.n(), rng);

        // Per-stabilizer order: qubits sorted by the color of their edge.
        let order_by_color = |supports: &[Vec<usize>], colors: &[Vec<usize>]| -> Vec<Vec<usize>> {
            supports
                .iter()
                .zip(colors.iter())
                .map(|(sup, cols)| {
                    let mut pairs: Vec<(usize, usize)> =
                        cols.iter().copied().zip(sup.iter().copied()).collect();
                    pairs.sort_unstable();
                    pairs.into_iter().map(|(_, q)| q).collect()
                })
                .collect()
        };
        let x_orders = order_by_color(&x_supports, &x_colors);
        let z_orders = order_by_color(&z_supports, &z_colors);

        // Per-qubit order: X stabilizers (by color) first, then Z stabilizers (by color).
        let mut qubit_orders: Vec<Vec<(usize, StabilizerId)>> = vec![Vec::new(); code.n()];
        for (i, (sup, cols)) in x_supports.iter().zip(x_colors.iter()).enumerate() {
            for (&q, &c) in sup.iter().zip(cols.iter()) {
                qubit_orders[q].push((c, i));
            }
        }
        let num_x_colors = x_colors.iter().flatten().max().map_or(0, |&c| c + 1);
        for (i, (sup, cols)) in z_supports.iter().zip(z_colors.iter()).enumerate() {
            for (&q, &c) in sup.iter().zip(cols.iter()) {
                qubit_orders[q].push((num_x_colors + c, num_x + i));
            }
        }
        let qubit_orders: Vec<Vec<StabilizerId>> = qubit_orders
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                v.into_iter().map(|(_, s)| s).collect()
            })
            .collect();
        Self::from_orders(code, x_orders, z_orders.clone(), qubit_orders)
    }

    /// Builds the hand-designed surface-code schedule (the "N/Z" schedule of the paper's
    /// Section 3.1): X stabilizers visit their corners column-major (`NW, SW, NE, SE`) so
    /// that hook errors lie perpendicular to the horizontal X logical, and Z stabilizers
    /// visit row-major (`NW, NE, SW, SE`).
    pub fn surface_hand_designed(code: &CssCode, layout: &SurfaceLayout) -> ScheduleSpec {
        let x_order = [Corner::Nw, Corner::Sw, Corner::Ne, Corner::Se];
        let z_order = [Corner::Nw, Corner::Ne, Corner::Sw, Corner::Se];
        Self::surface_from_corner_orders(code, layout, &x_order, &z_order)
    }

    /// Builds a deliberately *poor* surface-code schedule (both stabilizer kinds visit
    /// their corners row-major), which aligns hook errors with the logical operators and
    /// reduces the effective distance — the paper's Figure 6 comparison circuit.
    pub fn surface_poor(code: &CssCode, layout: &SurfaceLayout) -> ScheduleSpec {
        let order = [Corner::Nw, Corner::Ne, Corner::Sw, Corner::Se];
        Self::surface_from_corner_orders(code, layout, &order, &order)
    }

    /// Builds a surface-code schedule from explicit corner orders for the two stabilizer
    /// kinds. The global time slot of a CNOT is the position of its corner in the kind's
    /// corner order, which also fixes the per-qubit relative orders.
    pub fn surface_from_corner_orders(
        code: &CssCode,
        layout: &SurfaceLayout,
        x_corner_order: &[Corner; 4],
        z_corner_order: &[Corner; 4],
    ) -> ScheduleSpec {
        let num_x = code.num_x_stabilizers();
        let x_orders: Vec<Vec<usize>> = (0..num_x)
            .map(|i| layout.ordered_support(StabilizerKind::X, i, x_corner_order))
            .collect();
        let z_orders: Vec<Vec<usize>> = (0..code.num_z_stabilizers())
            .map(|i| layout.ordered_support(StabilizerKind::Z, i, z_corner_order))
            .collect();

        // Per-qubit order by global corner slot.
        let slot_of = |corner_order: &[Corner; 4], corner: Corner| -> usize {
            corner_order
                .iter()
                .position(|&c| c == corner)
                .expect("corner present")
        };
        let mut qubit_orders: Vec<Vec<(usize, StabilizerId)>> = vec![Vec::new(); code.n()];
        for (i, corners) in layout.x_corners.iter().enumerate() {
            for (ci, q) in corners.iter().enumerate() {
                if let Some(q) = q {
                    qubit_orders[*q].push((slot_of(x_corner_order, Corner::ALL[ci]), i));
                }
            }
        }
        for (i, corners) in layout.z_corners.iter().enumerate() {
            for (ci, q) in corners.iter().enumerate() {
                if let Some(q) = q {
                    qubit_orders[*q].push((slot_of(z_corner_order, Corner::ALL[ci]), num_x + i));
                }
            }
        }
        let qubit_orders: Vec<Vec<StabilizerId>> = qubit_orders
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                debug_assert!(
                    v.windows(2).all(|w| w[0].0 != w[1].0),
                    "surface schedule produced a time-slot collision on a data qubit"
                );
                v.into_iter().map(|(_, s)| s).collect()
            })
            .collect();
        Self::from_orders(code, x_orders, z_orders, qubit_orders)
    }

    // ------------------------------------------------------------------
    // Validity and layout
    // ------------------------------------------------------------------

    /// Checks that the schedule covers exactly the code's Tanner graph: it must have one
    /// order per stabilizer, each order must visit exactly the stabilizer's support, and
    /// **every** pair of stabilizers sharing a data qubit — same-kind pairs included —
    /// must have a recorded relative order. Without the last condition a schedule can
    /// pass commutation checking (which only sees X/Z pairs) and then collide two CNOTs
    /// on one data qubit in the same circuit moment.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] naming the first mismatch.
    pub fn check_covers(&self, code: &CssCode) -> Result<(), CircuitError> {
        if self.num_x != code.num_x_stabilizers() || self.num_z != code.num_z_stabilizers() {
            return Err(CircuitError::InvalidSchedule {
                reason: format!(
                    "schedule covers {}+{} stabilizers but the code has {}+{}",
                    self.num_x,
                    self.num_z,
                    code.num_x_stabilizers(),
                    code.num_z_stabilizers()
                ),
            });
        }
        for s in 0..self.num_stabilizers() {
            let (kind, index) = self.kind_index(s);
            let mut expected = code.stabilizer_support(kind, index);
            let mut actual = self.orders[s].clone();
            expected.sort_unstable();
            actual.sort_unstable();
            if actual != expected {
                return Err(CircuitError::InvalidSchedule {
                    reason: format!(
                        "order for stabilizer {s} visits {actual:?} but the code support is {expected:?}"
                    ),
                });
            }
        }
        for (q, stabs) in code.qubit_stabilizers().into_iter().enumerate() {
            for i in 0..stabs.len() {
                for j in i + 1..stabs.len() {
                    let a = self.stabilizer_id(stabs[i].0, stabs[i].1);
                    let b = self.stabilizer_id(stabs[j].0, stabs[j].1);
                    if self.first_on_qubit(q, a, b).is_none() {
                        return Err(CircuitError::InvalidSchedule {
                            reason: format!(
                                "stabilizers {a} and {b} share data qubit {q} but the \
                                 schedule does not order them (missing `first {q} : {a} {b}`)"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies that the scheduled circuit still measures commuting operators.
    ///
    /// For every X-stabilizer / Z-stabilizer pair the number of shared data qubits on
    /// which the X-check CNOT comes first must be even.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BreaksCommutation`] naming the first offending pair, or
    /// [`CircuitError::IncompleteSchedule`] if a shared qubit has no recorded order.
    pub fn check_commutation(&self, code: &CssCode) -> Result<(), CircuitError> {
        for xi in 0..code.num_x_stabilizers() {
            for zi in 0..code.num_z_stabilizers() {
                let shared = code.shared_qubits(xi, zi);
                if shared.is_empty() {
                    continue;
                }
                let x_id = self.stabilizer_id(StabilizerKind::X, xi);
                let z_id = self.stabilizer_id(StabilizerKind::Z, zi);
                let mut x_first = 0usize;
                for &q in &shared {
                    match self.first_on_qubit(q, x_id, z_id) {
                        Some(first) if first == x_id => x_first += 1,
                        Some(_) => {}
                        None => return Err(CircuitError::IncompleteSchedule),
                    }
                }
                if !x_first.is_multiple_of(2) {
                    return Err(CircuitError::BreaksCommutation {
                        x_stabilizer: xi,
                        z_stabilizer: zi,
                    });
                }
            }
        }
        Ok(())
    }

    /// Assigns every CNOT its ASAP (longest-path) layer without materializing the
    /// per-layer node lists: returns the node list and a parallel layer index per node.
    /// This is the count-only layering path shared by [`ScheduleSpec::cnot_layers`]
    /// (which additionally groups nodes by layer) and [`ScheduleSpec::depth`] (which
    /// only needs the maximum).
    fn layering(&self) -> Result<Layering, CircuitError> {
        // Node ids: (stabilizer, position in its order).
        let mut node_of: HashMap<(StabilizerId, usize), usize> = HashMap::new();
        let mut nodes: Vec<(StabilizerId, usize)> = Vec::new();
        for (s, order) in self.orders.iter().enumerate() {
            for &q in order {
                node_of.insert((s, q), nodes.len());
                nodes.push((s, q));
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut indeg: Vec<usize> = vec![0; nodes.len()];
        let add_edge =
            |from: usize, to: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
                succs[from].push(to);
                indeg[to] += 1;
            };
        // Chain CNOTs of the same stabilizer.
        for (s, order) in self.orders.iter().enumerate() {
            for w in order.windows(2) {
                let a = node_of[&(s, w[0])];
                let b = node_of[&(s, w[1])];
                add_edge(a, b, &mut succs, &mut indeg);
            }
        }
        // Chain CNOTs on the same data qubit according to the relative orders.
        for (&(q, a, b), &first) in self.relative.iter() {
            let second = if first == a { b } else { a };
            if let (Some(&na), Some(&nb)) = (node_of.get(&(first, q)), node_of.get(&(second, q))) {
                add_edge(na, nb, &mut succs, &mut indeg);
            }
        }
        // Kahn's algorithm with longest-path layer assignment.
        let mut layer = vec![0usize; nodes.len()];
        let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut processed = 0usize;
        while let Some(node) = queue.pop() {
            processed += 1;
            for &next in &succs[node] {
                layer[next] = layer[next].max(layer[node] + 1);
                indeg[next] -= 1;
                if indeg[next] == 0 {
                    queue.push(next);
                }
            }
        }
        if processed != nodes.len() {
            return Err(CircuitError::Unschedulable);
        }
        Ok((nodes, layer))
    }

    /// Lays the schedule out as parallel CNOT layers using ASAP (longest-path) layering
    /// over the CNOT dependency DAG.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Unschedulable`] if the dependency graph has a cycle.
    pub fn cnot_layers(&self) -> Result<Vec<Vec<(StabilizerId, usize)>>, CircuitError> {
        let (nodes, layer) = self.layering()?;
        let depth = layer.iter().copied().max().map_or(0, |m| m + 1);
        let mut layers: Vec<Vec<(StabilizerId, usize)>> = vec![Vec::new(); depth];
        for (i, &(s, q)) in nodes.iter().enumerate() {
            layers[layer[i]].push((s, q));
        }
        Ok(layers)
    }

    /// Returns the CNOT depth of the schedule (number of CNOT layers), or an error if it
    /// cannot be laid out.
    ///
    /// Uses the count-only layering path: unlike [`ScheduleSpec::cnot_layers`] it never
    /// materializes the per-layer node lists — depth callers (the optimizer's candidate
    /// tie-break, the search strategies' objective) only need the maximum layer index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Unschedulable`] if the dependency graph has a cycle.
    pub fn depth(&self) -> Result<usize, CircuitError> {
        let (_, layer) = self.layering()?;
        Ok(layer.iter().copied().max().map_or(0, |m| m + 1))
    }

    /// Checks that commutation is preserved and the schedule is layout-able — the
    /// from-scratch check every [`crate::MemoryExperiment::build`] runs.
    ///
    /// Tanner-graph coverage is *not* re-checked here: trusted constructors enforce
    /// it and schedule mutations preserve it. The optimizer's candidate changes are
    /// judged valid or not incrementally by [`crate::ScheduleEval`]; only candidates
    /// that pass it reach a circuit build. Schedules arriving from outside the
    /// process (a parsed schedule file) should go through
    /// [`ScheduleSpec::validate_for_code`] instead.
    ///
    /// # Errors
    ///
    /// Returns the first failing [`CircuitError`].
    pub fn validate(&self, code: &CssCode) -> Result<(), CircuitError> {
        self.check_commutation(code)?;
        self.cnot_layers()?;
        Ok(())
    }

    /// The full boundary check for externally supplied schedules: Tanner-graph
    /// coverage ([`ScheduleSpec::check_covers`]) plus [`ScheduleSpec::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first failing [`CircuitError`].
    pub fn validate_for_code(&self, code: &CssCode) -> Result<(), CircuitError> {
        self.check_covers(code)?;
        self.validate(code)
    }

    /// Applies a random valid permutation to every stabilizer's order and derives
    /// per-qubit orders from random priorities. Useful for generating the diverse
    /// schedule population of the paper's Figure 1 study. The result is *not* guaranteed
    /// to preserve commutation; callers should filter with [`ScheduleSpec::validate`].
    pub fn random<R: Rng>(code: &CssCode, rng: &mut R) -> ScheduleSpec {
        let num_x = code.num_x_stabilizers();
        let num_z = code.num_z_stabilizers();
        let mut x_orders = Vec::with_capacity(num_x);
        for i in 0..num_x {
            let mut sup = code.stabilizer_support(StabilizerKind::X, i);
            sup.shuffle(rng);
            x_orders.push(sup);
        }
        let mut z_orders = Vec::with_capacity(num_z);
        for i in 0..num_z {
            let mut sup = code.stabilizer_support(StabilizerKind::Z, i);
            sup.shuffle(rng);
            z_orders.push(sup);
        }
        let mut qubit_orders: Vec<Vec<StabilizerId>> = Vec::with_capacity(code.n());
        let adjacency = code.qubit_stabilizers();
        for stabs in adjacency {
            let mut ids: Vec<StabilizerId> = stabs
                .iter()
                .map(|&(kind, idx)| match kind {
                    StabilizerKind::X => idx,
                    StabilizerKind::Z => num_x + idx,
                })
                .collect();
            ids.shuffle(rng);
            qubit_orders.push(ids);
        }
        Self::from_orders(code, x_orders, z_orders, qubit_orders)
    }
}

/// Properly edge-colors a bipartite graph given as left-vertex adjacency lists, returning
/// for each left vertex the color of each incident edge (parallel to `supports`).
///
/// Uses the alternating-path (Kempe chain) argument behind König's edge-coloring theorem,
/// so the number of colors equals the maximum degree. When `rng` is provided, edges are
/// processed in random order, producing different (still proper) colorings.
pub fn edge_color_bipartite<R: Rng>(
    supports: &[Vec<usize>],
    num_right: usize,
    rng: Option<&mut R>,
) -> Vec<Vec<usize>> {
    let num_left = supports.len();
    let num_vertices = num_left + num_right;
    // Edge list: (left, right, index within supports[left]).
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();
    for (l, sup) in supports.iter().enumerate() {
        for (j, &r) in sup.iter().enumerate() {
            edges.push((l, r, j));
        }
    }
    if let Some(rng) = rng {
        edges.shuffle(rng);
    }
    let mut degree = vec![0usize; num_vertices];
    for &(l, r, _) in &edges {
        degree[l] += 1;
        degree[num_left + r] += 1;
    }
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    // used[vertex][color] = Some(edge index into `edges`) when an incident edge has that color.
    let mut used: Vec<Vec<Option<usize>>> = vec![vec![None; max_degree]; num_vertices];
    let mut color_of: Vec<Option<usize>> = vec![None; edges.len()];

    let free_color = |used: &[Vec<Option<usize>>], v: usize| -> usize {
        used[v]
            .iter()
            .position(Option::is_none)
            .expect("a free color always exists while the incident edge is uncolored")
    };

    for e in 0..edges.len() {
        let (l, r, _) = edges[e];
        let u = l;
        let v = num_left + r;
        let alpha = free_color(&used, u);
        let beta = free_color(&used, v);
        if alpha != beta && used[v][alpha].is_some() {
            // Flip the alternating alpha/beta path starting at v.
            let mut current = v;
            let mut want = alpha;
            let mut path: Vec<usize> = Vec::new();
            while let Some(edge) = used[current][want] {
                path.push(edge);
                let (el, er, _) = edges[edge];
                let other = if current == el { num_left + er } else { el };
                current = other;
                want = if want == alpha { beta } else { alpha };
            }
            for &edge in &path {
                let old = color_of[edge].expect("path edges are colored");
                let new = if old == alpha { beta } else { alpha };
                let (el, er, _) = edges[edge];
                used[el][old] = None;
                used[num_left + er][old] = None;
                // Temporarily clear; re-set below after all clears to avoid collisions.
                color_of[edge] = Some(new);
            }
            for &edge in &path {
                let new = color_of[edge].expect("just set");
                let (el, er, _) = edges[edge];
                used[el][new] = Some(edge);
                used[num_left + er][new] = Some(edge);
            }
        }
        let color = if used[v][alpha].is_none() && used[u][alpha].is_none() {
            alpha
        } else {
            // Fall back to any color free at both endpoints (always exists after the flip;
            // the scan also covers the alpha == beta case).
            (0..max_degree)
                .find(|&c| used[u][c].is_none() && used[v][c].is_none())
                .expect("Koenig's theorem guarantees a common free color")
        };
        color_of[e] = Some(color);
        used[u][color] = Some(e);
        used[v][color] = Some(e);
    }

    // Re-assemble per-left-vertex color lists parallel to `supports`.
    let mut out: Vec<Vec<usize>> = supports.iter().map(|s| vec![usize::MAX; s.len()]).collect();
    for (e, &(l, _, j)) in edges.iter().enumerate() {
        out[l][j] = color_of[e].expect("all edges colored");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_qec::small::steane_code;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edge_coloring_is_proper_and_uses_max_degree_colors() {
        let supports = vec![
            vec![0, 1, 2, 3],
            vec![1, 2, 4],
            vec![0, 4, 5],
            vec![2, 3, 5],
        ];
        let colors = edge_color_bipartite::<StdRng>(&supports, 6, None);
        // Proper at left vertices.
        for cols in &colors {
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cols.len());
        }
        // Proper at right vertices.
        let mut right_colors: Vec<Vec<usize>> = vec![Vec::new(); 6];
        for (l, sup) in supports.iter().enumerate() {
            for (j, &r) in sup.iter().enumerate() {
                right_colors[r].push(colors[l][j]);
            }
        }
        for cols in &right_colors {
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cols.len());
        }
        // Max degree is 4, so colors must be within 0..4.
        assert!(colors.iter().flatten().all(|&c| c < 4));
    }

    #[test]
    fn edge_coloring_handles_surface_code_tanner_graphs() {
        for d in [3, 5, 7] {
            let (code, _) = rotated_surface_code_with_layout(d);
            let supports: Vec<Vec<usize>> = (0..code.num_x_stabilizers())
                .map(|i| code.stabilizer_support(StabilizerKind::X, i))
                .collect();
            let colors = edge_color_bipartite::<StdRng>(&supports, code.n(), None);
            assert!(colors.iter().flatten().all(|&c| c < 4));
        }
    }

    #[test]
    fn coloration_schedule_is_valid_and_x_precedes_z() {
        let (code, _) = rotated_surface_code_with_layout(5);
        let schedule = ScheduleSpec::coloration(&code);
        schedule.validate(&code).unwrap();
        // Every shared qubit must see its X stabilizer before its Z stabilizer.
        for xi in 0..code.num_x_stabilizers() {
            for zi in 0..code.num_z_stabilizers() {
                for q in code.shared_qubits(xi, zi) {
                    let x_id = schedule.stabilizer_id(StabilizerKind::X, xi);
                    let z_id = schedule.stabilizer_id(StabilizerKind::Z, zi);
                    assert_eq!(schedule.first_on_qubit(q, x_id, z_id), Some(x_id));
                }
            }
        }
        // Depth is at most (#X colors) + (#Z colors) = 4 + 4 for the surface code; ASAP
        // layering may compress it slightly but never below the per-ancilla weight.
        let depth = schedule.depth().unwrap();
        assert!((4..=8).contains(&depth), "coloration depth {depth}");
    }

    #[test]
    fn hand_designed_surface_schedule_is_valid_with_depth_four() {
        for d in [3, 5, 7] {
            let (code, layout) = rotated_surface_code_with_layout(d);
            let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
            schedule.validate(&code).unwrap();
            assert_eq!(schedule.depth().unwrap(), 4, "N/Z schedule depth for d={d}");
        }
    }

    #[test]
    fn poor_surface_schedule_is_still_valid() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_poor(&code, &layout);
        schedule.validate(&code).unwrap();
        assert_eq!(schedule.depth().unwrap(), 4);
    }

    #[test]
    fn commutation_check_catches_single_crossing() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let mut schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        // Flip the relative order on exactly one shared qubit of an X/Z pair.
        let (xi, zi) = (0, 0);
        let shared = code.shared_qubits(xi, zi);
        assert_eq!(shared.len(), 2);
        let x_id = schedule.stabilizer_id(StabilizerKind::X, xi);
        let z_id = schedule.stabilizer_id(StabilizerKind::Z, zi);
        schedule.swap_relative_order(shared[0], x_id, z_id);
        assert!(matches!(
            schedule.check_commutation(&code),
            Err(CircuitError::BreaksCommutation { .. })
        ));
        // Flipping the second shared qubit restores commutation.
        schedule.swap_relative_order(shared[1], x_id, z_id);
        schedule.check_commutation(&code).unwrap();
    }

    #[test]
    fn reorder_before_moves_qubit() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let mut schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let order = schedule.order(0).to_vec();
        assert_eq!(order.len(), 4);
        let (a, b) = (order[3], order[1]);
        schedule.reorder_before(0, a, b);
        let new_order = schedule.order(0).to_vec();
        assert_eq!(new_order.len(), 4);
        let pos_a = new_order.iter().position(|&q| q == a).unwrap();
        let pos_b = new_order.iter().position(|&q| q == b).unwrap();
        assert_eq!(pos_a + 1, pos_b);
    }

    #[test]
    fn cyclic_relative_orders_are_unschedulable() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let mut schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        // Build a cycle between two stabilizers sharing two qubits: make each first on
        // one of the shared qubits while also forcing an order contradiction through the
        // per-stabilizer chains. Easiest robust cycle: stabilizer A before B on qubit q1
        // and B before A on qubit q2 can still be schedulable, so instead create a direct
        // two-node cycle by making the same pair ordered both ways via qubit chains:
        // A: [q1, q2] and B: [q2, q1] with A first on q1 and B first on q2 forces
        // A(q1) < B(q1) <= B(q2)... use three stabilizers to guarantee a cycle instead.
        let x0 = 0;
        let z0 = schedule.stabilizer_id(StabilizerKind::Z, 0);
        let shared = code.shared_qubits(0, 0);
        // A cycle requires: x0 first on shared[0], z0 first on shared[1], and the
        // per-stabilizer orders to traverse the two qubits in opposite directions.
        let (q1, q2) = (shared[0], shared[1]);
        schedule.set_relative_order(q1, x0, z0);
        schedule.set_relative_order(q2, z0, x0);
        // Force x0 to visit q2 before q1 and z0 to visit q1 before q2.
        let x_order = schedule.order(x0).to_vec();
        if x_order.iter().position(|&q| q == q1) < x_order.iter().position(|&q| q == q2) {
            schedule.reorder_before(x0, q2, q1);
        }
        let z_order = schedule.order(z0).to_vec();
        if z_order.iter().position(|&q| q == q2) < z_order.iter().position(|&q| q == q1) {
            schedule.reorder_before(z0, q1, q2);
        }
        assert_eq!(schedule.cnot_layers(), Err(CircuitError::Unschedulable));
    }

    #[test]
    fn cnot_layers_have_no_qubit_conflicts() {
        let (code, layout) = rotated_surface_code_with_layout(5);
        for schedule in [
            ScheduleSpec::surface_hand_designed(&code, &layout),
            ScheduleSpec::coloration(&code),
        ] {
            let layers = schedule.cnot_layers().unwrap();
            let total: usize = layers.iter().map(Vec::len).sum();
            assert_eq!(total, 4 * code.num_stabilizers() - 2 * 2 * (5 - 1));
            for layer in &layers {
                let mut seen = std::collections::HashSet::new();
                for &(s, q) in layer {
                    assert!(seen.insert(("anc", s)), "ancilla used twice in a layer");
                    assert!(seen.insert(("data", q)), "data qubit used twice in a layer");
                }
            }
        }
    }

    #[test]
    fn steane_coloration_schedule_is_valid() {
        let code = steane_code();
        let schedule = ScheduleSpec::coloration(&code);
        schedule.validate(&code).unwrap();
        assert_eq!(schedule.depth().unwrap(), 8);
    }

    #[test]
    fn random_coloration_schedules_differ_but_stay_valid() {
        let (code, _) = rotated_surface_code_with_layout(5);
        let mut rng = StdRng::seed_from_u64(17);
        let a = ScheduleSpec::coloration_random(&code, &mut rng);
        let b = ScheduleSpec::coloration_random(&code, &mut rng);
        a.validate(&code).unwrap();
        b.validate(&code).unwrap();
        assert_ne!(a, b, "random colorations should differ for d=5");
    }

    #[test]
    fn from_components_rejects_conflicting_first_entries() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let orders: Vec<Vec<usize>> = (0..schedule.num_stabilizers())
            .map(|s| schedule.order(s).to_vec())
            .collect();
        let (q, a, b, first) = schedule.relative_entries().next().unwrap();
        let second = if first == a { b } else { a };
        // The same pair ordered twice — even consistently — must be rejected, so a
        // conflicting hand-edit can never silently lose one of its lines.
        let err = ScheduleSpec::from_components(
            schedule.num_x_stabilizers(),
            schedule.num_z_stabilizers(),
            orders,
            [(q, first, second), (q, second, first)],
        )
        .unwrap_err();
        assert!(
            matches!(err, CircuitError::InvalidSchedule { reason } if reason.contains("twice"))
        );
    }

    #[test]
    fn check_covers_requires_same_kind_pairs_to_be_ordered() {
        use prophunt_qec::small::quantum_repetition_code;
        let code = quantum_repetition_code(3);
        // Both Z checks act on qubit 1, but the file gave no `first 1 : 0 1` line.
        // Commutation checking never sees same-kind pairs, so without this check the
        // schedule would reach circuit construction and collide two CNOTs on qubit 1.
        let spec = ScheduleSpec::from_components(0, 2, vec![vec![1, 0], vec![1, 2]], []).unwrap();
        assert!(matches!(
            spec.check_covers(&code),
            Err(CircuitError::InvalidSchedule { .. })
        ));
        assert!(spec.validate_for_code(&code).is_err());
        // Adding the missing order makes the same schedule pass.
        let spec =
            ScheduleSpec::from_components(0, 2, vec![vec![1, 0], vec![1, 2]], [(1, 0, 1)]).unwrap();
        spec.validate_for_code(&code).unwrap();
    }

    #[test]
    fn try_from_orders_rejects_single_out_of_range_qubit_order() {
        use prophunt_qec::small::quantum_repetition_code;
        let code = quantum_repetition_code(3);
        // z checks act on {0,1} and {1,2}; qubit 2's order names a bogus stabilizer
        // as its only entry, which must still be caught.
        let err = ScheduleSpec::try_from_orders(
            &code,
            vec![],
            vec![vec![0, 1], vec![1, 2]],
            vec![vec![0], vec![0, 1], vec![999]],
        )
        .unwrap_err();
        assert!(
            matches!(err, CircuitError::InvalidSchedule { reason } if reason.contains("out-of-range"))
        );
    }

    #[test]
    fn stabilizer_id_roundtrip() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::coloration(&code);
        for s in 0..schedule.num_stabilizers() {
            let (kind, idx) = schedule.kind_index(s);
            assert_eq!(schedule.stabilizer_id(kind, idx), s);
            assert_eq!(schedule.kind_of(s), kind);
        }
    }
}
