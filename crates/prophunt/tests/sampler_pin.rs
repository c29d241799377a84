//! Pinned fingerprints of the sample stage.
//!
//! Every seeded `find_ambiguous_subgraph` draw on the `gb_36_2` and
//! `surface_d5` coloration circuits, in both memory bases, is folded into one
//! FNV-1a hash of its detectors, contained errors, `H'` and `L'` (a draw that
//! gives up folds in a marker instead). The sampler's frontier order,
//! contained-column order and RNG draws are all part of what the optimizer's
//! results depend on, so any change to them moves a pin here.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt_circuit::{MemoryBasis, ScheduleSpec};
use prophunt_gf2::BitMatrix;
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code;
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded draws per circuit and expansion steps per draw (the quick profile's).
const SEEDS: u64 = 40;
const MAX_STEPS: usize = 60;

/// A 64-bit FNV-1a hasher: stable across Rust releases, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: usize) {
        for byte in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn list(&mut self, xs: &[usize]) {
        self.word(xs.len());
        xs.iter().for_each(|&x| self.word(x));
    }

    fn matrix(&mut self, m: &BitMatrix) {
        self.word(m.num_rows());
        self.word(m.num_cols());
        for r in 0..m.num_rows() {
            for c in (0..m.num_cols()).filter(|&c| m.get(r, c)) {
                self.word(r);
                self.word(c);
            }
        }
    }
}

/// Returns `(draws that found a subgraph, fingerprint of every draw)`.
fn fingerprint(code: &CssCode, rounds: usize, basis: MemoryBasis) -> (usize, u64) {
    let schedule = ScheduleSpec::coloration(code);
    let graph = DecodingGraph::build(code, &schedule, rounds, basis, 1e-3).unwrap();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut found = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        match find_ambiguous_subgraph(&graph, &mut rng, MAX_STEPS) {
            Some(sub) => {
                found += 1;
                hash.list(&sub.detectors);
                hash.list(&sub.errors);
                hash.matrix(&sub.h_sub);
                hash.matrix(&sub.l_sub);
            }
            None => hash.word(usize::MAX),
        }
    }
    (found, hash.0)
}

fn gb_36_2() -> CssCode {
    generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2")
}

#[test]
fn gb_36_2_z_draws_are_pinned() {
    assert_eq!(
        fingerprint(&gb_36_2(), 3, MemoryBasis::Z),
        (40, 8272718015505650225)
    );
}

#[test]
fn gb_36_2_x_draws_are_pinned() {
    assert_eq!(
        fingerprint(&gb_36_2(), 3, MemoryBasis::X),
        (40, 16217209056374569356)
    );
}

#[test]
fn surface_d5_z_draws_are_pinned() {
    assert_eq!(
        fingerprint(&rotated_surface_code(5), 5, MemoryBasis::Z),
        (40, 4456329381219359949)
    );
}

#[test]
fn surface_d5_x_draws_are_pinned() {
    assert_eq!(
        fingerprint(&rotated_surface_code(5), 5, MemoryBasis::X),
        (40, 15184515711753592256)
    );
}
