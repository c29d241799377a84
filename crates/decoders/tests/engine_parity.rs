//! Frame-engine/scalar decode parity on identical error frames.
//!
//! The two estimation engines lay out the per-chunk RNG stream differently, so
//! they sample different shot sequences — but the *decode* stage must be
//! bit-identical: the frame engine's `decode_batch` over transposed frames has
//! to return exactly what the scalar path's per-shot `decode` returns on the
//! same syndromes. These proptests pin that on a matchable surface code (d3 and
//! d5) and on the non-matchable `bb_72_12` bivariate-bicycle code, for both the
//! batch-overriding decoders.

use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_decoders::{
    decode_shots_cached, BpOsdDecoder, DecodeCache, Decoder, UnionFindDecoder,
};
use prophunt_gf2::{transpose_lane_words, BitVec};
use prophunt_qec::product::{bivariate_bicycle, generalized_bicycle};
use prophunt_qec::surface::rotated_surface_code_with_layout;
use proptest::prelude::*;
use std::sync::OnceLock;

fn surface_dem(d: usize, p: f64) -> DetectorErrorModel {
    let (code, layout) = rotated_surface_code_with_layout(d);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
}

fn bb_72_12_dem(p: f64) -> DetectorErrorModel {
    let code = bivariate_bicycle(
        6,
        6,
        &[(3, 0), (0, 1), (0, 2)],
        &[(0, 3), (1, 0), (2, 0)],
        "bb_72_12",
    );
    let schedule = ScheduleSpec::coloration(&code);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
}

fn gb_18_2_dem(p: f64) -> DetectorErrorModel {
    let code = generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2");
    let schedule = ScheduleSpec::coloration(&code);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
}

/// Samples `shots` error frames into per-shot syndrome BitVecs (the same
/// `sample_frames` → `transpose_lane_words` pipeline the frames engine runs).
fn sample_chunk(dem: &DetectorErrorModel, shots: usize, seed: u64) -> Vec<BitVec> {
    let mut sampler = dem.sampler(seed);
    let mut det_frames = vec![0u64; dem.num_detectors()];
    let mut obs_frames = vec![0u64; dem.num_observables()];
    let mut chunk = Vec::with_capacity(shots);
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
        chunk.extend(transpose_lane_words(&det_frames, lanes));
        remaining -= lanes;
    }
    chunk
}

/// The test fixtures, built once: `(name, model, decoder)` triples. Error
/// rates are high enough that sampled frames regularly contain multi-error
/// shots (exercising the BP non-convergence → OSD fallback path).
type Fixture = (&'static str, DetectorErrorModel, Box<dyn Decoder>);

fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let d3 = surface_dem(3, 2e-2);
        let d3_uf = surface_dem(3, 2e-2);
        let d5 = surface_dem(5, 8e-3);
        let bb = bb_72_12_dem(3e-3);
        vec![
            (
                "surface_d3/bposd",
                d3.clone(),
                Box::new(BpOsdDecoder::new(&d3)) as Box<dyn Decoder>,
            ),
            (
                "surface_d3/unionfind",
                d3_uf.clone(),
                Box::new(UnionFindDecoder::new(&d3_uf)),
            ),
            (
                "surface_d5/bposd",
                d5.clone(),
                Box::new(BpOsdDecoder::new(&d5)),
            ),
            (
                "bb_72_12/bposd",
                bb.clone(),
                Box::new(BpOsdDecoder::new(&bb)),
            ),
        ]
    })
}

proptest! {
    // Each case decodes up to 64 shots twice across four fixtures; a few cases
    // with random lane counts already cover partial and full words.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any seed and lane count, the frame pipeline's per-shot predictions
    /// (`sample_frames` → `transpose_lane_words` → `decode_batch`) are exactly
    /// the scalar `decode` of the same transposed syndromes.
    #[test]
    fn frame_pipeline_decodes_equal_the_scalar_path_per_shot(
        seed in any::<u64>(),
        lanes in 1usize..65,
    ) {
        for (name, dem, decoder) in fixtures() {
            let mut sampler = dem.sampler(seed);
            let mut det_frames = vec![0u64; dem.num_detectors()];
            let mut obs_frames = vec![0u64; dem.num_observables()];
            sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
            let det_shots = transpose_lane_words(&det_frames, lanes);
            prop_assert_eq!(det_shots.len(), lanes);
            let (batch, _) = decoder.decode_batch(&det_shots);
            prop_assert_eq!(batch.len(), lanes);
            for (lane, shot) in det_shots.iter().enumerate() {
                let scalar = decoder.decode(shot);
                prop_assert_eq!(
                    &batch[lane], &scalar,
                    "{} seed {} lane {}/{} diverged", name, seed, lane, lanes
                );
            }
        }
    }

    /// For any seed and chunk size, the *full* batch stack — the zero-syndrome
    /// fast path and the syndrome-dedup cache in front of `decode_batch` —
    /// returns exactly the scalar `decode` of every shot, with the cache on
    /// and off, on the two LDPC codes whose chunks mix zero, repeated and
    /// OSD-fallback syndromes. The pipeline stats must also balance: every
    /// shot is exactly one of zero / cache hit / distinct decode.
    #[test]
    fn cached_batch_stack_equals_the_scalar_path_per_shot(
        seed in any::<u64>(),
        shots in 1usize..129,
    ) {
        let models = [
            ("gb_18_2", gb_18_2_dem(1e-3)),
            ("bb_72_12", bb_72_12_dem(1e-3)),
        ];
        for (name, dem) in &models {
            let decoder = BpOsdDecoder::new(dem);
            let chunk = sample_chunk(dem, shots, seed);
            let (cached, stats) = decode_shots_cached(&decoder, &chunk, DecodeCache::On);
            let (plain, _) = decode_shots_cached(&decoder, &chunk, DecodeCache::Off);
            prop_assert_eq!(cached.len(), shots);
            prop_assert_eq!(
                stats.zero + stats.cache_hits + stats.cache_misses,
                shots,
                "{}: every shot is zero, a hit, or a distinct decode", name
            );
            prop_assert_eq!(
                stats.bp_converged + stats.osd_calls,
                stats.cache_misses,
                "{}: every distinct syndrome converges in BP or falls to OSD", name
            );
            for (i, shot) in chunk.iter().enumerate() {
                let scalar = decoder.decode(shot);
                prop_assert_eq!(
                    &cached[i], &scalar,
                    "{} seed {} shot {}/{} diverged (cache on)", name, seed, i, shots
                );
                prop_assert_eq!(
                    &plain[i], &scalar,
                    "{} seed {} shot {}/{} diverged (cache off)", name, seed, i, shots
                );
            }
        }
    }
}

/// A crafted chunk pinning the cache's fan-out ordering: duplicates of two
/// distinct non-zero syndromes interleaved with all-zero frames. The cache
/// must decode each distinct syndrome exactly once (in first-occurrence
/// order), fan the prediction back out to every duplicate position, and
/// short-circuit the zero frames — with the stats accounting for every shot.
#[test]
fn crafted_duplicates_and_zero_syndromes_pin_fan_out_ordering() {
    let dem = gb_18_2_dem(1e-3);
    let decoder = BpOsdDecoder::new(&dem);
    // Two distinct non-zero syndromes from the sampled stream (any two
    // distinct ones will do; seeds chosen so the first block contains both).
    let sampled = sample_chunk(&dem, 64, 11);
    let mut nonzero = sampled.iter().filter(|s| !s.is_zero());
    let s1 = nonzero
        .next()
        .expect("seed 11 samples a non-zero syndrome")
        .clone();
    let s2 = nonzero
        .find(|s| *s != &s1)
        .expect("seed 11 samples two distinct non-zero syndromes")
        .clone();
    let zero = BitVec::zeros(dem.num_detectors());
    let chunk = vec![
        zero.clone(),
        s1.clone(),
        s2.clone(),
        s1.clone(),
        zero.clone(),
        s2.clone(),
        s1.clone(),
    ];
    let (predictions, stats) = decode_shots_cached(&decoder, &chunk, DecodeCache::On);
    // Stats: two zero shots, two distinct decodes (s1 then s2), three hits.
    assert_eq!(stats.zero, 2);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_hits, 3);
    // Fan-out: every duplicate position carries the identical prediction.
    assert_eq!(predictions[3], predictions[1]);
    assert_eq!(predictions[6], predictions[1]);
    assert_eq!(predictions[5], predictions[2]);
    assert_eq!(predictions[4], predictions[0]);
    // And each position equals the scalar decode of its own syndrome — the
    // strict batch contract, including the zero fast path.
    for (i, shot) in chunk.iter().enumerate() {
        assert_eq!(predictions[i], decoder.decode(shot), "shot {i}");
    }
    // The cache-off reference path returns the same predictions without
    // using the pipeline (no zero/hit/miss tallies).
    let (plain, off_stats) = decode_shots_cached(&decoder, &chunk, DecodeCache::Off);
    assert_eq!(plain, predictions);
    assert_eq!(off_stats.zero, 0);
    assert_eq!(off_stats.cache_hits, 0);
    assert_eq!(off_stats.cache_misses, 0);
}
