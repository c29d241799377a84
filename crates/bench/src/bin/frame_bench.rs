//! LER throughput and observability overhead on the Table 1 code suite.
//!
//! This is the one harness for the suite LER workload. For every benchmark
//! code it runs the same fixed shot budget through
//! [`estimate_logical_error_rate`] at the Table 1 operating point
//! (p = 1e-3) with the production decoder per family — union-find on the
//! matchable surface codes, BP+OSD on the LDPC codes — alternating three
//! observability configurations each rep:
//!
//! * **no obs** — a disabled handle, the throughput baseline;
//! * **registry** — the production metrics registry (counters per chunk,
//!   `<stage>.ns` span histograms), measured twice per rep: the second,
//!   byte-for-byte identical run is the tracer-free *control*, whose
//!   "overhead" against the first bounds timer noise;
//! * **traced** — the registry plus a [`Tracer`] (a span per runtime task,
//!   LER chunk and pipeline stage).
//!
//! Each configuration keeps its minimum wall over the reps, so one scheduler
//! stall cannot bias either side. Every row also reports the batch decode
//! pipeline's profile: `distinct_syndromes` (non-zero syndromes actually
//! decoded, `ler.decode.cache.miss`) and `zero_fraction` (shots on the
//! zero-syndrome fast path). At the operating point `bb_72_12`'s chunks hold
//! almost no repeated syndromes, so its BP+OSD arithmetic caps the LDPC rows.
//!
//! Deterministic gates always run, smoke profile included:
//!
//! * same-frames parity — on identical sampled error frames, per-shot
//!   [`Decoder::decode`], plain [`Decoder::decode_batch`] (the cache-off
//!   reference) and the cached batch pipeline ([`decode_shots_cached`]) must
//!   agree shot for shot;
//! * observability must not perturb results — every configuration reports
//!   the identical failure count;
//! * the registry must observe the run — `ler.shots` equals the exact shot
//!   budget over the reps, and the per-stage histograms are populated;
//! * the tracer must observe the run — every traced rep records the same,
//!   nonzero number of events and drops none.
//!
//! The timing gates (suite aggregate: registry <= 3% over no obs, traced
//! <= 5% over the registry, control within 1% of the registry) only run at the
//! full profile: the smoke budget's windows are short enough that timer noise
//! would dominate. The committed `BENCH_frames.json` records the full-profile
//! run; `PROPHUNT_SMOKE=1` trims the budget and skips the file write.

use prophunt_bench::{benchmark_suite, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_decoders::{
    decode_shots_cached, estimate_logical_error_rate, BpOsdDecoder, DecodeCache, Decoder,
    LerOptions, UnionFindDecoder,
};
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{write_report, Json};
use prophunt_gf2::transpose_lane_words;
use prophunt_obs::{Obs, Tracer};
use prophunt_runtime::Runtime;
use std::time::{Duration, Instant};

/// Suite-aggregate overhead ceilings (percent), full profile only.
const REGISTRY_MAX_PCT: f64 = 3.0;
const TRACED_MAX_PCT: f64 = 5.0;
const CONTROL_MAX_PCT: f64 = 1.0;

/// Minimum walls of one code's configurations over the reps.
#[derive(Clone, Copy)]
struct Walls {
    plain: Duration,
    registry: Duration,
    control: Duration,
    traced: Duration,
}

impl Walls {
    const ZERO: Walls = Walls {
        plain: Duration::ZERO,
        registry: Duration::ZERO,
        control: Duration::ZERO,
        traced: Duration::ZERO,
    };
    const UNMEASURED: Walls = Walls {
        plain: Duration::MAX,
        registry: Duration::MAX,
        control: Duration::MAX,
        traced: Duration::MAX,
    };

    fn add(&mut self, other: &Walls) {
        self.plain += other.plain;
        self.registry += other.registry;
        self.control += other.control;
        self.traced += other.traced;
    }

    /// `(registry, traced, control)` overheads in percent: the registry
    /// against no obs, tracing and the control against the registry.
    fn overheads_pct(&self) -> (f64, f64, f64) {
        let pct = |wall: Duration, base: Duration| {
            100.0 * (wall.as_secs_f64() / base.as_secs_f64().max(1e-12) - 1.0)
        };
        (
            pct(self.registry, self.plain),
            pct(self.traced, self.registry),
            pct(self.control, self.registry),
        )
    }
}

fn sps(shots: usize, wall: Duration) -> f64 {
    shots as f64 / wall.as_secs_f64().max(1e-12)
}

/// Same-frames decode parity: sample `shots` error frames once, then decode
/// the identical syndromes through per-shot `decode`, the decoder's plain
/// `decode_batch` (the cache-off reference) and the cached batch pipeline.
/// Returns the (common) failure count; panics when any per-shot
/// prediction differs anywhere in the stack.
fn assert_same_frames_parity(
    name: &str,
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
) -> usize {
    let mut sampler = dem.sampler(seed);
    let mut det_frames = vec![0u64; dem.num_detectors()];
    let mut obs_frames = vec![0u64; dem.num_observables()];
    let mut failures = 0usize;
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
        let det_shots = transpose_lane_words(&det_frames, lanes);
        let obs_shots = transpose_lane_words(&obs_frames, lanes);
        let (batch, _) = decoder.decode_batch(&det_shots);
        let (cached, _) = decode_shots_cached(decoder, &det_shots, DecodeCache::On);
        for (lane, (shot, observed)) in det_shots.iter().zip(&obs_shots).enumerate() {
            let reference = decoder.decode(shot);
            for (path, prediction) in [
                ("decode_batch", &batch[lane]),
                ("the cached pipeline", &cached[lane]),
            ] {
                assert_eq!(
                    &reference, prediction,
                    "{name}: per-shot decode and {path} disagree on identical frames \
                     (seed {seed}, lane {lane})"
                );
            }
            failures += usize::from(&reference != observed);
        }
        remaining -= lanes;
    }
    failures
}

fn main() {
    let smoke = prophunt_bench::smoke_profile();
    let runtime = runtime_config_from_env();
    let shots = if smoke { 256 } else { 4096 };
    let parity_shots = if smoke { 128 } else { 256 };
    let reps = if smoke { 2 } else { 5 };
    println!("LER throughput and observability overhead: frames engine, Table 1 suite");
    println!(
        "  {shots} shots per code and configuration, best of {reps} alternating reps, \
         {} threads, chunk {}, seed {} (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.threads, runtime.chunk_size, runtime.seed
    );
    println!(
        "{:<14} {:>6} {:>11} {:>9} {:>8} {:>8} {:>7} {:>9} {:>6}  parity",
        "code", "shots", "shots/s", "registry", "traced", "control", "events", "distinct", "zero"
    );
    let mut records = Vec::new();
    let mut totals = Walls::ZERO;
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        let name = bench.code.name().to_string();
        // The Table 1 operating point (p = 1e-3), with the production decoder
        // for each family. This is the workload `tab01_codes` actually runs,
        // so the measured shots/sec is the real campaign hot path.
        let p = 1e-3;
        let schedule = bench
            .hand_designed
            .clone()
            .unwrap_or_else(|| ScheduleSpec::coloration(&bench.code));
        let exp = MemoryExperiment::build(&bench.code, &schedule, bench.rounds, MemoryBasis::Z)
            .expect("benchmark schedule must be valid for its code");
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p));
        let decoder: Box<dyn Decoder> = if name.starts_with("surface") {
            Box::new(UnionFindDecoder::new(&dem))
        } else {
            Box::new(BpOsdDecoder::new(&dem))
        };
        let decoder = &*decoder;
        let parity_failures = assert_same_frames_parity(
            &name,
            &dem,
            decoder,
            parity_shots,
            stage_seed(&runtime, 90 + stage as u64),
        );

        let options = LerOptions::fixed(shots, stage_seed(&runtime, 80 + stage as u64));
        let run = |obs: &Obs| {
            let rt = Runtime::with_obs(runtime, obs.clone());
            let t = Instant::now();
            let (estimate, _) =
                estimate_logical_error_rate(&dem, decoder, options, &rt, &mut |_| {});
            (estimate.failures, t.elapsed())
        };
        // One registry per measured configuration, shared across the reps, so
        // the counter totals are an exact function of (shots, reps).
        let registry = Obs::enabled();
        let control = Obs::enabled();
        let mut walls = Walls::UNMEASURED;
        let mut failures = None;
        let mut events = None;
        for _ in 0..reps {
            let tracer = Tracer::new();
            let traced = Obs::enabled().with_tracer(tracer.clone());
            let mut measure = |obs: &Obs, best: &mut Duration| {
                let (f, wall) = run(obs);
                *best = (*best).min(wall);
                // Deterministic gate: observability is out-of-band of the seed
                // streams, so no configuration may change a failure count.
                assert_eq!(
                    *failures.get_or_insert(f),
                    f,
                    "{name}: an observability configuration changed the failure count"
                );
            };
            measure(&Obs::disabled(), &mut walls.plain);
            measure(&registry, &mut walls.registry);
            measure(&control, &mut walls.control);
            measure(&traced, &mut walls.traced);
            // Deterministic gate: the span structure is a function of the
            // deterministic chunking, so every traced rep records the same,
            // nonzero number of events — and drops none.
            let log = tracer.drain();
            assert_eq!(log.dropped, 0, "{name}: trace dropped events");
            assert!(!log.events.is_empty(), "{name}: trace recorded nothing");
            assert_eq!(
                *events.get_or_insert(log.events.len()),
                log.events.len(),
                "{name}: traced event count varies across identical reps"
            );
        }
        // Deterministic gate: the registry observed exactly the shot budget,
        // and the per-stage frame-pipeline histograms are populated.
        let snap = registry.snapshot().expect("an enabled registry snapshots");
        assert_eq!(
            snap.counter("ler.shots"),
            (shots * reps) as u64,
            "{name}: ler.shots must equal the exact shot budget"
        );
        for hist in [
            "ler.frames.sample.ns",
            "ler.frames.transpose.ns",
            "ler.frames.decode.ns",
        ] {
            assert!(
                snap.histogram(hist).is_some_and(|h| h.count > 0),
                "{name}: empty histogram {hist}"
            );
        }
        let distinct_syndromes = snap.counter("ler.decode.cache.miss") / reps as u64;
        let zero_fraction = snap.counter("ler.decode.zero") as f64 / (shots * reps) as f64;
        let events = events.unwrap_or(0);
        let (registry_pct, traced_pct, control_pct) = walls.overheads_pct();
        println!(
            "{:<14} {:>6} {:>11.0} {:>8.2}% {:>7.2}% {:>7.2}% {:>7} {:>9} {:>5.0}%  ok ({}/{} failures)",
            name,
            shots,
            sps(shots, walls.plain),
            registry_pct,
            traced_pct,
            control_pct,
            events,
            distinct_syndromes,
            100.0 * zero_fraction,
            parity_failures,
            parity_shots,
        );
        totals.add(&walls);
        records.push(ReportRecord::Table {
            name: "frame_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(name)),
                ("p".into(), Json::Float(p)),
                ("shots".into(), Json::UInt(shots as u64)),
                ("failures".into(), Json::UInt(failures.unwrap_or(0) as u64)),
                ("shots_per_sec".into(), Json::Float(sps(shots, walls.plain))),
                ("registry_overhead_pct".into(), Json::Float(registry_pct)),
                ("traced_overhead_pct".into(), Json::Float(traced_pct)),
                ("control_overhead_pct".into(), Json::Float(control_pct)),
                ("events".into(), Json::UInt(events as u64)),
                ("parity_shots".into(), Json::UInt(parity_shots as u64)),
                ("parity_failures".into(), Json::UInt(parity_failures as u64)),
                ("distinct_syndromes".into(), Json::UInt(distinct_syndromes)),
                ("zero_fraction".into(), Json::Float(zero_fraction)),
            ],
        });
    }
    let (registry_pct, traced_pct, control_pct) = totals.overheads_pct();
    // One record per code so far.
    let suite_shots = shots * records.len();
    println!(
        "{:<14} {:>6} {:>11.0} {:>8.2}% {:>7.2}% {:>7.2}%",
        "suite",
        suite_shots,
        sps(suite_shots, totals.plain),
        registry_pct,
        traced_pct,
        control_pct
    );
    records.push(ReportRecord::Table {
        name: "frame_bench".into(),
        fields: vec![
            ("code".into(), Json::Str("suite".into())),
            ("shots".into(), Json::UInt(suite_shots as u64)),
            (
                "shots_per_sec".into(),
                Json::Float(sps(suite_shots, totals.plain)),
            ),
            ("registry_overhead_pct".into(), Json::Float(registry_pct)),
            ("traced_overhead_pct".into(), Json::Float(traced_pct)),
            ("control_overhead_pct".into(), Json::Float(control_pct)),
        ],
    });
    if smoke {
        // Never clobber the committed full-profile baseline with trimmed
        // smoke numbers.
        println!("smoke mode: skipping BENCH_frames.json (baseline is the full profile)");
        return;
    }
    assert!(
        registry_pct <= REGISTRY_MAX_PCT,
        "the obs registry must cost <= {REGISTRY_MAX_PCT}% of LER throughput on the \
         suite aggregate (got {registry_pct:.2}%)"
    );
    assert!(
        traced_pct <= TRACED_MAX_PCT,
        "full tracing must cost <= {TRACED_MAX_PCT}% of LER throughput on the suite \
         aggregate (got {traced_pct:.2}%)"
    );
    assert!(
        control_pct.abs() <= CONTROL_MAX_PCT,
        "a tracer-free registry is the baseline configuration; the control run must \
         agree within {CONTROL_MAX_PCT}% (got {control_pct:.2}%)"
    );
    std::fs::write("BENCH_frames.json", write_report(&records))
        .expect("cannot write BENCH_frames.json");
    println!("wrote BENCH_frames.json ({} rows)", records.len());
}
