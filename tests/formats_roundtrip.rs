//! Integration tests of the `prophunt-formats` interchange layer: the checked-in
//! golden `.dem` fixture, bit-identical LER on parsed-back models, and the
//! optimize → export → resume workflow the `prophunt` CLI is built on.

use prophunt_suite::circuit::schedule::ScheduleSpec;
use prophunt_suite::circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_suite::core::{PropHunt, PropHuntConfig};
use prophunt_suite::decoders::{estimate_logical_error_rate, BpOsdDecoder, LerOptions};
use prophunt_suite::formats::{
    parse_dem, parse_report, parse_schedule, report_to_result, result_to_report, write_dem,
    write_report, write_schedule,
};
use prophunt_suite::qec::surface::rotated_surface_code_with_layout;
use prophunt_suite::runtime::{Runtime, RuntimeConfig};

const GOLDEN_DEM: &str = include_str!("golden/surface_d3_hand_r3_p1e-3.dem");
const GOLDEN_SI1000_DEM: &str = include_str!("golden/surface_d3_hand_r3_si1000_1e-3.dem");

/// The exact model the golden fixture was exported from: d = 3 rotated surface
/// code, hand-designed schedule, 3 rounds, Z memory, p = 1e-3.
fn golden_reference_dem() -> DetectorErrorModel {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3))
}

/// The same experiment under the SI1000 noise family at p = 1e-3 — the second
/// golden-pinned noise model (the family shipped with the Session/Job redesign
/// but only the uniform model was golden-pinned until now).
fn golden_si1000_reference_dem() -> DetectorErrorModel {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    DetectorErrorModel::from_experiment(&exp, &NoiseModel::si1000(1e-3))
}

#[test]
fn golden_dem_fixture_matches_the_writer_byte_for_byte() {
    let dem = golden_reference_dem();
    assert_eq!(
        write_dem(&dem),
        GOLDEN_DEM,
        "the exported d=3 DEM changed; if intentional, regenerate tests/golden/ (see FORMATS.md)"
    );
}

#[test]
fn golden_si1000_dem_fixture_matches_the_writer_byte_for_byte() {
    let dem = golden_si1000_reference_dem();
    assert_eq!(
        write_dem(&dem),
        GOLDEN_SI1000_DEM,
        "the exported si1000 d=3 DEM changed; if intentional, regenerate tests/golden/ with \
         `prophunt dem --code surface:3 --schedule hand --rounds 3 --noise si1000:0.001` \
         (see FORMATS.md)"
    );
}

#[test]
fn golden_si1000_dem_parses_back_to_the_same_distribution() {
    let parsed = parse_dem(GOLDEN_SI1000_DEM).unwrap();
    let reference = golden_si1000_reference_dem();
    assert!(parsed.same_distribution(&reference));
    assert_eq!(parsed.num_detectors(), 24);
    assert_eq!(parsed.num_observables(), 1);
    // SI1000 is a genuinely different distribution from uniform depolarizing at
    // the same p — the fixture must not silently alias the uniform one.
    assert!(!parsed.same_distribution(&golden_reference_dem()));
}

#[test]
fn golden_dem_parses_back_to_the_same_distribution() {
    let parsed = parse_dem(GOLDEN_DEM).unwrap();
    let reference = golden_reference_dem();
    assert!(parsed.same_distribution(&reference));
    assert_eq!(parsed.num_detectors(), 24);
    assert_eq!(parsed.num_observables(), 1);
}

#[test]
fn parsed_golden_dem_gives_bit_identical_ler_counts() {
    let reference = golden_reference_dem();
    let parsed = parse_dem(GOLDEN_DEM).unwrap();
    let dec_ref = BpOsdDecoder::new(&reference);
    let dec_parsed = BpOsdDecoder::new(&parsed);
    let (shots, seed, chunk_size) = (600, 42, 64);
    let options = LerOptions::fixed(shots, seed);
    let baseline = estimate_logical_error_rate(
        &reference,
        &dec_ref,
        options,
        &Runtime::new(RuntimeConfig::new(1, chunk_size, 0)),
        &mut |_| {},
    )
    .0;
    // The parsed-back model must reproduce the failure count bit-for-bit at the
    // fixed (seed, chunk_size), at any thread count.
    for threads in [1, 4] {
        let estimate = estimate_logical_error_rate(
            &parsed,
            &dec_parsed,
            options,
            &Runtime::new(RuntimeConfig::new(threads, chunk_size, 0)),
            &mut |_| {},
        )
        .0;
        assert_eq!(estimate.failures, baseline.failures, "threads = {threads}");
        assert_eq!(estimate.shots, baseline.shots);
    }
}

#[test]
fn exported_schedule_resumes_to_the_same_final_depth() {
    // The CLI acceptance workflow: optimize, write the final schedule file,
    // then re-run with --resume from that file. The resumed run must reproduce
    // the same final depth.
    let (code, _) = rotated_surface_code_with_layout(3);
    let initial = ScheduleSpec::coloration(&code);
    let config = PropHuntConfig::quick(3).with_seed(11);
    let prophunt = PropHunt::new(code.clone(), config);
    let first = prophunt.try_optimize(initial).unwrap();

    let schedule_file = write_schedule(&first.final_schedule);
    let resumed_from = parse_schedule(&schedule_file).unwrap();
    assert_eq!(resumed_from, first.final_schedule);

    let resumed = prophunt.try_optimize(resumed_from).unwrap();
    resumed.final_schedule.validate(&code).unwrap();
    assert_eq!(
        resumed.final_depth(),
        first.final_depth(),
        "resuming from the exported schedule must reproduce the final depth"
    );
}

#[test]
fn search_report_resumes_to_the_same_final_depth() {
    // The `prophunt search --resume <report>` workflow: run a search that
    // streams incumbent records, re-seed a second portfolio from the last
    // incumbent's embedded schedule, and check the resumed run starts at — and
    // never regresses from — the first run's final depth.
    use prophunt_suite::api::{Event, ExperimentSpec, SearchJob, Session};
    use prophunt_suite::formats::report::ReportRecord;

    let spec = ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .build()
        .unwrap();
    let code = spec.code().clone();
    let job = SearchJob::new(spec.clone())
        .with_rounds(3)
        .with_proposals(16)
        .with_samples(10);
    let mut session = Session::new(RuntimeConfig::new(2, 64, 11));
    // Stream incumbent records exactly like `prophunt search` writes them.
    let mut records = Vec::new();
    let first = session
        .run_search(&job, |event| {
            if let Event::Incumbent {
                round,
                strategy,
                instance,
                depth,
                improved,
                schedule,
            } = event
            {
                records.push(ReportRecord::Incumbent {
                    round: *round as u64,
                    strategy: strategy.clone(),
                    instance: *instance as u64,
                    depth: *depth as u64,
                    improved: *improved,
                    schedule: write_schedule(schedule),
                });
            }
        })
        .unwrap();

    // Round-trip the report through the on-disk format and pull the last
    // incumbent, as the CLI's --resume does.
    let parsed = parse_report(&write_report(&records)).unwrap();
    let last = parsed
        .iter()
        .rev()
        .find_map(|record| match record {
            ReportRecord::Incumbent { schedule, .. } => Some(schedule.clone()),
            _ => None,
        })
        .expect("search reports always carry one incumbent record per round");
    let resumed_from = parse_schedule(&last).unwrap();
    assert_eq!(resumed_from, first.result.best.schedule);
    resumed_from.validate_for_code(&code).unwrap();

    let resumed_job = SearchJob::new(
        spec.with_schedule(resumed_from.clone())
            .expect("resumed schedule is valid"),
    )
    .with_rounds(2)
    .with_proposals(16)
    .with_samples(10);
    let resumed = session.run_search_quiet(&resumed_job).unwrap();
    assert_eq!(
        resumed.result.initial_depth, first.result.best.depth,
        "the resumed portfolio must start from the first run's final depth"
    );
    assert!(
        resumed.result.best.depth <= first.result.best.depth,
        "resuming must never regress the incumbent depth"
    );
    resumed
        .result
        .best
        .schedule
        .validate_for_code(&code)
        .unwrap();
}

#[test]
fn optimization_reports_round_trip_through_json_lines() {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let config = PropHuntConfig {
        iterations: 2,
        samples_per_iteration: 15,
        ..PropHuntConfig::quick(3)
    };
    let seed = config.seed();
    let chunk = config.runtime.chunk_size;
    let prophunt = PropHunt::new(code.clone(), config);

    // Stream records through the observer exactly like `prophunt optimize` does.
    let mut streamed = Vec::new();
    let result = prophunt
        .try_optimize_with_observer(poor, |record| streamed.push(record.clone()))
        .unwrap();
    assert_eq!(streamed, result.records);

    let text = write_report(&result_to_report(&result, code.name(), seed, chunk));
    let rebuilt = report_to_result(&parse_report(&text).unwrap()).unwrap();
    assert_eq!(rebuilt, result);
}

#[test]
fn dem_export_of_an_optimized_schedule_round_trips_with_identical_ler() {
    // End-to-end file workflow: optimize, export the DEM of the final schedule,
    // parse it back, and compare Monte-Carlo failure counts bit-for-bit.
    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let prophunt = PropHunt::new(code.clone(), PropHuntConfig::quick(3).with_seed(7));
    let result = prophunt.try_optimize(poor).unwrap();
    let exp = MemoryExperiment::build(&code, &result.final_schedule, 3, MemoryBasis::Z).unwrap();
    let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(3e-3));

    let parsed = parse_dem(&write_dem(&dem)).unwrap();
    assert!(parsed.same_distribution(&dem));

    let runtime = Runtime::new(RuntimeConfig::new(2, 64, 0));
    let in_memory = estimate_logical_error_rate(
        &dem,
        &BpOsdDecoder::new(&dem),
        LerOptions::fixed(400, 9),
        &runtime,
        &mut |_| {},
    )
    .0;
    let from_file = estimate_logical_error_rate(
        &parsed,
        &BpOsdDecoder::new(&parsed),
        LerOptions::fixed(400, 9),
        &runtime,
        &mut |_| {},
    )
    .0;
    assert_eq!(in_memory.failures, from_file.failures);
}
