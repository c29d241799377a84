//! Cross-crate integration tests: code construction -> schedule -> circuit -> detector
//! error model -> decoding -> PropHunt optimization.

use prophunt_suite::circuit::schedule::ScheduleSpec;
use prophunt_suite::circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_suite::core::{PropHunt, PropHuntConfig};
use prophunt_suite::decoders::{
    estimate_logical_error_rate, BpOsdDecoder, LerOptions, UnionFindDecoder,
};
use prophunt_suite::qec::product::generalized_bicycle;
use prophunt_suite::qec::surface::rotated_surface_code_with_layout;
use prophunt_suite::qec::CssCode;
use prophunt_suite::runtime::{Runtime, RuntimeConfig};

fn combined_ler(
    code: &CssCode,
    schedule: &ScheduleSpec,
    rounds: usize,
    p: f64,
    shots: usize,
) -> f64 {
    let mut failures = 0;
    let mut total = 0;
    for basis in [MemoryBasis::Z, MemoryBasis::X] {
        let exp = MemoryExperiment::build(code, schedule, rounds, basis).expect("valid schedule");
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p));
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(4, 64, 0));
        let est = estimate_logical_error_rate(
            &dem,
            &decoder,
            LerOptions::fixed(shots, 99),
            &runtime,
            &mut |_| {},
        )
        .0;
        failures += est.failures;
        total += est.shots;
    }
    failures as f64 / total as f64
}

#[test]
fn poor_surface_schedule_has_higher_logical_error_rate_than_hand_designed() {
    // The paper's Figure 6: the N/Z schedule clearly outperforms a poor schedule.
    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let hand = ScheduleSpec::surface_hand_designed(&code, &layout);
    let p = 8e-3;
    let shots = 1_500;
    let ler_poor = combined_ler(&code, &poor, 3, p, shots);
    let ler_hand = combined_ler(&code, &hand, 3, p, shots);
    assert!(
        ler_poor > ler_hand,
        "poor schedule LER {ler_poor} should exceed hand-designed {ler_hand}"
    );
}

#[test]
fn prophunt_improves_a_poor_surface_schedule_end_to_end() {
    // The headline behaviour: starting from the poor schedule, PropHunt's output should
    // (a) restore the effective distance and (b) not be worse than the starting point in
    // a direct Monte-Carlo comparison.
    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let prophunt = PropHunt::new(code.clone(), PropHuntConfig::quick(3).with_seed(3));
    let result = prophunt.try_optimize(poor.clone()).unwrap();
    assert!(result.total_changes_applied() >= 1);

    // Exact effective distance, the minimum over both memory bases.
    let d_eff = |schedule: &ScheduleSpec| {
        [MemoryBasis::Z, MemoryBasis::X]
            .map(|basis| {
                let bound = prophunt.effective_distance(schedule, basis).unwrap();
                bound.exact().expect("a d = 3 solve stays under the cap")
            })
            .into_iter()
            .min()
            .unwrap()
    };
    let before_deff = d_eff(&poor);
    let after_deff = d_eff(&result.final_schedule);
    assert_eq!((before_deff, after_deff), (2, 3), "d_eff before -> after");

    // A Monte-Carlo LER comparison at this quick-test scale is shot-noise limited (the
    // decisive comparison is the Figure 12 harness); here we only require that the
    // optimized circuit is not dramatically worse than the starting point.
    let p = 8e-3;
    let shots = 1_200;
    let ler_before = combined_ler(&code, &poor, 3, p, shots);
    let ler_after = combined_ler(&code, &result.final_schedule, 3, p, shots);
    assert!(
        ler_after <= (ler_before * 1.6).max(ler_before + 0.02),
        "optimized LER {ler_after} regressed far past the poor schedule's {ler_before}"
    );
}

#[test]
fn decoders_agree_on_surface_code_order_of_magnitude() {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(5e-3));
    let bposd = BpOsdDecoder::new(&dem);
    let uf = UnionFindDecoder::new(&dem);
    let shots = 800;
    let runtime = Runtime::new(RuntimeConfig::new(4, 64, 0));
    let a = estimate_logical_error_rate(
        &dem,
        &bposd,
        LerOptions::fixed(shots, 5),
        &runtime,
        &mut |_| {},
    )
    .0;
    let b = estimate_logical_error_rate(
        &dem,
        &uf,
        LerOptions::fixed(shots, 5),
        &runtime,
        &mut |_| {},
    )
    .0;
    // Union-find is less accurate but must stay within an order of magnitude.
    assert!(b.failures <= 10 * a.failures.max(3));
}

#[test]
fn ldpc_coloration_circuit_pipeline_runs_and_decodes() {
    let code = generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2");
    let schedule = ScheduleSpec::coloration(&code);
    schedule.validate(&code).unwrap();
    let ler = combined_ler(&code, &schedule, 2, 2e-3, 500);
    assert!(ler < 0.2, "LDPC pipeline produced implausible LER {ler}");
}

#[test]
fn random_coloration_starts_are_valid_for_every_benchmark_family() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    let codes = vec![
        rotated_surface_code_with_layout(3).0,
        rotated_surface_code_with_layout(5).0,
        generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2"),
        prophunt_suite::qec::small::steane_code(),
    ];
    for code in &codes {
        for _ in 0..3 {
            let schedule = ScheduleSpec::coloration_random(code, &mut rng);
            schedule
                .validate(code)
                .unwrap_or_else(|e| panic!("invalid random coloration for {code}: {e}"));
        }
    }
}
