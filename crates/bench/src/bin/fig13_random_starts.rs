//! Figure 13: PropHunt's robustness to the choice of (random) coloration circuit used as
//! the optimization starting point.

use prophunt::{PropHunt, PropHuntConfig};
use prophunt_bench::{
    benchmark_suite, combined_logical_error_rate, runtime_config_from_env, stage_seed,
};
use prophunt_circuit::schedule::ScheduleSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let full = prophunt_bench::full_profile();
    let shots = if full { 10_000 } else { 1_000 };
    let starts = if full { 3 } else { 2 };
    let p = 2e-3;
    println!("Figure 13: start/end LER over {starts} random coloration circuits (p = {p})");
    println!(
        "{:<14} {:>5} {:>14} {:>14}",
        "code", "start#", "LER(start)", "LER(end)"
    );
    let runtime = runtime_config_from_env();
    let mut rng = StdRng::seed_from_u64(99);
    for bench in benchmark_suite(false) {
        let code = &bench.code;
        let rounds = bench.rounds.min(3);
        for s in 0..starts {
            let baseline = ScheduleSpec::coloration_random(code, &mut rng);
            let mut config = PropHuntConfig::quick(rounds)
                .with_runtime(runtime.with_seed(stage_seed(&runtime, 1000 + s as u64)));
            config.iterations = 3;
            config.samples_per_iteration = 30;
            let prophunt = PropHunt::new(code.clone(), config);
            let result = prophunt
                .try_optimize(baseline.clone())
                .expect("random coloration baseline is valid");
            let before =
                combined_logical_error_rate(code, &baseline, rounds, p, shots, 3, &runtime).rate();
            let after = combined_logical_error_rate(
                code,
                &result.final_schedule,
                rounds,
                p,
                shots,
                3,
                &runtime,
            )
            .rate();
            println!("{:<14} {s:>5} {before:>14.5} {after:>14.5}", code.name());
        }
    }
}
