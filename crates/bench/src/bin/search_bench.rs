//! Portfolio vs. single-strategy schedule search on the Table 1 code suite.
//!
//! For every benchmark code family — rotated surface, generalized bicycle,
//! and the bivariate-bicycle instance — races the full four-strategy
//! portfolio against single-strategy MaxSAT descent from the same coloration
//! starting schedule with the same per-round budgets, and records final CNOT
//! depth plus wall-clock for both arms in `BENCH_search.json`. The default
//! quick profile trims the suite (no d = 7/9 surface codes) and gives the
//! expensive bivariate-bicycle point a reduced budget; `PROPHUNT_FULL=1` runs
//! every code at paper-scale budgets.
//!
//! This is the bench behind the subsystem's acceptance claim: with equal
//! budgets the portfolio's final depth is at or below the single heuristic's
//! on every code in the suite (the run aborts loudly if that ever regresses),
//! and adding rounds/instances converts compute into depth — answer quality as
//! a function of compute, not of one fixed heuristic.

use prophunt_bench::{
    bench_session, benchmark_suite, compare_search_strategies, runtime_config_from_env,
};
use prophunt_formats::write_report;

fn main() {
    let full = prophunt_bench::full_profile();
    let runtime = runtime_config_from_env();
    let mut session = bench_session();
    println!("Schedule search: portfolio (maxsat,anneal,beam,hillclimb) vs MaxSAT descent alone");
    println!(
        "  seed {} (set PROPHUNT_FULL=1 for the full suite at paper-scale budgets)",
        runtime.seed
    );
    println!(
        "{:<14} {:>7} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "code", "initial", "maxsat", "portfolio", "best arm", "maxsat s", "portfolio s"
    );
    let mut records = Vec::new();
    let mut regressions = 0usize;
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        let name = bench.code.name().to_string();
        if !full && (name == "surface_d7" || name == "surface_d9") {
            continue;
        }
        // The bivariate-bicycle point pays ~a minute per MaxSAT-descent round;
        // the quick profile keeps it in the comparison with a trimmed budget.
        let (search_rounds, samples) = if full {
            (10, 40)
        } else if name == "bb_72_12" {
            (2, 4)
        } else {
            (6, 12)
        };
        let comparison = compare_search_strategies(
            &mut session,
            &bench,
            bench.rounds.min(3),
            search_rounds,
            samples,
            40 + stage as u64,
        );
        println!(
            "{:<14} {:>7} {:>8} {:>10} {:>10} {:>12.3} {:>12.3}",
            comparison.code,
            comparison.initial_depth,
            comparison.maxsat_depth,
            comparison.portfolio_depth,
            comparison.portfolio_best_strategy,
            comparison.maxsat_wall_s,
            comparison.portfolio_wall_s,
        );
        if comparison.portfolio_depth > comparison.maxsat_depth {
            eprintln!(
                "REGRESSION: portfolio depth {} > single-strategy depth {} on {}",
                comparison.portfolio_depth, comparison.maxsat_depth, comparison.code
            );
            regressions += 1;
        }
        records.push(comparison.to_record());
    }
    std::fs::write("BENCH_search.json", write_report(&records))
        .expect("cannot write BENCH_search.json");
    println!("wrote BENCH_search.json ({} rows)", records.len());
    assert_eq!(
        regressions, 0,
        "portfolio must never lose to its own MaxSAT arm under equal budgets"
    );
}
