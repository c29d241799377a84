//! The repository benchmark: four workloads that drive `prophunt_api::Session`
//! jobs at two threads, end-to-end metrics from untraced runs, and per-layer
//! metrics from a traced replay of each job through the layers' public
//! functions. See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod replay;
pub mod stats;
pub mod workload;

use workload::{RunReport, Workload};

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("shots_per_s", "shots/s"),
    ("best_failures", "count"),
];

/// The end-to-end metrics of an untraced run, as `(name, unit, value)` in
/// [`END_TO_END`] order:
///
/// * `setup_s` — median set-up time;
/// * `job_s` — median wall time of a timed job;
/// * `shots_per_s` — median shots per second of a timed job for estimation
///   workloads; for optimize and search, of the quality runs;
/// * `best_failures` — median failures of the quality runs of the first
///   jobs' output schedules.
pub fn end_to_end(
    workload: Workload,
    report: &RunReport,
) -> Vec<(&'static str, &'static str, f64)> {
    let quality_rates: Vec<f64> = report
        .quality
        .iter()
        .map(|q| q.estimate.shots as f64 / q.wall.as_secs_f64())
        .collect();
    let quality_failures: Vec<f64> = report
        .quality
        .iter()
        .map(|q| q.estimate.failures as f64)
        .collect();
    let shots_per_s = if workload.is_ler() {
        stats::median(&report.job_shots_per_s)
    } else {
        stats::median(&quality_rates)
    };
    let values = [
        stats::median(&report.setup_s),
        stats::median(&report.job_s),
        shots_per_s,
        stats::median(&quality_failures),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}
