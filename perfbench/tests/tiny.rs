//! Every workload path on a tiny profile: the untraced run passes its output
//! checks and emits every end-to-end metric, and the traced run reproduces
//! every job and emits every per-layer metric — each list equal to the one
//! `BENCHMARK.json` declares.

use perfbench::replay::{run_traced, PER_LAYER};
use perfbench::workload::{run_untraced, Profile, Workload};
use perfbench::{end_to_end, result_json, END_TO_END};
use prophunt_formats::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("metric has name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads is an array")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        // Seed 1: the failure counts pinned at seed 0 hold for `Profile::full` only.
        let report = run_untraced(workload, &Profile::tiny(), 1, 0.01).unwrap();
        assert_eq!(
            report.failed,
            0,
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        assert!(!report.job_s.is_empty() && !report.quality.is_empty());
        let metrics = end_to_end(workload, &report);
        let names: Vec<&str> = metrics.iter().map(|(name, _, _)| *name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected);
        for (name, _, value) in &metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        let line = result_json(true, report.attempted, report.failed, &metrics);
        let parsed = Json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert!(parsed.get("metrics").and_then(|m| m.get("job_s")).is_some());
    }
}

#[test]
fn traced_replays_reproduce_every_workload_and_emit_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = run_traced(workload, &Profile::tiny(), 1, 0.01)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(report.failed, 0, "{}", workload.name());
        let names: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "{}", workload.name());
        assert!(report.metrics["trace.serial_job.s"] > 0.0);
        assert!(report.metrics["trace.jobs"] >= 1.0);
        // Each workload's own layers show up in its trace.
        let layer = match workload {
            Workload::OptimizeGb36 => "self.prophunt.s",
            Workload::SearchSurfaceD5 => "self.search.s",
            Workload::LerGb36 | Workload::LerSurfaceD5 => "self.decoders.s",
        };
        assert!(report.metrics[layer] > 0.0, "{}: {layer}", workload.name());
        assert!(report
            .log
            .events
            .iter()
            .any(|e| e.cat == "job" && e.parent == 0));
    }
}
