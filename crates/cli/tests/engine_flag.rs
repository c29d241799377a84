//! `--engine` compatibility: `frames` is the only LER engine, so naming it
//! changes nothing, and naming the removed `scalar` engine is a usage error
//! (exit code 2) rather than a silent fallback.

use std::process::{Command, Output};

const LER: &str = "ler --code surface:3 --p 0.02 --shots 256 --seed 9 --basis both";
const SWEEP: &str = "sweep --codes surface:3 --ps 0.01 --shots 64";

/// Runs the `prophunt` binary on whitespace-separated `args`.
fn prophunt(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prophunt"))
        .args(args.split_whitespace())
        .output()
        .expect("the prophunt binary runs")
}

/// The deterministic part of every `ler` record on stdout: its shot and
/// failure counts (timing fields legitimately vary run to run).
fn counts(output: &Output) -> Vec<String> {
    assert!(output.status.success(), "{output:?}");
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| line.contains(r#""type":"ler""#))
        .map(|line| {
            let start = line.find(r#""shots":"#).expect("ler records carry shots");
            let end = line.find(r#","seed":"#).expect("ler records carry a seed");
            line[start..end].to_string()
        })
        .collect()
}

#[test]
fn engine_frames_gives_the_same_counts_as_no_flag() {
    let default = prophunt(LER);
    let default_counts = counts(&default);
    assert_eq!(default_counts.len(), 3, "Z, X and combined records");
    assert_eq!(
        counts(&prophunt(&format!("{LER} --engine frames"))),
        default_counts
    );
    let stdout = String::from_utf8_lossy(&default.stdout);
    assert!(stdout.contains(r#""engine":"frames""#), "{stdout}");
}

#[test]
fn engine_scalar_is_a_usage_error() {
    for command in [LER, SWEEP] {
        let output = prophunt(&format!("{command} --engine scalar"));
        assert_eq!(output.status.code(), Some(2), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("scalar engine was removed"), "{stderr}");
        assert!(output.stdout.is_empty(), "no records on a usage error");
    }
    let output = prophunt(&format!("{LER} --engine vectorized"));
    assert_eq!(output.status.code(), Some(2), "{output:?}");
}
