//! `prophunt trace` — analyze a span-event trace written by `--trace`:
//! pool-utilization timeline, per-stage concurrency, the critical path through
//! the span DAG, and (for search runs) a convergence summary built from the
//! deterministic diagnostic records.
//!
//! Every section is a pure function of the parsed records, so the renderings
//! can be pinned on golden fixtures: the timing sections vary run to run (they
//! read wall-clock spans), but the convergence summary is bit-identical at any
//! thread count, like the counters it derives from.

use crate::args::CliError;
use crate::common::read_file;
use prophunt_formats::parse_report;
use prophunt_formats::report::ReportRecord;

pub const USAGE: &str = "\
prophunt trace <trace.jsonl>

Summarizes a JSON-lines trace file written by the --trace flag of
ler/optimize/search/sweep:

  * the `meta` provenance line, including the invoking command line
  * pool utilization — a per-worker busy timeline from `runtime.task` spans
  * per-stage concurrency — event count, total busy time, wall span, and
    average concurrency for every span name
  * the critical path — the longest chain of nested spans, walked from the
    longest root span down its longest child at each level
  * search convergence — per-arm and per-strategy acceptance statistics,
    the incumbent-depth trajectory, and rounds since the last improvement,
    rebuilt from the deterministic `diag` records (bit-identical at any
    --threads)";

/// One `trace` record, re-shaped for analysis.
struct TraceSpan {
    name: String,
    tid: u64,
    id: u64,
    parent: u64,
    ts: u64,
    dur: u64,
}

/// One deterministic diagnostic record (`cat == "diag"`).
struct DiagRecord {
    name: String,
    tid: u64,
    args: Vec<(String, u64)>,
}

struct TraceFile {
    meta: Option<String>,
    spans: Vec<TraceSpan>,
    diags: Vec<DiagRecord>,
}

fn load(path: &str) -> Result<TraceFile, CliError> {
    let records =
        parse_report(&read_file(path)?).map_err(|e| CliError::failure(format!("{path}: {e}")))?;
    let mut file = TraceFile {
        meta: None,
        spans: Vec::new(),
        diags: Vec::new(),
    };
    for record in records {
        match record {
            ReportRecord::Meta {
                version,
                seed,
                threads,
                chunk_size,
                engine,
                cmdline,
            } => {
                let engine = if engine.is_empty() { "-" } else { &engine };
                let mut line = format!(
                    "meta: v{version} seed={seed} threads={threads} chunk_size={chunk_size} \
                     engine={engine}"
                );
                if !cmdline.is_empty() {
                    line.push_str(&format!("\ncmdline: {cmdline}"));
                }
                file.meta.get_or_insert(line);
            }
            ReportRecord::Trace {
                name,
                cat,
                kind,
                tid,
                id,
                parent,
                ts,
                dur,
                args,
            } => {
                if cat == "diag" {
                    file.diags.push(DiagRecord { name, tid, args });
                } else if kind == "span" {
                    file.spans.push(TraceSpan {
                        name,
                        tid,
                        id,
                        parent,
                        ts,
                        dur,
                    });
                }
            }
            _ => {}
        }
    }
    if file.spans.is_empty() && file.diags.is_empty() {
        return Err(CliError::failure(format!(
            "{path}: no trace records found (was this written with --trace?)"
        )));
    }
    Ok(file)
}

/// Nanoseconds as a human-readable duration (fixed decimals so fixture
/// renderings stay byte-stable).
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The per-worker busy timeline from `runtime.task` spans: one row per worker
/// lane, `width` columns across the traced wall interval, each column shaded by
/// the lane's busy fraction within it.
fn utilization_section(spans: &[TraceSpan], width: usize) -> String {
    let tasks: Vec<&TraceSpan> = spans.iter().filter(|s| s.name == "runtime.task").collect();
    if tasks.is_empty() {
        return "pool utilization: no runtime.task spans\n".to_string();
    }
    let start = tasks.iter().map(|s| s.ts).min().unwrap_or(0);
    let end = tasks.iter().map(|s| s.ts + s.dur).max().unwrap_or(0);
    let wall = (end - start).max(1);
    let mut lanes: Vec<u64> = tasks.iter().map(|s| s.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut out = format!(
        "pool utilization ({} tasks, {} workers, wall {}):\n",
        tasks.len(),
        lanes.len(),
        fmt_ns(wall)
    );
    for &lane in &lanes {
        let mine: Vec<&&TraceSpan> = tasks.iter().filter(|s| s.tid == lane).collect();
        let busy: u64 = mine.iter().map(|s| s.dur).sum();
        let mut row = String::with_capacity(width);
        for col in 0..width {
            // Column [c0, c1) in trace time; shade by the overlapped fraction.
            let c0 = start + (wall * col as u64) / width as u64;
            let c1 = start + (wall * (col as u64 + 1)) / width as u64;
            let overlap: u64 = mine
                .iter()
                .map(|s| s.ts.max(c0)..(s.ts + s.dur).min(c1))
                .filter(|r| r.end > r.start)
                .map(|r| r.end - r.start)
                .sum();
            let f = overlap as f64 / (c1 - c0).max(1) as f64;
            row.push(match f {
                f if f <= 0.0 => ' ',
                f if f < 0.25 => '.',
                f if f < 0.50 => ':',
                f if f < 0.75 => '+',
                _ => '#',
            });
        }
        out.push_str(&format!(
            "  worker {lane:<3} [{row}] {:>5.1}% busy, {} tasks\n",
            100.0 * busy as f64 / wall as f64,
            mine.len()
        ));
    }
    out
}

/// Per-span-name concurrency: count, summed busy time, wall span, and the
/// average concurrency (busy / wall). Rows sort by descending busy time, then
/// name, so the dominant stage leads.
fn concurrency_section(spans: &[TraceSpan]) -> String {
    if spans.is_empty() {
        return "stage concurrency: no spans\n".to_string();
    }
    let mut names: Vec<&String> = spans.iter().map(|s| &s.name).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<(String, usize, u64, u64)> = names
        .into_iter()
        .map(|name| {
            let mine: Vec<&TraceSpan> = spans.iter().filter(|s| &s.name == name).collect();
            let busy: u64 = mine.iter().map(|s| s.dur).sum();
            let start = mine.iter().map(|s| s.ts).min().unwrap_or(0);
            let end = mine.iter().map(|s| s.ts + s.dur).max().unwrap_or(0);
            (name.clone(), mine.len(), busy, end - start)
        })
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let mut out = format!(
        "stage concurrency:\n  {:<28} {:>8} {:>12} {:>12} {:>10}\n",
        "span", "count", "busy", "wall", "avg conc"
    );
    for (name, count, busy, wall) in rows {
        out.push_str(&format!(
            "  {name:<28} {count:>8} {:>12} {:>12} {:>10.2}\n",
            fmt_ns(busy),
            fmt_ns(wall),
            busy as f64 / wall.max(1) as f64
        ));
    }
    out
}

/// Walks the critical path: start at the longest root span, descend into the
/// longest child at each level (ties broken by name, then start time, so the
/// walk is deterministic given equal durations).
fn critical_path_section(spans: &[TraceSpan]) -> String {
    fn longest(candidates: Vec<&TraceSpan>) -> Option<&TraceSpan> {
        candidates.into_iter().max_by(|a, b| {
            a.dur
                .cmp(&b.dur)
                .then_with(|| b.name.cmp(&a.name))
                .then_with(|| b.ts.cmp(&a.ts))
        })
    }
    let Some(root) = longest(spans.iter().filter(|s| s.parent == 0).collect()) else {
        return "critical path: no root spans\n".to_string();
    };
    let mut out = format!(
        "critical path (root {}, {}):\n",
        root.name,
        fmt_ns(root.dur)
    );
    let mut current = root;
    let mut depth = 0usize;
    loop {
        out.push_str(&format!(
            "  {:indent$}{} [worker {}] {} ({:.1}% of root, starts +{})\n",
            "",
            current.name,
            current.tid,
            fmt_ns(current.dur),
            100.0 * current.dur as f64 / root.dur.max(1) as f64,
            fmt_ns(current.ts.saturating_sub(root.ts)),
            indent = depth * 2
        ));
        let children: Vec<&TraceSpan> = spans
            .iter()
            .filter(|s| s.parent == current.id && current.id != 0)
            .collect();
        match longest(children) {
            Some(child) => {
                current = child;
                depth += 1;
            }
            None => break,
        }
    }
    out
}

/// Looks up one named argument of a diagnostic record (0 when absent, matching
/// the additive-versioning default).
fn arg(record: &DiagRecord, key: &str) -> u64 {
    record
        .args
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |&(_, v)| v)
}

/// The search-convergence summary, rebuilt from the deterministic `diag`
/// records: round/depth trajectory and plateau from `search.round`, per-arm
/// win/duplicate tallies from `search.arm`, per-strategy acceptance rates from
/// the `search.strategy.<name>` counter deltas.
fn convergence_section(diags: &[DiagRecord]) -> String {
    let rounds: Vec<&DiagRecord> = diags.iter().filter(|d| d.name == "search.round").collect();
    if rounds.is_empty() {
        return "search convergence: no diagnostic records (not a search trace)\n".to_string();
    }
    let last = rounds[rounds.len() - 1];
    let improvements: u64 = rounds.iter().map(|d| arg(d, "improved")).sum();
    let mut out = format!(
        "search convergence ({} rounds, {} improvements, final depth {}, {} rounds since \
         improvement, {} schedules seen):\n",
        rounds.len(),
        improvements,
        arg(last, "depth"),
        arg(last, "plateau"),
        arg(last, "seen")
    );
    let trajectory: Vec<String> = rounds.iter().map(|d| arg(d, "depth").to_string()).collect();
    out.push_str(&format!("  depth trajectory: {}\n", trajectory.join(" ")));

    let arms: Vec<&DiagRecord> = diags.iter().filter(|d| d.name == "search.arm").collect();
    let mut lanes: Vec<u64> = arms.iter().map(|d| d.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let mine: Vec<&&DiagRecord> = arms.iter().filter(|d| d.tid == lane).collect();
        let wins: u64 = mine.iter().map(|d| arg(d, "win")).sum();
        let dups: u64 = mine.iter().map(|d| arg(d, "dup")).sum();
        out.push_str(&format!(
            "  arm {lane}: {} rounds, {wins} wins, {dups} duplicate incumbents\n",
            mine.len()
        ));
    }

    // Strategies in first-appearance order — the portfolio emits them in slot
    // order, which is deterministic.
    let mut strategies: Vec<&str> = Vec::new();
    for d in diags {
        if let Some(name) = d.name.strip_prefix("search.strategy.") {
            if !strategies.contains(&name) {
                strategies.push(name);
            }
        }
    }
    for strategy in strategies {
        let full = format!("search.strategy.{strategy}");
        let mine: Vec<&DiagRecord> = diags.iter().filter(|d| d.name == full).collect();
        let total = |key: &str| -> u64 { mine.iter().map(|d| arg(d, key)).sum() };
        // `proposals` counts incumbent submissions (one per arm per round);
        // the move-acceptance rate comes from the accept/revert tallies the
        // local-search strategies keep per mutation step. Strategy-specific
        // counters (restarts, expansions, iterations) print only when used.
        let mut parts = vec![
            format!("{} proposals", total("proposals")),
            format!("{} wins", total("wins")),
        ];
        let (accepts, reverts) = (total("accepts"), total("reverts"));
        let moves = accepts + reverts;
        if moves > 0 {
            parts.push(format!(
                "{accepts}/{moves} moves accepted ({:.1}%)",
                100.0 * accepts as f64 / moves as f64
            ));
        }
        for key in ["restarts", "expansions", "iterations"] {
            let n = total(key);
            if n > 0 {
                parts.push(format!("{n} {key}"));
            }
        }
        out.push_str(&format!("  strategy {strategy}: {}\n", parts.join(", ")));
    }
    out
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(CliError::usage(format!(
            "trace takes a file path, not flags (got {flag:?})"
        )));
    }
    let [path] = args else {
        return Err(CliError::usage("trace needs exactly one trace file"));
    };
    let file = load(path)?;
    println!("{path}");
    if let Some(meta) = &file.meta {
        println!("{meta}");
    }
    println!();
    print!("{}", utilization_section(&file.spans, 50));
    println!();
    print!("{}", concurrency_section(&file.spans));
    println!();
    print!("{}", critical_path_section(&file.spans));
    println!();
    print!("{}", convergence_section(&file.diags));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, id: u64, parent: u64, ts: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            name: name.to_string(),
            tid,
            id,
            parent,
            ts,
            dur,
        }
    }

    fn diag(name: &str, tid: u64, args: &[(&str, u64)]) -> DiagRecord {
        DiagRecord {
            name: name.to_string(),
            tid,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// The golden span fixture: one runtime.call holding three tasks across two
    /// workers, the longest task holding an ler.chunk with two stage spans.
    fn fixture_spans() -> Vec<TraceSpan> {
        vec![
            span("runtime.call", 0, 1, 0, 0, 10_000),
            span("runtime.task", 1, 2, 1, 500, 4_000),
            span("runtime.task", 2, 3, 1, 500, 8_000),
            span("runtime.task", 1, 4, 1, 5_000, 3_000),
            span("ler.chunk", 2, 5, 3, 600, 7_500),
            span("ler.frames.sample", 2, 6, 5, 600, 4_500),
            span("ler.frames.decode", 2, 7, 5, 5_100, 3_000),
        ]
    }

    #[test]
    fn critical_path_is_pinned_on_the_golden_fixture() {
        // Root -> longest task -> its chunk -> the longest stage within it.
        assert_eq!(
            critical_path_section(&fixture_spans()),
            "critical path (root runtime.call, 10.00us):\n\
             \x20 runtime.call [worker 0] 10.00us (100.0% of root, starts +0ns)\n\
             \x20   runtime.task [worker 2] 8.00us (80.0% of root, starts +500ns)\n\
             \x20     ler.chunk [worker 2] 7.50us (75.0% of root, starts +600ns)\n\
             \x20       ler.frames.sample [worker 2] 4.50us (45.0% of root, starts +600ns)\n"
        );
    }

    #[test]
    fn concurrency_rows_sort_by_busy_time_and_report_avg_concurrency() {
        let section = concurrency_section(&fixture_spans());
        let lines: Vec<&str> = section.lines().collect();
        // 15.00us of runtime.task busy time over an 8.00us wall (500..8500):
        // average concurrency 1.875.
        assert!(lines[2].starts_with("  runtime.task"), "{section}");
        assert!(lines[2].ends_with("1.88"), "{section}");
        // Busy-descending order: task > call > chunk > sample > decode.
        let order: Vec<&str> = lines[2..]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            order,
            [
                "runtime.task",
                "runtime.call",
                "ler.chunk",
                "ler.frames.sample",
                "ler.frames.decode"
            ]
        );
    }

    #[test]
    fn utilization_counts_lanes_and_tasks() {
        let section = utilization_section(&fixture_spans(), 10);
        assert!(
            section.starts_with("pool utilization (3 tasks, 2 workers, wall 8.00us):"),
            "{section}"
        );
        assert!(section.contains("worker 1"), "{section}");
        assert!(section.contains("2 tasks"), "{section}");
        // Worker 2 is busy for its whole 8.00us lane: a solid row.
        let lane2 = section.lines().find(|l| l.contains("worker 2")).unwrap();
        assert!(lane2.contains("[##########]"), "{section}");
        assert!(lane2.contains("100.0% busy"), "{section}");
    }

    #[test]
    fn convergence_summary_is_pinned_on_the_golden_fixture() {
        let diags = vec![
            diag(
                "search.arm",
                0,
                &[("round", 0), ("depth", 9), ("win", 1), ("dup", 0)],
            ),
            diag(
                "search.arm",
                1,
                &[("round", 0), ("depth", 10), ("win", 0), ("dup", 0)],
            ),
            diag(
                "search.strategy.anneal",
                0,
                &[
                    ("proposals", 1),
                    ("accepts", 6),
                    ("reverts", 18),
                    ("wins", 1),
                ],
            ),
            diag(
                "search.round",
                0,
                &[
                    ("round", 0),
                    ("depth", 9),
                    ("improved", 1),
                    ("plateau", 0),
                    ("seen", 40),
                ],
            ),
            diag(
                "search.arm",
                0,
                &[("round", 1), ("depth", 9), ("win", 0), ("dup", 1)],
            ),
            diag(
                "search.arm",
                1,
                &[("round", 1), ("depth", 10), ("win", 0), ("dup", 0)],
            ),
            diag(
                "search.strategy.anneal",
                0,
                &[
                    ("proposals", 1),
                    ("accepts", 2),
                    ("reverts", 22),
                    ("wins", 0),
                ],
            ),
            diag(
                "search.round",
                0,
                &[
                    ("round", 1),
                    ("depth", 9),
                    ("improved", 0),
                    ("plateau", 1),
                    ("seen", 71),
                ],
            ),
        ];
        assert_eq!(
            convergence_section(&diags),
            "search convergence (2 rounds, 1 improvements, final depth 9, 1 rounds since \
             improvement, 71 schedules seen):\n\
             \x20 depth trajectory: 9 9\n\
             \x20 arm 0: 2 rounds, 1 wins, 1 duplicate incumbents\n\
             \x20 arm 1: 2 rounds, 0 wins, 0 duplicate incumbents\n\
             \x20 strategy anneal: 2 proposals, 1 wins, 8/48 moves accepted (16.7%)\n"
        );
    }

    #[test]
    fn empty_sections_degrade_gracefully() {
        assert_eq!(
            utilization_section(&[], 10),
            "pool utilization: no runtime.task spans\n"
        );
        assert_eq!(concurrency_section(&[]), "stage concurrency: no spans\n");
        assert_eq!(critical_path_section(&[]), "critical path: no root spans\n");
        assert_eq!(
            convergence_section(&[]),
            "search convergence: no diagnostic records (not a search trace)\n"
        );
    }
}
