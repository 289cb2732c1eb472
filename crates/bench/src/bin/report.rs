//! `report` — render the JSON series under `bench_results/` as markdown
//! tables (one per figure), so EXPERIMENTS.md numbers are regenerable
//! with two commands: run `figures`, then `report`. Simtrace
//! metrics documents (from `trace_dump`), run digests (from `explain`),
//! diff reports and time-series documents are folded in as their own
//! sections.
//!
//! `report --check-docs` runs the docs-drift gate instead: every
//! `<!-- check: ... -->` marker in ARCHITECTURE.md, DESIGN.md and
//! EXPERIMENTS.md is verified against the committed rows (see
//! `bench::doccheck`), exiting 1 on any quoted figure that no longer
//! matches and 2 when the docs carry no markers at all.

use bench::doccheck::{parse_markers, verify};
use bench::{print_metrics_doc, rows_from_json, Row};
use simtrace::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Docs whose quoted figures are under the drift gate.
const CHECKED_DOCS: &[&str] = &["ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"];

fn main() {
    if std::env::args().any(|a| a == "--check-docs") {
        check_docs();
        return;
    }
    let dir = Path::new("bench_results");
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("no bench_results directory ({e}); run `figures` first");
            std::process::exit(1);
        }
    };
    entries.sort();
    for path in entries {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let Some(text) = std::fs::read_to_string(&path).ok() else {
            eprintln!("skipping {name}: unreadable");
            continue;
        };
        if let Some(rows) = rows_from_json(&text) {
            println!("\n### {name}\n");
            print_markdown(&rows);
            continue;
        }
        let Ok(doc) = Json::parse(&text) else {
            eprintln!("skipping {name}: neither rows nor a known document");
            continue;
        };
        match doc.get("kind").and_then(Json::as_str) {
            Some("simtrace_metrics") => {
                println!("\n### {name} (trace metrics)\n");
                print_metrics_doc(&doc);
            }
            Some("parcoll_run_digest") => {
                println!("\n### {name} (run digest)\n");
                print_digest_doc(&doc);
            }
            Some("simtrace_diff") => {
                println!("\n### {name} (run diff)\n");
                print_diff_doc(&doc);
            }
            Some("simtrace_series") => {
                println!("\n### {name} (time series)\n");
                print_series_doc(&doc);
            }
            _ => eprintln!("skipping {name}: neither rows nor a known document"),
        }
    }
}

/// Run the docs-drift gate and exit.
fn check_docs() {
    let mut checks = Vec::new();
    for doc in CHECKED_DOCS {
        let Ok(text) = std::fs::read_to_string(doc) else {
            eprintln!("check-docs: cannot read {doc} (run from the repo root)");
            std::process::exit(2);
        };
        match parse_markers(doc, &text) {
            Ok(mut c) => checks.append(&mut c),
            Err(e) => {
                eprintln!("check-docs: {e}");
                std::process::exit(2);
            }
        }
    }
    if checks.is_empty() {
        eprintln!(
            "check-docs: no <!-- check: ... --> markers in {CHECKED_DOCS:?} — the gate guards nothing"
        );
        std::process::exit(2);
    }
    let failures = verify(&checks, Path::new("bench_results"));
    if failures.is_empty() {
        println!(
            "check-docs: {} quoted figure(s) across {} doc(s) match bench_results",
            checks.len(),
            CHECKED_DOCS.len()
        );
    } else {
        eprintln!("check-docs: {} drifted figure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Summarize a run digest: wall, path phases, heaviest rounds.
fn print_digest_doc(doc: &Json) {
    let wall = doc.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0);
    let label = doc.get("label").and_then(Json::as_str).unwrap_or("?");
    println!("run `{label}`: wall {:.1} us", wall);
    if let Some(phases) = doc.get("path_phases_us").and_then(Json::as_obj) {
        print!("critical path:");
        for (phase, us) in phases {
            print!(" {phase} {:.1} us,", us.as_f64().unwrap_or(0.0));
        }
        println!();
    }
    let n = |k: &str| doc.get(k).and_then(Json::as_array).map_or(0, <[Json]>::len);
    println!(
        "{} ranks, {} collectives, {} osts, {} rounds",
        n("ranks"),
        n("collectives"),
        n("osts"),
        n("rounds")
    );
}

/// Print a diff report's findings as a markdown table.
fn print_diff_doc(doc: &Json) {
    let base = doc.get("base").and_then(Json::as_str).unwrap_or("?");
    let head = doc.get("head").and_then(Json::as_str).unwrap_or("?");
    println!("`{base}` -> `{head}`\n");
    println!("| # | finding |");
    println!("|---|---|");
    let findings = doc.get("findings").and_then(Json::as_array).unwrap_or(&[]);
    for (i, f) in findings.iter().enumerate() {
        let text = f.get("text").and_then(Json::as_str).unwrap_or("?");
        println!("| {} | {text} |", i + 1);
    }
}

/// Summarize a time-series document: interval grid plus per-track series.
fn print_series_doc(doc: &Json) {
    let interval = doc.get("interval_us").and_then(Json::as_f64).unwrap_or(0.0);
    let n = doc.get("n_intervals").and_then(Json::as_f64).unwrap_or(0.0);
    let wall = doc.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{n:.0} intervals x {interval:.1} us (wall {:.1} us)",
        wall
    );
    let tracks = doc.get("tracks").and_then(Json::as_array).unwrap_or(&[]);
    for t in tracks {
        let track = t.get("track").and_then(Json::as_str).unwrap_or("?");
        let names: Vec<&str> = t
            .get("series")
            .and_then(Json::as_obj)
            .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        println!("  {track}: {}", names.join(", "));
    }
}

/// Pivot rows into series × x markdown.
fn print_markdown(rows: &[Row]) {
    let mut xs: Vec<String> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    let mut cell: BTreeMap<(String, String), f64> = BTreeMap::new();
    let unit = rows.first().map(|r| r.unit.clone()).unwrap_or_default();
    for r in rows {
        let x = if r.x.fract() == 0.0 {
            format!("{}", r.x as i64)
        } else {
            format!("{:.2}", r.x)
        };
        if !xs.contains(&x) {
            xs.push(x.clone());
        }
        if !series.contains(&r.series) {
            series.push(r.series.clone());
        }
        cell.insert((r.series.clone(), x), r.y);
    }
    print!("| series ({unit}) |");
    for x in &xs {
        print!(" {x} |");
    }
    println!();
    print!("|---|");
    for _ in &xs {
        print!("---|");
    }
    println!();
    for s in &series {
        print!("| {s} |");
        for x in &xs {
            match cell.get(&(s.clone(), x.clone())) {
                Some(v) => print!(" {v:.1} |"),
                None => print!(" — |"),
            }
        }
        println!();
    }
}
