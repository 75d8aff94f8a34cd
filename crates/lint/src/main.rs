//! CLI for the in-tree analyzer.
//!
//! ```text
//! cargo run -p splpg-lint -- check [--root <dir>] [--format=json]
//!                                  [--timings] [--budget-ms <n>]
//! cargo run -p splpg-lint -- rules
//! ```
//!
//! Exit codes: 0 clean, 1 violations found (or time budget exceeded),
//! 2 usage or I/O error.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a binary prints what the libraries return")]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in splpg_lint::RULE_NAMES {
                println!("{rule}\n    {}\n", splpg_lint::describe(rule));
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: splpg-lint <check [--root <dir>] [--format=json|text] \
                 [--timings] [--budget-ms <n>] | rules>"
            );
            ExitCode::from(2)
        }
    }
}

struct Options {
    root: PathBuf,
    json: bool,
    timings: bool,
    budget_ms: Option<u128>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { root: PathBuf::from("."), json: false, timings: false, budget_ms: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err("--root requires a directory".to_string()),
            },
            "--timings" => opts.timings = true,
            "--budget-ms" => match it.next().and_then(|n| n.parse::<u128>().ok()) {
                Some(ms) => opts.budget_ms = Some(ms),
                None => return Err("--budget-ms requires a number".to_string()),
            },
            "--format=json" => opts.json = true,
            "--format=text" => opts.json = false,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => {
                    return Err(format!("--format must be json or text, got {other:?}"));
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn check(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("splpg-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.root.join("crates").is_dir() {
        eprintln!(
            "splpg-lint: no `crates/` directory under {} (run from the workspace root or pass --root)",
            opts.root.display()
        );
        return ExitCode::from(2);
    }
    let timed = opts.timings || opts.budget_ms.is_some();
    let report = match splpg_lint::check_workspace_timed(&opts.root, timed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("splpg-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    // The budget gate keeps the analyzer honest about "fast enough for
    // verify.sh": blowing it is a failure, not a statistic.
    let total_ms = report.total_micros() / 1000;
    let over_budget = opts.budget_ms.is_some_and(|b| total_ms > b);

    if opts.json {
        println!("{}", splpg_lint::report_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if opts.timings {
            println!("splpg-lint: per-phase timings over {} files:", report.files_scanned);
            for t in &report.timings {
                println!("    {:<24} {:>9.3} ms", t.phase, t.micros as f64 / 1000.0);
            }
            println!("    {:<24} {:>9.3} ms", "total", report.total_micros() as f64 / 1000.0);
        }
        if report.diagnostics.is_empty() {
            println!(
                "splpg-lint: OK ({} files, {} rules)",
                report.files_scanned,
                splpg_lint::RULE_NAMES.len()
            );
        } else {
            println!(
                "splpg-lint: {} violation(s) across {} files scanned",
                report.diagnostics.len(),
                report.files_scanned
            );
        }
    }
    if over_budget {
        eprintln!(
            "splpg-lint: scan took {total_ms} ms, over the --budget-ms {} gate",
            opts.budget_ms.unwrap_or(0)
        );
        return ExitCode::FAILURE;
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
