#![forbid(unsafe_code)]
//! `splpg-lint` — in-tree determinism & safety analyzer.
//!
//! SpLPG's headline claim — sparsified data sharing preserves
//! link-prediction quality — is only checkable in this repo because
//! training is bit-deterministic across thread counts and across
//! processes. That property is easy to break silently: one stray
//! `HashMap` iteration, one hand-mixed RNG seed, one float reduction
//! whose order follows the thread count. The bans clippy can express
//! (hash containers, ad-hoc threads, clock reads, prints, undocumented
//! `unsafe`) live in the workspace's `clippy.toml` and `Cargo.toml`; this
//! crate machine-checks the rest as named rules over every `crates/*/src`
//! file and is wired into `scripts/verify.sh` as a standing gate.
//!
//! The analyzer is dependency-free and runs as a pass pipeline:
//!
//! 1. **lex** ([`lexer::SourceFile`]) — masks comments and string
//!    contents so later passes only ever see code;
//! 2. **parse** ([`tree::TokenTree`]) — tokenizes the masked code,
//!    matches `{}`/`()`/`[]`, and annotates every token with loop depth
//!    and enclosing fn/closure scope;
//! 3. **symbols** ([`symbols::parallel_marks`]) — a workspace-wide
//!    fixpoint marking every token reachable from a `splpg-par` dispatch
//!    (inline closures, `let`-bound closures passed by name, and
//!    same-crate/`splpg_x::` direct calls);
//! 4. **rules** ([`rules::RULES`]) — independent named checkers over the
//!    analyzed files, plus a final `stale-pragma` pass.
//!
//! A diagnostic can be suppressed with a reasoned pragma:
//!
//! ```text
//! // splpg-lint: allow(as-cast-truncation) — clamped to [0, 255] above
//! ```
//!
//! on the offending line or alone on the line above it;
//! `allow-file(rule)` covers the whole file. Pragmas that suppress
//! nothing are themselves flagged (`stale-pragma`). Run with:
//!
//! ```text
//! cargo run -p splpg-lint -- check [--format=json] [--timings]
//! ```

pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod tree;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use lexer::SourceFile;
pub use rules::{check_analysis, describe, Diagnostic, FileAnalysis, RULE_NAMES};

/// Checks one source string under a workspace-relative virtual path.
///
/// The path drives rule scoping (crate name, binary target, crate root),
/// so fixtures can exercise any scope without touching the filesystem.
/// The parallel-region mask is computed from this file alone; workspace
/// scans ([`check_workspace`]) resolve dispatch across files too.
pub fn check_source(path: &str, source: &str) -> Vec<Diagnostic> {
    check_analysis(&FileAnalysis::single(path, source))
}

/// Wall-clock cost of one analyzer phase (a pass, or one rule's sweep
/// over every file).
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Phase name: `lex+parse`, `symbols`, or a rule name.
    pub phase: String,
    /// Elapsed microseconds.
    pub micros: u128,
}

/// Outcome of a workspace scan.
#[derive(Debug)]
pub struct Report {
    /// All diagnostics, sorted by path, line, then rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-phase timings; empty unless the scan was run timed.
    pub timings: Vec<PhaseTiming>,
}

impl Report {
    /// Total scan time in microseconds (0 when not timed).
    pub fn total_micros(&self) -> u128 {
        self.timings.iter().map(|t| t.micros).sum()
    }
}

/// Scans every `crates/*/src/**/*.rs` file under `root`.
///
/// Directory entries are sorted so diagnostics come out in a stable
/// order regardless of filesystem enumeration order — the analyzer holds
/// itself to the determinism bar it enforces.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] if `root/crates` cannot be read.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    check_workspace_timed(root, false)
}

/// [`check_workspace`], optionally timing each pass and rule.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] if `root/crates` cannot be read.
pub fn check_workspace_timed(root: &Path, timed: bool) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut timings = Vec::new();
    let mut clock = Clock::start(timed);

    // Pass 1+2: lex and parse every file.
    struct Parsed {
        rel: String,
        scope: rules::FileScope,
        file: SourceFile,
        tree: tree::TokenTree,
        pragmas: rules::Pragmas,
    }
    let mut parsed = Vec::with_capacity(files.len());
    for path in &files {
        let source = fs::read_to_string(path)?;
        let rel = relative_path(root, path);
        let file = SourceFile::analyze(&source);
        let tree = tree::TokenTree::build(&file);
        let scope = rules::FileScope::of(&rel);
        let pragmas = rules::Pragmas::collect(&file);
        parsed.push(Parsed { rel, scope, file, tree, pragmas });
    }
    clock.lap("lex+parse", &mut timings);

    // Pass 3: workspace-wide parallel-region marks.
    let marks = {
        let units: Vec<symbols::FileUnit<'_>> = parsed
            .iter()
            .map(|p| symbols::FileUnit {
                path: &p.rel,
                crate_name: p.scope.crate_name.as_deref(),
                file: &p.file,
                tree: &p.tree,
            })
            .collect();
        symbols::parallel_marks(&units)
    };
    clock.lap("symbols", &mut timings);

    let analyses: Vec<FileAnalysis> = parsed
        .into_iter()
        .zip(marks)
        .map(|(p, in_par)| FileAnalysis {
            path: p.rel,
            scope: p.scope,
            file: p.file,
            tree: p.tree,
            pragmas: p.pragmas,
            in_par,
        })
        .collect();

    // Pass 4: every rule over every file, one rule at a time so each
    // rule's cost is attributable; stale-pragma last (it reads the
    // pragma usage the other rules record).
    let mut diagnostics = Vec::new();
    for rule in rules::RULES {
        for a in &analyses {
            (rule.run)(a, &mut diagnostics);
        }
        clock.lap(rule.name, &mut timings);
    }
    for a in &analyses {
        rules::stale_pragmas(a, &mut diagnostics);
    }
    clock.lap(rules::RULE_STALE_PRAGMA, &mut timings);

    diagnostics.sort_by(|a, b| {
        a.path.cmp(&b.path).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule))
    });
    Ok(Report { diagnostics, files_scanned: analyses.len(), timings })
}

/// Every `crates/*/src/**/*.rs` path under `root`, sorted.
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for dir in &crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `file`.
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lap timer for `--timings`; a no-op when not timed. Its readings only
/// feed the timing report and the `--budget-ms` gate, never a diagnostic.
struct Clock {
    t0: Option<Instant>,
}

#[expect(clippy::disallowed_methods, reason = "the analyzer times its own passes for --timings and --budget-ms")]
impl Clock {
    fn start(timed: bool) -> Clock {
        Clock { t0: timed.then(Instant::now) }
    }

    fn lap(&mut self, phase: &str, out: &mut Vec<PhaseTiming>) {
        if let Some(t0) = self.t0.as_mut() {
            let now = Instant::now();
            out.push(PhaseTiming { phase: phase.to_string(), micros: now.duration_since(*t0).as_micros() });
            *t0 = now;
        }
    }
}

// ---------------------------------------------------------------------
// JSON output (`--format=json`): hand-rolled, zero dependencies.
// ---------------------------------------------------------------------

/// Escapes `s` for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The JSON array form of a diagnostic list: one object per line, in the
/// given (already stable) order.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_string();
    }
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "    {{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.path),
                d.line,
                json_escape(d.rule),
                json_escape(&d.message)
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// The full machine-readable report for `--format=json`.
pub fn report_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"violations\": {},\n", report.diagnostics.len()));
    out.push_str(&format!("  \"diagnostics\": {}", diagnostics_json(&report.diagnostics)));
    if !report.timings.is_empty() {
        let rows: Vec<String> = report
            .timings
            .iter()
            .map(|t| format!("    {{\"phase\":\"{}\",\"micros\":{}}}", json_escape(&t.phase), t.micros))
            .collect();
        out.push_str(&format!(
            ",\n  \"timings\": [\n{}\n  ],\n  \"total_micros\": {}",
            rows.join(",\n"),
            report.total_micros()
        ));
    }
    out.push_str("\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/graph/src/csr.rs");
        assert_eq!(relative_path(root, file), "crates/graph/src/csr.rs");
    }

    #[test]
    fn check_source_runs_all_rules() {
        let d = check_source("crates/graph/src/lib.rs", "fn f() {}\n");
        assert_eq!(d.len(), 1, "missing forbid(unsafe_code) must fire: {d:?}");
        assert_eq!(d[0].rule, rules::RULE_FORBID_UNSAFE);
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_json_is_stable() {
        let report = Report { diagnostics: Vec::new(), files_scanned: 3, timings: Vec::new() };
        assert_eq!(
            report_json(&report),
            "{\n  \"files_scanned\": 3,\n  \"violations\": 0,\n  \"diagnostics\": []\n}"
        );
    }
}
