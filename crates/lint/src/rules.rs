//! The rule set.
//!
//! Every rule has a stable kebab-case name (used in diagnostics and in
//! `// splpg-lint: allow(<rule>) — <reason>` pragmas), a scope over the
//! workspace, and a runner over a fully analyzed file
//! ([`FileAnalysis`]: masked lines + token tree + parallel-region mask).
//! Line rules still match masked text; the determinism dataflow rules
//! (`float-accum-in-par`, `rng-not-derived`) and the loop rules read the
//! token tree and the symbol pass's parallel marks. See DESIGN.md
//! § "Correctness tooling" for the rationale behind each rule.

use crate::lexer::{find_word, Line, SourceFile};
use crate::symbols;
use crate::tree::{TokenKind, TokenTree};
use std::cell::Cell;

/// A single violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Crates whose library code must be bit-reproducible run to run: hash
/// containers (randomized iteration order *per process*) are banned there.
pub const DETERMINISTIC_CRATES: &[&str] = &["graph", "gnn", "dist", "net", "partition", "sparsify"];

/// Stable names of every rule, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    RULE_HASH_ITER,
    RULE_THREAD_SPAWN,
    RULE_WALLCLOCK,
    RULE_UNWRAP,
    RULE_FORBID_UNSAFE,
    RULE_PRINT_MACRO,
    RULE_TAPE_IN_LOOP,
    RULE_ALLOC_IN_HOT_LOOP,
    RULE_FLOAT_ACCUM_IN_PAR,
    RULE_RNG_NOT_DERIVED,
    RULE_NET_CALL_NO_TIMEOUT,
    RULE_AS_CAST_TRUNCATION,
    RULE_STALE_PRAGMA,
];

pub const RULE_HASH_ITER: &str = "hash-iter";
pub const RULE_THREAD_SPAWN: &str = "thread-spawn";
pub const RULE_WALLCLOCK: &str = "wallclock";
pub const RULE_UNWRAP: &str = "unwrap-expect";
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
pub const RULE_PRINT_MACRO: &str = "print-macro";
pub const RULE_TAPE_IN_LOOP: &str = "tape-in-loop";
pub const RULE_ALLOC_IN_HOT_LOOP: &str = "alloc-in-hot-loop";
pub const RULE_FLOAT_ACCUM_IN_PAR: &str = "float-accum-in-par";
pub const RULE_RNG_NOT_DERIVED: &str = "rng-not-derived";
pub const RULE_NET_CALL_NO_TIMEOUT: &str = "net-call-no-timeout";
pub const RULE_AS_CAST_TRUNCATION: &str = "as-cast-truncation";
pub const RULE_STALE_PRAGMA: &str = "stale-pragma";

/// Files whose loop bodies are sampling/kernel hot paths: fresh `Vec`s
/// per iteration there defeat the reusable-scratch design. The tape is
/// in: what it records and differentiates per node comes from its arena.
pub const HOT_LOOP_FILES: &[&str] = &[
    "crates/gnn/src/sampler.rs",
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/segment.rs",
    "crates/tensor/src/tape.rs",
];

/// The sanctioned deterministic-reduction helpers: these files implement
/// the fixed-order parallel accumulation the rest of the workspace is
/// told to call instead of rolling its own (`float-accum-in-par`).
/// Their per-chunk accumulators are row-owned with a deterministic merge,
/// pinned by the thread-count-invariance tests.
pub const SANCTIONED_REDUCTION_FILES: &[&str] =
    &["crates/tensor/src/kernels.rs", "crates/tensor/src/segment.rs"];

/// The timeout/retry wrapper layer around `Transport`: the only files in
/// `dist`/`net` allowed to touch raw `send`/`recv` (`net-call-no-timeout`).
pub const NET_WRAPPER_FILES: &[&str] = &[
    "crates/net/src/transport.rs",
    "crates/net/src/cluster.rs",
    "crates/net/src/fault.rs",
    "crates/net/src/tcp.rs",
    "crates/net/src/process.rs",
    "crates/net/src/conformance.rs",
    "crates/net/src/shm.rs",
    "crates/dist/src/runtime.rs",
];

/// The only files allowed to contain `unsafe` code (`forbid-unsafe`):
/// the shared-memory feature bus, whose mmap/raw-pointer plumbing cannot
/// be expressed safely. Each block there still needs its own
/// `// splpg-lint: allow(forbid-unsafe) — reason` pragma, and the owning
/// crate's root downgrades to `#![deny(unsafe_code)]` (so the carve-out
/// stays an explicit per-module `#[allow]`, not a crate-wide licence).
pub const SANCTIONED_UNSAFE_FILES: &[&str] = &["crates/net/src/shm.rs"];

/// Hot indexing paths where a silent narrowing `as` cast can corrupt
/// node/edge ids on large graphs (`as-cast-truncation`).
pub const CAST_HOT_FILES: &[&str] = &[
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/segment.rs",
    "crates/tensor/src/tape.rs",
    "crates/gnn/src/sampler.rs",
    "crates/net/src/compress.rs",
];

/// One-line description per rule (for `splpg-lint rules`).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        RULE_HASH_ITER => {
            "no std HashMap/HashSet in library code of deterministic crates \
             (graph, gnn, dist, net, partition, sparsify): hash iteration \
             order is randomized per process and silently breaks run-to-run \
             reproducibility — use BTreeMap/BTreeSet or index vectors"
        }
        RULE_THREAD_SPAWN => {
            "no std::thread::spawn/scope outside splpg-par and splpg-net: \
             ad-hoc threads bypass the deterministic fork-join pool (par) \
             and the cluster actor runtime (net) and their thread-count \
             invariance guarantees"
        }
        RULE_WALLCLOCK => {
            "no std::time::Instant/SystemTime outside crates/bench: wall-clock \
             reads in library code make outputs timing-dependent; measure in \
             the bench harness instead"
        }
        RULE_UNWRAP => {
            "no .unwrap() and no bare .expect(…) in non-test library code of \
             I/O- and solver-facing crates (graph::io, linalg, datasets): \
             return Result, or document the invariant with \
             .expect(\"invariant: …\")"
        }
        RULE_FORBID_UNSAFE => {
            "every crate root must carry #![forbid(unsafe_code)] — except \
             crates hosting a sanctioned-unsafe module (net/src/shm.rs), \
             whose root carries #![deny(unsafe_code)] instead; `unsafe` \
             tokens are banned everywhere outside the sanctioned list, and \
             inside it every block needs a per-block \
             `splpg-lint: allow(forbid-unsafe) — reason` pragma"
        }
        RULE_PRINT_MACRO => {
            "no println!/eprintln!/print!/eprint! in library code outside \
             crates/bench: libraries return data, binaries print it"
        }
        RULE_TAPE_IN_LOOP => {
            "no Tape::new() inside a loop body in library code: a fresh \
             tape per iteration reallocates the whole autodiff working set \
             every step — hoist one Tape out of the loop and let reset() \
             recycle its arena (allow with a reason where a cold-start \
             tape per iteration is the point)"
        }
        RULE_ALLOC_IN_HOT_LOOP => {
            "no Vec::new()/vec![…] inside loop bodies of sampling/kernel hot \
             paths (gnn/sampler.rs, tensor/kernels.rs, tensor/segment.rs, \
             tensor/tape.rs): per-iteration empty Vecs reallocate from cold \
             every hop — reuse scratch buffers, or Vec::with_capacity for \
             output-owned arrays sized once before the loop"
        }
        RULE_FLOAT_ACCUM_IN_PAR => {
            "no order-sensitive `+=`/`-=` into indexed or deref targets \
             inside parallel regions (closures reachable from the splpg-par \
             entry points): float addition is non-associative, so reduction \
             order varies with thread count and breaks bit-determinism — \
             accumulate into chunk-owned rows merged in fixed order, or call \
             the sanctioned reduction kernels in tensor::kernels/segment"
        }
        RULE_RNG_NOT_DERIVED => {
            "no RNG construction (seed_from_u64, SplitMix64::new) inside \
             loops or parallel regions, and no manual seed mixing \
             (`^`/`<<`/wrapping_*) anywhere in library code: per-item \
             streams must come from splpg_rng::derive_stream(seed, stream), \
             which is order- and thread-count-independent by construction"
        }
        RULE_NET_CALL_NO_TIMEOUT => {
            "no raw Transport send/recv/recv_timeout in dist/net outside the \
             timeout/retry wrapper layer (net/transport.rs, net/cluster.rs, \
             net/fault.rs, dist/runtime.rs): a bare recv deadlocks the \
             quorum protocol on a dropped frame — go through the wrappers' \
             retry ladder"
        }
        RULE_AS_CAST_TRUNCATION => {
            "no narrowing `as` casts (as u8/u16/u32/i8/i16/i32) in kernel, \
             tape and sampler hot paths: an oversized node/edge id silently \
             wraps — use try_from with a documented invariant, or widen \
             the type"
        }
        RULE_STALE_PRAGMA => {
            "every `splpg-lint: allow(…)` pragma must suppress at least one \
             diagnostic: stale pragmas hide the absence of a problem and rot \
             into misleading documentation — delete them when the code they \
             excused is gone"
        }
        _ => "unknown rule",
    }
}

/// Scope facts about the file being checked, derived from its path.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Directory name under `crates/` (e.g. `graph`), if any.
    pub crate_name: Option<String>,
    /// Whether the file is a binary target (`src/bin/**` or `src/main.rs`).
    pub is_binary: bool,
    /// Whether the file is the crate root (`src/lib.rs`).
    pub is_crate_root: bool,
}

impl FileScope {
    /// Derives the scope from a `/`-separated workspace-relative path.
    pub fn of(path: &str) -> FileScope {
        let crate_name = path
            .split('/')
            .skip_while(|s| *s != "crates")
            .nth(1)
            .map(str::to_string);
        let is_binary = path.contains("/src/bin/") || path.ends_with("/src/main.rs");
        let is_crate_root = path.ends_with("/src/lib.rs");
        FileScope { crate_name, is_binary, is_crate_root }
    }

    fn in_crate(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }
}

/// One `allow`/`allow-file` pragma occurrence, with usage tracking for
/// the `stale-pragma` rule.
#[derive(Debug)]
pub struct PragmaEntry {
    /// 0-based line the pragma comment sits on.
    pub line: usize,
    /// The rule name it names.
    pub rule: String,
    /// `allow-file(…)`: suppresses on every line of the file.
    pub file_wide: bool,
    used: Cell<bool>,
}

/// All pragmas of one file.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// Entries in source order (one per rule name named in a pragma).
    pub entries: Vec<PragmaEntry>,
}

impl Pragmas {
    /// Parses `splpg-lint: allow(rule-a, rule-b)` and
    /// `splpg-lint: allow-file(rule)` pragmas out of each line's comment
    /// text.
    pub fn collect(file: &SourceFile) -> Pragmas {
        let mut entries = Vec::new();
        for (idx, line) in file.lines.iter().enumerate() {
            // Doc comments never carry pragmas: they *describe* the
            // pragma syntax (this crate's own docs included) without
            // enacting it.
            let head = line.raw.trim_start();
            if head.starts_with("///") || head.starts_with("//!") {
                continue;
            }
            let mut rest = line.comment.as_str();
            while let Some(at) = rest.find("splpg-lint:") {
                rest = &rest[at + "splpg-lint:".len()..];
                let trimmed = rest.trim_start();
                let (file_wide, args_after) = if let Some(a) = trimmed.strip_prefix("allow-file(") {
                    (true, Some(a))
                } else if let Some(a) = trimmed.strip_prefix("allow(") {
                    (false, Some(a))
                } else {
                    (false, None)
                };
                if let Some(args) = args_after {
                    if let Some(close) = args.find(')') {
                        for name in args[..close].split(',') {
                            entries.push(PragmaEntry {
                                line: idx,
                                rule: name.trim().to_string(),
                                file_wide,
                                used: Cell::new(false),
                            });
                        }
                        rest = &args[close..];
                        continue;
                    }
                }
                rest = trimmed;
            }
        }
        Pragmas { entries }
    }

    /// Whether a diagnostic for `rule` on line `idx` is suppressed.
    ///
    /// Scoping is deliberately narrow: a pragma covers its own line, or
    /// the line directly below when the pragma stands alone on a
    /// comment-only line, or the whole file for `allow-file`. Matching
    /// entries are marked used (feeding `stale-pragma`).
    pub fn allowed(&self, file: &SourceFile, idx: usize, rule: &str) -> bool {
        let mut hit = false;
        for e in &self.entries {
            if e.rule != rule {
                continue;
            }
            let applies = e.file_wide
                || e.line == idx
                || (e.line + 1 == idx && file.lines[e.line].code.trim().is_empty());
            if applies {
                e.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// A fully analyzed file: every pass's output, ready for the rules.
pub struct FileAnalysis {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Path-derived scope facts.
    pub scope: FileScope,
    /// Masked lines.
    pub file: SourceFile,
    /// Token tree with scope annotations.
    pub tree: TokenTree,
    /// Pragmas, with usage tracking.
    pub pragmas: Pragmas,
    /// Per-token "inside a parallel region" mask (symbol pass output),
    /// aligned with `tree.tokens`.
    pub in_par: Vec<bool>,
}

impl FileAnalysis {
    /// Analyzes one file in isolation: the parallel-region mask is
    /// computed from this file alone (workspace scans use the cross-file
    /// symbol pass in `lib.rs` instead).
    pub fn single(path: &str, source: &str) -> FileAnalysis {
        let file = SourceFile::analyze(source);
        let tree = TokenTree::build(&file);
        let scope = FileScope::of(path);
        let in_par = {
            let unit = symbols::FileUnit {
                path,
                crate_name: scope.crate_name.as_deref(),
                file: &file,
                tree: &tree,
            };
            symbols::parallel_marks(std::slice::from_ref(&unit)).pop().unwrap_or_default()
        };
        let pragmas = Pragmas::collect(&file);
        FileAnalysis { path: path.to_string(), scope, file, tree, pragmas, in_par }
    }

    /// Pushes a diagnostic on 0-based line `idx` unless a pragma covers it.
    fn push(&self, out: &mut Vec<Diagnostic>, idx: usize, rule: &'static str, message: String) {
        if !self.pragmas.allowed(&self.file, idx, rule) {
            out.push(Diagnostic { path: self.path.clone(), line: idx + 1, rule, message });
        }
    }

    /// Token text at `i`, or `""` past the end.
    fn tok(&self, i: usize) -> &str {
        self.tree.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    /// Whether tokens at `i..` match `seq` exactly.
    fn seq(&self, i: usize, seq: &[&str]) -> bool {
        seq.iter().enumerate().all(|(k, s)| self.tok(i + k) == *s)
    }
}

/// A named rule and its runner. Runners are independent so the CLI can
/// time each rule separately (`--timings`).
pub struct Rule {
    /// Stable kebab-case name.
    pub name: &'static str,
    /// The checker.
    pub run: fn(&FileAnalysis, &mut Vec<Diagnostic>),
}

/// Every rule except `stale-pragma`, which must run after all others
/// (it reads the pragma usage the other rules record).
pub const RULES: &[Rule] = &[
    Rule { name: RULE_HASH_ITER, run: hash_iter },
    Rule { name: RULE_THREAD_SPAWN, run: thread_spawn },
    Rule { name: RULE_WALLCLOCK, run: wallclock },
    Rule { name: RULE_UNWRAP, run: unwrap_expect },
    Rule { name: RULE_FORBID_UNSAFE, run: forbid_unsafe },
    Rule { name: RULE_PRINT_MACRO, run: print_macro },
    Rule { name: RULE_TAPE_IN_LOOP, run: tape_in_loop },
    Rule { name: RULE_ALLOC_IN_HOT_LOOP, run: alloc_in_hot_loop },
    Rule { name: RULE_FLOAT_ACCUM_IN_PAR, run: float_accum_in_par },
    Rule { name: RULE_RNG_NOT_DERIVED, run: rng_not_derived },
    Rule { name: RULE_NET_CALL_NO_TIMEOUT, run: net_call_no_timeout },
    Rule { name: RULE_AS_CAST_TRUNCATION, run: as_cast_truncation },
];

/// Runs every rule (then the stale-pragma pass) over one analyzed file.
pub fn check_analysis(a: &FileAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in RULES {
        (rule.run)(a, &mut out);
    }
    stale_pragmas(a, &mut out);
    out.sort_by(|x, y| x.line.cmp(&y.line).then_with(|| x.rule.cmp(y.rule)));
    out
}

// ---------------------------------------------------------------------
// Line rules (masked-text matching).
// ---------------------------------------------------------------------

fn each_library_line(a: &FileAnalysis) -> impl Iterator<Item = (usize, &Line)> {
    a.file.lines.iter().enumerate().filter(|(_, l)| !l.in_test)
}

fn hash_iter(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let applies =
        a.scope.crate_name.as_deref().is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
    if !applies {
        return;
    }
    for (idx, line) in each_library_line(a) {
        for token in ["HashMap", "HashSet"] {
            if !find_word(&line.code, token).is_empty() {
                a.push(
                    out,
                    idx,
                    RULE_HASH_ITER,
                    format!(
                        "{token} in a deterministic crate: hash iteration order is \
                         randomized per process; use BTreeMap/BTreeSet or an index \
                         vector (or allow with a determinism argument)"
                    ),
                );
            }
        }
    }
}

fn thread_spawn(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    // par hosts the fork-join pool; net hosts the long-lived cluster
    // actors. All other crates must route threads through one of the two.
    if a.scope.in_crate("par") || a.scope.in_crate("net") {
        return;
    }
    for (idx, line) in each_library_line(a) {
        for token in ["thread::spawn", "thread::scope"] {
            if line.code.contains(token) {
                a.push(
                    out,
                    idx,
                    RULE_THREAD_SPAWN,
                    format!(
                        "{token} outside splpg-par/splpg-net: route parallel work \
                         through the global pool (or cluster actors through \
                         splpg-net) so thread-count invariance holds"
                    ),
                );
                break;
            }
        }
    }
}

fn wallclock(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if a.scope.in_crate("bench") {
        return;
    }
    for (idx, line) in each_library_line(a) {
        for token in ["Instant", "SystemTime"] {
            if !find_word(&line.code, token).is_empty() {
                a.push(
                    out,
                    idx,
                    RULE_WALLCLOCK,
                    format!(
                        "std::time::{token} outside crates/bench: wall-clock reads \
                         make library output timing-dependent"
                    ),
                );
                break;
            }
        }
    }
}

fn unwrap_expect(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let applies = a.path.ends_with("crates/graph/src/io.rs")
        || a.scope.in_crate("linalg")
        || a.scope.in_crate("datasets");
    if !applies {
        return;
    }
    for (idx, line) in each_library_line(a) {
        if line.code.contains(".unwrap()") {
            a.push(
                out,
                idx,
                RULE_UNWRAP,
                ".unwrap() in I/O/solver-facing library code: propagate a Result \
                 or document the invariant with .expect(\"invariant: …\")"
                    .to_string(),
            );
        }
        // .expect(…) must carry a message starting with "invariant:". The
        // literal contents live in `line.strings`; find the string opening
        // right after the call's parenthesis.
        let mut from = 0usize;
        while let Some(pos) = line.code[from..].find(".expect(") {
            let open = from + pos + ".expect(".len();
            let col = line.code[..open].chars().count()
                + line.code[open..].chars().take_while(|c| *c == ' ').count();
            let msg = line
                .strings
                .iter()
                .find(|(c, _)| *c == col)
                .map(|(_, s)| s.trim_start());
            let ok = msg.is_some_and(|m| m.starts_with("invariant:"));
            if !ok {
                a.push(
                    out,
                    idx,
                    RULE_UNWRAP,
                    ".expect(…) without an \"invariant: …\" message in I/O/solver-\
                     facing library code: state the invariant or propagate a Result"
                        .to_string(),
                );
            }
            from = open;
        }
    }
}

fn print_macro(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if a.scope.in_crate("bench") || a.scope.is_binary {
        return;
    }
    for (idx, line) in each_library_line(a) {
        for token in ["println!", "eprintln!", "print!", "eprint!"] {
            let bare = &token[..token.len() - 1];
            if find_word(&line.code, bare)
                .into_iter()
                .any(|at| line.code[at + bare.len()..].starts_with('!'))
            {
                a.push(
                    out,
                    idx,
                    RULE_PRINT_MACRO,
                    format!("{token} in library code: return data to the caller; only bench and bin targets print"),
                );
                break;
            }
        }
    }
}

fn forbid_unsafe(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    // A crate that hosts a sanctioned-unsafe module cannot `forbid` at the
    // root (the attribute is unoverridable), so its root must `deny` and
    // the sanctioned module alone carries the `#[allow]`.
    let crate_sanctioned = SANCTIONED_UNSAFE_FILES
        .iter()
        .any(|p| FileScope::of(p).crate_name == a.scope.crate_name);
    if a.scope.is_crate_root {
        let want = if crate_sanctioned {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        if !a.file.lines.iter().any(|l| l.code.contains(want)) {
            a.push(out, 0, RULE_FORBID_UNSAFE, format!("crate root is missing {want}"));
        }
    }
    let sanctioned = SANCTIONED_UNSAFE_FILES.contains(&a.path.as_str());
    if sanctioned {
        // The carve-out is per block, never file-wide, and every pragma
        // must state its reason after the closing paren. Neither check is
        // itself suppressible — a pragma cannot excuse its own misuse.
        for e in &a.pragmas.entries {
            if e.rule != RULE_FORBID_UNSAFE {
                continue;
            }
            if e.file_wide {
                out.push(Diagnostic {
                    path: a.path.clone(),
                    line: e.line + 1,
                    rule: RULE_FORBID_UNSAFE,
                    message: "allow-file(forbid-unsafe) is not sanctioned: each \
                              unsafe block needs its own allow(forbid-unsafe) \
                              pragma with a reason"
                        .to_string(),
                });
            }
            let comment = a.file.lines[e.line].comment.as_str();
            let reason = comment
                .split("forbid-unsafe")
                .nth(1)
                .and_then(|rest| rest.split_once(')'))
                .map_or("", |(_, after)| after);
            if !reason.chars().any(|c| c.is_alphabetic()) {
                out.push(Diagnostic {
                    path: a.path.clone(),
                    line: e.line + 1,
                    rule: RULE_FORBID_UNSAFE,
                    message: "allow(forbid-unsafe) pragma without a reason: \
                              state why this block cannot be safe, e.g. \
                              `// splpg-lint: allow(forbid-unsafe) — <reason>`"
                        .to_string(),
                });
            }
        }
    }
    for i in 0..a.tree.tokens.len() {
        if a.tok(i) != "unsafe" {
            continue;
        }
        let idx = a.tree.tokens[i].line;
        if sanctioned {
            // Suppressible only by a per-block `allow` pragma on this line
            // or alone on the line above (whose reason the loop above
            // already vetted) — never by `allow-file`, which would defeat
            // the block-by-block accounting.
            let mut covered = false;
            for e in &a.pragmas.entries {
                let applies = e.rule == RULE_FORBID_UNSAFE
                    && !e.file_wide
                    && (e.line == idx
                        || (e.line + 1 == idx && a.file.lines[e.line].code.trim().is_empty()));
                if applies {
                    e.used.set(true);
                    covered = true;
                }
            }
            if !covered {
                out.push(Diagnostic {
                    path: a.path.clone(),
                    line: idx + 1,
                    rule: RULE_FORBID_UNSAFE,
                    message: "unsafe block without a \
                              `splpg-lint: allow(forbid-unsafe) — reason` pragma"
                        .to_string(),
                });
            }
        } else {
            // Unsuppressible anywhere else: unsafe code belongs in the
            // sanctioned module list or not in this workspace at all.
            out.push(Diagnostic {
                path: a.path.clone(),
                line: idx + 1,
                rule: RULE_FORBID_UNSAFE,
                message: "unsafe code outside the sanctioned modules \
                          (net/src/shm.rs): wrap the operation behind the \
                          shared-memory bus API or keep it safe"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Tree rules (token-tree scope matching).
// ---------------------------------------------------------------------

/// Flags `Tape::new()` inside loop bodies of non-test library code: a
/// fresh tape per iteration defeats the arena — its buffers are rebuilt
/// from cold every step instead of being recycled by `Tape::reset()`.
fn tape_in_loop(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if a.scope.is_binary {
        // Binaries may build throwaway tapes (e.g. a bench's cold-start
        // baseline measures exactly that cost).
        return;
    }
    for i in 0..a.tree.tokens.len() {
        if a.seq(i, &["Tape", "::", "new"])
            && a.tree.ctx[i].loop_depth > 0
            && !a.tree.in_test(&a.file, i)
        {
            a.push(
                out,
                a.tree.tokens[i].line,
                RULE_TAPE_IN_LOOP,
                "Tape::new() inside a loop body: hoist the tape out \
                 of the loop and call reset() per iteration so its \
                 arena is recycled instead of reallocated"
                    .to_string(),
            );
        }
    }
}

/// Flags `Vec::new()` / `vec![…]` inside loop bodies of the sampling and
/// kernel hot paths ([`HOT_LOOP_FILES`]): a fresh empty Vec per frontier
/// node or row block regrows from zero capacity every iteration — exactly
/// the allocation churn the reusable scratch buffers exist to absorb.
/// `Vec::with_capacity` (sized once from known totals) is allowed.
fn alloc_in_hot_loop(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if !HOT_LOOP_FILES.iter().any(|f| a.path.ends_with(f)) {
        return;
    }
    for i in 0..a.tree.tokens.len() {
        let hit = if a.seq(i, &["Vec", "::", "new"]) {
            Some("Vec::new()")
        } else if a.seq(i, &["vec", "!"]) {
            Some("vec![…]")
        } else {
            None
        };
        let Some(token) = hit else { continue };
        if a.tree.ctx[i].loop_depth > 0 && !a.tree.in_test(&a.file, i) {
            a.push(
                out,
                a.tree.tokens[i].line,
                RULE_ALLOC_IN_HOT_LOOP,
                format!(
                    "{token} inside a hot-loop body: reuse a scratch \
                     buffer or hoist a with_capacity allocation out of \
                     the loop"
                ),
            );
        }
    }
}

/// Flags order-sensitive `+=`/`-=` accumulation inside parallel regions.
///
/// Fires when the target is an indexed (`buf[i] += …`) or dereferenced
/// (`*slot += …`) place — the shapes shared output takes — and skips
/// plain-variable and field targets (chunk-local accumulators) and
/// bare integer-literal increments (counters, associative regardless of
/// order). The sanctioned reduction files are exempt wholesale: they
/// *are* the deterministic implementation everyone else is told to call.
fn float_accum_in_par(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if SANCTIONED_REDUCTION_FILES.iter().any(|f| a.path.ends_with(f)) {
        return;
    }
    if a.scope.is_binary || a.scope.in_crate("bench") {
        return;
    }
    for i in 0..a.tree.tokens.len() {
        let t = &a.tree.tokens[i];
        if !(t.text == "+=" || t.text == "-=") || !a.in_par[i] || a.tree.in_test(&a.file, i) {
            continue;
        }
        // `count += 1` style: integer-literal RHS is order-insensitive.
        let rhs_int_literal = a
            .tree
            .tokens
            .get(i + 1)
            .is_some_and(|r| r.kind == TokenKind::Number && !r.text.contains('.'))
            && matches!(a.tok(i + 2), ";" | "}" | "");
        if rhs_int_literal {
            continue;
        }
        if accum_target_is_shared(a, i) {
            a.push(
                out,
                t.line,
                RULE_FLOAT_ACCUM_IN_PAR,
                format!(
                    "`{}` into an indexed/deref target inside a parallel region: \
                     float reduction order varies with thread count and breaks \
                     bit-determinism — accumulate into chunk-owned buffers merged \
                     in fixed order, or use the tensor::kernels/segment reduction \
                     helpers",
                    t.text
                ),
            );
        }
    }
}

/// Walks the assignment target left of the `+=`/`-=` at `i`: true when
/// it indexes (`…[…]`) or starts with a deref (`*…`).
fn accum_target_is_shared(a: &FileAnalysis, i: usize) -> bool {
    let toks = &a.tree.tokens;
    let mut has_index = false;
    let mut start = i;
    let mut j = i;
    while let Some(p) = j.checked_sub(1) {
        let t = &toks[p];
        match t.text.as_str() {
            "]" => match a.tree.partner[p] {
                Some(open) => {
                    has_index = true;
                    start = open;
                    j = open;
                }
                None => break,
            },
            "." | "::" | "*" => {
                start = p;
                j = p;
            }
            _ if t.kind == TokenKind::Ident || t.kind == TokenKind::Number => {
                start = p;
                j = p;
            }
            _ => break,
        }
    }
    has_index || toks[start].text == "*"
}

/// Flags RNG construction in the wrong place or by the wrong means.
///
/// Per-item randomness must come from `derive_stream(seed, stream)`
/// (order- and thread-count-independent by construction); building a
/// generator inside a loop or parallel region, or hand-mixing a seed
/// with `^`/`<<`/`wrapping_*`, reinvents stream derivation ad hoc —
/// exactly how two call sites end up with correlated or order-dependent
/// streams. `splpg-rng` itself (where `derive_stream` lives) and bench
/// code are exempt.
fn rng_not_derived(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if a.scope.in_crate("rng") || a.scope.in_crate("bench") || a.scope.is_binary {
        return;
    }
    for i in 0..a.tree.tokens.len() {
        let (what, open) = if a.tok(i) == "seed_from_u64" && a.tok(i + 1) == "(" {
            ("seed_from_u64", i + 1)
        } else if a.seq(i, &["SplitMix64", "::", "new", "("]) {
            ("SplitMix64::new", i + 3)
        } else {
            continue;
        };
        if a.tree.in_test(&a.file, i) {
            continue;
        }
        let in_loop = a.tree.ctx[i].loop_depth > 0;
        let in_par = a.in_par[i];
        let mixed = a.tree.partner[open].is_some_and(|close| {
            a.tree.tokens[open + 1..close].iter().any(|t| {
                t.text == "^" || t.text == "<<" || t.text.starts_with("wrapping_")
            })
        });
        if in_loop || in_par || mixed {
            let where_ = if in_par {
                "inside a parallel region"
            } else if in_loop {
                "inside a loop body"
            } else {
                "from a hand-mixed seed"
            };
            a.push(
                out,
                a.tree.tokens[i].line,
                RULE_RNG_NOT_DERIVED,
                format!(
                    "{what} {where_}: derive per-item streams with \
                     splpg_rng::derive_stream(seed, stream) instead of \
                     reconstructing or hand-mixing generators — derived \
                     streams are order- and thread-count-independent"
                ),
            );
        }
    }
}

/// Flags raw `Transport` traffic outside the wrapper layer.
///
/// In `dist`/`net`, every `.send(…)`/`.recv(…)`/`.recv_timeout(…)` must
/// go through the timeout/retry wrappers ([`NET_WRAPPER_FILES`]): a bare
/// `recv` hangs the quorum protocol forever on the first dropped frame
/// the fault injector (or a real network) produces.
fn net_call_no_timeout(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if !(a.scope.in_crate("dist") || a.scope.in_crate("net")) {
        return;
    }
    if NET_WRAPPER_FILES.iter().any(|f| a.path.ends_with(f)) {
        return;
    }
    for i in 0..a.tree.tokens.len() {
        let name = a.tok(i);
        if !matches!(name, "send" | "recv" | "recv_timeout") {
            continue;
        }
        let prev_dot = i.checked_sub(1).is_some_and(|p| a.tok(p) == ".");
        if prev_dot && a.tok(i + 1) == "(" && !a.tree.in_test(&a.file, i) {
            a.push(
                out,
                a.tree.tokens[i].line,
                RULE_NET_CALL_NO_TIMEOUT,
                format!(
                    ".{name}(…) outside the transport wrapper layer: raw \
                     sends/receives bypass the timeout/retry ladder and \
                     deadlock on the first dropped frame — route through \
                     net::cluster / dist::runtime"
                ),
            );
        }
    }
}

/// Flags narrowing `as` casts in the kernel/sampler hot paths
/// ([`CAST_HOT_FILES`]): `idx as u32` silently wraps past 2^32 — on the
/// OGB-scale graphs the paper targets that is a real id, not a bug that
/// announces itself. `try_from` + documented invariant, or a wider type.
fn as_cast_truncation(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    if !CAST_HOT_FILES.iter().any(|f| a.path.ends_with(f)) {
        return;
    }
    for i in 0..a.tree.tokens.len() {
        if a.tok(i) != "as" || a.tree.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let target = a.tok(i + 1);
        if NARROW.contains(&target) && !a.tree.in_test(&a.file, i) {
            a.push(
                out,
                a.tree.tokens[i].line,
                RULE_AS_CAST_TRUNCATION,
                format!(
                    "narrowing `as {target}` cast in a hot indexing path \
                     silently truncates oversized ids: use \
                     {target}::try_from(…) with a documented invariant, or \
                     widen the type"
                ),
            );
        }
    }
}

/// Reports pragmas that suppressed nothing. Runs after every other rule
/// (their [`Pragmas::allowed`] calls record usage). A pragma naming
/// `stale-pragma` is never itself reported stale, and test code may keep
/// illustrative pragmas.
pub fn stale_pragmas(a: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for e in &a.pragmas.entries {
        if e.rule == RULE_STALE_PRAGMA || e.used.get() {
            continue;
        }
        if a.file.lines.get(e.line).is_some_and(|l| l.in_test) {
            continue;
        }
        if a.pragmas.allowed(&a.file, e.line, RULE_STALE_PRAGMA) {
            continue;
        }
        let kind = if e.file_wide { "allow-file" } else { "allow" };
        out.push(Diagnostic {
            path: a.path.clone(),
            line: e.line + 1,
            rule: RULE_STALE_PRAGMA,
            message: format!(
                "{kind}({}) suppresses nothing: the code it excused is gone \
                 (or the rule name is misspelled) — delete the pragma",
                e.rule
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_analysis(&FileAnalysis::single(path, src))
    }

    #[test]
    fn scope_extracts_crate_name() {
        let s = FileScope::of("crates/graph/src/io.rs");
        assert_eq!(s.crate_name.as_deref(), Some("graph"));
        assert!(!s.is_binary);
        let b = FileScope::of("crates/bench/src/bin/fig03.rs");
        assert!(b.is_binary);
        assert!(FileScope::of("crates/gnn/src/lib.rs").is_crate_root);
    }

    #[test]
    fn same_line_pragma_suppresses() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::HashMap; // splpg-lint: allow(hash-iter) — lookup only, never iterated\n";
        assert!(diags("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn preceding_line_pragma_suppresses() {
        let src = "#![forbid(unsafe_code)]\n// splpg-lint: allow(hash-iter) — lookup only\nuse std::collections::HashMap;\n";
        assert!(diags("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn pragma_two_lines_above_does_not_suppress() {
        let src = "#![forbid(unsafe_code)]\n// splpg-lint: allow(hash-iter) — too far away\nfn pad() {}\nuse std::collections::HashMap;\n";
        let d = diags("crates/graph/src/lib.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_HASH_ITER), "{d:?}");
        assert!(d.iter().any(|d| d.rule == RULE_STALE_PRAGMA), "{d:?}");
    }

    #[test]
    fn allow_file_pragma_covers_whole_file() {
        let src = "#![forbid(unsafe_code)]\n// splpg-lint: allow-file(hash-iter) — id interner, lookup only\nuse std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        assert!(diags("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn stale_pragma_fires_when_nothing_suppressed() {
        let src = "#![forbid(unsafe_code)]\n// splpg-lint: allow(wallclock) — removed long ago\nfn f() {}\n";
        let d = diags("crates/graph/src/lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_STALE_PRAGMA);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn stale_pragma_fires_on_misspelled_rule() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::HashMap; // splpg-lint: allow(hash-itre) — typo\n";
        let d = diags("crates/graph/src/lib.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_HASH_ITER), "{d:?}");
        assert!(rules.contains(&RULE_STALE_PRAGMA), "{d:?}");
    }

    #[test]
    fn thread_scope_allowed_in_par_and_net_only() {
        let src = "#![forbid(unsafe_code)]\nstd::thread::scope(|s| s.spawn(|| {}));\n";
        assert!(diags("crates/par/src/lib.rs", src).is_empty());
        assert!(diags("crates/net/src/cluster.rs", src).is_empty());
        let d = diags("crates/dist/src/trainer.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RULE_THREAD_SPAWN);
    }

    #[test]
    fn hash_iter_covers_net() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n";
        let d = diags("crates/net/src/codec.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RULE_HASH_ITER);
    }

    #[test]
    fn tape_new_in_loop_fires() {
        for header in ["for b in batches {", "while run {", "loop {"] {
            let src = format!(
                "#![forbid(unsafe_code)]\nfn f() {{\n    {header}\n        let mut tape = Tape::new();\n    }}\n}}\n"
            );
            let d = diags("crates/gnn/src/trainer.rs", &src);
            assert_eq!(d.len(), 1, "{header}: {d:?}");
            assert_eq!(d[0].rule, RULE_TAPE_IN_LOOP);
            assert_eq!(d[0].line, 4);
        }
    }

    #[test]
    fn tape_new_outside_loop_is_fine() {
        let src = "#![forbid(unsafe_code)]\nfn f() {\n    let mut tape = Tape::new();\n    for b in batches {\n        tape.reset();\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn tape_in_loop_skips_tests_binaries_and_impl_for() {
        let in_test = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    fn t() {\n        for i in 0..3 {\n            let mut tape = Tape::new();\n        }\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", in_test).is_empty());
        let in_bin = "fn main() {\n    for i in 0..3 {\n        let t = Tape::new();\n    }\n}\n";
        assert!(diags("crates/bench/src/bin/train_step.rs", in_bin).is_empty());
        // `impl Trait for Type` must not be mistaken for a loop header.
        let impl_for = "#![forbid(unsafe_code)]\nimpl Builder for Factory {\n    fn build(&self) -> Tape {\n        Tape::new()\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", impl_for).is_empty());
        // Higher-ranked `for<'a>` bounds are not loops either.
        let hrtb = "#![forbid(unsafe_code)]\nfn f(g: impl for<'a> Fn(&'a u32)) {\n    let t = Tape::new();\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", hrtb).is_empty());
    }

    #[test]
    fn tape_in_loop_sees_nested_fn_boundary() {
        // A fn defined inside a loop body resets loop context: its body
        // is not "in the loop" (brace counting got this wrong).
        let src = "#![forbid(unsafe_code)]\nfn f() {\n    for i in 0..3 {\n        fn helper() -> Tape {\n            Tape::new()\n        }\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn tape_in_loop_pragma_suppresses() {
        let src = "#![forbid(unsafe_code)]\nfn f() {\n    for i in 0..3 {\n        // splpg-lint: allow(tape-in-loop) — cold-start cost is the measurement\n        let t = Tape::new();\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn alloc_in_hot_loop_fires_for_vec_new_and_vec_macro() {
        for alloc in ["let mut buf = Vec::new();", "let zs = vec![0.0; n];"] {
            let src = format!(
                "#![forbid(unsafe_code)]\nfn f() {{\n    for v in frontier {{\n        {alloc}\n    }}\n}}\n"
            );
            for path in HOT_LOOP_FILES {
                let d = diags(path, &src);
                assert_eq!(d.len(), 1, "{alloc} in {path}: {d:?}");
                assert_eq!(d[0].rule, RULE_ALLOC_IN_HOT_LOOP);
                assert_eq!(d[0].line, 4);
            }
        }
    }

    #[test]
    fn alloc_in_hot_loop_scoped_to_hot_files_and_loops() {
        // Outside a loop body: with_capacity-style hoisting is the point,
        // but even a bare Vec::new at fn scope is once-per-call, not per-hop.
        let outside = "#![forbid(unsafe_code)]\nfn f() {\n    let mut buf = Vec::new();\n    for v in frontier {\n        buf.clear();\n    }\n}\n";
        assert!(diags("crates/gnn/src/sampler.rs", outside).is_empty());
        // Same pattern in a non-hot file is not this rule's business.
        let in_loop = "#![forbid(unsafe_code)]\nfn f() {\n    for v in frontier {\n        let mut buf = Vec::new();\n    }\n}\n";
        assert!(diags("crates/gnn/src/trainer.rs", in_loop).is_empty());
        // Test modules may allocate freely.
        let in_test = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    fn t() {\n        for i in 0..3 {\n            let v = vec![i];\n        }\n    }\n}\n";
        assert!(diags("crates/gnn/src/sampler.rs", in_test).is_empty());
        // `Vec::with_capacity` never matches the `Vec::new` token.
        let with_cap = "#![forbid(unsafe_code)]\nfn f() {\n    for v in frontier {\n        let mut buf = Vec::with_capacity(n);\n    }\n}\n";
        assert!(diags("crates/gnn/src/sampler.rs", with_cap).is_empty());
    }

    #[test]
    fn alloc_in_hot_loop_pragma_suppresses() {
        let src = "#![forbid(unsafe_code)]\nfn f() {\n    for v in frontier {\n        // splpg-lint: allow(alloc-in-hot-loop) — sized exactly once, moved into the batch\n        let buf = Vec::new();\n    }\n}\n";
        assert!(diags("crates/gnn/src/sampler.rs", src).is_empty());
    }

    #[test]
    fn float_accum_fires_in_inline_parallel_closure() {
        let src = "#![forbid(unsafe_code)]\nfn f(pool: &Pool) {\n    pool.parallel_for(n, 1, |i| {\n        out[i % 4] += x[i];\n    });\n}\n";
        let d = diags("crates/linalg/src/laplacian.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_FLOAT_ACCUM_IN_PAR);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn float_accum_skips_chunk_local_and_counters() {
        // Plain-variable and field targets are chunk-local accumulators;
        // integer-literal increments are order-insensitive counters.
        let src = "#![forbid(unsafe_code)]\nfn f(pool: &Pool) {\n    pool.parallel_for(n, 1, |i| {\n        acc += x[i];\n        stats.count += 1;\n    });\n}\n";
        assert!(diags("crates/linalg/src/laplacian.rs", src).is_empty());
    }

    #[test]
    fn float_accum_exempts_sanctioned_reduction_files() {
        let src = "#![forbid(unsafe_code)]\nfn f(pool: &Pool) {\n    pool.parallel_for(n, 1, |i| {\n        out[i] += x[i];\n    });\n}\n";
        for path in SANCTIONED_REDUCTION_FILES {
            assert!(diags(path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn float_accum_outside_parallel_region_is_fine() {
        let src = "#![forbid(unsafe_code)]\nfn f() {\n    for i in 0..n {\n        out[i] += x[i];\n    }\n}\n";
        assert!(diags("crates/linalg/src/laplacian.rs", src).is_empty());
    }

    #[test]
    fn rng_fires_in_loop_and_on_mixed_seed() {
        let in_loop = "#![forbid(unsafe_code)]\nfn f(seed: u64) {\n    for i in 0..n {\n        let mut rng = Xoshiro256pp::seed_from_u64(seed);\n    }\n}\n";
        let d = diags("crates/gnn/src/negative.rs", in_loop);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_RNG_NOT_DERIVED);
        let mixed = "#![forbid(unsafe_code)]\nfn f(seed: u64, w: u64) {\n    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ w << 32);\n}\n";
        let d = diags("crates/dist/src/trainer.rs", mixed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_RNG_NOT_DERIVED);
    }

    #[test]
    fn rng_plain_top_level_seed_is_fine() {
        let src = "#![forbid(unsafe_code)]\nfn f(seed: u64) {\n    let mut rng = Xoshiro256pp::seed_from_u64(seed);\n}\n";
        assert!(diags("crates/dist/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn rng_exempts_rng_crate_itself() {
        let src = "#![forbid(unsafe_code)]\nfn derive_stream(seed: u64, s: u64) {\n    for i in 0..4 {\n        let mut mix = SplitMix64::new(seed ^ s.wrapping_mul(K));\n    }\n}\n";
        assert!(diags("crates/rng/src/lib.rs", src).is_empty());
    }

    #[test]
    fn net_call_fires_outside_wrapper_files() {
        let src = "#![forbid(unsafe_code)]\nfn f(port: &mut WorkerPort) {\n    let frame = port.recv().expect(\"frame\");\n    port.send(frame).expect(\"send\");\n}\n";
        let d = diags("crates/dist/src/strategies.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_NET_CALL_NO_TIMEOUT));
    }

    #[test]
    fn net_call_allowed_in_wrapper_layer_and_other_crates() {
        let src = "#![forbid(unsafe_code)]\nfn f(port: &mut WorkerPort) {\n    let frame = port.recv();\n}\n";
        for path in NET_WRAPPER_FILES {
            assert!(diags(path, src).is_empty(), "{path}");
        }
        // mpsc channels in par are not transport traffic.
        assert!(diags("crates/par/src/lib.rs", src).is_empty());
    }

    #[test]
    fn as_cast_fires_in_hot_files_only() {
        let src = "#![forbid(unsafe_code)]\nfn f(i: usize) -> u32 {\n    i as u32\n}\n";
        for path in CAST_HOT_FILES {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, RULE_AS_CAST_TRUNCATION);
        }
        assert!(diags("crates/graph/src/csr.rs", src).is_empty());
    }

    #[test]
    fn as_cast_widening_is_fine() {
        let src = "#![forbid(unsafe_code)]\nfn f(i: u32) {\n    let a = i as usize;\n    let b = i as u64;\n    let c = i as f32;\n}\n";
        assert!(diags("crates/gnn/src/sampler.rs", src).is_empty());
    }

    #[test]
    fn pragma_for_other_rule_does_not_suppress() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::HashMap; // splpg-lint: allow(wallclock) — wrong rule\n";
        let d = diags("crates/graph/src/lib.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_HASH_ITER), "{d:?}");
        // And the useless wallclock pragma is itself flagged.
        assert!(rules.contains(&RULE_STALE_PRAGMA), "{d:?}");
    }
}
