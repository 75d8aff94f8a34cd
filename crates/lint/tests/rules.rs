//! Fixture-based rule tests: every rule must both fire on its bad
//! fixture and stay silent on its good fixture (which also exercises the
//! allow-pragma escape hatch). The bans clippy carries are pinned by
//! reading the workspace's clippy configuration.

use splpg_lint::check_source;

/// Rule names firing in `src` when checked under `path`, deduplicated.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = check_source(path, src).into_iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// Diagnostics other than the (expected) missing `forbid(unsafe_code)`
/// header, which non-`lib.rs` fixtures never carry.
fn fired_content(path: &str, src: &str) -> Vec<&'static str> {
    fired(path, src).into_iter().filter(|r| *r != "forbid-unsafe").collect()
}

#[test]
fn unwrap_fires_on_bad_fixture_in_all_scoped_crates() {
    for path in ["crates/linalg/src/fixture.rs", "crates/datasets/src/fixture.rs"] {
        let rules = fired_content(path, include_str!("fixtures/unwrap_bad.rs"));
        assert_eq!(rules, vec!["unwrap-expect"], "scope {path}");
    }
}

#[test]
fn unwrap_passes_good_fixture_and_unscoped_files() {
    let good = fired_content("crates/linalg/src/fixture.rs", include_str!("fixtures/unwrap_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // Crates outside the scope may panic on internal invariants.
    let other = fired_content("crates/graph/src/csr.rs", include_str!("fixtures/unwrap_bad.rs"));
    assert!(other.is_empty(), "{other:?}");
}

#[test]
fn forbid_unsafe_fires_on_bare_crate_root() {
    let d = check_source("crates/graph/src/lib.rs", include_str!("fixtures/forbid_bad.rs"));
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "forbid-unsafe");
    assert_eq!(d[0].line, 1);
}

#[test]
fn forbid_unsafe_passes_compliant_root_and_non_roots() {
    let good = fired("crates/graph/src/lib.rs", include_str!("fixtures/forbid_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // Non-root files don't need the attribute.
    let non_root = fired("crates/graph/src/csr.rs", include_str!("fixtures/forbid_bad.rs"));
    assert!(non_root.is_empty(), "{non_root:?}");
}

#[test]
fn forbid_unsafe_is_unsuppressible_outside_sanctioned_modules() {
    // The sanctioned shm module may hold unsafe blocks…
    let good =
        fired("crates/net/src/shm.rs", include_str!("fixtures/unsafe_sanctioned_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // …and the same code in any other file fires, comments or not.
    let d = check_source(
        "crates/graph/src/csr.rs",
        include_str!("fixtures/unsafe_sanctioned_good.rs"),
    );
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "forbid-unsafe").collect();
    assert_eq!(hits.len(), 2, "one per unsafe token: {hits:?}");
    assert!(hits.iter().all(|d| d.message.contains("sanctioned")));
}

#[test]
fn forbid_unsafe_sanctioned_crate_root_denies_instead_of_forbidding() {
    // net hosts the carve-out, so its root must carry deny(unsafe_code)…
    let deny = "#![deny(unsafe_code)]\n//! net root.\n";
    assert!(fired("crates/net/src/lib.rs", deny).is_empty());
    // …and a forbid-only net root is flagged (forbid would make the
    // module-level #[allow] a compile error, hiding the real policy).
    let forbid = "#![forbid(unsafe_code)]\n//! net root.\n";
    let d = check_source("crates/net/src/lib.rs", forbid);
    assert_eq!(d.len(), 1);
    assert!(d[0].message.contains("deny"), "{:?}", d[0]);
    // Other crates still require forbid; deny alone is not enough there.
    let d = check_source("crates/graph/src/lib.rs", deny);
    assert_eq!(d.len(), 1);
    assert!(d[0].message.contains("forbid"), "{:?}", d[0]);
}

#[test]
fn tape_in_loop_fires_on_bad_fixture() {
    let d = check_source(
        "crates/gnn/src/fixture.rs",
        include_str!("fixtures/tape_loop_bad.rs"),
    );
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "tape-in-loop").collect();
    assert_eq!(hits.len(), 2, "for-loop and while-loop sites: {hits:?}");
}

#[test]
fn tape_in_loop_passes_good_fixture_and_binaries() {
    let good = fired_content(
        "crates/gnn/src/fixture.rs",
        include_str!("fixtures/tape_loop_good.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
    // Binaries (e.g. a bench timing cold-start tapes) are exempt.
    let binary = fired_content(
        "crates/bench/src/bin/kernel_bench.rs",
        include_str!("fixtures/tape_loop_bad.rs"),
    );
    assert!(binary.is_empty(), "bin targets may build throwaway tapes: {binary:?}");
}

#[test]
fn alloc_in_hot_loop_fires_on_bad_fixture() {
    let d = check_source(
        "crates/gnn/src/sampler.rs",
        include_str!("fixtures/alloc_loop_bad.rs"),
    );
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "alloc-in-hot-loop").collect();
    assert_eq!(hits.len(), 2, "Vec::new and vec![…] sites: {hits:?}");
}

#[test]
fn alloc_in_hot_loop_passes_good_fixture_and_other_files() {
    let good = fired_content(
        "crates/gnn/src/sampler.rs",
        include_str!("fixtures/alloc_loop_good.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
    // Only the hot-path files are in scope.
    let elsewhere = fired_content(
        "crates/gnn/src/negative.rs",
        include_str!("fixtures/alloc_loop_bad.rs"),
    );
    assert!(elsewhere.is_empty(), "non-hot files may allocate in loops: {elsewhere:?}");
}

#[test]
fn the_setup_hot_paths_reuse_their_pass_buffers() {
    // FM refinement and the PCG engine joined the hot-loop set: a buffer
    // allocated per pass fires in either file…
    for path in ["crates/partition/src/metis_like.rs", "crates/linalg/src/engine.rs"] {
        let d = check_source(path, include_str!("fixtures/fm_pass_bad.rs"));
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "alloc-in-hot-loop").collect();
        assert_eq!(hits.len(), 2, "{path}: vec![…] and Vec::new sites: {hits:?}");
        // …and the hoisted, reset-per-pass form is clean.
        let good = fired_content(path, include_str!("fixtures/fm_pass_good.rs"));
        assert!(good.is_empty(), "{path}: {good:?}");
    }
}

#[test]
fn the_evaluation_chunk_loops_reuse_their_buffers() {
    // The trainer joined the hot-loop set: a row buffer allocated per
    // layer or per chunk fires…
    let trainer = "crates/gnn/src/trainer.rs";
    let d = check_source(trainer, include_str!("fixtures/eval_chunk_bad.rs"));
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "alloc-in-hot-loop").collect();
    assert_eq!(hits.len(), 2, "Vec::new and vec![…] sites: {hits:?}");
    // …and the form that hoists them and clears per layer is clean.
    let good = fired_content(trainer, include_str!("fixtures/eval_chunk_good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn the_tape_is_hot_for_allocs_and_casts() {
    // The file that records and differentiates the fused `aggregate` op
    // joined both hot sets: a heap buffer or a narrowing cast per node
    // fires…
    let tape = "crates/tensor/src/tape.rs";
    let bad = fired_content(tape, include_str!("fixtures/aggregate_layer_bad.rs"));
    assert_eq!(bad, ["alloc-in-hot-loop", "as-cast-truncation"]);
    // …and the arena-backed form of the same loop is clean.
    let good = fired_content(tape, include_str!("fixtures/aggregate_layer_good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn float_accum_fires_on_bad_fixture() {
    // Three shapes: inline closure, let-bound closure dispatched by name,
    // helper fn called from a parallel region.
    let d = check_source("crates/linalg/src/fixture.rs", include_str!("fixtures/float_accum_bad.rs"));
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "float-accum-in-par").collect();
    assert_eq!(hits.len(), 3, "{hits:?}");
}

#[test]
fn float_accum_passes_good_fixture_and_sanctioned_files() {
    let good =
        fired_content("crates/linalg/src/fixture.rs", include_str!("fixtures/float_accum_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // The deterministic-reduction helpers themselves are exempt wholesale.
    for path in ["crates/tensor/src/kernels.rs", "crates/tensor/src/segment.rs"] {
        let f = fired_content(path, include_str!("fixtures/float_accum_bad.rs"));
        assert!(!f.contains(&"float-accum-in-par"), "{path}: {f:?}");
    }
}

#[test]
fn rng_not_derived_fires_on_bad_fixture() {
    // In-loop construction, hand-mixed seed, construction on a worker.
    let d = check_source("crates/gnn/src/fixture.rs", include_str!("fixtures/rng_derive_bad.rs"));
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "rng-not-derived").collect();
    assert_eq!(hits.len(), 3, "{hits:?}");
}

#[test]
fn rng_not_derived_passes_good_fixture_and_rng_crate() {
    let good =
        fired_content("crates/gnn/src/fixture.rs", include_str!("fixtures/rng_derive_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // splpg-rng implements derive_stream: it may mix seeds.
    let rng = fired_content("crates/rng/src/fixture.rs", include_str!("fixtures/rng_derive_bad.rs"));
    assert!(!rng.contains(&"rng-not-derived"), "{rng:?}");
}

#[test]
fn net_call_fires_on_bad_fixture() {
    let d = check_source("crates/dist/src/fixture.rs", include_str!("fixtures/net_timeout_bad.rs"));
    let hits: Vec<_> = d.iter().filter(|d| d.rule == "net-call-no-timeout").collect();
    assert_eq!(hits.len(), 3, "send, recv, recv_timeout: {hits:?}");
}

#[test]
fn net_call_passes_good_fixture_and_wrapper_layer() {
    let good =
        fired_content("crates/dist/src/fixture.rs", include_str!("fixtures/net_timeout_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // The wrapper layer is where raw send/recv legitimately lives.
    let wrapper =
        fired_content("crates/dist/src/runtime.rs", include_str!("fixtures/net_timeout_bad.rs"));
    assert!(!wrapper.contains(&"net-call-no-timeout"), "{wrapper:?}");
}

#[test]
fn as_cast_fires_on_bad_fixture_in_every_hot_file() {
    for path in splpg_lint::rules::CAST_HOT_FILES {
        let d = check_source(path, include_str!("fixtures/as_cast_bad.rs"));
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "as-cast-truncation").collect();
        assert_eq!(hits.len(), 2, "{path}: {hits:?}");
    }
}

#[test]
fn as_cast_passes_good_fixture_and_cold_files() {
    let good = fired_content("crates/gnn/src/sampler.rs", include_str!("fixtures/as_cast_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    let cold = fired_content("crates/graph/src/csr.rs", include_str!("fixtures/as_cast_bad.rs"));
    assert!(cold.is_empty(), "non-hot files may narrow: {cold:?}");
}

#[test]
fn quantization_casts_through_sanctioned_helpers_pass_in_compress() {
    // The compression module is a hot file: bare narrowing casts fire,
    // but the sanctioned quantization idioms (masked try_from, a clamped
    // float->code cast under a pragma naming the invariant) do not.
    let good = fired_content(
        "crates/net/src/compress.rs",
        include_str!("fixtures/quantize_cast_good.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
    let bad = fired_content("crates/net/src/compress.rs", include_str!("fixtures/as_cast_bad.rs"));
    assert!(bad.contains(&"as-cast-truncation"), "{bad:?}");
}

#[test]
fn isa_select_fires_on_bad_fixture() {
    let d = check_source("crates/tensor/src/fixture.rs", include_str!("fixtures/isa_select_bad.rs"));
    let lines: Vec<usize> = d.iter().filter(|d| d.rule == "isa-select").map(|d| d.line).collect();
    // cfg attribute, target_feature attribute, cfg!, two detection macros
    // (one behind a std::arch path) and a core::arch import.
    assert_eq!(lines, vec![3, 6, 12, 20, 24, 28]);
}

#[test]
fn isa_select_passes_good_fixture_and_bench_binaries() {
    let good =
        fired_content("crates/tensor/src/fixture.rs", include_str!("fixtures/isa_select_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // kernel_bench reports the compiled-in target features.
    let bench = fired_content(
        "crates/bench/src/bin/kernel_bench.rs",
        include_str!("fixtures/isa_select_bad.rs"),
    );
    assert!(!bench.contains(&"isa-select"), "{bench:?}");
}

#[test]
fn seeded_bad_patterns_fire_in_workspace_hot_paths() {
    // The acceptance bar: dropping any bad-fixture pattern into a real
    // hot-path file must fail the same scan scripts/verify.sh runs.
    let cases: &[(&str, &str, &str)] = &[
        ("crates/linalg/src/solver.rs", include_str!("fixtures/float_accum_bad.rs"), "float-accum-in-par"),
        ("crates/gnn/src/negative.rs", include_str!("fixtures/rng_derive_bad.rs"), "rng-not-derived"),
        ("crates/dist/src/strategies.rs", include_str!("fixtures/net_timeout_bad.rs"), "net-call-no-timeout"),
        ("crates/gnn/src/sampler.rs", include_str!("fixtures/as_cast_bad.rs"), "as-cast-truncation"),
    ];
    for (path, src, rule) in cases {
        let f = fired(path, src);
        assert!(f.contains(rule), "{rule} must fire when seeded into {path}: {f:?}");
    }
}

#[test]
fn allow_file_pragma_and_stale_pragma_integration() {
    // allow-file covers every occurrence in the file…
    let src = "#![forbid(unsafe_code)]\n\
               // splpg-lint: allow-file(isa-select) — spin hints only\n\
               use std::arch::x86_64::_mm_pause;\n\
               fn f() -> bool { cfg!(target_feature = \"sse2\") }\n";
    assert!(fired("crates/graph/src/lib.rs", src).is_empty());
    // …and a pragma that covers nothing is itself a violation.
    let stale = "#![forbid(unsafe_code)]\n\
                 // splpg-lint: allow(tape-in-loop) — code moved out of the loop long ago\n\
                 fn f() {}\n";
    let d = check_source("crates/graph/src/lib.rs", stale);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "stale-pragma");
    assert_eq!(d[0].line, 2);
}

#[test]
fn json_golden_snapshot() {
    // Machine-readable output is a stable contract for CI/editors: the
    // exact bytes are pinned. Regenerate deliberately with
    // `SPLPG_BLESS=1 cargo test -p splpg-lint json_golden`.
    let diagnostics =
        check_source("crates/tensor/src/kernels.rs", include_str!("fixtures/as_cast_bad.rs"));
    let report = splpg_lint::Report { diagnostics, files_scanned: 1, timings: Vec::new() };
    let actual = splpg_lint::report_json(&report);
    let golden_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.json");
    if std::env::var("SPLPG_BLESS").is_ok() {
        std::fs::write(golden_path, format!("{actual}\n")).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("read golden");
    assert_eq!(actual.trim_end(), golden.trim_end(), "JSON output drifted from the golden snapshot");
}

#[test]
fn cli_exit_codes_and_formats() {
    use std::process::Command;
    let exe = env!("CARGO_BIN_EXE_splpg-lint");

    // `rules` lists every rule and exits 0.
    let out = Command::new(exe).arg("rules").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in splpg_lint::RULE_NAMES {
        assert!(text.contains(rule), "rules listing missing {rule}");
    }

    // A violating mini-workspace: exit 1, and JSON mode reports it.
    let dir = std::env::temp_dir().join(format!("splpg_lint_cli_{}", std::process::id()));
    let src = dir.join("crates").join("graph").join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("lib.rs"), "use std::arch::x86_64::_mm_pause;\n").expect("write");
    let root = dir.to_str().expect("utf8 tempdir");
    let out = Command::new(exe)
        .args(["check", "--root", root, "--format=json"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"violations\": 2"), "isa-select + forbid-unsafe: {json}");
    assert!(json.contains("\"rule\":\"isa-select\""), "{json}");

    // Clean mini-workspace: exit 0, timings print under --timings.
    std::fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n").expect("write");
    let out = Command::new(exe)
        .args(["check", "--root", root, "--timings", "--budget-ms", "60000"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("per-phase timings"));

    // Usage errors: exit 2.
    let out = Command::new(exe).args(["check", "--bogus"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pragma_reasons_survive_extra_rules_listed() {
    // One pragma can name several rules.
    let src = "#![forbid(unsafe_code)]\n\
               // splpg-lint: allow(isa-select, unwrap-expect) — fixture\n\
               use std::arch::x86_64::_mm_pause; fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let d = check_source("crates/linalg/src/lib.rs", src);
    assert!(d.is_empty(), "{d:?}");
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/lint`, two levels
/// below it.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("invariant: crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_scan_reports_zero_violations() {
    // The repo itself must stay clean — this is the same check
    // scripts/verify.sh runs, kept here so `cargo test` alone catches
    // regressions.
    let report = splpg_lint::check_workspace(&workspace_root()).expect("scan");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "expected to scan the whole workspace");
    // The full rule set must be active for the clean bill to mean
    // anything; clippy carries the rest (see the tests below).
    assert_eq!(
        splpg_lint::RULE_NAMES,
        [
            "unwrap-expect",
            "forbid-unsafe",
            "tape-in-loop",
            "alloc-in-hot-loop",
            "float-accum-in-par",
            "rng-not-derived",
            "net-call-no-timeout",
            "as-cast-truncation",
            "isa-select",
            "stale-pragma",
        ]
    );
}

fn workspace_file(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("read a workspace file")
}

/// Whether `[workspace.lints.clippy]` in the workspace Cargo.toml denies `lint`.
fn clippy_denies(lint: &str) -> bool {
    let cargo = workspace_file("Cargo.toml");
    let table = cargo.split("[workspace.lints.clippy]").nth(1).and_then(|t| t.split("\n[").next());
    let table = table.expect("Cargo.toml has a [workspace.lints.clippy] table");
    table.lines().any(|l| l.trim() == format!("{lint} = \"deny\""))
}

/// Asserts that clippy rejects each `bad` line of a retired rule's fixture:
/// `lint` is denied, clippy.toml's `key` list bans each of `paths`, and
/// each line names a ban by its last `segments` path segments (a type by
/// its name, a method by `Type::method` or `module::fn`). Returns those
/// short names.
fn assert_banned(
    lint: &str,
    key: &str,
    paths: &[&str],
    segments: usize,
    bad: &[&str],
) -> Vec<String> {
    assert!(clippy_denies(lint), "[workspace.lints.clippy] no longer denies {lint}");
    let toml = workspace_file("clippy.toml");
    let list = toml.split(&format!("\n{key} = [")).nth(1).and_then(|l| l.split("\n]").next());
    let bans: Vec<&str> = list
        .unwrap_or("")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split("path = \"").nth(1)?.split('"').next())
        .collect();
    for path in paths {
        assert!(bans.contains(path), "clippy.toml no longer bans {path}");
    }
    let short: Vec<String> = bans
        .iter()
        .map(|b| {
            let tail: Vec<&str> = b.rsplit("::").take(segments).collect();
            tail.into_iter().rev().collect::<Vec<_>>().join("::")
        })
        .collect();
    for line in bad {
        assert!(short.iter().any(|s| line.contains(s.as_str())), "clippy passes {line}");
    }
    short
}

// Hash containers, ad-hoc threads, clock reads, prints and undocumented
// unsafe blocks are rejected by `cargo clippy -D warnings`
// (scripts/verify.sh), not by this crate. The tests below replay the bad
// fixtures of the rules it handed over against the workspace's clippy
// configuration, so a dropped entry fails `cargo test`, not only the gate.

#[test]
fn hash_iter_fires_on_bad_fixture() {
    let paths = ["std::collections::HashMap", "std::collections::HashSet"];
    let bad = [
        "use std::collections::HashMap;",
        "use std::collections::HashSet;",
        "let mut hist: HashMap<usize, usize> = HashMap::new();",
        "let set: HashSet<u32> = values.iter().copied().collect();",
    ];
    let short = assert_banned("disallowed_types", "disallowed-types", &paths, 1, &bad);
    assert!(!short.iter().any(|s| "let hist: BTreeMap<usize, usize>".contains(s.as_str())));
}

#[test]
fn thread_spawn_fires_on_bad_fixture() {
    let paths = [
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
    ];
    let bad = ["std::thread::scope(|scope| {", "std::thread::spawn(|| {});"];
    assert_banned("disallowed_methods", "disallowed-methods", &paths, 2, &bad);
}

#[test]
fn wallclock_fires_on_bad_fixture() {
    let paths = ["std::time::Instant::now", "std::time::SystemTime::now"];
    let bad = ["let t0 = Instant::now();", "std::time::SystemTime::now()"];
    let short = assert_banned("disallowed_methods", "disallowed-methods", &paths, 2, &bad);
    // Clippy bans the read, not the import: an `Instant` only comes from one.
    assert!(!short.iter().any(|s| "use std::time::Instant;".contains(s.as_str())));
}

#[test]
fn print_macro_fires_on_bad_fixture() {
    // The bad fixture's `println!` and `eprintln!` are clippy's `print_stdout`
    // and `print_stderr`; tests may print.
    assert!(clippy_denies("print_stdout") && clippy_denies("print_stderr"));
    let toml = workspace_file("clippy.toml");
    assert!(toml.lines().any(|l| l.trim() == "allow-print-in-tests = true"));
}

#[test]
fn forbid_unsafe_sanctioned_module_needs_reasoned_pragma_per_block() {
    // In the sanctioned module the reason is the `// SAFETY:` comment that
    // clippy's `undocumented_unsafe_blocks` demands above each unsafe block
    // and impl; check the module as it stands.
    assert!(clippy_denies("undocumented_unsafe_blocks"));
    let shm = workspace_file("crates/net/src/shm.rs");
    let lines: Vec<&str> = shm.lines().map(str::trim_start).collect();
    let unsafe_at: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].starts_with("//"))
        .filter(|&i| lines[i].contains("unsafe {") || lines[i].contains("unsafe impl"))
        .collect();
    assert!(!unsafe_at.is_empty(), "shm.rs holds the workspace's unsafe blocks");
    for i in unsafe_at {
        let mut above = lines[..i].iter().rev().take_while(|l| l.starts_with("//"));
        assert!(above.any(|l| l.starts_with("// SAFETY:")), "shm.rs:{} lacks // SAFETY:", i + 1);
    }
}
