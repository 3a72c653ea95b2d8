//! The lint gate, end to end: the workspace itself must scan clean under
//! the token-level analysis engine (including its three new rule
//! families), an introduced violation must surface as a
//! `file:line:col` diagnostic, the engine must lint its own sources, and
//! the JSON report must be byte-deterministic.

use std::fs;
use std::path::{Path, PathBuf};

use secdir_verif::{lint_workspace, render_json};

fn workspace_root() -> PathBuf {
    // crates/verif -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "lint findings on the tree:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_engine_lints_its_own_sources() {
    // Self-lint: the analysis engine's modules are ordinary workspace
    // files and must appear in the scanned-file list (the CI artifact
    // asserts the same from the JSON `files` array).
    let report = lint_workspace(&workspace_root()).expect("scan succeeds");
    for module in [
        "crates/verif/src/analysis/mod.rs",
        "crates/verif/src/analysis/lexer.rs",
        "crates/verif/src/analysis/scope.rs",
        "crates/verif/src/analysis/waiver.rs",
        "crates/verif/src/analysis/rules/mod.rs",
        "crates/verif/src/analysis/rules/ported.rs",
        "crates/verif/src/analysis/rules/determinism.rs",
        "crates/verif/src/analysis/rules/panic_safety.rs",
        "crates/verif/src/analysis/rules/atomics.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == module),
            "engine source {module} missing from the scan: {:?}",
            report.files
        );
    }
    assert!(
        report
            .findings
            .iter()
            .all(|d| !d.file.starts_with("crates/verif/src/analysis")),
        "the engine must pass its own rules"
    );
}

#[test]
fn json_report_is_byte_deterministic() {
    let root = workspace_root();
    let one = render_json(&lint_workspace(&root).expect("first scan"));
    let two = render_json(&lint_workspace(&root).expect("second scan"));
    assert_eq!(one, two, "two scans must render byte-identical JSON");
    assert!(one.contains("\"schema\": \"secdir-lint/1\""));
}

#[test]
fn an_introduced_violation_fails_with_file_and_line() {
    // Build a miniature workspace in a scratch directory: one crate whose
    // lib.rs has the hygiene attributes but calls `.unwrap()` in
    // production code on a known line.
    let scratch = workspace_root()
        .join("target")
        .join("lint-scratch")
        .join(format!("pid-{}", std::process::id()));
    let src = scratch.join("crates").join("demo").join("src");
    fs::create_dir_all(&src).expect("create scratch crate");
    let bad = "#![forbid(unsafe_code)]\n\
               #![warn(missing_docs)]\n\
               //! Demo crate.\n\
               /// Doc.\n\
               pub fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap()\n\
               }\n";
    fs::write(src.join("lib.rs"), bad).expect("write bad source");

    let report = lint_workspace(&scratch).expect("scan succeeds");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the seeded violation: {:?}",
        report.findings
    );
    let d = &report.findings[0];
    assert_eq!(d.rule, "no-unwrap");
    assert_eq!(d.line, 6, "diagnostic must carry the offending line");
    assert!(
        d.file.ends_with("crates/demo/src/lib.rs"),
        "diagnostic must carry the file: {}",
        d.file.display()
    );
    // The rendered form is the `file:line:col: severity[rule] message`
    // CI contract.
    let rendered = d.to_string();
    assert!(rendered.contains("lib.rs:6:"), "{rendered}");
    assert!(rendered.contains("error[no-unwrap]"), "{rendered}");

    fs::remove_dir_all(&scratch).ok();
}

#[test]
fn barrier_panic_guards_the_serve_worker_region() {
    // serve's per-tick worker loop is the one `barrier-worker` region left
    // in the tree. The marker must still be there, and a panic path
    // planted inside the loop must be reported on its line.
    use secdir_verif::analysis::{analyze_source, classify};
    let rel = "crates/machine/src/serve/mod.rs";
    let src = fs::read_to_string(workspace_root().join(rel)).expect("read serve/mod.rs");
    let barrier = |src: &str| -> Vec<u32> {
        analyze_source(Path::new(rel), src, classify(rel))
            .into_iter()
            .filter(|d| d.rule == "barrier-panic")
            .map(|d| d.line)
            .collect()
    };
    assert!(barrier(&src).is_empty(), "serve's region must lint clean");

    let marker = "// lint: region(barrier-worker)\nfn worker_loop(";
    let at = src
        .find(marker)
        .expect("serve's worker loop carries the barrier-worker region");
    let body = at + src[at..].find("{\n").expect("worker_loop has a body") + 2;
    let planted = format!(
        "{}    let _ = run.tenants[0];\n{}",
        &src[..body],
        &src[body..]
    );
    let line = src[..body].lines().count() as u32 + 1;
    assert_eq!(barrier(&planted), vec![line]);
}
