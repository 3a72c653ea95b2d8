//! Byte-identity suite for every JSON artifact the workspace writes:
//! sweep cell records (all four [`CellOutcome`] shapes), throughput and
//! checker bench rows, fault-injection reports, the lint JSON report,
//! and a `serve` journal (JSONL, and the binary journal of the same
//! schedule decoded back to JSONL).
//!
//! Every artifact is produced through public APIs only and compared
//! against `tests/golden/json_bytes.txt` byte for byte, so a change to
//! how JSON is written — escaping, field order, number formatting —
//! shows up as a snapshot diff. The free-text fields carry hostile
//! strings (quote, backslash, newline, a control byte, non-ASCII text
//! and JSON-shaped text). Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test json_bytes
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use secdir_machine::perf::PerfSample;
use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, TenantSpec,
};
use secdir_machine::sweep::{run_cell, run_matrix, CellOutcome, CellSpec, SweepOptions};
use secdir_machine::{
    inject, Access, AccessStream, DirectoryKind, FaultKind, FaultPlan, SlicedOptions,
};
use secdir_mem::{CoreId, LineAddr};
use secdir_verif::{render_json, CheckerBenchRecord, Diagnostic, DirKind, LintReport, Severity};

/// Quote, backslash, newline, a control byte, non-ASCII text, and
/// JSON-shaped text that would forge a field if it were not escaped.
const HOSTILE: &str = "q\"b\\s\nn\u{1}c é世😀 \",\"seed\":9}";

/// A tiny deterministic sweep factory: each core strides over a private
/// region derived from the seed.
fn stride_factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
    (0..cell.cores)
        .map(|c| {
            let base = (c as u64 + 1) << 20;
            let seed = cell.seed;
            Box::new(
                (0..10_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                }),
            ) as Box<dyn AccessStream>
        })
        .collect()
}

fn cell(kind: DirectoryKind) -> CellSpec {
    CellSpec {
        workload: "stride".to_string(),
        kind,
        seed: 3,
        cores: 2,
        warmup: 100,
        measure: 400,
    }
}

fn cell_lines(out: &mut Vec<(String, String)>) {
    let done = CellOutcome::Done(Box::new(run_cell(
        &cell(DirectoryKind::SecDir),
        &stride_factory,
    )));
    let panicked = CellOutcome::Panicked {
        cell: cell(DirectoryKind::Baseline),
        msg: HOSTILE.to_string(),
    };
    let opts = SweepOptions {
        budget: Some(10),
        ..SweepOptions::new(1)
    };
    let exhausted =
        run_matrix(&[cell(DirectoryKind::SecDirVdOnly)], &stride_factory, &opts).remove(0);
    assert!(matches!(exhausted, CellOutcome::Exhausted { .. }));
    let skipped = CellOutcome::Skipped {
        cell: cell(DirectoryKind::WayPartitioned),
    };
    for (name, o) in [
        ("cell.done", &done),
        ("cell.panicked", &panicked),
        ("cell.exhausted", &exhausted),
        ("cell.skipped", &skipped),
    ] {
        out.push((name.to_string(), o.to_json_line()));
    }
}

fn bench_lines(out: &mut Vec<(String, String)>) {
    let spec = secdir_machine::perf::PerfSpec {
        kinds: vec![DirectoryKind::SecDir],
        workload: "mix0".to_string(),
        cores: 8,
        warmup: 2_000,
        measure: 20_000,
        sweep_cells: 4,
        threads: 2,
        seed: 0x5eed,
        serial_reps: 3,
        epoch_batches: vec![64],
    };
    let serial = PerfSample {
        directory: DirectoryKind::Baseline,
        mode: "serial",
        tuning: None,
        cells: 1,
        threads: 1,
        warmup_timed: false,
        accesses: 160_000,
        nanos: 21_000_123,
    };
    let sliced = PerfSample {
        directory: DirectoryKind::SecDir,
        mode: "sliced",
        tuning: Some(SlicedOptions { epoch_batch: 256 }),
        nanos: u64::MAX as u128 + 7,
        ..serial.clone()
    };
    out.push(("perf.serial".to_string(), serial.to_json_line(&spec)));
    out.push(("perf.sliced".to_string(), sliced.to_json_line(&spec)));
    let checker = CheckerBenchRecord {
        kind: DirKind::SecDir,
        cores: 4,
        lines: 4,
        threads: 2,
        raw_timed: true,
        raw_states: 24_576,
        raw_transitions: 1_280_000,
        raw_nanos: 1_370_000_000,
        canon_states: 1_100,
        canon_transitions: 53_000,
        canon_nanos: 61_000_000,
        canon_peak_bytes: 1 << 20,
        levels: 31,
    };
    out.push(("checker".to_string(), checker.to_json_line()));
    let injected = inject::run_injection(
        DirectoryKind::SecDir,
        FaultKind::ALL[0],
        inject::DEFAULT_TRIGGER,
    );
    out.push(("inject".to_string(), injected.to_json_line()));
}

fn lint_lines(out: &mut Vec<(String, String)>) {
    let empty = LintReport {
        files: Vec::new(),
        findings: Vec::new(),
    };
    out.push(("lint.empty".to_string(), render_json(&empty)));
    let report = LintReport {
        files: vec!["crates/a.rs".to_string(), HOSTILE.to_string()],
        findings: vec![
            Diagnostic {
                file: PathBuf::from("crates/a.rs"),
                line: 3,
                col: 9,
                rule: "no-unwrap",
                severity: Severity::Error,
                message: HOSTILE.to_string(),
            },
            Diagnostic {
                file: PathBuf::from(HOSTILE),
                line: 40,
                col: 1,
                rule: "hot-alloc",
                severity: Severity::Warning,
                message: "plain".to_string(),
            },
        ],
    };
    out.push(("lint.findings".to_string(), render_json(&report)));
}

/// `uniform` traffic, except that a tenant whose workload is `panics`
/// panics with a hostile message after a few hundred references, and
/// one whose workload is `short` runs dry early.
fn serve_factory(spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>> {
    match spec.workload.as_str() {
        "panics" => uniform_streams(spec)
            .into_iter()
            .map(|mut s| {
                let mut n = 0u32;
                Box::new(std::iter::from_fn(move || {
                    n += 1;
                    assert!(n < 300, "{HOSTILE}");
                    s.next_access()
                })) as Box<dyn AccessStream>
            })
            .collect(),
        "short" => uniform_streams(spec)
            .into_iter()
            .map(|mut s| {
                Box::new(std::iter::from_fn(move || s.next_access()).take(50))
                    as Box<dyn AccessStream>
            })
            .collect(),
        _ => uniform_streams(spec),
    }
}

fn serve_config(format: JournalFormat) -> ServeConfig {
    let mut tenants = Vec::new();
    let mut add = |name: String, workload: &str, kind, fault: Option<FaultKind>| {
        tenants.push(TenantSpec {
            name,
            workload: workload.to_string(),
            kind,
            seed: 0x5eed + tenants.len() as u64,
            cores: 2,
            refs: 1_500,
            fault: fault.map(|kind| FaultPlan {
                kind,
                trigger: 400,
                core: CoreId(1),
            }),
        });
    };
    // The `serve --inject` naming: one armed tenant per (kind, fault).
    for kind in [DirectoryKind::Baseline, DirectoryKind::SecDir] {
        for fault in FaultKind::ALL {
            if fault.applicable_to(kind) {
                add(
                    format!("{}+{}", kind.name(), fault.name()),
                    "uniform",
                    kind,
                    Some(fault),
                );
            }
        }
    }
    // Names that need escaping are rejected by the config check; this
    // one is as hostile as it may be.
    let name = "t é世😀 {}[]:,\u{7f}";
    add(name.to_string(), HOSTILE, DirectoryKind::SecDirVdOnly, None);
    add(
        "panicker".to_string(),
        "panics",
        DirectoryKind::SecDir,
        None,
    );
    add("dry".to_string(), "short", DirectoryKind::Baseline, None);
    add("late".to_string(), "uniform", DirectoryKind::SecDir, None);
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 3;
    cfg.max_waiting = cfg.tenants.len() - 4; // the last tenant is shed
    cfg.checkpoint_interval = 500;
    cfg.idle_timeout = 8;
    cfg.burst_off_max = 2;
    cfg.format = format;
    cfg
}

fn serve_lines(out: &mut Vec<(String, String)>) {
    let mut jsonl = Vec::new();
    run_serve(
        &serve_config(JournalFormat::Jsonl),
        &serve_factory,
        &[],
        &mut jsonl,
    )
    .expect("jsonl serve run");
    let jsonl = String::from_utf8(jsonl).expect("journal is UTF-8");
    let mut binary = Vec::new();
    let binary_cfg = serve_config(JournalFormat::Binary);
    run_serve(&binary_cfg, &serve_factory, &[], &mut binary).expect("binary serve run");
    let decoded = decode_journal(&binary).expect("binary journal decodes");
    assert!(!decoded.torn);
    let decoded: String = decoded.lines.iter().map(|l| format!("{l}\n")).collect();
    // Resuming the binary journal from its midpoint splices the kept
    // records (ghost tenants included) and must re-encode them exactly.
    let mut resumed = Vec::new();
    run_serve(
        &binary_cfg,
        &serve_factory,
        &binary[..binary.len() / 2],
        &mut resumed,
    )
    .expect("binary resume");
    assert_eq!(resumed, binary, "binary resume diverged");
    out.push(("serve.jsonl".to_string(), jsonl));
    out.push(("serve.binary_decoded".to_string(), decoded));
}

fn render_all() -> String {
    let mut sections = Vec::new();
    cell_lines(&mut sections);
    bench_lines(&mut sections);
    lint_lines(&mut sections);
    serve_lines(&mut sections);
    let mut text = String::new();
    for (name, body) in sections {
        text.push_str("== ");
        text.push_str(&name);
        text.push('\n');
        text.push_str(&body);
        if !body.ends_with('\n') {
            text.push('\n');
        }
    }
    text
}

#[test]
fn json_artifacts_match_the_golden_bytes() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json_bytes.txt");
    let actual = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "json_bytes.txt line {} differs", n + 1);
    }
    assert_eq!(actual, expected, "json_bytes.txt differs in length");
}
