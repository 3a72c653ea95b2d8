//! Pins the canonical `(states, transitions)` of the symmetry-reduced
//! checker at the model's full 4-core × 4-line geometry, at one and two
//! worker threads.
//!
//! A change to canonicalization, packing, successor expansion or the
//! visited set that shifts an orbit count fails here. Way-partitioned
//! (407 323 / 16 836 964) takes seconds per run, so CI covers it by
//! comparing `verif --full` against `BENCH_checker.json` instead.

use secdir_coherence::AppendixA;
use secdir_verif::{check_opt, CheckOptions, DirKind, ModelConfig};

fn assert_pinned(kind: DirKind, states: usize, transitions: usize) {
    for threads in [1, 2] {
        let report = check_opt(
            ModelConfig::full(kind),
            &CheckOptions {
                canonicalize: true,
                threads,
            },
        );
        assert!(
            report.violation.is_none(),
            "{} at {threads} threads: {:?}",
            kind.name(),
            report.violation.map(|v| v.invariant)
        );
        assert_eq!(
            (report.states, report.transitions),
            (states, transitions),
            "{} at {threads} threads",
            kind.name()
        );
    }
}

#[test]
fn baseline_full_counts() {
    assert_pinned(DirKind::Baseline(AppendixA::SkylakeQuirk), 259, 8261);
}

#[test]
fn baseline_fixed_full_counts() {
    assert_pinned(DirKind::Baseline(AppendixA::Fixed), 417, 13283);
}

#[test]
fn secdir_full_counts() {
    assert_pinned(DirKind::SecDir, 34332, 1_276_060);
}

#[test]
fn vd_only_full_counts() {
    assert_pinned(DirKind::VdOnly, 110, 3450);
}
