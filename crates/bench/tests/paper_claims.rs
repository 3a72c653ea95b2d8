//! The paper's claims as a tier-1 contract: the claims table computed at a
//! reduced window, with every shape predicate asserted.
//!
//! The window is a tenth of the full 350k + 200k references per core. At
//! the full window Figure 7's SecDir/Baseline L2-miss ratios span
//! 0.919–0.999 and its normalized IPC 0.960–1.095; at this window every
//! ratio is still below 1.0 and normalized IPC spans 0.961–0.996, inside
//! the same predicates (≤ 1.0, within ±10%). Rows whose predicate holds
//! only at the full window are listed in [`FULL_WINDOW_ONLY`]; the CI
//! `claims` step enforces them there (`cargo bench -p secdir-bench --bench
//! claims` exits nonzero on any failing row and must reproduce
//! `CLAIMS.md`).

use std::sync::OnceLock;

use secdir_bench::claims::{claims, Claim};

const WARMUP: u64 = 35_000;
const MEASURE: u64 = 20_000;

/// Rows that hold only at the full window, and why they fail here:
/// * the VD banks are still filling, so the Empty Bit removes nearly every
///   probe (EBVD/NoEBVD 0.06 and 0.00) and no PARSEC app hits in its VD yet;
/// * at a quarter of this window both timing mitigations cost the same
///   (+2.0–3.1%), so "selective is cheaper" cannot show;
/// * way partitioning costs only 5–7% IPC before the caches warm, short of
///   the 10% the §1 rows require (22–26% at the full window).
const FULL_WINDOW_ONLY: &[&str] = &[
    "EBVD/NoEBVD, SPEC avg",
    "EBVD/NoEBVD, PARSEC avg",
    "VD-hit share of SecDir's L2 misses: largest, freqmine, unshared apps",
    "selective mitigation (pad cross-core-observable responses): differential; time cost",
    "normalized IPC on mix2 (LLCF+LLCF)",
    "normalized IPC on mix0 (CCF+CCF)",
];

fn table() -> &'static [Claim] {
    static TABLE: OnceLock<Vec<Claim>> = OnceLock::new();
    TABLE.get_or_init(|| claims(WARMUP, MEASURE, 2))
}

#[test]
fn shape_predicates_hold_at_the_reduced_window() {
    let rows = table();
    for name in FULL_WINDOW_ONLY {
        assert!(
            rows.iter().any(|r| r.metric == *name),
            "full-window row `{name}` is gone from the table"
        );
    }
    for section in ["Figure 7 — SPEC mixes", "Figure 8 — PARSEC"] {
        assert!(
            rows.iter().filter(|r| r.section == section).count() >= 3,
            "{section} rows are missing"
        );
    }
    let failed: Vec<&Claim> = rows
        .iter()
        .filter(|r| !r.holds && !FULL_WINDOW_ONLY.contains(&r.metric))
        .collect();
    assert!(failed.is_empty(), "predicates failed: {failed:#?}");
}

#[test]
fn rows_do_not_depend_on_the_sweep_thread_count() {
    assert_eq!(claims(WARMUP, MEASURE, 1), table());
}
