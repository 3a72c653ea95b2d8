//! The SecDir paper's evaluation as one claims table.
//!
//! [`claims`] computes every paper-vs-measured row and renders it as the
//! markdown checked in as `CLAIMS.md`; `cargo bench -p secdir-bench
//! --bench claims` prints it at the full window and exits nonzero if any
//! row's shape predicate fails. `tests/paper_claims.rs` asserts the
//! predicates at a reduced window in the tier-1 suite. The
//! skip-then-measure runner the table is built on lives in
//! [`secdir_machine::sweep`], shared with `secdir-sim sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;

/// Default warm-up references per core (the paper skips 10 B instructions;
/// we skip proportionally on the scaled window).
pub const DEFAULT_WARMUP: u64 = 350_000;
/// Default measured references per core (the paper measures a 500 M-cycle
/// window).
pub const DEFAULT_MEASURE: u64 = 200_000;

/// The workload seed of every SPEC mix run (Fig 7, Tab 6, §1).
pub const SPEC_SEED: u64 = 0x5eed;
/// The workload seed of every PARSEC run (Fig 8, Tab 6, §6).
pub const PARSEC_SEED: u64 = 0x9a25ec;
