//! Prints the paper-vs-measured claims table (`CLAIMS.md`) at the full
//! window and exits nonzero if any row's shape predicate fails.
//!
//! ```bash
//! cargo bench -p secdir-bench --bench claims > CLAIMS.md
//! ```
//!
//! The rows are seeded and do not depend on the sweep's thread count, so
//! the output is byte-identical on every machine.

use std::process::ExitCode;

use secdir_bench::claims::{claims, render};
use secdir_bench::{DEFAULT_MEASURE, DEFAULT_WARMUP};

fn main() -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let rows = claims(DEFAULT_WARMUP, DEFAULT_MEASURE, threads);
    print!("{}", render(&rows, DEFAULT_WARMUP, DEFAULT_MEASURE));
    let failed: Vec<_> = rows.iter().filter(|r| !r.holds).collect();
    for r in &failed {
        eprintln!("claims: `{}` does not hold: {}", r.metric, r.measured);
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
