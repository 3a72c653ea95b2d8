//! Golden-stats regression suite: a fixed SplitMix64-seeded workload runs
//! on every [`DirectoryKind`], and the **full** serialized
//! [`MachineStats`] (per-core counters, merged [`DirSliceStats`],
//! invalidation causes, memory write-backs) must match the committed
//! snapshots under `tests/golden/` byte for byte.
//!
//! This is the safety net for storage-layout and probe-path refactors: any
//! change that alters a single counter — an extra replacement touch, a
//! reordered RNG draw, a dropped invalidation — shows up as a snapshot
//! diff. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and review the diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use secdir_machine::{
    run_workload_sliced_with, Access, AccessStream, DirectoryKind, Machine, MachineConfig,
    MachineStats, SlicedOptions,
};
use secdir_mem::{CoreId, LineAddr, SplitMix64};

/// Fixed workload parameters — changing any of these invalidates every
/// snapshot, so they are named constants rather than inline literals.
const SEED: u64 = 0x601d_57a7;
const ACCESSES: usize = 12_000;
const CORES: usize = 4;
const LINES: u64 = 1024;
const WRITE_FRACTION: f64 = 0.3;

/// Drives the fixed workload on a fresh small machine of the given kind.
fn run(kind: DirectoryKind) -> MachineStats {
    let mut machine = Machine::new(MachineConfig::small(CORES, kind));
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..ACCESSES {
        let core = CoreId(rng.next_below(CORES as u64) as usize);
        let line = LineAddr::new(rng.next_below(LINES));
        let write = rng.chance(WRITE_FRACTION);
        machine.access(core, line, write);
    }
    machine.check_invariants().unwrap();
    machine.stats().clone()
}

/// Serializes the full stats with a fixed field order (the `compat/serde`
/// shim has no real serializer, so snapshots are hand-rolled like every
/// other JSON artifact in this repo).
fn to_json(stats: &MachineStats) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"cores\": [\n");
    for (i, c) in stats.cores.iter().enumerate() {
        let fields: [(&str, u64); 13] = [
            ("accesses", c.accesses),
            ("reads", c.reads),
            ("writes", c.writes),
            ("l1_hits", c.l1_hits),
            ("l2_hits", c.l2_hits),
            ("l2_misses", c.l2_misses),
            ("ed_td_hits", c.ed_td_hits),
            ("vd_hits", c.vd_hits),
            ("memory_accesses", c.memory_accesses),
            ("upgrades", c.upgrades),
            ("inclusion_victims", c.inclusion_victims),
            ("invalidation_writebacks", c.invalidation_writebacks),
            ("l2_writebacks", c.l2_writebacks),
        ];
        out.push_str("    {");
        for (j, (name, value)) in fields.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {value}").unwrap();
        }
        out.push_str(if i + 1 < stats.cores.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"directory\": {\n");
    let d = &stats.directory;
    let dir_fields: [(&str, u64); 19] = [
        ("requests", d.requests),
        ("ed_hits", d.ed_hits),
        ("td_hits", d.td_hits),
        ("vd_hits", d.vd_hits),
        ("misses", d.misses),
        ("td_conflict_discards", d.td_conflict_discards),
        ("td_to_vd_migrations", d.td_to_vd_migrations),
        ("vd_to_td_migrations", d.vd_to_td_migrations),
        ("vd_self_conflicts", d.vd_self_conflicts),
        ("vd_inserts", d.vd_inserts),
        ("cuckoo_relocations", d.cuckoo_relocations),
        ("ed_to_td_migrations", d.ed_to_td_migrations),
        ("td_to_ed_migrations", d.td_to_ed_migrations),
        ("quirk_invalidations", d.quirk_invalidations),
        ("vd_lookups", d.vd_lookups),
        ("vd_bank_probes", d.vd_bank_probes),
        ("vd_bank_probes_without_eb", d.vd_bank_probes_without_eb),
        ("llc_writebacks", d.llc_writebacks),
        ("llc_data_fills", d.llc_data_fills),
    ];
    for (j, (name, value)) in dir_fields.iter().enumerate() {
        let sep = if j + 1 < dir_fields.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {value}{sep}").unwrap();
    }
    out.push_str("  },\n");
    let [coh, td, quirk, vd] = stats.invalidations_by_cause;
    writeln!(
        out,
        "  \"invalidations_by_cause\": [{coh}, {td}, {quirk}, {vd}],"
    )
    .unwrap();
    writeln!(out, "  \"memory_writebacks\": {}", stats.memory_writebacks).unwrap();
    out.push_str("}\n");
    out
}

/// Drives a fixed per-core streamed workload on the epoch-synchronized
/// sliced engine and returns the full stats, with the merged directory
/// counters folded in (the serial snapshots leave `stats.directory`
/// zeroed; the sliced ones pin it too, so a slice-thread refactor that
/// perturbs any directory counter shows up as a snapshot diff).
fn run_sliced(kind: DirectoryKind, slice_threads: usize, options: SlicedOptions) -> MachineStats {
    let mut machine = Machine::new(MachineConfig::small(CORES, kind));
    let mut streams: Vec<Box<dyn AccessStream>> = (0..CORES)
        .map(|core| {
            let mut rng = SplitMix64::new(SEED ^ ((core as u64) << 32));
            let accesses: Vec<Access> = (0..ACCESSES / CORES)
                .map(|_| {
                    let line = LineAddr::new(rng.next_below(LINES));
                    if rng.chance(WRITE_FRACTION) {
                        Access::write(line)
                    } else {
                        Access::read(line)
                    }
                })
                .collect();
            Box::new(accesses.into_iter()) as Box<dyn AccessStream>
        })
        .collect();
    run_workload_sliced_with(
        &mut machine,
        &mut streams,
        (ACCESSES / CORES) as u64,
        slice_threads,
        options,
    );
    machine.verify().unwrap();
    let mut stats = machine.stats().clone();
    stats.directory = machine.directory_stats();
    stats
}

fn snapshot_path(kind: DirectoryKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.json", kind.name()))
}

fn sliced_snapshot_path(kind: DirectoryKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("sliced-{}.json", kind.name()))
}

#[test]
fn every_directory_kind_matches_its_snapshot() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &kind in &DirectoryKind::ALL {
        let actual = to_json(&run(kind));
        let path = snapshot_path(kind);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if actual != expected {
            failures.push(format!(
                "{}: stats diverged from {}\n--- expected\n{expected}\n--- actual\n{actual}",
                kind.name(),
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The sliced engine pinned by snapshot: the fixed streamed workload runs
/// at 1 and 4 slice threads, both must serialize to the committed
/// `sliced-<kind>.json` byte for byte, and a tuned run (non-default
/// epoch batch) must reproduce the *same* snapshot — the epoch batch is
/// throughput-only. One test covers the engine's counter stability, its
/// cross-thread-count bit-identity, and its options-invariance.
#[test]
fn every_directory_kind_matches_its_sliced_snapshot() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &kind in &DirectoryKind::ALL {
        let actual = to_json(&run_sliced(kind, 1, SlicedOptions::default()));
        let at4 = to_json(&run_sliced(kind, 4, SlicedOptions::default()));
        assert_eq!(
            actual,
            at4,
            "{}: sliced stats differ between 1 and 4 threads",
            kind.name()
        );
        let tuned_run = to_json(&run_sliced(kind, 2, SlicedOptions { epoch_batch: 256 }));
        assert_eq!(
            actual,
            tuned_run,
            "{}: sliced stats differ under epoch_batch=256",
            kind.name()
        );
        let path = sliced_snapshot_path(kind);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if actual != expected {
            failures.push(format!(
                "{}: sliced stats diverged from {}\n--- expected\n{expected}\n--- actual\n{actual}",
                kind.name(),
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The snapshot workload itself must be deterministic, or the golden files
/// would be regeneration-order dependent.
#[test]
fn snapshot_workload_is_deterministic() {
    for &kind in &[DirectoryKind::Baseline, DirectoryKind::SecDir] {
        assert_eq!(run(kind), run(kind), "{}", kind.name());
    }
}
