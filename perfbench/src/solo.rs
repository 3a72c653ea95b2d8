//! `solo`: one long 8-core mix0/secdir run through
//! `run_workload_sliced_with` at `slice_threads = nproc`. The user waits
//! for this one result, so the sliced engine's epoch, barrier and merge
//! overhead is the cost; `campaign` never enters that code.
//!
//! Job and result: one run on a fresh machine. Throughput: simulated
//! accesses per host second.

use std::hint::black_box;
use std::time::Instant;

use secdir_machine::{
    run_workload_sliced_with, AccessStream, DirectoryKind, Machine, MachineConfig, MachineStats,
    RunSummary, SlicedOptions,
};
use secdir_workloads::registry;

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::{pins, secs, Ctx};

const MIX: &str = "mix0";
const KIND: DirectoryKind = DirectoryKind::SecDir;
const CORES: usize = 8;
const REFS: u64 = 250_000;

fn streams(seed: u64) -> Vec<Box<dyn AccessStream>> {
    registry::streams_by_name(MIX, CORES, seed).expect("mix0 is a registered workload")
}

fn machine() -> Machine {
    Machine::new(MachineConfig::skylake_x(CORES, KIND))
}

/// One timed run on a fresh machine; set-up is outside the timing.
fn one(seed: u64, threads: usize) -> (f64, RunSummary, Machine) {
    let mut m = machine();
    let mut s = streams(seed);
    let t = Instant::now();
    let summary = run_workload_sliced_with(&mut m, &mut s, REFS, threads, SlicedOptions::default());
    (secs(t), summary, m)
}

/// Checks one run's output against the first run's, or records it as the
/// first.
fn check_run(
    r: &mut Report,
    first: &mut Option<(RunSummary, MachineStats)>,
    summary: RunSummary,
    m: &Machine,
    what: &str,
) -> bool {
    let complete = m.stats().total_accesses() == CORES as u64 * REFS;
    if !r.check(complete, || format!("{what} run retired too few accesses")) {
        return false;
    }
    let out = (summary, m.stats().clone());
    match first {
        None => {
            *first = Some(out);
            true
        }
        Some(want) => r.check(*want == out, || {
            format!("{what} run differs from the first run")
        }),
    }
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let (build, new): (Vec<f64>, Vec<f64>) = crate::setup_passes(|| {
        let t = Instant::now();
        let s = streams(ctx.seed);
        let build = secs(t);
        let t = Instant::now();
        let m = machine();
        let new = secs(t);
        black_box((s, m));
        (build, new)
    })
    .into_iter()
    .unzip();
    let setup: Vec<f64> = build.iter().zip(&new).map(|(b, n)| b + n).collect();

    let mut first = None;
    let mut last = None;
    let mut plain = Vec::new();
    crate::repeat_for(ctx.untraced_budget(), |warmup| {
        let (wall, summary, m) = one(ctx.seed, ctx.threads);
        if check_run(r, &mut first, summary, &m, "sliced") && !warmup {
            plain.push(wall);
        }
        last = Some(m);
    });
    let Some((summary, stats)) = first.clone() else {
        return;
    };
    let m = last.expect("at least one window ran");
    let t = Instant::now();
    let verdict = m.verify();
    let verify_s = secs(t);
    r.check(verdict.is_ok(), || {
        format!(
            "Machine::verify after the solo run: {}",
            verdict.clone().unwrap_err()
        )
    });
    if ctx.pinned() {
        let digest = crate::fnv1a(format!("{:?}", (&summary, &stats)).as_bytes());
        r.check(digest == pins::SOLO_STATS, || {
            format!("solo stats digest {digest:x} differs from the pinned one")
        });
    }
    let accesses = (CORES as u64 * REFS) as f64;

    crate::note_windows(r, "sliced run s", &plain);
    if !ctx.traced {
        // Stats at one slice thread must equal those at nproc.
        let (_, summary1, m1) = one(ctx.seed, 1);
        check_run(r, &mut first, summary1, &m1, "1-thread");
        let run_s = median(&plain);
        crate::report_end_to_end(r, &setup, ratio(accesses, run_s), &plain, run_s * 1e3);
        return;
    }

    // Traced: alternate runs at nproc and at one slice thread.
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    let mut host = Some(crate::host::Snap::default());
    crate::repeat_for(ctx.seconds / 2, |warmup| {
        let ((wall, summary, m), delta) = crate::host::measure(|| one(ctx.seed, ctx.threads));
        if check_run(r, &mut first, summary, &m, "sliced") && !warmup {
            tn.push(wall);
            host = crate::host::add(host, delta);
        }
        let (wall, summary, m) = one(ctx.seed, 1);
        if check_run(r, &mut first, summary, &m, "1-thread") && !warmup {
            t1.push(wall);
        }
    });

    crate::note_windows(r, "sliced run s at nproc threads", &tn);
    crate::note_windows(r, "sliced run s at 1 thread", &t1);

    // Stream generation, timed by draining a copy of the same streams.
    let mut copy = streams(ctx.seed);
    let t = Instant::now();
    for s in &mut copy {
        for _ in 0..REFS {
            black_box(s.next_access());
        }
    }
    let gen_s = secs(t);

    let dir = m.directory_stats();
    r.set("workloads.build_s", median(&build));
    r.set("machine.new_s", median(&new));
    r.set("workloads.ns_per_ref", gen_s / accesses * 1e9);
    r.set(
        "machine.l2_miss_per_kacc",
        ratio(stats.total_l2_misses() as f64, accesses) * 1e3,
    );
    r.set(
        "core.vd.probes_per_kacc",
        ratio(dir.vd_bank_probes as f64, accesses) * 1e3,
    );
    r.set(
        "core.vd.relocations_per_insert",
        ratio(dir.cuckoo_relocations as f64, dir.vd_inserts as f64),
    );
    r.set("oracle.verify_s", verify_s);
    let (t1_s, tn_s) = (median(&t1), median(&tn));
    r.set("sliced.run_s.t1", t1_s);
    r.set("sliced.run_s.tN", tn_s);
    r.set("sliced.speedup", ratio(t1_s, tn_s));
    let host_wall: f64 = tn.iter().sum();
    crate::report_host(
        r,
        host,
        host_wall,
        ctx.threads,
        accesses * tn.len() as f64,
        0.0,
    );
    crate::report_overhead(r, ratio(accesses, median(&plain)), ratio(accesses, tn_s));
}
