//! `campaign`: the paper-reproduction job. A `sweep::run_matrix` matrix
//! of {mix4 (LLC-thrashing), canneal (PARSEC sharing), mix0
//! (core-cache-fitting)} × {baseline, secdir, vd-only} on the 8-core Table-4
//! machine, warm-up then measure, with `threads = nproc`. The serial
//! engine and the machine (caches, directory, VD cuckoo banks) do nearly
//! all of the work; no sliced, serve or codec code runs.
//!
//! Job: one matrix. Throughput: simulated accesses (warm-up included)
//! per host second. Result: one cell, timed from its stream-factory call
//! to the drop of its streams on the worker thread.

use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Instant;

use secdir_machine::sweep::{
    run_matrix, CellOutcome, CellResult, CellSpec, SweepMatrix, SweepOptions,
};
use secdir_machine::{
    run_workload, Access, AccessStream, CoreRun, DirectoryKind, Machine, MachineConfig, RunSummary,
    ServedBy,
};
use secdir_mem::CoreId;
use secdir_workloads::registry;

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::{pins, secs, Ctx};

/// Heaviest cells first, so the two worker threads finish together and
/// the matrix time does not hinge on which thread drew the last heavy
/// cell.
const WORKLOADS: [&str; 3] = ["mix4", "canneal", "mix0"];
const KINDS: [DirectoryKind; 3] = [
    DirectoryKind::Baseline,
    DirectoryKind::SecDir,
    DirectoryKind::SecDirVdOnly,
];
const CORES: usize = 8;
const WARMUP: u64 = 30_000;
const MEASURE: u64 = 30_000;

/// The campaign's cells, in `SweepMatrix::cells` order.
fn cells(seed: u64) -> Vec<CellSpec> {
    SweepMatrix {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        kinds: KINDS.to_vec(),
        seeds: vec![seed],
        cores: CORES,
        warmup: WARMUP,
        measure: MEASURE,
    }
    .cells()
}

fn new_machine(cell: &CellSpec) -> Machine {
    Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind))
}

/// When one cell started (stream-factory call, on its worker thread) and
/// ended (its streams dropped at the end of the cell).
#[derive(Clone, Copy, Default)]
struct Span {
    start: Option<(ThreadId, Instant)>,
    end: Option<Instant>,
}

type Spans = Arc<Mutex<Vec<Span>>>;

fn lock(spans: &Spans) -> std::sync::MutexGuard<'_, Vec<Span>> {
    spans.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Core 0's stream, wrapped so that dropping it stamps the cell's end.
struct EndMark {
    inner: Box<dyn AccessStream>,
    spans: Spans,
    cell: usize,
}

impl AccessStream for EndMark {
    fn next_access(&mut self) -> Option<Access> {
        self.inner.next_access()
    }
}

impl Drop for EndMark {
    fn drop(&mut self) {
        let now = Instant::now();
        lock(&self.spans)[self.cell].end = Some(now);
    }
}

/// One timed matrix.
struct MatrixRun {
    wall: f64,
    outcomes: Vec<CellOutcome>,
    /// Per-cell host seconds, in cell order.
    cell_s: Vec<f64>,
    /// Host seconds each worker thread spent in cells.
    busy: Vec<f64>,
}

fn run_timed_matrix(cells: &[CellSpec], threads: usize) -> MatrixRun {
    let spans: Spans = Arc::new(Mutex::new(vec![Span::default(); cells.len()]));
    let factory = |cell: &CellSpec| {
        let i = cells
            .iter()
            .position(|c| c == cell)
            .expect("cell of this matrix");
        lock(&spans)[i].start = Some((thread::current().id(), Instant::now()));
        let mut streams = registry::factory(cell);
        let first = streams.remove(0);
        streams.insert(
            0,
            Box::new(EndMark {
                inner: first,
                spans: Arc::clone(&spans),
                cell: i,
            }),
        );
        streams
    };
    let t = Instant::now();
    let outcomes = run_matrix(cells, &factory, &SweepOptions::new(threads));
    let wall = secs(t);
    let spans = lock(&spans).clone();
    let mut cell_s = Vec::new();
    let mut busy: Vec<(ThreadId, f64)> = Vec::new();
    for span in spans {
        if let (Some((tid, start)), Some(end)) = (span.start, span.end) {
            let s = end.duration_since(start).as_secs_f64();
            cell_s.push(s);
            match busy.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, b)) => *b += s,
                None => busy.push((tid, s)),
            }
        }
    }
    MatrixRun {
        wall,
        outcomes,
        cell_s,
        busy: busy.into_iter().map(|(_, b)| b).collect(),
    }
}

/// Accumulated timed windows of one mode (untraced or traced).
#[derive(Default)]
struct Windows {
    per_s: Vec<f64>,
    wall: Vec<f64>,
    cell_s: Vec<f64>,
    imbalance: Vec<f64>,
    accesses: f64,
    host: Option<crate::host::Snap>,
    host_wall: f64,
}

/// Runs matrices for `budget`, checking each against the first one seen
/// (`reference`, filled on the first complete matrix).
fn measure(
    ctx: &Ctx,
    cells: &[CellSpec],
    budget: std::time::Duration,
    reference: &mut Option<Vec<CellResult>>,
    r: &mut Report,
) -> Windows {
    let mut w = Windows {
        host: Some(crate::host::Snap::default()),
        ..Windows::default()
    };
    crate::repeat_for(budget, |warmup| {
        let (run, delta) = crate::host::measure(|| run_timed_matrix(cells, ctx.threads));
        let done: Vec<CellResult> = run
            .outcomes
            .iter()
            .filter_map(|o| o.as_done().cloned())
            .collect();
        let failed = (cells.len() - done.len()) as u64;
        r.check_many(cells.len() as u64, failed, || {
            "cells did not complete".into()
        });
        if !r.check(failed == 0, || "matrix window incomplete".into()) {
            return;
        }
        match reference {
            None => *reference = Some(done.clone()),
            Some(first) => {
                r.check(*first == done, || {
                    "a matrix rerun differs from the first run".into()
                });
            }
        }
        if warmup {
            return;
        }
        let accesses: u64 = done.iter().map(|c| c.stats.total_accesses()).sum();
        w.per_s.push(accesses as f64 / run.wall);
        w.wall.push(run.wall);
        w.accesses += accesses as f64;
        let total: f64 = run.busy.iter().sum();
        w.imbalance
            .push(ratio(run.wall, total / ctx.threads.min(cells.len()) as f64));
        w.cell_s.extend(run.cell_s);
        w.host = crate::host::add(w.host, delta);
        w.host_wall += run.wall;
    });
    w
}

/// One set-up pass: every cell's streams and machine, as `run_matrix`
/// builds them. Returns (stream build, machine construction) seconds.
fn setup_pass(cells: &[CellSpec]) -> (f64, f64) {
    let t = Instant::now();
    let streams: Vec<_> = cells.iter().map(registry::factory).collect();
    let build = secs(t);
    let t = Instant::now();
    let machines: Vec<Machine> = cells.iter().map(new_machine).collect();
    let new = secs(t);
    black_box((streams, machines));
    (build, new)
}

/// Serial per-cell rerun with the engine's public entry point, timed by
/// phase; checks `Machine::verify` and equality with the matrix output.
#[derive(Default)]
struct Replay {
    warm_s: f64,
    warm_acc: f64,
    measure_s: f64,
    measure_acc: f64,
    verify_s: f64,
    accesses: f64,
    l2_misses: f64,
    vd_probes: f64,
    vd_inserts: f64,
    relocations: f64,
}

fn replay_cells(cells: &[CellSpec], reference: &[CellResult], r: &mut Report) -> Replay {
    let mut out = Replay::default();
    for (cell, want) in cells.iter().zip(reference) {
        let mut m = new_machine(cell);
        let mut streams = registry::factory(cell);
        let t = Instant::now();
        run_workload(&mut m, &mut streams, cell.warmup);
        out.warm_s += secs(t);
        let warm_acc = m.stats().total_accesses();
        let t = Instant::now();
        let summary = run_workload(&mut m, &mut streams, cell.measure);
        out.measure_s += secs(t);
        let t = Instant::now();
        let verdict = m.verify();
        out.verify_s += secs(t);
        let name = format!("{}/{}", cell.workload, cell.kind.name());
        r.check(verdict.is_ok(), || {
            format!(
                "Machine::verify after cell {name}: {}",
                verdict.clone().unwrap_err()
            )
        });
        r.check(
            *m.stats() == want.stats && summary == want.run.summary,
            || format!("serial rerun of cell {name} differs from run_matrix"),
        );
        let stats = m.stats();
        let dir = m.directory_stats();
        out.warm_acc += warm_acc as f64;
        out.measure_acc += (stats.total_accesses() - warm_acc) as f64;
        out.accesses += stats.total_accesses() as f64;
        out.l2_misses += stats.total_l2_misses() as f64;
        out.vd_probes += dir.vd_bank_probes as f64;
        out.vd_inserts += dir.vd_inserts as f64;
        out.relocations += dir.cuckoo_relocations as f64;
    }
    out
}

/// Host nanoseconds per `ServedBy` class: private (L1/L2), dir (ED/TD),
/// vd, memory.
#[derive(Default)]
struct AccessClasses {
    ns: [f64; 4],
    n: [f64; 4],
    wall: f64,
    accesses: f64,
}

fn class_of(served: ServedBy) -> usize {
    match served {
        ServedBy::L1 | ServedBy::L2 => 0,
        ServedBy::EdTd => 1,
        ServedBy::Vd => 2,
        ServedBy::Memory => 3,
    }
}

/// Drives `m` one access at a time in the serial engine's order (earliest
/// ready core first, lowest core id on ties), timing each
/// `Machine::access` call. Stops a core after `cap` accesses, as
/// `run_workload` does.
fn replay_per_access(
    m: &mut Machine,
    streams: &mut [Box<dyn AccessStream>],
    cap: u64,
    classes: &mut AccessClasses,
) -> RunSummary {
    let n = streams.len();
    let mut runs = vec![CoreRun::default(); n];
    let mut ready = vec![0u64; n];
    let mut active = vec![true; n];
    while let Some(core) = (0..n).filter(|&c| active[c]).min_by_key(|&c| (ready[c], c)) {
        let next = if runs[core].accesses < cap {
            streams[core].next_access()
        } else {
            None
        };
        let Some(acc) = next else {
            runs[core].finish_time = ready[core];
            active[core] = false;
            continue;
        };
        let t = Instant::now();
        let out = m.access(CoreId(core), acc.line, acc.write);
        let ns = t.elapsed().as_nanos() as f64;
        let class = class_of(out.served);
        classes.ns[class] += ns;
        classes.n[class] += 1.0;
        runs[core].instructions += u64::from(acc.gap) + 1;
        runs[core].accesses += 1;
        ready[core] += u64::from(acc.gap) + out.latency;
    }
    let cycles = runs.iter().map(|c| c.finish_time).max().unwrap_or(0);
    RunSummary {
        cores: runs,
        cycles,
    }
}

fn replay_access_classes(
    cells: &[CellSpec],
    reference: &[CellResult],
    r: &mut Report,
) -> AccessClasses {
    let mut classes = AccessClasses::default();
    for (cell, want) in cells.iter().zip(reference) {
        let mut m = new_machine(cell);
        let mut streams = registry::factory(cell);
        let t = Instant::now();
        replay_per_access(&mut m, &mut streams, cell.warmup, &mut classes);
        let summary = replay_per_access(&mut m, &mut streams, cell.measure, &mut classes);
        classes.wall += secs(t);
        classes.accesses += m.stats().total_accesses() as f64;
        r.check(
            *m.stats() == want.stats && summary == want.run.summary,
            || {
                format!(
                    "per-access replay of cell {}/{} differs from run_workload",
                    cell.workload,
                    cell.kind.name()
                )
            },
        );
    }
    classes
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let cells = cells(ctx.seed);
    let (build, new): (Vec<f64>, Vec<f64>) = crate::setup_passes(|| setup_pass(&cells))
        .into_iter()
        .unzip();
    let setup: Vec<f64> = build.iter().zip(&new).map(|(b, n)| b + n).collect();

    let mut reference = None;
    let plain = measure(ctx, &cells, ctx.untraced_budget(), &mut reference, r);
    let Some(reference) = reference else {
        r.check(false, || "no matrix completed".into());
        return;
    };
    let replay = replay_cells(&cells, &reference, r);
    if ctx.pinned() {
        let digests: Vec<u64> = reference
            .iter()
            .map(|c| crate::fnv1a(c.to_json_line().as_bytes()))
            .collect();
        r.check(digests == pins::CAMPAIGN_CELLS, || {
            format!("cell digests {digests:x?} differ from the pinned ones")
        });
    }

    crate::note_windows(r, "matrix s", &plain.wall);
    if !ctx.traced {
        crate::report_end_to_end(
            r,
            &setup,
            median(&plain.per_s),
            &plain.wall,
            median(&plain.cell_s) * 1e3,
        );
        return;
    }

    let mut again = Some(reference.clone());
    let traced = measure(ctx, &cells, ctx.seconds / 2, &mut again, r);
    let classes = replay_access_classes(&cells, &reference, r);
    r.set("workloads.build_s", median(&build));
    r.set("machine.new_s", median(&new));
    r.set(
        "engine.ns_per_access.warm",
        ratio(replay.warm_s, replay.warm_acc) * 1e9,
    );
    r.set(
        "engine.ns_per_access.measure",
        ratio(replay.measure_s, replay.measure_acc) * 1e9,
    );
    for (i, name) in [
        "machine.access_ns.private",
        "machine.access_ns.dir",
        "machine.access_ns.vd",
        "machine.access_ns.memory",
    ]
    .into_iter()
    .enumerate()
    {
        r.set(name, ratio(classes.ns[i], classes.n[i]));
    }
    let engine_ns = ratio(replay.warm_s + replay.measure_s, replay.accesses);
    r.set(
        "trace.replay_overhead",
        ratio(ratio(classes.wall, classes.accesses), engine_ns) - 1.0,
    );
    r.set(
        "machine.l2_miss_per_kacc",
        ratio(replay.l2_misses, replay.accesses) * 1e3,
    );
    r.set(
        "core.vd.probes_per_kacc",
        ratio(replay.vd_probes, replay.accesses) * 1e3,
    );
    r.set(
        "core.vd.relocations_per_insert",
        ratio(replay.relocations, replay.vd_inserts),
    );
    r.set("oracle.verify_s", replay.verify_s);
    r.set("sweep.cell_s.p50", median(&traced.cell_s));
    r.set(
        "sweep.cell_s.max",
        traced.cell_s.iter().copied().fold(0.0, f64::max),
    );
    r.set("sweep.imbalance", median(&traced.imbalance));
    crate::report_host(
        r,
        traced.host,
        traced.host_wall,
        ctx.threads,
        traced.accesses,
        0.0,
    );
    crate::report_overhead(r, median(&plain.per_s), median(&traced.per_s));
}
