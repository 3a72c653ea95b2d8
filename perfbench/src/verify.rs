//! `verify`: `check_opt` on the full 4-core × 4-line SecDir model,
//! symmetry-canonical, `threads = nproc`. The model checker shares no hot
//! code with the simulators and is otherwise unmeasured. It takes no
//! seed: the exploration is exhaustive.
//!
//! Job and result: one exhaustive check. Throughput: canonical states per
//! host second.

use std::hint::black_box;
use std::time::Instant;

use secdir_verif::{check_opt, CanonTable, CheckOptions, CheckReport, DirKind, Model, ModelConfig};

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::{pins, secs, Ctx};

fn full() -> ModelConfig {
    ModelConfig::full(DirKind::SecDir)
}

fn options(canonicalize: bool, threads: usize) -> CheckOptions {
    CheckOptions {
        canonicalize,
        threads,
    }
}

/// One timed check, with its outcome counted.
fn one(threads: usize, r: &mut Report) -> (f64, CheckReport) {
    let t = Instant::now();
    let report = check_opt(full(), &options(true, threads));
    let wall = secs(t);
    r.check(report.violation.is_none(), || {
        format!(
            "checker found a violation: {:?}",
            report.violation.as_ref().map(|v| &v.invariant)
        )
    });
    let counts = (report.states, report.transitions);
    r.check(counts == pins::CHECKER_FULL_SECDIR, || {
        format!("checker counts {counts:?} differ from the pinned ones")
    });
    (wall, report)
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let cfg = full();
    // One set-up takes about a microsecond, so each pass times a batch
    // and reports the mean, which keeps the timer's granularity out of
    // the median.
    const BATCH: u32 = 1024;
    let setup = crate::setup_passes(|| {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box((
                Model::new(cfg),
                CanonTable::new(cfg.cores, cfg.lines, false),
            ));
        }
        secs(t) / f64::from(BATCH)
    });

    let mut plain = Vec::new();
    let mut states = 0.0;
    crate::repeat_for(ctx.untraced_budget(), |warmup| {
        let (wall, report) = one(ctx.threads, r);
        states = report.states as f64;
        if !warmup {
            plain.push(wall);
        }
    });

    crate::note_windows(r, "check s", &plain);
    if !ctx.traced {
        let check_s = median(&plain);
        crate::report_end_to_end(r, &setup, ratio(states, check_s), &plain, check_s * 1e3);
        return;
    }

    // Traced: alternate checks at nproc threads and at one.
    let (mut tn, mut t1) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut host = Some(crate::host::Snap::default());
    crate::repeat_for(ctx.seconds / 2, |warmup| {
        let ((wall, report), delta) = crate::host::measure(|| one(ctx.threads, r));
        let wall1 = one(1, r).0;
        last = Some(report);
        if !warmup {
            tn.push(wall);
            host = crate::host::add(host, delta);
            t1.push(wall1);
        }
    });
    let report = last.expect("at least one traced window ran");
    crate::note_windows(r, "check s at nproc threads", &tn);
    crate::note_windows(r, "check s at 1 thread", &t1);

    // Symmetry reduction at the quick geometry, where the raw space is
    // small enough to explore.
    let quick = ModelConfig::quick(DirKind::SecDir);
    let raw = check_opt(quick, &options(false, ctx.threads));
    let canon = check_opt(quick, &options(true, ctx.threads));
    r.check(raw.violation.is_none() && canon.violation.is_none(), || {
        "checker found a violation at the quick geometry".into()
    });

    let states = report.states as f64;
    let transitions = report.transitions as f64;
    r.set("verif.checker.states", states);
    r.set("verif.checker.transitions", transitions);
    r.set("verif.checker.levels", report.levels as f64);
    r.set("verif.checker.peak_bytes", report.peak_bytes as f64);
    // Every transition but the ones that discovered a state (all states
    // except the initial one) led to a state already seen.
    r.set(
        "verif.checker.dup_ratio",
        ratio(transitions - (states - 1.0), transitions),
    );
    let (t1_s, tn_s) = (median(&t1), median(&tn));
    r.set("verif.checker.speedup", ratio(t1_s, tn_s));
    r.set(
        "verif.canon.reduction",
        ratio(raw.states as f64, canon.states as f64),
    );
    let host_wall: f64 = tn.iter().sum();
    crate::report_host(r, host, host_wall, ctx.threads, 0.0, 0.0);
    crate::report_overhead(r, ratio(states, median(&plain)), ratio(states, tn_s));
}
