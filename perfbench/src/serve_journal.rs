//! `serve-journal`: `run_serve` on the journal-heavy recipe (`drain 1`,
//! `checkpoint_interval 1`, steady sources, one core per tenant), with
//! more tenants than `pool` so admission and the waiting room do work,
//! the binary journal format and `workers = nproc`. Every retired
//! reference produces a journal record, so the per-tick scheduler
//! rendezvous and the journal encode and commit dominate; simulation per
//! tick is tiny. Each job then resumes the journal from a cut at its
//! midpoint and decodes it with `decode_journal`, so the journal's read
//! side is measured beside its write side.
//!
//! Job: fresh run + resume + decode. Throughput: retired references per
//! host second of the fresh run. Result: one durable commit, timed as
//! the host interval between consecutive flushes of the journal sink.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, ServeReport,
    TenantSpec, TenantStatus,
};
use secdir_machine::{DirectoryKind, Machine, MachineConfig};

use crate::report::Report;
use crate::stats::{median, ratio, tail};
use crate::{pins, secs, Ctx};

const TENANTS: usize = 24;
const POOL: usize = 8;
const REFS: u64 = 6_000;

/// The service configuration: tenant `i` runs the built-in uniform
/// workload on directory kind `i mod 7`.
fn config(seed: u64, workers: usize) -> ServeConfig {
    let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let tenants = (0..TENANTS)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            workload: "uniform".to_string(),
            kind: DirectoryKind::ALL[i % DirectoryKind::ALL.len()],
            seed: base.wrapping_add(i as u64),
            cores: 1,
            refs: REFS,
            fault: None,
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = POOL;
    cfg.max_waiting = TENANTS - POOL;
    cfg.drain = 1;
    cfg.ingest = 1;
    cfg.burst_off_max = 0;
    cfg.checkpoint_interval = 1;
    cfg.format = JournalFormat::Binary;
    cfg.workers = workers;
    cfg
}

/// What the journal sink saw.
#[derive(Default)]
pub struct Counters {
    pub bytes: u64,
    pub write_calls: u64,
    pub flush_calls: u64,
    /// Host seconds inside `write` and `flush` (traced runs only).
    pub write_s: f64,
    pub flush_s: f64,
    /// When each flush, that is each commit, returned.
    pub flushes: Vec<Instant>,
}

impl Counters {
    /// Host microseconds between consecutive commits.
    fn commit_gaps_us(&self) -> Vec<f64> {
        self.flushes
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e6)
            .collect()
    }
}

/// The journal sink wrapper: counts bytes and calls, stamps every flush,
/// and when traced times each call.
pub struct Probe<W: Write> {
    inner: W,
    traced: bool,
    pub c: Counters,
}

impl<W: Write> Probe<W> {
    pub fn new(inner: W, traced: bool) -> Self {
        Probe {
            inner,
            traced,
            c: Counters::default(),
        }
    }
}

impl<W: Write> Write for Probe<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = self.traced.then(Instant::now);
        let n = self.inner.write(buf)?;
        if let Some(t) = t {
            self.c.write_s += secs(t);
        }
        self.c.bytes += n as u64;
        self.c.write_calls += 1;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = self.traced.then(Instant::now);
        self.inner.flush()?;
        let now = Instant::now();
        if let Some(t) = t {
            self.c.flush_s += now.duration_since(t).as_secs_f64();
        }
        self.c.flush_calls += 1;
        self.c.flushes.push(now);
        Ok(())
    }
}

/// One serve run into the file at `path`, from `checkpoint` (empty for a
/// fresh run). Returns the run's host seconds, report, sink counters and
/// the journal bytes written.
fn serve_to(
    cfg: &ServeConfig,
    checkpoint: &[u8],
    path: &Path,
    traced: bool,
) -> Result<(f64, ServeReport, Counters, Vec<u8>), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut sink = Probe::new(BufWriter::new(file), traced);
    let t = Instant::now();
    let report =
        run_serve(cfg, &uniform_streams, checkpoint, &mut sink).map_err(|e| e.to_string())?;
    let wall = secs(t);
    sink.inner.flush().map_err(|e| e.to_string())?;
    let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((wall, report, sink.c, bytes))
}

/// One job's measurements.
struct Job {
    serve_s: f64,
    job_s: f64,
    resume_s: f64,
    decode_s: f64,
    report: ServeReport,
    sink: Counters,
    kept_records: usize,
    bytes: Vec<u8>,
}

fn retired(report: &ServeReport) -> u64 {
    report.outcomes.iter().map(|o| o.retired).sum()
}

/// A fresh run, then (when `full`) a resume from its midpoint and a
/// decode, checking every output.
fn job(
    cfg: &ServeConfig,
    dir: &Path,
    traced: bool,
    full: bool,
    first: &mut Option<Vec<u8>>,
    r: &mut Report,
) -> Option<Job> {
    let (serve_s, report, sink, bytes) = match serve_to(cfg, &[], &dir.join("fresh.sdj"), traced) {
        Ok(fresh) => fresh,
        Err(e) => {
            r.check(false, || format!("serve: {e}"));
            return None;
        }
    };
    let not_done = report
        .outcomes
        .iter()
        .filter(|o| o.status != TenantStatus::Done)
        .count();
    r.check_many(TENANTS as u64, not_done as u64, || {
        "tenants did not end done".into()
    });
    r.check(sink.bytes == report.journal_bytes, || {
        format!(
            "sink saw {} bytes, report says {}",
            sink.bytes, report.journal_bytes
        )
    });
    match first {
        None => *first = Some(bytes.clone()),
        Some(want) => {
            r.check(*want == bytes, || {
                format!(
                    "journal at {} workers differs from the first run",
                    cfg.workers
                )
            });
        }
    }
    let mut out = Job {
        serve_s,
        job_s: serve_s,
        resume_s: 0.0,
        decode_s: 0.0,
        report,
        sink,
        kept_records: 0,
        bytes,
    };
    if !full {
        return Some(out);
    }
    let cut = &out.bytes[..out.bytes.len() / 2];
    match serve_to(cfg, cut, &dir.join("resumed.sdj"), false) {
        Ok((s, report, _, resumed)) => {
            out.resume_s = s;
            out.kept_records = report.kept_records;
            r.check(resumed == out.bytes, || {
                "resumed journal differs from the fresh one".into()
            });
        }
        Err(e) => {
            r.check(false, || format!("resume: {e}"));
        }
    }
    let t = Instant::now();
    let decoded = decode_journal(black_box(&out.bytes));
    out.decode_s = secs(t);
    r.check(
        decoded
            .as_ref()
            .is_ok_and(|d| !d.torn && d.lines.len() > TENANTS),
        || "decode_journal failed on a complete journal".into(),
    );
    out.job_s += out.resume_s + out.decode_s;
    Some(out)
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".journal")
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let dir = scratch_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        r.check(false, || format!("create {}: {e}", dir.display()));
        return;
    }
    measure(ctx, &dir, r);
    // Leftover journals are only scratch; a failure to remove them does
    // not affect the result.
    let _ = fs::remove_dir_all(&dir);
}

fn measure(ctx: &Ctx, dir: &Path, r: &mut Report) {
    let setup = crate::setup_passes(|| {
        let t = Instant::now();
        let cfg = config(ctx.seed, ctx.threads);
        let built: Vec<_> = cfg
            .tenants
            .iter()
            .map(|spec| {
                (
                    uniform_streams(spec),
                    Machine::new(MachineConfig::small(spec.cores, spec.kind)),
                )
            })
            .collect();
        let s = secs(t);
        black_box((cfg, built));
        s
    });

    let cfg = config(ctx.seed, ctx.threads);
    let mut first = None;
    let (mut per_s, mut job_s, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    crate::repeat_for(ctx.untraced_budget(), |warmup| {
        if let Some(j) = job(&cfg, dir, false, true, &mut first, r).filter(|_| !warmup) {
            per_s.push(retired(&j.report) as f64 / j.serve_s);
            job_s.push(j.job_s);
            gaps.extend(j.sink.commit_gaps_us());
        }
    });
    if ctx.pinned() {
        if let Some(bytes) = &first {
            let (len, digest) = (bytes.len(), crate::fnv1a(bytes));
            r.check((len, digest) == pins::SERVE_JOURNAL, || {
                format!("journal of {len} bytes with digest {digest:x} differs from the pinned one")
            });
        }
    }

    crate::note_windows(r, "retired/s", &per_s);
    crate::note_windows(r, "job s", &job_s);
    if !ctx.traced {
        crate::report_end_to_end(r, &setup, median(&per_s), &job_s, median(&gaps) / 1e3);
        return;
    }

    // Traced: alternate traced jobs at nproc workers with plain fresh runs
    // at one worker.
    let cfg1 = config(ctx.seed, 1);
    let mut jobs = Vec::new();
    let mut w1 = Vec::new();
    let mut host = Some(crate::host::Snap::default());
    crate::repeat_for(ctx.seconds / 2, |warmup| {
        let (j, delta) = crate::host::measure(|| job(&cfg, dir, true, false, &mut first, r));
        if let Some(mut j) = j.filter(|_| !warmup) {
            host = crate::host::add(host, delta);
            if let Some(full) = job(&cfg, dir, false, true, &mut first, r) {
                j.resume_s = full.resume_s;
                j.decode_s = full.decode_s;
                j.kept_records = full.kept_records;
            }
            jobs.push(j);
        }
        if let Some(j) = job(&cfg1, dir, false, false, &mut first, r).filter(|_| !warmup) {
            w1.push(j.serve_s);
        }
    });
    let Some(last) = jobs.last() else {
        return;
    };
    let col = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let (wn_s, w1_s) = (col(|j| j.serve_s), median(&w1));
    let rep = &last.report;
    let retired = retired(rep) as f64;
    let ticks = rep.ticks as f64;
    r.set("serve.ns_per_tick", ratio(wn_s, ticks) * 1e9);
    r.set("serve.run_s.w1", w1_s);
    r.set("serve.run_s.wN", wn_s);
    r.set("serve.speedup", ratio(w1_s, wn_s));
    let stalled: u64 = rep.outcomes.iter().map(|o| o.stalled).sum();
    r.set("serve.stall_ratio", ratio(stalled as f64, retired));
    r.set("serve.ticks", ticks);
    let done: Vec<f64> = rep.outcomes.iter().map(|o| o.tick as f64).collect();
    r.set("serve.done_tick.p50", median(&done));
    r.set(
        "serve.done_tick.max",
        done.iter().copied().fold(0.0, f64::max),
    );
    r.set("serve.journal.write_calls", last.sink.write_calls as f64);
    r.set("serve.journal.flush_calls", last.sink.flush_calls as f64);
    r.set("serve.journal.write_s", col(|j| j.sink.write_s));
    r.set("serve.journal.flush_s", col(|j| j.sink.flush_s));
    r.set("serve.journal.bytes", last.sink.bytes as f64);
    r.set(
        "serve.journal.bytes_per_retired",
        ratio(last.sink.bytes as f64, retired),
    );
    let gaps: Vec<f64> = jobs.iter().flat_map(|j| j.sink.commit_gaps_us()).collect();
    r.set("serve.commit.p50_us", median(&gaps));
    if let Some(t) = tail(&gaps) {
        r.set("serve.commit.tail_us", t.value);
        r.set("serve.commit.tail_pct", t.pct);
        r.set("serve.commit.samples", t.samples as f64);
    }
    r.set("serve.resume.s", col(|j| j.resume_s));
    r.set("serve.resume.kept_records", last.kept_records as f64);
    let decode_s = col(|j| j.decode_s);
    r.set("serve.codec.decode_s", decode_s);
    r.set(
        "serve.codec.decode_mb_per_s",
        ratio(last.bytes.len() as f64 / 1e6, decode_s),
    );
    let l2: u64 = rep.outcomes.iter().map(|o| o.l2_misses).sum();
    r.set("machine.l2_miss_per_kacc", ratio(l2 as f64, retired) * 1e3);
    let host_wall: f64 = jobs.iter().map(|j| j.serve_s).sum();
    let n = jobs.len() as f64;
    crate::report_host(r, host, host_wall, ctx.threads, retired * n, ticks * n);
    crate::report_overhead(r, median(&per_s), ratio(retired, wn_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_byte_count_equals_the_reported_journal_bytes() {
        let mut cfg = config(3, 2);
        cfg.tenants.truncate(10);
        for t in &mut cfg.tenants {
            t.refs = 50;
        }
        cfg.max_waiting = cfg.tenants.len() - cfg.pool;
        let mut sink = Probe::new(Vec::new(), true);
        let report = run_serve(&cfg, &uniform_streams, &[], &mut sink).unwrap();
        assert!(report.all_done());
        assert_eq!(sink.c.bytes, report.journal_bytes);
        assert_eq!(sink.c.bytes, sink.inner.len() as u64);
        assert_eq!(sink.c.flush_calls as usize, sink.c.flushes.len());
        assert!(sink.c.flush_calls > 0 && sink.c.write_calls > 0);
    }
}
