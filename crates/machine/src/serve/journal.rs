//! The serve journal: its typed [`Record`], the JSONL form of a record,
//! the resume planner, and the emission sink.
//!
//! The journal is the server's only durable state: a sequence of
//! records —
//!
//! 1. one **header** pinning the scheduling configuration,
//! 2. one **spec** per tenant (identity, workload, directory, seed,
//!    armed fault),
//! 3. interleaved **checkpoint** and **terminal** records in `(tick,
//!    tenant-index)` order — the same deterministic total order the
//!    scheduler emits them in.
//!
//! A record is a value: stream records name their tenant by spec index
//! and a terminal owns its `detail` text. [`JournalFormat`] only decides
//! how a record is written:
//!
//! * **JSONL** — one JSON object per line, fields in a fixed order,
//!   rendered through the shared [`secdir_mem::json`] writer into a
//!   reused buffer and flushed before the next record starts, so a
//!   SIGKILL at any byte leaves whole lines plus at most one cut final
//!   line.
//! * **binary** (`secdir-journal/1`, see [`super::codec`]) —
//!   varint-packed into length-prefixed, CRC-checksummed frames, one
//!   frame per scheduler tick, so a SIGKILL at any byte leaves whole
//!   frames plus at most one torn tail.
//!
//! Resume is replay. [`plan`] reads the surviving journal back into
//! records — the codec's frame decoder for binary, [`LineReader`] for
//! JSONL — and checks them: the header against [`HeaderRec::of`] the
//! current configuration, the specs against its tenants, and the stream
//! records for order and for nothing after a tenant's terminal. The
//! server then re-runs the whole schedule from tick 0, and [`JournalSink`] compares
//! every regenerated record with the kept record at its position, as
//! values. Tenants whose terminal record survived are *ghosts*: their
//! machines are never rebuilt, and each of their records is the kept
//! record itself, once it agrees with everything the replay recomputes.
//! Any disagreement is a hard [`ServeError::Corrupt`] — never a panic,
//! never silent divergence. Only an interrupted final write (a cut
//! line, a torn frame) is forgiven.
//!
//! A JSONL line is only accepted in canonical form: it must re-render
//! byte for byte to itself. Extra whitespace or fields, another field
//! order, or any other spelling the writer never produces is corruption,
//! so a resumed JSONL journal is always byte-identical to a fresh run.
//!
//! Worker count appears nowhere in the journal: a journal produced at
//! `--workers 4` resumes byte-identically at `--workers 1` and vice
//! versa. Decoding a binary journal ([`decode_journal`], `secdir-sim
//! decode`) renders its records to exactly the JSONL journal of the
//! same run.

use super::codec::{self, JournalFormat};
use super::{ServeConfig, TenantSpec, TenantStatus};
use crate::inject::{FaultKind, FaultPlan};
use crate::DirectoryKind;
use secdir_mem::{json, CoreId};
use std::fmt;
use std::io::Write;

/// Longest tenant name a journal carries, in bytes. Every stream
/// record's JSONL line repeats its tenant's name, so this bound is what
/// keeps decoding a binary journal to JSONL linear in the journal size.
pub(crate) const MAX_NAME: usize = 255;

/// Why a serve run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The [`ServeConfig`] itself is invalid (empty tenant list,
    /// duplicate names, zero bounds).
    Config(String),
    /// The resume journal failed validation, or the replay diverged
    /// from it. The journal cannot be trusted; exit code 3.
    Corrupt(String),
    /// Writing the journal or telemetry sink failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "invalid serve configuration: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt journal: {m}"),
            ServeError::Io(m) => write!(f, "journal write failed: {m}"),
        }
    }
}

// --- records --------------------------------------------------------

/// The scheduling-configuration scalars pinned by the header record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct HeaderRec {
    /// Tenant count (and the number of spec records that follow).
    pub tenants: u64,
    /// See [`ServeConfig::pool`].
    pub pool: u64,
    /// See [`ServeConfig::queue_cap`].
    pub queue_cap: u64,
    /// See [`ServeConfig::global_cap`].
    pub global_cap: u64,
    /// See [`ServeConfig::ingest`].
    pub ingest: u64,
    /// See [`ServeConfig::drain`].
    pub drain: u64,
    /// See [`ServeConfig::idle_timeout`].
    pub idle_timeout: u64,
    /// See [`ServeConfig::checkpoint_interval`].
    pub checkpoint_interval: u64,
    /// See [`ServeConfig::max_waiting`].
    pub max_waiting: u64,
    /// See [`ServeConfig::burst_on_max`].
    pub burst_on: u64,
    /// See [`ServeConfig::burst_off_max`].
    pub burst_off: u64,
    /// See [`ServeConfig::final_audit`].
    pub audit: bool,
}

impl HeaderRec {
    /// The header record a run over `cfg` writes.
    pub(crate) fn of(cfg: &ServeConfig) -> HeaderRec {
        HeaderRec {
            tenants: cfg.tenants.len() as u64,
            pool: cfg.pool as u64,
            queue_cap: cfg.queue_cap as u64,
            global_cap: cfg.global_cap,
            ingest: cfg.ingest,
            drain: cfg.drain,
            idle_timeout: cfg.idle_timeout,
            checkpoint_interval: cfg.checkpoint_interval,
            max_waiting: cfg.max_waiting as u64,
            burst_on: cfg.burst_on_max,
            burst_off: cfg.burst_off_max,
            audit: cfg.final_audit,
        }
    }
}

/// A checkpoint record: one tenant's progress at a tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// Spec index of the tenant.
    pub tenant: usize,
    /// Tick the record was emitted at.
    pub tick: u64,
    /// References retired so far.
    pub retired: u64,
    /// References delayed by backpressure so far.
    pub stalled: u64,
    /// Simulated cycles so far.
    pub cycles: u64,
}

/// A terminal record: how a tenant's service ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Terminal {
    /// Spec index of the tenant.
    pub tenant: usize,
    /// Tick the tenant went terminal.
    pub tick: u64,
    /// Why it went terminal.
    pub status: TenantStatus,
    /// Final retired / stalled / cycle counters.
    pub retired: u64,
    /// See `retired`.
    pub stalled: u64,
    /// See `retired`.
    pub cycles: u64,
    /// Access count at which an armed fault fired, if it did.
    pub fired_at: Option<u64>,
    /// Final machine stats (zero for sheds, and panics that destroyed
    /// the machine).
    pub l2_misses: u64,
    /// See `l2_misses`.
    pub vd_hits: u64,
    /// Panic message or invariant text (empty otherwise).
    pub detail: String,
}

/// One journal record, whatever format it is written in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Record {
    /// The scheduling configuration; always the first record.
    Header(HeaderRec),
    /// One tenant's spec; the header's `tenants` of them follow it.
    Spec(TenantSpec),
    /// Periodic tenant progress.
    Checkpoint(Checkpoint),
    /// A tenant's last record.
    Terminal(Terminal),
}

impl Record {
    /// Renders the record's JSONL line (no newline) into `out`, cleared
    /// first. `names` holds the tenant names in spec order.
    pub(crate) fn render_into<S: AsRef<str>>(&self, out: &mut String, names: &[S]) {
        let name = |i: usize| names.get(i).map_or("", AsRef::as_ref);
        out.clear();
        json::object(out, |l| match self {
            Record::Header(h) => {
                l.str("schema", "secdir-serve/1");
                l.num("tenants", h.tenants);
                l.num("pool", h.pool);
                l.num("queue_cap", h.queue_cap);
                l.num("global_cap", h.global_cap);
                l.num("ingest", h.ingest);
                l.num("drain", h.drain);
                l.num("idle_timeout", h.idle_timeout);
                l.num("checkpoint_interval", h.checkpoint_interval);
                l.num("max_waiting", h.max_waiting);
                l.num("burst_on", h.burst_on);
                l.num("burst_off", h.burst_off);
                l.bool("audit", h.audit);
            }
            Record::Spec(spec) => {
                l.str("tenant", &spec.name);
                l.str("workload", &spec.workload);
                l.str("directory", spec.kind.name());
                l.num("seed", spec.seed);
                l.num("cores", spec.cores as u64);
                l.num("refs", spec.refs);
                let (fault, trigger, core) = spec
                    .fault
                    .map_or(("none", 0, 0), |p| (p.kind.name(), p.trigger, p.core.0));
                l.str("fault", fault);
                l.num("trigger", trigger);
                l.num("fault_core", core as u64);
            }
            Record::Checkpoint(c) => {
                l.num("tick", c.tick);
                l.str("tenant", name(c.tenant));
                l.num("retired", c.retired);
                l.num("stalled", c.stalled);
                l.num("cycles", c.cycles);
            }
            Record::Terminal(t) => {
                l.num("tick", t.tick);
                l.str("tenant", name(t.tenant));
                l.str("status", t.status.name());
                l.num("retired", t.retired);
                l.num("stalled", t.stalled);
                l.num("cycles", t.cycles);
                l.opt_num("fired_at", t.fired_at);
                l.num("l2_misses", t.l2_misses);
                l.num("vd_hits", t.vd_hits);
                l.str("detail", &t.detail);
            }
        });
    }

    /// Whether this kept record agrees with `replayed` on everything a
    /// ghost's replay recomputes: kind, tenant, tick, retired and stalled
    /// counts, and terminal status. The rest — cycles, fault and machine
    /// stats, detail — only the kept record knows.
    fn replays(&self, replayed: &Record) -> bool {
        match (self, replayed) {
            (Record::Checkpoint(a), Record::Checkpoint(b)) => {
                (a.tenant, a.tick, a.retired, a.stalled) == (b.tenant, b.tick, b.retired, b.stalled)
            }
            (Record::Terminal(a), Record::Terminal(b)) => {
                (a.tenant, a.tick, a.status, a.retired, a.stalled)
                    == (b.tenant, b.tick, b.status, b.retired, b.stalled)
            }
            _ => false,
        }
    }
}

// --- reading --------------------------------------------------------

/// Reads JSONL journal lines back into records. Stream records name
/// their tenant; the reader resolves the name against the spec records
/// it has read so far.
#[derive(Default)]
pub(crate) struct LineReader {
    names: Vec<String>,
    /// Reused canonical rendering of the line being read.
    canon: String,
}

impl LineReader {
    /// Parses one line (without its newline) into a record, or says what
    /// is wrong with it. A line that does not re-render byte for byte to
    /// itself is not a record the writer produced.
    pub(crate) fn read(&mut self, line: &str) -> Result<Record, String> {
        let f = json::scan_top_level(line).ok_or("malformed record")?;
        let num = |k: &str| f.num(k).ok_or_else(|| format!("record missing `{k}`"));
        let text = |k: &str| {
            let raw = f.str(k).ok_or_else(|| format!("record missing `{k}`"))?;
            json::unescape(raw).ok_or_else(|| format!("record field `{k}` does not unescape"))
        };
        let index = |k: &str| usize::try_from(num(k)?).map_err(|_| format!("`{k}` out of range"));
        let rec = if f.str("schema").is_some() {
            Record::Header(HeaderRec {
                tenants: num("tenants")?,
                pool: num("pool")?,
                queue_cap: num("queue_cap")?,
                global_cap: num("global_cap")?,
                ingest: num("ingest")?,
                drain: num("drain")?,
                idle_timeout: num("idle_timeout")?,
                checkpoint_interval: num("checkpoint_interval")?,
                max_waiting: num("max_waiting")?,
                burst_on: num("burst_on")?,
                burst_off: num("burst_off")?,
                // The scanner does not type booleans; the canonical check
                // below rejects every spelling but the writer's two.
                audit: line.ends_with(",\"audit\":true}"),
            })
        } else if f.str("workload").is_some() {
            let fault = match text("fault")?.as_str() {
                "none" => None,
                kind => Some(FaultPlan {
                    kind: FaultKind::parse(kind)?,
                    trigger: num("trigger")?,
                    core: CoreId(index("fault_core")?),
                }),
            };
            Record::Spec(TenantSpec {
                name: text("tenant")?,
                workload: text("workload")?,
                kind: DirectoryKind::parse(&text("directory")?)?,
                seed: num("seed")?,
                cores: index("cores")?,
                refs: num("refs")?,
                fault,
            })
        } else {
            let name = text("tenant")?;
            let tenant = self
                .names
                .iter()
                .position(|n| *n == name)
                .ok_or_else(|| format!("record for unknown tenant `{name}`"))?;
            let (tick, retired, stalled, cycles) = (
                num("tick")?,
                num("retired")?,
                num("stalled")?,
                num("cycles")?,
            );
            match f.str("status") {
                None => Record::Checkpoint(Checkpoint {
                    tenant,
                    tick,
                    retired,
                    stalled,
                    cycles,
                }),
                Some(s) => Record::Terminal(Terminal {
                    tenant,
                    tick,
                    status: TenantStatus::parse(s)
                        .ok_or_else(|| format!("unknown terminal status `{s}`"))?,
                    retired,
                    stalled,
                    cycles,
                    fired_at: f.num("fired_at"),
                    l2_misses: num("l2_misses")?,
                    vd_hits: num("vd_hits")?,
                    detail: text("detail")?,
                }),
            }
        };
        rec.render_into(&mut self.canon, &self.names);
        if self.canon != line {
            return Err("record is not in the writer's canonical form".to_string());
        }
        if let Record::Spec(spec) = &rec {
            self.names.push(spec.name.clone());
        }
        Ok(rec)
    }
}

/// A binary journal decoded to JSONL.
pub struct DecodedJournal {
    /// The journal's records as JSONL lines, byte-identical to what a
    /// `--format jsonl` run over the same schedule writes.
    pub lines: Vec<String>,
    /// Whether the file ended in a torn (incomplete) frame, whose bytes
    /// were discarded — the binary analogue of a truncated final line.
    pub torn: bool,
}

/// Decodes a complete `secdir-journal/1` byte stream to JSONL lines.
///
/// Complete, checksum-valid frames are decoded in order; a tail that
/// ends mid-frame (an interrupted write) is discarded and reported via
/// [`DecodedJournal::torn`]. An empty input decodes to an empty
/// journal.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on a bad magic, a checksum mismatch over a
/// fully present frame, or structurally invalid records inside a valid
/// frame (unknown type, non-minimal varint, out-of-range index, text
/// that is not UTF-8, records that do not tile the payload exactly, or
/// records out of header → specs → stream order).
pub fn decode_journal(bytes: &[u8]) -> Result<DecodedJournal, ServeError> {
    let (mut lines, mut names, mut buf) = (Vec::new(), Vec::new(), String::new());
    let torn = codec::decode(bytes, |rec| {
        if let Record::Spec(spec) = &rec {
            names.push(spec.name.clone());
        }
        rec.render_into(&mut buf, &names);
        lines.push(buf.clone());
        Ok(())
    })?;
    Ok(DecodedJournal { lines, torn })
}

// --- resume planning ------------------------------------------------

/// A tenant whose terminal record survived in the journal prefix: its
/// replay runs without a machine and its records are the kept ones.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GhostEnd {
    /// Tick of the recorded terminal.
    pub tick: u64,
    /// Recorded terminal status.
    pub status: TenantStatus,
}

/// Validated resume state: the surviving journal prefix plus which
/// tenants it already finished.
pub(crate) struct ServePlan {
    /// Kept records, in journal order (header, specs, stream).
    pub kept: Vec<Record>,
    /// Per tenant index: the recorded terminal, if one survived.
    pub ghost: Vec<Option<GhostEnd>>,
    /// Whether a truncated final line / torn final frame was discarded.
    pub recovered_truncation: bool,
    /// Tick of the last kept stream record.
    last_tick: u64,
}

fn corrupt(line_no: usize, msg: &str) -> ServeError {
    ServeError::Corrupt(format!("journal line {line_no}: {msg}"))
}

impl ServePlan {
    /// Checks `rec` as the next kept record against `cfg` and the
    /// records before it, then keeps it.
    fn keep(&mut self, cfg: &ServeConfig, rec: Record) -> Result<(), ServeError> {
        let idx = self.kept.len();
        let n = cfg.tenants.len();
        let fail = |msg: &str| Err(corrupt(idx + 1, msg));
        let (tenant, tick) = match &rec {
            Record::Header(h) if idx == 0 && *h == HeaderRec::of(cfg) => (None, 0),
            Record::Spec(s) if idx > 0 && cfg.tenants.get(idx - 1) == Some(s) => (None, 0),
            _ if idx <= n => {
                return fail("header/spec record does not match the current configuration")
            }
            Record::Header(_) => return fail("unexpected second header record"),
            Record::Spec(_) => return fail("unexpected extra spec record"),
            Record::Checkpoint(c) => (Some(c.tenant), c.tick),
            Record::Terminal(t) => (Some(t.tenant), t.tick),
        };
        if let Some(tenant) = tenant {
            match self.ghost.get(tenant) {
                None => return fail("record for an unknown tenant index"),
                Some(Some(_)) => {
                    let name = &cfg.tenants[tenant].name;
                    return fail(&format!("record after terminal record for tenant `{name}`"));
                }
                Some(None) => {}
            }
            if tick < self.last_tick {
                return fail("out-of-order record");
            }
            self.last_tick = tick;
            if let Record::Terminal(t) = &rec {
                self.ghost[tenant] = Some(GhostEnd {
                    tick,
                    status: t.status,
                });
            }
        }
        self.kept.push(rec);
        Ok(())
    }
}

/// Validates a surviving journal against `cfg` and plans the replay.
///
/// `checkpoint` is the raw surviving file content, in `cfg.format` (the
/// format the interrupted run was started with). JSONL journals are
/// read line by line, binary journals frame by frame; the records then
/// go through the same checks either way.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on any complete record that is malformed,
/// non-canonical, mismatched against the configuration, out of order,
/// after its tenant's terminal, or otherwise untrustworthy — including a
/// journal in the *other* format (a binary journal is never valid UTF-8
/// JSONL, and a JSONL journal never starts with the binary magic). An
/// interrupted final write (cut line, torn frame) is discarded and
/// reported via `recovered_truncation` instead.
pub(crate) fn plan(cfg: &ServeConfig, checkpoint: &[u8]) -> Result<ServePlan, ServeError> {
    let mut plan = ServePlan {
        kept: Vec::new(),
        ghost: vec![None; cfg.tenants.len()],
        recovered_truncation: false,
        last_tick: 0,
    };
    match cfg.format {
        JournalFormat::Jsonl => {
            let (text, cut_mid_char) = match std::str::from_utf8(checkpoint) {
                Ok(t) => (t, false),
                // A file that is valid UTF-8 up to a trailing incomplete
                // character is an interrupted write, not corruption.
                Err(e) if e.error_len().is_none() => {
                    let valid = &checkpoint[..e.valid_up_to()];
                    (std::str::from_utf8(valid).unwrap_or(""), true)
                }
                Err(_) => {
                    return Err(ServeError::Corrupt(
                        "journal is not UTF-8 text — is it a binary journal? \
                         (resume with --format binary)"
                            .to_string(),
                    ))
                }
            };
            let (whole, tail) = text.split_at(text.rfind('\n').map_or(0, |i| i + 1));
            let mut reader = LineReader::default();
            for line in whole.split_terminator('\n') {
                let rec = reader
                    .read(line)
                    .map_err(|msg| corrupt(plan.kept.len() + 1, &msg))?;
                plan.keep(cfg, rec)?;
            }
            // A final line without its newline is an interrupted write,
            // unless it reads as a whole record.
            match reader.read(tail) {
                Ok(rec) => plan.keep(cfg, rec)?,
                Err(_) => plan.recovered_truncation = !tail.is_empty(),
            }
            plan.recovered_truncation |= cut_mid_char;
        }
        JournalFormat::Binary => {
            plan.recovered_truncation = codec::decode(checkpoint, |rec| plan.keep(cfg, rec))?;
        }
    }
    Ok(plan)
}

// --- emission sink --------------------------------------------------

/// Where journal records go during a run.
///
/// Every record goes out through [`JournalSink::emit`], which first
/// compares it, as a value, with the kept record at its position while
/// a kept prefix remains. The format matters only at the write: JSONL
/// renders the record and writes and flushes its line; binary appends
/// it to the current frame, and [`JournalSink::commit`] (called once per
/// scheduler tick) writes the frame with one write+flush.
pub(crate) struct JournalSink<'a> {
    sink: &'a mut dyn Write,
    cfg: &'a ServeConfig,
    /// Tenant names in spec order, for rendering.
    names: Vec<&'a str>,
    /// The kept prefix not yet replayed.
    kept: std::vec::IntoIter<Record>,
    /// Records emitted so far.
    emitted: usize,
    /// Reusable JSONL render buffer.
    buf: String,
    /// Binary frame under construction (records since the last commit).
    frame: Vec<u8>,
    /// Bytes delivered to the sink so far (including framing).
    bytes: u64,
    /// Whether the binary magic has been written.
    started: bool,
}

fn io_err(e: std::io::Error) -> ServeError {
    ServeError::Io(e.to_string())
}

impl<'a> JournalSink<'a> {
    /// Wraps `sink` for a run over `cfg`, replaying against the `kept`
    /// prefix from [`plan`].
    pub(crate) fn new(
        sink: &'a mut dyn Write,
        cfg: &'a ServeConfig,
        kept: Vec<Record>,
    ) -> JournalSink<'a> {
        JournalSink {
            sink,
            cfg,
            names: cfg.tenants.iter().map(|t| t.name.as_str()).collect(),
            kept: kept.into_iter(),
            emitted: 0,
            buf: String::new(),
            frame: Vec::new(),
            bytes: 0,
            started: false,
        }
    }

    /// Emits the journal prologue — header and spec records — and
    /// commits it as the first frame.
    pub(crate) fn begin(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        self.emit(Record::Header(HeaderRec::of(cfg)), false)?;
        for spec in &cfg.tenants {
            self.emit(Record::Spec(spec.clone()), false)?;
        }
        self.commit()
    }

    /// Emits one record and returns it as written.
    ///
    /// While a kept prefix remains, a live record must equal the kept
    /// record at its position. A ghost's record is the kept record
    /// itself, once it agrees with `rec` on everything the replay
    /// recomputes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the kept record disagrees, or a
    /// ghost's kept records run out; [`ServeError::Io`] when the sink
    /// fails.
    pub(crate) fn emit(&mut self, rec: Record, ghost: bool) -> Result<Record, ServeError> {
        self.emitted += 1;
        let rec = match self.kept.next() {
            Some(kept) if ghost && kept.replays(&rec) => kept,
            Some(kept) if !ghost && kept == rec => rec,
            Some(_) => {
                return Err(corrupt(
                    self.emitted,
                    "kept record diverges from the deterministic replay",
                ))
            }
            None if ghost => {
                return Err(ServeError::Corrupt(
                    "journal ended before a ghost tenant finished its replayed records".to_string(),
                ))
            }
            None => rec,
        };
        match self.cfg.format {
            JournalFormat::Jsonl => {
                rec.render_into(&mut self.buf, &self.names);
                self.buf.push('\n');
                self.sink.write_all(self.buf.as_bytes()).map_err(io_err)?;
                self.sink.flush().map_err(io_err)?;
                self.bytes += self.buf.len() as u64;
            }
            JournalFormat::Binary => codec::encode(&mut self.frame, &rec),
        }
        Ok(rec)
    }

    /// Emits a terminal record through [`JournalSink::emit`] and returns
    /// it as written, with its JSONL line (the tenant's `record`
    /// artifact).
    pub(crate) fn emit_terminal(
        &mut self,
        t: Terminal,
        ghost: bool,
    ) -> Result<(Terminal, String), ServeError> {
        let rec = self.emit(Record::Terminal(t), ghost)?;
        rec.render_into(&mut self.buf, &self.names);
        match rec {
            Record::Terminal(t) => Ok((t, self.buf.clone())),
            _ => Err(ServeError::Config(
                "internal: a terminal record was emitted as another kind".to_string(),
            )),
        }
    }

    /// Delivers the pending frame (binary group commit): one write plus
    /// one flush for everything emitted since the last commit. The
    /// driver calls this once per scheduler tick; a no-op when nothing
    /// is pending, and always a no-op for JSONL (which flushed per
    /// record already).
    pub(crate) fn commit(&mut self) -> Result<(), ServeError> {
        if self.cfg.format != JournalFormat::Binary {
            return Ok(());
        }
        if !self.started {
            self.sink.write_all(&codec::MAGIC).map_err(io_err)?;
            self.bytes += codec::MAGIC.len() as u64;
            self.started = true;
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        let n = codec::write_frame(self.sink, &self.frame).map_err(io_err)?;
        self.bytes += n;
        self.frame.clear();
        Ok(())
    }

    /// Kept records not yet replayed (must be zero at the end of a
    /// clean run).
    pub(crate) fn leftover(&self) -> usize {
        self.kept.len()
    }

    /// Bytes delivered to the sink so far.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_single_line_and_escapes_hostile_text() {
        let rec = Record::Terminal(Terminal {
            tenant: 0,
            tick: 7,
            status: TenantStatus::Panicked,
            retired: 42,
            stalled: 1,
            cycles: 999,
            fired_at: None,
            l2_misses: 3,
            vd_hits: 0,
            detail: "quote \" slash \\ newline \n brace } done".to_string(),
        });
        let mut line = String::new();
        rec.render_into(&mut line, &["t\"0"]);
        assert!(!line.contains('\n'));
        let fields = json::scan_top_level(&line).expect("terminal record parses");
        assert_eq!(fields.num("tick"), Some(7));
        assert_eq!(fields.str("status"), Some("panicked"));
        // fired_at:null parses as Other, not Num.
        assert_eq!(fields.num("fired_at"), None);
        let detail = json::unescape(fields.str("detail").unwrap());
        assert_eq!(
            detail.as_deref(),
            Some("quote \" slash \\ newline \n brace } done")
        );
        // And the reader turns the line back into the same record.
        let mut reader = LineReader {
            names: vec!["t\"0".to_string()],
            canon: String::new(),
        };
        assert_eq!(reader.read(&line), Ok(rec));
    }

    /// `tests/decoder_alloc.rs` derives its O(input) allocation bound
    /// from a typed record taking at most 128 bytes.
    #[test]
    fn a_record_takes_at_most_128_bytes() {
        assert!(std::mem::size_of::<Record>() <= 128);
    }
}
