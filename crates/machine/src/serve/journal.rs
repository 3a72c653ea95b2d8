//! The serve journal: crash-safe record rendering, the resume planner,
//! and the splice/compare emission sink.
//!
//! The journal is the server's only durable state, written in one of
//! two encodings ([`JournalFormat`]):
//!
//! * **JSONL** — every record is one JSON object on one line, written
//!   in a fixed field order through the shared [`secdir_mem::json`]
//!   writer (into a reused buffer, so steady-state rendering allocates
//!   nothing) and flushed before the next record starts, so a SIGKILL
//!   at any byte leaves a well-formed prefix plus at most one truncated
//!   final line.
//! * **binary** (`secdir-journal/1`, see [`super::codec`]) — records
//!   are varint-packed into length-prefixed, CRC-checksummed frames,
//!   one frame per scheduler tick, flushed per frame (group commit), so
//!   a SIGKILL at any byte leaves a run of complete frames plus at most
//!   one torn tail.
//!
//! Both encodings carry the same record sequence:
//!
//! 1. one **header** record (`"schema":"secdir-serve/1"` in JSONL)
//!    pinning the scheduling configuration,
//! 2. one **spec** record per tenant (identity, workload, directory,
//!    seed, armed fault),
//! 3. interleaved **checkpoint** and **terminal** records in `(tick,
//!    tenant-index)` order — the same deterministic total order the
//!    scheduler emits them in.
//!
//! Resume is replay: [`plan`] recovers the surviving record lines (for
//! binary journals by decoding complete frames back to their JSONL
//! rendering), validates them against the current configuration
//! (byte-comparing the header/spec lines, structurally parsing the
//! records with the shared [`secdir_mem::json::scan_top_level`] scanner),
//! and the server re-runs the whole schedule from tick 0. Tenants whose
//! terminal record survived become *ghosts* (their records are spliced
//! from the kept prefix, their machines are never rebuilt); live
//! tenants are re-simulated and every regenerated record is compared
//! against the kept prefix through [`JournalSink`]. Any mismatch is a
//! hard [`ServeError::Corrupt`] — never a panic, never silent
//! divergence. Only an interrupted final write (incomplete line, torn
//! frame) is forgiven.
//!
//! Worker count appears nowhere in the journal: a journal produced at
//! `--workers 4` resumes byte-identically at `--workers 1` and vice
//! versa. Record content is also format-independent — decoding a binary
//! journal reproduces the JSONL journal byte-for-byte, which is what
//! `secdir-sim decode` exposes.

use super::codec::{self, HeaderRec, JournalFormat};
use super::{ServeConfig, TenantSpec, TenantStatus};
use secdir_mem::json;
use std::fmt;
use std::io::Write;

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

// --- rendering ------------------------------------------------------

/// Renders the header record into `out` (cleared first).
pub(crate) fn render_header_into(out: &mut String, h: &HeaderRec) {
    out.clear();
    out.reserve(256);
    json::object(out, |l| {
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
    });
}

/// Renders the header record pinning the scheduling configuration.
pub(crate) fn render_header(h: &HeaderRec) -> String {
    let mut out = String::new();
    render_header_into(&mut out, h);
    out
}

/// Renders one tenant's spec record into `out` (cleared first).
pub(crate) fn render_spec_into(out: &mut String, spec: &TenantSpec) {
    out.clear();
    out.reserve(192 + spec.name.len() + spec.workload.len());
    json::object(out, |l| {
        l.str("tenant", &spec.name);
        l.str("workload", &spec.workload);
        l.str("directory", spec.kind.name());
        l.num("seed", spec.seed);
        l.num("cores", spec.cores as u64);
        l.num("refs", spec.refs);
        match spec.fault {
            Some(plan) => {
                l.str("fault", plan.kind.name());
                l.num("trigger", plan.trigger);
                l.num("fault_core", plan.core.0 as u64);
            }
            None => {
                l.str("fault", "none");
                l.num("trigger", 0);
                l.num("fault_core", 0);
            }
        }
    });
}

/// Renders one tenant's spec record.
pub(crate) fn render_spec(spec: &TenantSpec) -> String {
    let mut out = String::new();
    render_spec_into(&mut out, spec);
    out
}

/// Renders one progress checkpoint record into `out` (cleared first).
pub(crate) fn render_checkpoint_into(
    out: &mut String,
    name: &str,
    tick: u64,
    retired: u64,
    stalled: u64,
    cycles: u64,
) {
    out.clear();
    out.reserve(128 + name.len());
    json::object(out, |l| {
        l.num("tick", tick);
        l.str("tenant", name);
        l.num("retired", retired);
        l.num("stalled", stalled);
        l.num("cycles", cycles);
    });
}

/// Renders one progress checkpoint record.
pub(crate) fn render_checkpoint(
    name: &str,
    tick: u64,
    retired: u64,
    stalled: u64,
    cycles: u64,
) -> String {
    let mut out = String::new();
    render_checkpoint_into(&mut out, name, tick, retired, stalled, cycles);
    out
}

/// Everything a terminal record carries beyond the tenant name.
pub(crate) struct TerminalInfo<'a> {
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
    /// Final machine stats (zero for ghosts, sheds, and panics that
    /// destroyed the machine).
    pub l2_misses: u64,
    /// See `l2_misses`.
    pub vd_hits: u64,
    /// Panic message or invariant text (empty otherwise).
    pub detail: &'a str,
}

/// Renders one terminal record into `out` (cleared first).
pub(crate) fn render_terminal_into(out: &mut String, name: &str, info: &TerminalInfo<'_>) {
    out.clear();
    out.reserve(224 + name.len() + info.detail.len() * 6);
    json::object(out, |l| {
        l.num("tick", info.tick);
        l.str("tenant", name);
        l.str("status", info.status.name());
        l.num("retired", info.retired);
        l.num("stalled", info.stalled);
        l.num("cycles", info.cycles);
        l.opt_num("fired_at", info.fired_at);
        l.num("l2_misses", info.l2_misses);
        l.num("vd_hits", info.vd_hits);
        l.str("detail", info.detail);
    });
}

/// Renders one terminal record.
pub(crate) fn render_terminal(name: &str, info: &TerminalInfo<'_>) -> String {
    let mut out = String::new();
    render_terminal_into(&mut out, name, info);
    out
}

// --- parsing / resume planning --------------------------------------

/// A kept record spliced for a ghost tenant, with the counters the
/// replay does not recompute, as recorded in the line.
pub(crate) struct Spliced {
    /// The kept line, verbatim.
    pub line: String,
    /// Recorded `cycles` (0 when absent).
    pub cycles: u64,
    /// Recorded `fired_at` (`None` when `null` or absent).
    pub fired_at: Option<u64>,
    /// Recorded `l2_misses` (0 when absent).
    pub l2_misses: u64,
    /// Recorded `vd_hits` (0 when absent).
    pub vd_hits: u64,
}

/// A tenant whose terminal record survived in the journal prefix: its
/// replay is spliced, not re-simulated.
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
    /// Complete journal lines, in file order (header, specs, records).
    pub kept: Vec<String>,
    /// Per tenant index: the recorded terminal, if one survived.
    pub ghost: Vec<Option<GhostEnd>>,
    /// Whether a truncated final line / torn final frame was discarded.
    pub recovered_truncation: bool,
}

/// The header + spec lines a run over `cfg` writes, in order.
pub(crate) fn expected_prefix(cfg: &ServeConfig) -> Vec<String> {
    let mut lines = Vec::with_capacity(1 + cfg.tenants.len());
    lines.push(render_header(&HeaderRec::of(cfg)));
    for spec in &cfg.tenants {
        lines.push(render_spec(spec));
    }
    lines
}

fn corrupt(line_no: usize, msg: &str) -> ServeError {
    ServeError::Corrupt(format!("journal line {line_no}: {msg}"))
}

/// Validates a surviving journal against `cfg` and plans the replay.
///
/// `checkpoint` is the raw surviving file content; `format` says how to
/// read it (the format the interrupted run was started with). JSONL
/// journals are split into lines, binary journals are decoded frame by
/// frame back to their JSONL rendering; the recovered record lines then
/// go through the same validation either way.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on any complete record that is malformed,
/// mismatched against the configuration, out of order, duplicated after
/// a terminal, or otherwise untrustworthy — including a journal in the
/// *other* format (a binary journal is never valid UTF-8 JSONL, and a
/// JSONL journal never starts with the binary magic). An interrupted
/// final write (incomplete line, torn frame) is discarded and reported
/// via `recovered_truncation` instead.
pub(crate) fn plan(
    cfg: &ServeConfig,
    checkpoint: &[u8],
    format: JournalFormat,
) -> Result<ServePlan, ServeError> {
    let n = cfg.tenants.len();
    let mut out = ServePlan {
        kept: Vec::new(),
        ghost: vec![None; n],
        recovered_truncation: false,
    };
    if checkpoint.is_empty() {
        return Ok(out);
    }
    match format {
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
            let has_final_newline = !cut_mid_char && text.ends_with('\n');
            let lines: Vec<&str> = text.lines().collect();
            plan_lines(cfg, &lines, has_final_newline, &mut out)?;
        }
        JournalFormat::Binary => {
            let decoded = codec::decode_journal(checkpoint)?;
            let lines: Vec<&str> = decoded.lines.iter().map(String::as_str).collect();
            // Every decoded line came out of a complete, checksum-valid
            // frame, so none of them is forgivably truncated.
            plan_lines(cfg, &lines, true, &mut out)?;
            out.recovered_truncation |= decoded.torn;
        }
    }
    Ok(out)
}

/// The format-independent planning core: validates recovered record
/// lines in order. `has_final_newline` is false when the last line is
/// an incomplete (interrupted) write and may be forgiven.
fn plan_lines(
    cfg: &ServeConfig,
    lines: &[&str],
    has_final_newline: bool,
    out: &mut ServePlan,
) -> Result<(), ServeError> {
    let expected = expected_prefix(cfg);
    let mut last_tick = 0u64;
    for (idx, line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let complete = idx + 1 < lines.len() || has_final_newline;
        if let Some(want) = expected.get(idx) {
            if line == want {
                out.kept.push((*line).to_string());
                continue;
            }
            if !complete && want.starts_with(line) {
                out.recovered_truncation = true;
                return Ok(());
            }
            return Err(corrupt(
                line_no,
                "header/spec record does not match the current configuration",
            ));
        }
        match classify_record(cfg, line, last_tick, &out.ghost) {
            Ok((tick, tenant, terminal)) => {
                last_tick = tick;
                if let Some(status) = terminal {
                    out.ghost[tenant] = Some(GhostEnd { tick, status });
                }
                out.kept.push((*line).to_string());
            }
            Err(msg) => {
                if !complete {
                    out.recovered_truncation = true;
                    return Ok(());
                }
                return Err(corrupt(line_no, &msg));
            }
        }
    }
    Ok(())
}

/// Parses and validates one record line: returns `(tick, tenant index,
/// terminal status if any)` or a description of what is wrong.
fn classify_record(
    cfg: &ServeConfig,
    line: &str,
    last_tick: u64,
    ghost: &[Option<GhostEnd>],
) -> Result<(u64, usize, Option<TenantStatus>), String> {
    let fields = json::scan_top_level(line)
        .ok_or_else(|| "malformed record before end of file".to_string())?;
    if fields.str("schema").is_some() {
        return Err("unexpected second header record".to_string());
    }
    if fields.str("workload").is_some() {
        return Err("unexpected extra spec record".to_string());
    }
    let tick = fields
        .num("tick")
        .ok_or_else(|| "record missing `tick`".to_string())?;
    let name = fields
        .str("tenant")
        .ok_or_else(|| "record missing `tenant`".to_string())?;
    let tenant = cfg
        .tenants
        .iter()
        .position(|t| t.name == name)
        .ok_or_else(|| format!("record for unknown tenant `{name}`"))?;
    if ghost.get(tenant).is_some_and(Option::is_some) {
        return Err(format!("record after terminal record for tenant `{name}`"));
    }
    if tick < last_tick {
        return Err("out-of-order record".to_string());
    }
    for counter in ["retired", "stalled", "cycles"] {
        if fields.num(counter).is_none() {
            return Err(format!("record missing `{counter}`"));
        }
    }
    let terminal = match fields.str("status") {
        None => None,
        Some(s) => {
            Some(TenantStatus::parse(s).ok_or_else(|| format!("unknown terminal status `{s}`"))?)
        }
    };
    Ok((tick, tenant, terminal))
}

// --- emission sink --------------------------------------------------

/// Where journal records go during a run.
///
/// Every record is rendered (into a reusable buffer) as its JSONL line
/// — that line is the format-independent identity of the record, used
/// for the kept-prefix replay comparison and surfaced as the tenant's
/// terminal `record`. What reaches the sink depends on the format:
/// JSONL writes the line plus a flush per record; binary appends the
/// varint-packed record to the current frame, and [`JournalSink::commit`]
/// (called once per scheduler tick) writes the frame with one
/// write+flush. While a kept prefix remains, every regenerated record
/// is checked against it — byte-compare for re-simulated records,
/// field-compare-and-splice for ghost records.
pub(crate) struct JournalSink<'a> {
    sink: &'a mut dyn Write,
    kept: Vec<String>,
    cursor: usize,
    format: JournalFormat,
    /// Reusable JSONL render buffer; after each `emit_*` it holds the
    /// record's line.
    buf: String,
    /// Binary frame under construction (records since the last commit).
    frame: Vec<u8>,
    /// Bytes delivered to the sink so far (including framing).
    bytes: u64,
    /// Whether the binary magic has been written.
    started: bool,
}

impl<'a> JournalSink<'a> {
    /// Wraps `sink`, replaying against the `kept` prefix from [`plan`].
    pub(crate) fn new(
        sink: &'a mut dyn Write,
        kept: Vec<String>,
        format: JournalFormat,
    ) -> JournalSink<'a> {
        JournalSink {
            sink,
            kept,
            cursor: 0,
            format,
            buf: String::new(),
            frame: Vec::new(),
            bytes: 0,
            started: false,
        }
    }

    fn io_err(e: std::io::Error) -> ServeError {
        ServeError::Io(e.to_string())
    }

    /// Byte-compares `self.buf` against the kept prefix (while one
    /// remains) and advances the replay cursor.
    fn check_kept(&mut self) -> Result<(), ServeError> {
        if let Some(want) = self.kept.get(self.cursor) {
            if *want != self.buf {
                return Err(corrupt(
                    self.cursor + 1,
                    "kept record diverges from the deterministic replay",
                ));
            }
        }
        self.cursor += 1;
        Ok(())
    }

    /// JSONL delivery: the rendered line, a newline, and a flush — the
    /// per-record durability contract.
    fn write_text_line(&mut self) -> Result<(), ServeError> {
        writeln!(self.sink, "{}", self.buf).map_err(Self::io_err)?;
        self.sink.flush().map_err(Self::io_err)?;
        self.bytes += self.buf.len() as u64 + 1;
        Ok(())
    }

    /// Post-render step shared by every emitter: replay check, then
    /// format-dependent delivery (JSONL writes now; binary records were
    /// already appended to the pending frame and leave with `commit`).
    fn advance(&mut self) -> Result<(), ServeError> {
        self.check_kept()?;
        if self.format == JournalFormat::Jsonl {
            self.write_text_line()?;
        }
        Ok(())
    }

    /// Emits the journal prologue — header and spec records — and
    /// commits it as the first frame.
    pub(crate) fn begin(&mut self, cfg: &ServeConfig) -> Result<(), ServeError> {
        let h = HeaderRec::of(cfg);
        render_header_into(&mut self.buf, &h);
        if self.format == JournalFormat::Binary {
            codec::enc_header(&mut self.frame, &h);
        }
        self.advance()?;
        for spec in &cfg.tenants {
            render_spec_into(&mut self.buf, spec);
            if self.format == JournalFormat::Binary {
                codec::enc_spec(&mut self.frame, spec);
            }
            self.advance()?;
        }
        self.commit()
    }

    /// Emits a regenerated checkpoint record for tenant index `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the regenerated record differs from
    /// the kept line at this position.
    pub(crate) fn emit_checkpoint(
        &mut self,
        tenant: usize,
        name: &str,
        tick: u64,
        retired: u64,
        stalled: u64,
        cycles: u64,
    ) -> Result<(), ServeError> {
        if self.format == JournalFormat::Binary {
            codec::enc_checkpoint(
                &mut self.frame,
                tenant as u64,
                tick,
                retired,
                stalled,
                cycles,
            );
            // Checkpoints dominate a journal-heavy run, and once the
            // kept prefix is exhausted nothing reads their text
            // rendering — skip it and keep the binary hot path pure
            // varint appends.
            if self.cursor >= self.kept.len() {
                self.cursor += 1;
                return Ok(());
            }
        }
        render_checkpoint_into(&mut self.buf, name, tick, retired, stalled, cycles);
        self.advance()
    }

    /// Emits a regenerated terminal record and returns its JSONL line
    /// (the tenant's terminal `record` artifact).
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the regenerated record differs from
    /// the kept line at this position.
    pub(crate) fn emit_terminal(
        &mut self,
        tenant: usize,
        name: &str,
        info: &TerminalInfo<'_>,
    ) -> Result<String, ServeError> {
        render_terminal_into(&mut self.buf, name, info);
        if self.format == JournalFormat::Binary {
            codec::enc_terminal(&mut self.frame, tenant as u64, info);
        }
        self.advance()?;
        Ok(self.buf.clone())
    }

    /// Splices the next kept line for ghost tenant `name`, checking the
    /// fields the replay recomputes (`tick`, `tenant`, `retired`,
    /// `stalled`, and terminal status presence/value). Counters the
    /// replay does not recompute (`cycles`, `fired_at`, machine stats)
    /// come out of the kept line itself, scanned once; in binary mode
    /// the record is re-encoded canonically from those parsed fields
    /// (rendering is canonical, so it decodes back to exactly the
    /// spliced line).
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the prefix is exhausted or the kept
    /// line disagrees with the recomputed schedule.
    pub(crate) fn emit_ghost(
        &mut self,
        tenant: usize,
        name: &str,
        tick: u64,
        retired: u64,
        stalled: u64,
        terminal: Option<TenantStatus>,
    ) -> Result<Spliced, ServeError> {
        let Some(line) = self.kept.get(self.cursor).cloned() else {
            return Err(ServeError::Corrupt(format!(
                "journal ended before tenant `{name}` finished its replayed records"
            )));
        };
        let diverges = || {
            corrupt(
                self.cursor + 1,
                "kept record diverges from the replayed schedule",
            )
        };
        let fields = json::scan_top_level(&line).ok_or_else(diverges)?;
        if fields.num("tick") != Some(tick)
            || fields.str("tenant") != Some(name)
            || fields.num("retired") != Some(retired)
            || fields.num("stalled") != Some(stalled)
            || fields.str("status") != terminal.map(TenantStatus::name)
        {
            return Err(diverges());
        }
        let cycles = fields.num("cycles").unwrap_or(0);
        let fired_at = fields.num("fired_at");
        let l2_misses = fields.num("l2_misses").unwrap_or(0);
        let vd_hits = fields.num("vd_hits").unwrap_or(0);
        if self.format == JournalFormat::Binary {
            let tenant = tenant as u64;
            match terminal {
                None => {
                    codec::enc_checkpoint(&mut self.frame, tenant, tick, retired, stalled, cycles)
                }
                Some(status) => {
                    let detail =
                        json::unescape(fields.str("detail").unwrap_or("")).ok_or_else(|| {
                            corrupt(
                                self.cursor + 1,
                                "ghost terminal record detail field does not unescape",
                            )
                        })?;
                    let info = TerminalInfo {
                        tick,
                        status,
                        retired,
                        stalled,
                        cycles,
                        fired_at,
                        l2_misses,
                        vd_hits,
                        detail: &detail,
                    };
                    codec::enc_terminal(&mut self.frame, tenant, &info);
                }
            }
        }
        self.buf.clear();
        self.buf.push_str(&line);
        self.cursor += 1;
        if self.format == JournalFormat::Jsonl {
            self.write_text_line()?;
        }
        Ok(Spliced {
            line,
            cycles,
            fired_at,
            l2_misses,
            vd_hits,
        })
    }

    /// Delivers the pending frame (binary group commit): one write plus
    /// one flush for everything emitted since the last commit. The
    /// driver calls this once per scheduler tick; a no-op when nothing
    /// is pending, and always a no-op for JSONL (which flushed per
    /// record already).
    pub(crate) fn commit(&mut self) -> Result<(), ServeError> {
        if self.format != JournalFormat::Binary {
            return Ok(());
        }
        if !self.started {
            self.sink.write_all(&codec::MAGIC).map_err(Self::io_err)?;
            self.bytes += codec::MAGIC.len() as u64;
            self.started = true;
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        let n = codec::write_frame(self.sink, &self.frame).map_err(Self::io_err)?;
        self.bytes += n;
        self.frame.clear();
        Ok(())
    }

    /// Kept lines not yet consumed by the replay (must be zero at the
    /// end of a clean run).
    pub(crate) fn leftover(&self) -> usize {
        self.kept.len().saturating_sub(self.cursor)
    }

    /// Total kept lines this sink started with.
    pub(crate) fn kept_len(&self) -> usize {
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
        let info = TerminalInfo {
            tick: 7,
            status: TenantStatus::Panicked,
            retired: 42,
            stalled: 1,
            cycles: 999,
            fired_at: None,
            l2_misses: 3,
            vd_hits: 0,
            detail: "quote \" slash \\ newline \n brace } done",
        };
        let line = render_terminal("t\"0", &info);
        assert!(!line.contains('\n'));
        let fields = json::scan_top_level(&line).expect("terminal record parses");
        assert_eq!(fields.num("tick"), Some(7));
        assert_eq!(fields.str("status"), Some("panicked"));
        // fired_at:null parses as Other, not Num.
        assert_eq!(fields.num("fired_at"), None);
        let detail = json::unescape(fields.str("detail").unwrap());
        assert_eq!(detail.as_deref(), Some(info.detail));
    }
}
