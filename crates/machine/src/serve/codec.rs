//! The binary journal codec: `secdir-journal/1`.
//!
//! A binary journal is an 8-byte magic followed by a sequence of
//! **frames**:
//!
//! ```text
//! [payload_len: varint] [payload: payload_len bytes] [crc32(payload): 4 bytes LE]
//! ```
//!
//! The payload is a back-to-back run of **records**, each a one-byte
//! type tag followed by varint-packed fields (strings are a varint
//! length plus UTF-8 bytes). The record set mirrors the JSONL journal
//! one-to-one — header, tenant spec, checkpoint, terminal — and
//! [`decode_journal`] re-renders each record through the *same*
//! rendering functions the JSONL writer uses (built on the shared
//! [`secdir_mem::json`] writer), so decoding a binary journal reproduces
//! the JSONL journal byte-for-byte.
//!
//! Framing is the durability and crash-recovery unit: the writer
//! buffers all records emitted in one scheduler tick into one frame and
//! writes it with a single `write + flush` (group commit — see
//! `DESIGN.md` §13 for the bounded-loss argument). On resume, a file
//! that ends mid-varint, mid-payload, or mid-checksum is a *torn tail*
//! — the complete frames before it are kept and the tail is discarded,
//! exactly like the JSONL planner forgives one incomplete final line.
//! Anything else — a checksum mismatch over a fully present frame, a
//! non-minimal varint, an unknown record type, an out-of-range index, a
//! record that does not tile the payload exactly — is a hard
//! [`ServeError::Corrupt`]: truncation is the only corruption a crash
//! can produce, so everything else means the bytes cannot be trusted.
//!
//! Varints are LEB128, and the decoder enforces the *minimal* encoding
//! (a multi-byte varint must not end in a zero group): every value has
//! exactly one valid byte representation, which is what lets a resumed
//! run re-encode replayed records and produce a byte-identical file.

use super::journal::{
    render_checkpoint, render_header, render_spec, render_terminal, ServeError, TerminalInfo,
};
use super::{ServeConfig, TenantSpec, TenantStatus};
use crate::inject::{FaultKind, FaultPlan};
use crate::DirectoryKind;
use secdir_mem::CoreId;
use std::io::{self, Write};

/// On-disk journal encoding, selected by `serve --format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalFormat {
    /// One JSON object per line, flushed per record (the PR 9 format).
    Jsonl,
    /// `secdir-journal/1` checksummed binary frames, flushed per tick.
    Binary,
}

impl JournalFormat {
    /// Every format, in declaration order.
    pub const ALL: [JournalFormat; 2] = [JournalFormat::Jsonl, JournalFormat::Binary];

    /// The stable CLI name of this format.
    pub fn name(self) -> &'static str {
        match self {
            JournalFormat::Jsonl => "jsonl",
            JournalFormat::Binary => "binary",
        }
    }

    /// Parses a [`JournalFormat::name`] string.
    pub fn parse(s: &str) -> Option<JournalFormat> {
        JournalFormat::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// File magic: non-ASCII first byte (so a binary journal can never be
/// mistaken for JSONL), format name and version, and CR/LF + ^Z bytes
/// that catch newline-translating or text-mode transfers (the PNG
/// trick).
pub(crate) const MAGIC: [u8; 8] = [0x89, b'S', b'D', b'J', b'1', b'\r', b'\n', 0x1a];

/// Sanity bound on one frame's payload. The writer emits one frame per
/// tick, far below this; a larger claimed length can only come from
/// corruption, so the decoder fails hard instead of treating the rest
/// of the file as one torn frame.
const MAX_FRAME: u64 = 1 << 24;

/// Record type tags.
const REC_HEADER: u8 = 1;
const REC_SPEC: u8 = 2;
const REC_CHECKPOINT: u8 = 3;
const REC_TERMINAL: u8 = 4;

/// The scheduling-configuration scalars pinned by the journal header
/// record — the shared source for both the JSONL rendering and the
/// binary encoding of record type 1.
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

    fn scalars(&self) -> [u64; 11] {
        [
            self.tenants,
            self.pool,
            self.queue_cap,
            self.global_cap,
            self.ingest,
            self.drain,
            self.idle_timeout,
            self.checkpoint_interval,
            self.max_waiting,
            self.burst_on,
            self.burst_off,
        ]
    }
}

// --- varints and checksums ------------------------------------------

/// Appends `v` as a minimal LEB128 varint.
pub(crate) fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Encodes `v` into a stack buffer (for the frame length prefix, which
/// goes straight to the sink without touching the frame buffer).
fn put_uv_arr(out: &mut [u8; 10], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = group;
            return n + 1;
        }
        out[n] = group | 0x80;
        n += 1;
    }
}

/// One varint read: a value, a clean end-of-input (file ends before the
/// encoding completes — only ever forgivable at the top level of the
/// file), or bytes no minimal encoder produces.
enum Uv {
    Val(u64),
    Eof,
    Malformed,
}

/// Reads one minimal varint at `*off`, advancing it on success.
fn get_uv(bytes: &[u8], off: &mut usize) -> Uv {
    let start = *off;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*off) else {
            *off = start;
            return Uv::Eof;
        };
        *off += 1;
        let group = (b & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && group > 1) {
            return Uv::Malformed;
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            // Minimal-form check: a trailing zero group is redundant.
            if b == 0 && shift != 0 {
                return Uv::Malformed;
            }
            return Uv::Val(v);
        }
        shift += 7;
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `data` (the standard IEEE checksum, one table lookup per
/// byte).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// --- record encoding ------------------------------------------------

fn put_str(frame: &mut Vec<u8>, s: &str) {
    put_uv(frame, s.len() as u64);
    frame.extend_from_slice(s.as_bytes());
}

/// Index of `k` in [`DirectoryKind::ALL`] (total: every kind is in the
/// array, so the fallback is unreachable).
fn kind_index(k: DirectoryKind) -> u64 {
    DirectoryKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as u64
}

/// Index of `k` in [`FaultKind::ALL`] (total, as above).
fn fault_index(k: FaultKind) -> u64 {
    FaultKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as u64
}

/// Index of `s` in [`TenantStatus::ALL`] (total, as above).
fn status_index(s: TenantStatus) -> u64 {
    TenantStatus::ALL.iter().position(|&x| x == s).unwrap_or(0) as u64
}

/// Appends the header record to a frame under construction.
pub(crate) fn enc_header(frame: &mut Vec<u8>, h: &HeaderRec) {
    frame.push(REC_HEADER);
    for v in h.scalars() {
        put_uv(frame, v);
    }
    frame.push(u8::from(h.audit));
}

/// Appends one tenant's spec record. The fault field is a tag varint:
/// 0 for no fault, `1 + FaultKind index` followed by trigger and core
/// otherwise.
pub(crate) fn enc_spec(frame: &mut Vec<u8>, spec: &TenantSpec) {
    frame.push(REC_SPEC);
    put_str(frame, &spec.name);
    put_str(frame, &spec.workload);
    put_uv(frame, kind_index(spec.kind));
    put_uv(frame, spec.seed);
    put_uv(frame, spec.cores as u64);
    put_uv(frame, spec.refs);
    match spec.fault {
        None => put_uv(frame, 0),
        Some(plan) => {
            put_uv(frame, 1 + fault_index(plan.kind));
            put_uv(frame, plan.trigger);
            put_uv(frame, plan.core.0 as u64);
        }
    }
}

/// Appends one checkpoint record (`tenant` is the spec index).
pub(crate) fn enc_checkpoint(
    frame: &mut Vec<u8>,
    tenant: u64,
    tick: u64,
    retired: u64,
    stalled: u64,
    cycles: u64,
) {
    frame.push(REC_CHECKPOINT);
    for v in [tenant, tick, retired, stalled, cycles] {
        put_uv(frame, v);
    }
}

/// Appends one terminal record. `fired_at` is a presence tag (0/1)
/// followed by the value when present, mirroring the JSONL `null`.
pub(crate) fn enc_terminal(frame: &mut Vec<u8>, tenant: u64, info: &TerminalInfo<'_>) {
    frame.push(REC_TERMINAL);
    put_uv(frame, tenant);
    put_uv(frame, info.tick);
    put_uv(frame, status_index(info.status));
    put_uv(frame, info.retired);
    put_uv(frame, info.stalled);
    put_uv(frame, info.cycles);
    match info.fired_at {
        None => put_uv(frame, 0),
        Some(v) => {
            put_uv(frame, 1);
            put_uv(frame, v);
        }
    }
    put_uv(frame, info.l2_misses);
    put_uv(frame, info.vd_hits);
    put_str(frame, info.detail);
}

/// Writes one complete frame — length prefix, payload, checksum — and
/// flushes, so a kill between frames always leaves a clean frame
/// boundary. Returns the bytes written.
pub(crate) fn write_frame(sink: &mut dyn Write, frame: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; 10];
    let hn = put_uv_arr(&mut head, frame.len() as u64);
    sink.write_all(&head[..hn])?;
    sink.write_all(frame)?;
    sink.write_all(&crc32(frame).to_le_bytes())?;
    sink.flush()?;
    Ok((hn + frame.len() + 4) as u64)
}

// --- decoding -------------------------------------------------------

/// A binary journal decoded back to JSONL.
pub struct DecodedJournal {
    /// The journal's records as JSONL lines, byte-identical to what a
    /// `--format jsonl` run over the same schedule writes.
    pub lines: Vec<String>,
    /// Whether the file ended in a torn (incomplete) frame, whose bytes
    /// were discarded — the binary analogue of a truncated final line.
    pub torn: bool,
}

fn corrupt(msg: &str) -> ServeError {
    ServeError::Corrupt(msg.to_string())
}

fn corrupt_at(off: usize, msg: &str) -> ServeError {
    ServeError::Corrupt(format!("journal byte {off}: {msg}"))
}

/// Decoder state threaded across frames: record ordering and the
/// tenant-name table indices resolve against.
struct DecodeState {
    /// Spec-record names, in index order.
    names: Vec<String>,
    /// Tenant count promised by the header.
    tenants: u64,
    /// A checkpoint/terminal record has been seen (specs are closed).
    records_started: bool,
    /// The header record has been seen.
    saw_header: bool,
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
    let mut out = DecodedJournal {
        lines: Vec::new(),
        torn: false,
    };
    if bytes.is_empty() {
        return Ok(out);
    }
    if bytes.len() < MAGIC.len() {
        if MAGIC.starts_with(bytes) {
            out.torn = true;
            return Ok(out);
        }
        return Err(corrupt("not a secdir binary journal (bad magic)"));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("not a secdir binary journal (bad magic)"));
    }
    let mut off = MAGIC.len();
    let mut st = DecodeState {
        names: Vec::new(),
        tenants: 0,
        records_started: false,
        saw_header: false,
    };
    while off < bytes.len() {
        let frame_start = off;
        let len = match get_uv(bytes, &mut off) {
            Uv::Val(v) => v,
            Uv::Eof => {
                out.torn = true;
                break;
            }
            Uv::Malformed => return Err(corrupt_at(frame_start, "malformed frame length")),
        };
        if len == 0 || len > MAX_FRAME {
            return Err(corrupt_at(frame_start, "implausible frame length"));
        }
        let len = len as usize;
        let Some(rest) = bytes.get(off..) else {
            out.torn = true;
            break;
        };
        if rest.len() < len + 4 {
            // The frame body or its checksum is cut off: an interrupted
            // write, not corruption.
            out.torn = true;
            break;
        }
        let payload = &rest[..len];
        let want = u32::from_le_bytes([rest[len], rest[len + 1], rest[len + 2], rest[len + 3]]);
        if crc32(payload) != want {
            return Err(corrupt_at(frame_start, "frame checksum mismatch"));
        }
        off += len + 4;
        st.decode_frame(payload, frame_start, &mut out.lines)?;
    }
    Ok(out)
}

impl DecodeState {
    /// Reads one varint inside a checksum-valid payload, where running
    /// off the end is corruption, never truncation.
    fn uv(&self, payload: &[u8], off: &mut usize, at: usize) -> Result<u64, ServeError> {
        match get_uv(payload, off) {
            Uv::Val(v) => Ok(v),
            Uv::Eof | Uv::Malformed => Err(corrupt_at(at, "malformed varint inside frame")),
        }
    }

    /// Reads one length-prefixed UTF-8 string.
    fn str(&self, payload: &[u8], off: &mut usize, at: usize) -> Result<String, ServeError> {
        let len = self.uv(payload, off, at)?;
        let len = usize::try_from(len).map_err(|_| corrupt_at(at, "implausible string length"))?;
        let end = off
            .checked_add(len)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| corrupt_at(at, "string overruns its frame"))?;
        let s = std::str::from_utf8(&payload[*off..end])
            .map_err(|_| corrupt_at(at, "string field is not UTF-8"))?;
        *off = end;
        Ok(s.to_string())
    }

    /// Resolves a tenant index against the spec-name table.
    fn tenant(&self, idx: u64, at: usize) -> Result<usize, ServeError> {
        usize::try_from(idx)
            .ok()
            .filter(|&i| i < self.names.len())
            .ok_or_else(|| corrupt_at(at, "record references an unknown tenant index"))
    }

    /// Decodes every record in one frame payload onto `lines`.
    fn decode_frame(
        &mut self,
        payload: &[u8],
        at: usize,
        lines: &mut Vec<String>,
    ) -> Result<(), ServeError> {
        let mut off = 0usize;
        while off < payload.len() {
            let tag = payload[off];
            off += 1;
            match tag {
                REC_HEADER => self.rec_header(payload, &mut off, at, lines)?,
                REC_SPEC => self.rec_spec(payload, &mut off, at, lines)?,
                REC_CHECKPOINT => self.rec_checkpoint(payload, &mut off, at, lines)?,
                REC_TERMINAL => self.rec_terminal(payload, &mut off, at, lines)?,
                _ => return Err(corrupt_at(at, "unknown record type inside frame")),
            }
        }
        Ok(())
    }

    fn rec_header(
        &mut self,
        payload: &[u8],
        off: &mut usize,
        at: usize,
        lines: &mut Vec<String>,
    ) -> Result<(), ServeError> {
        if self.saw_header {
            return Err(corrupt_at(at, "duplicate header record"));
        }
        let mut scalars = [0u64; 11];
        for slot in &mut scalars {
            *slot = self.uv(payload, off, at)?;
        }
        let audit = match payload.get(*off) {
            Some(0) => false,
            Some(1) => true,
            _ => return Err(corrupt_at(at, "malformed header audit flag")),
        };
        *off += 1;
        let [tenants, pool, queue_cap, global_cap, ingest, drain, idle_timeout, checkpoint_interval, max_waiting, burst_on, burst_off] =
            scalars;
        let h = HeaderRec {
            tenants,
            pool,
            queue_cap,
            global_cap,
            ingest,
            drain,
            idle_timeout,
            checkpoint_interval,
            max_waiting,
            burst_on,
            burst_off,
            audit,
        };
        self.tenants = h.tenants;
        self.saw_header = true;
        lines.push(render_header(&h));
        Ok(())
    }

    fn rec_spec(
        &mut self,
        payload: &[u8],
        off: &mut usize,
        at: usize,
        lines: &mut Vec<String>,
    ) -> Result<(), ServeError> {
        if !self.saw_header {
            return Err(corrupt_at(at, "spec record before the header"));
        }
        if self.records_started {
            return Err(corrupt_at(at, "spec record after stream records"));
        }
        if self.names.len() as u64 >= self.tenants {
            return Err(corrupt_at(at, "more spec records than the header promised"));
        }
        let name = self.str(payload, off, at)?;
        let workload = self.str(payload, off, at)?;
        let kind_idx = self.uv(payload, off, at)?;
        let kind = usize::try_from(kind_idx)
            .ok()
            .and_then(|i| DirectoryKind::ALL.get(i).copied())
            .ok_or_else(|| corrupt_at(at, "spec record directory index out of range"))?;
        let seed = self.uv(payload, off, at)?;
        let cores = usize::try_from(self.uv(payload, off, at)?)
            .map_err(|_| corrupt_at(at, "implausible core count"))?;
        let refs = self.uv(payload, off, at)?;
        let fault = match self.uv(payload, off, at)? {
            0 => None,
            tag => {
                let kind = usize::try_from(tag - 1)
                    .ok()
                    .and_then(|i| FaultKind::ALL.get(i).copied())
                    .ok_or_else(|| corrupt_at(at, "spec record fault index out of range"))?;
                let trigger = self.uv(payload, off, at)?;
                let core = usize::try_from(self.uv(payload, off, at)?)
                    .map_err(|_| corrupt_at(at, "implausible fault core"))?;
                Some(FaultPlan {
                    kind,
                    trigger,
                    core: CoreId(core),
                })
            }
        };
        let spec = TenantSpec {
            name,
            workload,
            kind,
            seed,
            cores,
            refs,
            fault,
        };
        lines.push(render_spec(&spec));
        self.names.push(spec.name);
        Ok(())
    }

    /// Guards the specs → stream-records transition.
    fn start_records(&mut self, at: usize) -> Result<(), ServeError> {
        if (self.names.len() as u64) < self.tenants {
            return Err(corrupt_at(at, "stream record before all tenant specs"));
        }
        self.records_started = true;
        Ok(())
    }

    fn rec_checkpoint(
        &mut self,
        payload: &[u8],
        off: &mut usize,
        at: usize,
        lines: &mut Vec<String>,
    ) -> Result<(), ServeError> {
        self.start_records(at)?;
        let tenant = self.uv(payload, off, at)?;
        let tenant = self.tenant(tenant, at)?;
        let tick = self.uv(payload, off, at)?;
        let retired = self.uv(payload, off, at)?;
        let stalled = self.uv(payload, off, at)?;
        let cycles = self.uv(payload, off, at)?;
        lines.push(render_checkpoint(
            &self.names[tenant],
            tick,
            retired,
            stalled,
            cycles,
        ));
        Ok(())
    }

    fn rec_terminal(
        &mut self,
        payload: &[u8],
        off: &mut usize,
        at: usize,
        lines: &mut Vec<String>,
    ) -> Result<(), ServeError> {
        self.start_records(at)?;
        let tenant = self.uv(payload, off, at)?;
        let tenant = self.tenant(tenant, at)?;
        let tick = self.uv(payload, off, at)?;
        let status = usize::try_from(self.uv(payload, off, at)?)
            .ok()
            .and_then(|i| TenantStatus::ALL.get(i).copied())
            .ok_or_else(|| corrupt_at(at, "terminal record status index out of range"))?;
        let retired = self.uv(payload, off, at)?;
        let stalled = self.uv(payload, off, at)?;
        let cycles = self.uv(payload, off, at)?;
        let fired_at = match self.uv(payload, off, at)? {
            0 => None,
            1 => Some(self.uv(payload, off, at)?),
            _ => return Err(corrupt_at(at, "malformed fired_at presence tag")),
        };
        let l2_misses = self.uv(payload, off, at)?;
        let vd_hits = self.uv(payload, off, at)?;
        let detail = self.str(payload, off, at)?;
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
        lines.push(render_terminal(&self.names[tenant], &info));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secdir_mem::SplitMix64;

    #[test]
    fn varint_round_trips_minimal_encodings() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut cases: Vec<u64> = vec![0, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX];
        for shift in 0..64 {
            cases.push(1u64 << shift);
            cases.push((1u64 << shift) - 1);
            cases.push(rng.next_u64());
        }
        for v in cases {
            let mut buf = Vec::new();
            put_uv(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut off = 0;
            match get_uv(&buf, &mut off) {
                Uv::Val(got) => {
                    assert_eq!(got, v);
                    assert_eq!(off, buf.len(), "decode must consume the whole encoding");
                }
                _ => panic!("round-trip failed for {v}"),
            }
            // A stack-array encoding must agree byte-for-byte.
            let mut arr = [0u8; 10];
            let n = put_uv_arr(&mut arr, v);
            assert_eq!(&arr[..n], &buf[..]);
        }
    }

    #[test]
    fn varint_rejects_non_minimal_and_overflowing_encodings() {
        for bad in [
            &[0x80, 0x00][..],                                                 // 0 in 2 bytes
            &[0x81, 0x00][..],                                                 // 1 in 2 bytes
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f][..], // > u64
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ][..], // 11 bytes
        ] {
            let mut off = 0;
            assert!(
                matches!(get_uv(bad, &mut off), Uv::Malformed),
                "{bad:?} must be rejected"
            );
        }
        // A truncated varint is EOF (torn tail), not malformed.
        let mut off = 0;
        assert!(matches!(get_uv(&[0x80], &mut off), Uv::Eof));
        assert_eq!(off, 0, "EOF must rewind for retry after more bytes");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    use proptest::prelude::*;

    /// Characters the generated strings draw from: JSON-hostile (quotes,
    /// backslashes, braces), control bytes the escaper must `\u00xx`,
    /// and multi-byte UTF-8.
    const ALPHABET: [char; 16] = [
        'a', 'z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', '{', '}',
        'é', '⊕',
    ];

    fn hostile(picks: &[usize]) -> String {
        picks
            .iter()
            .map(|&i| ALPHABET[i % ALPHABET.len()])
            .collect()
    }

    /// One fully populated journal — header, one hostile-named spec, a
    /// checkpoint, a terminal — encoded into frames, plus the JSONL
    /// lines the same records render to.
    #[allow(clippy::too_many_arguments)]
    fn encode_case(
        name: &str,
        workload: &str,
        detail: &str,
        kind_i: usize,
        status_i: usize,
        fault_i: usize,
        nums: &[u64; 12],
    ) -> (Vec<u8>, Vec<String>) {
        let spec = TenantSpec {
            name: name.to_string(),
            workload: workload.to_string(),
            kind: DirectoryKind::ALL[kind_i],
            seed: nums[0],
            cores: (nums[1] % 64) as usize,
            refs: nums[2],
            fault: (fault_i > 0).then(|| FaultPlan {
                kind: FaultKind::ALL[fault_i - 1],
                trigger: nums[3],
                core: CoreId((nums[4] % 64) as usize),
            }),
        };
        let header = HeaderRec {
            tenants: 1,
            pool: nums[5],
            queue_cap: nums[6],
            global_cap: nums[7],
            ingest: nums[8],
            drain: nums[9],
            idle_timeout: nums[10],
            checkpoint_interval: nums[11],
            max_waiting: nums[0].rotate_left(17),
            burst_on: nums[1].rotate_left(31),
            burst_off: nums[2].rotate_left(7),
            audit: nums[3] & 1 == 1,
        };
        let info = TerminalInfo {
            tick: nums[4],
            status: TenantStatus::ALL[status_i],
            retired: nums[5].wrapping_mul(3),
            stalled: nums[6].wrapping_mul(5),
            cycles: nums[7].wrapping_mul(7),
            fired_at: (nums[8] & 1 == 1).then_some(nums[9]),
            l2_misses: nums[10].wrapping_add(1),
            vd_hits: nums[11].wrapping_add(2),
            detail,
        };
        let mut bytes = MAGIC.to_vec();
        let mut frame = Vec::new();
        enc_header(&mut frame, &header);
        enc_spec(&mut frame, &spec);
        write_frame(&mut bytes, &frame).expect("vec write");
        frame.clear();
        enc_checkpoint(&mut frame, 0, nums[0], nums[1], nums[2], nums[3]);
        enc_terminal(&mut frame, 0, &info);
        write_frame(&mut bytes, &frame).expect("vec write");
        let lines = vec![
            render_header(&header),
            render_spec(&spec),
            render_checkpoint(&spec.name, nums[0], nums[1], nums[2], nums[3]),
            render_terminal(&spec.name, &info),
        ];
        (bytes, lines)
    }

    proptest! {
        /// Arbitrary counters and hostile strings survive the full
        /// encode → frame → checksum → decode round trip, reproducing
        /// exactly the JSONL lines the text writer renders.
        #[test]
        fn frames_round_trip_hostile_records(
            name in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            workload in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            detail in prop::collection::vec(0usize..ALPHABET.len(), 0..24),
            kind_i in 0usize..DirectoryKind::ALL.len(),
            status_i in 0usize..TenantStatus::ALL.len(),
            fault_i in 0usize..(FaultKind::ALL.len() + 1),
            nums in prop::collection::vec(any::<u64>(), 12..13),
        ) {
            let mut fixed = [0u64; 12];
            fixed.copy_from_slice(&nums);
            let (bytes, want) = encode_case(
                &hostile(&name), &hostile(&workload), &hostile(&detail),
                kind_i, status_i, fault_i, &fixed,
            );
            let decoded = decode_journal(&bytes).expect("valid journal decodes");
            prop_assert!(!decoded.torn);
            prop_assert_eq!(decoded.lines, want);
        }

        /// Truncation is the only corruption a kill can produce: every
        /// byte-prefix of a valid journal decodes cleanly to a prefix of
        /// its records (possibly torn), never to a hard error.
        #[test]
        fn every_prefix_decodes_to_a_record_prefix(
            name in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            cut_pick in any::<u64>(),
            nums in prop::collection::vec(any::<u64>(), 12..13),
        ) {
            let mut fixed = [0u64; 12];
            fixed.copy_from_slice(&nums);
            let (bytes, want) = encode_case(&hostile(&name), "w", "d", 0, 0, 0, &fixed);
            let cut = (cut_pick % (bytes.len() as u64 + 1)) as usize;
            let decoded = decode_journal(&bytes[..cut])
                .unwrap_or_else(|e| panic!("prefix of {cut} bytes errored: {e}"));
            prop_assert!(decoded.lines.len() <= want.len());
            prop_assert_eq!(&decoded.lines[..], &want[..decoded.lines.len()]);
            // Only the untruncated journal yields every record untorn:
            // the fixture is exactly two frames, so a full decode means
            // the cut kept both.
            if decoded.lines.len() == want.len() && !decoded.torn {
                prop_assert_eq!(cut, bytes.len());
            }
        }
    }
}
