//! The binary journal codec: `secdir-journal/1`.
//!
//! A binary journal is an 8-byte magic followed by a sequence of
//! **frames**:
//!
//! ```text
//! [payload_len: varint] [payload: payload_len bytes] [crc32(payload): 4 bytes LE]
//! ```
//!
//! The payload is a back-to-back run of journal [`Record`]s, each a
//! one-byte type tag followed by varint-packed fields (strings are a
//! varint length plus UTF-8 bytes). [`encode`] writes a record into a
//! frame and [`decode`] hands the records of a byte stream back as the
//! same values; neither knows about JSONL, which is just the other way
//! `journal` writes a record.
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
//! No allocation is sized from a length prefix: a string is copied out
//! only once all of its bytes are inside a checksum-valid frame.
//!
//! Varints are LEB128, and the decoder enforces the *minimal* encoding
//! (a multi-byte varint must not end in a zero group): every value has
//! exactly one valid byte representation, which is what lets a resumed
//! run re-encode replayed records and produce a byte-identical file.

use super::journal::{Checkpoint, HeaderRec, Record, ServeError, Terminal, MAX_NAME};
use super::{TenantSpec, TenantStatus};
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

/// Appends one record to a frame under construction. A spec's fault is
/// a tag varint: 0 for no fault, `1 + FaultKind index` followed by
/// trigger and core otherwise; a terminal's `fired_at` is a presence tag
/// (0/1) followed by the value when present, mirroring the JSONL `null`.
pub(crate) fn encode(frame: &mut Vec<u8>, rec: &Record) {
    match rec {
        Record::Header(h) => {
            frame.push(REC_HEADER);
            for v in [
                h.tenants,
                h.pool,
                h.queue_cap,
                h.global_cap,
                h.ingest,
                h.drain,
                h.idle_timeout,
                h.checkpoint_interval,
                h.max_waiting,
                h.burst_on,
                h.burst_off,
            ] {
                put_uv(frame, v);
            }
            frame.push(u8::from(h.audit));
        }
        Record::Spec(spec) => {
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
        Record::Checkpoint(c) => {
            frame.push(REC_CHECKPOINT);
            for v in [c.tenant as u64, c.tick, c.retired, c.stalled, c.cycles] {
                put_uv(frame, v);
            }
        }
        Record::Terminal(t) => {
            frame.push(REC_TERMINAL);
            put_uv(frame, t.tenant as u64);
            put_uv(frame, t.tick);
            put_uv(frame, status_index(t.status));
            put_uv(frame, t.retired);
            put_uv(frame, t.stalled);
            put_uv(frame, t.cycles);
            match t.fired_at {
                None => put_uv(frame, 0),
                Some(v) => {
                    put_uv(frame, 1);
                    put_uv(frame, v);
                }
            }
            put_uv(frame, t.l2_misses);
            put_uv(frame, t.vd_hits);
            put_str(frame, &t.detail);
        }
    }
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

fn corrupt_at(off: usize, msg: &str) -> ServeError {
    ServeError::Corrupt(format!("journal byte {off}: {msg}"))
}

/// Decoder state threaded across frames: record ordering and the
/// tenant count indices resolve against.
struct DecodeState {
    /// Tenant count promised by the header.
    tenants: u64,
    /// Spec records seen so far.
    specs: u64,
    /// A checkpoint/terminal record has been seen (specs are closed).
    records_started: bool,
    /// The header record has been seen.
    saw_header: bool,
}

/// Decodes a `secdir-journal/1` byte stream, handing each record of
/// each complete, checksum-valid frame to `each`, in order, and
/// stopping at the first error `each` returns.
///
/// Returns whether the stream ended in a torn (incomplete) frame, whose
/// bytes are discarded. An empty input is an empty journal.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on a bad magic, a checksum mismatch over a
/// fully present frame, or structurally invalid records inside a valid
/// frame (unknown type, non-minimal varint, out-of-range index, text
/// that is not UTF-8, records that do not tile the payload exactly, or
/// records out of header → specs → stream order).
pub(crate) fn decode(
    bytes: &[u8],
    mut each: impl FnMut(Record) -> Result<(), ServeError>,
) -> Result<bool, ServeError> {
    if !bytes.starts_with(&MAGIC) {
        // A file cut inside the magic is a torn write as well.
        if MAGIC.starts_with(bytes) {
            return Ok(!bytes.is_empty());
        }
        return Err(ServeError::Corrupt(
            "not a secdir binary journal (bad magic)".to_string(),
        ));
    }
    let mut off = MAGIC.len();
    let mut st = DecodeState {
        tenants: 0,
        specs: 0,
        records_started: false,
        saw_header: false,
    };
    while off < bytes.len() {
        let frame_start = off;
        let len = match get_uv(bytes, &mut off) {
            Uv::Val(v) => v,
            Uv::Eof => return Ok(true),
            Uv::Malformed => return Err(corrupt_at(frame_start, "malformed frame length")),
        };
        if len == 0 || len > MAX_FRAME {
            return Err(corrupt_at(frame_start, "implausible frame length"));
        }
        let len = len as usize;
        let Some(rest) = bytes.get(off..) else {
            return Ok(true);
        };
        if rest.len() < len + 4 {
            // The frame body or its checksum is cut off: an interrupted
            // write, not corruption.
            return Ok(true);
        }
        let payload = &rest[..len];
        let want = u32::from_le_bytes([rest[len], rest[len + 1], rest[len + 2], rest[len + 3]]);
        if crc32(payload) != want {
            return Err(corrupt_at(frame_start, "frame checksum mismatch"));
        }
        off += len + 4;
        let mut at = 0usize;
        while at < payload.len() {
            each(st.record(payload, &mut at, frame_start)?)?;
        }
    }
    Ok(false)
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

    /// Reads one varint that indexes an in-memory table.
    fn index(&self, payload: &[u8], off: &mut usize, at: usize) -> Result<usize, ServeError> {
        usize::try_from(self.uv(payload, off, at)?)
            .map_err(|_| corrupt_at(at, "implausible index or count"))
    }

    /// Reads one length-prefixed UTF-8 string. The length is checked
    /// against the bytes actually in the payload before anything is
    /// allocated.
    fn str(&self, payload: &[u8], off: &mut usize, at: usize) -> Result<String, ServeError> {
        let len = self.index(payload, off, at)?;
        let end = off
            .checked_add(len)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| corrupt_at(at, "string overruns its frame"))?;
        let s = std::str::from_utf8(&payload[*off..end])
            .map_err(|_| corrupt_at(at, "string field is not UTF-8"))?;
        *off = end;
        Ok(s.to_string())
    }

    /// Reads a stream record's tenant index, checking the record order.
    fn tenant(&mut self, payload: &[u8], off: &mut usize, at: usize) -> Result<usize, ServeError> {
        if self.specs < self.tenants {
            return Err(corrupt_at(at, "stream record before all tenant specs"));
        }
        self.records_started = true;
        let idx = self.uv(payload, off, at)?;
        if idx >= self.specs {
            return Err(corrupt_at(at, "record references an unknown tenant index"));
        }
        Ok(idx as usize)
    }

    /// Decodes the record at `*off` of one frame payload (`at` is the
    /// frame's file offset, for messages).
    fn record(&mut self, payload: &[u8], off: &mut usize, at: usize) -> Result<Record, ServeError> {
        let tag = payload[*off];
        *off += 1;
        Ok(match tag {
            REC_HEADER => {
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
                self.tenants = tenants;
                self.saw_header = true;
                Record::Header(HeaderRec {
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
                })
            }
            REC_SPEC => {
                if !self.saw_header {
                    return Err(corrupt_at(at, "spec record before the header"));
                }
                if self.records_started {
                    return Err(corrupt_at(at, "spec record after stream records"));
                }
                if self.specs >= self.tenants {
                    return Err(corrupt_at(at, "more spec records than the header promised"));
                }
                let name = self.str(payload, off, at)?;
                if name.len() > MAX_NAME {
                    return Err(corrupt_at(at, "spec record tenant name is too long"));
                }
                let workload = self.str(payload, off, at)?;
                let kind = DirectoryKind::ALL
                    .get(self.index(payload, off, at)?)
                    .copied()
                    .ok_or_else(|| corrupt_at(at, "spec record directory index out of range"))?;
                let seed = self.uv(payload, off, at)?;
                let cores = self.index(payload, off, at)?;
                let refs = self.uv(payload, off, at)?;
                let fault = match self.index(payload, off, at)? {
                    0 => None,
                    tag => Some(FaultPlan {
                        kind: FaultKind::ALL.get(tag - 1).copied().ok_or_else(|| {
                            corrupt_at(at, "spec record fault index out of range")
                        })?,
                        trigger: self.uv(payload, off, at)?,
                        core: CoreId(self.index(payload, off, at)?),
                    }),
                };
                self.specs += 1;
                Record::Spec(TenantSpec {
                    name,
                    workload,
                    kind,
                    seed,
                    cores,
                    refs,
                    fault,
                })
            }
            REC_CHECKPOINT => Record::Checkpoint(Checkpoint {
                tenant: self.tenant(payload, off, at)?,
                tick: self.uv(payload, off, at)?,
                retired: self.uv(payload, off, at)?,
                stalled: self.uv(payload, off, at)?,
                cycles: self.uv(payload, off, at)?,
            }),
            REC_TERMINAL => Record::Terminal(Terminal {
                tenant: self.tenant(payload, off, at)?,
                tick: self.uv(payload, off, at)?,
                status: TenantStatus::ALL
                    .get(self.index(payload, off, at)?)
                    .copied()
                    .ok_or_else(|| corrupt_at(at, "terminal record status index out of range"))?,
                retired: self.uv(payload, off, at)?,
                stalled: self.uv(payload, off, at)?,
                cycles: self.uv(payload, off, at)?,
                fired_at: match self.uv(payload, off, at)? {
                    0 => None,
                    1 => Some(self.uv(payload, off, at)?),
                    _ => return Err(corrupt_at(at, "malformed fired_at presence tag")),
                },
                l2_misses: self.uv(payload, off, at)?,
                vd_hits: self.uv(payload, off, at)?,
                detail: self.str(payload, off, at)?,
            }),
            _ => return Err(corrupt_at(at, "unknown record type inside frame")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::decode_journal;
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
        let checkpoint = Checkpoint {
            tenant: 0,
            tick: nums[0],
            retired: nums[1],
            stalled: nums[2],
            cycles: nums[3],
        };
        let terminal = Terminal {
            tenant: 0,
            tick: nums[4],
            status: TenantStatus::ALL[status_i],
            retired: nums[5].wrapping_mul(3),
            stalled: nums[6].wrapping_mul(5),
            cycles: nums[7].wrapping_mul(7),
            fired_at: (nums[8] & 1 == 1).then_some(nums[9]),
            l2_misses: nums[10].wrapping_add(1),
            vd_hits: nums[11].wrapping_add(2),
            detail: detail.to_string(),
        };
        let records = [
            Record::Header(header),
            Record::Spec(spec),
            Record::Checkpoint(checkpoint),
            Record::Terminal(terminal),
        ];
        let mut bytes = MAGIC.to_vec();
        for pair in records.chunks(2) {
            let mut frame = Vec::new();
            for rec in pair {
                encode(&mut frame, rec);
            }
            write_frame(&mut bytes, &frame).expect("vec write");
        }
        let lines = records
            .iter()
            .map(|rec| {
                let mut line = String::new();
                rec.render_into(&mut line, &[name]);
                line
            })
            .collect();
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
