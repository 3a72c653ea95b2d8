//! The journal and checkpoint readers allocate O(input): on arbitrary
//! input, each allocates at most `k · len(input) + c` bytes, with `k`
//! and `c` derived below from the largest thing a reader keeps per input
//! byte — never fitted to measurements. No allocation may be sized from
//! a length prefix before the bytes behind it exist, so a frame whose
//! string prefix claims 2⁴⁰ bytes must cost next to nothing.
//!
//! Covered: `decode_journal`, `run_serve` resuming from arbitrary bytes
//! in both journal formats, and the sweep's `plan_resume`.
//!
//! Allocations are counted per thread (the harness runs tests on
//! parallel threads), as total bytes requested: every `alloc` plus the
//! new size of every `realloc`, freed or not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use proptest::prelude::*;
use secdir_machine::resume::plan_resume;
use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, ServeError, TenantSpec,
};
use secdir_machine::sweep::{CellSpec, SweepMatrix};
use secdir_machine::DirectoryKind;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(n: usize) {
    // `try_with`: the slot is already gone while a thread is torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + n as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates on this thread, its result included.
fn allocated<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.with(Cell::get);
    let out = f();
    let spent = BYTES.with(Cell::get) - before;
    drop(out);
    spent
}

// --- the bound ------------------------------------------------------
//
// Each `k` is a sum of per-input-byte costs. The building blocks:

/// A vector or string that doubles as it fills has requested, over its
/// life, at most 4× its final length: at most 2× its final capacity,
/// which is at most 2× the length.
const GROWTH: u64 = 4;
/// A typed journal record in memory (pinned by `serve::journal`'s
/// `a_record_takes_at_most_128_bytes` unit test).
const RECORD: u64 = 128;
/// One `String` (a decoded line) or `&str` (a sweep line) slot.
const STRING_SLOT: u64 = 24;
/// One entry of the JSON scanner's field list: key `&str` plus value.
const SCAN_FIELD: u64 = 40;
/// The smallest top-level JSON field, `"":0,`.
const MIN_JSON_FIELD: u64 = 5;
/// The smallest encoded binary record: a checkpoint of six single
/// bytes (tag, tenant, tick, retired, stalled, cycles).
const MIN_BINARY_RECORD: u64 = 6;
/// The smallest serve JSONL record that reads: a checkpoint with a
/// one-byte tenant name and single-digit counters, plus its newline.
const MIN_JSONL_RECORD: u64 = 57;
/// The tenant-name bound `ServeConfig` and the binary decoder enforce.
const MAX_NAME: u64 = 255;
/// JSON escapes one byte of text into at most six (`\u00XX`).
const ESCAPE: u64 = 6;
/// A stream record's JSONL text besides its tenant name and detail:
/// keys, punctuation, six counters of at most 20 digits, the longest
/// status name.
const FIXED_LINE: u64 = 256;
/// Error messages: fixed text plus at most a copy of the offending
/// record's strings.
const MESSAGE: u64 = 1024;

/// `decode_journal` renders one line per record. The costliest record
/// per encoded byte is a 6-byte checkpoint, whose line repeats its
/// tenant's name, escaped: its slot in `lines` plus its text. On top,
/// per byte: a terminal's detail escaped into its line and into the
/// reused render buffer, and one copy of each string out of the frame
/// and into the name table. Every other record — header, spec, terminal
/// — costs less per encoded byte than the checkpoint.
const K_DECODE: u64 = (GROWTH * STRING_SLOT + FIXED_LINE + ESCAPE * MAX_NAME) / MIN_BINARY_RECORD
    + ESCAPE * (1 + GROWTH)
    + 2;
/// The render buffer's longest line that does not depend on a detail.
const C_DECODE: u64 = GROWTH * (FIXED_LINE + ESCAPE * MAX_NAME) + MESSAGE;

/// A binary resume keeps one typed record per smallest record, and
/// copies each string out of the frame once.
const K_BINARY_RESUME: u64 = GROWTH * RECORD / MIN_BINARY_RECORD + 1;

/// A JSONL resume scans each line (one field entry per smallest field),
/// keeps one typed record per smallest record, unescapes each string
/// field once, and re-renders the line into a reused buffer to check
/// it is canonical (longer than the line by at most a missing
/// `"fired_at":null`, covered by `MESSAGE`).
const K_JSONL_RESUME: u64 =
    GROWTH * SCAN_FIELD / MIN_JSON_FIELD + GROWTH * RECORD / MIN_JSONL_RECORD + 1 + GROWTH;

/// `plan_resume` collects a `&str` per line (a line can be just its
/// newline), scans each line, copies its identity strings and the kept
/// line once, and may format one error message around them.
const K_SWEEP: u64 = GROWTH * 16 + GROWTH * SCAN_FIELD / MIN_JSON_FIELD + 2 + GROWTH;

fn assert_within(what: &str, len: usize, k: u64, c: u64, spent: u64) {
    let bound = k * len as u64 + c;
    assert!(
        spent <= bound,
        "{what}: {spent} bytes allocated for {len} input bytes (bound {k}·len + {c} = {bound})"
    );
}

// --- inputs ---------------------------------------------------------

/// A tiny service: two one-core tenants, a checkpoint every 10 refs.
fn config(format: JournalFormat) -> ServeConfig {
    let tenants = (0..2)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            workload: "uniform".to_string(),
            kind: DirectoryKind::ALL[i],
            seed: 0xa110 + i as u64,
            cores: 1,
            refs: 60,
            fault: None,
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.checkpoint_interval = 10;
    cfg.format = format;
    cfg
}

/// Bytes `run_serve` allocates resuming `cfg` from `checkpoint`, its
/// journal sink included.
fn resume_cost(cfg: &ServeConfig, checkpoint: &[u8]) -> u64 {
    allocated(|| {
        let mut sink = Vec::new();
        let _ = run_serve(cfg, &uniform_streams, checkpoint, &mut sink);
        sink
    })
}

/// A fresh run's cost: a resume replays the same run, minus the ghost
/// tenants' machines, so this is the input-independent part of `c`.
fn fresh_cost(format: JournalFormat) -> u64 {
    static COST: OnceLock<[u64; 2]> = OnceLock::new();
    let costs = COST.get_or_init(|| {
        JournalFormat::ALL.map(|f| {
            let cfg = config(f);
            resume_cost(&cfg, b"");
            resume_cost(&cfg, b"")
        })
    });
    costs[usize::from(format == JournalFormat::Binary)]
}

/// The journal of a clean run of [`config`].
fn full_journal(format: JournalFormat) -> &'static [u8] {
    static JOURNALS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    let journals = JOURNALS.get_or_init(|| {
        JournalFormat::ALL.map(|f| {
            let mut sink = Vec::new();
            run_serve(&config(f), &uniform_streams, b"", &mut sink).expect("clean run");
            sink
        })
    });
    &journals[usize::from(format == JournalFormat::Binary)]
}

fn check_resume(format: JournalFormat, checkpoint: &[u8]) {
    let k = match format {
        JournalFormat::Jsonl => K_JSONL_RESUME,
        JournalFormat::Binary => K_BINARY_RESUME,
    };
    let spent = resume_cost(&config(format), checkpoint);
    let what = format!("{} resume", format.name());
    assert_within(
        &what,
        checkpoint.len(),
        k,
        fresh_cost(format) + MESSAGE,
        spent,
    );
}

fn check_decode(bytes: &[u8]) {
    let spent = allocated(|| decode_journal(bytes));
    assert_within("decode_journal", bytes.len(), K_DECODE, C_DECODE, spent);
}

fn sweep_cells() -> Vec<CellSpec> {
    SweepMatrix {
        workloads: vec!["a".into(), "b".into()],
        kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        seeds: vec![7],
        cores: 2,
        warmup: 50,
        measure: 200,
    }
    .cells()
}

fn check_sweep(text: &str) {
    let cells = sweep_cells();
    let c = allocated(|| plan_resume(&cells, "")) + MESSAGE;
    let spent = allocated(|| plan_resume(&cells, text));
    assert_within("plan_resume", text.len(), K_SWEEP, c, spent);
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bitwise CRC-32 (IEEE, reflected), the frame checksum.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Appends one correctly framed payload: length, payload, CRC (LE).
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// A header record promising one tenant, and that tenant's spec with
/// `name` (bytes given as they are, length prefix `name_len`).
fn prologue(name_len: u64, name: &[u8]) -> Vec<u8> {
    let mut p = vec![1];
    for _ in 0..11 {
        varint(&mut p, 1);
    }
    p.push(0);
    p.push(2);
    varint(&mut p, name_len);
    p.extend_from_slice(name);
    p.extend_from_slice(&[1, b'w', 0, 0, 1, 1, 0]);
    p
}

/// The binary journal magic.
fn magic() -> Vec<u8> {
    full_journal(JournalFormat::Binary)[..8].to_vec()
}

// --- tests ----------------------------------------------------------

#[test]
fn a_string_prefix_claiming_2_pow_40_bytes_allocates_nothing_for_it() {
    let mut journal = magic();
    frame(&mut journal, &prologue(1 << 40, b"t"));
    let spent = allocated(|| decode_journal(&journal));
    assert!(decode_journal(&journal).is_err());
    assert!(spent <= MESSAGE, "{spent} bytes for a rejected 2^40 prefix");
    check_resume(JournalFormat::Binary, &journal);
}

#[test]
fn the_largest_rendered_record_stays_within_the_bound() {
    // The worst case `K_DECODE` is derived from: every checkpoint, six
    // bytes each, renders the longest name, every byte escaped.
    let name = [1u8; MAX_NAME as usize];
    let mut journal = magic();
    frame(&mut journal, &prologue(MAX_NAME, &name));
    let mut stream = Vec::new();
    for _ in 0..2000 {
        stream.extend_from_slice(&[3, 0, 0, 0, 0, 0]);
    }
    frame(&mut journal, &stream);
    let decoded = decode_journal(&journal).expect("a 255-byte name decodes");
    assert_eq!(decoded.lines.len(), 2002);
    check_decode(&journal);
    // One byte longer and the spec record is rejected, as is a
    // configuration that would write it.
    let long_name = "n".repeat(MAX_NAME as usize + 1);
    let mut long = magic();
    frame(&mut long, &prologue(MAX_NAME + 1, long_name.as_bytes()));
    assert!(decode_journal(&long).is_err());
    let mut cfg = config(JournalFormat::Binary);
    cfg.tenants[0].name = long_name;
    let run = run_serve(&cfg, &uniform_streams, b"", &mut Vec::new());
    assert!(
        matches!(run, Err(ServeError::Config(_))),
        "{:?}",
        run.map(|_| ())
    );
}

#[test]
fn every_cut_of_a_real_journal_resumes_within_the_bound() {
    for format in JournalFormat::ALL {
        let full = full_journal(format);
        for cut in (0..full.len()).step_by(29).chain([full.len()]) {
            check_resume(format, &full[..cut]);
            if format == JournalFormat::Binary {
                check_decode(&full[..cut]);
            }
        }
    }
}

/// Characters weighted towards JSON syntax and the fields serve and
/// sweep records carry, plus arbitrary code points.
fn any_text(max: usize) -> impl Strategy<Value = String> {
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "\"",
        ":",
        ",",
        "\\",
        "\n",
        "0",
        "7",
        "\"tick\"",
        "\"tenant\"",
        "\"t0\"",
        "\"workload\"",
        "\"seed\"",
        "\"status\"",
        "\"x\":1",
    ];
    let piece = prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?').to_string()),
    ];
    prop::collection::vec(piece, 0..max).prop_map(|v| v.concat())
}

/// Mostly small bytes (record tags, indices, short lengths), sometimes
/// any byte.
fn small_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..8, 0u8..8, any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn binary_readers_stay_linear_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        payloads in prop::collection::vec(prop::collection::vec(small_byte(), 1..48), 0..4),
    ) {
        let mut journal = magic();
        journal.extend_from_slice(&bytes);
        // Random records behind valid checksums, after a real prologue.
        let mut framed = magic();
        frame(&mut framed, &prologue(1, b"t"));
        for p in &payloads {
            frame(&mut framed, p);
        }
        for input in [&bytes, &journal, &framed] {
            check_decode(input);
            check_resume(JournalFormat::Binary, input);
        }
    }

    #[test]
    fn text_readers_stay_linear_on_arbitrary_text(text in any_text(96)) {
        let real = std::str::from_utf8(full_journal(JournalFormat::Jsonl)).expect("utf-8");
        let spliced = format!("{}{text}", &real[..real.len() / 2]);
        for input in [&text, &spliced] {
            check_resume(JournalFormat::Jsonl, input.as_bytes());
            check_sweep(input);
        }
    }
}
