//! Totality of the journal and checkpoint readers on arbitrary input:
//! the sweep resume planner on arbitrary text and the binary journal
//! decoder on arbitrary bytes must return `Ok` or `Err` — never panic.
//!
//! The existing codec and resume suites mutate *valid* inputs (prefix
//! cuts, bit flips); these draw inputs with no valid structure at all,
//! plus correctly framed binary payloads of random bytes, so the record
//! decoder behind the frame checksum sees arbitrary content too.

use std::sync::OnceLock;

use proptest::prelude::*;
use secdir_machine::resume::plan_resume;
use secdir_machine::serve::{decode_journal, run_serve, uniform_streams, JournalFormat};
use secdir_machine::serve::{ServeConfig, TenantSpec};
use secdir_machine::sweep::SweepMatrix;
use secdir_machine::DirectoryKind;

/// Characters weighted towards JSON syntax and the identity fields a
/// sweep record carries, plus arbitrary code points.
fn any_text(max: usize) -> impl Strategy<Value = String> {
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        "\\",
        "\n",
        "0",
        "7",
        "-",
        "\"workload\"",
        "\"a\"",
        "\"seed\"",
        "\"status\"",
    ];
    let piece = prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?').to_string()),
    ];
    prop::collection::vec(piece, 0..max).prop_map(|v| v.concat())
}

fn matrix() -> SweepMatrix {
    SweepMatrix {
        workloads: vec!["a".into()],
        kinds: vec![DirectoryKind::Baseline],
        seeds: vec![7],
        cores: 2,
        warmup: 0,
        measure: 0,
    }
}

/// A real one-tenant binary journal.
fn tiny_journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let spec = TenantSpec {
            name: "t".to_string(),
            workload: "uniform".to_string(),
            kind: DirectoryKind::Baseline,
            seed: 1,
            cores: 1,
            refs: 1,
            fault: None,
        };
        let mut cfg = ServeConfig::new(vec![spec]);
        cfg.format = JournalFormat::Binary;
        let mut sink = Vec::new();
        run_serve(&cfg, &uniform_streams, &[], &mut sink).expect("tiny serve run");
        sink
    })
}

/// The 8-byte binary journal magic.
fn magic() -> Vec<u8> {
    tiny_journal()[..8].to_vec()
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

/// One correctly framed payload: LEB128 length, payload, CRC (LE).
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    let mut len = payload.len() as u64;
    loop {
        let byte = (len & 0x7f) as u8;
        len >>= 7;
        if len == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn plan_resume_is_total_on_arbitrary_text(text in any_text(64)) {
        let cells = matrix().cells();
        let _ = plan_resume(&cells, &text);
        let _ = plan_resume(&cells, &format!("{text}\n{text}"));
    }

    #[test]
    fn decode_journal_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        payloads in prop::collection::vec(prop::collection::vec(small_byte(), 1..24), 0..4),
    ) {
        let _ = decode_journal(&bytes);
        let mut journal = magic();
        journal.extend_from_slice(&bytes);
        let _ = decode_journal(&journal);
        // Random records behind valid checksums, both as the first frame
        // and after the real header/spec frame.
        for mut framed in [magic(), first_frame_parts().0] {
            for p in &payloads {
                frame(&mut framed, p);
            }
            let _ = decode_journal(&framed);
        }
    }
}

/// Mostly small bytes (record tags, indices, short lengths), sometimes
/// any byte.
fn small_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..8, 0u8..8, any::<u8>()]
}

/// The magic plus the journal's first frame (header and spec records),
/// and that frame's payload range.
fn first_frame_parts() -> (Vec<u8>, std::ops::Range<usize>) {
    let journal = tiny_journal();
    let (mut len, mut off, mut shift) = (0usize, 8usize, 0u32);
    loop {
        let b = journal[off];
        off += 1;
        len |= usize::from(b & 0x7f) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            break;
        }
    }
    (journal[..off + len + 4].to_vec(), off..off + len)
}

#[test]
fn framing_helper_matches_the_writer() {
    // Re-framing the first frame's payload must reproduce the writer's
    // bytes; otherwise the framed proptest arm would only ever exercise
    // the checksum rejection.
    let (want, payload) = first_frame_parts();
    let mut framed = magic();
    frame(&mut framed, &tiny_journal()[payload]);
    assert_eq!(framed, want);
    assert_eq!(decode_journal(&want).expect("first frame").lines.len(), 2);
}
