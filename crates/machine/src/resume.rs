//! Checkpoint/resume for interrupted sweeps (`secdir-sim sweep --resume`).
//!
//! A sweep's JSONL output doubles as its checkpoint: every record is
//! flushed as soon as its cell completes, so a killed run leaves a prefix
//! of complete lines plus at most one truncated tail line. This module
//! validates such a file against the sweep matrix and plans the minimal
//! continuation:
//!
//! * complete success records are **kept verbatim** (the simulator is
//!   deterministic, so re-running them would reproduce the same bytes);
//! * failure records (`{"status":...}`) and cells with no record are
//!   **re-run**;
//! * a malformed *final* line is recovered as a truncated tail (dropped
//!   and re-run); a malformed line anywhere else is corruption and a hard
//!   error, as are records for unknown cells, duplicate records, and
//!   records whose cell parameters disagree with the matrix.
//!
//! Merging the kept lines with the fresh results ([`ResumePlan::merge`])
//! yields output byte-identical to an uninterrupted run (asserted by
//! `tests/determinism.rs`).
//!
//! Parsing is intentionally shallow: resume only needs the cell-identity
//! prefix every record shape shares (see EXPERIMENTS.md), read through
//! the string-aware top-level scanner in [`secdir_mem::json`]. Keys and
//! values inside string literals or nested objects/arrays are never
//! mistaken for identity fields — a `"panicked"` record whose free-text
//! `msg` embeds JSON-shaped text (`","workload":"x"`, `"seed":999`,
//! stray braces) parses to exactly the cell that failed — and a line cut
//! mid-record cannot complete the scan, which is what distinguishes a
//! truncated tail from corruption.

use std::collections::HashMap;

use secdir_mem::json;

use crate::sweep::{CellOutcome, CellSpec};

/// The cell-identity prefix shared by every sweep record shape.
#[derive(Debug)]
struct ParsedRecord {
    status: Option<String>,
    workload: String,
    directory: String,
    seed: u64,
    cores: u64,
    warmup: u64,
    measure: u64,
}

/// Parses one JSONL line into its cell-identity prefix, or `None` when
/// the line is malformed/truncated. Only **top-level** fields count:
/// JSON-shaped text inside a failure record's `msg` string, or the
/// nested `summary`/`stats` objects of a success record, can never
/// supply or shadow an identity field.
fn parse_record(line: &str) -> Option<ParsedRecord> {
    let fields = json::scan_top_level(line)?;
    Some(ParsedRecord {
        status: fields.str("status").map(str::to_string),
        workload: fields.str("workload")?.to_string(),
        directory: fields.str("directory")?.to_string(),
        seed: fields.num("seed")?,
        cores: fields.num("cores")?,
        warmup: fields.num("warmup")?,
        measure: fields.num("measure")?,
    })
}

/// The validated continuation plan for a sweep checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumePlan {
    /// Per cell (matrix order): the verbatim kept line, or `None` when
    /// the cell must be re-run.
    pub kept: Vec<Option<String>>,
    /// Indices (matrix order) of the cells to re-run: failed, missing,
    /// or truncated records.
    pub rerun: Vec<usize>,
    /// Whether a truncated final line was dropped during validation.
    pub recovered_truncation: bool,
}

impl ResumePlan {
    /// Whether the checkpoint already covers the whole matrix.
    pub fn is_complete(&self) -> bool {
        self.rerun.is_empty()
    }

    /// Merges the kept lines with `fresh` outcomes (one per [`rerun`]
    /// index, in order) into the full JSONL line sequence, matrix order.
    ///
    /// [`rerun`]: ResumePlan::rerun
    ///
    /// # Panics
    ///
    /// Panics if `fresh.len() != self.rerun.len()`.
    pub fn merge(&self, fresh: &[CellOutcome]) -> Vec<String> {
        assert_eq!(
            fresh.len(),
            self.rerun.len(),
            "one fresh outcome per re-run cell"
        );
        let by_index: HashMap<usize, &CellOutcome> =
            self.rerun.iter().copied().zip(fresh.iter()).collect();
        self.kept
            .iter()
            .enumerate()
            .map(|(i, kept)| match kept {
                Some(line) => line.clone(),
                None => by_index[&i].to_json_line(),
            })
            .collect()
    }
}

/// Validates checkpoint `text` against the matrix `cells` and plans the
/// continuation.
///
/// # Errors
///
/// Returns a message naming the first offending line for: a malformed
/// non-final line (interleaved garbage), a record whose cell is not in
/// the matrix, a second record for an already-seen cell, or a record
/// whose `cores`/`warmup`/`measure` disagree with the matrix.
pub fn plan_resume(cells: &[CellSpec], text: &str) -> Result<ResumePlan, String> {
    let index: HashMap<(&str, &str, u64), usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.workload.as_str(), c.kind.name(), c.seed), i))
        .collect();
    let mut kept: Vec<Option<String>> = vec![None; cells.len()];
    let mut seen = vec![false; cells.len()];
    let mut recovered_truncation = false;
    let lines: Vec<&str> = text.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        let lineno = n + 1;
        let Some(rec) = parse_record(line) else {
            if n + 1 == lines.len() {
                // A cut-off tail is the expected shape of a killed run:
                // drop it, its cell simply re-runs.
                recovered_truncation = true;
                break;
            }
            return Err(format!(
                "line {lineno}: malformed record before end of file (interleaved garbage?)"
            ));
        };
        let key = (rec.workload.as_str(), rec.directory.as_str(), rec.seed);
        let Some(&i) = index.get(&key) else {
            return Err(format!(
                "line {lineno}: cell `{}` × `{}` × seed {} is not in the sweep matrix",
                rec.workload, rec.directory, rec.seed
            ));
        };
        if seen[i] {
            return Err(format!(
                "line {lineno}: duplicate record for cell `{}` × `{}` × seed {}",
                rec.workload, rec.directory, rec.seed
            ));
        }
        seen[i] = true;
        let c = &cells[i];
        if rec.cores != c.cores as u64 || rec.warmup != c.warmup || rec.measure != c.measure {
            return Err(format!(
                "line {lineno}: cell `{}` parameter mismatch: file has \
                 cores={} warmup={} measure={}, matrix has cores={} warmup={} measure={}",
                rec.workload, rec.cores, rec.warmup, rec.measure, c.cores, c.warmup, c.measure
            ));
        }
        // Success records are kept verbatim; failure records re-run.
        if rec.status.is_none() {
            kept[i] = Some((*line).to_string());
        }
    }
    let rerun = (0..cells.len()).filter(|&i| kept[i].is_none()).collect();
    Ok(ResumePlan {
        kept,
        rerun,
        recovered_truncation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_matrix, write_outcomes_jsonl, SweepMatrix, SweepOptions};
    use crate::{Access, AccessStream, DirectoryKind};
    use secdir_mem::LineAddr;

    fn factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        (0..cell.cores)
            .map(|c| {
                let base = (c as u64 + 1) << 20;
                let seed = cell.seed;
                Box::new((0..10_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                })) as Box<dyn AccessStream>
            })
            .collect()
    }

    fn matrix() -> SweepMatrix {
        SweepMatrix {
            workloads: vec!["a".into(), "b".into()],
            kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
            seeds: vec![1, 2],
            cores: 2,
            warmup: 50,
            measure: 200,
        }
    }

    fn full_output(cells: &[CellSpec]) -> String {
        let outcomes = run_matrix(cells, &factory, &SweepOptions::new(2));
        let mut buf = Vec::new();
        write_outcomes_jsonl(&mut buf, &outcomes).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn complete_checkpoint_keeps_everything() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let plan = plan_resume(&cells, &text).unwrap();
        assert!(plan.is_complete());
        assert!(!plan.recovered_truncation);
        assert!(plan.kept.iter().all(Option::is_some));
    }

    #[test]
    fn truncated_tail_is_recovered() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        // Keep three complete lines and half of the fourth.
        let lines: Vec<&str> = text.lines().collect();
        let half = &lines[3][..lines[3].len() / 2];
        let cut = format!("{}\n{}\n{}\n{half}", lines[0], lines[1], lines[2]);
        let plan = plan_resume(&cells, &cut).unwrap();
        assert!(plan.recovered_truncation);
        assert_eq!(plan.rerun, (3..cells.len()).collect::<Vec<_>>());
        assert!(plan.kept[..3].iter().all(Option::is_some));
    }

    #[test]
    fn interleaved_garbage_is_a_hard_error() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let lines: Vec<&str> = text.lines().collect();
        let garbled = format!("{}\nnot json at all\n{}\n", lines[0], lines[1]);
        let err = plan_resume(&cells, &garbled).unwrap_err();
        assert!(err.contains("line 2"), "err={err}");
        assert!(err.contains("malformed"), "err={err}");
    }

    #[test]
    fn duplicate_cell_is_a_hard_error() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let first = text.lines().next().unwrap();
        let doubled = format!("{first}\n{first}\n");
        let err = plan_resume(&cells, &doubled).unwrap_err();
        assert!(err.contains("line 2"), "err={err}");
        assert!(err.contains("duplicate"), "err={err}");
    }

    #[test]
    fn unknown_cell_is_a_hard_error() {
        let cells = matrix().cells();
        let stray = "{\"workload\":\"zzz\",\"directory\":\"baseline\",\"seed\":1,\
                     \"cores\":2,\"warmup\":50,\"measure\":200}\n";
        let err = plan_resume(&cells, stray).unwrap_err();
        assert!(err.contains("not in the sweep matrix"), "err={err}");
    }

    #[test]
    fn parameter_mismatch_is_a_hard_error() {
        let cells = matrix().cells();
        let wrong = "{\"workload\":\"a\",\"directory\":\"baseline\",\"seed\":1,\
                     \"cores\":2,\"warmup\":50,\"measure\":999}\n";
        let err = plan_resume(&cells, wrong).unwrap_err();
        assert!(err.contains("parameter mismatch"), "err={err}");
    }

    #[test]
    fn failure_records_are_rerun() {
        let cells = matrix().cells();
        let failed = "{\"status\":\"panicked\",\"workload\":\"a\",\
                      \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
                      \"warmup\":50,\"measure\":200,\"msg\":\"boom\"}\n";
        let plan = plan_resume(&cells, failed).unwrap();
        assert_eq!(plan.rerun, (0..cells.len()).collect::<Vec<_>>());
        assert!(plan.kept.iter().all(Option::is_none));
    }

    #[test]
    fn msg_embedding_json_shaped_text_parses_to_the_real_cell() {
        let cells = matrix().cells();
        // The panic message embeds a full fake identity — quotes, braces,
        // a different workload, and `"seed":999`. The raw-substring parser
        // this replaced would have matched the fake fields; the top-level
        // scanner must see only the real ones.
        let msg = "boom: {\\\"workload\\\":\\\"zzz\\\",\\\"seed\\\":999} \
                   \\\"measure\\\":7 unbalanced {{{ [";
        let failed = format!(
            "{{\"status\":\"panicked\",\"workload\":\"a\",\
             \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
             \"warmup\":50,\"measure\":200,\"msg\":\"{msg}\"}}\n"
        );
        let plan = plan_resume(&cells, &failed).unwrap();
        assert!(!plan.recovered_truncation, "record is complete, not a tail");
        assert_eq!(plan.rerun, (0..cells.len()).collect::<Vec<_>>());
    }

    #[test]
    fn braces_inside_strings_do_not_break_completeness() {
        // Legit record whose msg holds unbalanced brackets: the old
        // char-count balance check would have called this truncated.
        let line = "{\"status\":\"panicked\",\"workload\":\"a\",\
                    \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
                    \"warmup\":50,\"measure\":200,\"msg\":\"} ] } {\"}";
        let cells = matrix().cells();
        let doubled = format!("{line}\n{line}\n");
        // Both lines parse (to the same cell) — proven by the *duplicate*
        // error, which only fires for two successfully parsed records.
        let err = plan_resume(&cells, &doubled).unwrap_err();
        assert!(err.contains("duplicate"), "err={err}");
    }

    #[test]
    fn identity_fields_inside_nested_objects_do_not_count() {
        // All identity fields hidden one level down: not a valid record.
        let nested = "{\"wrap\":{\"workload\":\"a\",\"directory\":\"baseline\",\
                      \"seed\":1,\"cores\":2,\"warmup\":50,\"measure\":200}}";
        let cells = matrix().cells();
        let text = format!("{nested}\nx\n");
        // Line 1 must be rejected as malformed (it is complete JSON but
        // lacks top-level identity), not matched to a cell.
        let err = plan_resume(&cells, &text).unwrap_err();
        assert!(err.contains("line 1"), "err={err}");
    }

    #[test]
    fn merge_reconstructs_the_full_output() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let lines: Vec<&str> = text.lines().collect();
        // Simulate a run killed after two cells.
        let partial = format!("{}\n{}\n", lines[0], lines[1]);
        let plan = plan_resume(&cells, &partial).unwrap();
        assert_eq!(plan.rerun, (2..cells.len()).collect::<Vec<_>>());
        let fresh: Vec<CellOutcome> = plan
            .rerun
            .iter()
            .map(|&i| run_matrix(&cells[i..=i], &factory, &SweepOptions::new(1)).remove(0))
            .collect();
        let merged = plan.merge(&fresh).join("\n") + "\n";
        assert_eq!(merged, text, "resumed output must be byte-identical");
    }
}
