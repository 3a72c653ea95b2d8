//! Metric declarations, the run's tally of operations, and the result
//! line.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// One declared metric: its name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["campaign", "solo", "serve-journal", "verify"];

/// Metrics of untraced runs, reported by every workload. What a "job",
/// a "result" and a unit of throughput are on each workload is in
/// `perfbench/README.md`.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", "lower"),
    d("throughput_per_s", "1/s", "higher"),
    d("job_s", "s", "lower"),
    d("result_p50_ms", "ms", "lower"),
    d("peak_rss_mb", "MB", "lower"),
];

/// Metrics of traced runs. A layer the workload does not run reports 0
/// and is named on standard error as not exercised.
pub const PER_LAYER: &[Decl] = &[
    d("workloads.build_s", "s", "lower"),
    d("workloads.ns_per_ref", "ns", "lower"),
    d("machine.new_s", "s", "lower"),
    d("engine.ns_per_access.warm", "ns", "lower"),
    d("engine.ns_per_access.measure", "ns", "lower"),
    d("machine.access_ns.private", "ns", "lower"),
    d("machine.access_ns.dir", "ns", "lower"),
    d("machine.access_ns.vd", "ns", "lower"),
    d("machine.access_ns.memory", "ns", "lower"),
    d("machine.l2_miss_per_kacc", "count/kacc", "lower"),
    d("core.vd.probes_per_kacc", "count/kacc", "lower"),
    d("core.vd.relocations_per_insert", "ratio", "lower"),
    d("oracle.verify_s", "s", "lower"),
    d("sweep.cell_s.p50", "s", "lower"),
    d("sweep.cell_s.max", "s", "lower"),
    d("sweep.imbalance", "ratio", "lower"),
    d("sliced.run_s.t1", "s", "lower"),
    d("sliced.run_s.tN", "s", "lower"),
    d("sliced.speedup", "ratio", "higher"),
    d("serve.ns_per_tick", "ns", "lower"),
    d("serve.run_s.w1", "s", "lower"),
    d("serve.run_s.wN", "s", "lower"),
    d("serve.speedup", "ratio", "higher"),
    d("serve.stall_ratio", "ratio", "lower"),
    d("serve.ticks", "count", "lower"),
    d("serve.done_tick.p50", "tick", "lower"),
    d("serve.done_tick.max", "tick", "lower"),
    d("serve.journal.write_calls", "count", "lower"),
    d("serve.journal.flush_calls", "count", "lower"),
    d("serve.journal.write_s", "s", "lower"),
    d("serve.journal.flush_s", "s", "lower"),
    d("serve.journal.bytes", "B", "lower"),
    d("serve.journal.bytes_per_retired", "B", "lower"),
    d("serve.commit.p50_us", "us", "lower"),
    d("serve.commit.tail_us", "us", "lower"),
    d("serve.commit.tail_pct", "%", "higher"),
    d("serve.commit.samples", "count", "higher"),
    d("serve.resume.s", "s", "lower"),
    d("serve.resume.kept_records", "count", "higher"),
    d("serve.codec.decode_s", "s", "lower"),
    d("serve.codec.decode_mb_per_s", "MB/s", "higher"),
    d("verif.checker.states", "count", "lower"),
    d("verif.checker.transitions", "count", "lower"),
    d("verif.checker.levels", "count", "lower"),
    d("verif.checker.peak_bytes", "B", "lower"),
    d("verif.checker.dup_ratio", "ratio", "lower"),
    d("verif.checker.speedup", "ratio", "higher"),
    d("verif.canon.reduction", "ratio", "higher"),
    d("host.cpu_util", "ratio", "higher"),
    d("host.vcsw_per_kacc", "count/kacc", "lower"),
    d("host.nivcsw_per_kacc", "count/kacc", "lower"),
    d("host.vcsw_per_tick", "count/tick", "lower"),
    d("trace.overhead", "ratio", "lower"),
    d("trace.replay_overhead", "ratio", "lower"),
];

fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `name` is a valid metric name (`[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters).
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    absent: BTreeMap<&'static str, String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records a measured value. An undeclared name or a value that is
    /// not a finite number is a defect of the benchmark and counts as a
    /// failed check.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if decl(name).is_none() {
            self.check(false, || format!("metric `{name}` is not declared"));
        } else if !value.is_finite() {
            self.check(false, || format!("metric `{name}` is {value}"));
        } else {
            self.values.insert(name, value);
        }
    }

    /// Records a metric the host cannot provide (no `/proc`).
    pub fn absent(&mut self, name: &'static str, why: &str) {
        self.absent.insert(name, why.to_string());
    }

    /// Counts one operation (a cell, tenant, window or correctness
    /// check); a failed one is noted with `what`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
        ok
    }

    /// Counts `n` operations of which `failed` failed, noting `what` if
    /// any did.
    pub fn check_many(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("FAILED: {failed} of {n} {}", what()));
        }
    }

    /// Adds a line to the human-readable summary on standard error.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Writes the summary to standard error and returns the result line:
    /// every end-to-end metric when untraced, every per-layer metric when
    /// traced.
    pub fn finish(mut self, traced: bool) -> String {
        let decls = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for d in decls {
            let value = match (self.values.get(d.name), self.absent.get(d.name)) {
                (Some(&v), _) => v,
                (None, Some(why)) => {
                    self.notes.push(format!("absent: {} ({why})", d.name));
                    continue;
                }
                (None, None) if traced => {
                    self.notes
                        .push(format!("not exercised by this workload: {}", d.name));
                    0.0
                }
                (None, None) => {
                    self.check(false, || format!("end-to-end metric `{}` missing", d.name));
                    continue;
                }
            };
            metrics.push(format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                d.name, d.unit
            ));
        }
        for line in &self.notes {
            eprintln!("perfbench: {line}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Checks that `BENCHMARK.json` declares exactly the workloads and
/// metrics (name, unit, direction) this program reports, in the same
/// order.
pub fn check_declarations(benchmark_json: &str) -> Result<(), String> {
    let doc = json::parse(benchmark_json)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`{key}` is not an array"))
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks string `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    if workloads != WORKLOADS {
        return Err(format!("workloads {workloads:?} differ from {WORKLOADS:?}"));
    }
    for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = list(key)?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?, field(m, "better")?)))
            .collect::<Result<Vec<_>, String>>()?;
        if let Some((bad, _, _)) = declared.iter().find(|(n, _, _)| !valid_name(n)) {
            return Err(format!("`{bad}` is not a valid metric name"));
        }
        let ours: Vec<_> = decls
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        if declared != ours {
            let extra: Vec<_> = declared.iter().filter(|m| !ours.contains(m)).collect();
            let missing: Vec<_> = ours.iter().filter(|m| !declared.contains(m)).collect();
            return Err(format!(
                "`{key}` differs: only in BENCHMARK.json {extra:?}, only in the program {missing:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert_eq!(all.iter().filter(|e| e.name == d.name).count(), 1);
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        check_declarations(include_str!("../../BENCHMARK.json")).unwrap();
    }

    #[test]
    fn declaration_check_catches_a_missing_metric() {
        let text = include_str!("../../BENCHMARK.json").replace("\"job_s\"", "\"job_ms\"");
        assert!(check_declarations(&text).is_err());
    }

    #[test]
    fn result_line_holds_every_declared_metric() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.check(true, String::new);
        let line = r.finish(false);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        let names: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn undeclared_or_non_finite_values_fail_the_run() {
        let mut r = Report::default();
        r.set("no.such.metric", 1.0);
        r.set("setup_s", f64::NAN);
        assert_eq!(r.failed, 2);
        assert!(!r.values.contains_key("setup_s"));
    }
}
