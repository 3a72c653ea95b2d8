//! Host counters read from `/proc/self`, standard library only.
//!
//! CPU time comes from `/proc/self/stat`, which sums every thread of the
//! process, live or exited. Context switches come from
//! `/proc/self/status`, which counts the main thread only: the thread
//! that drives the sliced epoch loop and the serve tick loop, and so
//! waits at every one of their barriers. Each reader returns `None`
//! when `/proc` is missing, so a counter is reported absent, never 0.

use std::fs;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 in the Linux user-space ABI).
const CLK_TCK: f64 = 100.0;

/// One reading of the process's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snap {
    /// User plus system CPU seconds over all threads.
    pub cpu_s: f64,
    /// Voluntary context switches of the main thread.
    pub vcsw: u64,
    /// Involuntary context switches of the main thread.
    pub nivcsw: u64,
}

/// Reads the current counters.
pub fn snap() -> Option<Snap> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let (utime, stime) = cpu_ticks(&stat)?;
    Some(Snap {
        cpu_s: (utime + stime) as f64 / CLK_TCK,
        vcsw: status_field(&status, "voluntary_ctxt_switches")?,
        nivcsw: status_field(&status, "nonvoluntary_ctxt_switches")?,
    })
}

/// Runs `f`, returning its result and the counters' change over it.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Option<Snap>) {
    let before = snap();
    let out = f();
    let delta = before.zip(snap()).map(|(b, a)| Snap {
        cpu_s: a.cpu_s - b.cpu_s,
        vcsw: a.vcsw - b.vcsw,
        nivcsw: a.nivcsw - b.nivcsw,
    });
    (out, delta)
}

/// Adds a window's change to a running total; the total is absent once
/// any window's is.
pub fn add(total: Option<Snap>, d: Option<Snap>) -> Option<Snap> {
    let (t, d) = (total?, d?);
    Some(Snap {
        cpu_s: t.cpu_s + d.cpu_s,
        vcsw: t.vcsw + d.vcsw,
        nivcsw: t.nivcsw + d.nivcsw,
    })
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(status_field(&status, "VmHWM")? as f64 / 1024.0)
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name in field 2 may hold spaces and parentheses, so the
/// fields are counted from the last `)`.
fn cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The leading number of a `Key:\tvalue [unit]` line of
/// `/proc/<pid>/status`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat = "42 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20";
        assert_eq!(cpu_ticks(stat), Some((250, 17)));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }
}
