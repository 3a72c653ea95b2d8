//! Pins the `secdir-sim` command-line surface: the top-level usage, every
//! subcommand's `--help` text and flag list, and the unknown-command and
//! unknown-flag errors, each with its stdout, stderr and exit code.
//!
//! The transcript is compared with `tests/golden/cli_usage.txt` byte for
//! byte. A change to a flag, a usage line or an exit code shows up as a
//! golden diff; edit the golden file by hand together with the CLI change
//! and review it like any other code change.

use std::process::Command;

/// Every `secdir-sim` subcommand.
const COMMANDS: [&str; 13] = [
    "attack", "spec", "parsec", "aes", "design", "trace", "sweep", "serve", "decode", "perf",
    "inject", "verif", "lint",
];

/// One invocation as `$ command`, its exit code, stdout and stderr.
fn transcript(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_secdir-sim"))
        .args(args)
        .output()
        .expect("run secdir-sim");
    let code = out
        .status
        .code()
        .map_or_else(|| "signal".to_string(), |c| c.to_string());
    let mut text = String::from("$ secdir-sim");
    for a in args {
        text.push(' ');
        text.push_str(a);
    }
    text.push_str(&format!("\nexit: {code}\n--- stdout\n"));
    text.push_str(&String::from_utf8_lossy(&out.stdout));
    text.push_str("--- stderr\n");
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    text.push('\n');
    text
}

#[test]
fn usage_text_and_exit_codes_match_the_golden() {
    let mut cases: Vec<Vec<&str>> = vec![vec![], vec!["frobnicate"]];
    for cmd in COMMANDS {
        cases.push(vec![cmd, "--help"]);
        cases.push(vec![cmd, "--frobnicate"]);
    }
    let actual: String = cases.iter().map(|args| transcript(args)).collect();
    let expected = include_str!("golden/cli_usage.txt");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "cli_usage.txt line {} differs", n + 1);
    }
    assert_eq!(actual, expected, "cli_usage.txt differs in length");
}
