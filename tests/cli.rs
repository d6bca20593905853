//! Integration tests for the `meda` command-line tool, driving the real
//! binary.

use std::process::Command;

fn meda(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_meda"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn no_arguments_prints_usage() {
    let (stdout, _, ok) = meda(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("meda run"));
}

#[test]
fn list_shows_all_six_benchmarks() {
    let (stdout, _, ok) = meda(&["list"]);
    assert!(ok);
    for name in [
        "master-mix",
        "covid-rat",
        "cep",
        "covid-pcr",
        "nuip",
        "serial-dilution",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn plan_reproduces_rj_rows() {
    let (stdout, _, ok) = meda(&["plan", "covid-rat"]);
    assert!(ok);
    assert!(stdout.contains("RJ1.0"));
    assert!(stdout.contains("dis"));
    assert!(stdout.contains("mag"));
}

#[test]
fn run_is_seed_deterministic() {
    let (a, _, ok_a) = meda(&["run", "master-mix", "--seed", "5", "--router", "baseline"]);
    let (b, _, ok_b) = meda(&["run", "master-mix", "--seed", "5", "--router", "baseline"]);
    assert!(ok_a && ok_b);
    assert_eq!(a, b);
    assert!(a.contains("Success"));
}

#[test]
fn fleet_wider_than_any_plan_runs_without_panicking() {
    let n = u64::MAX.to_string();
    let (_, stderr, ok) = meda(&["fleet", "master-mix", "--n", &n, "--k-max", "50"]);
    assert!(ok, "meda fleet --n {n} failed:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn synth_prints_model_and_path() {
    let (stdout, _, ok) = meda(&[
        "synth",
        "--area",
        "12x8",
        "--droplet",
        "3x3",
        "--force",
        "0.8",
    ]);
    assert!(ok);
    assert!(stdout.contains("states"));
    assert!(stdout.contains("nominal path"));
}

#[test]
fn export_prism_emits_three_sections() {
    let (stdout, _, ok) = meda(&["export-prism", "covid-rat", "0"]);
    assert!(ok);
    assert!(stdout.contains(".sta =="));
    assert!(stdout.contains(".tra =="));
    assert!(stdout.contains(".lab =="));
    assert!(stdout.contains("(xa,ya,xb,yb)"));
}

#[test]
fn unknown_assay_fails_with_message() {
    let (_, stderr, ok) = meda(&["plan", "no-such-assay"]);
    assert!(!ok);
    assert!(stderr.contains("unknown assay"));
}

#[test]
fn bad_flag_values_fail_cleanly() {
    let (_, stderr, ok) = meda(&["run", "cep", "--seed", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("bad seed"));
    let (_, stderr, ok) = meda(&["synth", "--droplet", "20x20", "--area", "10x10"]);
    assert!(!ok);
    assert!(stderr.contains("smaller than the area"));
}

/// Runs `meda args` with `input` on stdin, reads one line of its output,
/// closes the pipe and asserts the command ended quietly with success.
/// The output must far exceed any pipe buffer, so that some write
/// certainly lands after the close. Returns the line read.
fn first_line_then_close(args: &[&str], input: Vec<u8>) -> String {
    use std::io::{BufRead, Write};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_meda"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A writer thread, so a child blocked on a full stdout pipe cannot
    // deadlock against a test blocked on a full stdin pipe.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let feeder = std::thread::spawn(move || {
        // The child may stop reading once its stdout is closed.
        let _ = stdin.write_all(&input);
    });
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        std::io::BufReader::new(stdout)
            .read_line(&mut first)
            .expect("first line");
    }
    let output = child.wait_with_output().expect("binary exits");
    feeder.join().expect("stdin feeder");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert!(
        output.status.success(),
        "{args:?}: status {:?}: {stderr}",
        output.status
    );
    first
}

/// A reader that stops early (`meda ... | head -1`) closes the pipe under
/// the writer. The command must end quietly with success, not panic on
/// the next print (the PRISM export is about 1 MB) or fail the request
/// stream (1,000 replies of about 200 bytes).
#[test]
fn a_closed_stdout_pipe_ends_the_command_quietly() {
    let first = first_line_then_close(&["export-prism", "covid-rat", "0"], Vec::new());
    assert!(first.starts_with("== "), "first line: {first:?}");

    let requests = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scripts/serve_smoke_requests.jsonl"
    ))
    .expect("request fixture");
    let cache = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-closed-pipe-cache");
    let first = first_line_then_close(
        &["serve", "--cache-dir", cache.to_str().expect("utf-8 path")],
        requests.repeat(200),
    );
    assert!(
        first.contains("\"status\":\"ok\""),
        "first reply: {first:?}"
    );
}
