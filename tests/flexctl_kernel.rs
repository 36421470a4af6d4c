//! Integration tests for `flexctl --kernel`: the columnar and scalar
//! kernels must serialise byte-identically on every surface that accepts
//! the flag (measure, simulate), `auto` must match both, and the
//! documented error paths (missing value, unknown kernel) must be
//! rejected with named messages.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn flexctl(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexctl"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    } else {
        cmd.stdin(Stdio::null());
    }
    let mut child = cmd.spawn().expect("flexctl spawns");
    if let Some(input) = stdin {
        // The child may exit before draining stdin (flag errors are
        // rejected before any input is read), so a broken pipe is fine.
        let _ = child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes());
    }
    child.wait_with_output().expect("flexctl terminates")
}

fn stdout_of(args: &[&str], stdin: Option<&str>) -> String {
    let out = flexctl(args, stdin);
    assert!(
        out.status.success(),
        "flexctl {args:?} exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

fn stderr_of_failure(args: &[&str], stdin: Option<&str>) -> String {
    let out = flexctl(args, stdin);
    assert!(!out.status.success(), "flexctl {args:?} must fail");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `city(seed 7, 2956 households)` is 10 003 offers — the 10k scale the
/// engine pipelines are sized for.
const CITY_10K: &str = "2956";

#[test]
fn kernel_choice_never_changes_a_measure_output_byte_at_10k_offers() {
    let scalar = stdout_of(
        &[
            "measure",
            "--portfolio",
            "--city",
            CITY_10K,
            "--kernel",
            "scalar",
            "--json",
        ],
        None,
    );
    assert!(
        scalar.contains("\"offers\": 10003"),
        "city sizing drifted:\n{scalar}"
    );
    for kernel in ["columnar", "auto"] {
        let candidate = stdout_of(
            &[
                "measure",
                "--portfolio",
                "--city",
                CITY_10K,
                "--kernel",
                kernel,
                "--json",
            ],
            None,
        );
        assert_eq!(
            scalar, candidate,
            "--kernel {kernel} must not change a single output byte"
        );
    }
    // The default (no flag) is auto, so it must match too.
    let default = stdout_of(
        &["measure", "--portfolio", "--city", CITY_10K, "--json"],
        None,
    );
    assert_eq!(scalar, default);
}

#[test]
fn kernel_choice_composes_with_threads() {
    let scalar = stdout_of(
        &[
            "measure",
            "--portfolio",
            "--city",
            CITY_10K,
            "--kernel",
            "scalar",
            "--json",
        ],
        None,
    );
    let columnar_threaded = stdout_of(
        &[
            "measure",
            "--portfolio",
            "--city",
            CITY_10K,
            "--kernel",
            "columnar",
            "--threads",
            "2",
            "--json",
        ],
        None,
    );
    assert_eq!(scalar, columnar_threaded);
}

#[test]
fn kernel_choice_never_changes_a_simulate_output_byte() {
    for scenario in ["schedule", "market"] {
        let scalar = stdout_of(
            &[
                "simulate",
                "--scenario",
                scenario,
                "--households",
                "300",
                "--kernel",
                "scalar",
                "--json",
            ],
            None,
        );
        let columnar = stdout_of(
            &[
                "simulate",
                "--scenario",
                scenario,
                "--households",
                "300",
                "--kernel",
                "columnar",
                "--json",
            ],
            None,
        );
        assert_eq!(
            scalar, columnar,
            "{scenario}: --kernel columnar must not change a single output byte"
        );
    }
}

#[test]
fn kernel_flag_works_on_file_input() {
    let template = stdout_of(&["template", "--portfolio"], None);
    let scalar = stdout_of(
        &[
            "measure",
            "--portfolio",
            "-",
            "--kernel",
            "scalar",
            "--json",
        ],
        Some(&template),
    );
    let columnar = stdout_of(
        &[
            "measure",
            "--portfolio",
            "-",
            "--kernel",
            "columnar",
            "--json",
        ],
        Some(&template),
    );
    assert_eq!(scalar, columnar);
}

#[test]
fn unknown_kernel_is_rejected() {
    let stderr = stderr_of_failure(
        &["measure", "--portfolio", "--city", "10", "--kernel", "simd"],
        None,
    );
    assert!(
        stderr.contains("unknown kernel simd"),
        "stderr names the problem: {stderr}"
    );
    assert!(
        stderr.contains("scalar, columnar or auto"),
        "stderr lists the choices: {stderr}"
    );
}

#[test]
fn kernel_without_value_is_rejected() {
    let stderr = stderr_of_failure(
        &["measure", "--portfolio", "--city", "10", "--kernel"],
        None,
    );
    assert!(
        stderr.contains("--kernel needs a value"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(&["simulate", "--scenario", "market", "--kernel"], None);
    assert!(
        stderr.contains("--kernel needs a value"),
        "stderr: {stderr}"
    );
}
