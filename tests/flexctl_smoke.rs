//! Smoke test for the `flexctl` binary: the documented
//! `flexctl template | flexctl measure -` pipeline works end to end and
//! reports every one of the paper's eight measures, `flexctl render -`
//! draws the figure, and `flexctl --help` prints the usage.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const ALL_EIGHT_MEASURES: [&str; 8] = [
    "Time",
    "Energy",
    "Product",
    "Vector",
    "Time-series",
    "Assignments",
    "Abs. Area",
    "Rel. Area",
];

fn flexctl(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexctl"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("flexctl spawns");
    if let Some(input) = stdin {
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin accepts input");
    }
    child.wait_with_output().expect("flexctl terminates")
}

fn template_json() -> String {
    let out = flexctl(&["template"], None);
    assert!(out.status.success(), "flexctl template exits 0");
    String::from_utf8(out.stdout).expect("template output is UTF-8")
}

#[test]
fn template_piped_through_measure_prints_all_eight_measures() {
    let template = template_json();
    let out = flexctl(&["measure", "-"], Some(&template));
    assert!(
        out.status.success(),
        "flexctl measure - exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("measure output is UTF-8");
    for name in ALL_EIGHT_MEASURES {
        assert!(
            stdout.contains(name),
            "measure output missing {name:?}:\n{stdout}"
        );
    }
}

#[test]
fn template_piped_through_render_draws_the_figure() {
    let template = template_json();
    let out = flexctl(&["render", "-"], Some(&template));
    assert!(
        out.status.success(),
        "flexctl render - exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("render output is UTF-8");
    assert!(
        stdout.contains("start window") && stdout.contains("union area"),
        "render output shows the profile and the union area:\n{stdout}"
    );
}

#[test]
fn names_lists_a_slug_for_every_measure() {
    let out = flexctl(&["names"], None);
    assert!(out.status.success(), "flexctl names exits 0");
    let stdout = String::from_utf8(out.stdout).expect("names output is UTF-8");
    for slug in [
        "time",
        "energy",
        "product",
        "vector",
        "series",
        "assignments",
        "abs-area",
        "rel-area",
    ] {
        assert!(
            stdout.lines().any(|l| l == slug),
            "names output missing {slug:?}:\n{stdout}"
        );
    }
}

#[test]
fn measure_rejects_unknown_measure_names() {
    let template = template_json();
    let out = flexctl(&["measure", "-", "no-such-measure"], Some(&template));
    assert!(!out.status.success(), "unknown measure name is an error");
}

#[test]
fn count_reports_both_assignment_space_sizes() {
    let template = template_json();
    let out = flexctl(&["count", "-"], Some(&template));
    assert!(out.status.success(), "flexctl count - exits 0");
    let stdout = String::from_utf8(out.stdout).expect("count output is UTF-8");
    assert!(stdout.contains("unconstrained assignments"));
    assert!(stdout.contains("valid assignments"));
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h", "help"] {
        let out = flexctl(&[flag], None);
        assert!(out.status.success(), "flexctl {flag} exits 0");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8");
        assert!(stdout.starts_with("usage:"), "flexctl {flag}:\n{stdout}");
        assert!(
            stdout.contains("flexctl serve"),
            "flexctl {flag}:\n{stdout}"
        );
        assert!(out.stderr.is_empty(), "flexctl {flag} writes no error");
    }
    // An unknown command keeps its error.
    let out = flexctl(&["--frobnicate"], None);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command --frobnicate"), "{stderr}");
}
