//! Integration tests for `flexctl serve` / `flexctl events`: script
//! replay through the live serving loop must serialise byte-identically
//! to the from-scratch batch replay (`--batch`) at any thread count, the
//! generator must be deterministic, and the documented error paths
//! (malformed event line, remove of unknown id, empty script, the retired
//! `--shards`) must be rejected with named messages. Also covers the
//! unified `simulate --city` alias.

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

/// A ~1k-offer script with 10% churn and all four query kinds — big
/// enough to spread work across threads, small enough for a debug-build
/// test. (CI's smoke replays a 10k-offer script.)
fn script() -> String {
    stdout_of(
        &[
            "events",
            "--city",
            "300",
            "--churn",
            "10",
            "--queries",
            "8",
            "--seed",
            "11",
        ],
        None,
    )
}

#[test]
fn events_scripts_are_deterministic_and_self_describing() {
    let script = script();
    assert_eq!(script, script_again(), "same knobs, same bytes");
    assert_eq!(script.lines().count(), script.lines().count());
    let queries = script
        .lines()
        .filter(|l| l.contains("\"event\":\"query\""))
        .count();
    assert_eq!(queries, 8);
    for kind in ["measure", "aggregate", "schedule", "trade"] {
        assert!(
            script.contains(&format!("\"kind\":\"{kind}\"")),
            "missing {kind} query"
        );
    }
    assert!(script.contains("\"event\":\"update\""));
    assert!(script.contains("\"event\":\"remove\""));
}

fn script_again() -> String {
    stdout_of(
        &[
            "events",
            "--city",
            "300",
            "--churn",
            "10",
            "--queries",
            "8",
            "--seed",
            "11",
        ],
        None,
    )
}

#[test]
fn live_replay_is_byte_equal_to_batch_rebuild_at_any_thread_count() {
    let script = script();
    let batch = stdout_of(&["serve", "--script", "-", "--batch"], Some(&script));
    assert_eq!(
        batch.lines().count(),
        8,
        "one answer line per query:\n{batch}"
    );
    for threads in ["1", "2", "4"] {
        let live = stdout_of(
            &["serve", "--script", "-", "--threads", threads],
            Some(&script),
        );
        assert_eq!(
            live, batch,
            "--threads {threads} live replay must match the batch rebuild byte for byte"
        );
    }
}

#[test]
fn serve_answers_carry_the_query_envelopes() {
    let script = script();
    let out = stdout_of(&["serve", "--script", "-"], Some(&script));
    for kind in ["measure", "aggregate", "schedule", "trade"] {
        assert!(
            out.contains(&format!("{{\"query\":\"{kind}\"")),
            "missing {kind} answer:\n{out}"
        );
    }
    // Scenario answers embed the deterministic scenario mirror.
    assert!(out.contains("\"imbalance_before\""), "{out}");
    assert!(out.contains("\"baseline_cost\""), "{out}");
}

#[test]
fn malformed_event_lines_are_rejected_with_their_line_number() {
    let script = "{\"event\":\"query\",\"kind\":\"measure\"}\nnot json\n";
    let stderr = stderr_of_failure(&["serve", "--script", "-"], Some(script));
    assert!(stderr.contains("line 2"), "stderr names the line: {stderr}");
}

#[test]
fn remove_of_unknown_id_is_rejected_before_replay() {
    let script = "{\"event\":\"remove\",\"id\":7}\n";
    let stderr = stderr_of_failure(&["serve", "--script", "-"], Some(script));
    assert!(
        stderr.contains("remove of unknown offer id 7"),
        "stderr: {stderr}"
    );
}

#[test]
fn empty_scripts_are_rejected() {
    for script in ["", "\n\n  \n"] {
        let stderr = stderr_of_failure(&["serve", "--script", "-"], Some(script));
        assert!(
            stderr.contains("empty script — no events"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn serve_flag_errors_are_named() {
    let stderr = stderr_of_failure(&["serve"], None);
    assert!(stderr.contains("serve needs --script"), "stderr: {stderr}");

    let script = "{\"event\":\"query\",\"kind\":\"measure\"}\n";
    let stderr = stderr_of_failure(
        &["serve", "--script", "-", "--threads", "many"],
        Some(script),
    );
    assert!(stderr.contains("takes a number"), "stderr: {stderr}");
    let stderr = stderr_of_failure(&["serve", "--script", "-", "--frobnicate"], Some(script));
    assert!(
        stderr.contains("unknown serve argument --frobnicate"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(&["serve", "--script", "/no/such/file.jsonl"], None);
    assert!(stderr.contains("reading"), "stderr: {stderr}");

    // An in-process book is one shard and the engine has one evaluation
    // route; neither the shard count nor the kernel is a knob.
    for (flag, value) in [("--shards", "2"), ("--kernel", "scalar")] {
        let stderr = stderr_of_failure(&["serve", "--script", "-", flag, value], Some(script));
        assert!(
            stderr.contains(&format!("unknown serve argument {flag}")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn events_survives_a_truncating_consumer() {
    // `flexctl events ... | head` closes the pipe early; the generator
    // must stop cleanly instead of panicking on EPIPE.
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_flexctl"))
        .args(["events", "--city", "3000", "--churn", "10"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .expect("flexctl spawns");
    // Read a few bytes, then drop the pipe while the child still writes.
    let mut stdout = child.stdout.take().expect("stdout piped");
    let mut buf = [0u8; 256];
    stdout.read_exact(&mut buf).expect("some output");
    drop(stdout);
    let out = child.wait_with_output().expect("flexctl terminates");
    assert!(
        out.status.success(),
        "closed pipe must not fail the generator; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("panicked"),
        "no panic on EPIPE"
    );
}

#[test]
fn serve_survives_a_truncating_consumer_live_and_batch() {
    // `flexctl serve --script ev.jsonl | head -c 10`: the answer stream's
    // reader closes early, and the serving loop's writer must end the run
    // cleanly instead of panicking on EPIPE. 200 queries answer ~160 KB,
    // more than a pipe buffers, so writes are still pending when the
    // reader goes.
    use std::io::Read;
    let dir = std::env::temp_dir().join(format!("flexctl_serve_epipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("events.jsonl");
    let events = stdout_of(&["events", "--city", "20", "--queries", "200"], None);
    std::fs::write(&path, events).expect("write script");
    let path = path.to_str().expect("UTF-8 path");
    for mode in [&[][..], &["--batch"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_flexctl"))
            .args(["serve", "--script", path])
            .args(mode)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .expect("flexctl spawns");
        let mut stdout = child.stdout.take().expect("stdout piped");
        let mut buf = [0u8; 10];
        stdout.read_exact(&mut buf).expect("some output");
        drop(stdout);
        let out = child.wait_with_output().expect("flexctl terminates");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{mode:?}: a closed pipe must not fail serve; stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{mode:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_flag_errors_are_named() {
    let stderr = stderr_of_failure(&["events"], None);
    assert!(stderr.contains("events needs --city"), "stderr: {stderr}");
    let stderr = stderr_of_failure(&["events", "--city", "10", "--churn", "250"], None);
    assert!(
        stderr.contains("between 0 and 100"),
        "stderr names the range: {stderr}"
    );
    let stderr = stderr_of_failure(&["events", "--city", "10", "--churn", "lots"], None);
    assert!(stderr.contains("takes a number"), "stderr: {stderr}");
    let stderr = stderr_of_failure(&["events", "--city", "ten"], None);
    assert!(stderr.contains("takes a number"), "stderr: {stderr}");
}

#[test]
fn an_unqueried_script_replays_silently() {
    let script = stdout_of(
        &["events", "--city", "20", "--churn", "5", "--queries", "0"],
        None,
    );
    assert!(!script.contains("\"event\":\"query\""));
    let out = stdout_of(&["serve", "--script", "-"], Some(&script));
    assert!(out.is_empty(), "no queries, no output:\n{out}");
}

#[test]
fn simulate_city_is_an_alias_of_households() {
    let by_households = stdout_of(
        &[
            "simulate",
            "--scenario",
            "market",
            "--households",
            "200",
            "--json",
        ],
        None,
    );
    let by_city = stdout_of(
        &[
            "simulate",
            "--scenario",
            "market",
            "--city",
            "200",
            "--json",
        ],
        None,
    );
    assert_eq!(by_households, by_city);

    let stderr = stderr_of_failure(
        &[
            "simulate",
            "--scenario",
            "market",
            "--city",
            "10",
            "--households",
            "10",
        ],
        None,
    );
    assert!(
        stderr.contains("--city and --households name the same knob"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(&["simulate", "--scenario", "market", "--city", "ten"], None);
    assert!(stderr.contains("takes a number"), "stderr: {stderr}");
}
