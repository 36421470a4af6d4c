//! Integration tests for `flexctl serve --workers N`: the cross-process
//! cluster replay must serialise byte-identically to the `--batch` oracle
//! at any worker count, compose with `--journal` (resume included), and
//! reject the documented flag conflicts (`--workers 0`,
//! `--workers`+`--batch`, and the `--sync-every 0` /
//! `--snapshot-every 0` ranges) with named messages.
//! Also pins the internal `shard-worker` subcommand's clean-EOF exit.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Runs to success and returns (stdout, stderr) — the cluster paths put
/// lifecycle notes (worker starts, resumed journals) on stderr.
fn run_ok(args: &[&str], stdin: Option<&str>) -> (String, String) {
    let out = flexctl(args, stdin);
    assert!(
        out.status.success(),
        "flexctl {args:?} exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("output is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn stdout_of(args: &[&str], stdin: Option<&str>) -> String {
    run_ok(args, stdin).0
}

fn stderr_of_failure(args: &[&str], stdin: Option<&str>) -> String {
    let out = flexctl(args, stdin);
    assert!(!out.status.success(), "flexctl {args:?} must fail");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Scratch dir under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn join(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("flexctl_cluster_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

/// A small city script with churn and all four query kinds, modest for a
/// debug-build test (CI's cluster smoke replays a larger one).
fn script() -> String {
    stdout_of(
        &["events", "--city", "120", "--churn", "10", "--queries", "6"],
        None,
    )
}

const QUERY: &str = "{\"event\":\"query\",\"kind\":\"measure\"}\n";

#[test]
fn cluster_replay_is_byte_equal_to_batch_at_any_worker_count() {
    let script = script();
    let batch = stdout_of(&["serve", "--script", "-", "--batch"], Some(&script));
    assert_eq!(batch.lines().count(), 6, "one line per query:\n{batch}");
    for workers in ["1", "2", "4"] {
        let (live, stderr) = run_ok(
            &[
                "serve",
                "--script",
                "-",
                "--workers",
                workers,
                "--threads",
                "2",
            ],
            Some(&script),
        );
        assert_eq!(
            live, batch,
            "--workers {workers} must match the batch oracle byte for byte"
        );
        assert_eq!(
            stderr.matches("cluster worker").count(),
            workers.parse::<usize>().unwrap(),
            "one start line per worker: {stderr}"
        );
        assert!(
            !stderr.contains("respawned"),
            "no worker died during a clean replay: {stderr}"
        );
        let workers: usize = workers.parse().unwrap();
        let totals = format!(
            "cluster gather totals: 6 gathers, {} confirmed, 0 shipped, 0 respawns\n",
            6 * workers
        );
        assert_eq!(
            stderr.matches("cluster gather").count(),
            1,
            "one totals line, at shutdown: {stderr}"
        );
        assert!(
            stderr.ends_with(&totals),
            "each of the 6 queries confirmed all {workers} shards and shipped none: {stderr}"
        );
    }
}

#[test]
fn back_to_back_queries_confirm_every_shard_by_digest() {
    // Two queries with no mutation in between after a run of
    // mutations: both gathers confirm both shards by live count and key
    // digest and ship nothing — the totals line the CI smoke also greps
    // for.
    let mut script = stdout_of(
        &["events", "--city", "40", "--churn", "5", "--queries", "0"],
        None,
    );
    script.push_str(QUERY);
    script.push_str(QUERY);
    let (_, stderr) = run_ok(&["serve", "--script", "-", "--workers", "2"], Some(&script));
    assert!(
        stderr.contains("cluster gather totals: 2 gathers, 4 confirmed, 0 shipped, 0 respawns\n"),
        "every gather confirms both shards, even right after mutations: {stderr}"
    );
}

#[test]
fn cluster_serve_composes_with_a_journal_and_resumes_it() {
    let scratch = scratch_dir("resume");
    let journal = scratch.join("book.journal");
    // Pure mutations first (no queries), journaled by a 2-worker cluster.
    let adds = stdout_of(
        &["events", "--city", "40", "--churn", "5", "--queries", "0"],
        None,
    );
    let (out, stderr) = run_ok(
        &[
            "serve",
            "--script",
            "-",
            "--workers",
            "2",
            "--journal",
            &journal,
        ],
        Some(&adds),
    );
    assert!(out.is_empty(), "no queries, no output:\n{out}");
    assert!(
        !stderr.contains("resumed journal"),
        "a fresh journal resumes silently: {stderr}"
    );

    // Resume the same journal under the cluster and query the recovered
    // book; the in-process tier resuming an identical journal is the
    // oracle, so recovery and placement agree across tiers byte for byte.
    let events = adds.lines().count() as u64;
    let (clustered, stderr) = run_ok(
        &[
            "serve",
            "--script",
            "-",
            "--workers",
            "2",
            "--journal",
            &journal,
        ],
        Some(QUERY),
    );
    assert!(
        stderr.contains(&format!("resumed journal at seq {events}")),
        "stderr announces the resume: {stderr}"
    );

    let oracle_scratch = scratch_dir("oracle");
    let oracle_journal = oracle_scratch.join("book.journal");
    stdout_of(
        &["serve", "--script", "-", "--journal", &oracle_journal],
        Some(&adds),
    );
    let in_process = stdout_of(
        &["serve", "--script", "-", "--journal", &oracle_journal],
        Some(QUERY),
    );
    assert_eq!(
        clustered, in_process,
        "a resumed cluster answers exactly like the resumed in-process tier"
    );
}

#[test]
fn cluster_flag_conflicts_are_named_errors() {
    let stderr = stderr_of_failure(&["serve", "--script", "-", "--workers", "0"], Some(QUERY));
    assert!(
        stderr.contains("--workers must be at least 1"),
        "stderr: {stderr}"
    );

    let stderr = stderr_of_failure(
        &["serve", "--script", "-", "--batch", "--workers", "2"],
        Some(QUERY),
    );
    assert!(
        stderr.contains("--workers does not apply to --batch"),
        "stderr: {stderr}"
    );

    let stderr = stderr_of_failure(&["serve", "--script", "-", "--workers", "two"], Some(QUERY));
    assert!(stderr.contains("takes a number"), "stderr: {stderr}");
}

#[test]
fn zero_durability_intervals_are_named_errors() {
    // The satellite sweep: 0 used to wrap into pathological behaviour
    // (sync never, snapshot every mutation); both are now rejected with
    // the documented N >= 1 range.
    let scratch = scratch_dir("zeros");
    let journal = scratch.join("book.journal");
    let stderr = stderr_of_failure(
        &[
            "serve",
            "--script",
            "-",
            "--journal",
            &journal,
            "--sync-every",
            "0",
        ],
        Some(QUERY),
    );
    assert!(
        stderr.contains("--sync-every must be at least 1"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(
        &[
            "serve",
            "--script",
            "-",
            "--journal",
            &journal,
            "--snapshot-every",
            "0",
        ],
        Some(QUERY),
    );
    assert!(
        stderr.contains("--snapshot-every must be at least 1"),
        "stderr: {stderr}"
    );
    assert!(
        !scratch.0.join("book.journal").exists(),
        "flag errors are rejected before the journal is created"
    );
}

#[test]
fn the_shard_worker_subcommand_exits_cleanly_on_eof() {
    // The internal subcommand `serve --workers` respawns workers through;
    // a supervisor closing the pipe must read as a clean shutdown.
    let out = flexctl(&["shard-worker"], Some(""));
    assert!(
        out.status.success(),
        "EOF on stdin is a clean exit; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "no requests, no replies");
}
