//! Integration tests for `flexctl serve --journal` / `flexctl recover`:
//! a journaled serve run must answer byte-identically to a memory-only
//! one, the journal it writes must itself be a replayable serve script,
//! recovery after a kill (journal truncation) must byte-match the batch
//! oracle over the surviving prefix, and the documented flag errors
//! (`--journal` with `--batch`, snapshot knobs without a journal, missing
//! `--journal` path) must be rejected with named messages.

use std::io::Write;
use std::path::{Path, PathBuf};
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
        // The child may reject flags before reading stdin; broken pipe ok.
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

/// Scratch dir under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
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
        std::env::temp_dir().join(format!("flexctl_journal_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

/// A small city script with churn and all four query kinds.
fn script() -> String {
    stdout_of(
        &["events", "--city", "120", "--churn", "10", "--queries", "8"],
        None,
    )
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

#[test]
fn journaled_serve_answers_like_batch_and_writes_a_replayable_script() {
    let dir = scratch_dir("replayable");
    let journal = dir.join("events.journal");
    let script = script();

    let journaled = stdout_of(
        &[
            "serve",
            "--script",
            "-",
            "--journal",
            path_str(&journal),
            "--snapshot-every",
            "64",
        ],
        Some(&script),
    );
    let batch = stdout_of(&["serve", "--script", "-", "--batch"], Some(&script));
    assert_eq!(journaled, batch, "journaling must not change any answer");

    // The journal is mutations-only (queries are not journaled) and is
    // itself a valid serve script: replaying it through --batch with the
    // four query kinds appended reproduces the final answers.
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(
        !journal_text.contains("\"event\":\"query\""),
        "queries must not be journaled"
    );
    let mutations = script
        .lines()
        .filter(|l| !l.contains("\"event\":\"query\""))
        .count();
    assert_eq!(journal_text.lines().count(), mutations);

    let mut replay = journal_text.clone();
    for kind in ["measure", "aggregate", "schedule", "trade"] {
        replay.push_str(&format!("{{\"event\":\"query\",\"kind\":\"{kind}\"}}\n"));
    }
    let from_journal = stdout_of(&["serve", "--script", "-", "--batch"], Some(&replay));
    let recovered = stdout_of(&["recover", "--journal", path_str(&journal)], None);
    assert_eq!(
        recovered, from_journal,
        "recover == batch replay of the journal"
    );

    // The shutdown snapshot landed next to the journal, and recovery used
    // it (replayed 0 on a cleanly finished run).
    assert!(journal.with_extension("journal.snap").exists());
    let out = flexctl(&["recover", "--journal", path_str(&journal)], None);
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(
        summary.contains("replayed 0"),
        "clean shutdown snapshot should satisfy recovery, got: {summary}"
    );
}

#[test]
fn recovery_after_a_kill_matches_the_batch_oracle_on_the_surviving_prefix() {
    let dir = scratch_dir("kill");
    let journal = dir.join("events.journal");
    let script = script();

    // Serve with per-event fsync so the journal holds every mutation,
    // then simulate a kill by truncating it mid-stream, mid-line.
    stdout_of(
        &[
            "serve",
            "--script",
            "-",
            "--journal",
            path_str(&journal),
            "--sync-every",
            "1",
        ],
        Some(&script),
    );
    let whole = std::fs::read(&journal).expect("journal written");
    let keep_lines = whole.iter().filter(|&&b| b == b'\n').count() * 3 / 5;
    let committed: usize = String::from_utf8(whole.clone())
        .unwrap()
        .lines()
        .take(keep_lines)
        .map(|l| l.len() + 1)
        .sum();
    // Cut 17 bytes into the following line: a torn tail recovery drops.
    std::fs::write(&journal, &whole[..committed + 17]).expect("truncate");
    // The stale shutdown snapshot is ahead of the cut; recovery must fall
    // back to full replay rather than trusting it.
    let out = flexctl(&["recover", "--journal", path_str(&journal)], None);
    assert!(out.status.success(), "recovery after kill succeeds");
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("torn tail dropped"), "{summary}");
    let recovered = String::from_utf8(out.stdout).unwrap();

    // Oracle: the surviving complete lines + the four queries, through
    // the from-scratch batch path.
    let mut prefix = String::from_utf8(whole[..committed].to_vec()).unwrap();
    for kind in ["measure", "aggregate", "schedule", "trade"] {
        prefix.push_str(&format!("{{\"event\":\"query\",\"kind\":\"{kind}\"}}\n"));
    }
    let oracle = stdout_of(&["serve", "--script", "-", "--batch"], Some(&prefix));
    assert_eq!(recovered, oracle, "recovery == batch oracle on the prefix");
}

#[test]
fn a_journaled_serve_can_resume_where_the_last_run_stopped() {
    let dir = scratch_dir("resume");
    let journal = dir.join("events.journal");
    let script = script();
    let (first_half, second_half) = {
        let lines: Vec<&str> = script.lines().collect();
        let mid = lines.len() / 2;
        (
            lines[..mid]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
            lines[mid..]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        )
    };

    stdout_of(
        &["serve", "--script", "-", "--journal", path_str(&journal)],
        Some(&first_half),
    );
    let out = flexctl(
        &["serve", "--script", "-", "--journal", path_str(&journal)],
        Some(&second_half),
    );
    assert!(out.status.success(), "resume serve succeeds");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resumed journal at seq"),
        "resume is announced on stderr"
    );

    // After both runs the journal holds the full mutation history:
    // recovery answers exactly like one uninterrupted batch replay.
    let recovered = stdout_of(&["recover", "--journal", path_str(&journal)], None);
    let mut full = script
        .lines()
        .filter(|l| !l.contains("\"event\":\"query\""))
        .map(|l| format!("{l}\n"))
        .collect::<String>();
    for kind in ["measure", "aggregate", "schedule", "trade"] {
        full.push_str(&format!("{{\"event\":\"query\",\"kind\":\"{kind}\"}}\n"));
    }
    let oracle = stdout_of(&["serve", "--script", "-", "--batch"], Some(&full));
    assert_eq!(recovered, oracle);
}

#[test]
fn durability_flag_misuse_is_rejected_with_named_errors() {
    let dir = scratch_dir("flags");
    let journal = dir.join("events.journal");

    let err = stderr_of_failure(
        &[
            "serve",
            "--script",
            "-",
            "--batch",
            "--journal",
            path_str(&journal),
        ],
        Some(""),
    );
    assert!(err.contains("--journal does not apply to --batch"), "{err}");

    let err = stderr_of_failure(
        &["serve", "--script", "-", "--snapshot-every", "8"],
        Some(""),
    );
    assert!(err.contains("need --journal"), "{err}");

    let err = stderr_of_failure(&["recover"], None);
    assert!(err.contains("recover needs --journal"), "{err}");

    for (flag, value) in [("--shards", "2"), ("--kernel", "auto")] {
        let err = stderr_of_failure(
            &["recover", "--journal", path_str(&journal), flag, value],
            None,
        );
        assert!(
            err.contains(&format!("unknown recover argument {flag}")),
            "{err}"
        );
    }

    let err = stderr_of_failure(&["serve", "--script", "-", "--journal"], Some(""));
    assert!(err.contains("--journal needs a path"), "{err}");

    // A corrupt snapshot is a named error, not a panic.
    std::fs::write(&journal, "{\"event\":\"query\",\"kind\":\"measure\"}\n").unwrap();
    std::fs::write(journal.with_extension("journal.snap"), "garbage\n{}\n").unwrap();
    let err = stderr_of_failure(&["recover", "--journal", path_str(&journal)], None);
    assert!(err.contains("corrupt snapshot"), "{err}");
}
