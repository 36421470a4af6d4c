//! Integration tests for `flexctl serve --listen`: a recorded
//! multi-connection session must replay byte-identically through
//! `serve --script --batch`, SIGTERM must drain in flight requests and
//! run the durable sink's `finish()` (so `recover` replays nothing), the
//! error paths (deadline expiry, malformed frames, connecting after
//! shutdown) must behave as `docs/PROTOCOL.md` specifies, and the
//! documented flag conflicts must be rejected with named messages.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use flexoffers::net::{NetClient, Reply};
use flexoffers::serving::{Event, QueryKind};
use flexoffers::workloads::city_stream;

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
    let dir = std::env::temp_dir().join(format!("flexctl_net_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

/// A `flexctl serve --listen` child plus the address it bound. Dropping
/// it unterminated (a failed assertion) kills the child.
struct Server {
    child: Option<Child>,
    stderr: BufReader<ChildStderr>,
    /// Stderr lines before `listening on` (worker starts, journal resumes).
    preamble: String,
    addr: String,
}

impl Server {
    /// Spawns `flexctl serve --listen 127.0.0.1:0 <extra>` and scrapes the
    /// bound address from its stderr.
    fn spawn(extra: &[&str]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexctl"));
        cmd.args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("flexctl serve --listen spawns");
        let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut server = Server {
            child: Some(child),
            stderr,
            preamble: String::new(),
            addr: String::new(),
        };
        loop {
            let mut line = String::new();
            let n = server
                .stderr
                .read_line(&mut line)
                .expect("server announces its address");
            assert!(n > 0, "server exited before listening: {}", server.preamble);
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_owned();
                return server;
            }
            server.preamble.push_str(&line);
        }
    }

    /// SIGTERMs the child and returns (stdout, stderr minus the
    /// `listening on` line); asserts a clean exit.
    fn terminate(mut self) -> (String, String) {
        let child = self.child.take().expect("terminated once");
        let pid = child.id().to_string();
        // Child::kill is SIGKILL; graceful drain needs a real SIGTERM.
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM {pid}");
        let out = child.wait_with_output().expect("server exits");
        let mut rest = std::mem::take(&mut self.preamble);
        self.stderr
            .read_to_string(&mut rest)
            .expect("stderr drains");
        assert!(
            out.status.success(),
            "serve --listen exits 0 after SIGTERM; stderr: {rest}"
        );
        (
            String::from_utf8(out.stdout).expect("answers are UTF-8"),
            rest,
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn expect_ok(reply: Reply, what: &str) -> Reply {
    assert!(reply.is_ok(), "{what}: got {reply:?}");
    reply
}

fn error_code(reply: &Reply) -> Option<&str> {
    match reply {
        Reply::Err { code, .. } => Some(code.as_str()),
        Reply::Ok { .. } => None,
    }
}

/// The byte-identity oracle: three concurrent connections mutate and
/// query one journaled server; the recorded session replayed through the
/// batch oracle must reproduce the served answer bytes, and SIGTERM must
/// leave a journal whose recovery replays nothing (the shutdown snapshot
/// covered it).
#[test]
fn recorded_multi_connection_session_replays_byte_identically() {
    let dir = scratch_dir("replay");
    let record = dir.join("session.jsonl");
    let journal = dir.join("events.journal");
    let server = Server::spawn(&[
        "--record",
        path_str(&record),
        "--journal",
        path_str(&journal),
        "--max-conns",
        "3",
    ]);
    let addr = server.addr.clone();

    std::thread::scope(|scope| {
        for c in 0u64..3 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr.as_str()).expect("client connects");
                let offers: Vec<_> = city_stream(100 + c, 6).collect();
                let mut owned = Vec::new();
                for (i, offer) in offers.iter().cloned().enumerate() {
                    let reply =
                        expect_ok(client.send_event(&Event::Add(offer)).expect("add"), "add");
                    owned.push(reply.assigned_id().expect("adds assign ids"));
                    if i % 2 == 1 {
                        let kind = QueryKind::all()[(c as usize + i) % 4];
                        expect_ok(
                            client.send_event(&Event::Query(kind)).expect("query"),
                            "query",
                        );
                    }
                }
                // Each connection touches only ids it added itself, so the
                // session is valid under any interleaving.
                let id = owned[0];
                let offer = offers[1].clone();
                expect_ok(
                    client
                        .send_event(&Event::Update { id, offer })
                        .expect("update"),
                    "update",
                );
                expect_ok(
                    client
                        .send_event(&Event::Remove { id: owned[1] })
                        .expect("remove"),
                    "remove",
                );
            });
        }
    });

    let (served_answers, stderr) = server.terminate();
    assert!(
        stderr.contains("served 3 connections"),
        "summary reports the connections: {stderr}"
    );

    // The record is a valid script whose batch replay is byte-identical
    // to what the live server answered.
    let session = std::fs::read_to_string(&record).expect("session recorded");
    let replayed = stdout_of(&["serve", "--script", path_str(&record), "--batch"], None);
    assert_eq!(
        served_answers, replayed,
        "batch replay of the recorded session must reproduce the served bytes"
    );
    assert!(
        session.lines().count() > 30,
        "three connections recorded a real session"
    );

    // SIGTERM ran the durable sink's finish(): the shutdown snapshot
    // satisfies recovery without replaying any journal suffix.
    let recover = flexctl(&["recover", "--journal", path_str(&journal)], None);
    assert!(recover.status.success(), "recover succeeds");
    let recover_stderr = String::from_utf8_lossy(&recover.stderr);
    assert!(
        recover_stderr.contains("replayed 0"),
        "shutdown snapshot covers the whole journal: {recover_stderr}"
    );
}

/// `--deadline-ms 0` refuses every query with a structured `deadline`
/// error while mutations keep working, and the connection stays open.
#[test]
fn zero_deadline_expires_queries_with_a_structured_error() {
    let server = Server::spawn(&["--deadline-ms", "0"]);
    let mut client = NetClient::connect(server.addr.as_str()).expect("client connects");
    let offer = city_stream(7, 2).next().expect("city has offers");
    expect_ok(client.send_event(&Event::Add(offer)).expect("add"), "add");
    let reply = client
        .send_event(&Event::Query(QueryKind::Measure))
        .expect("query sends");
    assert_eq!(
        error_code(&reply),
        Some("deadline"),
        "expired query: {reply:?}"
    );
    // The deadline error is per request, not per connection.
    expect_ok(
        client
            .send_event(&Event::Remove { id: 0 })
            .expect("remove after expiry"),
        "remove after expiry",
    );
    let (_, stderr) = server.terminate();
    assert!(
        stderr.contains("1 deadline-expired"),
        "summary counts the expiry: {stderr}"
    );
}

/// A malformed frame closes its connection with a `bad_frame` error, and
/// a connection refused mid-drain or attempted after shutdown never gets
/// served.
#[test]
fn malformed_frames_close_and_shutdown_refuses_new_connections() {
    let server = Server::spawn(&[]);
    let addr = server.addr.clone();

    let mut client = NetClient::connect(addr.as_str()).expect("client connects");
    let reply = client
        .send_raw("this is not a frame")
        .expect("raw line sends")
        .expect("server answers before closing");
    let reply = flexoffers::net::parse_reply(&reply).expect("error reply parses");
    assert_eq!(error_code(&reply), Some("bad_frame"), "{reply:?}");
    // The server hangs up after a framing error: the next write either
    // sees the closed socket or gets no reply, never an answer.
    assert!(
        !matches!(client.send_raw("{}"), Ok(Some(_))),
        "connection closed after bad_frame"
    );

    let (_, stderr) = server.terminate();
    assert!(stderr.contains("1 errors"), "summary counts it: {stderr}");
    // The listener is gone after drain; a fresh connection must fail.
    assert!(
        std::net::TcpStream::connect(addr.as_str()).is_err(),
        "connecting after shutdown must be refused"
    );
}

/// The documented serve flag conflicts are named errors, not silent
/// acceptance.
#[test]
fn serve_flag_conflicts_are_named_errors() {
    let err = stderr_of_failure(
        &["serve", "--script", "-", "--listen", "127.0.0.1:0"],
        Some(""),
    );
    assert!(err.contains("--script and --listen are exclusive"), "{err}");

    let err = stderr_of_failure(&["serve", "--listen", "127.0.0.1:0", "--batch"], None);
    assert!(err.contains("--batch does not apply to --listen"), "{err}");

    let err = stderr_of_failure(&["serve", "--script", "-", "--record", "x.jsonl"], Some(""));
    assert!(
        err.contains("--record/--max-conns/--deadline-ms need --listen"),
        "{err}"
    );

    let err = stderr_of_failure(&["serve"], None);
    assert!(
        err.contains("serve needs --script <events.jsonl|-> or --listen ADDR"),
        "{err}"
    );

    // A pool of zero connection slots would accept and never serve.
    let err = stderr_of_failure(
        &["serve", "--listen", "127.0.0.1:0", "--max-conns", "0"],
        None,
    );
    assert!(err.contains("--max-conns must be at least 1"), "{err}");

    let err = stderr_of_failure(&["bomb"], None);
    assert!(err.contains("bomb needs --addr"), "{err}");
}

/// A `--record` path that cannot be created fails the server before it
/// binds: a harness that scrapes `listening on` must never see a server
/// that is about to die.
#[test]
fn an_uncreatable_record_path_fails_before_listening() {
    let dir = scratch_dir("bad_record");
    let record = dir.join("no_such_dir").join("session.jsonl");
    let err = stderr_of_failure(
        &[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--record",
            path_str(&record),
        ],
        None,
    );
    assert!(!err.contains("listening on"), "{err}");
    assert!(
        err.contains(path_str(&record)),
        "stderr names the path: {err}"
    );
    assert!(!record.exists());
}

/// A `--listen --journal` server continues the id history an earlier run
/// left, in process and across shard workers alike: the id run 1 removed
/// stays dead, and the next add continues the sequence.
#[test]
fn a_resumed_listen_journal_continues_the_id_history() {
    let offers: Vec<_> = city_stream(11, 4).take(4).collect();
    assert_eq!(offers.len(), 4, "the city has four offers to add");
    for tier in [&[][..], &["--workers", "2"][..]] {
        let dir = scratch_dir("resume");
        let journal = dir.join("events.journal");
        let mut args = vec!["--journal", path_str(&journal)];
        args.extend_from_slice(tier);

        // Run 1: three adds over TCP, remove id 1, SIGTERM.
        let server = Server::spawn(&args);
        let mut client = NetClient::connect(server.addr.as_str()).expect("client connects");
        for (id, offer) in offers[..3].iter().enumerate() {
            let reply = client.send_event(&Event::Add(offer.clone())).expect("add");
            assert_eq!(reply.assigned_id(), Some(id as u64), "{tier:?}: {reply:?}");
        }
        let reply = client.send_event(&Event::Remove { id: 1 }).expect("remove");
        expect_ok(reply, "remove");
        drop(client);
        server.terminate();

        // Run 2 on the same journal.
        let server = Server::spawn(&args);
        let mut client = NetClient::connect(server.addr.as_str()).expect("client connects");
        let update = Event::Update {
            id: 1,
            offer: offers[0].clone(),
        };
        let reply = client.send_event(&update).expect("update sends");
        assert_eq!(
            error_code(&reply),
            Some("unknown_id"),
            "{tier:?}: {reply:?}"
        );
        let reply = client
            .send_event(&Event::Add(offers[3].clone()))
            .expect("add");
        assert_eq!(reply.assigned_id(), Some(3), "{tier:?}: {reply:?}");
        drop(client);
        let (_, stderr) = server.terminate();
        assert!(
            stderr.contains("resumed journal at seq 4"),
            "{tier:?}: {stderr}"
        );
    }
}

/// The serving loop writes the answer stream. A `--listen --journal`
/// server whose stdout reader is gone answers its first query with
/// `server_error`, halts on its own with one `error:` line, and still runs
/// the durable sink's `finish`: the shutdown snapshot covers the journal,
/// so `recover` replays nothing.
#[test]
fn a_closed_answer_stream_halts_the_server_after_a_durable_finish() {
    let dir = scratch_dir("closed_stdout");
    let journal = dir.join("events.journal");
    let mut server = Server::spawn(&["--journal", path_str(&journal)]);
    let child = server.child.as_mut().expect("running");
    drop(child.stdout.take().expect("stdout piped"));

    let mut client = NetClient::connect(server.addr.as_str()).expect("client connects");
    for offer in city_stream(3, 2).take(3) {
        expect_ok(client.send_event(&Event::Add(offer)).expect("add"), "add");
    }
    let reply = client
        .send_event(&Event::Query(QueryKind::Measure))
        .expect("the query is answered");
    assert_eq!(error_code(&reply), Some("server_error"), "{reply:?}");
    drop(client);

    let out = server
        .child
        .take()
        .expect("running")
        .wait_with_output()
        .expect("the server halts on its own");
    let mut stderr = std::mem::take(&mut server.preamble);
    server
        .stderr
        .read_to_string(&mut stderr)
        .expect("stderr drains");
    assert!(!out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
    assert_eq!(errors, 1, "{stderr}");

    let recovered = flexctl(&["recover", "--journal", path_str(&journal)], None);
    let report = String::from_utf8_lossy(&recovered.stderr);
    assert!(recovered.status.success(), "{report}");
    assert!(report.contains("replayed 0"), "{report}");
}

/// `flexctl bomb` drives a live server end to end and reports latency
/// percentiles per request class; the server survives it and drains
/// cleanly.
#[test]
fn bomb_load_generator_round_trips_against_a_live_server() {
    let server = Server::spawn(&["--max-conns", "2"]);
    let out = flexctl(
        &[
            "bomb",
            "--addr",
            &server.addr,
            "--conns",
            "2",
            "--events",
            "40",
        ],
        None,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bomb exits 0; stdout: {stdout}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("80 requests"), "{stdout}");
    assert!(stdout.contains("0 error replies"), "{stdout}");
    assert!(stdout.contains("p999"), "{stdout}");
    // Mutations and queries report their latencies apart: of each
    // connection's 40 requests, 2 are queries (every 16th, from the 10th).
    assert!(
        stdout.contains("  mutation (76 requests): p50 "),
        "{stdout}"
    );
    assert!(stdout.contains("  query (4 requests): p50 "), "{stdout}");
    let (_, stderr) = server.terminate();
    assert!(stderr.contains("served 2 connections"), "{stderr}");
}
