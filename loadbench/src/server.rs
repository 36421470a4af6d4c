//! The program under test: one `flexctl serve --listen 127.0.0.1:0`
//! process (plus its shard workers), and the run's scratch directory.
//!
//! The server's stdout (one line per answered query) and stderr go to
//! files, never to pipes nobody drains. The bound port comes from the
//! `listening on` line and worker pids from the `cluster worker W started
//! (pid P)` lines. Dropping a [`Server`] — on every exit path, unwinding
//! included — sends SIGTERM and waits for the process; a run that hangs
//! past its hard timeout is ended by the [`watchdog`].

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Pids of the running servers and their workers, for the watchdog.
static RUNNING: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn running() -> std::sync::MutexGuard<'static, Vec<u32>> {
    RUNNING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a SIGTERMed server may drain (a durable server writes its
/// shutdown snapshot) before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(60);

/// A directory removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path) -> std::io::Result<Self> {
        let path = parent.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // `pid` is a child we spawned and have not reaped yet, so it cannot
    // name a recycled process.
    unsafe {
        kill(pid as i32, sig);
    }
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Whether `pid` has exited (gone, or a zombie nobody has reaped yet).
fn ended(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit(')')
            .next()
            .is_some_and(|rest| rest.trim_start().starts_with('Z')),
        Err(_) => true,
    }
}

/// Fails a run still going after `limit` (a call that hangs): kills
/// every running server and worker, waits until they have ended, removes
/// `scratch` and exits with code 1. The main thread may be blocked inside
/// any call, so this cannot rely on unwinding.
pub fn watchdog(limit: Duration, scratch: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("error: the run exceeded its hard timeout of {limit:?}");
        let pids = running().clone();
        for &pid in &pids {
            signal(pid, SIGKILL);
        }
        let killed = Instant::now();
        while !pids.iter().all(|&pid| ended(pid)) && killed.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_dir_all(&scratch);
        // Exiting reaps nothing, but the servers are our children: once
        // this process is gone they are reparented and reaped by init.
        std::process::exit(1);
    });
}

pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// Shard worker pids (empty without `--workers`).
    pub workers: Vec<u32>,
    stderr: PathBuf,
}

impl Server {
    /// Spawns `flexctl serve --listen 127.0.0.1:0 <args>` with its output
    /// in `dir/<tag>.out` and `dir/<tag>.err`, and waits up to `timeout`
    /// for the `listening on` line.
    pub fn spawn(
        flexctl: &Path,
        dir: &Path,
        tag: &str,
        args: &[String],
        timeout: Duration,
    ) -> Result<Self, String> {
        let out_path = dir.join(format!("{tag}.out"));
        let err_path = dir.join(format!("{tag}.err"));
        let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        let child = Command::new(flexctl)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", flexctl.display()))?;
        running().push(child.id());
        let mut server = Self {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: Vec::new(),
            stderr: err_path,
        };
        let started = Instant::now();
        loop {
            let mut log = std::fs::read_to_string(&server.stderr).unwrap_or_default();
            // Only whole lines: the server may be mid-way through one.
            log.truncate(log.rfind('\n').map_or(0, |end| end + 1));
            if let Some(addr) = listening_addr(&log) {
                server.addr = addr;
                server.workers = worker_pids(&log);
                running().extend(&server.workers);
                return Ok(server);
            }
            let child = server.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "server exited with {status} before listening: {log}"
                ));
            }
            if started.elapsed() > timeout {
                return Err(format!("server did not listen within {timeout:?}: {log}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The server process and its workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.as_ref().expect("running").id()];
        pids.extend(&self.workers);
        pids
    }

    /// SIGTERM, then wait for a clean exit; a server that needs longer
    /// than [`STOP_GRACE`] is killed and reported.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        let result = terminate(&mut child);
        self.forget(child.id());
        result.map_err(|e| format!("{e}: {}", tail(&self.stderr)))
    }

    /// Drops the server and its workers from the watchdog's list.
    fn forget(&self, pid: u32) {
        running().retain(|p| *p != pid && !self.workers.contains(p));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = terminate(&mut child);
            self.forget(child.id());
        }
    }
}

fn terminate(child: &mut Child) -> Result<(), String> {
    if let Ok(Some(status)) = child.try_wait() {
        return Err(format!("server had already exited with {status}"));
    }
    signal(child.id(), SIGTERM);
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("server exited with {status}")),
            Ok(None) if started.elapsed() > STOP_GRACE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server ignored SIGTERM for {STOP_GRACE:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("waiting for the server: {e}")),
        }
    }
}

fn tail(path: &Path) -> String {
    let log = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = log
        .lines()
        .filter(|l| !l.starts_with("cluster gather"))
        .collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// The address of a `listening on ADDR` line.
pub fn listening_addr(log: &str) -> Option<SocketAddr> {
    log.lines()
        .find_map(|l| l.strip_prefix("listening on "))
        .and_then(|a| a.trim().parse().ok())
}

/// The pids of `cluster worker W started (pid P)` lines, in worker order.
pub fn worker_pids(log: &str) -> Vec<u32> {
    log.lines()
        .filter(|l| l.starts_with("cluster worker ") && l.contains(" started (pid "))
        .filter_map(|l| l.rsplit("(pid ").next()?.strip_suffix(')')?.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bound_port_and_worker_pids_are_scraped() {
        let log = "cluster worker 0 started (pid 101)\n\
                   cluster worker 1 started (pid 102)\n\
                   listening on 127.0.0.1:40123\n\
                   cluster gather: 2 dirty / 0 cached\n";
        assert_eq!(
            listening_addr(log),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(worker_pids(log), vec![101, 102]);
        assert_eq!(listening_addr("listening on\n"), None);
        assert_eq!(
            worker_pids("cluster worker 0 respawned (pid 7)\n"),
            Vec::<u32>::new()
        );
    }
}
