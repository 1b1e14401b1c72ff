//! Building, spawning and killing the `strata-serve` child process, and
//! the run's scratch directory.
//!
//! Everything the benchmark writes — stores, seed files, server logs —
//! lives under one directory inside `benchmark/out/` that is removed when
//! the run ends, and the child is killed by a `Drop` guard, so a panic in
//! the driver leaves neither a process nor files behind.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::Conn;

/// The flags every workload's server runs with: `strata-serve`'s own
/// defaults, spelled out so the output records them. `--store` alone
/// selects the production storage profile (fsync per group,
/// `compact=auto`, `snapshot=delta:8`, `replay=bulk`).
pub const SERVER_FLAGS: [&str; 6] = ["--strategy", "cascade", "--group", "64", "--delay-ms", "2"];

/// How long a spawned server may take to answer its first request.
const READY_PATIENCE: Duration = Duration::from_secs(60);

/// The repository root: the benchmark package sits directly inside it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Where cargo puts build output for this run: `CARGO_TARGET_DIR` if the
/// caller set it (relative paths resolve against the working directory,
/// as cargo resolves them), else the root workspace's own `target/`.
fn target_dir(root: &Path) -> io::Result<PathBuf> {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => Ok(std::env::current_dir()?.join(dir)),
        _ => Ok(root.join("target")),
    }
}

/// Builds `strata-serve` from the repository's sources (release profile,
/// offline) and returns the executable's path. Cargo's own output goes to
/// stderr; stdout stays the benchmark's.
pub fn build_server() -> io::Result<PathBuf> {
    let root = repo_root();
    let target = target_dir(&root)?;
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "strata-serve"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("cargo build of strata-serve failed: {status}")));
    }
    let exe = target.join("release").join("strata-serve");
    if !exe.is_file() {
        return Err(io::Error::other(format!("{} was not built", exe.display())));
    }
    Ok(exe)
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
pub fn git_revision() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.to_string(),
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `benchmark/out/run-<pid>-<label>`, emptying a stale one.
    pub fn create(label: &str) -> io::Result<Scratch> {
        let dir = repo_root()
            .join("benchmark")
            .join("out")
            .join(format!("run-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-directory.
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files directly inside `dir` (a store
/// directory is flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.filter_map(|e| e.ok()?.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
}

/// A port nothing is listening on right now: bind port 0, read the
/// assignment, release it for the server.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// A running `strata-serve` child. Dropping it kills the process and
/// waits for it to end.
#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server on a free loopback port over `store`, seeding a
    /// fresh store from `program`. Its stderr is appended to `log`.
    pub fn spawn(exe: &Path, store: &Path, program: &Path, log: &Path) -> io::Result<Server> {
        let port = free_port()?;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let log = std::fs::OpenOptions::new().create(true).append(true).open(log)?;
        let child = Command::new(exe)
            .arg(addr.to_string())
            .args(SERVER_FLAGS)
            .arg("--store")
            .arg(store)
            .arg("--program")
            .arg(program)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Server { child, addr })
    }

    /// The address it listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Polls (four times a millisecond) until the server accepts a connection
    /// and answers `verb` with `ok`; returns that connection. Fails if
    /// the process exits first or [`READY_PATIENCE`] runs out.
    pub fn wait_ready(&mut self, verb: &str) -> io::Result<Conn> {
        let started = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                let (reply, _) = conn.call(verb)?;
                if reply.ok {
                    return Ok(conn);
                }
                return Err(io::Error::other(format!(
                    "first `{verb}` answered err {}",
                    reply.tail
                )));
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("strata-serve exited early: {status}")));
            }
            if started.elapsed() > READY_PATIENCE {
                return Err(io::Error::other("strata-serve did not come up"));
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    /// The process's peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// SIGKILL, then reap: the crash the recovery step measures. Nothing
    /// the process buffered in user space survives; the OS page cache does.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_lives_under_benchmark_out_and_cleans_up() {
        let path;
        {
            let scratch = Scratch::create("unit").unwrap();
            path = scratch.path().to_path_buf();
            assert!(path.starts_with(repo_root().join("benchmark").join("out")));
            let store = scratch.fresh_dir("store").unwrap();
            std::fs::write(store.join("a"), b"12345").unwrap();
            std::fs::write(store.join("b"), b"123").unwrap();
            assert_eq!(dir_bytes(&store), 8);
            // `fresh_dir` empties what was there.
            assert_eq!(dir_bytes(&scratch.fresh_dir("store").unwrap()), 0);
        }
        assert!(!path.exists());
        assert_eq!(dir_bytes(&path), 0);
    }

    #[test]
    fn free_ports_are_bindable() {
        let port = free_port().unwrap();
        assert!(TcpListener::bind(("127.0.0.1", port)).is_ok());
    }
}
