//! Running the program under test: building `cubelsi-search` from the
//! checkout, spawning it, and reading peak resident memory from `/proc`.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often a child's `VmHWM` is read while it runs. The last reading
/// before exit is the peak: the kernel keeps the high-water mark itself.
const RSS_POLL: Duration = Duration::from_millis(20);

/// Where cargo puts release binaries for this checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `cubelsi-search` from the repository manifest in the working
/// directory (a no-op when it is fresh) and returns the binary's path.
pub fn build_product() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/cubelsi-search").is_dir() {
        return Err("run from the root of a CubeLSI checkout (Cargo.toml not found)".to_owned());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "cubelsi-search",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of cubelsi-search failed: {status}"));
    }
    let bin = target_dir().join("release").join("cubelsi-search");
    if !bin.is_file() {
        return Err(format!("{} missing after cargo build", bin.display()));
    }
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// A `Vm*` line of a `/proc/<pid>/status` file, in MB (10^6 bytes).
fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Peak resident set of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_mb(&pid.to_string(), "VmHWM:")
}

/// Peak resident set of this process, in MB.
pub fn self_peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// Current resident set of this process, in MB.
pub fn self_rss_mb() -> f64 {
    status_mb("self", "VmRSS:").unwrap_or(0.0)
}

/// What one finished child run cost.
#[derive(Debug)]
pub struct ChildRun {
    pub status: ExitStatus,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

/// Reads a child's pipe to its end on a thread of its own.
fn drain(pipe: Option<impl Read + Send + 'static>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut pipe) = pipe {
            pipe.read_to_string(&mut text).ok();
        }
        text
    })
}

/// Runs a command to completion, timing spawn → exit and polling its
/// `VmHWM`. Output is captured through pipes drained on helper threads so
/// a chatty child never blocks.
pub fn run_child(mut cmd: Command) -> Result<ChildRun, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let out = drain(child.stdout.take());
    let err = drain(child.stderr.take());
    // The poller reads `/proc` on its own thread so that this one can block
    // in `wait` and see the exit the moment it happens. Dropping `stop`
    // ends it.
    let pid = child.id();
    let (stop, stopped) = mpsc::channel::<()>();
    let poller = std::thread::spawn(move || {
        let mut peak = 0.0f64;
        loop {
            if let Some(mb) = peak_rss_mb(pid) {
                peak = peak.max(mb);
            }
            if stopped.recv_timeout(RSS_POLL) != Err(mpsc::RecvTimeoutError::Timeout) {
                return peak;
            }
        }
    });
    let waited = child.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    drop(stop);
    let peak = poller
        .join()
        .map_err(|_| "rss poller panicked".to_owned())?;
    let status = waited.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    let stdout = out
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?;
    let stderr = err
        .join()
        .map_err(|_| "stderr reader panicked".to_owned())?;
    Ok(ChildRun {
        status,
        wall_s,
        peak_rss_mb: peak,
        stdout,
        stderr,
    })
}

/// Stops a child that is no longer wanted and waits until it has ended.
pub fn kill_and_wait(child: &mut Child) {
    child.kill().ok();
    child.wait().ok();
}
