//! Process accounting (CPU time, resident memory, thread count) and the
//! environment a result is recorded with. Linux only: `/proc/self` and
//! `getrusage`.

use std::path::{Path, PathBuf};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time of this process so far.
pub fn cpu_time() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// A `kB` or count field of `/proc/self/status`.
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Reset the peak-RSS mark to the current RSS. Returns whether the kernel
/// accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Threads of this process.
pub fn threads() -> usize {
    status_field("Threads:").expect("/proc/self/status has Threads") as usize
}

/// Steal and total ticks of all CPUs (`/proc/stat`): time the host ran
/// something else while this machine's CPUs had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat starts with the cpu line")
        .split_whitespace()
        .map(|t| t.parse().expect("tick counts are integers"))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `git rev-parse HEAD`, when the working directory is a git checkout.
pub fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// (`Cargo.toml`, `Cargo.lock`, `crates/`, `shims/`), walked in sorted
/// order: identifies the program when no git metadata is present.
pub fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in files {
        if let Ok(data) = std::fs::read(&path) {
            bytes.extend_from_slice(path.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&data);
        }
    }
    format!("{:016x}", mcmm_gpu_sim::diffval::fnv1a(&bytes))
}
