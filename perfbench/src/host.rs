//! Host facts: the stamp printed with every result, peak memory, the
//! report digest, and panic messages.

use std::any::Any;
use std::process::{Command, Stdio};

use crate::workloads::Kind;

/// Worker threads the batch runs on: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `program args...`'s standard output, or `unknown`.
/// Git looks only at `.git` in the working directory, never above it.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host stamp: core count, git revision, compiler, build profile
/// and the thread counts the metrics were measured at.
pub fn stamp(kind: Kind, seed: u64, trace: bool) -> String {
    serde_json::json!({
        "workload": kind.name(),
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "git_rev": first_line("git", &["rev-parse", "--short", "HEAD"]),
        "rustc": first_line("rustc", &["--version"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "threads": {"single": 1, "batch": nproc()},
    })
    .to_string()
}

/// FNV-1a (64-bit) digest of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The message a panic carried.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".into()
    }
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// What a fresh-process run of one seed reported.
pub struct ChildRun {
    /// Wall-clock seconds of the cold set-up.
    pub setup_s: f64,
    pub digest: String,
    /// Wall-clock run seconds, set-up excluded.
    pub run_s: f64,
    pub ops: u64,
    /// The process's peak resident set, KiB.
    pub rss_kb: u64,
    /// The host speed measured around the set-up and run (see
    /// `calib.rs`).
    pub speed: f64,
}

/// The `key value` lines a fresh copy of this program printed in its
/// `--sample <mode>` mode for `kind` and `seed`.
struct ChildOutput {
    seed: u64,
    text: String,
}

impl ChildOutput {
    fn field(&self, key: &str) -> Option<&str> {
        self.text
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .map(str::trim)
    }

    fn number(&self, key: &str) -> Result<f64, String> {
        self.field(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("seed {} in a fresh process printed no {key}", self.seed))
    }
}

/// Runs a fresh copy of this program in `--sample <mode>` and waits
/// for it.
fn run_sample(kind: Kind, seed: u64, mode: &str) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--sample",
            mode,
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run seed {seed} in a fresh process: {e}"))?;
    let child = ChildOutput {
        seed,
        text: String::from_utf8_lossy(&out.stdout).into_owned(),
    };
    if !out.status.success() {
        let why = child.field("error").unwrap_or("no message");
        return Err(format!(
            "seed {seed} in a fresh process failed ({}): {why}",
            out.status
        ));
    }
    Ok(child)
}

/// The wall-clock seconds of `kind`'s set-up for `seed` in a fresh
/// process, where every cache of the simulator starts cold.
pub fn child_setup(kind: Kind, seed: u64) -> Result<f64, String> {
    run_sample(kind, seed, "setup")?.number("setup_s")
}

/// Sets up and runs `kind` for `seed` in a fresh process.
pub fn child_run(kind: Kind, seed: u64) -> Result<ChildRun, String> {
    let child = run_sample(kind, seed, "run")?;
    Ok(ChildRun {
        setup_s: child.number("setup_s")?,
        digest: child.field("digest").unwrap_or_default().to_owned(),
        run_s: child.number("run_s")?,
        ops: child.number("ops")? as u64,
        rss_kb: child.number("vmhwm_kb")? as u64,
        speed: child.number("speed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        assert!(peak_rss_kb().unwrap_or(1) > 0);
    }
}
