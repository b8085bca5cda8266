//! Host and provenance facts recorded with every result.

use std::process::Command;

/// Where and from what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on.
    pub cpus_online: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` when the working directory is a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the current host.
    pub fn probe() -> Host {
        Host {
            cpus_online: cpus_online(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]),
            // Only ask git inside a checkout root, so a copy of the tree
            // nested in some other repository does not report its commit.
            commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unavailable".into()
            },
        }
    }
}

/// CPUs available to this process.
pub fn cpus_online() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output; `unavailable` when the
/// command is missing or fails. `output` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
