//! Facts read from `/proc`: the machine fingerprint, steal time, and a
//! process's peak resident set.

use std::process::Command;

pub struct Fingerprint {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
}

pub fn fingerprint() -> Fingerprint {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |k| k.trim().to_string());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
        kernel,
    }
}

/// Steal ticks summed over all CPUs (the 8th field of `/proc/stat`'s
/// `cpu` line); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `VmHWM` of a process in MB (`"self"` for this one).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Pins this process to `cpu` with `taskset`; false when that is not
/// possible (one CPU, or no `taskset`).
pub fn pin_self(cpu: usize) -> bool {
    Command::new("taskset")
        .args([
            "-a",
            "-pc",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .output()
        .is_ok_and(|o| o.status.success())
}
