//! Host facts read from procfs: CPU time, peak memory, child processes.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, plus those of its reaped
/// children (`utime + stime + cutime + cstime`). A TCP worker process's
/// CPU appears here once the engine that spawned it has dropped and
/// waited for it.
pub fn cpu_s() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(") ").ok_or("malformed /proc/self/stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let mut ticks = 0u64;
    for i in 11..=14 {
        ticks += f
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or("malformed /proc/self/stat")?;
    }
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: (steal,
/// all). Steal is time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().map_err(|_| "malformed /proc/stat"))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().sum()))
}

/// The share of host CPU time stolen by the hypervisor since `before`
/// (a [`host_ticks`] reading).
pub fn steal_share_since(before: (u64, u64)) -> Result<f64, String> {
    let now = host_ticks()?;
    let all = now.1.saturating_sub(before.1);
    Ok(now.0.saturating_sub(before.0) as f64 / all.max(1) as f64)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading
/// covers only what happens from here on.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Process ids whose parent is this process.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut kids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // A process can exit between the listing and the read.
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    s.rsplit_once(") ")?
                        .1
                        .split_whitespace()
                        .nth(1)?
                        .parse::<u32>()
                        .ok()
                })
                == Some(me)
        })
        .collect();
    kids.sort_unstable();
    kids
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
