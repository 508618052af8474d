//! What the harness reads from, and pins in, the operating system.

/// Pins glibc malloc so every run places memory the same way.
///
/// The device threads of the threaded runtime attach to malloc's
/// secondary arenas, whose trim policy returns large frees to the kernel
/// at once; the next step then faults the pages back in, which shows as
/// several percent of run-to-run noise on a two-core box. One arena and
/// raised trim/mmap thresholds keep hot pages committed. (The same block
/// as `partir_bench::tune_allocator_for_benchmarks`, copied so the
/// benchmark does not depend on the bench crate.) A no-op off glibc.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        const KEEP: i32 = 128 * 1024 * 1024;
        // SAFETY: mallopt only sets allocator parameters; it takes two
        // plain integers, touches no memory of ours and may be called at
        // any time.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_TRIM_THRESHOLD, KEEP);
            mallopt(M_MMAP_THRESHOLD, KEEP);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// has no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of the `/proc` CPU counters: USER_HZ, which is
/// 100 on every Linux port.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads; 0
/// where `/proc` does not say.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name, which may itself hold spaces and so is skipped by its ')'.
    let ticks = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let (_, after) = stat.rsplit_once(')')?;
        let mut fields = after.split_whitespace().skip(11);
        let user: u64 = fields.next()?.parse().ok()?;
        let system: u64 = fields.next()?.parse().ok()?;
        Some(user + system)
    };
    ticks().map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// Seconds the calling thread has spent runnable but waiting for a core
/// (second field of its `schedstat`, nanoseconds).
pub fn runq_wait_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Cores the process may use; shares of CPU are reported against it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
