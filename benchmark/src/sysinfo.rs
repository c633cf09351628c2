//! What the host looked like while a run measured: core count, load,
//! hypervisor steal, and this process's CPU time and peak memory.
//!
//! Everything is read from `/proc` (Linux); on a host without it the
//! readers return `None`/zero and the report says so instead of failing.

use std::fs;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuJiffies {
    total: u64,
    steal: u64,
}

impl CpuJiffies {
    /// Reads the counters now (zeros when `/proc/stat` is unavailable).
    pub fn now() -> Self {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(Self::parse))
            .unwrap_or_default()
    }

    /// Parses a `cpu  user nice system idle iowait irq softirq steal ...`
    /// line. `guest` time is already inside `user`, so only the first eight
    /// fields are summed.
    fn parse(line: &str) -> Self {
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuJiffies {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor gave to
    /// someone else while this guest wanted to run.
    pub fn steal_fraction_since(&self, earlier: &CpuJiffies) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB (1e6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has consumed: `CLOCK_PROCESS_CPUTIME_ID`.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std already links; `ts`
    // is a live, writable `struct timespec` (two 64-bit fields on every
    // 64-bit Linux target, which is what `target_pointer_width` below
    // restricts this to), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
compile_error!("kfac-bench reads CLOCK_PROCESS_CPUTIME_ID and /proc: Linux only");

#[cfg(not(target_pointer_width = "64"))]
compile_error!("kfac-bench assumes the 64-bit `struct timespec` layout");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_fraction_from_proc_stat_lines() {
        let a = CpuJiffies::parse("cpu  100 0 50 800 10 0 5 35 0 0");
        let b = CpuJiffies::parse("cpu  150 0 60 850 10 0 5 85 0 0");
        assert_eq!(a.total, 1000);
        assert_eq!(a.steal, 35);
        // 160 jiffies passed, 50 of them stolen.
        assert!((b.steal_fraction_since(&a) - 50.0 / 160.0).abs() < 1e-12);
        assert_eq!(a.steal_fraction_since(&a), 0.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let c0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let c1 = process_cpu_s();
        assert!(c1 > c0, "cpu clock did not advance: {c0} -> {c1}");
    }

    #[test]
    fn host_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
