//! Process-level readings: CPU time and context switches from `getrusage`
//! (microsecond resolution — `/proc/self/stat` only has 10 ms ticks), peak
//! resident set from `/proc/self/status`, and the host canary.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `struct timeval` / `struct rusage` as glibc lays them out on Linux,
/// where `time_t`, `suseconds_t` and every counter are `long`.
#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// CPU seconds and context switches of the whole process (every thread,
/// including ones that have already exited) since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub vol_ctx: u64,
    pub invol_ctx: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
        // SAFETY: `raw` points to writable memory of exactly the size and
        // layout `getrusage(2)` fills on Linux; the call has no other
        // precondition and RUSAGE_SELF is always valid.
        let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        // SAFETY: the call returned 0, so the kernel initialised every
        // field (and the buffer was zeroed beforehand regardless).
        let raw = unsafe { raw.assume_init() };
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Rusage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
            vol_ctx: raw.ru_nvcsw as u64,
            invol_ctx: raw.ru_nivcsw as u64,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_ctx: self.vol_ctx - earlier.vol_ctx,
            invol_ctx: self.invol_ctx - earlier.invol_ctx,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The host canary: a fixed multiply-accumulate kernel with nothing to do
/// with the program. Eight independent chains keep the multiplier busy the
/// way the big-integer kernels do, so it slows when a neighbour shares the
/// core — a single dependent chain waits on latency and never notices. Its
/// time says what the host was doing while an epoch ran; it is printed next
/// to the metrics and never used to adjust one.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut acc = [0x9E37_79B9_7F4A_7C15u64; 8];
    for i in 0..2_500_000u64 {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = a
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ lane as u64);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Share of the machine's CPU time since boot that the hypervisor gave to
/// someone else (`steal` in `/proc/stat`), as `(steal, total)` jiffies —
/// take it twice and divide the differences.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_advances_with_cpu_work_and_rss_is_positive() {
        let before = Rusage::now();
        let mut spins = 0;
        while Rusage::now().since(&before).cpu_s() < 0.005 {
            canary_ms();
            spins += 1;
            assert!(spins < 10_000, "CPU time never advanced");
        }
        assert!(peak_rss_mib() > 0.5);
    }
}
