//! Process and machine measurements (Linux only): CPU time, peak resident
//! set size, hypervisor steal and the speed of a reference task.
//!
//! The benchmark runs on shared virtual machines, where two things outside
//! the program move every timing by tens of percent from one run to the
//! next: the hypervisor withholding CPU time (steal), and the host core
//! running slower or faster with its neighbours' load. Timings are therefore
//! reported net of steal and, where the workload slows with the host the way
//! the reference task does, at a fixed reference speed; both factors are
//! measured around each timed interval.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU clocks and /proc; build it on 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` laid out as the C library
    // expects on 64-bit Linux, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system CPU time of the whole process, all threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Busy and stolen CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// user + nice + system + irq + softirq.
    busy: u64,
    /// Time the hypervisor ran something else while a virtual CPU wanted to
    /// run.
    steal: u64,
}

impl Ticks {
    /// The machine's counters now.
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        Ticks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time the machine wanted since `earlier` that the
    /// hypervisor withheld: 0 on an unshared host.
    pub fn steal_share_since(&self, earlier: &Ticks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        if busy + steal == 0.0 {
            0.0
        } else {
            steal / (busy + steal)
        }
    }
}

/// CPU seconds the reference task takes at the reference speed. Timings are
/// reported at that speed: a measured interval is scaled by
/// `REFERENCE_SECS / t`, where `t` is the task's CPU time measured around
/// the interval.
pub const REFERENCE_SECS: f64 = 0.016;

/// The host's speed now: `REFERENCE_SECS` over the median CPU time of
/// three runs of the reference task (CPU time, so steal does not count).
///
/// The task is the standard library sorting a fixed set of 262,144
/// pseudo-random pairs. It runs none of the program's code, so no change to
/// the program moves it, while a slower or faster host core moves it and the
/// program alike. Its 4 MB are allocated only while it runs, between timed
/// intervals, so they do not raise the program's peak memory.
pub fn reference_speed() -> f64 {
    let mut times = [0.0; 3];
    for time in &mut times {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut pairs: Vec<(u64, u64)> = (0..262_144u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x, i)
            })
            .collect();
        let before = thread_cpu();
        pairs.sort_unstable();
        std::hint::black_box(&pairs);
        *time = thread_cpu().saturating_sub(before).as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    REFERENCE_SECS / times[1].max(1e-6)
}
