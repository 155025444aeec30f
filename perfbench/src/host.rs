//! Host-side clocks: wall time, on-CPU time of the whole process, and peak
//! resident memory.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time consumed by every thread
/// of the process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// On-CPU nanoseconds of all the process's threads so far.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) that outlives the call; the clock id is a constant Linux
    // defines, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of the process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 * 1024.0 / 1e6
}

/// A wall + CPU stopwatch.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// `(wall ns, cpu ns)` since [`Stopwatch::start`].
    pub fn read(&self) -> (u64, u64) {
        (
            self.wall.elapsed().as_nanos() as u64,
            cpu_ns().saturating_sub(self.cpu),
        )
    }
}
