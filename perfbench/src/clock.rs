//! The clock of the set-up and pass timings: this thread's CPU time.
//!
//! The benchmark runs on one thread, so the time that thread spends on a
//! CPU is the host time a set-up or pass costs. Wall time also counts the
//! time the thread waits to run, which on a shared virtual machine
//! includes time the host deschedules its virtual CPU; that moves
//! wall-clock medians by a fifth between runs of the same input. Where
//! the kernel exposes no per-thread CPU time, wall time is used.
//! Per-layer spans are short and many, so they keep the monotonic wall
//! clock of [`std::time::Instant`].

use std::time::Instant;

/// Nanoseconds this thread has run on a CPU (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the C library
    // std links against provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Which clock [`Stopwatch`] reads on this host.
pub fn source() -> &'static str {
    if thread_cpu_ns().is_some() {
        "thread CPU time"
    } else {
        "wall time"
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed_ms(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(start), Some(now)) => now.saturating_sub(start) as f64 / 1e6,
            _ => self.wall.elapsed().as_secs_f64() * 1e3,
        }
    }
}
