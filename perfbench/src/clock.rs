//! A cheap monotonic tick counter for the traced run's decorators, and
//! the calibration that turns ticks into nanoseconds.
//!
//! On x86-64 the decorators read the time-stamp counter (a few ns per
//! read, against ~20 ns for `Instant::now`), so timing every patient,
//! controller and monitor call perturbs the loop as little as possible.
//! Elsewhere they fall back to `Instant`.

use std::sync::OnceLock;
use std::time::Instant;

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Current tick count.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no memory effects; every x86-64 CPU has it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        origin().elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured once against `Instant` over 50 ms.
pub fn ns_per_tick() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let _ = origin();
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        let (dt, dc) = (t0.elapsed().as_nanos() as f64, ticks().wrapping_sub(c0));
        dt / (dc.max(1) as f64)
    })
}

/// Converts a tick count to seconds.
pub fn secs(ticks: u64) -> f64 {
    ticks as f64 * ns_per_tick() * 1e-9
}

/// Cost in ticks of one timed call: the share of decorator overhead
/// that lands *inside* a measured interval (`inner`) and the whole
/// per-call cost (`total`). Used to compensate layer times for the
/// instrumentation itself.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Ticks a timed interval reads beyond the work inside it.
    pub inner: f64,
    /// Ticks one timed call adds in all.
    pub total: f64,
}

/// A short dependent chain of floating-point work (~100 cycles), so the
/// timer reads overlap with real work the way they do in the decorators.
#[inline(never)]
fn work(x: f64) -> f64 {
    let mut y = x;
    for _ in 0..16 {
        y = y * 1.000_000_1 + 1e-9;
    }
    y
}

/// Measures [`Overhead`]: the same work with and without a timer pair
/// around each call (median of several batches).
pub fn overhead() -> Overhead {
    const N: u64 = 20_000;
    let mut inner = Vec::new();
    let mut total = Vec::new();
    for _ in 0..9 {
        let mut y = std::hint::black_box(1.0);
        let start = ticks();
        for _ in 0..N {
            y = work(y);
        }
        let plain = ticks().wrapping_sub(start);
        let mut measured = 0u64;
        let start = ticks();
        for _ in 0..N {
            let t = ticks();
            y = work(y);
            measured = measured.wrapping_add(ticks().wrapping_sub(t));
        }
        let timed = ticks().wrapping_sub(start);
        std::hint::black_box(y);
        inner.push((measured as f64 - plain as f64).max(0.0) / N as f64);
        total.push((timed as f64 - plain as f64).max(0.0) / N as f64);
    }
    Overhead {
        inner: crate::stats::median(&inner),
        total: crate::stats::median(&total),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, over all its threads (live and
/// exited), with nanosecond resolution. On a virtual machine with steal
/// accounting this excludes the time the hypervisor gave the CPU to
/// another guest.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time plus the guest's steal counter, which explains
/// wall-time noise on a virtual machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuClock {
    /// CPU seconds of this process ([`process_cpu_s`]).
    pub process_s: f64,
    /// Steal seconds summed over every CPU of the guest (`/proc/stat`;
    /// 0 elsewhere).
    pub steal_s: f64,
}

impl CpuClock {
    /// Reads both counters now.
    pub fn now() -> CpuClock {
        const USER_HZ: f64 = 100.0;
        let steal_s = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?;
                cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
            })
            .map_or(0.0, |t| t / USER_HZ);
        CpuClock {
            process_s: process_cpu_s(),
            steal_s,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: CpuClock) -> CpuClock {
        CpuClock {
            process_s: self.process_s - earlier.process_s,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }
}
