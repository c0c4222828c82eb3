//! Host measurements: CPU time, peak memory, clock cost and batch timing.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Process CPU time (user + system, every thread), in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and `clock` is one of
    // the CPU-time clock ids Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Worker threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a span (two clock reads) costs the code around it, in ns: the
/// median over batches of empty spans.
pub fn clock_pair_ns() -> f64 {
    const BATCHES: usize = 31;
    const SPANS: u32 = 20_000;
    let per_span: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SPANS {
                black_box(Instant::now().elapsed());
            }
            start.elapsed().as_nanos() as f64 / f64::from(SPANS)
        })
        .collect();
    proteus_stats::median(&per_span).expect("at least one batch")
}

/// Mean seconds per call of `f` over one batch of back-to-back calls
/// lasting at least `min`. A call too short to time alone (a set-up takes
/// microseconds) is timed in a batch, so that neither the clock's own cost
/// nor one stall decides the figure.
pub fn batch_mean(min: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= min {
            return elapsed.as_secs_f64() / f64::from(calls);
        }
    }
}

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    /// A hasher in its initial state.
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Hash of `value`'s full `Debug` rendering, streamed so that large
/// results are never held in memory as text.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_last_at_least_their_minimum() {
        let mut calls = 0;
        let mean = batch_mean(Duration::from_millis(2), || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(100));
        });
        assert!(calls > 1);
        assert!(mean * f64::from(calls) >= 0.002);
    }

    #[test]
    fn digest_separates_values() {
        assert_eq!(debug_digest(&(1, "a")), debug_digest(&(1, "a")));
        assert_ne!(debug_digest(&(1, "a")), debug_digest(&(1, "b")));
    }

    #[test]
    fn cpu_clocks_advance() {
        let p0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = black_box(x.wrapping_add(i * i));
        }
        black_box(x);
        assert!(process_cpu_s() > p0);
        assert!(peak_rss_mb() > 0.0);
    }
}
