//! The host clock and the counting allocator.
//!
//! Storage time in this repository is *data* (`SimDuration`), so latency
//! lives on the virtual clock and repeats under a seed. CPU is real. Wall
//! time on a small shared box drifts with whatever else runs, so every host
//! metric is taken from the process CPU clock over several identical passes,
//! reported as their lower quartile (see `stats::lower_quartile`), and
//! expressed in reference time (see [`reference_scale`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_os = "macos")]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 12;
#[cfg(not(target_os = "macos"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has consumed, all threads, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call (two 64-bit fields on every 64-bit Unix libc), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Run `f` and return its result with the process CPU nanoseconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = process_cpu_ns();
    let out = f();
    (out, process_cpu_ns().saturating_sub(start))
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Global allocator that counts what passes through it; `resident_mb`,
/// `allocs_per_query` and `alloc_bytes_per_query` come from here.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        out
    }
}

/// A reading of the allocator counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// Allocations (and reallocations) made so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently held.
    pub live: u64,
}

/// Read the allocator counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    let bytes = ALLOC_BYTES.load(Relaxed);
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes,
        live: bytes.saturating_sub(FREED_BYTES.load(Relaxed)),
    }
}

/// CPU time the reference kernel takes on this box when nothing else runs.
const REFERENCE_NOMINAL_NS: f64 = 3.7e6;

static REFERENCE_SAMPLES: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());

/// One run of the reference kernel: a fixed piece of integer and
/// random-access memory work over a 2 MiB table.
fn reference_kernel_ns() -> u64 {
    let mut table = vec![0u64; 1 << 18];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    cpu_timed(|| {
        for _ in 0..1_500_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x >> 40) as usize & ((1 << 18) - 1);
            table[i] = table[i].wrapping_add(x).rotate_left(9);
        }
        std::hint::black_box(&table);
    })
    .1
}

/// Forget the reference samples taken so far (a new workload starts).
pub fn reset_reference() {
    REFERENCE_SAMPLES
        .lock()
        .expect("reference samples lock")
        .clear();
}

/// Sample how fast this box is right now: five samples, each the fastest
/// of three runs of the reference kernel (~60 ms in all). Called before
/// every timed pass and every set-up.
pub fn sample_reference() {
    let mut samples = REFERENCE_SAMPLES.lock().expect("reference samples lock");
    for _ in 0..5 {
        let ns = (0..3).map(|_| reference_kernel_ns()).min().unwrap_or(0);
        samples.push(ns as f64);
    }
}

/// What a host time measured in this run is multiplied by to express it in
/// *reference time*: the nominal time of the reference kernel over the
/// lower quartile of the samples taken during the run (1 when none were
/// taken) — the same estimator the host metrics themselves use, since
/// interference only ever adds time to either.
///
/// This shared 2-vCPU VM runs everything — set-up, builds, queries, the
/// reference kernel alike — 20–30 % slower for minutes at a time and then
/// recovers; identical passes inside one run cannot see that, two runs ten
/// minutes apart do. Dividing by how slow the box was while the run
/// measured takes most of that drift out (three scatter-segments runs: raw
/// 401, 410, 310 us/query; scaled 70.4, 77.6, 73.1 per reference ms).
pub fn reference_scale() -> (f64, usize) {
    let samples = REFERENCE_SAMPLES.lock().expect("reference samples lock");
    if samples.is_empty() {
        return (1.0, 0);
    }
    let typical = crate::stats::lower_quartile(&samples);
    (REFERENCE_NOMINAL_NS / typical.max(1.0), samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_work() {
        let (sum, ns) = cpu_timed(|| (0..2_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
        std::hint::black_box(sum);
        assert!(ns > 0);
    }

    #[test]
    fn allocator_counts_a_held_buffer() {
        let before = alloc_snapshot();
        let held = std::hint::black_box(vec![7u8; 1 << 20]);
        let during = alloc_snapshot();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes - before.bytes >= 1 << 20);
        drop(held);
    }
}
