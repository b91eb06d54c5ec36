//! A live-bytes meter under the global allocator, switched on for one
//! untimed epoch per run.
//!
//! Resident-set size cannot gate this program's memory: with a thread per
//! fold, glibc scatters the heap over per-thread arenas, and what stays
//! resident differed by up to a third between runs of identical work. What
//! the program *asks for* repeats to a few KiB: while the meter is on, every
//! allocation adds its size to a live-bytes counter whose high-water mark
//! is the reading. Off — as it is for every timed epoch — the allocator
//! costs one relaxed load of a flag that nothing writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

struct Meter;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the meter was switched on
/// (negative when the epoch frees what set-up allocated).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn moved(by: isize) {
    if ON.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        if by > 0 {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on plain atomics, so `System`'s own
// guarantees carry over.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        moved(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Meter = Meter;

/// Runs `f` with the meter on and returns its result with the most bytes
/// that were live at once, beyond what was live when it started, in MiB —
/// over every thread of the process.
pub fn peak_growth_mib<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_is_the_most_live_at_once_not_the_total() {
        // Other tests allocate concurrently, so only a floor is exact.
        let ((), peak) = peak_growth_mib(|| {
            for _ in 0..4 {
                let block = vec![1u8; 8 << 20];
                std::hint::black_box(&block);
            }
        });
        assert!(peak >= 8.0, "{peak}");
        let ((), peak) = peak_growth_mib(|| {
            let a = vec![1u8; 8 << 20];
            let b = vec![1u8; 8 << 20];
            std::hint::black_box((&a, &b));
        });
        assert!(peak >= 16.0, "{peak}");
    }
}
