//! The tests' one counting allocator: the system allocator wrapped in
//! per-thread counters of heap acquisitions, the bytes they asked for,
//! and live bytes.
//!
//! `mod common;` installs it for the whole test binary. The counters
//! belong to the thread that allocates, so a test reads only its own
//! work and tests in one binary may run side by side on the harness's
//! threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread has allocated: running totals, or the difference
/// across a window (see [`count`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Heap acquisitions: `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those acquisitions asked for; a `realloc` counts its new
    /// size.
    pub bytes: u64,
    /// Bytes allocated minus bytes freed; negative across a window that
    /// freed more than it allocated.
    pub live: i64,
}

thread_local! {
    // A `const` initialiser and `Copy` contents: no lazy init and no
    // destructor to register, so touching the counter never allocates.
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0, live: 0 }) };
}

fn bump(allocs: u64, bytes: usize, live: i64) {
    COUNTS.with(|c| {
        let n = c.get();
        c.set(Counts {
            allocs: n.allocs + allocs,
            bytes: n.bytes + bytes as u64,
            live: n.live + live,
        });
    });
}

/// This thread's counts so far.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// What this thread allocated while running `f`, with `f`'s result.
pub fn count<R>(f: impl FnOnce() -> R) -> (Counts, R) {
    let before = counts();
    let r = f();
    let after = counts();
    let spent = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
    };
    (spent, r)
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counters are a
// thread-local `Cell` and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump(1, l.size(), l.size() as i64);
        // SAFETY: `l` is the caller's layout, passed through.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        bump(0, 0, -(l.size() as i64));
        // SAFETY: `p` came from `System` with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump(1, l.size(), l.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump(1, n, n as i64 - l.size() as i64);
        // SAFETY: `p` came from `System` with layout `l`; `n` is the
        // caller's new size.
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;
