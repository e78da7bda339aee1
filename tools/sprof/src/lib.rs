//! `sprof` — a sampling CPU profiler that loads into any process
//! through `LD_PRELOAD` and needs no machine setting: it acts on its
//! own process only.
//!
//! When the library loads, a constructor arms `ITIMER_PROF` (process
//! CPU time) to fire every [`PERIOD_US`] of CPU and installs a
//! `SIGPROF` handler. The kernel checks CPU timers at its scheduler
//! tick, so the rate is capped at the kernel's `CONFIG_HZ` (250 on a
//! common build); the profile records the CPU time it covers, and the
//! report prints the rate it achieved. On each tick the handler takes the interrupted program counter and walks the
//! frame-pointer chain from the interrupted `rbp`, storing the return
//! addresses in a preallocated buffer; it allocates nothing, takes no
//! lock and calls nothing but atomics. At exit a destructor disarms
//! the timer and writes `$SPROF_OUT.<pid>` (default `sprof.out.<pid>`):
//! the raw stacks in hex, leaf first, after a copy of
//! `/proc/self/maps`, so `tools/sprof/report.py` can symbolize them
//! offline with `nm` and `addr2line`. `tools/sprof/sprof.sh` builds a
//! binary with frame pointers, runs it under the profiler and prints
//! the report.
//!
//! Limits:
//! - Linux on x86-64 only; elsewhere the library loads and does
//!   nothing.
//! - Frames are walked on the main thread's stack only, whose bounds
//!   the constructor reads from `/proc/self/maps`, so no read can leave
//!   mapped memory. A sample taken on another thread keeps its leaf
//!   alone.
//! - Code built without frame pointers breaks the chain: the walk
//!   stops at the first frame pointer that does not climb the stack. A
//!   sample taken in a function's prologue skips its caller.
//! - The buffer holds [`WORDS`] words; samples beyond it are counted as
//!   dropped, not stored.
//!
//! The constructor removes `LD_PRELOAD` from the environment, so
//! processes the profiled one starts are not profiled.

/// Buffer capacity in 64-bit words: a sample takes one word for its
/// depth and one per frame. 32 MiB of address space, touched only as
/// samples fill it: about 60 000 samples of 64 frames.
pub const WORDS: usize = 1 << 22;

/// Deepest stack stored, leaf included.
pub const MAX_DEPTH: usize = 64;

/// Sampling period in microseconds of process CPU time: one sample per
/// millisecond asked, which the kernel's tick caps in practice.
pub const PERIOD_US: u64 = 1000;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
// The crate's own test binary leaves the constructor and destructor
// out, and with them every caller of what they use.
#[cfg_attr(test, allow(dead_code))]
mod imp {
    use super::{MAX_DEPTH, PERIOD_US, WORDS};
    use std::ffi::{c_int, c_long, c_void};
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;

    /// Byte offset of `uc_mcontext.gregs` in glibc's x86-64
    /// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `stack_t`
    /// come first.
    const GREGS: usize = 40;
    /// `REG_RBP` and `REG_RIP` in `gregs`.
    const REG_RBP: usize = 10;
    const REG_RIP: usize = 16;

    /// How far below the main stack's top the stack may reach and
    /// still be taken for it. Thread stacks are mapped below the
    /// mmap base, which the kernel keeps at least 128 MiB under it.
    const MAIN_STACK_SPAN: u64 = 64 << 20;

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        action: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    /// CPU time the process has used, in nanoseconds.
    fn cpu_ns() -> i64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `timespec`.
        unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        ts.sec * 1_000_000_000 + ts.nsec
    }

    static BUF: [AtomicU64; WORDS] = [const { AtomicU64::new(0) }; WORDS];
    /// Next free word of `BUF`; may run past `WORDS` once it is full.
    static CURSOR: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    /// Top (highest address) of the main thread's stack; 0 if unknown.
    static STACK_HI: AtomicU64 = AtomicU64::new(0);
    /// Process CPU time when the timer was armed, ns.
    static CPU_START: AtomicU64 = AtomicU64::new(0);

    /// The `SIGPROF` handler: async-signal-safe, it touches only its
    /// own stack frame, the stack it walks and atomics.
    extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
        let mut frames = [0u64; MAX_DEPTH];
        // SAFETY: with SA_SIGINFO the kernel passes a valid
        // `ucontext_t` as the third argument, and on x86-64 glibc its
        // general registers start at byte GREGS.
        let (pc, mut fp) = unsafe {
            let gregs = ctx.cast::<u8>().add(GREGS).cast::<u64>();
            (gregs.add(REG_RIP).read(), gregs.add(REG_RBP).read())
        };
        frames[0] = pc;
        let mut depth = 1;
        // This frame lies on the interrupted thread's stack, below
        // every frame the walk reads.
        let here = std::ptr::addr_of!(frames) as u64;
        let hi = STACK_HI.load(Relaxed);
        if here < hi && hi - here < MAIN_STACK_SPAN {
            while depth < MAX_DEPTH && fp > here && fp % 8 == 0 && fp + 16 <= hi {
                // SAFETY: `[here, hi)` is the live part of the main
                // thread's stack, mapped and readable, and the two
                // aligned words at `fp` lie inside it.
                let (next, ret) =
                    unsafe { ((fp as *const u64).read(), ((fp + 8) as *const u64).read()) };
                if ret == 0 {
                    break;
                }
                frames[depth] = ret;
                depth += 1;
                if next <= fp {
                    break;
                }
                fp = next;
            }
        }
        let at = CURSOR.fetch_add(depth + 1, Relaxed);
        if at + depth + 1 > WORDS {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        BUF[at].store(depth as u64, Relaxed);
        for (k, &f) in frames[..depth].iter().enumerate() {
            BUF[at + 1 + k].store(f, Relaxed);
        }
    }

    /// The main stack's top, from the `[stack]` line of
    /// `/proc/self/maps`.
    fn main_stack_top() -> Option<u64> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        let line = maps.lines().find(|l| l.ends_with("[stack]"))?;
        let range = line.split_whitespace().next()?;
        u64::from_str_radix(range.split_once('-')?.1, 16).ok()
    }

    /// Arms the timer every `usec` of CPU, or disarms it at 0.
    fn set_timer(usec: c_long) {
        let tick = Timeval { sec: 0, usec };
        let it = Itimerval { interval: Timeval { sec: 0, usec }, value: tick };
        // SAFETY: `it` is a valid `itimerval`; the old value is not
        // asked for.
        unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
    }

    extern "C" fn start() {
        std::env::remove_var("LD_PRELOAD");
        STACK_HI.store(main_stack_top().unwrap_or(0), Relaxed);
        let act = SigAction {
            action: on_sigprof as extern "C" fn(c_int, *mut c_void, *mut c_void) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a valid glibc `struct sigaction` whose
        // handler has the SA_SIGINFO signature.
        if unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) } == 0 {
            CPU_START.store(cpu_ns() as u64, Relaxed);
            set_timer(PERIOD_US as c_long);
        }
    }

    extern "C" fn finish() {
        set_timer(0);
        let cpu = cpu_ns() as u64 - CPU_START.load(Relaxed);
        let path = format!(
            "{}.{}",
            std::env::var("SPROF_OUT").unwrap_or_else(|_| "sprof.out".into()),
            std::process::id()
        );
        if let Err(e) = write_out(&path, cpu) {
            eprintln!("sprof: cannot write {path}: {e}");
        }
    }

    fn write_out(path: &str, cpu_ns: u64) -> std::io::Result<()> {
        let end = CURSOR.load(Relaxed).min(WORDS);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let exe = std::fs::read_link("/proc/self/exe")?;
        writeln!(out, "sprof 1")?;
        writeln!(out, "exe {}", exe.display())?;
        writeln!(out, "cpu_ns {cpu_ns}")?;
        writeln!(out, "dropped {}", DROPPED.load(Relaxed))?;
        writeln!(out, "maps")?;
        out.write_all(std::fs::read_to_string("/proc/self/maps")?.as_bytes())?;
        writeln!(out, "stacks")?;
        let mut at = 0;
        while at < end {
            let depth = BUF[at].load(Relaxed) as usize;
            // A reservation the handler never filled reads as depth 0.
            if depth == 0 || at + 1 + depth > end {
                break;
            }
            for (k, w) in BUF[at + 1..at + 1 + depth].iter().enumerate() {
                let sep = if k == 0 { "" } else { " " };
                write!(out, "{sep}{:x}", w.load(Relaxed))?;
            }
            writeln!(out)?;
            at += 1 + depth;
        }
        out.flush()
    }

    // Not in the crate's own test binary, which must not profile
    // itself.
    #[cfg(not(test))]
    #[used]
    #[link_section = ".init_array"]
    static START: extern "C" fn() = start;

    #[cfg(not(test))]
    #[used]
    #[link_section = ".fini_array"]
    static FINISH: extern "C" fn() = finish;

    #[cfg(test)]
    mod tests {
        #[test]
        fn the_main_stack_top_lies_above_this_frame() {
            // Test threads are not the main thread, but every stack in
            // the process lies below the main stack's top.
            let top = super::main_stack_top().expect("a [stack] mapping");
            let here = 0u8;
            assert!(std::ptr::addr_of!(here) as u64 <= top);
        }
    }
}
