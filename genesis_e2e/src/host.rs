//! Host-side probes owned by the benchmark: a counting global allocator,
//! `/proc/self` readers for peak RSS and CPU time, the one-CPU pin, and
//! the `GENESIS_*` environment scrub.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator since process start (all threads).
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus a running total of requested bytes. The total is a
/// statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter update.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: a vector doubling up to n bytes requests n in total.
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's responsibility as for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested so far, process-wide.
pub fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU time of this process in microseconds (all threads),
/// from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks * 10_000)
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis, where utime/stime are the 12th and 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Restricts the process — and every thread it starts later — to one of
/// the CPUs it may run on (the highest-numbered), and returns which. The
/// workloads are closed loops of one client on one device with one host
/// thread, so client, scheduler and device worker never have work at the
/// same moment and nothing is lost; what is gained is that the
/// calibration kernel runs on the very CPU the product's threads run on.
/// On a shared host the CPUs of one guest are disturbed by different
/// neighbours, and a kernel timed on one says little about work done on
/// the other. Must run before any thread starts.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes naming a CPU the
    // thread is already allowed on.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Removes every `GENESIS_*` variable so no knob of the caller's shell
/// reaches the product. Must run before any thread starts.
pub fn scrub_genesis_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GENESIS_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   20480 kB\n"),
            Some(20480)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pins_to_a_cpu_the_thread_may_run_on() {
        let cpu = pin_to_one_cpu().expect("affinity calls succeed on Linux");
        // Pinned already, so the only CPU left is the same one.
        assert_eq!(pin_to_one_cpu(), Some(cpu));
    }

    #[test]
    fn allocator_counts_requested_bytes() {
        let before = alloc_bytes();
        let v = std::hint::black_box(vec![0u8; 1 << 20]);
        assert!(alloc_bytes() - before >= 1 << 20);
        drop(v);
    }
}
