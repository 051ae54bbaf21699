//! Process resource probes (peak resident memory, process CPU time) and
//! a private anonymous mapping outside the allocator.

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far (including
/// threads that have exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A zero-filled private anonymous mapping of `len` elements of `T`,
/// mapped by the kernel directly (not by the allocator) and never
/// unmapped. `T` must be valid when all-zero and need at most page
/// alignment.
pub fn map_zeroed<T: Copy>(len: usize) -> &'static mut [T] {
    let bytes = len * std::mem::size_of::<T>();
    assert!(std::mem::align_of::<T>() <= 4096, "page alignment suffices");
    // SAFETY: a fresh private anonymous mapping aliases nothing; the
    // arguments are constants mmap accepts.
    let ptr = unsafe {
        mmap(
            std::ptr::null_mut(),
            bytes,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(
        !ptr.is_null() && ptr as isize != -1,
        "mmap of {bytes} bytes failed"
    );
    // SAFETY: the mapping is `bytes` long, page-aligned, zero-filled
    // (a valid `T` per this function's contract), never unmapped and
    // handed out only here.
    unsafe { std::slice::from_raw_parts_mut(ptr.cast::<T>(), len) }
}
