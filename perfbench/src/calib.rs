//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host the speed of identical work drifts by 10–35% over
//! seconds to minutes, as neighbours contend for the same cores, caches
//! and memory. No run length averages that away: runs minutes apart
//! measure different hosts. So an untraced run times a fixed kernel,
//! owned by the benchmark and independent of the program, right after
//! every [`CALIBRATE_EVERY`] of measured work, and scales that work's
//! wall time by [`REFERENCE_MS`] over the kernel's time. Every reported
//! time is thus the time at one reference host speed: the kernel and the
//! program slow down together, so the ratio stays put while a change to
//! the program still moves it in full.
//!
//! The kernel fills a kept buffer of 32-byte records and sorts it: plain
//! memory writes, the load of schedule materialization and column
//! repair, which slow when neighbours contend for caches and memory
//! bandwidth. Interleaved with `offline_paper_1024` requests, the
//! per-request ratio to this kernel (on a buffer allocated afresh each
//! run) spread 3.5% across 15-s windows where the raw latency spread 27%
//! (a compute kernel's ratio: 21%); with `offline_large_n_65k` requests,
//! the ratio to this kept-buffer kernel spread 3–5% against 20–22%.
//!
//! Figure 10 is not calibrated. Its trials are solver-bound
//! floating-point work on tiny instances, on two workers; across
//! sweeps, the ratio of sweep time to this kernel spread 24% and to a
//! two-thread compute kernel 12%, against 10% for the raw sweep time.

use crate::stats::median;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel's wall time at the reference host speed, ms. A fixed
/// convention: on the 2-vCPU host the benchmark was tuned on, the kernel
/// took 4–6 ms between operations, so scaled times are of the order of
/// wall times there.
pub const REFERENCE_MS: f64 = 4.0;

/// Measured work between two kernel runs.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// Kernel runs on each side of a block whose median scales it: one run
/// is as noisy as the operations, and the host drifts over seconds, so
/// the neighbours of a block still see its host.
pub const SMOOTHING: usize = 4;

const KERNEL_RECORDS: usize = 400_000;

type Record = (f64, f64, f64, u32);

/// The kernel's buffer of 32-byte records. It is mapped directly, not
/// taken from the allocator, on the kernel's first run and kept: so the
/// kernel's time does not depend on the allocator state the program
/// leaves behind, and the buffer neither changes how the program's
/// memory is laid out nor shares pages with it.
static RECORDS: Mutex<Option<&'static mut [Record]>> = Mutex::new(None);

/// Run the calibration kernel once (fill the buffer, then sort it); its
/// wall time in ms.
pub fn kernel_ms() -> f64 {
    let mut guard = RECORDS.lock().expect("kernel buffer lock");
    let records = guard.get_or_insert_with(|| crate::sys::map_zeroed(KERNEL_RECORDS));
    let t = Instant::now();
    let mut sum = 0.0f64;
    for (i, r) in records.iter_mut().enumerate() {
        let a = i as f64 * 0.37;
        sum += a.sqrt();
        *r = (a, a + 1.0, sum, i as u32 & 7);
    }
    records.sort_unstable_by(|x, y| y.2.total_cmp(&x.2).then(x.3.cmp(&y.3)));
    std::hint::black_box(&*records);
    t.elapsed().as_secs_f64() * 1e3
}

/// Resident memory of the kernel's buffer, MiB, once the kernel has run
/// (0 before). Every page of it is written on each run and never
/// released, so from the first run on it adds exactly this much to the
/// process's resident memory.
pub fn resident_mb() -> f64 {
    let guard = RECORDS.lock().expect("kernel buffer lock");
    guard.as_ref().map_or(0.0, |r| {
        std::mem::size_of_val(&**r) as f64 / (1024.0 * 1024.0)
    })
}

/// The factor that takes a time measured next to a kernel run of
/// `kernel` ms to the reference host speed.
pub fn to_reference(kernel: f64) -> f64 {
    REFERENCE_MS / kernel
}

/// Operation latencies, scaled to the reference host speed in blocks of
/// at least [`CALIBRATE_EVERY`] of work. The kernel runs after each block;
/// the block is scaled by the median of its own kernel run and the
/// [`SMOOTHING`] runs on each side. When off (traced runs), times pass
/// through unscaled and no kernel runs.
#[derive(Debug)]
pub struct Calibrated {
    on: bool,
    pending_ms: Vec<f64>,
    pending: Duration,
    /// Per block: its latencies, its wall time and the kernel's time.
    blocks: Vec<(Vec<f64>, Duration, f64)>,
}

impl Calibrated {
    /// An empty record; `on` selects calibration.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            pending_ms: Vec::new(),
            pending: Duration::ZERO,
            blocks: Vec::new(),
        }
    }

    /// Record one operation that took `d`.
    pub fn op(&mut self, d: Duration) {
        self.block(&[d.as_secs_f64() * 1e3], d);
    }

    /// Record a block of operations with these latencies, which together
    /// took `wall` (less than their sum when they ran in parallel).
    pub fn block(&mut self, latencies_ms: &[f64], wall: Duration) {
        self.pending_ms.extend_from_slice(latencies_ms);
        self.pending += wall;
        if self.pending >= CALIBRATE_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending_ms.is_empty() {
            return;
        }
        let k = if self.on { kernel_ms() } else { REFERENCE_MS };
        self.blocks
            .push((std::mem::take(&mut self.pending_ms), self.pending, k));
        self.pending = Duration::ZERO;
    }

    /// Operations recorded so far.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.0.len()).sum::<usize>() + self.pending_ms.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scale every block; return the latencies in ms, their total wall
    /// time in ms, and the kernel times, all in record order.
    pub fn finish(mut self) -> (Vec<f64>, f64, Vec<f64>) {
        self.flush();
        let kernels: Vec<f64> = self.blocks.iter().map(|b| b.2).collect();
        let mut latencies_ms = Vec::with_capacity(self.len());
        let mut measured_ms = 0.0;
        for ((lat, wall, _), f) in self.blocks.iter().zip(reference_factors(&kernels)) {
            latencies_ms.extend(lat.iter().map(|l| l * f));
            measured_ms += wall.as_secs_f64() * 1e3 * f;
        }
        let kernels = if self.on { kernels } else { Vec::new() };
        (latencies_ms, measured_ms, kernels)
    }
}

/// Per block, the factor to the reference host speed: [`to_reference`]
/// of the median of the block's kernel time and the [`SMOOTHING`] kernel
/// times on each side.
pub fn reference_factors(kernels: &[f64]) -> Vec<f64> {
    (0..kernels.len())
        .map(|i| {
            let window =
                &kernels[i.saturating_sub(SMOOTHING)..(i + SMOOTHING + 1).min(kernels.len())];
            to_reference(median(window))
        })
        .collect()
}
