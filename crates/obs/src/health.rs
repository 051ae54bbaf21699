//! Streaming health & SLO layer: windowed quantile sketches, a
//! declarative [`SloPolicy`], and the anomaly-watchdog state machine the
//! online engine reports into.
//!
//! The [`crate::metrics`] registry answers *how much work the process has
//! done so far* — cumulative counters that never forget. A service
//! operator asks a different question: *is this engine healthy right
//! now?* That needs sliding-window aggregates (replan latency p99 over
//! the last ten seconds, not since boot) and a policy that turns them
//! into alertable state. This module supplies both:
//!
//! * [`WindowedSketch`] — a lock-free sliding-window quantile sketch: a
//!   ring of fixed-width sub-windows, each a log-linear histogram of
//!   atomic cells (16 linear sub-buckets per power-of-two octave, so a
//!   quantile estimate lands in the same bucket as the exact
//!   nearest-rank value and is therefore within **1/16 relative error**).
//!   Sub-windows rotate by CAS on a window label; recording is a handful
//!   of relaxed atomic adds, mergeable reads are seqlock-checked.
//! * [`WindowedCounter`] — the same ring machinery for plain windowed
//!   sums (event rates, fallback counts, repaired-column totals).
//! * [`SloPolicy`] / [`HealthMonitor`] — per-window evaluation of the
//!   live stream against declarative budgets (replan p99, energy-regret
//!   ceiling, fallback-rate ceiling, heartbeat staleness). Breaches are
//!   emitted as structured [`HealthEvent`]s on the **rising edge** (a
//!   latched breach does not re-fire every window), recorded into the
//!   flight recorder, and drive a Healthy ⇄ Degraded state machine that
//!   recovers after [`SloPolicy::recover_after`] consecutive clean
//!   windows. [`HealthMonitor::report`] stamps the whole history as a
//!   [`HealthReport`] JSON artifact following the run-report conventions
//!   (git SHA + version header, stable key order).
//!
//! Every observation and evaluation method has an explicit-timestamp
//! `_at` variant so tests and fault-injection harnesses drive the clock
//! deterministically; the convenience wrappers use the process-monotonic
//! [`now_ns`].
//!
//! ## Concurrency contract
//!
//! Writers never block: rotation is a single CAS (the loser of a
//! rotation race spins only while the winner zeroes one sub-window).
//! Readers merge sub-windows under a label re-check, so a sub-window
//! rotated mid-read is skipped rather than reported torn. A thread
//! stalled for longer than a full window may have its sample dropped or
//! attributed to a fresh sub-window — acceptable for operational
//! telemetry, same stance as the flight recorder.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Sub-buckets per power-of-two octave (16 → quantile estimates carry at
/// most 1/16 ≈ 6.25% relative value error).
const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Total log-linear buckets covering the full `u64` range.
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BUCKET_BITS as usize + 1);
/// Sub-window label value meaning "a writer is zeroing this sub-window".
const CLEARING: u64 = u64::MAX;

fn clock_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the health clock's process origin.
#[inline]
pub fn now_ns() -> u64 {
    // `| 1` keeps the clock strictly positive so 0 stays a valid "never"
    // sentinel (see `NO_HEARTBEAT`); a 1 ns bias is far below sub-window
    // granularity.
    (clock_origin().elapsed().as_nanos().min(u64::MAX as u128) as u64) | 1
}

/// Log-linear bucket index of `value`: exact below [`SUB_BUCKETS`], then
/// 16 linear sub-buckets per octave.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (value >> shift) & (SUB_BUCKETS - 1);
        ((msb - SUB_BUCKET_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < SUB_BUCKETS {
        (i, i)
    } else {
        let group = i / SUB_BUCKETS; // ≥ 1
        let sub = i % SUB_BUCKETS;
        let shift = (group - 1) as u32;
        let lo = (SUB_BUCKETS + sub) << shift;
        let width = 1u64 << shift;
        (lo, lo + (width - 1))
    }
}

/// Representative value reported for a bucket: its midpoint, which is
/// within half a bucket width (≤ 1/32 relative) of anything in it.
fn bucket_mid(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

struct SubWindow {
    /// Window index + 1 (0 = never written), or [`CLEARING`].
    label: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl SubWindow {
    fn empty(buckets: usize) -> Self {
        Self {
            label: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Make this sub-window current for window `idx`, zeroing it if it
    /// still holds an older window. Returns false when the sample should
    /// be dropped (the slot has already rotated past `idx`).
    fn rotate_to(&self, idx: u64) -> bool {
        rotate_label(&self.label, idx, || {
            self.count.store(0, Ordering::Relaxed);
            self.sum.store(0, Ordering::Relaxed);
            for b in self.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
        })
    }
}

/// The ring-slot label rotation shared by [`WindowedSketch`] and
/// [`WindowedCounter`]: make the slot labelled by `label` current for
/// window `idx`. The one writer that wins the CAS to [`CLEARING`] runs
/// `clear` and publishes the new label; concurrent writers spin until it
/// does. Returns false when the sample should be dropped (the slot has
/// already rotated past `idx`).
fn rotate_label(label: &AtomicU64, idx: u64, clear: impl FnOnce()) -> bool {
    let lab = idx + 1;
    loop {
        let cur = label.load(Ordering::Acquire);
        if cur == lab {
            return true;
        }
        if cur == CLEARING {
            std::hint::spin_loop();
            continue;
        }
        if cur > lab {
            // The ring has lapped this writer; its sample is older than
            // everything retained.
            return false;
        }
        if label
            .compare_exchange(cur, CLEARING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            clear();
            label.store(lab, Ordering::Release);
            return true;
        }
    }
}

/// A lock-free sliding-window quantile sketch: the last
/// `sub_windows × sub_width` of samples, queryable at log-linear
/// (±1/16 relative) resolution. See the module docs for the design.
pub struct WindowedSketch {
    sub_ns: u64,
    live: u64,
    subs: Vec<SubWindow>,
}

impl std::fmt::Debug for WindowedSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedSketch")
            .field("sub_ns", &self.sub_ns)
            .field("sub_windows", &self.live)
            .finish_non_exhaustive()
    }
}

impl WindowedSketch {
    /// A sketch covering `window`, split into `sub_windows` rotating
    /// sub-windows (one extra slot holds the current partial so the
    /// oldest live sub-window is never overwritten mid-query).
    ///
    /// # Panics
    /// If `sub_windows == 0` or `window` is zero.
    pub fn new(window: Duration, sub_windows: usize) -> Self {
        assert!(sub_windows > 0, "need at least one sub-window");
        let window_ns = window.as_nanos().min(u64::MAX as u128) as u64;
        assert!(window_ns > 0, "window must be non-empty");
        let sub_ns = (window_ns / sub_windows as u64).max(1);
        Self {
            sub_ns,
            live: sub_windows as u64,
            subs: (0..=sub_windows)
                .map(|_| SubWindow::empty(NUM_BUCKETS))
                .collect(),
        }
    }

    /// Sub-window width in nanoseconds.
    pub fn sub_window_ns(&self) -> u64 {
        self.sub_ns
    }

    /// Full window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.sub_ns * self.live
    }

    fn slot(&self, idx: u64) -> &SubWindow {
        &self.subs[(idx % self.subs.len() as u64) as usize]
    }

    /// Record `value` at explicit time `t_ns`.
    pub fn record_at(&self, t_ns: u64, value: u64) {
        let idx = t_ns / self.sub_ns;
        let slot = self.slot(idx);
        if !slot.rotate_to(idx) {
            return;
        }
        slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `value` now.
    pub fn record(&self, value: u64) {
        self.record_at(now_ns(), value);
    }

    /// Merge the sub-windows live at `t_ns` (the current partial plus the
    /// preceding `sub_windows`) into one queryable histogram. Spanning
    /// `sub_windows + 1` indices — exactly the ring capacity — guarantees
    /// the merge always covers at least the configured window.
    pub fn merged_at(&self, t_ns: u64) -> MergedWindow {
        let cur = t_ns / self.sub_ns;
        let oldest = cur.saturating_sub(self.live);
        let mut merged = MergedWindow {
            count: 0,
            sum: 0,
            buckets: vec![0u64; NUM_BUCKETS],
        };
        let mut scratch = vec![0u64; NUM_BUCKETS];
        for idx in oldest..=cur {
            let slot = self.slot(idx);
            let lab = idx + 1;
            if slot.label.load(Ordering::Acquire) != lab {
                continue; // expired, cleared, or mid-rotation.
            }
            let mut count = 0u64;
            let mut sum = 0u64;
            for (dst, b) in scratch.iter_mut().zip(slot.buckets.iter()) {
                let v = b.load(Ordering::Relaxed);
                *dst = v;
                count += v;
            }
            sum = sum.wrapping_add(slot.sum.load(Ordering::Relaxed));
            // Label re-check: a rotation that raced the bucket reads
            // invalidates this sub-window (seqlock discipline, same as
            // the flight recorder's torn-read rejection).
            if slot.label.load(Ordering::Acquire) != lab {
                continue;
            }
            merged.count += count;
            merged.sum = merged.sum.wrapping_add(sum);
            for (dst, src) in merged.buckets.iter_mut().zip(scratch.iter()) {
                *dst += *src;
            }
        }
        merged
    }

    /// Merge the currently live sub-windows.
    pub fn merged(&self) -> MergedWindow {
        self.merged_at(now_ns())
    }
}

/// The merged view of a sketch's live window: exact per-bucket counts,
/// queryable for quantiles at bucket resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedWindow {
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

impl MergedWindow {
    /// Samples in the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples in the window.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty window).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`: the midpoint
    /// of the bucket holding the exact nearest-rank sample, so the
    /// estimate is within one bucket width (≤ 1/16 relative for values
    /// ≥ 16) of the true value. `None` on an empty window.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_mid(i));
            }
        }
        // Unreachable while counts are consistent; be safe anyway.
        Some(bucket_mid(NUM_BUCKETS - 1))
    }
}

struct CounterCell {
    label: AtomicU64,
    value: AtomicU64,
}

/// A lock-free sliding-window sum: the counting core of
/// [`WindowedSketch`] without the histogram, for rates and fractions.
pub struct WindowedCounter {
    sub_ns: u64,
    live: u64,
    cells: Vec<CounterCell>,
}

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("sub_ns", &self.sub_ns)
            .field("sub_windows", &self.live)
            .finish_non_exhaustive()
    }
}

impl WindowedCounter {
    /// A counter covering `window` split into `sub_windows` sub-windows.
    ///
    /// # Panics
    /// If `sub_windows == 0` or `window` is zero.
    pub fn new(window: Duration, sub_windows: usize) -> Self {
        assert!(sub_windows > 0, "need at least one sub-window");
        let window_ns = window.as_nanos().min(u64::MAX as u128) as u64;
        assert!(window_ns > 0, "window must be non-empty");
        Self {
            sub_ns: (window_ns / sub_windows as u64).max(1),
            live: sub_windows as u64,
            cells: (0..=sub_windows)
                .map(|_| CounterCell {
                    label: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn cell(&self, idx: u64) -> &CounterCell {
        &self.cells[(idx % self.cells.len() as u64) as usize]
    }

    /// Add `n` at explicit time `t_ns`.
    pub fn add_at(&self, t_ns: u64, n: u64) {
        let idx = t_ns / self.sub_ns;
        let cell = self.cell(idx);
        if !rotate_label(&cell.label, idx, || cell.value.store(0, Ordering::Relaxed)) {
            return;
        }
        cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` now.
    pub fn add(&self, n: u64) {
        self.add_at(now_ns(), n);
    }

    /// Sum over the window live at `t_ns`.
    pub fn sum_at(&self, t_ns: u64) -> u64 {
        let cur = t_ns / self.sub_ns;
        let oldest = cur.saturating_sub(self.live);
        let mut total = 0u64;
        for idx in oldest..=cur {
            let cell = self.cell(idx);
            let lab = idx + 1;
            if cell.label.load(Ordering::Acquire) != lab {
                continue;
            }
            let v = cell.value.load(Ordering::Relaxed);
            if cell.label.load(Ordering::Acquire) == lab {
                total += v;
            }
        }
        total
    }

    /// Sum over the currently live window.
    pub fn sum(&self) -> u64 {
        self.sum_at(now_ns())
    }
}

/// Overall health of a monitored stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No SLO currently breached.
    Healthy,
    /// At least one breach since the last recovery.
    Degraded,
}

impl HealthState {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
        }
    }
}

/// Which SLO a [`HealthEvent`] concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEventKind {
    /// Windowed replan p99 exceeded [`SloPolicy::replan_p99_ns`].
    ReplanLatency,
    /// Latest shadow-audit regret exceeded [`SloPolicy::regret_ceiling`].
    EnergyRegret,
    /// Windowed fallback rate exceeded
    /// [`SloPolicy::fallback_rate_ceiling`].
    FallbackRate,
    /// No heartbeat for longer than [`SloPolicy::heartbeat_timeout`].
    HeartbeatStale,
    /// A shadow audit's from-scratch offline recompute diverged from the
    /// live plan (always a breach; has no budget knob).
    AuditDivergence,
    /// The stream returned to [`HealthState::Healthy`] after
    /// [`SloPolicy::recover_after`] consecutive clean windows.
    Recovered,
}

/// Number of *breach* kinds (everything except `Recovered`).
const BREACH_KINDS: usize = 5;

impl HealthEventKind {
    /// Stable snake_case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthEventKind::ReplanLatency => "replan_latency",
            HealthEventKind::EnergyRegret => "energy_regret",
            HealthEventKind::FallbackRate => "fallback_rate",
            HealthEventKind::HeartbeatStale => "heartbeat_stale",
            HealthEventKind::AuditDivergence => "audit_divergence",
            HealthEventKind::Recovered => "recovered",
        }
    }

    fn breach_slot(&self) -> Option<usize> {
        match self {
            HealthEventKind::ReplanLatency => Some(0),
            HealthEventKind::EnergyRegret => Some(1),
            HealthEventKind::FallbackRate => Some(2),
            HealthEventKind::HeartbeatStale => Some(3),
            HealthEventKind::AuditDivergence => Some(4),
            HealthEventKind::Recovered => None,
        }
    }
}

/// One structured watchdog event: a rising-edge SLO breach or a recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// What fired.
    pub kind: HealthEventKind,
    /// Evaluation time (health-clock nanoseconds).
    pub at_ns: u64,
    /// The measured value that tripped (or cleared) the SLO.
    pub measured: f64,
    /// The policy budget it was compared against.
    pub budget: f64,
    /// Monitor state after applying this event.
    pub state_after: HealthState,
}

impl HealthEvent {
    /// JSON form with stable key order.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("kind", Value::Str(self.kind.as_str().to_string())),
            ("at_ns", Value::Num(self.at_ns as f64)),
            ("measured", Value::Num(self.measured)),
            ("budget", Value::Num(self.budget)),
            (
                "state_after",
                Value::Str(self.state_after.as_str().to_string()),
            ),
        ])
    }
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} measured {:.4} vs budget {:.4} → {}",
            self.at_ns,
            self.kind.as_str(),
            self.measured,
            self.budget,
            self.state_after.as_str()
        )
    }
}

/// Declarative SLO budgets evaluated per window. Unset budgets are not
/// checked. Built fluently:
///
/// ```
/// use esched_obs::health::SloPolicy;
/// use std::time::Duration;
///
/// let policy = SloPolicy::new(Duration::from_secs(10))
///     .with_replan_p99(Duration::from_millis(2))
///     .with_regret_ceiling(0.05)
///     .with_fallback_rate_ceiling(0.5)
///     .with_heartbeat_timeout(Duration::from_secs(2));
/// assert_eq!(policy.replan_p99_ns, Some(2_000_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Sliding-window width all rate/quantile checks are computed over.
    pub window: Duration,
    /// Sub-windows per window (rotation granularity; evaluation cadence
    /// is one check per sub-window).
    pub sub_windows: usize,
    /// Budget on the windowed replan-latency p99, nanoseconds.
    pub replan_p99_ns: Option<u64>,
    /// Ceiling on the latest shadow-audit energy regret
    /// `(live − E^OPT) / E^OPT`.
    pub regret_ceiling: Option<f64>,
    /// Ceiling on the windowed fraction of replans that fell back to a
    /// full recompute (timeline rebuild or global DER reallocation).
    pub fallback_rate_ceiling: Option<f64>,
    /// Maximum tolerated age of the last heartbeat.
    pub heartbeat_timeout: Option<Duration>,
    /// Consecutive clean evaluations required to return to
    /// [`HealthState::Healthy`].
    pub recover_after: u32,
}

impl Default for SloPolicy {
    /// A 10-second window of 8 sub-windows with no budgets set (pure
    /// observation) and 2-clean-window recovery.
    fn default() -> Self {
        Self::new(Duration::from_secs(10))
    }
}

impl SloPolicy {
    /// A policy with the given window, no budgets, 8 sub-windows, and
    /// 2-clean-window recovery.
    pub fn new(window: Duration) -> Self {
        Self {
            window,
            sub_windows: 8,
            replan_p99_ns: None,
            regret_ceiling: None,
            fallback_rate_ceiling: None,
            heartbeat_timeout: None,
            recover_after: 2,
        }
    }

    /// Set the replan-p99 budget.
    pub fn with_replan_p99(mut self, budget: Duration) -> Self {
        self.replan_p99_ns = Some(budget.as_nanos().min(u64::MAX as u128) as u64);
        self
    }

    /// Set the energy-regret ceiling.
    pub fn with_regret_ceiling(mut self, ceiling: f64) -> Self {
        self.regret_ceiling = Some(ceiling);
        self
    }

    /// Set the fallback-rate ceiling.
    pub fn with_fallback_rate_ceiling(mut self, ceiling: f64) -> Self {
        self.fallback_rate_ceiling = Some(ceiling);
        self
    }

    /// Set the heartbeat staleness budget.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = Some(timeout);
        self
    }

    /// Set the recovery threshold (consecutive clean windows).
    pub fn with_recover_after(mut self, windows: u32) -> Self {
        self.recover_after = windows.max(1);
        self
    }
}

/// The windowed measurements one evaluation saw.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Replans observed in the window.
    pub replans: u64,
    /// Windowed replan-latency p50, if any replans landed.
    pub replan_p50_ns: Option<u64>,
    /// Windowed replan-latency p99.
    pub replan_p99_ns: Option<u64>,
    /// Windowed replan-latency p999.
    pub replan_p999_ns: Option<u64>,
    /// Fraction of windowed replans that fell back to a full recompute.
    pub fallback_rate: f64,
    /// Windowed repaired-columns / total-columns fraction.
    pub repair_fraction: f64,
    /// Latest shadow-audit energy regret, if any audit has run.
    pub regret: Option<f64>,
    /// Age of the last heartbeat at evaluation time, if one was seen.
    pub heartbeat_age_ns: Option<u64>,
    /// Shadow-audit divergences observed so far (cumulative).
    pub divergences: u64,
}

impl WindowStats {
    /// JSON form with stable key order.
    pub fn to_json(&self) -> Value {
        let opt = |v: Option<u64>| match v {
            Some(x) => Value::Num(x as f64),
            None => Value::Null,
        };
        Value::obj(vec![
            ("replans", Value::Num(self.replans as f64)),
            ("replan_p50_ns", opt(self.replan_p50_ns)),
            ("replan_p99_ns", opt(self.replan_p99_ns)),
            ("replan_p999_ns", opt(self.replan_p999_ns)),
            ("fallback_rate", Value::Num(self.fallback_rate)),
            ("repair_fraction", Value::Num(self.repair_fraction)),
            (
                "regret",
                match self.regret {
                    Some(r) => Value::Num(r),
                    None => Value::Null,
                },
            ),
            ("heartbeat_age_ns", opt(self.heartbeat_age_ns)),
            ("divergences", Value::Num(self.divergences as f64)),
        ])
    }
}

struct MonitorState {
    state: HealthState,
    latched: [bool; BREACH_KINDS],
    clean_streak: u32,
    windows_evaluated: u64,
    breaches: u64,
    recoveries: u64,
    log: Vec<HealthEvent>,
}

/// Sentinel meaning "no heartbeat recorded yet". Timestamps are
/// process-monotonic nanoseconds and therefore strictly positive, so 0 is
/// free to act as "never" while keeping `fetch_max` monotone.
const NO_HEARTBEAT: u64 = 0;

/// The watchdog: windowed instruments on the write side, per-window SLO
/// evaluation and the Healthy ⇄ Degraded state machine on the read side.
/// All methods take `&self`; share it via `Arc`.
pub struct HealthMonitor {
    policy: SloPolicy,
    replan_ns: WindowedSketch,
    replans: WindowedCounter,
    fallbacks: WindowedCounter,
    repaired_cols: WindowedCounter,
    total_cols: WindowedCounter,
    last_heartbeat: AtomicU64,
    /// f64 bits of the latest audit regret; `f64::NAN` bits = none yet.
    regret_bits: AtomicU64,
    audits: AtomicU64,
    divergences: AtomicU64,
    next_eval: AtomicU64,
    inner: Mutex<MonitorState>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("policy", &self.policy)
            .field("state", &self.state())
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// A monitor enforcing `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        describe_health_metrics();
        let window = policy.window;
        let subs = policy.sub_windows.max(1);
        Self {
            replan_ns: WindowedSketch::new(window, subs),
            replans: WindowedCounter::new(window, subs),
            fallbacks: WindowedCounter::new(window, subs),
            repaired_cols: WindowedCounter::new(window, subs),
            total_cols: WindowedCounter::new(window, subs),
            last_heartbeat: AtomicU64::new(NO_HEARTBEAT),
            regret_bits: AtomicU64::new(f64::NAN.to_bits()),
            audits: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            next_eval: AtomicU64::new(0),
            policy,
            inner: Mutex::new(MonitorState {
                state: HealthState::Healthy,
                latched: [false; BREACH_KINDS],
                clean_streak: 0,
                windows_evaluated: 0,
                breaches: 0,
                recoveries: 0,
                log: Vec::new(),
            }),
        }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Record one applied replan at `t_ns`: its latency, repair shape,
    /// and whether it fell back to a full recompute. Doubles as a
    /// heartbeat.
    pub fn observe_replan_at(
        &self,
        t_ns: u64,
        elapsed_ns: u64,
        repaired_columns: usize,
        total_columns: usize,
        fell_back: bool,
    ) {
        self.replan_ns.record_at(t_ns, elapsed_ns);
        self.replans.add_at(t_ns, 1);
        if fell_back {
            self.fallbacks.add_at(t_ns, 1);
        }
        self.repaired_cols.add_at(t_ns, repaired_columns as u64);
        self.total_cols.add_at(t_ns, total_columns as u64);
        self.heartbeat_at(t_ns);
    }

    /// [`HealthMonitor::observe_replan_at`] at the current time.
    pub fn observe_replan(
        &self,
        elapsed_ns: u64,
        repaired_columns: usize,
        total_columns: usize,
        fell_back: bool,
    ) {
        self.observe_replan_at(
            now_ns(),
            elapsed_ns,
            repaired_columns,
            total_columns,
            fell_back,
        );
    }

    /// Stamp liveness at `t_ns` without recording a replan.
    pub fn heartbeat_at(&self, t_ns: u64) {
        self.last_heartbeat.fetch_max(t_ns, Ordering::Relaxed);
    }

    /// Stamp liveness now.
    pub fn heartbeat(&self) {
        self.heartbeat_at(now_ns());
    }

    /// Record a shadow-audit result: the energy regret of the live plan
    /// against the recomputed `E^OPT`, and whether the from-scratch
    /// offline recompute diverged from the live plan.
    pub fn observe_audit(&self, regret: f64, diverged: bool) {
        self.regret_bits.store(regret.to_bits(), Ordering::Relaxed);
        self.audits.fetch_add(1, Ordering::Relaxed);
        if diverged {
            self.divergences.fetch_add(1, Ordering::Relaxed);
        }
        crate::metric_gauge!("esched.online.energy_regret").set(regret);
        crate::metric_counter!("esched.online.audits").inc();
        if diverged {
            crate::metric_counter!("esched.online.audit_divergences").inc();
        }
        crate::flight_event!("shadow_audit", (regret.abs() * 1e6) as u64);
    }

    /// Latest audit regret, if any audit has completed.
    pub fn regret(&self) -> Option<f64> {
        let r = f64::from_bits(self.regret_bits.load(Ordering::Relaxed));
        r.is_finite().then_some(r)
    }

    /// Shadow audits recorded so far.
    pub fn audits(&self) -> u64 {
        self.audits.load(Ordering::Relaxed)
    }

    /// Current watchdog state.
    pub fn state(&self) -> HealthState {
        self.lock().state
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorState> {
        // Single-struct updates; poisoning carries no information.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The windowed measurements as of `t_ns` (what an evaluation at that
    /// time would see).
    pub fn window_stats_at(&self, t_ns: u64) -> WindowStats {
        let merged = self.replan_ns.merged_at(t_ns);
        let replans = self.replans.sum_at(t_ns);
        let fallbacks = self.fallbacks.sum_at(t_ns);
        let repaired = self.repaired_cols.sum_at(t_ns);
        let total = self.total_cols.sum_at(t_ns);
        let hb = self.last_heartbeat.load(Ordering::Relaxed);
        WindowStats {
            replans,
            replan_p50_ns: merged.quantile(0.50),
            replan_p99_ns: merged.quantile(0.99),
            replan_p999_ns: merged.quantile(0.999),
            fallback_rate: if replans == 0 {
                0.0
            } else {
                fallbacks as f64 / replans as f64
            },
            repair_fraction: if total == 0 {
                0.0
            } else {
                repaired as f64 / total as f64
            },
            regret: self.regret(),
            heartbeat_age_ns: (hb != NO_HEARTBEAT).then(|| t_ns.saturating_sub(hb)),
            divergences: self.divergences.load(Ordering::Relaxed),
        }
    }

    /// Evaluate the policy if an evaluation is due at `t_ns` (one per
    /// sub-window tick); the common case is one atomic load and out.
    pub fn maybe_evaluate_at(&self, t_ns: u64) -> Vec<HealthEvent> {
        let due = self.next_eval.load(Ordering::Relaxed);
        if t_ns < due {
            return Vec::new();
        }
        let next = t_ns + self.replan_ns.sub_window_ns();
        if self
            .next_eval
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return Vec::new(); // another caller claimed this tick.
        }
        self.evaluate_at(t_ns)
    }

    /// [`HealthMonitor::maybe_evaluate_at`] at the current time.
    pub fn maybe_evaluate(&self) -> Vec<HealthEvent> {
        self.maybe_evaluate_at(now_ns())
    }

    /// Evaluate every configured SLO against the window live at `t_ns`,
    /// unconditionally. Returns the rising-edge breaches (and possibly a
    /// recovery) this evaluation produced; the same breach stays latched
    /// — it does not re-fire every window while the condition persists.
    pub fn evaluate_at(&self, t_ns: u64) -> Vec<HealthEvent> {
        let stats = self.window_stats_at(t_ns);
        publish_window_gauges(&stats);

        // (kind, currently-breached, measured, budget); checks with no
        // budget configured or no data in-window report "not breached".
        let mut checks: [(HealthEventKind, bool, f64, f64); BREACH_KINDS] = [
            (HealthEventKind::ReplanLatency, false, 0.0, 0.0),
            (HealthEventKind::EnergyRegret, false, 0.0, 0.0),
            (HealthEventKind::FallbackRate, false, 0.0, 0.0),
            (HealthEventKind::HeartbeatStale, false, 0.0, 0.0),
            (HealthEventKind::AuditDivergence, false, 0.0, 0.0),
        ];
        if let (Some(budget), Some(p99)) = (self.policy.replan_p99_ns, stats.replan_p99_ns) {
            checks[0] = (
                HealthEventKind::ReplanLatency,
                p99 > budget,
                p99 as f64,
                budget as f64,
            );
        }
        if let (Some(ceiling), Some(regret)) = (self.policy.regret_ceiling, stats.regret) {
            checks[1] = (
                HealthEventKind::EnergyRegret,
                regret > ceiling,
                regret,
                ceiling,
            );
        }
        if let Some(ceiling) = self.policy.fallback_rate_ceiling {
            if stats.replans > 0 {
                checks[2] = (
                    HealthEventKind::FallbackRate,
                    stats.fallback_rate > ceiling,
                    stats.fallback_rate,
                    ceiling,
                );
            }
        }
        if let (Some(timeout), Some(age)) = (self.policy.heartbeat_timeout, stats.heartbeat_age_ns)
        {
            let budget = timeout.as_nanos().min(u64::MAX as u128) as u64;
            checks[3] = (
                HealthEventKind::HeartbeatStale,
                age > budget,
                age as f64,
                budget as f64,
            );
        }
        {
            let d = stats.divergences;
            let inner = self.lock();
            // Divergence is edge-triggered on the cumulative count.
            let breached = d > 0 && !inner.latched[4];
            drop(inner);
            checks[4] = (HealthEventKind::AuditDivergence, breached, d as f64, 0.0);
        }

        let mut fired = Vec::new();
        let mut inner = self.lock();
        inner.windows_evaluated += 1;
        let mut any_breach = false;
        for (kind, breached, measured, budget) in checks {
            let slot = kind.breach_slot().expect("breach kinds only");
            if breached {
                any_breach = true;
                if !inner.latched[slot] {
                    inner.latched[slot] = true;
                    inner.state = HealthState::Degraded;
                    inner.breaches += 1;
                    let event = HealthEvent {
                        kind,
                        at_ns: t_ns,
                        measured,
                        budget,
                        state_after: inner.state,
                    };
                    record_breach_flight(kind);
                    crate::metric_counter!("esched.online.health_breaches").inc();
                    inner.log.push(event.clone());
                    fired.push(event);
                }
            } else if kind != HealthEventKind::AuditDivergence {
                // Condition cleared: unlatch so a later incident re-fires.
                // Divergence stays latched forever — the plan state was
                // provably wrong once; only a restart clears it.
                inner.latched[slot] = false;
            }
        }
        if any_breach {
            inner.clean_streak = 0;
        } else {
            inner.clean_streak = inner.clean_streak.saturating_add(1);
            if inner.state == HealthState::Degraded
                && inner.clean_streak >= self.policy.recover_after
            {
                inner.state = HealthState::Healthy;
                inner.recoveries += 1;
                let event = HealthEvent {
                    kind: HealthEventKind::Recovered,
                    at_ns: t_ns,
                    measured: inner.clean_streak as f64,
                    budget: self.policy.recover_after as f64,
                    state_after: HealthState::Healthy,
                };
                crate::metric_counter!("esched.online.health_recoveries").inc();
                inner.log.push(event.clone());
                fired.push(event);
            }
        }
        crate::metric_gauge!("esched.online.health_state").set(match inner.state {
            HealthState::Healthy => 0.0,
            HealthState::Degraded => 1.0,
        });
        fired
    }

    /// Every event (breach or recovery) emitted so far, oldest first.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.lock().log.clone()
    }

    /// Stamp the full health history as a [`HealthReport`].
    pub fn report_at(&self, t_ns: u64) -> HealthReport {
        let inner = self.lock();
        HealthReport {
            state: inner.state,
            windows_evaluated: inner.windows_evaluated,
            breaches: inner.breaches,
            recoveries: inner.recoveries,
            audits: self.audits(),
            divergences: self.divergences.load(Ordering::Relaxed),
            events: inner.log.clone(),
            stats: {
                drop(inner);
                self.window_stats_at(t_ns)
            },
        }
    }

    /// [`HealthMonitor::report_at`] at the current time.
    pub fn report(&self) -> HealthReport {
        self.report_at(now_ns())
    }
}

/// The stamped JSON artifact summarizing a monitored stream — same
/// header conventions as [`crate::report::RunReport`] (git short SHA and
/// workspace version, stable key order), written next to run outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// State at stamping time.
    pub state: HealthState,
    /// Policy evaluations performed.
    pub windows_evaluated: u64,
    /// Rising-edge breaches emitted.
    pub breaches: u64,
    /// Recoveries emitted.
    pub recoveries: u64,
    /// Shadow audits completed.
    pub audits: u64,
    /// Shadow-audit divergences (cumulative; any nonzero value means the
    /// live plan drifted from the offline pipeline at least once).
    pub divergences: u64,
    /// The full event log, oldest first.
    pub events: Vec<HealthEvent>,
    /// The windowed measurements at stamping time.
    pub stats: WindowStats,
}

impl HealthReport {
    /// JSON form with the run-report header conventions.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("kind", Value::Str("health_report".to_string())),
            (
                "git_sha",
                match crate::report::git_short_sha() {
                    Some(sha) => Value::Str(sha.to_string()),
                    None => Value::Null,
                },
            ),
            (
                "esched_version",
                Value::Str(crate::report::esched_version().to_string()),
            ),
            ("state", Value::Str(self.state.as_str().to_string())),
            (
                "windows_evaluated",
                Value::Num(self.windows_evaluated as f64),
            ),
            ("breaches", Value::Num(self.breaches as f64)),
            ("recoveries", Value::Num(self.recoveries as f64)),
            ("audits", Value::Num(self.audits as f64)),
            ("divergences", Value::Num(self.divergences as f64)),
            (
                "events",
                Value::Arr(self.events.iter().map(HealthEvent::to_json).collect()),
            ),
            ("window", self.stats.to_json()),
        ])
    }

    /// Write the report as pretty JSON to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

fn publish_window_gauges(stats: &WindowStats) {
    if let Some(p50) = stats.replan_p50_ns {
        crate::metric_gauge!("esched.online.replan_p50_ns").set(p50 as f64);
    }
    if let Some(p99) = stats.replan_p99_ns {
        crate::metric_gauge!("esched.online.replan_p99_ns").set(p99 as f64);
    }
    if let Some(p999) = stats.replan_p999_ns {
        crate::metric_gauge!("esched.online.replan_p999_ns").set(p999 as f64);
    }
    crate::metric_gauge!("esched.online.fallback_rate").set(stats.fallback_rate);
    crate::metric_gauge!("esched.online.repair_fraction").set(stats.repair_fraction);
    crate::metric_gauge!("esched.online.window_replans").set(stats.replans as f64);
    if let Some(age) = stats.heartbeat_age_ns {
        crate::metric_gauge!("esched.online.heartbeat_age_ns").set(age as f64);
    }
}

fn record_breach_flight(kind: HealthEventKind) {
    use crate::recorder::{name_id, record, FlightKind, NameId};
    static NAMES: OnceLock<[NameId; BREACH_KINDS]> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        [
            name_id("health_breach_replan_latency"),
            name_id("health_breach_energy_regret"),
            name_id("health_breach_fallback_rate"),
            name_id("health_breach_heartbeat_stale"),
            name_id("health_breach_audit_divergence"),
        ]
    });
    if let Some(slot) = kind.breach_slot() {
        record(FlightKind::Event, names[slot], 1);
    }
}

/// Register `# HELP` strings for every `esched.online.*` health metric
/// (idempotent; called from [`HealthMonitor::new`]).
fn describe_health_metrics() {
    use crate::metrics::describe;
    describe(
        "esched.online.energy_regret",
        "Latest shadow-audit energy regret of the live plan: (live energy - E^OPT) / E^OPT",
    );
    describe("esched.online.audits", "Shadow audits completed");
    describe(
        "esched.online.audit_divergences",
        "Shadow audits whose from-scratch offline recompute diverged from the live plan",
    );
    describe(
        "esched.online.replan_p50_ns",
        "Windowed replan latency p50 in nanoseconds",
    );
    describe(
        "esched.online.replan_p99_ns",
        "Windowed replan latency p99 in nanoseconds",
    );
    describe(
        "esched.online.replan_p999_ns",
        "Windowed replan latency p999 in nanoseconds",
    );
    describe(
        "esched.online.fallback_rate",
        "Windowed fraction of replans that fell back to a full recompute",
    );
    describe(
        "esched.online.repair_fraction",
        "Windowed repaired-columns / total-columns fraction",
    );
    describe(
        "esched.online.heartbeat_age_ns",
        "Age of the online engine's last heartbeat in nanoseconds",
    );
    describe(
        "esched.online.health_state",
        "Watchdog state: 0 = healthy, 1 = degraded",
    );
    describe(
        "esched.online.health_breaches",
        "Rising-edge SLO breaches emitted by the watchdog",
    );
    describe(
        "esched.online.health_recoveries",
        "Watchdog recoveries to the healthy state",
    );
    describe(
        "esched.online.window_replans",
        "Replans observed in the current SLO window",
    );
    describe(
        "esched.online.audits_skipped",
        "Sampled shadow audits dropped because the audit worker was still busy",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn bucket_index_is_monotone_and_bounds_consistent() {
        let mut prev = 0usize;
        for v in [0u64, 1, 5, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            assert!(i < NUM_BUCKETS);
        }
        // Bucket edges are contiguous: every bucket's hi + 1 = next lo.
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            if hi != u64::MAX {
                assert_eq!(hi + 1, lo_next, "gap after bucket {i}");
            }
        }
    }

    #[test]
    fn sketch_quantiles_on_a_known_stream() {
        let sk = WindowedSketch::new(Duration::from_secs(8), 8);
        for v in 1..=1000u64 {
            sk.record_at(S, v);
        }
        let m = sk.merged_at(S);
        assert_eq!(m.count(), 1000);
        let p50 = m.quantile(0.5).unwrap() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        let p99 = m.quantile(0.99).unwrap() as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 {p99}");
        assert!(m.quantile(0.0).unwrap() <= 2);
    }

    #[test]
    fn sketch_window_expires() {
        let sk = WindowedSketch::new(Duration::from_secs(8), 8);
        sk.record_at(S, 42);
        assert_eq!(sk.merged_at(S).count(), 1);
        // Still visible inside the window…
        assert_eq!(sk.merged_at(S + 7 * S).count(), 1);
        // …gone once the window slides past.
        assert_eq!(sk.merged_at(S + 9 * S).count(), 0);
    }

    #[test]
    fn windowed_counter_rotates_and_sums() {
        let c = WindowedCounter::new(Duration::from_secs(4), 4);
        c.add_at(S, 3);
        c.add_at(2 * S, 4);
        assert_eq!(c.sum_at(2 * S), 7);
        assert_eq!(c.sum_at(6 * S), 4, "first cell expired");
        assert_eq!(c.sum_at(20 * S), 0, "all expired");
        // Ancient adds are dropped once the ring lapped them.
        c.add_at(20 * S, 1);
        c.add_at(S, 100);
        assert_eq!(c.sum_at(20 * S), 1);
    }

    #[test]
    fn monitor_latency_breach_fires_once_and_recovers() {
        let policy = SloPolicy::new(Duration::from_secs(8))
            .with_replan_p99(Duration::from_millis(1))
            .with_recover_after(2);
        let mon = HealthMonitor::new(policy);
        // Clean window: well under budget.
        for k in 0..100 {
            mon.observe_replan_at(S + k, 100_000, 1, 10, false);
        }
        assert!(mon.evaluate_at(S + 200).is_empty());
        assert_eq!(mon.state(), HealthState::Healthy);
        // Slow burst: p99 over 1 ms.
        for k in 0..100 {
            mon.observe_replan_at(2 * S + k, 5_000_000, 1, 10, false);
        }
        let fired = mon.evaluate_at(2 * S + 200);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthEventKind::ReplanLatency);
        assert_eq!(mon.state(), HealthState::Degraded);
        // Latched: a second evaluation of the same condition is silent.
        assert!(mon.evaluate_at(2 * S + 400).is_empty());
        // The burst expires from the window; two clean windows recover.
        let t = 2 * S + 10 * S;
        mon.observe_replan_at(t, 100_000, 1, 10, false);
        assert!(mon.evaluate_at(t).is_empty());
        let fired = mon.evaluate_at(t + 1000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthEventKind::Recovered);
        assert_eq!(mon.state(), HealthState::Healthy);
    }

    #[test]
    fn monitor_heartbeat_and_regret_checks() {
        let policy = SloPolicy::new(Duration::from_secs(8))
            .with_heartbeat_timeout(Duration::from_secs(2))
            .with_regret_ceiling(0.10);
        let mon = HealthMonitor::new(policy);
        // No heartbeat ever seen → staleness unknown → no alert.
        assert!(mon.evaluate_at(S).is_empty());
        mon.heartbeat_at(S);
        assert!(mon.evaluate_at(S + 1).is_empty());
        // 5 s of silence trips the heartbeat check.
        let fired = mon.evaluate_at(S + 5 * S);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthEventKind::HeartbeatStale);
        // Healthy regret below the ceiling adds nothing new.
        mon.observe_audit(0.02, false);
        mon.heartbeat_at(S + 5 * S);
        assert!(mon.evaluate_at(S + 5 * S + 1).is_empty());
        // Regret above the ceiling fires.
        mon.observe_audit(0.5, false);
        let fired = mon.evaluate_at(S + 5 * S + 2);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthEventKind::EnergyRegret);
        assert!(mon.regret().unwrap() > 0.4);
    }

    #[test]
    fn monitor_divergence_latches_forever() {
        let mon = HealthMonitor::new(SloPolicy::new(Duration::from_secs(4)));
        mon.observe_audit(0.0, true);
        let fired = mon.evaluate_at(S);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthEventKind::AuditDivergence);
        // Never re-fires, never unlatches (no recovery from divergence
        // alone is still possible via clean windows, but the latch keeps
        // the event from repeating).
        assert!(mon.evaluate_at(2 * S).is_empty());
        let report = mon.report_at(2 * S);
        assert_eq!(report.divergences, 1);
        assert_eq!(report.breaches, 1);
    }

    #[test]
    fn maybe_evaluate_is_rate_limited() {
        let mon = HealthMonitor::new(SloPolicy::new(Duration::from_secs(8)));
        let first = mon.maybe_evaluate_at(S);
        assert!(first.is_empty()); // clean, but it did evaluate…
        let evaluated = mon.report_at(S).windows_evaluated;
        assert_eq!(evaluated, 1);
        // …and an immediate re-poll does not evaluate again.
        mon.maybe_evaluate_at(S + 1);
        assert_eq!(mon.report_at(S).windows_evaluated, 1);
        // A full sub-window later it does.
        mon.maybe_evaluate_at(S + mon.replan_ns.sub_window_ns() + 1);
        assert_eq!(mon.report_at(S).windows_evaluated, 2);
    }

    #[test]
    fn report_json_shape() {
        let mon =
            HealthMonitor::new(SloPolicy::new(Duration::from_secs(4)).with_regret_ceiling(0.05));
        mon.observe_replan_at(S, 1_000, 2, 10, true);
        mon.observe_audit(0.5, false);
        mon.evaluate_at(S + 1);
        let j = mon.report_at(S + 1).to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("health_report"));
        assert_eq!(j.get("state").unwrap().as_str(), Some("degraded"));
        assert_eq!(j.get("breaches").unwrap().as_u64(), Some(1));
        let events = j.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").unwrap().as_str(),
            Some("energy_regret")
        );
        assert!(j.get("window").unwrap().get("fallback_rate").is_some());
    }
}
