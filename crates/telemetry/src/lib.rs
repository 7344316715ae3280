//! # `cfd-telemetry` — the observability substrate of the workspace
//!
//! The paper's whole argument is a latency/energy budget (~140 µs per
//! integration step, ~500 µW/MHz on the 4-tile SoC), so the repository
//! needs one place where every layer — FFT plans, the DSCF engine, the
//! tiled-SoC correlator, the sweep engine — reports what it spent. This
//! crate is that place: a `tracing`-shaped facade (spans with enter/exit
//! timing, structured events) over a [`MetricsRegistry`] of named
//! [`Counter`]s, [`Gauge`]s and fixed-bucket log2 [`Histogram`]s.
//!
//! Like the `vendor/` stand-ins, the crate is deliberately
//! **zero-dependency** (std only): the build environment has no network
//! access, and the instrumented crates must not pay for telemetry in their
//! dependency graphs.
//!
//! ## Cost model
//!
//! * [`Counter`]s and [`Gauge`]s are single relaxed atomics and are
//!   **always live** — a `fetch_add` is cheap enough for any path in this
//!   workspace, and tests rely on counter deltas (e.g. the once-per-trial
//!   spectra contract) without having to toggle global state.
//! * **Timing is opt-in.** [`span`], [`Histogram::start_timer`] and
//!   [`time`] read the clock only while telemetry is enabled
//!   ([`set_enabled`]); the default is *disabled*, in which case a span is
//!   a single relaxed [`AtomicBool`] load and no `Instant` is ever taken —
//!   instrumented hot paths cost (essentially) nothing.
//!
//! ## Naming convention
//!
//! Instrument names are dot-separated, rooted at the owning crate
//! (`dsp.fft.forward_ns`, `core.decide.cfd_ns`, `scenario.sweep.cells`);
//! duration histograms end in `_ns` and record nanoseconds. Third-party
//! [`SensingBackend`]s are encouraged to follow the same shape under their
//! own root (see the repository README's *Observability* section).
//!
//! ## Example
//!
//! ```
//! use cfd_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span("example.work_ns");
//!     telemetry::counter("example.items").add(3);
//! }
//! let snapshot = telemetry::registry().snapshot();
//! assert_eq!(snapshot.counter("example.items"), Some(3));
//! assert_eq!(snapshot.histogram("example.work_ns").unwrap().count, 1);
//! assert!(snapshot.to_json().starts_with("{\"schema\":1,"));
//! telemetry::set_enabled(false);
//! ```
//!
//! [`SensingBackend`]: ../cfd_core/backend/trait.SensingBackend.html

#![warn(missing_docs)]

pub mod json;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`]: one per power of two of a
/// `u64`, so any nanosecond duration (or other non-negative integer
/// sample) lands in exactly one bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Most recent structured events retained by [`recent_events`].
const EVENT_RING_CAPACITY: usize = 256;

/// Global switch for the *timing* side of the facade (spans and timers).
/// Counters and gauges are always live; see the crate docs' cost model.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables span/timer timing globally. Telemetry starts
/// disabled: instrumented code performs no clock reads until a binary or
/// test opts in.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span/timer timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock only means some other thread panicked mid-update;
    // telemetry must keep working through that (it is often exactly what
    // the post-mortem wants to read).
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotone event count. Cheap-to-clone handle around shared atomic
/// state: clones observe and mutate the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (registered ones come from
    /// [`MetricsRegistry::counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn increment(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins measurement (cycle counts, energy estimates, worker
/// counts). Stores an `f64` in atomic bits; integers are exact up to 2^53.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log2 bucket index of a sample: bucket 0 holds `{0, 1}`, bucket `i`
/// (for `i >= 1`) holds `[2^i, 2^(i+1))`.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The largest sample a bucket can hold (the inclusive upper edge used as
/// the percentile estimate).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A fixed-bucket log2 latency histogram: 64 power-of-two buckets over
/// `u64` samples (by convention nanoseconds, names ending in `_ns`).
///
/// Recording is wait-free (three relaxed atomic adds); percentile reads
/// are estimates at log2 resolution — a p50 is correct up to a factor of
/// two, which is the granularity the perf-regression gate works at.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that records the elapsed nanoseconds into this
    /// histogram when dropped (or via [`Timer::stop`]). If telemetry is
    /// disabled at start time the timer is inert: no clock read happens.
    pub fn start_timer(&self) -> Timer {
        Timer(if enabled() {
            Some((self.clone(), Instant::now()))
        } else {
            None
        })
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (total nanoseconds for duration histograms).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let count = self.0.buckets[i].load(Ordering::Relaxed);
                (count > 0).then_some((i as u8, count))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    fn reset(&self) {
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
        for bucket in &self.0.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A running span/timer; records the elapsed nanoseconds into its
/// histogram on drop. Inert (no clock reads, nothing recorded) when
/// telemetry was disabled at creation.
#[derive(Debug)]
#[must_use = "a timer records on drop; binding it to `_` drops it immediately"]
pub struct Timer(Option<(Histogram, Instant)>);

impl Timer {
    /// Stops the timer now and returns the recorded nanoseconds (`None`
    /// when the timer was inert).
    pub fn stop(mut self) -> Option<u64> {
        self.finish()
    }

    fn finish(&mut self) -> Option<u64> {
        self.0.take().map(|(histogram, started)| {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            histogram.record(nanos);
            nanos
        })
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A structured event captured by [`event_with`] while telemetry is
/// enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The event name (also the name of the counter every emission bumps).
    pub name: String,
    /// The event's structured fields, in emission order.
    pub fields: Vec<(String, f64)>,
}

/// A named set of instruments. Most code uses the process-global
/// [`registry`]; tests that want isolation can build their own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
    events: Mutex<VecDeque<EventRecord>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(name) {
            return slot.clone();
        }
        let slot = make();
        slots.insert(name.to_string(), slot.clone());
        slot
    }

    /// The counter registered under `name`, created on first use. Callers
    /// on hot paths should fetch the handle once and cache it.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// kind — instrument names identify one instrument for the process
    /// lifetime.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter::new())) {
            Slot::Counter(counter) => counter,
            other => panic!(
                "`{name}` is registered as a {}, not a counter",
                other.kind()
            ),
        }
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind mismatch (see
    /// [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge::new())) {
            Slot::Gauge(gauge) => gauge,
            other => panic!("`{name}` is registered as a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind mismatch (see
    /// [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || Slot::Histogram(Histogram::new())) {
            Slot::Histogram(histogram) => histogram,
            other => panic!(
                "`{name}` is registered as a {}, not a histogram",
                other.kind()
            ),
        }
    }

    /// A point-in-time, deterministically ordered (name-sorted) copy of
    /// every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = lock(&self.slots);
        let mut snapshot = MetricsSnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => snapshot.counters.push((name.clone(), c.value())),
                Slot::Gauge(g) => snapshot.gauges.push((name.clone(), g.value())),
                Slot::Histogram(h) => snapshot.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snapshot
    }

    /// Zeroes every instrument (names stay registered, handles stay valid)
    /// and clears the recent-event ring. Meant for test isolation and for
    /// binaries that emit several independent snapshots.
    pub fn reset(&self) {
        let slots = lock(&self.slots);
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) => c.reset(),
                Slot::Gauge(g) => g.reset(),
                Slot::Histogram(h) => h.reset(),
            }
        }
        lock(&self.events).clear();
    }

    fn push_event(&self, record: EventRecord) {
        let mut events = lock(&self.events);
        if events.len() == EVENT_RING_CAPACITY {
            events.pop_front();
        }
        events.push_back(record);
    }

    /// The most recent structured events (bounded ring of
    /// [`EventRecord`]s), oldest first.
    pub fn recent_events(&self) -> Vec<EventRecord> {
        lock(&self.events).iter().cloned().collect()
    }
}

/// The process-global registry every instrumented crate reports into.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Shorthand for [`MetricsRegistry::counter`] on the global [`registry`].
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Shorthand for [`MetricsRegistry::gauge`] on the global [`registry`].
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Shorthand for [`MetricsRegistry::histogram`] on the global
/// [`registry`].
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Opens a span: a guard that records the enter→drop duration (in
/// nanoseconds) into the global histogram `name` when telemetry is
/// enabled. When disabled this is one atomic load — no registry lookup, no
/// clock read, nothing recorded.
pub fn span(name: &str) -> Timer {
    if !enabled() {
        return Timer(None);
    }
    histogram(name).start_timer()
}

/// Times a closure into the global histogram `name` (a function-shaped
/// [`span`]).
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Emits a structured event: always bumps the counter `name`; while
/// telemetry is enabled the event is additionally retained (with no
/// fields) in the bounded ring behind [`recent_events`].
pub fn event(name: &str) {
    event_with(name, &[]);
}

/// [`event`] with structured fields.
pub fn event_with(name: &str, fields: &[(&str, f64)]) {
    counter(name).increment();
    if enabled() {
        registry().push_event(EventRecord {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(key, value)| (key.to_string(), *value))
                .collect(),
        });
    }
}

/// The most recent structured events of the global [`registry`].
pub fn recent_events() -> Vec<EventRecord> {
    registry().recent_events()
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of one histogram: total count and sum plus the
/// non-empty log2 buckets as `(bucket index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile estimate (`q` in `[0, 1]`): the inclusive upper
    /// edge of the bucket holding the sample of that rank, i.e. correct up
    /// to the log2 bucket width. Returns `None` for an empty histogram.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(index, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return Some(bucket_upper_bound(index as usize));
            }
        }
        self.buckets
            .last()
            .map(|&(index, _)| bucket_upper_bound(index as usize))
    }

    /// Median estimate (see [`HistogramSnapshot::percentile`]).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Mean sample (`sum / count`); `None` for an empty histogram.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A deterministic (name-sorted) copy of a whole registry, exportable as
/// schema-versioned JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-ascending.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` per histogram, name-ascending.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Schema version of [`MetricsSnapshot::to_json`] documents. Bump on any
/// shape change so trajectory/gating tooling can detect incompatible
/// documents (same convention as `RocTable::to_json`).
pub const METRICS_JSON_SCHEMA: u64 = 1;

impl MetricsSnapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }

    /// The state of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, snapshot)| snapshot)
    }

    /// Renders the snapshot as a schema-versioned JSON document:
    ///
    /// ```json
    /// {"schema":1,
    ///  "counters":{"core.observation.spectra_computations":42},
    ///  "gauges":{"service.workers":4},
    ///  "histograms":{"dsp.fft.forward_ns":
    ///     {"count":8,"sum":9000,"p50":2047,"p90":2047,"p99":2047,
    ///      "buckets":[[10,8]]}}}
    /// ```
    ///
    /// Names are escaped per RFC 8259; maps are name-sorted, so two
    /// snapshots of the same state serialise identically (the determinism
    /// the regression gate diffs rely on). Encoding is done by hand.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", json::escape(name)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, value)| format!("\"{}\":{}", json::escape(name), json::number(*value)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|&(index, count)| format!("[{index},{count}]"))
                    .collect();
                let quantile = |q: Option<u64>| {
                    q.map_or_else(|| "null".to_string(), |value| value.to_string())
                };
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                     \"buckets\":[{}]}}",
                    json::escape(name),
                    h.count,
                    h.sum,
                    quantile(h.p50()),
                    quantile(h.p90()),
                    quantile(h.p99()),
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\"schema\":{METRICS_JSON_SCHEMA},\"counters\":{{{}}},\"gauges\":{{{}}},\
             \"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 holds {0, 1}; bucket i >= 1 holds [2^i, 2^(i+1)).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(10), 2047);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every boundary value lands in the bucket whose upper bound
        // covers it.
        for i in 0..63 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "upper edge of {i}");
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_records_and_estimates_percentiles() {
        let h = Histogram::new();
        for value in [1u64, 2, 3, 1000, 1000, 1000, 1000, 1_000_000] {
            h.record(value);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1_004_006);
        let snapshot = h.snapshot();
        // Buckets: 0 -> 1 sample, 1 -> 2 samples, 9 -> 4 samples (1000 is
        // in [512, 1024)), 19 -> 1 sample.
        assert_eq!(snapshot.buckets, vec![(0, 1), (1, 2), (9, 4), (19, 1)]);
        // Rank 4 of 8 falls in bucket 9 -> upper edge 1023.
        assert_eq!(snapshot.p50(), Some(1023));
        assert_eq!(snapshot.p90(), Some(bucket_upper_bound(19)));
        assert_eq!(snapshot.percentile(0.0), Some(1));
        assert_eq!(snapshot.percentile(1.0), Some(bucket_upper_bound(19)));
        assert!((snapshot.mean().unwrap() - 125_500.75).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::default().p50(), None);
    }

    #[test]
    fn registry_is_name_keyed_and_kind_checked() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x.count");
        let b = registry.counter("x.count");
        a.add(2);
        b.increment();
        assert_eq!(registry.counter("x.count").value(), 3);
        registry.gauge("x.gauge").set(1.5);
        registry.histogram("x.hist_ns").record(7);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("x.count"), Some(3));
        assert_eq!(snapshot.gauge("x.gauge"), Some(1.5));
        assert_eq!(snapshot.histogram("x.hist_ns").unwrap().count, 1);
        assert_eq!(snapshot.counter("missing"), None);
        registry.reset();
        let snapshot = registry.snapshot();
        // Names survive a reset, values are zeroed.
        assert_eq!(snapshot.counter("x.count"), Some(0));
        assert_eq!(snapshot.gauge("x.gauge"), Some(0.0));
        assert_eq!(snapshot.histogram("x.hist_ns").unwrap().count, 0);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn registry_rejects_kind_mismatches() {
        let registry = MetricsRegistry::new();
        registry.counter("name");
        registry.histogram("name");
    }

    #[test]
    fn snapshot_json_is_deterministic_and_versioned() {
        let registry = MetricsRegistry::new();
        registry.counter("b.count").add(2);
        registry.counter("a.count").add(1);
        registry.gauge("g\"auge").set(0.5);
        let h = registry.histogram("h_ns");
        h.record(3);
        h.record(1000);
        let json = registry.snapshot().to_json();
        assert_eq!(
            json,
            "{\"schema\":1,\"counters\":{\"a.count\":1,\"b.count\":2},\
             \"gauges\":{\"g\\\"auge\":0.5},\
             \"histograms\":{\"h_ns\":{\"count\":2,\"sum\":1003,\"p50\":3,\"p90\":1023,\
             \"p99\":1023,\"buckets\":[[1,1],[9,1]]}}}"
        );
        // Identical state serialises identically.
        assert_eq!(json, registry.snapshot().to_json());
        // And the document round-trips through the bundled parser.
        let parsed = json::parse(&json).unwrap();
        assert_eq!(parsed.pointer(&["schema"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(
            parsed
                .pointer(&["histograms", "h_ns", "p50"])
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn timers_and_events_respect_the_enabled_flag() {
        // Uses an isolated histogram (not the global registry) so this test
        // cannot race the other tests' global state; the global-flag
        // interaction is still exercised because start_timer reads it.
        let h = Histogram::new();
        set_enabled(false);
        drop(h.start_timer());
        assert_eq!(h.count(), 0, "disabled timers must record nothing");
        set_enabled(true);
        let timer = h.start_timer();
        let nanos = timer.stop();
        assert!(nanos.is_some());
        assert_eq!(h.count(), 1);
        set_enabled(false);
    }

    #[test]
    fn event_ring_is_bounded() {
        let registry = MetricsRegistry::new();
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            registry.push_event(EventRecord {
                name: format!("e{i}"),
                fields: vec![("i".into(), i as f64)],
            });
        }
        let events = registry.recent_events();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events.last().unwrap().name, "e265");
        assert_eq!(events.first().unwrap().name, "e10");
    }
}
