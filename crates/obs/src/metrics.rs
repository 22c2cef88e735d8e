//! Counters, gauges, and fixed-bucket histograms.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A live registry of named metrics.
///
/// Handles returned by [`MetricsRegistry::counter`] share storage with
/// the registry (`Rc<Cell<_>>`), so hot loops pay one pointer bump per
/// increment — the map lookup happens once, at registration. The
/// registry is single-threaded by design (the whole workspace is); use
/// one registry per run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    gauges: RefCell<BTreeMap<String, Rc<Cell<f64>>>>,
    histograms: RefCell<BTreeMap<String, Rc<RefCell<Histogram>>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter handle for `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.borrow_mut();
        if let Some(cell) = counters.get(name) {
            return Counter(Rc::clone(cell));
        }
        let cell = Rc::new(Cell::new(0));
        counters.insert(name.to_owned(), Rc::clone(&cell));
        Counter(cell)
    }

    /// Adds `delta` to the counter `name` (one-shot convenience).
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut gauges = self.gauges.borrow_mut();
        if let Some(cell) = gauges.get(name) {
            cell.set(value);
            return;
        }
        gauges.insert(name.to_owned(), Rc::new(Cell::new(value)));
    }

    /// Records `value` into the histogram `name` (default bounds on
    /// first use).
    pub fn record(&self, name: &str, value: u64) {
        let mut histograms = self.histograms.borrow_mut();
        let h = histograms
            .entry(name.to_owned())
            .or_insert_with(|| Rc::new(RefCell::new(Histogram::default())));
        h.borrow_mut().record(value);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.borrow().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.borrow().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.borrow().clone()))
                .collect(),
        }
    }

    /// Adds every metric of `snap` into this registry (counters and
    /// histograms accumulate, gauges take the incoming value).
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (k, v) in &snap.counters {
            self.add(k, *v);
        }
        for (k, v) in &snap.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &snap.histograms {
            let mut histograms = self.histograms.borrow_mut();
            let dst = histograms
                .entry(k.clone())
                .or_insert_with(|| Rc::new(RefCell::new(Histogram::with_bounds(h.bounds.clone()))));
            dst.borrow_mut().merge(h);
        }
    }
}

/// A cheap handle to one registry counter.
#[derive(Debug, Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.set(self.0.get() + delta);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A fixed-bucket histogram of `u64` samples.
///
/// `bounds` are inclusive upper bucket bounds; one extra overflow
/// bucket catches everything larger, so `counts.len() ==
/// bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket.
    pub bounds: Vec<u64>,
    /// Sample counts per bucket (last = overflow).
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    /// Power-of-four bounds covering 1 .. 65536.
    fn default() -> Self {
        Histogram::with_bounds(vec![1, 4, 16, 64, 256, 1024, 4096, 16384, 65536])
    }
}

impl Histogram {
    /// An empty histogram with the given inclusive upper bounds
    /// (must be sorted ascending).
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, count: 0, sum: 0, min: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether no samples have been recorded yet.
    ///
    /// `percentile` returns 0 on an empty histogram, which is
    /// indistinguishable from a genuine all-zero sample set — callers
    /// that must tell the two apart use this or [`Histogram::try_percentile`].
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-th percentile (`q` in `[0, 100]`) estimated by linear
    /// interpolation inside the bucket holding the target rank.
    ///
    /// Edge cases are pinned down (and property-tested in
    /// `tests/histogram_properties.rs`):
    ///
    /// - **empty histogram** — returns 0 (see [`Histogram::try_percentile`]
    ///   for the `Option` form);
    /// - **rank 1 / rank `count`** (`q` at or clamped to the extremes)
    ///   — returns exactly `min` / `max`, never an interpolated value;
    /// - **overflow bucket** (samples above the last bound) — the
    ///   bucket interpolates over `[last_bound + 1, max]`, so a p999
    ///   landing among overflow samples stays within the observed
    ///   range instead of saturating at the last configured bound;
    /// - **`q` outside `[0, 100]`** is clamped; a NaN `q` is treated
    ///   as 0 (returns `min`).
    ///
    /// The interpolation range of an interior bucket is
    /// `[prev_bound + 1, bound]`; the result is clamped to
    /// `[min, max]` so single-sample and single-bucket histograms
    /// report exact values.
    pub fn percentile(&self, q: f64) -> u64 {
        self.try_percentile(q).unwrap_or(0)
    }

    /// [`Histogram::percentile`], but `None` when the histogram is
    /// empty instead of an ambiguous 0.
    pub fn try_percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 100.0) };
        // Rank of the target sample, 1-based: ceil(q% of count), at least 1.
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).max(1);
        if rank <= 1 {
            return Some(self.min);
        }
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] + 1 };
                let hi = if i < self.bounds.len() { self.bounds[i] } else { self.max };
                let (lo, hi) = (lo.max(self.min).min(hi), hi.min(self.max));
                // Midpoint position of the target rank inside this
                // bucket, in (0, 1) — rank r of n sits at (r - ½)/n.
                let frac = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return Some((est.round() as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Adds every sample of `other` (bucket-wise; bounds must match).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A frozen copy of a registry: plain sorted maps, ready for serde.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts (deterministic).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values; the only metric kind allowed to carry
    /// wall-clock readings (under a `wall.` name prefix).
    pub gauges: BTreeMap<String, f64>,
    /// Sample distributions (deterministic).
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 if never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters whose name starts with `prefix` (e.g.
    /// `"engine.mvcc."`), in name order — for asserting over a metric
    /// family without enumerating its members.
    pub fn family(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// Drops every wall-clock metric (names starting with `wall.`).
    pub fn strip_wall(&mut self) {
        self.counters.retain(|k, _| !k.starts_with("wall."));
        self.gauges.retain(|k, _| !k.starts_with("wall."));
        self.histograms.retain(|k, _| !k.starts_with("wall."));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One telemetry window: the accumulated samples, `h` swapped for a
    /// fresh histogram with the same bounds.
    fn take_window(h: &mut Histogram) -> Histogram {
        let fresh = Histogram::with_bounds(h.bounds.clone());
        std::mem::replace(h, fresh)
    }

    #[test]
    fn family_selects_by_prefix() {
        let reg = MetricsRegistry::new();
        reg.add("engine.mvcc.snapshot_reads", 3);
        reg.add("engine.mvcc.cert_aborts", 1);
        reg.add("engine.locks.deadlocks", 2);
        let snap = reg.snapshot();
        let fam = snap.family("engine.mvcc.");
        assert_eq!(fam, vec![("engine.mvcc.cert_aborts", 1), ("engine.mvcc.snapshot_reads", 3)]);
        assert!(snap.family("nope.").is_empty());
    }

    #[test]
    fn counters_accumulate_through_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.add(1);
        c.add(4);
        reg.add("x", 5);
        assert_eq!(reg.snapshot().counter("x"), 10);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(vec![10, 100]);
        for v in [5, 7, 50, 500] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 562);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 500);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut h = Histogram::with_bounds(vec![10, 100, 1000]);
        // 100 samples uniform over 1..=100: 10 in [1,10], 90 in [11,100].
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 lands at rank 50: 40th sample of the [11,100] bucket.
        let p50 = h.percentile(50.0);
        assert!((45..=55).contains(&p50), "p50 = {p50}");
        let p95 = h.percentile(95.0);
        assert!((90..=100).contains(&p95), "p95 = {p95}");
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(Histogram::default().percentile(50.0), 0);
        let mut single = Histogram::with_bounds(vec![10, 100]);
        single.record(42);
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(single.percentile(q), 42);
        }
        // Overflow-bucket samples interpolate up to the recorded max.
        let mut over = Histogram::with_bounds(vec![10]);
        over.record(5000);
        over.record(9000);
        assert_eq!(over.percentile(100.0), 9000);
        assert!(over.percentile(50.0) <= 9000);
        assert!(over.percentile(50.0) >= 5000);
    }

    #[test]
    fn take_window_hands_over_samples_and_clears() {
        let mut h = Histogram::with_bounds(vec![10, 100]);
        for v in [5u64, 50, 500] {
            h.record(v);
        }
        let w1 = take_window(&mut h);
        assert_eq!((w1.count, w1.sum, w1.min, w1.max), (3, 555, 5, 500));
        assert!(h.is_empty());
        // Second window only sees samples recorded after the first take.
        h.record(42);
        let w2 = take_window(&mut h);
        assert_eq!((w2.count, w2.min, w2.max), (1, 42, 42));
        // Merging the windows reconstructs the full-run histogram
        // exactly: windowing loses nothing.
        let mut merged = Histogram::with_bounds(vec![10, 100]);
        merged.merge(&w1);
        merged.merge(&w2);
        let mut full = Histogram::with_bounds(vec![10, 100]);
        for v in [5u64, 50, 500, 42] {
            full.record(v);
        }
        assert_eq!(merged, full);
    }

    #[test]
    fn windowed_percentiles_match_an_unwindowed_recorder() {
        // Percentile stability: a histogram rebuilt by merging K
        // windows reports the same percentiles as one that never
        // reset, for every probed q.
        let mut windows = Vec::new();
        let mut acc = Histogram::default();
        let mut whole = Histogram::default();
        for (i, v) in (0..200u64).map(|i| (i, (i * 37) % 1_500)).collect::<Vec<_>>() {
            acc.record(v);
            whole.record(v);
            if i % 50 == 49 {
                windows.push(take_window(&mut acc));
            }
        }
        let mut merged = Histogram::default();
        for w in &windows {
            merged.merge(w);
        }
        assert_eq!(merged, whole);
        for q in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.percentile(q), whole.percentile(q), "q = {q}");
        }
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut h = Histogram::default();
        for v in [1u64, 3, 9, 20, 80, 300, 1200, 5000, 20000, 70000] {
            h.record(v);
        }
        let mut last = 0;
        for q in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let p = h.percentile(q);
            assert!(p >= last, "percentile({q}) = {p} < {last}");
            last = p;
        }
        assert_eq!(last, 70000);
    }

    #[test]
    fn absorb_merges_each_kind() {
        let a = MetricsRegistry::new();
        a.add("c", 2);
        a.set_gauge("g", 1.0);
        a.record("h", 3);
        let b = MetricsRegistry::new();
        b.add("c", 3);
        b.set_gauge("g", 9.0);
        b.record("h", 70000);
        b.absorb(&a.snapshot());
        let snap = b.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), Some(1.0));
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].max, 70000);
    }

    #[test]
    fn strip_wall_drops_only_wall_metrics() {
        let reg = MetricsRegistry::new();
        reg.add("prover.generated", 7);
        reg.add("wall.ticks", 3);
        reg.set_gauge("wall.prover_ns", 1e9);
        let mut snap = reg.snapshot();
        snap.strip_wall();
        assert_eq!(snap.counter("prover.generated"), 7);
        assert!(!snap.counters.contains_key("wall.ticks"));
        assert!(snap.gauges.is_empty());
    }
}
