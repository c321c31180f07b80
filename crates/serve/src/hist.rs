//! Lock-free log-spaced latency histograms.
//!
//! One [`LatencyHistogram`] is a fixed array of atomic bucket counters
//! with power-of-two nanosecond bounds: bucket 0 holds everything under
//! 512ns, each later bucket doubles the bound, and the last is open
//! (+Inf, anything past ~4.3s). Recording is a handful of relaxed
//! atomic adds — no locks, no allocation — so it sits directly on the
//! request hot path. Snapshots copy the counters into the plain-data
//! [`HistogramSnapshot`] shared with clients (`gps_types::obs`), which
//! carries the percentile math.
//!
//! [`HistogramSet`] is the full recording matrix: one histogram per
//! (wire = json | gpsq | http) × (endpoint = single | batch | admin)
//! cell. The hot path records predict traffic into the *per-model* set
//! only; the server-level set holds just admin samples, and the
//! server-level totals in `StatsSnapshot` are derived at snapshot time
//! by summing the models into it — one histogram update per request,
//! not two. A batch frame of `n` queries records `n` samples at the
//! frame latency, so summing the single+batch cell counts reproduces
//! the `requests` counter exactly — an invariant the observability e2e
//! suite asserts.

use std::sync::atomic::{AtomicU64, Ordering};

use gps_types::HistogramSnapshot;

/// Number of buckets, the last being open-ended.
pub const NUM_BUCKETS: usize = 24;

/// log2 of the first bucket's upper bound: bucket 0 is `[0, 2^9)` ns.
const MIN_BITS: u32 = 9;

/// Which bucket a latency falls in: the position of its highest set bit,
/// shifted so sub-512ns latencies share bucket 0 and everything past the
/// last finite bound lands in the open bucket.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()).saturating_sub(MIN_BITS) as usize).min(NUM_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `i` in nanoseconds; `None` for the
/// open-ended last bucket.
pub fn bucket_bound_ns(i: usize) -> Option<u64> {
    (i + 1 < NUM_BUCKETS).then(|| 1u64 << (MIN_BITS as usize + i))
}

/// One lock-free histogram: bucket counters plus the running sum and max
/// that `/metrics` and `StatsSnapshot` export alongside it. The sample
/// count is *derived* (sum of buckets) rather than kept as its own
/// atomic — recording sits on the request hot path, and every locked
/// RMW there is measurable.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Record `n` samples at the same latency — how a batch frame of `n`
    /// queries is accounted, keeping bucket counts summable against the
    /// `requests` counter. A weight of 0 is a no-op (max included).
    #[inline]
    pub fn record_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(ns)].fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        // Load-then-RMW: the max stabilizes almost immediately under
        // steady load, so the common case is a plain read, not a
        // contended fetch_max. Races only under-report transiently.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Total samples recorded (sum over buckets — a torn read during
    /// concurrent recording can be off transiently, never permanently).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Zero every counter. Not atomic across counters — concurrent
    /// recording may leave a sample split across the wipe — but each
    /// counter is individually consistent, which is all `reset-stats`
    /// promises.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Copy into the plain-data snapshot type shared with clients.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds_ns: (0..NUM_BUCKETS - 1)
                .map(|i| bucket_bound_ns(i).expect("finite bound"))
                .collect(),
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Which wire a request arrived on, as a histogram/metric label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireLabel {
    Json,
    Gpsq,
    Http,
}

impl WireLabel {
    pub const ALL: [WireLabel; 3] = [WireLabel::Json, WireLabel::Gpsq, WireLabel::Http];

    pub fn as_str(self) -> &'static str {
        match self {
            WireLabel::Json => "json",
            WireLabel::Gpsq => "gpsq",
            WireLabel::Http => "http",
        }
    }
}

/// Which request shape, as a histogram/metric label. `Admin` covers
/// everything that is not a predict (ping, stats, reload, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointLabel {
    Single,
    Batch,
    Admin,
}

impl EndpointLabel {
    pub const ALL: [EndpointLabel; 3] = [
        EndpointLabel::Single,
        EndpointLabel::Batch,
        EndpointLabel::Admin,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            EndpointLabel::Single => "single",
            EndpointLabel::Batch => "batch",
            EndpointLabel::Admin => "admin",
        }
    }
}

/// The full per-(wire, endpoint) histogram matrix — 9 cells, indexed
/// without branching.
#[derive(Debug)]
pub struct HistogramSet {
    cells: [LatencyHistogram; 9],
}

impl Default for HistogramSet {
    fn default() -> Self {
        HistogramSet {
            cells: std::array::from_fn(|_| LatencyHistogram::default()),
        }
    }
}

impl HistogramSet {
    #[inline]
    fn index(wire: WireLabel, endpoint: EndpointLabel) -> usize {
        let w = match wire {
            WireLabel::Json => 0,
            WireLabel::Gpsq => 1,
            WireLabel::Http => 2,
        };
        let e = match endpoint {
            EndpointLabel::Single => 0,
            EndpointLabel::Batch => 1,
            EndpointLabel::Admin => 2,
        };
        w * 3 + e
    }

    #[inline]
    pub fn cell(&self, wire: WireLabel, endpoint: EndpointLabel) -> &LatencyHistogram {
        &self.cells[Self::index(wire, endpoint)]
    }

    /// Every cell with its labels (including empty ones; exporters skip
    /// zero-count cells themselves if they want to).
    pub fn iter(&self) -> impl Iterator<Item = (WireLabel, EndpointLabel, &LatencyHistogram)> {
        WireLabel::ALL.into_iter().flat_map(move |wire| {
            EndpointLabel::ALL
                .into_iter()
                .map(move |endpoint| (wire, endpoint, self.cell(wire, endpoint)))
        })
    }

    pub fn reset(&self) {
        for cell in &self.cells {
            cell.reset();
        }
    }

    /// Sum of sample counts over the predict cells (single + batch, all
    /// wires) — the histogram side of the `requests` invariant.
    pub fn predict_count(&self) -> u64 {
        self.iter()
            .filter(|(_, endpoint, _)| *endpoint != EndpointLabel::Admin)
            .map(|(_, _, hist)| hist.count())
            .sum()
    }

    /// Snapshot every cell as `(wire, endpoint, snapshot)` labels.
    pub fn snapshot(&self) -> Vec<(&'static str, &'static str, HistogramSnapshot)> {
        self.iter()
            .map(|(wire, endpoint, hist)| (wire.as_str(), endpoint.as_str(), hist.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_matches_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(511), 0);
        assert_eq!(bucket_of(512), 1);
        assert_eq!(bucket_of(1023), 1);
        assert_eq!(bucket_of(1024), 2);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        // Every finite bound maps its predecessor in, itself out.
        for i in 0..NUM_BUCKETS - 1 {
            let bound = bucket_bound_ns(i).unwrap();
            assert_eq!(bucket_of(bound - 1), i, "below bound {bound}");
            assert_eq!(bucket_of(bound), i + 1, "at bound {bound}");
        }
        assert_eq!(bucket_bound_ns(NUM_BUCKETS - 1), None);
    }

    #[test]
    fn record_and_snapshot() {
        let hist = LatencyHistogram::default();
        hist.record(100);
        hist.record(600);
        hist.record_n(600, 3);
        hist.record_n(0, 0); // no-op, max untouched
        let snap = hist.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 4);
        assert_eq!(snap.sum_ns, 100 + 600 * 4);
        assert_eq!(snap.max_ns, 600);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        hist.reset();
        assert!(hist.snapshot().is_empty());
    }

    #[test]
    fn set_cells_are_independent() {
        let set = HistogramSet::default();
        set.cell(WireLabel::Gpsq, EndpointLabel::Single).record(700);
        set.cell(WireLabel::Http, EndpointLabel::Batch)
            .record_n(700, 4);
        set.cell(WireLabel::Json, EndpointLabel::Admin).record(700);
        assert_eq!(set.cell(WireLabel::Gpsq, EndpointLabel::Single).count(), 1);
        assert_eq!(set.cell(WireLabel::Json, EndpointLabel::Single).count(), 0);
        // Admin excluded from the predict invariant sum.
        assert_eq!(set.predict_count(), 5);
        assert_eq!(set.iter().count(), 9);
        set.reset();
        assert_eq!(set.predict_count(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = std::sync::Arc::new(LatencyHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = hist.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record((t * 1000 + i) % 100_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 40_000);
    }
}
