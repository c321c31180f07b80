//! Observability data shared between the serving stack and its clients:
//! the plain-data snapshot of a latency histogram. The atomic recording
//! half lives in `gps-serve`, which snapshots into this type for `stats`
//! replies and the Prometheus `/metrics` endpoint.
//!
//! The snapshot has a canonical JSON encoding so the wire `stats`
//! command, the HTTP gateway and loadgen's bench reports all agree on one
//! schema.

use crate::error::GpsError;
use crate::json::Json;
use crate::JsonCodec;

/// A point-in-time copy of one log-spaced latency histogram.
///
/// `bounds_ns` holds the *finite* upper bounds (exclusive) of every
/// bucket except the last; the final bucket is unbounded (+Inf). So
/// `buckets.len() == bounds_ns.len() + 1`, bucket 0 covers
/// `[0, bounds_ns[0])`, bucket `i` covers `[bounds_ns[i-1], bounds_ns[i])`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds in nanoseconds, ascending.
    pub bounds_ns: Vec<u64>,
    /// Per-bucket sample counts; one longer than `bounds_ns`.
    pub buckets: Vec<u64>,
    /// Total samples (== sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded latencies, nanoseconds.
    pub sum_ns: u64,
    /// Largest single recorded latency, nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimate the `p`-quantile (`0.0..=1.0`) in nanoseconds by linear
    /// interpolation inside the bucket holding the target rank. The
    /// first bucket interpolates from 0; the open-ended last bucket
    /// interpolates toward `max_ns` (the only upper bound it has).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                // .get(): buckets may outnumber bounds in a mismatched
                // snapshot; report max_ns rather than panic (from_json is
                // where such layouts get rejected).
                let lower = if i == 0 {
                    0
                } else {
                    self.bounds_ns.get(i - 1).copied().unwrap_or(self.max_ns)
                };
                let upper = if i < self.bounds_ns.len() {
                    self.bounds_ns[i]
                } else {
                    self.max_ns.max(lower)
                };
                let frac = (target - cum) as f64 / n as f64;
                return lower + (upper.saturating_sub(lower) as f64 * frac) as u64;
            }
            cum += n;
        }
        self.max_ns
    }

    /// Fold another snapshot into this one (bucket-wise sum). Both sides
    /// must share a bucket layout; an empty `self` adopts `other`'s.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.bounds_ns, other.bounds_ns,
            "merging histograms with different bucket layouts"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl JsonCodec for HistogramSnapshot {
    /// Raw buckets plus convenience quantiles (microseconds) so dumb
    /// consumers need not re-implement the interpolation.
    fn to_json(&self) -> Json {
        let mut json = Json::obj();
        json.set(
            "bounds_ns",
            self.bounds_ns
                .iter()
                .map(|&b| Json::Num(b as f64))
                .collect::<Vec<_>>(),
        )
        .set(
            "buckets",
            self.buckets
                .iter()
                .map(|&b| Json::Num(b as f64))
                .collect::<Vec<_>>(),
        )
        .set("count", Json::Num(self.count as f64))
        .set("sum_ns", Json::Num(self.sum_ns as f64))
        .set("max_ns", Json::Num(self.max_ns as f64))
        .set("p50_us", Json::Num(self.percentile(0.50) as f64 / 1000.0))
        .set("p90_us", Json::Num(self.percentile(0.90) as f64 / 1000.0))
        .set("p99_us", Json::Num(self.percentile(0.99) as f64 / 1000.0))
        .set("p999_us", Json::Num(self.percentile(0.999) as f64 / 1000.0));
        json
    }

    fn from_json(json: &Json) -> Result<HistogramSnapshot, GpsError> {
        let nums = |field: &str| -> Result<Vec<u64>, GpsError> {
            json.req(field)?
                .as_arr()
                .ok_or_else(|| GpsError::parse("histogram", field, "expected array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| GpsError::parse("histogram", field, "expected integer"))
                })
                .collect()
        };
        let num = |field: &str| -> Result<u64, GpsError> {
            json.req(field)?
                .as_u64()
                .ok_or_else(|| GpsError::parse("histogram", field, "expected integer"))
        };
        let snapshot = HistogramSnapshot {
            bounds_ns: nums("bounds_ns")?,
            buckets: nums("buckets")?,
            count: num("count")?,
            sum_ns: num("sum_ns")?,
            max_ns: num("max_ns")?,
        };
        if snapshot.buckets.len() != snapshot.bounds_ns.len() + 1 {
            return Err(GpsError::parse(
                "histogram",
                "buckets",
                "expected one more bucket than bounds",
            ));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(buckets: Vec<u64>) -> HistogramSnapshot {
        let bounds_ns = (0..buckets.len() - 1).map(|i| 1u64 << (9 + i)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            bounds_ns,
            buckets,
            count,
            sum_ns: 0,
            max_ns: 5000,
        }
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // 100 samples all in bucket 1: [512, 1024).
        let s = snap(vec![0, 100, 0, 0]);
        let p50 = s.percentile(0.50);
        assert!((512..1024).contains(&p50), "{p50}");
        assert!(s.percentile(0.01) < s.percentile(0.99));
        // Everything below the p100 upper bound.
        assert!(s.percentile(1.0) <= 1024);
    }

    #[test]
    fn percentile_empty_and_last_bucket() {
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
        // All mass in the open-ended last bucket: interpolate toward max.
        let s = snap(vec![0, 0, 0, 10]);
        assert!(s.percentile(0.99) <= 5000);
        assert!(s.percentile(0.99) >= 1 << 11);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = snap(vec![1, 2, 3, 4]);
        let b = snap(vec![10, 0, 0, 1]);
        a.merge(&b);
        assert_eq!(a.buckets, vec![11, 2, 3, 5]);
        assert_eq!(a.count, 21);
        // Merging into empty adopts.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn histogram_json_round_trip() {
        let mut s = snap(vec![5, 10, 0, 2]);
        s.sum_ns = 123456;
        let json = s.to_json();
        assert_eq!(HistogramSnapshot::from_json(&json).unwrap(), s);
        // Convenience quantiles present.
        assert!(json.get("p99_us").is_some());
    }

    #[test]
    fn histogram_json_rejects_mismatched_layout() {
        let mut s = snap(vec![5, 10, 0, 2]);
        s.bounds_ns.pop();
        assert!(HistogramSnapshot::from_json(&s.to_json()).is_err());
    }
}
