//! Deterministic counters and virtual-time histograms.
//!
//! Keys are `&'static str` so emission sites never allocate; all
//! aggregate state lives in `BTreeMap`s so snapshots iterate in a
//! stable order — a requirement for byte-identical exports across
//! identically-seeded runs.

use dedisys_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Sub-buckets per power of two, as a power of two: `2^SUB_BITS`
/// buckets split each octave, so a bucket is at most 1/32 of its
/// values wide, and every value below `2^(SUB_BITS + 1)` has a bucket
/// of its own.
const SUB_BITS: u32 = 5;

/// Buckets covering every `u64`: the exact values below `2^SUB_BITS`,
/// then `2^SUB_BITS` buckets for each octave `2^e .. 2^(e+1)`,
/// `e = SUB_BITS ..= 63`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// The bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
    (((e - SUB_BITS + 1) as usize) << SUB_BITS) | sub
}

/// The largest value bucket `i` holds.
fn bucket_upper(i: usize) -> u64 {
    let (octave, sub) = (i >> SUB_BITS, i as u64 & ((1 << SUB_BITS) - 1));
    if octave == 0 {
        return sub;
    }
    let shift = octave as u32 - 1;
    (((1 << SUB_BITS) + sub) << shift) + ((1 << shift) - 1)
}

/// A virtual-duration histogram: exact count, sum, min and max, and
/// fixed log-spaced buckets that answer percentiles.
///
/// The bucket layout is the same for every histogram, so two
/// histograms combine by adding their bucket counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed virtual durations, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation, in nanoseconds (zero when empty).
    pub min_ns: u64,
    /// Largest observation, in nanoseconds (zero when empty).
    pub max_ns: u64,
    /// Observations per bucket.
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Adds one observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns;
        self.buckets[bucket_of(ns)] += 1;
    }

    /// The `p`-th percentile (`p` in `0..=100`): the upper bound of the
    /// bucket holding the observation of zero-based rank
    /// `⌊(count − 1)·p / 100⌋`, clamped to `[min, max]`. It is never
    /// below that observation and at most 1/32 above it; `percentile(100)`
    /// is the maximum. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` exceeds 100.
    pub fn percentile(&self, p: u32) -> SimDuration {
        assert!(p <= 100, "percentile {p} is past 100");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = (self.count - 1) * u64::from(p) / 100;
        let mut seen = 0;
        let upper = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen > rank
            })
            .map_or(self.max_ns, bucket_upper);
        SimDuration::from_nanos(upper.clamp(self.min_ns, self.max_ns))
    }
}

/// Registry of named counters and virtual-time histograms.
///
/// Counters are monotonic `u64`s; histograms record virtual durations
/// ([`Histogram`]: count/sum/min/max and percentiles).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut counters = self.counters.lock().expect("metrics counters poisoned");
        *counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        let counters = self.counters.lock().expect("metrics counters poisoned");
        counters.get(name).copied().unwrap_or(0)
    }

    /// Records one virtual-duration observation under `name`.
    pub fn observe(&self, name: &'static str, d: SimDuration) {
        let mut histograms = self.histograms.lock().expect("metrics histograms poisoned");
        histograms.entry(name).or_default().record(d);
    }

    /// A copy of histogram `name` (empty if never observed).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let histograms = self.histograms.lock().expect("metrics histograms poisoned");
        histograms.get(name).cloned().unwrap_or_default()
    }

    /// A serializable, deterministically ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().expect("metrics counters poisoned");
        let histograms = self.histograms.lock().expect("metrics histograms poisoned");
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// Serializable snapshot of the whole registry. `BTreeMap`-backed, so
/// serialization order is stable across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histograms_track_min_max_mean() {
        let m = MetricsRegistry::new();
        m.observe("lat", ns(10));
        m.observe("lat", ns(30));
        let snap = m.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!((h.count, h.sum_ns), (2, 40));
        assert_eq!(h.min_ns, 10);
        assert_eq!(h.max_ns, 30);
        assert_eq!(h, &m.histogram("lat"));
        assert_eq!(m.histogram("missing"), Histogram::default());
    }

    #[test]
    fn every_value_lies_within_its_bucket() {
        let mut probes: Vec<u64> = (0..4_096).collect();
        for e in 6..64 {
            let p = 1u64 << e;
            probes.extend([p - 1, p, p + 1, p + p / 3, p | (p - 1)]);
        }
        probes.push(u64::MAX);
        for v in probes {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "{v}");
            assert!(v <= bucket_upper(b), "{v} above its bucket {b}");
            assert!(
                b == 0 || bucket_upper(b - 1) < v,
                "{v} below its bucket {b}"
            );
            // A bucket is at most 1/32 of its values wide.
            assert!(bucket_upper(b) - v <= v >> SUB_BITS, "{v}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn p99_follows_the_exact_rank_rule_on_exact_buckets() {
        // Values below 2^(SUB_BITS + 1) have buckets of their own, so
        // the percentile is the rank `(n − 1)·99/100` of the sorted
        // observations exactly.
        for n in 1..=200u64 {
            let values: Vec<u64> = (0..n).map(|i| (i * 37) % 64).collect();
            let mut h = Histogram::default();
            for &v in &values {
                h.record(ns(v));
            }
            let mut sorted = values;
            sorted.sort_unstable();
            let exact = sorted[(sorted.len() - 1) * 99 / 100];
            assert_eq!(h.percentile(99), ns(exact), "n = {n}");
        }
    }

    #[test]
    fn percentiles_are_at_most_a_bucket_above_the_exact_rank() {
        let mut h = Histogram::default();
        let mut values: Vec<u64> = (1..=1_000u64).map(|i| i * i * 7_919 + i).collect();
        for &v in &values {
            h.record(ns(v));
        }
        values.sort_unstable();
        for p in [0, 1, 50, 90, 99, 100] {
            let exact = values[(values.len() - 1) * p as usize / 100];
            let got = h.percentile(p).as_nanos();
            assert!(got >= exact, "p{p}: {got} under {exact}");
            assert!(got - exact <= exact / 32, "p{p}: {got} over {exact}");
        }
        assert_eq!(h.percentile(100), ns(h.max_ns));
        assert_eq!(Histogram::default().percentile(99), SimDuration::ZERO);
    }

    #[test]
    fn snapshot_serializes_in_stable_order() {
        let m = MetricsRegistry::new();
        m.incr("zeta");
        m.incr("alpha");
        m.observe("lat", ns(5));
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let alpha = json.find("alpha").unwrap();
        let zeta = json.find("zeta").unwrap();
        assert!(alpha < zeta, "{json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m.snapshot());
    }
}
