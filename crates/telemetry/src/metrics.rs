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

#[derive(Debug, Default, Clone)]
struct Histogram {
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Registry of named counters and virtual-time histograms.
///
/// Counters are monotonic `u64`s; histograms record virtual durations
/// (count/sum/min/max — enough for mean latency and spread without
/// bucketing decisions leaking into the export format).
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
        let ns = d.as_nanos();
        let mut histograms = self.histograms.lock().expect("metrics histograms poisoned");
        let h = histograms.entry(name).or_default();
        if h.count == 0 {
            h.min_ns = ns;
            h.max_ns = ns;
        } else {
            h.min_ns = h.min_ns.min(ns);
            h.max_ns = h.max_ns.max(ns);
        }
        h.count += 1;
        h.sum_ns += ns;
    }

    /// A serializable, deterministically ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().expect("metrics counters poisoned");
        let histograms = self.histograms.lock().expect("metrics histograms poisoned");
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.to_string(),
                        HistogramSnapshot {
                            count: h.count,
                            sum_ns: h.sum_ns,
                            min_ns: h.min_ns,
                            max_ns: h.max_ns,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed virtual durations, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation, in nanoseconds (zero when empty).
    pub min_ns: u64,
    /// Largest observation, in nanoseconds (zero when empty).
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (zero when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Serializable snapshot of the whole registry. `BTreeMap`-backed, so
/// serialization order is stable across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram statistics by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.observe("lat", SimDuration::from_nanos(10));
        m.observe("lat", SimDuration::from_nanos(30));
        let snap = m.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min_ns, 10);
        assert_eq!(h.max_ns, 30);
        assert_eq!(h.mean_ns(), 20);
    }

    #[test]
    fn snapshot_serializes_in_stable_order() {
        let m = MetricsRegistry::new();
        m.incr("zeta");
        m.incr("alpha");
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let alpha = json.find("alpha").unwrap();
        let zeta = json.find("zeta").unwrap();
        assert!(alpha < zeta, "{json}");
    }
}
