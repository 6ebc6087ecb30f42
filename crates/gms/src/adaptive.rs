//! Failure detection on the deterministic virtual clock: the
//! fixed-timeout heartbeat detector and a φ-accrual-style adaptive one
//! (Hayashibara et al.).
//!
//! Every node multicasts heartbeats; a peer not heard from within the
//! timeout is suspected. Since node and link failures cannot be
//! differentiated when they occur (§1.1, [FLP85]), a suspected node is
//! simply treated as being in another partition. Both detectors run
//! inside [`crate::MembershipSim`].
//!
//! The fixed-timeout detector treats every link the same; under jittery
//! links it either suspects too eagerly (false positives → view flaps)
//! or too lazily (slow detection). The accrual detector instead keeps a
//! sliding window of observed heartbeat inter-arrival times per peer
//! and outputs a *suspicion level* φ that grows with the current
//! silence relative to the observed arrival process. The consumer picks
//! a threshold: small φ = fast-but-trigger-happy, large φ =
//! conservative.
//!
//! **No floats on the hot path.** Under the exponential inter-arrival
//! assumption the original definition reduces to
//!
//! ```text
//! φ(Δ) = -log10 P(no arrival within Δ) = Δ / (mean · ln 10) ≈ 0.434 · Δ / mean
//! ```
//!
//! which we evaluate in fixed point as `φ·1000 = Δns · 434 / mean_ns`.
//! All state is integer, so two runs with the same schedule produce
//! bit-identical suspicion sequences.

use dedisys_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Silence after which the fixed detector suspects a peer (and the
/// adaptive detector, while its window is cold).
const SUSPECT_TIMEOUT: SimDuration = SimDuration::from_millis(350);

/// `1000 · log10(e)` — the fixed-point scale factor turning
/// `Δ / mean` into `φ · 1000` under the exponential model.
const PHI_SCALE_MILLI: u128 = 434;

/// Which failure-detection algorithm a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// Fixed silence timeout (the original detector): suspect a peer
    /// not heard from within `suspect_timeout`.
    #[default]
    FixedTimeout,
    /// φ-accrual adaptive detector: suspect when the fixed-point
    /// suspicion level φ · 1000 reaches 1300, a silence of about three
    /// mean inter-arrival periods.
    Adaptive,
}

/// Sliding-window capacity of inter-arrival samples per peer.
pub(crate) const ACCRUAL_WINDOW: usize = 16;

/// Below this many samples the detector falls back to the fixed
/// timeout (a cold window has no meaningful mean).
pub(crate) const ACCRUAL_MIN_SAMPLES: usize = 4;

/// Suspicion threshold as `φ · 1000`: 1300 suspects after a silence of
/// ≈ 3 mean inter-arrival periods (`Δ = 1300 · mean / 434 ≈ 3.0 · mean`).
pub(crate) const PHI_THRESHOLD_MILLI: u64 = 1300;

/// Per-peer accrual state: the inter-arrival window and its running
/// sum (so the mean is O(1) to read).
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptiveDetector {
    samples: VecDeque<u64>,
    sum_ns: u64,
    last_arrival: Option<SimTime>,
}

impl AdaptiveDetector {
    /// Records a heartbeat arrival at `at`, folding the inter-arrival
    /// time into the window (capacity [`ACCRUAL_WINDOW`]). Out-of-order
    /// arrivals (jitter can reorder deliveries) are ignored for interval
    /// purposes but still refresh the last-arrival mark when newer.
    pub(crate) fn record_arrival(&mut self, at: SimTime) {
        if let Some(last) = self.last_arrival {
            if at <= last {
                return;
            }
            let interval = at.since(last).as_nanos();
            self.samples.push_back(interval);
            self.sum_ns += interval;
            while self.samples.len() > ACCRUAL_WINDOW {
                self.sum_ns -= self.samples.pop_front().expect("non-empty");
            }
        }
        self.last_arrival = Some(at);
    }

    /// Mean inter-arrival time in nanoseconds (`None` while empty).
    pub(crate) fn mean_interval_ns(&self) -> Option<u64> {
        if self.samples.is_empty() {
            None
        } else {
            Some((self.sum_ns / self.samples.len() as u64).max(1))
        }
    }

    /// Current suspicion level as `φ · 1000` at `now`, or `None` while
    /// the window is empty. Monotonic in the silence duration.
    pub(crate) fn phi_milli(&self, now: SimTime) -> Option<u64> {
        let mean = self.mean_interval_ns()?;
        let last = self.last_arrival?;
        if now <= last {
            return Some(0);
        }
        let elapsed = now.since(last).as_nanos() as u128;
        let phi = elapsed * PHI_SCALE_MILLI / mean as u128;
        Some(phi.min(u64::MAX as u128) as u64)
    }

    /// The fixed detector's verdict at `now`: nothing heard for
    /// [`SUSPECT_TIMEOUT`].
    pub(crate) fn timed_out(&self, now: SimTime) -> bool {
        self.last_arrival
            .is_some_and(|last| last < now && now.since(last) >= SUSPECT_TIMEOUT)
    }

    /// The adaptive detector's verdict at `now`: accrual once the window
    /// is warm ([`ACCRUAL_MIN_SAMPLES`]), [`AdaptiveDetector::timed_out`]
    /// before that.
    pub(crate) fn is_suspect(&self, now: SimTime) -> bool {
        if self.samples.len() < ACCRUAL_MIN_SAMPLES {
            return self.timed_out(now);
        }
        self.phi_milli(now).unwrap_or(0) >= PHI_THRESHOLD_MILLI
    }

    /// Resets the arrival mark to `at` without touching the learned
    /// window — used when a scripted topology change authoritatively
    /// reconnects a link (the history of a healthy link stays valid).
    pub(crate) fn mark_heard(&mut self, at: SimTime) {
        self.last_arrival = Some(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn phi_grows_with_silence() {
        let mut d = AdaptiveDetector::default();
        for i in 0..10 {
            d.record_arrival(t(i * 100));
        }
        assert_eq!(d.mean_interval_ns(), Some(100_000_000));
        // Silence of one mean interval ⇒ φ ≈ 0.434.
        assert_eq!(d.phi_milli(t(1000)), Some(434));
        // Three mean intervals ⇒ φ ≈ 1.3 (the default threshold).
        assert_eq!(d.phi_milli(t(1200)), Some(434 * 3));
        assert!(d.phi_milli(t(1200)).unwrap() >= PHI_THRESHOLD_MILLI);
    }

    #[test]
    fn warm_window_tolerates_jitter_better_than_fixed_timeout() {
        // Peer with a slow (300 ms) but steady heartbeat: the fixed
        // 350 ms timeout flags it during normal operation; the accrual
        // detector has learned the rhythm and stays calm until ≈ 3
        // intervals of true silence.
        let mut d = AdaptiveDetector::default();
        for i in 0..10 {
            d.record_arrival(t(i * 300));
        }
        let now = t(9 * 300 + 400); // 400 ms of silence
        assert!(d.timed_out(now), "fixed would fire");
        assert!(!d.is_suspect(now), "accrual holds");
        let much_later = t(9 * 300 + 1000);
        assert!(d.is_suspect(much_later));
    }

    #[test]
    fn cold_window_falls_back_to_fixed_timeout() {
        let mut d = AdaptiveDetector::default();
        d.record_arrival(t(0));
        d.record_arrival(t(100)); // 1 sample < ACCRUAL_MIN_SAMPLES
        assert!(!d.is_suspect(t(200)));
        assert!(d.is_suspect(t(500)));
    }

    #[test]
    fn window_is_bounded_and_out_of_order_ignored() {
        let mut d = AdaptiveDetector::default();
        for i in 0..100 {
            d.record_arrival(t(i * 10));
        }
        assert_eq!(d.samples.len(), ACCRUAL_WINDOW);
        let before = d.samples.len();
        d.record_arrival(t(5)); // stale
        assert_eq!(d.samples.len(), before);
    }

    #[test]
    fn no_arrivals_means_no_suspicion() {
        let d = AdaptiveDetector::default();
        assert!(!d.is_suspect(t(10_000)));
        assert_eq!(d.phi_milli(t(10_000)), None);
    }
}
