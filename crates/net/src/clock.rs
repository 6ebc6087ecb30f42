//! The shared virtual clock.

use dedisys_types::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotonically advancing virtual clock.
///
/// All components of a simulated cluster hold clones of the same clock;
/// advancing it models the passage of time caused by network hops,
/// database accesses and CPU work (see the cost model in
/// `dedisys-core`).
///
/// The clock is cheap to clone and thread-safe (`Send + Sync`), although
/// the simulation itself is single-threaded.
///
/// ```
/// use dedisys_net::SimClock;
/// use dedisys_types::SimDuration;
///
/// let clock = SimClock::new();
/// let alias = clock.clone();
/// clock.advance(SimDuration::from_millis(5));
/// assert_eq!(alias.now().as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let new = self.nanos.fetch_add(d.as_nanos(), Ordering::Relaxed) + d.as_nanos();
        SimTime::from_nanos(new)
    }

    /// Moves the clock forward to `t` if `t` is in the future; a clock
    /// never moves backwards.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        self.nanos.fetch_max(t.as_nanos(), Ordering::Relaxed);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_alias() {
        let clock = SimClock::new();
        let alias = clock.clone();
        clock.advance(SimDuration::from_micros(3));
        assert_eq!(alias.now(), SimTime::from_nanos(3_000));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_millis(10));
        clock.advance_to(SimTime::from_nanos(1));
        assert_eq!(clock.now(), SimTime::from_nanos(10_000_000));
        clock.advance_to(SimTime::from_nanos(20_000_000));
        assert_eq!(clock.now(), SimTime::from_nanos(20_000_000));
    }
}
