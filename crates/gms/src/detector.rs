//! Timing of the fixed-timeout heartbeat detector.
//!
//! Every node multicasts heartbeats; a peer not heard from within the
//! timeout is suspected. Since node and link failures cannot be
//! differentiated when they occur (§1.1, [FLP85]), a suspected node is
//! simply treated as being in another partition. The detector itself
//! runs inside [`crate::MembershipSim`].

use dedisys_types::SimDuration;

/// Configuration of the heartbeat detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Interval between heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Silence after which a peer is suspected.
    pub suspect_timeout: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: SimDuration::from_millis(100),
            suspect_timeout: SimDuration::from_millis(350),
        }
    }
}
