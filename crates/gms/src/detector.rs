//! Timing of the fixed-timeout heartbeat detector.
//!
//! Every node multicasts heartbeats; a peer not heard from within the
//! timeout is suspected. Since node and link failures cannot be
//! differentiated when they occur (§1.1, [FLP85]), a suspected node is
//! simply treated as being in another partition. The detector itself
//! runs inside [`crate::MembershipSim`].

use dedisys_types::SimDuration;

/// Interval between heartbeats.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Silence after which a peer is suspected (the adaptive detector's
/// fallback while its window is cold).
pub const SUSPECT_TIMEOUT: SimDuration = SimDuration::from_millis(350);
