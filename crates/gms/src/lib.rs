//! # dedisys-gms
//!
//! Group membership service (GMS) substrate.
//!
//! In the original system (Figure 4.1) the GMS detects node and link
//! failures as well as re-joins and notifies the replication service,
//! which triggers mode transitions and the reconciliation phase. This
//! crate provides:
//!
//! * [`View`] — an installed membership view (view id + member set).
//! * [`ViewTracker`] — per-node view installation, deriving
//!   [`ViewChange`]s (who joined, who left) from topology epochs.
//! * [`NodeWeights`] / partition weight — Gifford-style weighted nodes
//!   (§5.5.2) enabling *partition-sensitive* integrity constraints.
//! * [`HEARTBEAT_INTERVAL`] / [`SUSPECT_TIMEOUT`] — the timing of the
//!   fixed-timeout detector.
//! * [`AdaptiveDetector`] / [`DetectorKind`] — a φ-accrual-style
//!   adaptive detector (integer fixed-point, virtual-clock only) that
//!   learns each link's heartbeat rhythm instead of using one global
//!   timeout.
//! * [`ViewStabilizer`] — hysteresis + BGP-style flap damping between
//!   raw suspicion and installed views.
//! * [`MembershipSim`] — the full pipeline (physical link faults →
//!   heartbeats → suspicion → damping → stabilized partitionings) on
//!   the shared virtual clock.
//!
//! ## Example
//!
//! ```
//! use dedisys_gms::{NodeWeights, ViewTracker};
//! use dedisys_net::Topology;
//! use dedisys_types::NodeId;
//!
//! let mut topo = Topology::fully_connected(3);
//! let mut tracker = ViewTracker::new(NodeId(0), &topo);
//! assert_eq!(tracker.current().members().len(), 3);
//!
//! topo.split(&[&[0], &[1, 2]]);
//! let change = tracker.observe(&topo).expect("view change");
//! assert_eq!(change.left.len(), 2);
//!
//! let weights = NodeWeights::uniform(3);
//! assert!((weights.partition_fraction(tracker.current().members()) - 1.0 / 3.0).abs() < 1e-9);
//! ```

mod adaptive;
mod detector;
mod membership;
mod stabilizer;
mod view;
mod weight;

pub use adaptive::{
    AdaptiveDetector, DetectorKind, ACCRUAL_MIN_SAMPLES, ACCRUAL_WINDOW, PHI_THRESHOLD_MILLI,
};
pub use detector::{HEARTBEAT_INTERVAL, SUSPECT_TIMEOUT};
pub use membership::{LinkFault, MembershipEvent, MembershipSim};
pub use stabilizer::{StabilizerConfig, ViewStabilizer};
pub use view::{View, ViewChange, ViewTracker};
pub use weight::NodeWeights;
