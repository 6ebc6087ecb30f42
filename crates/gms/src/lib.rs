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
//! * [`ViewTracker`] — per-node view installation from topology
//!   epochs, reporting each change (who joined, who left) as a
//!   `view_change` on the cluster's bus.
//! * [`NodeWeights`] / partition weight — Gifford-style weighted nodes
//!   (§5.5.2) enabling *partition-sensitive* integrity constraints.
//! * [`MembershipSim`] — the detection pipeline (physical link faults
//!   → heartbeats → suspicion → damping → stabilized partitionings) on
//!   the shared virtual clock. [`DetectorKind`] picks its detector: a
//!   fixed 350 ms timeout on 100 ms heartbeats, or a φ-accrual-style
//!   adaptive one (integer fixed-point) that learns each link's
//!   heartbeat rhythm. Between raw suspicion and installed views sit a
//!   settle window and BGP-style flap damping. The pipeline reports
//!   each suspicion, damped flap and stabilized view on the cluster's
//!   bus and hands the stabilized partitioning back to install.
//!
//! ## Example
//!
//! ```
//! use dedisys_gms::{NodeWeights, ViewTracker};
//! use dedisys_net::{SimClock, Topology};
//! use dedisys_telemetry::{RingRecorder, Telemetry, TraceEvent};
//! use dedisys_types::NodeId;
//!
//! let bus = Telemetry::new(SimClock::new());
//! let ring = RingRecorder::new(8);
//! bus.attach(Box::new(ring.clone()));
//! let mut topo = Topology::fully_connected(3);
//! let mut tracker = ViewTracker::new(NodeId(0), &topo, bus);
//! assert_eq!(tracker.current().members().len(), 3);
//!
//! topo.split(&[&[0], &[1, 2]]);
//! tracker.observe(&topo);
//! let change = &ring.records()[0].event;
//! assert!(matches!(change, TraceEvent::ViewChange { joined: 0, left: 2, .. }));
//!
//! let weights = NodeWeights::uniform(3);
//! assert!((weights.partition_fraction(tracker.current().members()) - 1.0 / 3.0).abs() < 1e-9);
//! ```

mod adaptive;
mod membership;
mod stabilizer;
mod view;
mod weight;

pub use adaptive::DetectorKind;
pub use membership::{LinkFault, MembershipSim};
pub use view::{View, ViewTracker};
pub use weight::NodeWeights;
