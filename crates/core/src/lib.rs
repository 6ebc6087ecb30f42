//! # dedisys-core
//!
//! Middleware support for adaptive dependability through explicit
//! runtime integrity constraints — the primary contribution of the
//! reproduced dissertation.
//!
//! Integrity and availability are competing dependability attributes:
//! strong consistency impairs availability under network partitions,
//! while high availability risks improper alterations. This crate
//! balances the two *explicitly*, at runtime, per constraint:
//!
//! * the Constraint Consistency Manager (CCMgr) triggers validation
//!   around intercepted invocations, detects **consistency threats**
//!   (validations that could only use possibly stale objects — LCC — or
//!   no objects at all — NCC, §3.1) and negotiates them, by the
//!   [`ValidationConfig`] in force and a transaction's
//!   [`NegotiationHandler`];
//! * accepted threats are persisted ([`ThreatStore`]) and re-evaluated
//!   during the **reconciliation phase** after failures are repaired,
//!   with rollback search and application callbacks for actual
//!   violations;
//! * a [`Cluster`] assembles the full middleware stack (Figure 4.1) —
//!   containers, transactions, replication, GMS — over a deterministic
//!   virtual clock so the Chapter 5 evaluations are reproducible;
//! * [`web`] reproduces the §4.5 solution for negotiation callbacks in
//!   HTTP request/response clients;
//! * [`partition_sensitive`] implements the §5.5.2 partition-sensitive
//!   constraint improvement.
//!
//! ## Quickstart
//!
//! ```
//! use dedisys_constraints::{expr::ExprConstraint, ConstraintMeta, ContextPreparation,
//!     RegisteredConstraint};
//! use dedisys_core::ClusterBuilder;
//! use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
//! use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, Value};
//! use std::sync::Arc;
//!
//! # fn main() -> dedisys_types::Result<()> {
//! let app = AppDescriptor::new("booking").with_class(
//!     ClassDescriptor::new("Flight")
//!         .with_field("seats", Value::Int(0))
//!         .with_field("sold", Value::Int(0)),
//! );
//! let ticket = RegisteredConstraint::new(
//!     ConstraintMeta::new("Ticket").tradeable(SatisfactionDegree::PossiblySatisfied),
//!     Arc::new(ExprConstraint::parse("self.sold <= self.seats")?),
//! )
//! .context_class("Flight")
//! .affects("Flight", "setSold", ContextPreparation::CalledObject);
//!
//! let mut cluster = ClusterBuilder::new(3, app).constraint(ticket).build()?;
//! let flight = ObjectId::new("Flight", "LH-441");
//! let node = NodeId(0);
//! cluster.run_tx(node, |c, tx| {
//!     c.create(node, tx, EntityState::for_class(c.app(), &flight)?)?;
//!     c.set_field(node, tx, &flight, "seats", Value::Int(80))
//! })?;
//!
//! // Selling beyond capacity violates the constraint and aborts.
//! let result = cluster.run_tx(node, |c, tx| {
//!     c.set_field(node, tx, &flight, "sold", Value::Int(81))
//! });
//! assert!(result.is_err());
//! # Ok(())
//! # }
//! ```

mod ccm;
mod cluster;
mod config;
mod costs;
pub mod partition_sensitive;
pub mod plane;
mod session;
mod threat;
pub mod web;

pub use ccm::{CcmStats, NegotiationHandler, NegotiationTiming, ThreatDecision};
pub use cluster::{
    Cluster, ClusterBuilder, ClusterMetrics, ConstraintChange, ConstraintReconcileReport,
    ConstraintReconciliationHandler, DeferAll, Explanation, Finding, HookInfo, InDoubtTx, ReconOps,
    ReconciliationSummary, StatsSnapshot, ViolationReport,
};
pub use config::{
    ClusterConfig, DurabilityConfig, MembershipConfig, PlaneConfig, ValidationConfig,
};
pub use plane::{ClassCounters, PlaneReport, PlaneStats, RequestPlane};
pub use session::Session;

/// Builds a `Vec<NodeId>` from integer literals — the terse spelling
/// for [`Cluster::partition`] groups:
/// `cluster.partition(&[nodes![0, 1], nodes![2]])`.
#[macro_export]
macro_rules! nodes {
    ($($n:expr),* $(,)?) => {
        vec![$(::dedisys_types::NodeId($n)),*]
    };
}
pub use costs::CostModel;
pub use threat::{
    ConsistencyThreat, HistoryPolicy, ReconcileInstructions, ThreatIdentity, ThreatStore,
};

// Re-export the pieces users need to assemble a cluster.
pub use dedisys_constraints::ConstraintEngine;
pub use dedisys_gms::{DetectorKind, LinkFault, NodeWeights};
pub use dedisys_replication::{
    HighestVersionWins, ProtocolKind, ReplicaConflict, ReplicaConsistencyHandler,
};
pub use dedisys_telemetry::{
    Histogram, JsonlExporter, MetricsSnapshot, RingRecorder, SharedBuf, Telemetry, TraceEvent,
    TraceRecord, TraceSink, TransitionCause,
};
