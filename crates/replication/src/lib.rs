//! # dedisys-replication
//!
//! The replication service (§4.3) — fault tolerance for node and link
//! failures, and the second key part of the adaptive-dependability
//! approach next to constraint consistency management.
//!
//! Three protocols are provided (selectable per cluster):
//!
//! * [`ProtocolKind::PrimaryBackup`] — classic primary/backup; writes
//!   blocked while the static primary is unreachable.
//! * [`ProtocolKind::PrimaryPartition`] — the primary-partition
//!   protocol \[RSB93\]: one partition (majority weight) continues
//!   normal operation, others are read-only.
//! * [`ProtocolKind::PrimaryPerPartition`] — **P4** \[BBG+06\]: a
//!   temporary primary is chosen per partition, so writes continue in
//!   *every* partition as long as the resulting consistency threats are
//!   acceptable. Objects are possibly stale in every partition.
//!
//! The [`ReplicationManager`] implements placement (objects may be
//! replicated on all nodes or bound to a subset — the DTMS "strong
//! ownership" case), synchronous update propagation to reachable
//! backups, staleness/reachability predicates feeding the CCMgr's
//! LCC/NCC classification, degraded-mode write tracking with the
//! snapshot ledger the rollback search reads
//! ([`ReplicationManager::partition_history`]: the committed
//! [`Snapshot`](dedisys_object::Snapshot)s exactly as they were
//! shipped, per object and partition), and the *replica
//! reconciliation* half of the reconciliation phase (missed-update
//! propagation, write-write conflict detection, replica-consistency
//! handler callbacks — Figure 4.6).

mod manager;
mod protocol;
mod reconcile;

pub use manager::{PropagationReport, ReplStats, ReplicationManager};
pub use protocol::ProtocolKind;
pub use reconcile::{
    HighestVersionWins, ReconcileReport, ReplicaConflict, ReplicaConsistencyHandler,
};
