//! # dedisys-federation
//!
//! The sharded federation layer: many independent [`Cluster`]s
//! ("shards") behind one deterministic router, scaling the paper's
//! per-constraint availability/consistency trade to deployments where
//! partitions and degraded modes differ *per shard*.
//!
//! * [`ShardMap`] — a deterministic consistent-hash ring with virtual
//!   nodes. `shard_of(ObjectId)` is total and seed-stable;
//!   [`ShardMap::plan_rebalance`] diffs two rings into
//!   [`MigrationStep`]s.
//! * [`FederatedCluster::rebalance`] — an explicit grow or shrink,
//!   whole or refused: only at a quiescent point (every shard healthy,
//!   no source with degraded residue or a standing threat, no moving
//!   object locked) does it plan from the committed population, move
//!   every step over the core WAL/state-transfer path and flip the
//!   map; otherwise it fails with
//!   [`Error::ModeRestriction`](dedisys_types::Error::ModeRestriction)
//!   naming each blocker, and nothing changes. So every committed
//!   object stays on the one shard the map names.
//! * [`FederatedCluster`] — N shards built on **one shared virtual
//!   clock and seed**, so cross-shard timelines (2PC deadlines,
//!   detector heartbeats, trace timestamps) stay mutually consistent
//!   and every run is byte-deterministic.
//! * Cross-shard transactions — a federation coordinator drives the
//!   per-shard `prepare`/in-doubt/presumed-abort machinery across
//!   shards (`xshard_begin` → stage → `xshard_prepare` →
//!   `xshard_commit`), with coordinator-crash recovery
//!   ([`FederatedCluster::crash_coordinator`] +
//!   [`FederatedCluster::resolve_xshard_in_doubt`]) under presumed
//!   abort: a finished transaction leaves its `xshard_resolved` event
//!   and its count in [`FederationStats`], nothing else.
//! * Mode-aware routing — every shard keeps its own [`SystemMode`],
//!   and the [`RoutingPolicy`] (`RejectDegraded` / `RouteAnyway`) reads
//!   the target shard's at routing time, ahead of that shard's
//!   [`RequestPlane`](dedisys_core::RequestPlane): what the router
//!   refuses, the plane never sees. This is the only place a request
//!   is refused because of a shard's mode.
//!
//! Telemetry: `shard_routed`, `shard_migrated`, `xshard_prepared` and
//! `xshard_resolved` events on the federation bus plus `federation.*`
//! metrics; `repro shard-sweep` drives the goodput / cross-shard
//! abort-rate table.

mod federated;
mod shard_map;

pub use federated::{
    FederatedCluster, FederationBuilder, FederationStats, RoutingPolicy, XSHARD_TIMEOUT,
};
pub use shard_map::{MigrationStep, ShardId, ShardMap};

// Re-exported so federation users need not depend on dedisys-core for
// the common construction path.
pub use dedisys_core::Cluster;
pub use dedisys_types::SystemMode;
