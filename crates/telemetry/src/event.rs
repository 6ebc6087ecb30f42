//! Typed, virtual-time-stamped trace events.
//!
//! Every event names the *paper concept* it witnesses — trigger points
//! (§4.2.3), consistency threats (§3.2.2), mode transitions (§1.4),
//! reconciliation phases (§4.4) — so an exported stream reads as a
//! protocol transcript of one simulated run.

use dedisys_types::{
    NodeId, PriorityClass, SatisfactionDegree, SharedText, SimDuration, SimTime, SystemMode, TxId,
    ViewId,
};
use serde::{Deserialize, Serialize};

/// Outcome of one business invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum InvocationOutcome {
    /// The invocation returned a value.
    Ok,
    /// The invocation failed (availability, constraint, threat).
    Failed,
}

/// Per-invocation virtual-time cost breakdown, in the R1–R5 slice
/// style of the Chapter 2 instrumentation (Figure 2.3): application
/// work, interception, parameter/target preparation, repository
/// search, and constraint checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CostBreakdown {
    /// R1 — application/database work (method dispatch, reads).
    pub r1_application_ns: u64,
    /// R2 — interception: base invocation + replication/CCM
    /// interceptor passes.
    pub r2_interception_ns: u64,
    /// R3 — parameter extraction and target routing (lock acquisition,
    /// remote hops to the executing node).
    pub r3_preparation_ns: u64,
    /// R4 — constraint-repository search (trigger-point lookups).
    pub r4_repository_ns: u64,
    /// R5 — constraint checks, negotiation and threat persistence.
    pub r5_checks_ns: u64,
}

impl CostBreakdown {
    /// Total virtual time across all slices.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.r1_application_ns
                + self.r2_interception_ns
                + self.r3_preparation_ns
                + self.r4_repository_ns
                + self.r5_checks_ns,
        )
    }
}

/// Which trigger point of the CCMgr fired (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TriggerKind {
    /// Before-invocation preconditions.
    Precondition,
    /// After-invocation postconditions.
    Postcondition,
    /// After-invocation invariants.
    Invariant,
    /// Commit-time soft/async invariants.
    CommitPrepare,
}

/// How a threat record landed in the persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ThreatStorage {
    /// First occurrence — full record persisted.
    Stored,
    /// Additional occurrence linked under the full-history policy.
    LinkedOccurrence,
    /// Duplicate detected under identical-once — read only.
    Deduplicated,
}

/// A two-phase-commit protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TwoPcPhase {
    /// Phase 1: the transaction voted and is prepared.
    Prepare,
    /// Phase 2: the prepared transaction commits.
    Commit,
}

/// What drove a [`TraceEvent::ModeTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TransitionCause {
    /// A scripted topology operation (`partition`, `heal`, `crash`,
    /// `restart`) — the entry path scenarios and tests script.
    Scripted,
    /// A stabilized view change from the failure-detection pipeline —
    /// the production entry path.
    Detector,
}

/// Why the request plane refused a request at the admission gate
/// (before it ever entered a queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AdmissionReject {
    /// The node's token bucket was empty.
    Overloaded,
    /// The class queue was full and nothing lower-priority could be
    /// displaced.
    QueueFull,
}

/// Why an *admitted* request was dropped from a queue before it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ShedCause {
    /// Displaced by a higher-priority arrival while its queue was
    /// full.
    Displaced,
    /// Shed by mode-coupled backpressure (while the system is not
    /// healthy, `Background` work is dropped first).
    ModePressure,
}

/// A typed trace event.
///
/// Serialized with an external `kind` tag so a JSONL stream is easy to
/// filter with standard tools (`jq 'select(.event.kind == "...")'`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TraceEvent {
    /// A business invocation entered the middleware pipeline.
    InvocationStart {
        /// Node the client issued the invocation on.
        node: NodeId,
        /// Enclosing transaction.
        tx: TxId,
        /// Target object (display form `Class#key`).
        target: SharedText,
        /// Invoked method.
        method: SharedText,
    },
    /// A business invocation left the middleware pipeline.
    InvocationEnd {
        /// Node the client issued the invocation on.
        node: NodeId,
        /// Enclosing transaction.
        tx: TxId,
        /// Target object (display form `Class#key`).
        target: SharedText,
        /// Invoked method.
        method: SharedText,
        /// Success or failure.
        outcome: InvocationOutcome,
        /// Virtual-time cost split into R1–R5 slices.
        cost: CostBreakdown,
    },
    /// A CCMgr trigger point fired and searched the repository.
    TriggerPoint {
        /// Which trigger point.
        trigger: TriggerKind,
        /// The `Class::method` signature looked up.
        signature: String,
        /// Number of affected constraints found.
        matches: u32,
    },
    /// One constraint was validated (including staleness adjustment).
    ConstraintValidated {
        /// Constraint name.
        constraint: SharedText,
        /// Final satisfaction degree.
        degree: SatisfactionDegree,
        /// Number of objects the validation accessed.
        accessed: u32,
    },
    /// A consistency threat was journalled at its transaction's commit.
    ThreatRecorded {
        /// Constraint name.
        constraint: SharedText,
        /// Context object, if any.
        context: Option<SharedText>,
        /// Observed satisfaction degree.
        degree: SatisfactionDegree,
        /// Storage outcome (dedup vs new record).
        storage: ThreatStorage,
    },
    /// A consistency threat was rejected during negotiation; the
    /// enclosing operation aborts.
    ThreatRejected {
        /// Constraint name.
        constraint: SharedText,
        /// Observed satisfaction degree.
        degree: SatisfactionDegree,
    },
    /// A two-phase-commit protocol step.
    TwoPc {
        /// The transaction.
        tx: TxId,
        /// Protocol step.
        phase: TwoPcPhase,
    },
    /// A transaction began.
    TxBegin {
        /// The transaction.
        tx: TxId,
    },
    /// A transaction committed.
    TxCommit {
        /// The transaction.
        tx: TxId,
    },
    /// A transaction rolled back (explicitly or by veto).
    TxRollback {
        /// The transaction.
        tx: TxId,
    },
    /// A committed update was propagated to reachable backups.
    ReplicationUpdate {
        /// The updated object.
        object: SharedText,
        /// Node the write executed on.
        from: NodeId,
        /// Number of backups reached.
        recipients: u32,
        /// Point-to-point messages exchanged.
        messages: u64,
        /// Whether the system was degraded (bookkeeping recorded).
        degraded: bool,
    },
    /// A validation read hit a possibly stale replica (LCC input).
    StalenessHit {
        /// The possibly stale object.
        object: SharedText,
        /// Node that read it.
        node: NodeId,
    },
    /// A node installed a new membership view.
    ViewChange {
        /// The observing node.
        node: NodeId,
        /// The new view id.
        view: ViewId,
        /// Members of the new view.
        members: u32,
        /// Nodes that joined (merge when > 0).
        joined: u32,
        /// Nodes that left (degradation when > 0).
        left: u32,
    },
    /// The cluster-wide system mode changed (Figure 1.4).
    ModeTransition {
        /// Previous mode.
        from: SystemMode,
        /// New mode.
        to: SystemMode,
        /// What drove the transition (scripted call vs detector).
        cause: TransitionCause,
    },
    /// A failure detector started suspecting a peer (raw, pre-damping).
    SuspicionRaised {
        /// The suspecting node.
        observer: NodeId,
        /// The node that fell silent.
        suspect: NodeId,
    },
    /// A failure detector heard from a suspected peer again.
    SuspicionCleared {
        /// The formerly suspecting node.
        observer: NodeId,
        /// The peer that came back.
        peer: NodeId,
    },
    /// A suspicion flip was absorbed by flap damping instead of being
    /// allowed to drive a view change (BGP-style route damping).
    FlapDamped {
        /// The flapping node.
        node: NodeId,
        /// Its decayed damping penalty after the flip (milli-units).
        penalty_milli: u64,
    },
    /// A detected partitioning survived the stabilizer's hysteresis
    /// window and was installed cluster-wide.
    ViewStabilized {
        /// Number of partitions in the stabilized view.
        partitions: u32,
        /// Size of the largest partition.
        largest: u32,
    },
    /// WAL replay found a torn tail: entries failing their checksum
    /// were truncated before the store was rebuilt.
    WalTruncated {
        /// The recovering node.
        node: NodeId,
        /// Entries dropped from the tail.
        truncated: u64,
    },
    /// Replica reconciliation (step 1 of the reconciliation phase)
    /// completed.
    ReconcileReplicaPhase {
        /// Missed updates propagated.
        missed_updates: u64,
        /// Write-write conflicts resolved.
        conflicts: u32,
        /// Virtual time the step took.
        duration_ns: u64,
    },
    /// Constraint reconciliation (step 2) completed.
    ReconcileConstraintPhase {
        /// Distinct threat identities re-evaluated.
        re_evaluated: u64,
        /// Threats found satisfied and removed.
        satisfied_removed: u64,
        /// Actual violations detected.
        violations: u64,
        /// Violations resolved by rollback search.
        resolved_by_rollback: u64,
        /// Violations resolved immediately by the handler.
        resolved_by_handler: u64,
        /// Violations deferred to later cleanup.
        deferred: u64,
        /// Threats postponed (partitions remain).
        postponed: u64,
        /// Moot threats dropped: constraint removed, or context object
        /// deleted.
        dropped: u64,
        /// Virtual time the step took.
        duration_ns: u64,
    },
    /// A chaos-engine fault step was injected into the running cluster.
    ChaosFault {
        /// Zero-based index of the fault among the schedule's faults.
        step: u32,
        /// Short, stable description of the fault (e.g. `crash(2)`).
        fault: String,
    },
    /// A node crashed: volatile state torn down, persistent log kept.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
        /// Active transactions aborted by the crash.
        aborted_txs: u32,
        /// Prepared transactions left in doubt by the crash.
        in_doubt_txs: u32,
    },
    /// A crashed node restarted: log replayed, threats re-activated,
    /// node rejoined via GMS.
    NodeRestart {
        /// The restarted node.
        node: NodeId,
        /// Committed-state journal entries replayed.
        replayed_entries: u64,
        /// Persisted consistency threats re-activated (§5.5.1).
        reactivated_threats: u64,
    },
    /// A prepared transaction became in-doubt: its coordinator crashed
    /// between prepare and commit.
    TwoPcInDoubt {
        /// The in-doubt transaction.
        tx: TxId,
        /// The crashed coordinator.
        coordinator: NodeId,
    },
    /// An in-doubt transaction was resolved by the recovery protocol.
    TwoPcResolved {
        /// The transaction.
        tx: TxId,
        /// `true` when resolved by presumed abort; `false` when the
        /// restarted coordinator decided commit.
        presumed_abort: bool,
    },
    /// A constraint expression was lowered to a flat program for the
    /// compiled validation engine.
    ConstraintCompiled {
        /// Constraint name.
        constraint: SharedText,
        /// VM ops in the compiled program.
        ops: u32,
        /// Static reads (`self` fields + env keys) the program makes.
        reads: u32,
    },
    /// A validation candidate was answered from the verdict cache: the
    /// version of every object in its read-set was unchanged since the
    /// cached evaluation.
    VerdictCacheHit {
        /// Constraint name.
        constraint: SharedText,
        /// Context object (display form `Class#key`).
        object: SharedText,
    },
    /// A cacheable validation candidate missed the verdict cache and
    /// was evaluated in full.
    VerdictCacheMiss {
        /// Constraint name.
        constraint: SharedText,
        /// Context object (display form `Class#key`).
        object: SharedText,
    },
    /// Cached verdicts were dropped because their object was written,
    /// deleted, or resettled by reconciliation/restart.
    VerdictCacheInvalidate {
        /// The invalidated object (display form `Class#key`), or `"*"`
        /// for a whole-cache clear.
        object: SharedText,
        /// Cache entries removed.
        entries: u32,
    },
    /// The request plane admitted a request into a per-node class
    /// queue.
    RequestAdmitted {
        /// Plane-wide request id (admission order).
        request: u64,
        /// The node whose plane admitted the request.
        node: NodeId,
        /// Priority class of the request.
        class: PriorityClass,
        /// Queue depth across all classes after admission.
        depth: u32,
    },
    /// The request plane refused a request at the admission gate; the
    /// caller sees a typed error and the request never queues.
    RequestRejected {
        /// Plane-wide request id (admission order).
        request: u64,
        /// The refusing node.
        node: NodeId,
        /// Priority class of the request.
        class: PriorityClass,
        /// Why admission was refused.
        reason: AdmissionReject,
    },
    /// An admitted request was dropped from its queue before it ran.
    RequestShed {
        /// Plane-wide request id (admission order).
        request: u64,
        /// The node that shed the request.
        node: NodeId,
        /// Priority class of the shed request.
        class: PriorityClass,
        /// Why the request was shed.
        cause: ShedCause,
    },
    /// An admitted request's virtual-time deadline expired while it
    /// was queued; it was dropped *before* execution.
    RequestDeadlineMissed {
        /// Plane-wide request id (admission order).
        request: u64,
        /// The node the request was queued on.
        node: NodeId,
        /// Priority class of the request.
        class: PriorityClass,
        /// Virtual time the request spent queued before expiry.
        waited_ns: u64,
    },
    /// An admitted request was dispatched and finished (its session
    /// closure ran to commit or returned an error).
    RequestCompleted {
        /// Plane-wide request id (admission order).
        request: u64,
        /// The executing node.
        node: NodeId,
        /// Priority class of the request.
        class: PriorityClass,
        /// Business outcome of the closure.
        outcome: InvocationOutcome,
        /// Virtual time spent queued before dispatch.
        queued_ns: u64,
        /// Virtual time the closure itself consumed.
        service_ns: u64,
    },
    /// A batch of cluster configuration deltas was applied atomically
    /// through `Cluster::reconfigure`.
    Reconfigure {
        /// Dotted paths of the fields that changed
        /// (e.g. `validation.verdict_cache`).
        changed: Vec<String>,
    },
    /// The replication ship path retried a backup install after an
    /// injected write failure, with exponential backoff.
    ReplicaShipRetry {
        /// The object being shipped.
        object: SharedText,
        /// The faulty backup node.
        backup: NodeId,
        /// Attempts consumed (including the final one).
        attempts: u32,
        /// Total backoff charged, in abstract backoff units
        /// (1 + 2 + 4 + …).
        backoff_units: u64,
        /// Whether the install ultimately succeeded.
        succeeded: bool,
    },
    /// An in-doubt transaction timed out of the registry via the
    /// deadline path of `Cluster::resolve_in_doubt` (the coordinator
    /// never came back); `two_pc_resolved { presumed_abort: true }`
    /// follows immediately.
    InDoubtTimeout {
        /// The transaction that timed out.
        tx: TxId,
        /// The crashed coordinator it was waiting for.
        coordinator: NodeId,
        /// Virtual time past the presumed-abort deadline at
        /// resolution.
        overdue_ns: u64,
    },
    /// A federation router decision: `object` resolved to `shard` on
    /// the consistent-hash ring.
    ShardRouted {
        /// The routed object (`Class#key`).
        object: SharedText,
        /// The target shard.
        shard: u32,
        /// The target shard's system mode at routing time.
        mode: SystemMode,
        /// Whether the routing policy admitted the request
        /// (`false`: refused because the shard is degraded).
        admitted: bool,
    },
    /// One object's committed state moved between shards during an
    /// explicit federation rebalance.
    ShardMigrated {
        /// The migrated object (`Class#key`).
        object: SharedText,
        /// The shard that gave the object up.
        from: u32,
        /// The shard that now owns it.
        to: u32,
        /// Replicas installed on the target shard.
        replicas: u64,
    },
    /// Every participant shard of a cross-shard transaction voted yes
    /// — the federation coordinator reached the commit decision point.
    #[serde(rename = "xshard_prepared")]
    XShardPrepared {
        /// Federation-wide transaction id.
        xtx: u64,
        /// Participant shards, in shard order.
        shards: Vec<u32>,
    },
    /// A cross-shard transaction finished: every participant committed,
    /// or every participant rolled back.
    #[serde(rename = "xshard_resolved")]
    XShardResolved {
        /// Federation-wide transaction id.
        xtx: u64,
        /// Whether the transaction committed on every shard.
        committed: bool,
        /// Whether an abort came from the federation-level
        /// presumed-abort recovery (coordinator crash + deadline)
        /// rather than an explicit abort or a failed prepare.
        presumed_abort: bool,
    },
}

impl TraceEvent {
    /// A short, stable name of the event kind (matches the serialized
    /// `kind` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::InvocationStart { .. } => "invocation_start",
            TraceEvent::InvocationEnd { .. } => "invocation_end",
            TraceEvent::TriggerPoint { .. } => "trigger_point",
            TraceEvent::ConstraintValidated { .. } => "constraint_validated",
            TraceEvent::ThreatRecorded { .. } => "threat_recorded",
            TraceEvent::ThreatRejected { .. } => "threat_rejected",
            TraceEvent::TwoPc { .. } => "two_pc",
            TraceEvent::TxBegin { .. } => "tx_begin",
            TraceEvent::TxCommit { .. } => "tx_commit",
            TraceEvent::TxRollback { .. } => "tx_rollback",
            TraceEvent::ReplicationUpdate { .. } => "replication_update",
            TraceEvent::StalenessHit { .. } => "staleness_hit",
            TraceEvent::ViewChange { .. } => "view_change",
            TraceEvent::ModeTransition { .. } => "mode_transition",
            TraceEvent::SuspicionRaised { .. } => "suspicion_raised",
            TraceEvent::SuspicionCleared { .. } => "suspicion_cleared",
            TraceEvent::FlapDamped { .. } => "flap_damped",
            TraceEvent::ViewStabilized { .. } => "view_stabilized",
            TraceEvent::WalTruncated { .. } => "wal_truncated",
            TraceEvent::ReconcileReplicaPhase { .. } => "reconcile_replica_phase",
            TraceEvent::ReconcileConstraintPhase { .. } => "reconcile_constraint_phase",
            TraceEvent::ChaosFault { .. } => "chaos_fault",
            TraceEvent::NodeCrash { .. } => "node_crash",
            TraceEvent::NodeRestart { .. } => "node_restart",
            TraceEvent::TwoPcInDoubt { .. } => "two_pc_in_doubt",
            TraceEvent::TwoPcResolved { .. } => "two_pc_resolved",
            TraceEvent::ConstraintCompiled { .. } => "constraint_compiled",
            TraceEvent::VerdictCacheHit { .. } => "verdict_cache_hit",
            TraceEvent::VerdictCacheMiss { .. } => "verdict_cache_miss",
            TraceEvent::VerdictCacheInvalidate { .. } => "verdict_cache_invalidate",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestRejected { .. } => "request_rejected",
            TraceEvent::RequestShed { .. } => "request_shed",
            TraceEvent::RequestDeadlineMissed { .. } => "request_deadline_missed",
            TraceEvent::RequestCompleted { .. } => "request_completed",
            TraceEvent::Reconfigure { .. } => "reconfigure",
            TraceEvent::ReplicaShipRetry { .. } => "replica_ship_retry",
            TraceEvent::InDoubtTimeout { .. } => "in_doubt_timeout",
            TraceEvent::ShardRouted { .. } => "shard_routed",
            TraceEvent::ShardMigrated { .. } => "shard_migrated",
            TraceEvent::XShardPrepared { .. } => "xshard_prepared",
            TraceEvent::XShardResolved { .. } => "xshard_resolved",
        }
    }
}

/// One recorded event: a sequence number, a virtual timestamp and the
/// typed payload. Two identically-seeded runs produce identical record
/// streams (virtual time only — no wall clock anywhere).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonic per-bus sequence number (0-based).
    pub seq: u64,
    /// Virtual time the event was emitted.
    pub at: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_kind_tag() {
        let record = TraceRecord {
            seq: 7,
            at: SimTime::from_nanos(42),
            event: TraceEvent::ModeTransition {
                from: SystemMode::Healthy,
                to: SystemMode::Degraded,
                cause: TransitionCause::Scripted,
            },
        };
        let json = serde_json::to_string(&record).unwrap();
        assert!(json.contains("\"kind\":\"mode_transition\""), "{json}");
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn kind_matches_serde_tag() {
        let event = TraceEvent::StalenessHit {
            object: "Flight#F1".into(),
            node: NodeId(1),
        };
        let json = serde_json::to_string(&event).unwrap();
        let tag = format!("\"kind\":\"{}\"", event.kind());
        assert!(json.contains(&tag), "{json}");
    }

    #[test]
    fn cost_breakdown_totals() {
        let cost = CostBreakdown {
            r1_application_ns: 1,
            r2_interception_ns: 2,
            r3_preparation_ns: 3,
            r4_repository_ns: 4,
            r5_checks_ns: 5,
        };
        assert_eq!(cost.total(), SimDuration::from_nanos(15));
    }
}
