//! The consolidated, typed cluster configuration.
//!
//! PRs 6–8 accreted ~15 loose knobs on [`ClusterBuilder`]; this module
//! gathers them into four cohesive sub-configs under one
//! [`ClusterConfig`] value that travels from the builder into the
//! running [`Cluster`](crate::Cluster) unchanged:
//!
//! * [`ValidationConfig`] — how constraints are looked up, evaluated
//!   and negotiated,
//! * [`MembershipConfig`] — failure detection, view stabilization and
//!   primary-partition write admission,
//! * [`DurabilityConfig`] — threat history, reconciliation strategy
//!   and replica-history depth,
//! * [`PlaneConfig`] — the request plane's admission control, queue
//!   bounds, deadlines and mode-coupled shedding.
//!
//! Build-time configuration goes through
//! [`ClusterBuilder::config`](crate::ClusterBuilder::config); runtime
//! deltas go through
//! [`Cluster::reconfigure`](crate::Cluster::reconfigure), which applies
//! every changed field atomically and emits one `reconfigure` trace
//! event naming the dotted paths that changed.

use crate::ccm::NegotiationTiming;
use crate::cluster::ReconcileStrategy;
use crate::threat::HistoryPolicy;
use dedisys_constraints::{ConstraintEngine, LookupMode};
use dedisys_gms::{
    AdaptiveConfig, DetectorConfig, DetectorKind, MinorityWriteHandling, PrimaryPartitionPolicy,
    StabilizerConfig,
};
use dedisys_types::{PriorityClass, SatisfactionDegree, SimDuration};

/// How constraints are looked up, evaluated and negotiated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// The constraint evaluation engine (interpreted walker vs
    /// compiled stack-VM programs). Runtime-reconfigurable; switching
    /// to `Compiled` lowers and charges for every registered
    /// constraint, and any switch clears the verdict cache.
    pub engine: ConstraintEngine,
    /// Whether the version-keyed verdict cache answers cacheable
    /// invariant checks. Runtime-reconfigurable; toggling clears the
    /// cache.
    pub verdict_cache: bool,
    /// The constraint-repository lookup mode. Build-time only — the
    /// repository's index layout is fixed at construction.
    pub lookup_mode: LookupMode,
    /// Immediate or deferred threat negotiation (§5.4).
    /// Runtime-reconfigurable.
    pub negotiation_timing: NegotiationTiming,
    /// Application-wide default minimum satisfaction degree.
    /// Runtime-reconfigurable.
    pub app_default_min_degree: SatisfactionDegree,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            engine: ConstraintEngine::default(),
            verdict_cache: false,
            lookup_mode: LookupMode::Cached,
            negotiation_timing: NegotiationTiming::Immediate,
            app_default_min_degree: SatisfactionDegree::Satisfied,
        }
    }
}

/// Failure detection, view stabilization and primary-partition write
/// admission.
///
/// Everything except [`primary_policy`](Self::primary_policy) and
/// [`minority_writes`](Self::minority_writes) is build-time only: the
/// detector pipeline is wired (or not) when the cluster is built.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MembershipConfig {
    /// Whether the detector-driven membership pipeline runs at all
    /// (default: off — tests script topology changes explicitly).
    /// Build-time only.
    pub detector_enabled: bool,
    /// The failure-detector kind (fixed timeout vs φ-accrual).
    /// Build-time only.
    pub detector: DetectorKind,
    /// Heartbeat/timeout configuration of the detector. Build-time
    /// only.
    pub detector_config: DetectorConfig,
    /// φ-accrual parameters ([`DetectorKind::Adaptive`]). Build-time
    /// only.
    pub adaptive: AdaptiveConfig,
    /// Hysteresis / flap-damping parameters of the view stabilizer.
    /// Build-time only.
    pub stabilizer: StabilizerConfig,
    /// Seed of the pipeline's deterministic loss/jitter draws.
    /// Build-time only.
    pub seed: u64,
    /// How a partition classifies itself primary (§5.5.2).
    /// Runtime-reconfigurable.
    pub primary_policy: PrimaryPartitionPolicy,
    /// What happens to minority-partition writes under a quorum
    /// policy. Runtime-reconfigurable.
    pub minority_writes: MinorityWriteHandling,
}

/// Threat history, reconciliation strategy and replica-history depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// The threat-history policy (§5.5.1). Build-time only — the
    /// store's record layout depends on it.
    pub threat_policy: HistoryPolicy,
    /// How constraint reconciliation picks the threats to re-evaluate.
    /// Runtime-reconfigurable.
    pub reconcile_strategy: ReconcileStrategy,
    /// Duplicate threat records tolerated before the
    /// [`HistoryPolicy::Reduced`] store folds them.
    /// Runtime-reconfigurable.
    pub compaction_threshold: usize,
    /// Whether replicas keep only the latest state (reduced history).
    /// Runtime-reconfigurable.
    pub reduced_replica_history: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            threat_policy: HistoryPolicy::IdenticalOnce,
            reconcile_strategy: ReconcileStrategy::default(),
            compaction_threshold: 32,
            reduced_replica_history: false,
        }
    }
}

/// The request plane's admission control, queue bounds, deadlines and
/// mode-coupled shedding. All fields are runtime-reconfigurable; the
/// plane reads the cluster's live config at every admission and
/// dispatch step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneConfig {
    /// Per-node bound on the total queued requests across all
    /// priority classes. An arrival at the bound displaces queued
    /// lower-priority work or is rejected.
    pub queue_capacity: u32,
    /// Token-bucket refill rate, in admissions per virtual second.
    pub refill_per_second: u64,
    /// Token-bucket capacity — the largest instantaneous burst a node
    /// admits from a full bucket.
    pub burst: u32,
    /// Default virtual-time deadline for `Critical` requests submitted
    /// without one (`None`: no deadline).
    pub deadline_critical: Option<SimDuration>,
    /// Default deadline for `Normal` requests.
    pub deadline_normal: Option<SimDuration>,
    /// Default deadline for `Background` requests.
    pub deadline_background: Option<SimDuration>,
    /// Whether degraded / minority-partition backpressure sheds queued
    /// `Background` work before dispatching anything else.
    pub shed_background_when_degraded: bool,
}

impl PlaneConfig {
    /// The configured default deadline for `class`.
    pub fn default_deadline(&self, class: PriorityClass) -> Option<SimDuration> {
        match class {
            PriorityClass::Critical => self.deadline_critical,
            PriorityClass::Normal => self.deadline_normal,
            PriorityClass::Background => self.deadline_background,
        }
    }
}

impl Default for PlaneConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            refill_per_second: 2_000,
            burst: 32,
            deadline_critical: None,
            deadline_normal: Some(SimDuration::from_millis(250)),
            deadline_background: Some(SimDuration::from_millis(1_000)),
            shed_background_when_degraded: true,
        }
    }
}

/// The complete typed configuration of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterConfig {
    /// Constraint lookup, evaluation and negotiation.
    pub validation: ValidationConfig,
    /// Failure detection and primary-partition write admission.
    pub membership: MembershipConfig,
    /// Threat history and reconciliation.
    pub durability: DurabilityConfig,
    /// Request-plane admission and shedding.
    pub plane: PlaneConfig,
}

impl ClusterConfig {
    /// Dotted paths of every field in which `self` and `other`
    /// differ — the payload of the `reconfigure` trace event.
    pub fn diff(&self, other: &ClusterConfig) -> Vec<String> {
        let mut changed = Vec::new();
        macro_rules! cmp {
            ($($section:ident . $field:ident),* $(,)?) => {
                $(
                    if self.$section.$field != other.$section.$field {
                        changed.push(concat!(
                            stringify!($section), ".", stringify!($field)
                        ).to_string());
                    }
                )*
            };
        }
        cmp!(
            validation.engine,
            validation.verdict_cache,
            validation.lookup_mode,
            validation.negotiation_timing,
            validation.app_default_min_degree,
            membership.detector_enabled,
            membership.detector,
            membership.detector_config,
            membership.adaptive,
            membership.stabilizer,
            membership.seed,
            membership.primary_policy,
            membership.minority_writes,
            durability.threat_policy,
            durability.reconcile_strategy,
            durability.compaction_threshold,
            durability.reduced_replica_history,
            plane.queue_capacity,
            plane.refill_per_second,
            plane.burst,
            plane.deadline_critical,
            plane.deadline_normal,
            plane.deadline_background,
            plane.shed_background_when_degraded,
        );
        changed
    }

    /// Dotted paths of changed fields that cannot be applied to a
    /// running cluster (their subsystems are wired at build time).
    pub fn immutable_diff(&self, other: &ClusterConfig) -> Vec<String> {
        self.diff(other)
            .into_iter()
            .filter(|path| {
                matches!(
                    path.as_str(),
                    "validation.lookup_mode"
                        | "membership.detector_enabled"
                        | "membership.detector"
                        | "membership.detector_config"
                        | "membership.adaptive"
                        | "membership.stabilizer"
                        | "membership.seed"
                        | "durability.threat_policy"
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_changed_fields() {
        let a = ClusterConfig::default();
        let mut b = a;
        b.validation.verdict_cache = true;
        b.plane.burst = 1;
        assert_eq!(a.diff(&b), vec!["validation.verdict_cache", "plane.burst"]);
        assert!(a.immutable_diff(&b).is_empty());
    }

    #[test]
    fn immutable_fields_are_flagged() {
        let a = ClusterConfig::default();
        let mut b = a;
        b.membership.seed = 7;
        b.durability.threat_policy = HistoryPolicy::FullHistory;
        b.durability.compaction_threshold = 4;
        assert_eq!(
            a.immutable_diff(&b),
            vec!["membership.seed", "durability.threat_policy"]
        );
    }

    #[test]
    fn identical_configs_have_empty_diff() {
        let a = ClusterConfig::default();
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn plane_deadlines_index_by_class() {
        let plane = PlaneConfig::default();
        assert_eq!(plane.default_deadline(PriorityClass::Critical), None);
        assert!(plane.default_deadline(PriorityClass::Normal).is_some());
        assert!(plane.default_deadline(PriorityClass::Background).is_some());
    }
}
