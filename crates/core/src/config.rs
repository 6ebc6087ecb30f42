//! The consolidated, typed cluster configuration.
//!
//! PRs 6–8 accreted ~15 loose knobs on [`ClusterBuilder`]; this module
//! gathers them into four cohesive sub-configs under one
//! [`ClusterConfig`] value that travels from the builder into the
//! running [`Cluster`](crate::Cluster) unchanged:
//!
//! * [`ValidationConfig`] — how constraints are looked up, evaluated
//!   and negotiated,
//! * [`MembershipConfig`] — failure detection and view stabilization,
//! * [`DurabilityConfig`] — threat history and reconciliation
//!   strategy,
//! * [`PlaneConfig`] — the request plane's admission control, queue
//!   bounds and deadlines.
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
use dedisys_constraints::ConstraintEngine;
use dedisys_gms::{AdaptiveConfig, DetectorConfig, DetectorKind, StabilizerConfig};
use dedisys_types::{PriorityClass, SatisfactionDegree, SimDuration};

/// How constraints are evaluated and negotiated.
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
            negotiation_timing: NegotiationTiming::Immediate,
            app_default_min_degree: SatisfactionDegree::Satisfied,
        }
    }
}

/// Failure detection and view stabilization.
///
/// Every field is build-time only: the detector pipeline is wired (or
/// not) when the cluster is built.
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
}

/// Threat history and reconciliation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// The threat-history policy (§5.5.1). Build-time only — the
    /// store's record layout depends on it.
    pub threat_policy: HistoryPolicy,
    /// How constraint reconciliation picks the threats to re-evaluate.
    /// Runtime-reconfigurable.
    pub reconcile_strategy: ReconcileStrategy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            threat_policy: HistoryPolicy::IdenticalOnce,
            reconcile_strategy: ReconcileStrategy::default(),
        }
    }
}

/// The request plane's admission control, queue bounds and deadlines.
/// All fields are runtime-reconfigurable; the plane reads the cluster's
/// live config at every admission and dispatch step.
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
        }
    }
}

/// The complete typed configuration of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterConfig {
    /// Constraint evaluation and negotiation.
    pub validation: ValidationConfig,
    /// Failure detection and view stabilization.
    pub membership: MembershipConfig,
    /// Threat history and reconciliation.
    pub durability: DurabilityConfig,
    /// Request-plane admission, queue bounds and deadlines.
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
            validation.negotiation_timing,
            validation.app_default_min_degree,
            membership.detector_enabled,
            membership.detector,
            membership.detector_config,
            membership.adaptive,
            membership.stabilizer,
            membership.seed,
            durability.threat_policy,
            durability.reconcile_strategy,
            plane.queue_capacity,
            plane.refill_per_second,
            plane.burst,
            plane.deadline_critical,
            plane.deadline_normal,
            plane.deadline_background,
        );
        changed
    }

    /// Dotted paths of changed fields that cannot be applied to a
    /// running cluster (their subsystems are wired at build time): the
    /// whole `membership` section and `durability.threat_policy`.
    pub fn immutable_diff(&self, other: &ClusterConfig) -> Vec<String> {
        self.diff(other)
            .into_iter()
            .filter(|path| path.starts_with("membership.") || path == "durability.threat_policy")
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
        b.durability.reconcile_strategy = ReconcileStrategy::FullScan;
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
