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
//! * [`DurabilityConfig`] — the threat-history policy,
//! * [`PlaneConfig`] — the request plane's admission burst.
//!
//! Build-time configuration goes through
//! [`ClusterBuilder::configure`](crate::ClusterBuilder::configure); runtime
//! deltas go through
//! [`Cluster::reconfigure`](crate::Cluster::reconfigure), which applies
//! every changed field atomically and emits one `reconfigure` trace
//! event naming the dotted paths that changed.

use crate::ccm::NegotiationTiming;
use crate::threat::HistoryPolicy;
use dedisys_constraints::ConstraintEngine;
use dedisys_gms::DetectorKind;
use dedisys_types::{SatisfactionDegree, SimDuration};

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Whether the detector-driven membership pipeline runs at all
    /// (default: off — tests script topology changes explicitly).
    /// Build-time only.
    pub detector_enabled: bool,
    /// The failure-detector kind (fixed timeout vs φ-accrual).
    /// Build-time only.
    pub detector: DetectorKind,
    /// How long a detected partitioning must hold before it is
    /// installed (default 300 ms). Zero installs every raw change at
    /// once and turns flap damping off. Build-time only.
    pub settle: SimDuration,
    /// Seed of the pipeline's deterministic loss/jitter draws.
    /// Build-time only.
    pub seed: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            detector_enabled: false,
            detector: DetectorKind::default(),
            settle: SimDuration::from_millis(300),
            seed: 0,
        }
    }
}

/// Threat history.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DurabilityConfig {
    /// The threat-history policy (§5.5.1; default identical-once).
    /// Build-time only — the store's record layout depends on it.
    pub threat_policy: HistoryPolicy,
}

/// The request plane's admission burst. Runtime-reconfigurable; the
/// plane reads the cluster's live config at every admission. The queue
/// bound, refill rate and per-class deadlines are constants of
/// [`crate::plane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneConfig {
    /// Token-bucket capacity — the largest instantaneous burst a node
    /// admits from a full bucket.
    pub burst: u32,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        Self { burst: 32 }
    }
}

/// The complete typed configuration of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterConfig {
    /// Constraint evaluation and negotiation.
    pub validation: ValidationConfig,
    /// Failure detection and view stabilization.
    pub membership: MembershipConfig,
    /// Threat history.
    pub durability: DurabilityConfig,
    /// Request-plane admission burst.
    pub plane: PlaneConfig,
}

impl ClusterConfig {
    /// Dotted paths of every field in which `self` and `other`
    /// differ — the payload of the `reconfigure` trace event.
    pub fn diff(&self, other: &ClusterConfig) -> Vec<String> {
        let mut changed = Vec::new();
        // Every section is destructured without `..`, so a field added
        // to one does not compile until it is named here.
        let ClusterConfig {
            validation,
            membership,
            durability,
            plane,
        } = self;
        macro_rules! cmp {
            ($($section:ident: $ty:ident { $($field:ident),* $(,)? }),* $(,)?) => {
                $(
                    let $ty { $($field),* } = $section;
                    $(
                        if *$field != other.$section.$field {
                            changed.push(concat!(
                                stringify!($section), ".", stringify!($field)
                            ).to_string());
                        }
                    )*
                )*
            };
        }
        cmp!(
            validation: ValidationConfig {
                engine,
                verdict_cache,
                negotiation_timing,
                app_default_min_degree,
            },
            membership: MembershipConfig {
                detector_enabled,
                detector,
                settle,
                seed,
            },
            durability: DurabilityConfig { threat_policy },
            plane: PlaneConfig { burst },
        );
        changed
    }

    /// Dotted paths of changed fields that cannot be applied to a
    /// running cluster (their subsystems are wired at build time): the
    /// whole `membership` section and `durability.threat_policy`.
    pub(crate) fn immutable_diff(&self, other: &ClusterConfig) -> Vec<String> {
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
        b.plane.burst = 1;
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
}
