//! Safety invariants checked after every chaos step.
//!
//! The checker never mutates the cluster: it reads counters and
//! registries and reports violations as data, so a soak run can
//! aggregate them and a test can assert the list is empty.

use crate::engine::account_balance;
use dedisys_core::{Cluster, RequestPlane};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_types::{NodeId, ObjectId, SystemMode};
use std::collections::BTreeSet;

/// One violated invariant, with a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InvariantViolation {
    /// Stable name of the invariant (for aggregation).
    pub(crate) invariant: &'static str,
    /// What exactly went wrong.
    pub(crate) detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Stateless invariant checks over a [`Cluster`] (and the request
/// plane that fronts it), and over a [`FederatedCluster`] of them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InvariantChecker;

impl InvariantChecker {
    /// Invariants that must hold at *every* point of a run, however
    /// degraded the system is — threat completeness
    /// ([`Cluster::audit`]) among them.
    pub(crate) fn check_running(cluster: &Cluster) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let stats = cluster.stats();

        // Transaction conservation: every begun transaction is
        // committed, rolled back, or still open (active/prepared).
        let open = cluster.open_tx_count() as u64;
        if stats.tx.begun != stats.tx.committed + stats.tx.rolled_back + open {
            out.push(InvariantViolation {
                invariant: "tx_conservation",
                detail: format!(
                    "begun={} != committed={} + rolled_back={} + open={open}",
                    stats.tx.begun, stats.tx.committed, stats.tx.rolled_back
                ),
            });
        }

        // No orphaned locks: every lock holder is still open.
        for (object, tx) in cluster.held_locks() {
            if !cluster.tx_is_open(tx) {
                out.push(InvariantViolation {
                    invariant: "no_orphaned_locks",
                    detail: format!("lock on {object} held by terminated {tx}"),
                });
            }
        }

        // In-doubt sanity: an in-doubt transaction is still prepared
        // and its coordinator really is down.
        for (tx, info) in cluster.in_doubt_txs() {
            if !cluster.tx_is_open(tx) {
                out.push(InvariantViolation {
                    invariant: "in_doubt_open",
                    detail: format!("in-doubt {tx} is not open"),
                });
            }
            if !cluster.is_crashed(info.coordinator) {
                out.push(InvariantViolation {
                    invariant: "in_doubt_coordinator_down",
                    detail: format!("in-doubt {tx} names live coordinator {}", info.coordinator),
                });
            }
        }

        // Crashed nodes are topology singletons and force degradation.
        for node in cluster.crashed_nodes() {
            if cluster.topology().partition_of(node).len() != 1 {
                out.push(InvariantViolation {
                    invariant: "crashed_isolated",
                    detail: format!("crashed {node} is reachable from other nodes"),
                });
            }
        }
        if cluster.crashed_nodes().next().is_some() && cluster.mode() == SystemMode::Healthy {
            out.push(InvariantViolation {
                invariant: "crashed_implies_degraded",
                detail: "mode is healthy while nodes are crashed".into(),
            });
        }

        // Threat completeness: every violation of an enabled invariant
        // in the committed state is explained.
        for finding in cluster.audit() {
            if finding.explanation.is_none() {
                out.push(InvariantViolation {
                    invariant: "threat_completeness",
                    detail: format!("unexplained violation {finding}"),
                });
            }
        }
        out
    }

    /// Request-accounting invariants on the request plane: no admitted
    /// request vanishes (conservation: `offered == admitted + rejected`
    /// and `admitted == completed + shed + deadline_missed + queued`)
    /// and every per-node queue respects the configured bound.
    pub(crate) fn check_plane(plane: &RequestPlane, cluster: &Cluster) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        if !plane.conserves() {
            let t = plane.stats().total();
            out.push(InvariantViolation {
                invariant: "plane_conservation",
                detail: format!(
                    "offered={} admitted={} rejected={} completed={} shed={} \
                     deadline_missed={} queued={}",
                    t.offered,
                    t.admitted,
                    t.rejected,
                    t.completed,
                    t.shed,
                    t.deadline_missed,
                    plane.queued_total()
                ),
            });
        }
        let bound = dedisys_core::plane::QUEUE_CAPACITY;
        for node in cluster.topology().nodes() {
            let depth = plane.queue_depth(node);
            if depth > bound {
                out.push(InvariantViolation {
                    invariant: "plane_queue_bound",
                    detail: format!("{node} queues {depth} requests over the bound {bound}"),
                });
            }
        }
        out
    }

    /// The cross-shard invariants of a federation that runs only
    /// cross-shard transactions between two checks, complementing the
    /// per-shard checks: the committed balances of `accounts` sum to
    /// `expected_total` (value conservation — a transfer that commits
    /// its debit but loses its credit breaks the sum at once), every
    /// begun cross-shard transaction is committed, aborted or still
    /// open, and every lock on every shard is held by a participant of
    /// an open cross-shard transaction or by one its shard keeps in
    /// doubt. The last reads open state only, so it costs the same
    /// however many transactions have finished.
    pub(crate) fn check_federation(
        fed: &FederatedCluster,
        accounts: &[ObjectId],
        expected_total: i64,
    ) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mut total = 0i64;
        for id in accounts {
            match account_balance(fed, id) {
                Some(v) => total += v,
                None => out.push(InvariantViolation {
                    invariant: "xshard_conservation",
                    detail: format!("account {id} unreadable on {}", fed.map().shard_of(id)),
                }),
            }
        }
        if total != expected_total {
            out.push(InvariantViolation {
                invariant: "xshard_conservation",
                detail: format!("committed balances sum to {total}, expected {expected_total}"),
            });
        }

        let stats = fed.stats();
        let open = fed.open_xshard_count() as u64;
        if stats.xshard_begun != stats.xshard_committed + stats.xshard_aborted + open {
            out.push(InvariantViolation {
                invariant: "xshard_tx_conservation",
                detail: format!(
                    "begun={} != committed={} + aborted={} + open={open}",
                    stats.xshard_begun, stats.xshard_committed, stats.xshard_aborted
                ),
            });
        }

        for shard in (0..fed.shard_count()).map(ShardId) {
            let cluster = fed.shard(shard);
            for (object, tx) in cluster.held_locks() {
                let in_doubt = cluster.in_doubt_txs().any(|(t, _)| t == tx);
                if !in_doubt && !fed.is_open_participant(shard, tx) {
                    out.push(InvariantViolation {
                        invariant: "xshard_no_orphaned_locks",
                        detail: format!("{tx} on {shard} holds {object} outside any open xtx"),
                    });
                }
            }
        }
        out
    }

    /// Invariants that must hold after the final repair sequence
    /// (restart every crashed node, heal, resolve in-doubt,
    /// reconcile): the cluster is quiescent, replicas converged, and no
    /// threat stands whose constraint holds.
    pub(crate) fn check_converged(cluster: &Cluster) -> Vec<InvariantViolation> {
        let mut out = Self::check_running(cluster);
        if cluster.crashed_nodes().next().is_some() {
            out.push(InvariantViolation {
                invariant: "all_restarted",
                detail: "crashed nodes remain after the repair sequence".into(),
            });
        }
        if !cluster.topology().is_healthy() {
            out.push(InvariantViolation {
                invariant: "topology_healthy",
                detail: format!("topology still split: {}", cluster.topology()),
            });
        }
        if cluster.needs_reconciliation() {
            out.push(InvariantViolation {
                invariant: "reconciled",
                detail: "threats or degraded writes remain after reconcile".into(),
            });
        }
        for identity in cluster.stale_threats() {
            let context = identity.context_object.map(|o| o.to_string());
            out.push(InvariantViolation {
                invariant: "threat_stale",
                detail: format!(
                    "a threat of {} stands on {} although it holds",
                    identity.constraint,
                    context.as_deref().unwrap_or("-")
                ),
            });
        }
        // With the failure-detection pipeline enabled, a healed and
        // quiescent cluster must carry no standing suspicions and must
        // have converged back to the healthy mode.
        if cluster.detector_enabled() {
            if cluster.standing_suspicions() != 0 {
                out.push(InvariantViolation {
                    invariant: "suspicions_cleared",
                    detail: format!(
                        "{} standing suspicions after heal + quiescence",
                        cluster.standing_suspicions()
                    ),
                });
            }
            if cluster.mode() != SystemMode::Healthy {
                out.push(InvariantViolation {
                    invariant: "mode_healthy",
                    detail: format!("mode is {:?} after the repair sequence", cluster.mode()),
                });
            }
        }
        if cluster.in_doubt_count() != 0 {
            out.push(InvariantViolation {
                invariant: "in_doubt_drained",
                detail: format!("{} transactions still in doubt", cluster.in_doubt_count()),
            });
        }
        if cluster.open_tx_count() != 0 {
            out.push(InvariantViolation {
                invariant: "tx_drained",
                detail: format!("{} transactions still open", cluster.open_tx_count()),
            });
        }
        if !cluster.held_locks().is_empty() {
            out.push(InvariantViolation {
                invariant: "locks_drained",
                detail: format!("{} locks still held", cluster.held_locks().len()),
            });
        }
        // Replica convergence: every replica of every committed object
        // holds it, with the same state, and no other node does.
        let nodes: Vec<NodeId> = cluster.topology().nodes().collect();
        let ids: BTreeSet<ObjectId> = nodes
            .iter()
            .flat_map(|&n| cluster.committed_ids_on(n))
            .collect();
        for id in &ids {
            let replicas = cluster.replicas_of(id);
            let placed = |n: &NodeId| replicas.is_none_or(|r| r.contains(n));
            for &node in nodes.iter().filter(|n| !placed(n)) {
                if cluster.entity_on(node, id).is_some() {
                    out.push(InvariantViolation {
                        invariant: "replica_convergence",
                        detail: format!("{id} is held by {node}, not one of its replicas"),
                    });
                }
            }
            let mut holders = nodes.iter().copied().filter(placed);
            let Some(first) = holders.next() else {
                continue;
            };
            let reference = cluster.entity_on(first, id);
            for node in holders {
                if cluster.entity_on(node, id) != reference {
                    out.push(InvariantViolation {
                        invariant: "replica_convergence",
                        detail: format!("{id} diverges between {first} and {node}"),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chaos_app, fund_accounts, prepare_transfer};
    use dedisys_constraints::{expr::ExprConstraint, ConstraintMeta, RegisteredConstraint};
    use dedisys_core::ClusterBuilder;
    use dedisys_federation::XSHARD_TIMEOUT;
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::{ConstraintName, Value};
    use std::sync::Arc;

    /// A violation committed behind a disabled constraint is one no
    /// threat records: re-enabled, ignoring the violators §3.3's check
    /// hands back, the running checks report it as lost.
    #[test]
    fn a_lost_violation_breaks_threat_completeness() {
        let app = AppDescriptor::new("lost")
            .with_class(ClassDescriptor::new("Counter").with_field("n", Value::Int(0)));
        let bounded = RegisteredConstraint::new(
            ConstraintMeta::new("Bounded"),
            Arc::new(ExprConstraint::parse("self.n <= 100").unwrap()),
        )
        .context_class("Counter");
        let mut cluster = ClusterBuilder::new(2, app)
            .constraint(bounded)
            .build()
            .unwrap();
        let id = ObjectId::new("Counter", "c0");
        let name = ConstraintName::from("Bounded");
        cluster.set_constraint_enabled(&name, false).unwrap();
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)?;
                c.set_field(NodeId(0), tx, &id, "n", Value::Int(150))
            })
            .unwrap();
        assert!(InvariantChecker::check_running(&cluster).is_empty());
        cluster.set_constraint_enabled(&name, true).unwrap();
        let lost = InvariantChecker::check_running(&cluster);
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert_eq!(lost[0].invariant, "threat_completeness");
        assert!(lost[0].detail.contains("(Bounded, Counter#c0)"), "{lost:?}");
    }

    /// The `xshard_no_orphaned_locks` violations of `fed`.
    fn orphaned(fed: &FederatedCluster, accounts: &[ObjectId]) -> Vec<InvariantViolation> {
        InvariantChecker::check_federation(fed, accounts, 100 * accounts.len() as i64)
            .into_iter()
            .filter(|v| v.invariant == "xshard_no_orphaned_locks")
            .collect()
    }

    /// A lock is accounted for while its cross-shard transaction is
    /// open, in doubt included; a shard transaction that holds one
    /// outside any open cross-shard transaction is flagged — what a
    /// participant left behind by a finished one looks like.
    #[test]
    fn a_lock_outside_every_open_cross_shard_transaction_is_flagged() {
        let mut fed = FederatedCluster::builder(2, 3, chaos_app())
            .build()
            .unwrap();
        let accounts: Vec<ObjectId> = (0..12)
            .map(|i| ObjectId::new("Account", format!("acct-{i}")))
            .collect();
        fund_accounts(&mut fed, &accounts, 100).unwrap();
        let from = &accounts[0];
        let to = accounts
            .iter()
            .find(|id| fed.map().shard_of(id) != fed.map().shard_of(from))
            .expect("both shards own an account");

        let xtx = prepare_transfer(&mut fed, from, to, 1).unwrap();
        assert!(orphaned(&fed, &accounts).is_empty(), "prepared");
        fed.crash_coordinator(xtx).unwrap();
        assert!(orphaned(&fed, &accounts).is_empty(), "in doubt");
        fed.clock().advance(XSHARD_TIMEOUT);
        assert_eq!(fed.resolve_xshard_in_doubt(), 1);
        assert!(orphaned(&fed, &accounts).is_empty(), "presumed abort");

        let shard = fed.map().shard_of(from);
        let node = fed.coordinator_node(shard).unwrap();
        let mut session = fed.shard_mut(shard).session(node);
        session.set_field(from, "v", Value::Int(100)).unwrap();
        let stray = session.detach();
        let found = orphaned(&fed, &accounts);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].detail.starts_with(&format!("{stray} on {shard}")));
    }
}
