//! Safety invariants checked after every chaos step.
//!
//! The checker never mutates the cluster: it reads counters and
//! registries and reports violations as data, so a soak run can
//! aggregate them and a test can assert the list is empty.

use dedisys_core::{Cluster, ConstraintReconcileReport, RequestPlane};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_types::{NodeId, ObjectId, SystemMode, TxId};
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

    /// The §4.4 accounting of one reconciliation: each re-evaluated
    /// threat identity has one outcome, and each violation one
    /// resolution.
    pub(crate) fn check_reconcile(report: &ConstraintReconcileReport) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let outcomes =
            report.satisfied_removed + report.violations + report.postponed + report.dropped;
        if report.re_evaluated != outcomes {
            out.push(InvariantViolation {
                invariant: "reconcile_accounting",
                detail: format!(
                    "{} re-evaluated, {outcomes} outcomes: {report:?}",
                    report.re_evaluated
                ),
            });
        }
        let resolutions =
            report.resolved_by_rollback + report.resolved_by_handler + report.deferred;
        if report.violations != resolutions {
            out.push(InvariantViolation {
                invariant: "reconcile_accounting",
                detail: format!(
                    "{} violations, {resolutions} resolutions: {report:?}",
                    report.violations
                ),
            });
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

    /// The cross-shard invariants, complementing the per-shard checks:
    /// the committed `balances` of the accounts — `None` for one that
    /// cannot be read — sum to `expected_total` (value conservation: a
    /// transfer that commits its debit but loses its credit breaks the
    /// sum at once), every begun cross-shard transaction is committed,
    /// aborted or still open, and every lock on every shard is held by
    /// a participant of an open cross-shard transaction, by one its
    /// shard keeps in doubt, or by one of `prepared` — the single-shard
    /// 2PCs the caller left prepared. The last reads open state only,
    /// so it costs the same however many transactions have finished.
    pub(crate) fn check_federation(
        fed: &FederatedCluster,
        balances: &[(ObjectId, Option<i64>)],
        expected_total: i64,
        prepared: &[(ShardId, TxId)],
    ) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mut total = 0i64;
        for (id, balance) in balances {
            match balance {
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
                let accounted = prepared.contains(&(shard, tx))
                    || fed.is_open_participant(shard, tx)
                    || cluster.in_doubt_txs().any(|(t, _)| t == tx);
                if !accounted {
                    out.push(InvariantViolation {
                        invariant: "xshard_no_orphaned_locks",
                        detail: format!(
                            "{tx} on {shard} holds {object} outside any open xtx or prepared tx"
                        ),
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
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState, Snapshot};
    use dedisys_types::Value;
    use std::sync::Arc;

    /// Breaks the promise on purpose: a violating state installed as a
    /// migration installs it, past every check, is one no threat
    /// records, and the running checks report it as lost.
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
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .unwrap();
        assert!(InvariantChecker::check_running(&cluster).is_empty());
        let mut planted = cluster.entity_on(NodeId(0), &id).unwrap().clone();
        planted.set_field("n", Value::Int(150), cluster.now());
        let snapshot = Snapshot::encode(planted, &mut String::new());
        cluster.install_object(snapshot).unwrap();
        let lost = InvariantChecker::check_running(&cluster);
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert_eq!(lost[0].invariant, "threat_completeness");
        assert!(lost[0].detail.contains("(Bounded, Counter#c0)"), "{lost:?}");
    }

    /// A reconciliation report is checked on both balances: a dropped
    /// threat left out of the outcomes, or a violation left out of the
    /// resolutions, is a violation each.
    #[test]
    fn an_unbalanced_reconcile_report_is_flagged() {
        let balanced = ConstraintReconcileReport {
            re_evaluated: 2,
            violations: 1,
            deferred: 1,
            dropped: 1,
            ..ConstraintReconcileReport::default()
        };
        assert!(InvariantChecker::check_reconcile(&balanced).is_empty());
        for unbalanced in [
            ConstraintReconcileReport {
                dropped: 0,
                ..balanced
            },
            ConstraintReconcileReport {
                deferred: 0,
                ..balanced
            },
        ] {
            let flagged = InvariantChecker::check_reconcile(&unbalanced);
            assert_eq!(flagged.len(), 1, "{flagged:?}");
            assert_eq!(flagged[0].invariant, "reconcile_accounting");
        }
    }

    /// The `xshard_no_orphaned_locks` violations of `fed`, with the
    /// single-shard transactions of `prepared` left prepared.
    fn orphaned(fed: &FederatedCluster, prepared: &[(ShardId, TxId)]) -> Vec<InvariantViolation> {
        InvariantChecker::check_federation(fed, &[], 0, prepared)
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
        let (mut fed, accounts) = funded();
        let from = &accounts[0];
        let to = accounts
            .iter()
            .find(|id| fed.map().shard_of(id) != fed.map().shard_of(from))
            .expect("both shards own an account");

        let xtx = prepare_transfer(&mut fed, from, to, 1).unwrap();
        assert!(orphaned(&fed, &[]).is_empty(), "prepared");
        fed.crash_coordinator(xtx).unwrap();
        assert!(orphaned(&fed, &[]).is_empty(), "in doubt");
        fed.clock().advance(XSHARD_TIMEOUT);
        assert_eq!(fed.resolve_xshard_in_doubt(), 1);
        assert!(orphaned(&fed, &[]).is_empty(), "presumed abort");

        let (shard, stray) = stray(&mut fed, from);
        let found = orphaned(&fed, &[]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].detail.starts_with(&format!("{stray} on {shard}")));
    }

    /// A federation of two shards of three nodes, its twelve accounts
    /// funded with 100 each.
    fn funded() -> (FederatedCluster, Vec<ObjectId>) {
        let mut fed = FederatedCluster::builder(2, 3, chaos_app())
            .build()
            .unwrap();
        let accounts: Vec<ObjectId> = (0..12)
            .map(|i| ObjectId::new("Account", format!("acct-{i}")))
            .collect();
        fund_accounts(&mut fed, &accounts, 100).unwrap();
        (fed, accounts)
    }

    /// A shard transaction that wrote `id` and was detached, still open.
    fn stray(fed: &mut FederatedCluster, id: &ObjectId) -> (ShardId, TxId) {
        let shard = fed.map().shard_of(id);
        let node = fed.coordinator_node(shard).unwrap();
        let mut session = fed.shard_mut(shard).session(node);
        session.set_field(id, "v", Value::Int(100)).unwrap();
        (shard, session.detach())
    }

    /// A single-shard 2PC left prepared holds its locks between steps:
    /// they are accounted for when the caller names the transaction,
    /// and only on its own shard. A lock held by none of an open
    /// cross-shard transaction, an in-doubt one or a named prepared one
    /// is still flagged — the rule admits one more kind of holder, it
    /// does not stop looking.
    #[test]
    fn a_lock_of_a_named_prepared_transaction_is_accounted_for() {
        let (mut fed, accounts) = funded();
        let (shard, tx) = stray(&mut fed, &accounts[0]);
        fed.shard_mut(shard).prepare(tx).unwrap();
        assert!(orphaned(&fed, &[(shard, tx)]).is_empty());
        for named in [&[][..], &[(ShardId(1 - shard.0), tx)]] {
            let found = orphaned(&fed, named);
            assert_eq!(found.len(), 1, "{named:?}: {found:?}");
            assert!(found[0].detail.starts_with(&format!("{tx} on {shard}")));
        }
    }
}
