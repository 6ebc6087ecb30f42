//! Transactions: sessions, the one two-phase commit (vote, apply,
//! ship to the backups), rollback, and entity creation and deletion.

use super::{Change, Cluster, TxInfo};
use crate::ccm::{DeferredThreat, NegotiationHandler, TxThreats, ValidationCandidate};
use crate::session::Session;
use dedisys_constraints::ConstraintKind;
use dedisys_object::EntityState;
use dedisys_telemetry::{ThreatStorage, TraceEvent, TriggerKind, TwoPcPhase};
use dedisys_types::{Error, NodeId, ObjectId, Result, TxId};
use std::fmt::Write;

/// `commit:tx-n-s`, the pseudo-signature the commit trigger point
/// shows, built in one allocation of its exact size.
fn commit_signature(tx: TxId) -> String {
    let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let len = "commit:tx--".len() + digits(u64::from(tx.node.0)) + digits(tx.seq);
    let mut text = String::with_capacity(len);
    write!(text, "commit:{tx}").expect("a String takes every write");
    text
}

impl Cluster {
    /// Opens a transactional [`Session`] on `node` — the RAII handle
    /// for the begin/invoke/commit lifecycle. A session that is
    /// dropped without [`Session::commit`] or [`Session::prepare`]
    /// rolls its transaction back.
    ///
    /// ```no_run
    /// # use dedisys_core::ClusterBuilder;
    /// # use dedisys_object::AppDescriptor;
    /// # use dedisys_types::NodeId;
    /// # let mut cluster = ClusterBuilder::new(3, AppDescriptor::new("app")).build()?;
    /// let mut session = cluster.session(NodeId(0));
    /// // session.invoke(&id, "reserve", vec![])?;
    /// session.commit()?;
    /// # Ok::<(), dedisys_types::Error>(())
    /// ```
    pub fn session(&mut self, node: NodeId) -> Session<'_> {
        let tx = self.begin_tx(node);
        Session::new(self, tx)
    }

    pub(crate) fn begin_tx(&mut self, node: NodeId) -> TxId {
        let info = self.spare_txs.pop().unwrap_or_default();
        self.txs.begin_with(node, info)
    }

    /// Empties the record of an ended transaction onto the spare list.
    fn recycle(&mut self, mut info: TxInfo) {
        info.clear();
        self.spare_txs.push(info);
    }

    /// Whether the coordinator of `tx` crashed after prepare.
    fn is_in_doubt(&self, tx: TxId) -> bool {
        self.txs
            .info(tx)
            .is_some_and(|info| info.in_doubt.is_some())
    }

    /// Registers a dynamic negotiation handler for `tx` (§4.2.3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] unless `tx` is open: a
    /// handler lives in the record of an open transaction and ends
    /// with it.
    pub fn register_negotiation_handler(
        &mut self,
        tx: TxId,
        handler: Box<dyn NegotiationHandler>,
    ) -> Result<()> {
        self.txs.info_mut(tx)?.threats.handler = Some(handler);
        Ok(())
    }

    /// Rolls back `tx`, discarding all buffered changes.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::TxInDoubt`] — only the in-doubt recovery protocol
    ///   may resolve a transaction whose coordinator crashed.
    pub fn rollback(&mut self, tx: TxId) -> Result<()> {
        if self.is_in_doubt(tx) {
            return Err(Error::TxInDoubt(tx));
        }
        self.abort(tx)
    }

    /// Ends `tx` rolled back: its record leaves the table with the
    /// threat changes it staged, its buffers on every node it involved
    /// are discarded and its locks released.
    pub(super) fn abort(&mut self, tx: TxId) -> Result<()> {
        let info = self.txs.rollback(tx)?;
        for node in &info.involved {
            self.containers[node.index()].rollback(tx);
        }
        self.recycle(info);
        self.locks.release_all(tx);
        Ok(())
    }

    /// Phase 1 of an explicit two-phase commit: validates pending
    /// soft/async constraints (the CCMgr's prepare vote) and moves
    /// `tx` to the prepared state. A prepared transaction keeps its
    /// locks and buffers until phase 2 ([`Cluster::commit`]); if its
    /// coordinator crashes first it becomes *in-doubt* and is resolved
    /// by presumed abort ([`Cluster::resolve_in_doubt`]).
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed earlier;
    ///   it is rolled back.
    /// * Constraint errors from the prepare vote (everything rolled
    ///   back).
    pub fn prepare(&mut self, tx: TxId) -> Result<()> {
        self.vote(tx)?;
        self.txs.mark_prepared(tx)?;
        self.telemetry.emit(|| TraceEvent::TwoPc {
            tx,
            phase: TwoPcPhase::Prepare,
        });
        Ok(())
    }

    /// Commits `tx`: validates pending soft/async constraints (the
    /// CCMgr's prepare vote), applies buffered writes and propagates
    /// updates to reachable backups.
    ///
    /// # Errors
    ///
    /// * [`Error::RollbackOnly`] — the transaction was vetoed earlier.
    /// * [`Error::ConstraintViolated`] / [`Error::ThreatRejected`] — a
    ///   soft constraint failed at prepare; everything is rolled back.
    /// * [`Error::TxInDoubt`] — the coordinator crashed after prepare;
    ///   only the in-doubt recovery protocol may resolve the
    ///   transaction.
    pub fn commit(&mut self, tx: TxId) -> Result<()> {
        if self.is_in_doubt(tx) {
            return Err(Error::TxInDoubt(tx));
        }
        if self.txs.is_prepared(tx) {
            // Phase 2 of an explicit 2PC: constraints already voted at
            // prepare time; just apply.
            self.telemetry.emit(|| TraceEvent::TwoPc {
                tx,
                phase: TwoPcPhase::Commit,
            });
            return self.apply_commit(tx);
        }
        self.vote(tx)?;
        self.apply_commit(tx)
    }

    /// The vote both [`Cluster::prepare`] and a one-phase
    /// [`Cluster::commit`] take on an active `tx`: the pending checks
    /// ([`Cluster::check_pending`]), then the negotiation of the
    /// threats deferred to the commit (§5.4); a failure rolls
    /// everything back.
    fn vote(&mut self, tx: TxId) -> Result<()> {
        self.check_pending(tx)?;
        self.ccm_step(tx, Self::negotiate_deferred)
    }

    /// The first half of the vote, which the Web gateway also takes
    /// right after its operation: a transaction vetoed earlier is
    /// rolled back, otherwise the CCMgr validates the pending soft and
    /// async invariants (§4.2.3: soft constraints are checked at the
    /// end of the transaction) and a failure rolls everything back.
    /// Under deferred timing their threats join the deferred ones.
    pub(crate) fn check_pending(&mut self, tx: TxId) -> Result<()> {
        if !self.txs.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.txs.is_rollback_only(tx) {
            let _ = self.abort(tx);
            return Err(Error::RollbackOnly(tx));
        }
        self.ccm_step(tx, Self::validate_pending)
    }

    /// Runs the CCMgr's `step` on `tx` (nothing while the CCMgr is
    /// off); a failure rolls `tx` back.
    fn ccm_step(&mut self, tx: TxId, step: fn(&mut Self, TxId) -> Result<()>) -> Result<()> {
        if self.ccm_enabled {
            if let Err(e) = step(self, tx) {
                let _ = self.abort(tx);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Applies a voted transaction: flips the manager state, applies
    /// its staged threat changes, installs buffered writes, persists,
    /// propagates to reachable backups (charging propagation plus any
    /// ship-retry backoff) and releases locks.
    pub(super) fn apply_commit(&mut self, tx: TxId) -> Result<()> {
        let mut info = self.txs.commit(tx)?;
        self.commit_threats(&mut info.threats);
        // Apply buffers: what each node's commit did, node by node and
        // in id order, kept in the cluster's reused buffer (an error
        // below drops it; the next commit starts a new one).
        let mut changes = std::mem::take(&mut self.changes);
        for &node in &info.involved {
            let (written, deleted) = self.containers[node.index()].commit(tx);
            changes.extend(written.iter().map(|id| {
                let change = if info.created.contains_key(id) {
                    Change::Created
                } else {
                    Change::Written
                };
                (node, id.clone(), change)
            }));
            changes.extend(deleted.iter().map(|id| (node, id.clone(), Change::Deleted)));
        }
        // Persist + propagate: every write, then every delete.
        for (node, id, change) in changes.iter().filter(|(.., c)| *c != Change::Deleted) {
            self.clock.advance(self.costs.db_write);
            if *change == Change::Created {
                self.clock.advance(self.costs.create_extra);
                self.metrics.creates += 1;
                if self.replication_enabled {
                    // Replica metadata (JNDI name, key, creation
                    // request) is persisted too (§5.1).
                    self.clock.advance(self.costs.db_write);
                    if let Some((replicas, primary)) = info.created.get(id) {
                        self.replication.register_object(
                            id.clone(),
                            replicas.iter().copied(),
                            *primary,
                        )?;
                    }
                }
            }
            if self.replication_enabled {
                self.ship(id, *node);
            }
        }
        for (node, id, _) in changes.iter().filter(|(.., c)| *c == Change::Deleted) {
            self.clock.advance(self.costs.db_write);
            self.metrics.deletes += 1;
            if self.replication_enabled {
                self.ship(id, *node);
            }
        }
        // Committed writes advance object versions — drop every cached
        // verdict that depended on the old state, once per object, in
        // id order.
        changes.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        changes.dedup_by(|a, b| a.1 == b.1);
        for (_, id, _) in &changes {
            self.invalidate_verdicts_of(id);
        }
        changes.clear();
        self.changes = changes;
        self.recycle(info);
        self.locks.release_all(tx);
        Ok(())
    }

    /// Applies a committing transaction's staged threat changes: the
    /// identities it cleaned up leave the store, then each threat it
    /// accepted is journalled and charged for how it landed (§5.1). An
    /// open transaction's check that cleaned up a journalled identity
    /// did not see this operation, so its clean-up lapses.
    fn commit_threats(&mut self, threats: &mut TxThreats) {
        for identity in threats.cleaned.drain(..) {
            self.ccm.threat_store.remove_identity(&identity);
        }
        for threat in threats.accepted.drain(..) {
            let (identity, degree) = (threat.identity(), threat.degree);
            let storage = self.ccm.threat_store.store(threat);
            let lapsed: Vec<TxId> = (self.txs.iter())
                .filter(|(_, info)| info.threats.cleaned.contains(&identity))
                .map(|(tx, _)| tx)
                .collect();
            for tx in lapsed {
                if let Ok(info) = self.txs.info_mut(tx) {
                    info.threats.cleaned.retain(|id| *id != identity);
                }
            }
            self.telemetry.metrics().incr("ccm.threats_recorded");
            self.telemetry.emit(|| TraceEvent::ThreatRecorded {
                constraint: identity.constraint.text().into(),
                context: identity.context_object.map(|object| object.text().into()),
                degree,
                storage,
            });
            self.charge_threat_storage(storage);
        }
    }

    /// Charges the journalling of one threat by how it landed (§5.1).
    fn charge_threat_storage(&mut self, storage: ThreatStorage) {
        let others = (self.ccm.threat_store.identity_count() as u64).saturating_sub(1);
        let scan = self.costs.threat_scan_per_identity * others;
        self.clock.advance(match storage {
            ThreatStorage::Stored => self.costs.threat_new_fixed + scan,
            ThreatStorage::LinkedOccurrence => self.costs.threat_link_fixed + scan,
            ThreatStorage::Deduplicated => self.costs.threat_dedup_read,
        });
    }

    /// Ships the committed state of `id` from `node` to the reachable
    /// backups, charging the propagation plus any ship-retry backoff.
    fn ship(&mut self, id: &ObjectId, node: NodeId) {
        let report = self.replication.propagate_update(
            id,
            node,
            &self.topology,
            &mut self.containers,
            self.clock.now(),
        );
        self.clock
            .advance(self.costs.propagation(report.recipients));
        self.clock
            .advance(self.costs.ship_retry_backoff * report.backoff_units);
    }

    fn validate_pending(&mut self, tx: TxId) -> Result<()> {
        let origin = tx.node;
        let pending = std::mem::take(&mut self.txs.info_mut(tx)?.pending);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::CommitPrepare,
            signature: commit_signature(tx),
            matches: pending.len() as u32,
        });
        let degraded =
            self.topology.partition_of(origin).len() < self.topology.node_count() as usize;
        for check in &pending {
            let constraint = check.constraint.as_ref();
            let context_object = check.context_object.as_ref();
            if degraded && constraint.meta.kind == ConstraintKind::AsyncInvariant {
                // §5.5.3: degraded mode — no validation, no
                // negotiation; record the threat directly.
                let threat = self.ccm.record_async_threat(constraint, context_object, tx);
                self.txs.info_mut(tx)?.threats.accepted.push(threat);
            } else {
                let candidate = ValidationCandidate::invariant(constraint, context_object);
                self.validate_and_process(&candidate, origin, tx)?;
            }
        }
        Ok(())
    }

    /// §5.4: the transaction blocks before commit until all deferred
    /// negotiation decisions are available. Each threat's negotiation
    /// was charged when it was detected, as under immediate timing.
    fn negotiate_deferred(&mut self, tx: TxId) -> Result<()> {
        let threats = &mut self.txs.info_mut(tx)?.threats;
        self.ccm
            .negotiate_deferred(threats, &self.config.validation)
    }

    /// The threats deferred so far in open `tx`, in the order
    /// [`Cluster::commit`] will negotiate them (none for an unknown
    /// transaction).
    pub(crate) fn deferred_threats(&self, tx: TxId) -> &[DeferredThreat] {
        self.txs.info(tx).map_or(&[], |info| &info.threats.deferred)
    }

    /// Creates `entity` within `tx`, replicated on every node with the
    /// creating node as primary.
    ///
    /// # Errors
    ///
    /// Propagates container failures (unknown class, duplicate id).
    pub fn create(&mut self, node: NodeId, tx: TxId, entity: EntityState) -> Result<()> {
        let replicas: Vec<NodeId> = self.topology.nodes().collect();
        self.create_bound(node, tx, entity, replicas, node)
    }

    /// Creates `entity` with an explicit replica set and primary — the
    /// DTMS "strong ownership" case (§1.4).
    ///
    /// # Errors
    ///
    /// Propagates container failures; [`Error::NoSuchTransaction`] for
    /// unknown transactions.
    pub fn create_bound(
        &mut self,
        node: NodeId,
        tx: TxId,
        entity: EntityState,
        replicas: Vec<NodeId>,
        primary: NodeId,
    ) -> Result<()> {
        self.check_open(node, tx)?;
        self.charge_interception();
        let id = entity.id().clone();
        // The create executes on the object's primary — a node outside
        // the replica set never materializes a copy.
        let exec = if self.replication_enabled {
            if !self.topology.reachable(node, primary) {
                return Err(Error::NodeUnreachable(primary));
            }
            primary
        } else {
            node
        };
        self.charge_remote_hop(node, exec);
        self.locks.acquire(tx, &id)?;
        self.containers[exec.index()].create(tx, entity)?;
        let info = self.txs.info_mut(tx)?;
        info.involve(exec);
        info.created.insert(id, (replicas, primary));
        Ok(())
    }

    /// Deletes `id` within `tx`.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts and container failures.
    pub fn delete(&mut self, node: NodeId, tx: TxId, id: &ObjectId) -> Result<()> {
        self.check_open(node, tx)?;
        self.charge_interception();
        let exec = if self.replication_enabled {
            self.replication.write_target(id, node, &self.topology)?
        } else {
            node
        };
        self.charge_remote_hop(node, exec);
        self.locks.acquire(tx, id)?;
        self.containers[exec.index()].delete(tx, id)?;
        self.txs.info_mut(tx)?.involve(exec);
        Ok(())
    }

    /// Runs `f` inside a fresh transaction on `node`, committing on
    /// success and rolling back on failure.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error (after rollback) or the commit
    /// failure.
    pub fn run_tx<T>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Cluster, TxId) -> Result<T>,
    ) -> Result<T> {
        let tx = self.begin_tx(node);
        match f(self, tx) {
            Ok(value) => {
                self.commit(tx)?;
                Ok(value)
            }
            Err(e) => {
                let _ = self.rollback(tx);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ClusterBuilder;
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::{NodeId, ObjectId, Value};

    #[test]
    fn ended_transactions_leave_their_records_for_reuse() {
        let app = AppDescriptor::new("t")
            .with_class(ClassDescriptor::new("Flight").with_field("sold", Value::Int(0)));
        let mut cluster = ClusterBuilder::new(3, app).build().unwrap();
        // Primaries on nodes 0 and 1; node 2 only ever holds backups.
        let ids = [NodeId(0), NodeId(1)].map(|node| {
            let id = ObjectId::new("Flight", format!("on-{node}"));
            cluster
                .run_tx(node, |c, tx| {
                    c.create(node, tx, EntityState::for_class(c.app(), &id)?)
                })
                .unwrap();
            id
        });
        for n in 0..1_000 {
            let mut session = cluster.session(NodeId(2));
            for id in &ids {
                session.set_field(id, "sold", Value::Int(n)).unwrap();
            }
            session.get_field(&ids[0], "sold").unwrap();
            // Every other one rolls back: its record comes back too.
            if n % 2 == 0 {
                session.commit().unwrap();
            } else {
                session.rollback().unwrap();
            }
            assert_eq!(cluster.spare_txs.len(), 1, "after {n}");
        }
        assert_eq!(cluster.tx_record_count(), 0);

        // Two open at once take two records, and both come back: the
        // spares stay at that peak.
        for _ in 0..3 {
            let first = cluster.begin_tx(NodeId(0));
            let second = cluster.begin_tx(NodeId(0));
            cluster
                .set_field(NodeId(0), first, &ids[0], "sold", Value::Int(1))
                .unwrap();
            cluster
                .set_field(NodeId(0), second, &ids[1], "sold", Value::Int(1))
                .unwrap();
            cluster.commit(first).unwrap();
            cluster.rollback(second).unwrap();
        }
        assert_eq!(cluster.spare_txs.len(), 2);
        assert_eq!(cluster.tx_record_count(), 0);
    }
}
