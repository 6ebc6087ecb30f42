//! The transaction manager.

use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{Error, NodeId, Result, TxId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Life-cycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Running; operations may be performed.
    Active,
    /// Phase 1 of 2PC succeeded; the outcome is pending phase 2. If the
    /// coordinator crashes now the transaction is *in doubt* and must
    /// be resolved by the recovery protocol (presumed abort).
    Prepared,
    /// Successfully committed.
    Committed,
    /// Rolled back (explicitly, by veto, or by 2PC failure).
    RolledBack,
}

/// Counters kept by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TxStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions rolled back.
    pub rolled_back: u64,
}

#[derive(Debug)]
struct TxRecord {
    status: TxStatus,
    rollback_only: bool,
}

/// Tracks transaction life cycles and the rollback-only veto flag.
///
/// The manager is deliberately policy-free: two-phase commit is driven
/// by the middleware node (`dedisys_core::Cluster::prepare`/`commit`),
/// locking by [`crate::LockTable`]; the node wires them together.
#[derive(Debug, Default)]
pub struct TransactionManager {
    records: HashMap<TxId, TxRecord>,
    next_seq: HashMap<NodeId, u64>,
    stats: TxStats,
    telemetry: Option<Telemetry>,
}

impl TransactionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wires a telemetry bus; life-cycle events (`tx_begin`,
    /// `tx_commit`, `tx_rollback`) are emitted from now on.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.telemetry {
            t.emit(build);
        }
    }

    /// Begins a transaction on behalf of `node`.
    pub fn begin(&mut self, node: NodeId) -> TxId {
        let seq = self.next_seq.entry(node).or_insert(0);
        let tx = TxId::new(node, *seq);
        *seq += 1;
        self.records.insert(
            tx,
            TxRecord {
                status: TxStatus::Active,
                rollback_only: false,
            },
        );
        self.stats.begun += 1;
        self.emit(|| TraceEvent::TxBegin { tx });
        tx
    }

    /// The status of `tx`, if known.
    pub fn status(&self, tx: TxId) -> Option<TxStatus> {
        self.records.get(&tx).map(|r| r.status)
    }

    /// Whether `tx` is active.
    pub fn is_active(&self, tx: TxId) -> bool {
        self.status(tx) == Some(TxStatus::Active)
    }

    /// Whether `tx` is prepared (awaiting phase 2 of 2PC).
    pub fn is_prepared(&self, tx: TxId) -> bool {
        self.status(tx) == Some(TxStatus::Prepared)
    }

    /// Number of transactions that are still open (active or
    /// prepared) — used by invariant checkers to assert transaction
    /// conservation: `begun == committed + rolled_back + open`.
    pub fn open_count(&self) -> usize {
        self.records
            .values()
            .filter(|r| matches!(r.status, TxStatus::Active | TxStatus::Prepared))
            .count()
    }

    /// Moves an active transaction to [`TxStatus::Prepared`] after a
    /// successful phase 1 of 2PC.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed; it is
    ///   rolled back as a side effect (a vetoed transaction can never
    ///   vote yes).
    pub fn mark_prepared(&mut self, tx: TxId) -> Result<()> {
        let record = self.active_record(tx)?;
        if record.rollback_only {
            record.status = TxStatus::RolledBack;
            self.stats.rolled_back += 1;
            self.emit(|| TraceEvent::TxRollback { tx });
            return Err(Error::RollbackOnly(tx));
        }
        record.status = TxStatus::Prepared;
        Ok(())
    }

    /// Marks `tx` rollback-only: any later commit attempt fails and
    /// rolls back instead. This is how the CCMgr vetoes transactions
    /// whose constraints are violated (§4.2.3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] if `tx` is unknown or
    /// already terminated.
    pub fn set_rollback_only(&mut self, tx: TxId) -> Result<()> {
        let record = self.active_record(tx)?;
        record.rollback_only = true;
        Ok(())
    }

    /// Whether `tx` has been marked rollback-only.
    pub fn is_rollback_only(&self, tx: TxId) -> bool {
        self.records.get(&tx).is_some_and(|r| r.rollback_only)
    }

    /// Commits `tx`.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed; it is
    ///   rolled back as a side effect.
    pub fn commit(&mut self, tx: TxId) -> Result<()> {
        let record = self.active_record(tx)?;
        if record.rollback_only {
            record.status = TxStatus::RolledBack;
            self.stats.rolled_back += 1;
            self.emit(|| TraceEvent::TxRollback { tx });
            return Err(Error::RollbackOnly(tx));
        }
        record.status = TxStatus::Committed;
        self.stats.committed += 1;
        self.emit(|| TraceEvent::TxCommit { tx });
        Ok(())
    }

    /// Rolls back `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] if unknown or terminated.
    pub fn rollback(&mut self, tx: TxId) -> Result<()> {
        let record = self.active_record(tx)?;
        record.status = TxStatus::RolledBack;
        self.stats.rolled_back += 1;
        self.emit(|| TraceEvent::TxRollback { tx });
        Ok(())
    }

    /// Marks an active or prepared transaction as rolled back without
    /// an explicit `rollback` call — used when 2PC aborts and when the
    /// in-doubt recovery protocol presumes abort.
    pub fn force_rollback(&mut self, tx: TxId) {
        if let Some(record) = self.records.get_mut(&tx) {
            if matches!(record.status, TxStatus::Active | TxStatus::Prepared) {
                record.status = TxStatus::RolledBack;
                self.stats.rolled_back += 1;
                if let Some(t) = &self.telemetry {
                    t.emit(|| TraceEvent::TxRollback { tx });
                }
            }
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// A record that is still open (active or prepared).
    fn active_record(&mut self, tx: TxId) -> Result<&mut TxRecord> {
        match self.records.get_mut(&tx) {
            Some(r) if matches!(r.status, TxStatus::Active | TxStatus::Prepared) => Ok(r),
            _ => Err(Error::NoSuchTransaction(tx)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_lifecycle() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        assert!(tm.is_active(tx));
        tm.commit(tx).unwrap();
        assert_eq!(tm.status(tx), Some(TxStatus::Committed));
        assert_eq!(tm.stats().committed, 1);
    }

    #[test]
    fn rollback_only_vetoes_commit() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.set_rollback_only(tx).unwrap();
        assert!(tm.is_rollback_only(tx));
        assert_eq!(tm.commit(tx), Err(Error::RollbackOnly(tx)));
        assert_eq!(tm.status(tx), Some(TxStatus::RolledBack));
    }

    #[test]
    fn terminated_transactions_reject_operations() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.rollback(tx).unwrap();
        assert_eq!(tm.commit(tx), Err(Error::NoSuchTransaction(tx)));
        assert_eq!(tm.set_rollback_only(tx), Err(Error::NoSuchTransaction(tx)));
    }

    #[test]
    fn ids_are_unique_per_node() {
        let mut tm = TransactionManager::new();
        let a = tm.begin(NodeId(0));
        let b = tm.begin(NodeId(0));
        let c = tm.begin(NodeId(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prepared_lifecycle_commits_or_presumes_abort() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.mark_prepared(tx).unwrap();
        assert!(tm.is_prepared(tx));
        assert!(!tm.is_active(tx));
        assert_eq!(tm.open_count(), 1);
        // Phase 2 commit succeeds from Prepared.
        tm.commit(tx).unwrap();
        assert_eq!(tm.status(tx), Some(TxStatus::Committed));
        assert_eq!(tm.open_count(), 0);
        // Presumed abort rolls back a prepared transaction.
        let tx2 = tm.begin(NodeId(1));
        tm.mark_prepared(tx2).unwrap();
        tm.force_rollback(tx2);
        assert_eq!(tm.status(tx2), Some(TxStatus::RolledBack));
    }

    #[test]
    fn vetoed_transaction_cannot_prepare() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.set_rollback_only(tx).unwrap();
        assert_eq!(tm.mark_prepared(tx), Err(Error::RollbackOnly(tx)));
        assert_eq!(tm.status(tx), Some(TxStatus::RolledBack));
    }

    #[test]
    fn force_rollback_only_affects_active() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.commit(tx).unwrap();
        tm.force_rollback(tx); // no-op on committed
        assert_eq!(tm.status(tx), Some(TxStatus::Committed));
        let tx2 = tm.begin(NodeId(0));
        tm.force_rollback(tx2);
        assert_eq!(tm.status(tx2), Some(TxStatus::RolledBack));
    }
}
