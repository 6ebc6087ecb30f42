//! The transaction manager.

use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{Error, NodeId, Result, TxBuildHasher, TxId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// State of an open transaction. A transaction that ended — committed
/// or rolled back — has no state: its record ends with it, and the
/// manager's counters ([`TxStats`]) are what remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxStatus {
    /// Running; operations may be performed.
    Active,
    /// Phase 1 of 2PC succeeded; the outcome is pending phase 2. If the
    /// coordinator crashes now the transaction is *in doubt* and must
    /// be resolved by the recovery protocol (presumed abort).
    Prepared,
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
struct TxRecord<T> {
    status: TxStatus,
    rollback_only: bool,
    info: T,
}

/// Tracks the open transactions: each record holds the status, the
/// rollback-only veto flag and the caller's `T`.
///
/// The manager is deliberately policy-free: two-phase commit is driven
/// by the middleware node (`dedisys_core::Cluster::prepare`/`commit`),
/// locking by [`crate::LockTable`]; the node wires them together.
#[derive(Debug, Default)]
pub struct TransactionManager<T = ()> {
    records: HashMap<TxId, TxRecord<T>, TxBuildHasher>,
    next_seq: HashMap<NodeId, u64>,
    stats: TxStats,
    telemetry: Option<Telemetry>,
}

impl TransactionManager {
    /// Creates an empty manager whose records carry nothing.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Default> TransactionManager<T> {
    /// Begins a transaction on behalf of `node`, its record carrying
    /// `T::default()`.
    pub fn begin(&mut self, node: NodeId) -> TxId {
        self.begin_with(node, T::default())
    }
}

impl<T> TransactionManager<T> {
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

    /// Begins a transaction on behalf of `node` whose record carries
    /// `info` until it ends.
    pub fn begin_with(&mut self, node: NodeId, info: T) -> TxId {
        let seq = self.next_seq.entry(node).or_insert(0);
        let tx = TxId::new(node, *seq);
        *seq += 1;
        self.records.insert(
            tx,
            TxRecord {
                status: TxStatus::Active,
                rollback_only: false,
                info,
            },
        );
        self.stats.begun += 1;
        self.emit(|| TraceEvent::TxBegin { tx });
        tx
    }

    /// The status of `tx`; `None` once it ended (or never began).
    fn status(&self, tx: TxId) -> Option<TxStatus> {
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

    /// What the record of open `tx` carries; `None` once it ended.
    pub fn info(&self, tx: TxId) -> Option<&T> {
        self.records.get(&tx).map(|r| &r.info)
    }

    /// What the record of open `tx` carries, to change.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] if `tx` is unknown or
    /// already terminated.
    pub fn info_mut(&mut self, tx: TxId) -> Result<&mut T> {
        Ok(&mut self.open_record(tx)?.info)
    }

    /// Every open transaction with what its record carries, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (TxId, &T)> + '_ {
        self.records.iter().map(|(tx, r)| (*tx, &r.info))
    }

    /// Number of transactions that are still open (active or
    /// prepared) — used by invariant checkers to assert transaction
    /// conservation: `begun == committed + rolled_back + open`.
    pub fn open_count(&self) -> usize {
        self.records.len()
    }

    /// Moves an active transaction to the prepared state after a
    /// successful phase 1 of 2PC.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed; it is
    ///   rolled back as a side effect (a vetoed transaction can never
    ///   vote yes).
    pub fn mark_prepared(&mut self, tx: TxId) -> Result<()> {
        let record = self.open_record(tx)?;
        if record.rollback_only {
            let _ = self.rollback(tx);
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
        self.open_record(tx)?.rollback_only = true;
        Ok(())
    }

    /// Whether `tx` has been marked rollback-only.
    pub fn is_rollback_only(&self, tx: TxId) -> bool {
        self.records.get(&tx).is_some_and(|r| r.rollback_only)
    }

    /// Commits `tx` and hands back what its record carried.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed; it is
    ///   rolled back as a side effect.
    pub fn commit(&mut self, tx: TxId) -> Result<T> {
        let record = self.end(tx)?;
        if record.rollback_only {
            self.count_rollback(tx);
            return Err(Error::RollbackOnly(tx));
        }
        self.stats.committed += 1;
        self.emit(|| TraceEvent::TxCommit { tx });
        Ok(record.info)
    }

    /// Rolls back `tx` and hands back what its record carried.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] if unknown or terminated.
    pub fn rollback(&mut self, tx: TxId) -> Result<T> {
        let record = self.end(tx)?;
        self.count_rollback(tx);
        Ok(record.info)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// The record of `tx` — there is one exactly while it is open.
    fn open_record(&mut self, tx: TxId) -> Result<&mut TxRecord<T>> {
        self.records
            .get_mut(&tx)
            .ok_or(Error::NoSuchTransaction(tx))
    }

    /// Ends `tx`: its record leaves the table, whatever the outcome the
    /// caller goes on to count.
    fn end(&mut self, tx: TxId) -> Result<TxRecord<T>> {
        self.records.remove(&tx).ok_or(Error::NoSuchTransaction(tx))
    }

    fn count_rollback(&mut self, tx: TxId) {
        self.stats.rolled_back += 1;
        self.emit(|| TraceEvent::TxRollback { tx });
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
        assert_eq!(tm.status(tx), None, "the record ended with it");
        assert_eq!(tm.stats().committed, 1);
    }

    #[test]
    fn rollback_only_vetoes_commit() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.set_rollback_only(tx).unwrap();
        assert!(tm.is_rollback_only(tx));
        assert_eq!(tm.commit(tx), Err(Error::RollbackOnly(tx)));
        assert_eq!(tm.status(tx), None);
        assert!(!tm.is_rollback_only(tx), "the veto went with the record");
        assert_eq!((tm.stats().rolled_back, tm.open_count()), (1, 0));
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
        assert_eq!(tm.stats().committed, 1);
        assert_eq!(tm.open_count(), 0);
        // Presumed abort rolls back a prepared transaction.
        let tx2 = tm.begin(NodeId(1));
        tm.mark_prepared(tx2).unwrap();
        tm.rollback(tx2).unwrap();
        assert_eq!(tm.stats().rolled_back, 1);
        assert_eq!(tm.open_count(), 0);
    }

    #[test]
    fn vetoed_transaction_cannot_prepare() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.set_rollback_only(tx).unwrap();
        assert_eq!(tm.mark_prepared(tx), Err(Error::RollbackOnly(tx)));
        assert_eq!(tm.stats().rolled_back, 1);
        assert_eq!(tm.mark_prepared(tx), Err(Error::NoSuchTransaction(tx)));
    }

    #[test]
    fn force_rollback_only_affects_active() {
        let mut tm = TransactionManager::new();
        let tx = tm.begin(NodeId(0));
        tm.commit(tx).unwrap();
        assert_eq!(tm.rollback(tx), Err(Error::NoSuchTransaction(tx)));
        assert_eq!((tm.stats().committed, tm.stats().rolled_back), (1, 0));
        let tx2 = tm.begin(NodeId(0));
        tm.rollback(tx2).unwrap();
        assert_eq!((tm.stats().committed, tm.stats().rolled_back), (1, 1));
    }

    #[test]
    fn records_carry_the_callers_info_until_the_end() {
        let mut tm = TransactionManager::default();
        let a = tm.begin_with(NodeId(0), vec![1]);
        let b = tm.begin_with(NodeId(1), vec![2]);
        tm.info_mut(a).unwrap().push(3);
        assert_eq!(tm.info(a), Some(&vec![1, 3]));
        let mut open: Vec<_> = tm.iter().collect();
        open.sort();
        assert_eq!(open, [(a, &vec![1, 3]), (b, &vec![2])]);
        assert_eq!(tm.commit(a), Ok(vec![1, 3]));
        assert_eq!(tm.rollback(b), Ok(vec![2]));
        assert_eq!(tm.info(a), None);
        assert_eq!(tm.info_mut(b), Err(Error::NoSuchTransaction(b)));
    }

    #[test]
    fn ended_transactions_leave_the_table() {
        let mut tm = TransactionManager::new();
        let first = tm.begin(NodeId(0));
        tm.commit(first).unwrap();
        for i in 1..10_000 {
            let tx = tm.begin(NodeId(i % 3));
            if i % 2 == 0 {
                tm.commit(tx).unwrap();
            } else {
                tm.rollback(tx).unwrap();
            }
        }
        assert_eq!(tm.open_count(), 0);
        assert_eq!(tm.status(first), None);
        assert_eq!(tm.commit(first), Err(Error::NoSuchTransaction(first)));
        let stats = tm.stats();
        assert_eq!(stats.begun, stats.committed + stats.rolled_back);
    }
}
