//! Exclusive per-object locks.

use dedisys_types::{Error, IdBuildHasher, ObjectId, Result, TxId};
use std::collections::HashMap;

/// An exclusive lock table keyed by [`ObjectId`] — the entity-bean
/// locking the paper lists among the services already performed per
/// invocation (§5.1).
///
/// Locks are re-entrant for the holding transaction. Constraint
/// validation takes no lock (it reads the containers directly), so the
/// soft-constraint limitation of §5.3 — a validation transaction must
/// be able to read objects locked by the business transaction — does
/// not arise.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<ObjectId, TxId, IdBuildHasher>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the exclusive lock on `object` for `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LockConflict`] if another transaction holds the
    /// lock.
    pub fn acquire(&mut self, tx: TxId, object: &ObjectId) -> Result<()> {
        match self.locks.get(object) {
            Some(&holder) if holder != tx => Err(Error::LockConflict {
                object: object.clone(),
                holder,
            }),
            _ => {
                self.locks.insert(object.clone(), tx);
                Ok(())
            }
        }
    }

    /// Releases every lock held by `tx`; returns how many were freed.
    pub fn release_all(&mut self, tx: TxId) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, holder| *holder != tx);
        before - self.locks.len()
    }

    /// Iterates over every held lock as `(object, holder)` pairs — used
    /// by invariant checkers to detect orphaned locks (locks held by a
    /// transaction that already terminated).
    pub fn holders(&self) -> impl Iterator<Item = (&ObjectId, TxId)> + '_ {
        self.locks.iter().map(|(o, &tx)| (o, tx))
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_types::NodeId;

    fn tx(n: u64) -> TxId {
        TxId::new(NodeId(0), n)
    }

    fn obj(k: &str) -> ObjectId {
        ObjectId::new("Flight", k)
    }

    #[test]
    fn exclusive_locking_and_reentrancy() {
        let mut locks = LockTable::new();
        locks.acquire(tx(1), &obj("a")).unwrap();
        locks.acquire(tx(1), &obj("a")).unwrap(); // re-entrant
        assert_eq!(
            locks.acquire(tx(2), &obj("a")),
            Err(Error::LockConflict {
                object: obj("a"),
                holder: tx(1)
            })
        );
    }

    #[test]
    fn release_all_frees_only_own_locks() {
        let mut locks = LockTable::new();
        locks.acquire(tx(1), &obj("a")).unwrap();
        locks.acquire(tx(1), &obj("b")).unwrap();
        locks.acquire(tx(2), &obj("c")).unwrap();
        assert_eq!(locks.release_all(tx(1)), 2);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks.locks.get(&obj("c")), Some(&tx(2)));
    }
}
