//! # dedisys-tx
//!
//! Transaction substrate — the JBossTS replacement.
//!
//! The balancing approach keeps atomicity, isolation and durability
//! strictly bound to transactions ("AID" transactions, Figure 1.2)
//! while replication and constraint consistency operate on top. This
//! crate provides:
//!
//! * [`TransactionManager`] — begin/commit/rollback life cycle,
//!   **rollback-only** marking (the CCMgr's veto, §4.2.3), and a record
//!   per *open* transaction carrying the caller's payload, handed back
//!   when it ends (an ended one leaves only the counters).
//! * [`LockTable`] — exclusive per-object locks (entity-bean locking).
//!
//! Two-phase commit is not driven here: `dedisys_core::Cluster::
//! {prepare, commit, resolve_in_doubt}` is the one 2PC (the CCMgr votes
//! at prepare), driven across shards by `dedisys-federation`.
//!
//! ## Example
//!
//! ```
//! use dedisys_tx::TransactionManager;
//! use dedisys_types::NodeId;
//!
//! let mut tm = TransactionManager::default();
//! let tx = tm.begin_with(NodeId(0), vec!["Flight#F1"]);
//! assert!(tm.is_active(tx));
//! tm.info_mut(tx)?.push("Flight#F2");
//! assert_eq!(tm.commit(tx)?, ["Flight#F1", "Flight#F2"]);
//!
//! let tx = tm.begin(NodeId(0));
//! tm.set_rollback_only(tx)?;
//! assert!(tm.commit(tx).is_err()); // vetoed: rolled back instead
//! assert_eq!(tm.stats().rolled_back, 1);
//! assert_eq!(tm.info(tx), None); // a transaction's record ends with it
//! # Ok::<(), dedisys_types::Error>(())
//! ```

mod locks;
mod manager;

pub use locks::LockTable;
pub use manager::{TransactionManager, TxStats};
