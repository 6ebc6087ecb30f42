//! The RAII transaction handle.
//!
//! [`Cluster::session`] replaces the raw
//! `begin`/`invoke(tx)`/`commit(tx)` surface: a [`Session`] borrows
//! the cluster, carries its transaction id internally and **rolls the
//! transaction back when dropped** unless it was committed, prepared
//! or detached. That makes the common client shape leak-free by
//! construction — an early `?` return inside a transactional block no
//! longer strands buffered changes and locks:
//!
//! ```no_run
//! # use dedisys_core::ClusterBuilder;
//! # use dedisys_object::AppDescriptor;
//! # use dedisys_types::{NodeId, ObjectId};
//! # let mut cluster = ClusterBuilder::new(3, AppDescriptor::new("app")).build()?;
//! # let seat: ObjectId = ObjectId::new("Ticket", "t1");
//! let mut session = cluster.session(NodeId(0));
//! session.invoke(&seat, "reserve", vec![])?;
//! session.commit()?;
//! # Ok::<(), dedisys_types::Error>(())
//! ```
//!
//! Chaos/fault-injection drivers that deliberately leave transactions
//! open across partition events use [`Session::detach`] to recover the
//! raw [`TxId`] without triggering the drop-rollback.

use crate::ccm::NegotiationHandler;
use crate::cluster::Cluster;
use dedisys_object::EntityState;
use dedisys_types::{NodeId, ObjectId, Result, TxId, Value};

/// A transaction in progress on one node, tied to the borrow of its
/// [`Cluster`]. Created by [`Cluster::session`]; rolls back on drop
/// unless committed, prepared or detached.
#[must_use = "a dropped session rolls its transaction back"]
pub struct Session<'a> {
    cluster: &'a mut Cluster,
    tx: TxId,
    /// Cleared by commit/prepare/rollback/detach; a still-open session
    /// rolls back in `Drop`.
    open: bool,
}

impl<'a> Session<'a> {
    pub(crate) fn new(cluster: &'a mut Cluster, tx: TxId) -> Self {
        Self {
            cluster,
            tx,
            open: true,
        }
    }

    /// The transaction id (for inspection APIs such as
    /// [`Cluster::stats`]-adjacent queries that take a [`TxId`]).
    pub fn tx(&self) -> TxId {
        self.tx
    }

    /// The node the transaction was begun on.
    pub fn node(&self) -> NodeId {
        self.tx.node
    }

    /// The underlying cluster (read-only inspection mid-transaction).
    pub fn cluster(&self) -> &Cluster {
        &*self.cluster
    }

    /// Invokes `method` on `target` within this transaction, from the
    /// session's node.
    ///
    /// # Errors
    ///
    /// As [`Cluster::invoke`].
    pub fn invoke(
        &mut self,
        target: &ObjectId,
        method: impl AsRef<str>,
        args: Vec<Value>,
    ) -> Result<Value> {
        let node = self.node();
        self.cluster.invoke(node, self.tx, target, method, args)
    }

    /// Invokes the conventional setter for `field`.
    ///
    /// # Errors
    ///
    /// As [`Cluster::invoke`].
    pub fn set_field(&mut self, target: &ObjectId, field: &str, value: Value) -> Result<()> {
        let node = self.node();
        self.cluster.set_field(node, self.tx, target, field, value)
    }

    /// Invokes the conventional getter for `field`.
    ///
    /// # Errors
    ///
    /// As [`Cluster::invoke`].
    pub fn get_field(&mut self, target: &ObjectId, field: &str) -> Result<Value> {
        let node = self.node();
        self.cluster.get_field(node, self.tx, target, field)
    }

    /// Creates `entity` within this transaction, replicated on every
    /// node.
    ///
    /// # Errors
    ///
    /// As [`Cluster::create`].
    pub fn create(&mut self, entity: EntityState) -> Result<()> {
        let node = self.node();
        self.cluster.create(node, self.tx, entity)
    }

    /// Creates `entity` with an explicit replica set and primary.
    ///
    /// # Errors
    ///
    /// As [`Cluster::create_bound`].
    pub fn create_bound(
        &mut self,
        entity: EntityState,
        replicas: Vec<NodeId>,
        primary: NodeId,
    ) -> Result<()> {
        let node = self.node();
        self.cluster
            .create_bound(node, self.tx, entity, replicas, primary)
    }

    /// Deletes `id` within this transaction.
    ///
    /// # Errors
    ///
    /// As [`Cluster::delete`].
    pub fn delete(&mut self, id: &ObjectId) -> Result<()> {
        let node = self.node();
        self.cluster.delete(node, self.tx, id)
    }

    /// Registers a dynamic negotiation handler for this transaction
    /// (§4.2.3).
    ///
    /// # Errors
    ///
    /// As [`Cluster::register_negotiation_handler`]: the transaction
    /// ended under the session (its node crashed).
    pub fn register_negotiation_handler(
        &mut self,
        handler: Box<dyn NegotiationHandler>,
    ) -> Result<()> {
        self.cluster.register_negotiation_handler(self.tx, handler)
    }

    /// Phase 1 of an explicit two-phase commit; the prepared
    /// transaction is handed back as a raw [`TxId`] for phase 2
    /// ([`Cluster::commit`]) or in-doubt resolution.
    ///
    /// # Errors
    ///
    /// As [`Cluster::prepare`]; the session is consumed either way
    /// (a failed prepare has already rolled back).
    pub fn prepare(mut self) -> Result<TxId> {
        self.open = false;
        let tx = self.tx;
        self.cluster.prepare(tx)?;
        Ok(tx)
    }

    /// Commits this transaction (constraint prepare vote + apply).
    ///
    /// # Errors
    ///
    /// As [`Cluster::commit`]; the session is consumed either way (a
    /// failed commit has already rolled back).
    pub fn commit(mut self) -> Result<()> {
        self.open = false;
        let tx = self.tx;
        self.cluster.commit(tx)
    }

    /// Rolls this transaction back explicitly (same as dropping the
    /// session, but surfaces the result).
    ///
    /// # Errors
    ///
    /// As [`Cluster::rollback`].
    pub fn rollback(mut self) -> Result<()> {
        self.open = false;
        let tx = self.tx;
        self.cluster.rollback(tx)
    }

    /// Releases the transaction from RAII management and returns its
    /// raw [`TxId`] — for drivers that deliberately keep transactions
    /// open past the session borrow (chaos injection, in-doubt
    /// scenarios). The caller becomes responsible for eventually
    /// committing or rolling the transaction back via the `TxId`-based
    /// [`Cluster`] API.
    pub fn detach(mut self) -> TxId {
        self.open = false;
        self.tx
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if self.open {
            // Best-effort: the transaction may already be gone (e.g.
            // vetoed and rolled back by the middleware).
            let _ = self.cluster.rollback(self.tx);
        }
    }
}
