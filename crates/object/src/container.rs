//! Per-node entity storage with transactional write buffering.

use crate::{AppDescriptor, EntityState, Snapshot};
use dedisys_store::{ReplayReport, WriteAheadLog};
use dedisys_types::{
    ClassName, Error, IdBuildHasher, ObjectId, Result, SimTime, TxBuildHasher, TxId, Value,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Journal table holding committed entity snapshots.
const JOURNAL_TABLE: &str = "entities";

/// One transaction's writes on one node. Recycled: a commit or rollback
/// empties it onto the container's spare list, and the next transaction
/// to write takes it back with its capacity.
#[derive(Debug, Default, Clone)]
struct TxBuffer {
    /// Sorted by id, so a commit installs in id order.
    entities: Vec<(ObjectId, EntityState)>,
    deleted: HashSet<ObjectId, IdBuildHasher>,
}

impl TxBuffer {
    /// Where `id` is in `entities`, or where it would go.
    fn slot(&self, id: &ObjectId) -> std::result::Result<usize, usize> {
        self.entities.binary_search_by(|(held, _)| held.cmp(id))
    }

    fn entity(&self, id: &ObjectId) -> Option<&EntityState> {
        self.slot(id).ok().map(|at| &self.entities[at].1)
    }

    fn entity_mut(&mut self, id: &ObjectId) -> Option<&mut EntityState> {
        self.slot(id).ok().map(|at| &mut self.entities[at].1)
    }

    /// Buffers `entity` under `id`, replacing what was buffered there.
    fn put(&mut self, id: ObjectId, entity: EntityState) {
        match self.slot(&id) {
            Ok(at) => self.entities[at].1 = entity,
            Err(at) => self.entities.insert(at, (id, entity)),
        }
    }

    fn remove(&mut self, id: &ObjectId) {
        if let Ok(at) = self.slot(id) {
            self.entities.remove(at);
        }
    }
}

/// Entity storage of one node (one replica set member).
///
/// Writes are buffered per transaction (read-your-writes) and applied
/// on [`EntityContainer::commit`]; [`EntityContainer::rollback`]
/// discards them — giving the "A" and "I" of the AID transactions the
/// balancing approach builds upon (Figure 1.2).
///
/// Every change to the committed state is additionally appended to a
/// per-node write-ahead *journal*. The journal models the node's
/// durable disk: [`EntityContainer::crash_volatile`] wipes the
/// committed map and every transaction buffer (volatile memory) while
/// keeping the journal, and [`EntityContainer::recover_from_journal`]
/// replays it to reconstruct the committed state after a restart. The
/// journal compacts itself to each object's newest committed state
/// ([`WriteAheadLog`]), so it holds live state, not history.
///
/// Committed state is held as [`Snapshot`]s. A transaction's first
/// write to an object copies the committed state into its buffer (the
/// one copy-on-write clone); commit freezes the buffered state into a
/// new snapshot, encoded and hashed once, and the journal entry *shares*
/// that snapshot's record and its id's text. A backup installs the same
/// snapshot ([`EntityContainer::install`]) — one more journal entry
/// pointing at the same record, one map slot replaced, nothing cloned,
/// re-encoded or re-hashed.
#[derive(Debug, Clone)]
pub struct EntityContainer {
    /// Shared so method dispatch can hold on to the descriptor while it
    /// writes to the container ([`EntityContainer::shared_app`]).
    app: Arc<AppDescriptor>,
    /// Probed per request by exact id, so hashed; the two views that
    /// hand ids out in order sort on the way out.
    committed: HashMap<ObjectId, Snapshot, IdBuildHasher>,
    buffers: HashMap<TxId, TxBuffer, TxBuildHasher>,
    /// Emptied buffers of ended transactions, at most as many as were
    /// ever open at once; a transaction's first write takes one.
    spare_buffers: Vec<TxBuffer>,
    journal: WriteAheadLog,
    /// The ids of the last commit, written ones first: what
    /// [`EntityContainer::commit`] lends out, refilled by the next.
    commit_ids: Vec<ObjectId>,
    /// What [`EntityContainer::encode`] writes each record into before
    /// the record is shared.
    record: String,
}

impl EntityContainer {
    /// Creates an empty container for `app`.
    pub fn new(app: &AppDescriptor) -> Self {
        Self {
            app: Arc::new(app.clone()),
            committed: HashMap::default(),
            buffers: HashMap::default(),
            spare_buffers: Vec::new(),
            journal: WriteAheadLog::new(),
            commit_ids: Vec::new(),
            record: String::new(),
        }
    }

    /// `tx`'s buffer on this node, a spare one if `tx` has none yet.
    fn buffer_mut(&mut self, tx: TxId) -> &mut TxBuffer {
        let spare = &mut self.spare_buffers;
        self.buffers
            .entry(tx)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Empties `buffer` onto the spare list.
    fn recycle(&mut self, mut buffer: TxBuffer) {
        buffer.entities.clear();
        buffer.deleted.clear();
        self.spare_buffers.push(buffer);
    }

    /// The deployed application.
    pub fn app(&self) -> &AppDescriptor {
        &self.app
    }

    /// A handle on the deployed application that does not borrow the
    /// container.
    pub(crate) fn shared_app(&self) -> Arc<AppDescriptor> {
        Arc::clone(&self.app)
    }

    /// Creates `entity` within `tx`.
    ///
    /// # Errors
    ///
    /// * [`Error::ClassNotDeployed`] — unknown class.
    /// * [`Error::ObjectExists`] — id already taken (visible to `tx`).
    /// * [`Error::IllTypedField`] — a field holds a non-finite float.
    pub fn create(&mut self, tx: TxId, entity: EntityState) -> Result<()> {
        if self.app.class(entity.id().class()).is_none() {
            return Err(Error::ClassNotDeployed(entity.id().class().to_string()));
        }
        for (field, value) in entity.fields().iter() {
            value.check_journalable(field.as_str())?;
        }
        if self.exists(tx, entity.id()) {
            return Err(Error::ObjectExists(entity.id().clone()));
        }
        let id = entity.id().clone();
        let buffer = self.buffer_mut(tx);
        buffer.deleted.remove(&id);
        buffer.put(id, entity);
        Ok(())
    }

    /// Deletes the entity within `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ObjectNotFound`] if not visible to `tx`.
    pub fn delete(&mut self, tx: TxId, id: &ObjectId) -> Result<()> {
        if !self.exists(tx, id) {
            return Err(Error::ObjectNotFound(id.clone()));
        }
        let buffer = self.buffer_mut(tx);
        buffer.remove(id);
        buffer.deleted.insert(id.clone());
        Ok(())
    }

    /// Whether `id` is visible to `tx` (committed or created in `tx`,
    /// and not deleted in `tx`).
    pub fn exists(&self, tx: TxId, id: &ObjectId) -> bool {
        if let Some(buffer) = self.buffers.get(&tx) {
            if buffer.deleted.contains(id) {
                return false;
            }
            if buffer.slot(id).is_ok() {
                return true;
            }
        }
        self.committed.contains_key(id)
    }

    /// Reads `field` of `id` as visible to `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ObjectNotFound`] if not visible to `tx`.
    pub(crate) fn read_field(&self, tx: TxId, id: &ObjectId, field: &str) -> Result<Value> {
        self.view(tx, id).map(|e| e.field(field).clone())
    }

    /// Writes `field` of `id` within `tx` (copy-on-write buffering).
    ///
    /// # Errors
    ///
    /// * [`Error::ObjectNotFound`] — not visible to `tx`.
    /// * [`Error::IllTypedField`] — `value` holds a non-finite float.
    pub fn write_field(
        &mut self,
        tx: TxId,
        id: &ObjectId,
        field: &str,
        value: Value,
        at: SimTime,
    ) -> Result<()> {
        value.check_journalable(field)?;
        if let Some(buffer) = self.buffers.get_mut(&tx) {
            if buffer.deleted.contains(id) {
                return Err(Error::ObjectNotFound(id.clone()));
            }
            if let Some(entity) = buffer.entity_mut(id) {
                entity.set_field(field, value, at);
                return Ok(());
            }
        }
        // First write to `id` in `tx`: copy the committed state — the
        // only deep clone on the write path.
        let mut entity = self
            .committed
            .get(id)
            .ok_or_else(|| Error::ObjectNotFound(id.clone()))?
            .state()
            .clone();
        entity.set_field(field, value, at);
        self.buffer_mut(tx).put(id.clone(), entity);
        Ok(())
    }

    /// The entity state of `id` as visible to `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ObjectNotFound`] if not visible to `tx`.
    pub fn view(&self, tx: TxId, id: &ObjectId) -> Result<&EntityState> {
        if let Some(buffer) = self.buffers.get(&tx) {
            if buffer.deleted.contains(id) {
                return Err(Error::ObjectNotFound(id.clone()));
            }
            if let Some(e) = buffer.entity(id) {
                return Ok(e);
            }
        }
        self.committed
            .get(id)
            .map(Snapshot::state)
            .ok_or_else(|| Error::ObjectNotFound(id.clone()))
    }

    /// The state of `id` as buffered by `tx` on this node, if `tx`
    /// created or modified it here (`None` if untouched or deleted).
    /// Used by cross-node validation: a distributed transaction's
    /// buffered writes live on the nodes that executed them.
    pub fn buffered_view(&self, tx: TxId, id: &ObjectId) -> Option<&EntityState> {
        let buffer = self.buffers.get(&tx)?;
        if buffer.deleted.contains(id) {
            return None;
        }
        buffer.entity(id)
    }

    /// Applies `tx`'s buffer to the committed state. Returns the ids
    /// that were written/created and those deleted, each in id order
    /// (input for update propagation) — lent from a buffer the
    /// container reuses, so a commit allocates no list of them. Each
    /// record is encoded into the container's own buffer, and the
    /// write buffer goes back to the spare list.
    pub fn commit(&mut self, tx: TxId) -> (&[ObjectId], &[ObjectId]) {
        self.commit_ids.clear();
        let Some(mut buffer) = self.buffers.remove(&tx) else {
            return (&[], &[]);
        };
        for (id, entity) in buffer.entities.drain(..) {
            let snapshot = self.encode(entity);
            self.install(snapshot);
            self.commit_ids.push(id);
        }
        let written = self.commit_ids.len();
        self.commit_ids.extend(buffer.deleted.drain());
        self.recycle(buffer);
        let deleted = &mut self.commit_ids[written..];
        deleted.sort_unstable();
        for id in deleted.iter() {
            // Journalled even when nothing was committed under `id`
            // (created and deleted in one transaction).
            self.committed.remove(id);
            self.journal
                .append_delete(JOURNAL_TABLE, Arc::clone(id.text()));
        }
        self.commit_ids.split_at(written)
    }

    /// Discards `tx`'s buffer onto the spare list.
    pub fn rollback(&mut self, tx: TxId) {
        if let Some(buffer) = self.buffers.remove(&tx) {
            self.recycle(buffer);
        }
    }

    /// Freezes `entity` as a committed state ([`Snapshot::encode`]),
    /// its record written into the container's own buffer. Installs
    /// nothing: a commit installs it here, reconciliation on every
    /// replica.
    pub fn encode(&mut self, entity: EntityState) -> Snapshot {
        Snapshot::encode(entity, &mut self.record)
    }

    /// Transactions holding a write buffer on this node.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The committed state of `id` (no transaction view).
    pub fn committed_entity(&self, id: &ObjectId) -> Option<&EntityState> {
        self.committed.get(id).map(Snapshot::state)
    }

    /// The committed snapshot of `id` — what update propagation,
    /// reconciliation and state transfer hand to other nodes.
    pub fn committed_snapshot(&self, id: &ObjectId) -> Option<&Snapshot> {
        self.committed.get(id)
    }

    /// Installs a committed snapshot, bypassing transactions — the one
    /// install path: the local commit, a backup applying a propagated
    /// update, reconciliation and state transfer all end here. The
    /// journal entry shares the snapshot's record and its id's text;
    /// its `seq` and checksum are this node's own, the checksum mixed
    /// from the digest the snapshot carries rather than from the record
    /// bytes. So a crashed backup recovers the replicated state too; the
    /// map slot is replaced in place.
    pub fn install(&mut self, snapshot: Snapshot) {
        self.journal.append_put_digested(
            JOURNAL_TABLE,
            Arc::clone(snapshot.state().id().text()),
            Arc::clone(snapshot.record()),
            snapshot.digest(),
        );
        match self.committed.get_mut(snapshot.state().id()) {
            Some(slot) => *slot = snapshot,
            None => {
                self.committed
                    .insert(snapshot.state().id().clone(), snapshot);
            }
        }
    }

    /// Directly removes a committed entity (propagated delete),
    /// journalling the removal. Returns whether the entity was held.
    pub fn remove_committed(&mut self, id: &ObjectId) -> bool {
        let held = self.committed.remove(id).is_some();
        if held {
            self.journal
                .append_delete(JOURNAL_TABLE, Arc::clone(id.text()));
        }
        held
    }

    /// The durable journal (inspection: length, entry integrity, which
    /// records its entries share).
    pub fn journal(&self) -> &WriteAheadLog {
        &self.journal
    }

    /// Simulates a node crash: wipes the committed map and every
    /// transaction buffer (volatile memory), keeping the journal (the
    /// node's durable disk). Returns the number of transaction buffers
    /// that were lost.
    pub fn crash_volatile(&mut self) -> usize {
        let lost = self.buffers.len();
        self.buffers.clear();
        self.committed.clear();
        lost
    }

    /// Replays the durable journal to reconstruct the committed state
    /// after [`EntityContainer::crash_volatile`]. A torn tail (entries
    /// whose per-entry checksum fails — a journal write interrupted by
    /// the crash) is truncated; the report says how many entries were
    /// replayed and how many were dropped. Only the last record of
    /// each key is decoded, in journal order, the recovered snapshot
    /// shares it with the journal entry, and each record's bytes are
    /// hashed once: the digest that verified an entry is the one its
    /// snapshot carries.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] naming the key of the first
    /// surviving journal record, in journal order, that fails to
    /// deserialize (corrupted journal body).
    pub fn recover_from_journal(&mut self) -> Result<ReplayReport> {
        self.committed.clear();
        // Oldest first, as far as the checksums hold: superseded
        // records are verified but never decoded, and the survivors
        // come in journal order — the same error, and the same map, in
        // every process.
        let survivors = self.journal.survivors();
        let replayed = survivors.intact();
        for (entry, record, digest) in survivors {
            let snapshot = Snapshot::decode(Arc::clone(record), digest).map_err(|e| match e {
                Error::Persistence(why) => {
                    Error::Persistence(format!("entity record {}: {why}", entry.key))
                }
                other => other,
            })?;
            self.committed
                .insert(snapshot.state().id().clone(), snapshot);
        }
        // Re-verifies, but only a journal that is in fact torn.
        let truncated = if replayed < self.journal.len() {
            self.journal.truncate_torn_tail()
        } else {
            0
        };
        Ok(ReplayReport {
            replayed: replayed as u64,
            truncated,
        })
    }

    /// Fault injection: corrupts the checksum of the last `entries`
    /// journal entries, simulating a torn write caught by a crash.
    /// Returns the number of entries corrupted.
    pub fn corrupt_journal_tail(&mut self, entries: usize) -> usize {
        self.journal.corrupt_tail(entries)
    }

    /// All committed entities of `class`, in id order (query
    /// operations used by invariant constraints without context object).
    pub fn entities_of_class<'a>(
        &'a self,
        class: &'a ClassName,
    ) -> impl Iterator<Item = &'a EntityState> + 'a {
        let mut entities: Vec<&EntityState> = self
            .committed
            .values()
            .map(Snapshot::state)
            .filter(|e| e.id().class() == class)
            .collect();
        entities.sort_unstable_by_key(|e| e.id());
        entities.into_iter()
    }

    /// All committed object ids, in sorted order — convergence checks
    /// compare these across replicas after heal + reconcile.
    pub fn committed_ids(&self) -> impl Iterator<Item = &ObjectId> + '_ {
        let mut ids: Vec<&ObjectId> = self.committed.keys().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Number of committed entities.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether no entities are committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassDescriptor, Fields};
    use dedisys_store::LogOp;
    use dedisys_types::NodeId;

    fn app() -> AppDescriptor {
        AppDescriptor::new("test").with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("soldTickets", Value::Int(0)),
        )
    }

    fn tx(n: u64) -> TxId {
        TxId::new(NodeId(0), n)
    }

    /// Whether `tx` has buffered any change on `c`.
    fn has_pending(c: &EntityContainer, tx: TxId) -> bool {
        c.buffers
            .get(&tx)
            .is_some_and(|b| !b.entities.is_empty() || !b.deleted.is_empty())
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn flight(c: &mut EntityContainer, tx_: TxId, key: &str) -> ObjectId {
        let id = ObjectId::new("Flight", key);
        c.create(tx_, EntityState::for_class(c.app(), &id).unwrap().clone())
            .unwrap();
        id
    }

    #[test]
    fn create_read_write_commit() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.write_field(tx(1), &id, "seats", Value::Int(80), t0())
            .unwrap();
        // Read-your-writes before commit.
        assert_eq!(c.read_field(tx(1), &id, "seats").unwrap(), Value::Int(80));
        // Not visible to another transaction yet.
        assert!(c.read_field(tx(2), &id, "seats").is_err());
        let (written, deleted) = c.commit(tx(1));
        assert_eq!(written, vec![id.clone()]);
        assert!(deleted.is_empty());
        assert_eq!(c.read_field(tx(2), &id, "seats").unwrap(), Value::Int(80));
    }

    #[test]
    fn non_finite_floats_are_refused_and_buffer_nothing() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        let refused = |r: Result<()>| {
            assert!(
                matches!(&r, Err(Error::IllTypedField { name, expected })
                    if name == "seats" && expected == "finite float"),
                "{r:?}"
            );
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            refused(c.write_field(tx(2), &id, "seats", Value::Float(bad), t0()));
            let nested = Value::List(vec![Value::Int(1), Value::List(vec![Value::Float(bad)])]);
            refused(c.write_field(tx(2), &id, "seats", nested, t0()));
            let mut fresh =
                EntityState::for_class(c.app(), &ObjectId::new("Flight", "F2")).unwrap();
            fresh.set_field("seats", Value::Float(bad), t0());
            refused(c.create(tx(2), fresh));
        }
        assert!(!has_pending(&c, tx(2)), "a refused value buffers nothing");
        // Finite floats pass, nested or not.
        c.write_field(tx(2), &id, "seats", Value::Float(0.5), t0())
            .unwrap();
        c.write_field(
            tx(2),
            &id,
            "seats",
            Value::List(vec![Value::Float(-1e300)]),
            t0(),
        )
        .unwrap();
    }

    #[test]
    fn second_write_in_a_tx_reuses_the_buffered_copy() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        let committed = c.committed_entity(&id).unwrap().version();
        c.write_field(tx(2), &id, "seats", Value::Int(80), t0())
            .unwrap();
        c.write_field(tx(2), &id, "soldTickets", Value::Int(3), t0())
            .unwrap();
        // Both writes landed on the one buffered copy: two version
        // bumps, the committed state untouched until commit.
        let buffered = c.buffered_view(tx(2), &id).unwrap();
        assert_eq!(buffered.version(), committed.next().next());
        assert_eq!(buffered.field("seats"), &Value::Int(80));
        assert_eq!(buffered.field("soldTickets"), &Value::Int(3));
        assert_eq!(c.committed_entity(&id).unwrap().version(), committed);
        let (written, _) = c.commit(tx(2));
        assert_eq!(written, vec![id.clone()], "one buffered copy");
        assert_eq!(
            c.committed_entity(&id).unwrap().version(),
            committed.next().next()
        );
        // A write to an object the transaction cannot see fails before
        // a buffer exists for it.
        let ghost = ObjectId::new("Flight", "nope");
        assert_eq!(
            c.write_field(tx(3), &ghost, "seats", Value::Int(1), t0()),
            Err(Error::ObjectNotFound(ghost))
        );
        assert_eq!(c.crash_volatile(), 0, "no empty buffer left behind");
    }

    #[test]
    fn a_copy_on_first_write_shares_its_field_names_with_the_class() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        c.write_field(tx(2), &id, "seats", Value::Int(80), t0())
            .unwrap();
        let declared = c.app().class(id.class()).unwrap().default_fields();
        let copy = c.buffered_view(tx(2), &id).unwrap();
        assert_eq!(copy.fields().iter().count(), declared.iter().count());
        for ((name, _), (class_name, _)) in copy.fields().iter().zip(declared.iter()) {
            assert!(Arc::ptr_eq(name.text(), class_name.text()), "{name}");
        }
        // A field the class does not declare is written all the same,
        // under a name of its own, at its place in name order.
        c.write_field(tx(2), &id, "gate", Value::Str("B7".into()), t0())
            .unwrap();
        c.commit(tx(2));
        let committed = c.committed_entity(&id).unwrap();
        assert_eq!(committed.field("gate"), &Value::Str("B7".into()));
        assert_eq!(committed.field("seats"), &Value::Int(80));
        let names: Vec<&str> = committed.fields().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["gate", "seats", "soldTickets"]);
    }

    #[test]
    fn rollback_discards_buffer() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        c.write_field(tx(2), &id, "seats", Value::Int(99), t0())
            .unwrap();
        assert!(has_pending(&c, tx(2)));
        c.rollback(tx(2));
        assert_eq!(c.read_field(tx(3), &id, "seats").unwrap(), Value::Int(0));
    }

    #[test]
    fn write_buffers_are_recycled_and_stay_bounded() {
        let mut c = EntityContainer::new(&app());
        let ids: Vec<ObjectId> = (0..3)
            .map(|n| flight(&mut c, tx(0), &format!("F{n}")))
            .collect();
        c.commit(tx(0));
        assert_eq!(c.spare_buffers.len(), 1, "a commit recycles its buffer");
        // A rollback does too, and leaves nothing of the transaction.
        c.write_field(tx(1), &ids[0], "seats", Value::Int(9), t0())
            .unwrap();
        c.delete(tx(1), &ids[1]).unwrap();
        assert_eq!(c.spare_buffers.len(), 0, "taken by the first write");
        c.rollback(tx(1));
        assert_eq!((c.buffer_count(), c.spare_buffers.len()), (0, 1));
        assert!(!has_pending(&c, tx(1)));
        assert!(c.exists(tx(2), &ids[1]));
        // Sequential transactions keep reusing the one buffer; a commit
        // still installs in id order, whatever order the writes came in.
        for n in 2..1_002 {
            for id in ids.iter().rev() {
                c.write_field(tx(n), id, "seats", Value::Int(n as i64), t0())
                    .unwrap();
            }
            let (written, _) = c.commit(tx(n));
            assert_eq!(written, ids);
        }
        assert_eq!((c.buffer_count(), c.spare_buffers.len()), (0, 1));
        // Two open at once take two; both come back.
        c.write_field(tx(2_000), &ids[0], "seats", Value::Int(1), t0())
            .unwrap();
        c.write_field(tx(2_001), &ids[1], "seats", Value::Int(1), t0())
            .unwrap();
        c.commit(tx(2_000));
        c.rollback(tx(2_001));
        assert_eq!((c.buffer_count(), c.spare_buffers.len()), (0, 2));
    }

    #[test]
    fn delete_in_tx_hides_object() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        c.delete(tx(2), &id).unwrap();
        assert!(!c.exists(tx(2), &id));
        assert!(c.exists(tx(3), &id), "still visible to others");
        let (_, deleted) = c.commit(tx(2));
        assert_eq!(deleted, vec![id.clone()]);
        assert!(!c.exists(tx(3), &id));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        let dup = EntityState::for_class(&app(), &id).unwrap();
        assert_eq!(c.create(tx(1), dup), Err(Error::ObjectExists(id)));
    }

    #[test]
    fn unknown_class_rejected() {
        let mut c = EntityContainer::new(&app());
        let e = EntityState::new(ObjectId::new("Nope", "1"), Fields::default());
        assert!(matches!(
            c.create(tx(1), e),
            Err(Error::ClassNotDeployed(_))
        ));
    }

    #[test]
    fn entities_of_class_query() {
        let mut c = EntityContainer::new(&app());
        flight(&mut c, tx(1), "F1");
        flight(&mut c, tx(1), "F2");
        c.commit(tx(1));
        let class = ClassName::from("Flight");
        assert_eq!(c.entities_of_class(&class).count(), 2);
    }

    #[test]
    fn ordered_views_of_the_hashed_map_come_out_sorted() {
        let app = app().with_class(ClassDescriptor::new("Crew"));
        let mut c = EntityContainer::new(&app);
        let mut rng = dedisys_types::ChaosRng::new(21);
        let mut ids: Vec<ObjectId> = (0..64)
            .map(|n| ObjectId::new(if n % 3 == 0 { "Crew" } else { "Flight" }, format!("k{n}")))
            .collect();
        for left in (1..ids.len()).rev() {
            ids.swap(left, rng.below(left as u64 + 1) as usize);
        }
        for (n, id) in ids.iter().enumerate() {
            let entity = EntityState::for_class(&app, id).unwrap();
            c.create(tx(n as u64), entity).unwrap();
            c.commit(tx(n as u64));
        }
        ids.sort();
        assert!(c.committed_ids().eq(ids.iter()));
        for class in ["Crew", "Flight"].map(ClassName::from) {
            let of_class = ids.iter().filter(|id| *id.class() == class);
            assert!(c
                .entities_of_class(&class)
                .map(EntityState::id)
                .eq(of_class));
        }
    }

    #[test]
    fn install_and_remove_committed_bypass_tx() {
        let mut c = EntityContainer::new(&app());
        let id = ObjectId::new("Flight", "F1");
        let mut e = EntityState::for_class(&app(), &id).unwrap();
        e.set_field("seats", Value::Int(10), t0());
        c.install(Snapshot::encode(e, &mut String::new()));
        assert_eq!(
            c.committed_entity(&id).unwrap().field("seats"),
            &Value::Int(10)
        );
        assert!(c.remove_committed(&id));
        assert!(!c.remove_committed(&id), "nothing left to remove");
        assert!(c.is_empty());
    }

    #[test]
    fn crash_loses_volatile_state_but_journal_recovers_committed() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.write_field(tx(1), &id, "seats", Value::Int(80), t0())
            .unwrap();
        c.commit(tx(1));
        // An uncommitted transaction is buffered when the crash hits.
        let id2 = flight(&mut c, tx(2), "F2");
        assert!(has_pending(&c, tx(2)));

        let lost = c.crash_volatile();
        assert_eq!(lost, 1, "one open buffer lost");
        assert!(c.is_empty(), "committed map wiped");
        assert!(!c.journal().is_empty(), "journal survives the crash");

        let report = c.recover_from_journal().unwrap();
        assert!(report.replayed >= 1);
        assert_eq!(report.truncated, 0);
        assert_eq!(
            c.committed_entity(&id).unwrap().field("seats"),
            &Value::Int(80)
        );
        // The buffered-but-uncommitted create is gone for good.
        assert!(c.committed_entity(&id2).is_none());
    }

    #[test]
    fn journal_tracks_deletes_and_installs() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        c.delete(tx(2), &id).unwrap();
        c.commit(tx(2));
        // Replication-path install is journalled too.
        let other = ObjectId::new("Flight", "F9");
        let mut e = EntityState::for_class(&app(), &other).unwrap();
        e.set_field("seats", Value::Int(7), t0());
        c.install(Snapshot::encode(e, &mut String::new()));

        c.crash_volatile();
        c.recover_from_journal().unwrap();
        assert!(c.committed_entity(&id).is_none(), "delete replayed");
        assert_eq!(
            c.committed_entity(&other).unwrap().field("seats"),
            &Value::Int(7)
        );
    }

    #[test]
    fn torn_journal_tail_is_truncated_on_recovery() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        let id2 = flight(&mut c, tx(2), "F2");
        c.commit(tx(2));

        // The write of F2 was torn mid-crash.
        assert_eq!(c.corrupt_journal_tail(1), 1);
        c.crash_volatile();
        let report = c.recover_from_journal().unwrap();
        assert_eq!(report.truncated, 1);
        assert!(c.committed_entity(&id).is_some(), "intact prefix kept");
        assert!(c.committed_entity(&id2).is_none(), "torn write dropped");
    }

    /// The record of the newest journal put for `id`.
    fn last_record_of(c: &EntityContainer, id: &ObjectId) -> Arc<str> {
        let key = id.to_string();
        c.journal()
            .entries()
            .iter()
            .rev()
            .find_map(|e| match &e.op {
                LogOp::Put { record } if *e.key == *key => Some(Arc::clone(record)),
                _ => None,
            })
            .expect("a put for the key")
    }

    #[test]
    fn installed_snapshot_is_shared_with_the_journals_not_copied() {
        let mut primary = EntityContainer::new(&app());
        let mut backup = EntityContainer::new(&app());
        let id = flight(&mut primary, tx(1), "F1");
        primary
            .write_field(tx(1), &id, "seats", Value::Int(80), t0())
            .unwrap();
        primary.commit(tx(1));
        let shipped = primary.committed_snapshot(&id).unwrap().clone();
        backup.install(shipped.clone());

        // One state, one record, one key — held by both maps and
        // pointed at by both journals.
        assert!(backup.committed_snapshot(&id).unwrap().ptr_eq(&shipped));
        assert!(Arc::ptr_eq(
            &last_record_of(&primary, &id),
            shipped.record()
        ));
        assert!(Arc::ptr_eq(&last_record_of(&backup, &id), shipped.record()));
        for c in [&primary, &backup] {
            let entry = c.journal().entries().last().unwrap();
            assert!(
                Arc::ptr_eq(&entry.key, id.text()),
                "the key is the id's text"
            );
            assert!(entry.is_intact(), "the carried digest was the record's");
        }

        // A later write on the primary builds a new snapshot; the
        // backup that has not been shipped to keeps the old one intact.
        primary
            .write_field(tx(2), &id, "seats", Value::Int(81), t0())
            .unwrap();
        // Copy-on-write: while the transaction is open neither the
        // primary's committed state nor the shared snapshot moves.
        assert!(primary.committed_snapshot(&id).unwrap().ptr_eq(&shipped));
        assert_eq!(
            primary.read_field(tx(3), &id, "seats").unwrap(),
            Value::Int(80),
            "buffered write invisible to other transactions"
        );
        primary.commit(tx(2));
        assert!(!primary.committed_snapshot(&id).unwrap().ptr_eq(&shipped));
        assert_eq!(
            primary.committed_entity(&id).unwrap().field("seats"),
            &Value::Int(81)
        );
        assert!(backup.committed_snapshot(&id).unwrap().ptr_eq(&shipped));
        assert_eq!(shipped.state().field("seats"), &Value::Int(80));
        assert!(Arc::ptr_eq(&last_record_of(&backup, &id), shipped.record()));
    }

    #[test]
    fn recovery_reports_the_earliest_undecodable_record() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        // Two intact entries whose records do not decode; the earlier
        // one's key sorts after the later one's.
        c.journal
            .append_put(JOURNAL_TABLE, "Flight#F9", "not a record");
        c.journal.append_put(JOURNAL_TABLE, "Flight#F0", "{");
        c.crash_volatile();
        match c.recover_from_journal() {
            Err(Error::Persistence(why)) => {
                assert!(why.starts_with("entity record Flight#F9: "), "{why}");
            }
            other => panic!("expected a persistence error, got {other:?}"),
        }
        // Deleted afterwards, a broken record is never read.
        c.journal.append_delete(JOURNAL_TABLE, "Flight#F9");
        c.journal.append_delete(JOURNAL_TABLE, "Flight#F0");
        assert!(c.recover_from_journal().is_ok());
        assert!(c.committed_ids().eq([&id]));
    }

    #[test]
    fn recovery_decodes_only_the_last_record_of_each_key_and_shares_it() {
        let mut c = EntityContainer::new(&app());
        let id = flight(&mut c, tx(1), "F1");
        c.commit(tx(1));
        for (n, seats) in [(2, 10), (3, 20), (4, 30)] {
            c.write_field(tx(n), &id, "seats", Value::Int(seats), t0())
                .unwrap();
            c.commit(tx(n));
        }
        let gone = flight(&mut c, tx(5), "F2");
        c.commit(tx(5));
        c.delete(tx(6), &gone).unwrap();
        c.commit(tx(6));
        let newest = last_record_of(&c, &id);

        c.crash_volatile();
        let report = c.recover_from_journal().unwrap();
        assert_eq!(report.replayed, 6, "every entry counts as replayed");
        assert_eq!(c.len(), 1);
        let recovered = c.committed_snapshot(&id).unwrap();
        assert_eq!(recovered.state().field("seats"), &Value::Int(30));
        assert!(
            Arc::ptr_eq(recovered.record(), &newest),
            "the recovered snapshot points at the journal's record"
        );
        assert!(c.committed_entity(&gone).is_none(), "delete wins");
    }
}
