//! The committed snapshot — the one value that crosses node boundaries.

use crate::EntityState;
use dedisys_store::record_digest;
use dedisys_types::Result;
use serde::Serialize;
use std::sync::Arc;

/// One committed state of an entity, immutable and cheap to hand on:
/// the state itself and its JSON record, each behind an `Arc`, and the
/// record's digest.
///
/// The primary builds a snapshot once per committed write
/// ([`Snapshot::encode`]); its container, every backup's container,
/// their journals and the degraded-mode history then hold *that*
/// value — cloning a snapshot bumps two reference counts and copies
/// nothing. A later write never touches a snapshot: it builds a new
/// one, so a lagged backup (or an open rollback search) keeps reading
/// the state it was given.
///
/// What is computed from the record's bytes is computed here, where
/// the bytes are made, and travels with them: the digest is what every
/// journal that logs this write mixes into its own checksum, so the
/// record is hashed once however many nodes install it. The journal
/// key is not carried — it is `state().id().text()`.
///
/// Deliberately not `Serialize`/`Deserialize`: the `record` *is* the
/// serialized form, and a derive would have to own its fields.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: Arc<EntityState>,
    record: Arc<str>,
    /// [`record_digest`] of `record`.
    digest: u32,
}

impl Snapshot {
    /// Freezes `entity` as a committed state, encoding its record — the
    /// only place a committed write is serialized, and hashed. The
    /// record is written into `buffer`, which its owner keeps from one
    /// commit to the next (cleared here first), and the shared
    /// `Arc<str>` is then allocated once at its exact size: the same
    /// bytes [`EntityState::to_json`] returns.
    pub fn encode(entity: EntityState, buffer: &mut String) -> Self {
        buffer.clear();
        entity.serialize_json(buffer);
        Self {
            digest: record_digest(buffer),
            record: Arc::from(buffer.as_str()),
            state: Arc::new(entity),
        }
    }

    /// Rebuilds a snapshot from a journalled `record`, sharing it with
    /// the entry it came from. `digest` is the one journal recovery has
    /// just recomputed from the record's bytes to verify that entry, so
    /// a recovered record is read once for both.
    ///
    /// # Errors
    ///
    /// Returns [`dedisys_types::Error::Persistence`] if `record` does
    /// not decode.
    pub(crate) fn decode(record: Arc<str>, digest: u32) -> Result<Self> {
        Ok(Self {
            state: Arc::new(EntityState::from_json(&record)?),
            record,
            digest,
        })
    }

    /// The committed state.
    pub fn state(&self) -> &EntityState {
        &self.state
    }

    /// The state's JSON record, as every journal entry of this write
    /// points at it.
    pub fn record(&self) -> &Arc<str> {
        &self.record
    }

    /// [`record_digest`] of the record, computed when the record was
    /// made.
    pub fn digest(&self) -> u32 {
        self.digest
    }

    /// Whether both snapshots are the *same* committed write (shared
    /// allocation), not merely equal states.
    pub fn ptr_eq(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

/// Equal states are equal snapshots; replicas of one write answer by
/// pointer without comparing fields.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.state == other.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fields;
    use dedisys_types::{FieldName, ObjectId, SimTime, Value};

    fn entity(seats: i64) -> EntityState {
        let mut e = EntityState::new(ObjectId::new("Flight", "F1"), Fields::default());
        e.set_field("seats", Value::Int(seats), SimTime::ZERO);
        e
    }

    #[test]
    fn encode_decode_roundtrip_shares_the_record() {
        let mut buffer = String::from("left over from the last commit");
        let snapshot = Snapshot::encode(entity(80), &mut buffer);
        assert_eq!(&**snapshot.record(), snapshot.state().to_json().unwrap());
        assert_eq!(
            buffer,
            **snapshot.record(),
            "the buffer keeps the last record"
        );
        assert_eq!(snapshot.digest(), record_digest(snapshot.record()));
        let back = Snapshot::decode(Arc::clone(snapshot.record()), snapshot.digest()).unwrap();
        assert!(Arc::ptr_eq(back.record(), snapshot.record()));
        assert_eq!(back.digest(), snapshot.digest());
        assert!(!back.ptr_eq(&snapshot), "a decode is a new state");
        assert_eq!(back, snapshot, "…that compares equal");
        assert!(Snapshot::decode("not json".into(), 0).is_err());
    }

    #[test]
    fn the_digest_costs_no_more_than_the_key_it_replaced() {
        // The snapshot ledger and every container hold these by value.
        assert!(std::mem::size_of::<Snapshot>() <= 4 * std::mem::size_of::<usize>());
    }

    #[test]
    fn a_field_costs_its_name_handle_and_its_value() {
        // Every state holds one of these per field, in one list.
        assert_eq!(std::mem::size_of::<(FieldName, Value)>(), 48);
    }

    #[test]
    fn clones_are_the_same_write_equal_states_are_not() {
        let mut buffer = String::new();
        let a = Snapshot::encode(entity(80), &mut buffer);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let c = Snapshot::encode(entity(80), &mut buffer);
        assert!(!a.ptr_eq(&c));
        assert_eq!(a, c);
        assert_ne!(a, Snapshot::encode(entity(81), &mut buffer));
    }
}
