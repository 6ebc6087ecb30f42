//! Consistency threats and the persistent threat store (§3.2.2).

use dedisys_types::{
    ConstraintName, Error, ObjectId, Result, SatisfactionDegree, SimTime, TxId, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Reconciliation instructions attached to an accepted threat
/// (§3.2.2): whether rollback may be used, and whether the application
/// wants to hear about replica conflicts even when the constraint turns
/// out satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ReconcileInstructions {
    /// Allow rollback to historical states during reconciliation.
    pub allow_rollback: bool,
    /// Notify the application if a replica conflict touched the
    /// threat's objects even though the constraint is satisfied (§3.3).
    pub notify_on_replica_conflict: bool,
}

/// An accepted consistency threat, persisted for re-evaluation during
/// the reconciliation phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyThreat {
    /// The threatened constraint.
    pub constraint: ConstraintName,
    /// The context object validation starts from (`None` for
    /// query-based constraints — §3.2.2 case 2).
    pub context_object: Option<ObjectId>,
    /// The satisfaction degree observed when the threat arose.
    pub degree: SatisfactionDegree,
    /// Objects accessed by the threatened validation.
    pub affected_objects: BTreeSet<ObjectId>,
    /// Application-specific data associated with the threat.
    pub app_data: Option<Value>,
    /// Reconciliation instructions.
    pub instructions: ReconcileInstructions,
    /// Virtual time the threat occurred.
    pub occurred_at: SimTime,
    /// The transaction that produced the threat.
    pub tx: TxId,
}

impl ConsistencyThreat {
    /// The identity of a threat (§3.2.2): two threats are identical if
    /// they refer to the same constraint and — if applicable — the same
    /// context object.
    pub fn identity(&self) -> ThreatIdentity {
        ThreatIdentity {
            constraint: self.constraint.clone(),
            context_object: self.context_object.clone(),
        }
    }

    /// Whether this threat has `identity`, compared field by field —
    /// scans over the store copy nothing.
    pub fn has_identity(&self, identity: &ThreatIdentity) -> bool {
        identity.is(&self.constraint, self.context_object.as_ref())
    }
}

/// Threat identity: `(constraint, context object)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ThreatIdentity {
    /// Constraint name.
    pub constraint: ConstraintName,
    /// Optional context object.
    pub context_object: Option<ObjectId>,
}

impl ThreatIdentity {
    /// Whether this is the identity `(constraint, context_object)`.
    pub fn is(&self, constraint: &ConstraintName, context_object: Option<&ObjectId>) -> bool {
        &self.constraint == constraint && self.context_object.as_ref() == context_object
    }
}

/// Threat-history policy (§3.2.2 / §5.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistoryPolicy {
    /// Store identical threats only once (sufficient when rollback to
    /// intermediate states is not required) — the fig5-8 improvement.
    #[default]
    IdenticalOnce,
    /// Store every occurrence (needed for rollback/undo to
    /// intermediate states).
    FullHistory,
    /// Store every occurrence, but fold identical records together
    /// *during* degraded mode ([`ThreatStore::compact`]) so the heal-time
    /// reconciliation ships one folded record per identity instead of
    /// the full occurrence history (§5.5.1 reduced-history proposal).
    Reduced,
}

/// Outcome of storing a threat — drives the persistence cost charged
/// by the cluster (§5.1: a threat initially needs ≥3 database objects,
/// plus 2 per additional identical threat under full history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// First occurrence: full record persisted.
    Stored,
    /// Identical threat under [`HistoryPolicy::FullHistory`]:
    /// additional occurrence persisted and linked.
    LinkedOccurrence,
    /// Identical threat under [`HistoryPolicy::IdenticalOnce`]: only a
    /// read was needed to detect the duplicate.
    Deduplicated,
}

/// The persistent store of accepted consistency threats (§3.2.2:
/// accepted threats are *persistently* stored by the middleware and
/// processed again during the reconciliation phase).
///
/// Records are durably written through a write-ahead-logged table
/// store (`dedisys-store`); [`ThreatStore::recover`] rebuilds the
/// in-memory index after a simulated crash.
#[derive(Debug, Clone, Default)]
pub struct ThreatStore {
    policy: HistoryPolicy,
    threats: Vec<ConsistencyThreat>,
    /// Secondary index: object → identities of threats touching it
    /// (context object and every affected object). Maintained on every
    /// insert/removal so incremental reconciliation can map a dirty
    /// object set to the threats that need re-evaluation without a
    /// full scan.
    object_index: BTreeMap<ObjectId, BTreeSet<ThreatIdentity>>,
    /// Distinct identities in first-occurrence order, maintained
    /// incrementally (replaces the former O(n²) scan).
    identity_order: Vec<ThreatIdentity>,
    table: dedisys_store::TableStore,
    wal: dedisys_store::WriteAheadLog,
    next_record: u64,
}

/// Result of folding duplicate threat records under
/// [`HistoryPolicy::Reduced`] ([`ThreatStore::compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Duplicate records removed (folded into their first occurrence).
    pub folded: u64,
    /// Identities whose histories were folded.
    pub retained: u64,
}

/// Table name of the persisted threat records.
const THREAT_TABLE: &str = "consistency_threats";

impl ThreatStore {
    /// Creates a store with the given policy.
    pub fn new(policy: HistoryPolicy) -> Self {
        Self {
            policy,
            threats: Vec::new(),
            object_index: BTreeMap::new(),
            identity_order: Vec::new(),
            table: dedisys_store::TableStore::new(),
            wal: dedisys_store::WriteAheadLog::new(),
            next_record: 0,
        }
    }

    /// The history policy.
    pub fn policy(&self) -> HistoryPolicy {
        self.policy
    }

    /// Stores an accepted threat per the policy: journalled first, so
    /// the store never holds a threat its journal cannot give back.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] — storing nothing — if the record
    /// cannot be encoded.
    pub fn store(&mut self, threat: ConsistencyThreat) -> Result<StoreOutcome> {
        let identity = threat.identity();
        let exists = self.identity_order.contains(&identity);
        Ok(match (exists, self.policy) {
            (false, _) => {
                self.persist(&threat)?;
                self.index_threat(&threat);
                self.identity_order.push(identity);
                self.threats.push(threat);
                StoreOutcome::Stored
            }
            (true, HistoryPolicy::FullHistory) | (true, HistoryPolicy::Reduced) => {
                self.persist(&threat)?;
                self.index_threat(&threat);
                self.threats.push(threat);
                StoreOutcome::LinkedOccurrence
            }
            (true, HistoryPolicy::IdenticalOnce) => StoreOutcome::Deduplicated,
        })
    }

    /// Adds `threat`'s objects to the secondary object index.
    fn index_threat(&mut self, threat: &ConsistencyThreat) {
        let identity = threat.identity();
        if let Some(ctx) = &threat.context_object {
            self.object_index
                .entry(ctx.clone())
                .or_default()
                .insert(identity.clone());
        }
        for obj in &threat.affected_objects {
            self.object_index
                .entry(obj.clone())
                .or_default()
                .insert(identity.clone());
        }
    }

    /// Whether any threat of `(constraint, context_object)` is stored.
    /// An identity with a context object is indexed under it; a
    /// query-based one is looked for in the identity order.
    fn holds(&self, constraint: &ConstraintName, context_object: Option<&ObjectId>) -> bool {
        match context_object {
            Some(object) => self
                .object_index
                .get(object)
                .is_some_and(|ids| ids.iter().any(|id| id.is(constraint, context_object))),
            None => self.identity_order.iter().any(|id| id.is(constraint, None)),
        }
    }

    /// Rebuilds the derived indexes from `threats` (recovery path).
    fn rebuild_indexes(&mut self) {
        self.object_index.clear();
        self.identity_order.clear();
        let threats = std::mem::take(&mut self.threats);
        for threat in &threats {
            let identity = threat.identity();
            if !self.identity_order.contains(&identity) {
                self.identity_order.push(identity);
            }
            self.index_threat(threat);
        }
        self.threats = threats;
    }

    /// Keys of the journalled records of `(constraint, context_object)`,
    /// in occurrence order.
    fn record_keys(
        &self,
        constraint: &ConstraintName,
        context_object: Option<&ObjectId>,
    ) -> Vec<String> {
        let suffix = format!("|{}", storage_key(constraint, context_object));
        self.table
            .scan(THREAT_TABLE)
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(k, _)| k.to_owned())
            .collect()
    }

    fn persist(&mut self, threat: &ConsistencyThreat) -> Result<()> {
        let json = encode(threat)?;
        let key = format!(
            "{:08}|{}",
            self.next_record,
            storage_key(&threat.constraint, threat.context_object.as_ref())
        );
        self.next_record += 1;
        self.wal
            .append_put(THREAT_TABLE, key.as_str(), json.as_str());
        self.table.put(THREAT_TABLE, key, json);
        Ok(())
    }

    /// Number of durably persisted records (should equal
    /// [`ThreatStore::len`]).
    pub fn persisted_records(&self) -> usize {
        self.table.table_len(THREAT_TABLE)
    }

    /// Simulates a middleware crash: drops the in-memory index and the
    /// table, replays the write-ahead log and deserializes the
    /// surviving records. Returns how many threats were recovered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] if a journalled record does not
    /// decode; the in-memory threats are then left as they were.
    pub fn recover(&mut self) -> Result<usize> {
        self.table = dedisys_store::TableStore::new();
        self.wal.replay_into(&mut self.table);
        // Key order is occurrence order: keys start with the record
        // number.
        self.threats = self
            .table
            .scan(THREAT_TABLE)
            .map(|(key, json)| {
                serde_json::from_str(json)
                    .map_err(|e| Error::Persistence(format!("threat record {key}: {e}")))
            })
            .collect::<Result<_>>()?;
        self.rebuild_indexes();
        Ok(self.threats.len())
    }

    /// All stored threats, in occurrence order.
    pub fn threats(&self) -> &[ConsistencyThreat] {
        &self.threats
    }

    /// Distinct threat identities, in first-occurrence order
    /// (identical threats re-evaluate identically, §5.2, so
    /// reconciliation iterates identities). Served from the maintained
    /// order index — O(identities), not O(records²).
    pub fn identities(&self) -> Vec<ThreatIdentity> {
        self.identity_order.clone()
    }

    /// Number of distinct identities, without materialising them.
    pub fn identity_count(&self) -> usize {
        self.identity_order.len()
    }

    /// Identities of threats touching `object` (as context object or
    /// affected object), from the secondary index.
    pub fn identities_for_object(&self, object: &ObjectId) -> Option<&BTreeSet<ThreatIdentity>> {
        self.object_index.get(object)
    }

    /// Union of identities touching any object of `objects` — the
    /// entry point of incremental reconciliation: map a dirty object
    /// set to the threats that need re-evaluation.
    pub fn identities_touching<'a>(
        &self,
        objects: impl IntoIterator<Item = &'a ObjectId>,
    ) -> BTreeSet<ThreatIdentity> {
        let mut out = BTreeSet::new();
        for obj in objects {
            if let Some(ids) = self.object_index.get(obj) {
                out.extend(ids.iter().cloned());
            }
        }
        out
    }

    /// Every object touched by threats of `identity` (context object
    /// plus affected objects, across all stored occurrences).
    pub fn objects_of(&self, identity: &ThreatIdentity) -> BTreeSet<ObjectId> {
        let mut out = BTreeSet::new();
        for t in self.threats.iter().filter(|t| t.has_identity(identity)) {
            if let Some(ctx) = &t.context_object {
                out.insert(ctx.clone());
            }
            out.extend(t.affected_objects.iter().cloned());
        }
        out
    }

    /// Records beyond the first occurrence of their identity
    /// (compaction candidates under [`HistoryPolicy::Reduced`]).
    pub fn duplicate_records(&self) -> usize {
        self.threats.len() - self.identity_order.len()
    }

    /// Folds duplicate records of each identity into the first
    /// occurrence: affected objects are unioned and the reconciliation
    /// instructions OR-ed so no rollback permission or notification
    /// request is lost; the surviving persisted record is rewritten and
    /// the duplicates durably deleted. Intended for
    /// [`HistoryPolicy::Reduced`] during degraded mode, so heal-time
    /// reconciliation ships one record per identity (§5.5.1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] if a folded record cannot be
    /// encoded; that identity and the ones after it stay unfolded.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for identity in self.identity_order.clone() {
            let indices: Vec<usize> = self
                .threats
                .iter()
                .enumerate()
                .filter(|(_, t)| t.has_identity(&identity))
                .map(|(i, _)| i)
                .collect();
            if indices.len() < 2 {
                continue;
            }
            let mut merged_objects = BTreeSet::new();
            let mut allow_rollback = false;
            let mut notify = false;
            for &i in &indices {
                merged_objects.extend(self.threats[i].affected_objects.iter().cloned());
                allow_rollback |= self.threats[i].instructions.allow_rollback;
                notify |= self.threats[i].instructions.notify_on_replica_conflict;
            }
            let first = indices[0];
            let mut folded = self.threats[first].clone();
            folded.affected_objects = merged_objects;
            folded.instructions.allow_rollback = allow_rollback;
            folded.instructions.notify_on_replica_conflict = notify;
            // Encoded before anything is folded: a failure leaves
            // memory and journal agreeing on the unfolded records.
            let json = encode(&folded)?;
            self.threats[first] = folded;
            report.retained += 1;
            report.folded += (indices.len() - 1) as u64;

            // Drop every occurrence beyond the first from memory.
            let mut kept_first = false;
            self.threats.retain(|t| {
                if t.has_identity(&identity) {
                    if kept_first {
                        false
                    } else {
                        kept_first = true;
                        true
                    }
                } else {
                    true
                }
            });

            // Durably delete the duplicates and rewrite the survivor
            // with the folded record.
            let keys = self.record_keys(&identity.constraint, identity.context_object.as_ref());
            if let Some((first_key, rest)) = keys.split_first() {
                for key in rest {
                    self.wal.append_delete(THREAT_TABLE, key.as_str());
                    self.table.delete(THREAT_TABLE, key);
                }
                self.wal
                    .append_put(THREAT_TABLE, first_key.as_str(), json.as_str());
                self.table.put(THREAT_TABLE, first_key.clone(), json);
            }
        }
        Ok(report)
    }

    /// The first stored threat with `identity`.
    pub fn first_of(&self, identity: &ThreatIdentity) -> Option<&ConsistencyThreat> {
        self.threats.iter().find(|t| t.has_identity(identity))
    }

    /// Whether any stored threat of `identity` allows rollback.
    pub fn any_allows_rollback(&self, identity: &ThreatIdentity) -> bool {
        self.threats
            .iter()
            .filter(|t| t.has_identity(identity))
            .any(|t| t.instructions.allow_rollback)
    }

    /// Whether any stored threat of `identity` requests conflict
    /// notification.
    pub fn any_wants_conflict_notification(&self, identity: &ThreatIdentity) -> bool {
        self.threats
            .iter()
            .filter(|t| t.has_identity(identity))
            .any(|t| t.instructions.notify_on_replica_conflict)
    }

    /// Removes every threat of the identity `(constraint,
    /// context_object)` — the threat *and all identical threats*
    /// (§3.3) — returning how many records were dropped. The persisted
    /// records are deleted through the write-ahead log as well. An
    /// identity that was never stored (every satisfied check asks)
    /// costs one index probe and touches neither table nor log.
    pub fn remove_identity(
        &mut self,
        constraint: &ConstraintName,
        context_object: Option<&ObjectId>,
    ) -> usize {
        if !self.holds(constraint, context_object) {
            return 0;
        }
        let before = self.threats.len();
        self.threats
            .retain(|t| &t.constraint != constraint || t.context_object.as_ref() != context_object);
        self.identity_order
            .retain(|id| !id.is(constraint, context_object));
        self.object_index.retain(|_, ids| {
            ids.retain(|id| !id.is(constraint, context_object));
            !ids.is_empty()
        });
        for key in self.record_keys(constraint, context_object) {
            self.wal.append_delete(THREAT_TABLE, key.as_str());
            self.table.delete(THREAT_TABLE, &key);
        }
        before - self.threats.len()
    }

    /// Number of stored threat records.
    pub fn len(&self) -> usize {
        self.threats.len()
    }

    /// Whether no threats are stored.
    pub fn is_empty(&self) -> bool {
        self.threats.is_empty()
    }
}

/// The journal record of `threat`.
fn encode(threat: &ConsistencyThreat) -> Result<String> {
    serde_json::to_string(threat).map_err(|e| Error::Persistence(e.to_string()))
}

/// Stable storage key of the threat identity `(constraint,
/// context_object)`.
fn storage_key(constraint: &ConstraintName, context_object: Option<&ObjectId>) -> String {
    match context_object {
        Some(ctx) => format!("{constraint}@{ctx}"),
        None => constraint.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_types::NodeId;

    fn threat(constraint: &str, key: &str) -> ConsistencyThreat {
        ConsistencyThreat {
            constraint: ConstraintName::from(constraint),
            context_object: Some(ObjectId::new("Flight", key)),
            degree: SatisfactionDegree::PossiblySatisfied,
            affected_objects: BTreeSet::new(),
            app_data: None,
            instructions: ReconcileInstructions::default(),
            occurred_at: SimTime::ZERO,
            tx: TxId::new(NodeId(0), 1),
        }
    }

    #[test]
    fn identical_once_deduplicates() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        assert_eq!(store.store(threat("C", "F1")), Ok(StoreOutcome::Stored));
        assert_eq!(
            store.store(threat("C", "F1")),
            Ok(StoreOutcome::Deduplicated)
        );
        assert_eq!(store.store(threat("C", "F2")), Ok(StoreOutcome::Stored));
        assert_eq!(store.len(), 2);
        assert_eq!(store.identities().len(), 2);
    }

    #[test]
    fn full_history_links_occurrences() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        assert_eq!(store.store(threat("C", "F1")), Ok(StoreOutcome::Stored));
        assert_eq!(
            store.store(threat("C", "F1")),
            Ok(StoreOutcome::LinkedOccurrence)
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.identities().len(), 1);
    }

    #[test]
    fn remove_identity_drops_all_identical() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("C", "F2")).unwrap();
        let removed = store.remove_identity(&"C".into(), Some(&ObjectId::new("Flight", "F1")));
        assert_eq!(removed, 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn instruction_aggregation_across_identical_threats() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1")).unwrap();
        let mut t = threat("C", "F1");
        t.instructions.allow_rollback = true;
        store.store(t).unwrap();
        assert!(store.any_allows_rollback(&threat("C", "F1").identity()));
        assert!(!store.any_wants_conflict_notification(&threat("C", "F1").identity()));
    }

    #[test]
    fn query_based_threats_share_identity_by_constraint() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        let mut a = threat("Q", "x");
        a.context_object = None;
        let mut b = threat("Q", "y");
        b.context_object = None;
        store.store(a).unwrap();
        assert_eq!(store.store(b), Ok(StoreOutcome::Deduplicated));
    }

    #[test]
    fn threats_serialize() {
        let t = threat("C", "F1");
        let json = serde_json::to_string(&t).unwrap();
        let back: ConsistencyThreat = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn threats_survive_a_crash_via_the_wal() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("D", "F2")).unwrap();
        assert_eq!(store.persisted_records(), 3);
        let recovered = store.recover().unwrap();
        assert_eq!(recovered, 3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.identities().len(), 2);
        assert_eq!(
            store
                .first_of(&threat("C", "F1").identity())
                .unwrap()
                .constraint,
            ConstraintName::from("C")
        );
    }

    #[test]
    fn removal_is_durable() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("D", "F2")).unwrap();
        store.remove_identity(&"C".into(), Some(&ObjectId::new("Flight", "F1")));
        assert_eq!(store.persisted_records(), 1);
        store.recover().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.threats()[0].constraint, ConstraintName::from("D"));
    }

    #[test]
    fn removing_an_unknown_identity_touches_nothing() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1")).unwrap();
        let mut query_based = threat("Q", "x");
        query_based.context_object = None;
        store.store(query_based).unwrap();
        let (records, log) = (store.persisted_records(), store.wal.len());
        let f1 = ObjectId::new("Flight", "F1");
        // Other constraint on a stored object, stored constraint on
        // another object, and both query-based spellings.
        for (constraint, context) in [
            ("D", Some(&f1)),
            ("C", Some(&ObjectId::new("Flight", "F2"))),
            ("C", None),
            ("Q", Some(&f1)),
        ] {
            assert_eq!(store.remove_identity(&constraint.into(), context), 0);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.identity_count(), 2);
        assert_eq!(store.persisted_records(), records);
        assert_eq!(store.wal.len(), log, "nothing appended to the WAL");

        // A stored identity still goes from records, table and WAL —
        // with or without a context object.
        assert_eq!(store.remove_identity(&"C".into(), Some(&f1)), 1);
        assert_eq!(store.remove_identity(&"Q".into(), None), 1);
        assert!(store.is_empty());
        assert_eq!(store.identity_count(), 0);
        assert_eq!(store.persisted_records(), 0);
        assert_eq!(store.wal.len(), log + 2, "one delete entry per record");
        assert_eq!(store.recover(), Ok(0), "the deletes are durable");
    }

    #[test]
    fn object_index_tracks_inserts_and_removals() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        let mut a = threat("C", "F1");
        a.affected_objects.insert(ObjectId::new("Seat", "S1"));
        store.store(a).unwrap();
        store.store(threat("D", "F1")).unwrap();
        let f1 = ObjectId::new("Flight", "F1");
        let s1 = ObjectId::new("Seat", "S1");
        assert_eq!(store.identities_for_object(&f1).map(BTreeSet::len), Some(2));
        assert_eq!(store.identities_for_object(&s1).map(BTreeSet::len), Some(1));
        let touched = store.identities_touching([&s1]);
        assert_eq!(touched.len(), 1);
        assert!(touched
            .iter()
            .all(|id| id.constraint == ConstraintName::from("C")));
        assert_eq!(store.objects_of(&threat("C", "F1").identity()).len(), 2);

        store.remove_identity(&"C".into(), Some(&ObjectId::new("Flight", "F1")));
        assert!(store.identities_for_object(&s1).is_none());
        assert_eq!(store.identities_for_object(&f1).map(BTreeSet::len), Some(1));
        assert_eq!(store.identity_count(), 1);
    }

    #[test]
    fn recovery_rebuilds_the_object_index() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        let mut a = threat("C", "F1");
        a.affected_objects.insert(ObjectId::new("Seat", "S1"));
        store.store(a).unwrap();
        store.store(threat("D", "F2")).unwrap();
        store.recover().unwrap();
        assert_eq!(store.identity_count(), 2);
        assert_eq!(
            store
                .identities_for_object(&ObjectId::new("Seat", "S1"))
                .map(BTreeSet::len),
            Some(1)
        );
        assert_eq!(store.identities()[0].constraint, ConstraintName::from("C"));
    }

    #[test]
    fn compaction_folds_duplicates_preserving_first_occurrence() {
        let mut store = ThreatStore::new(HistoryPolicy::Reduced);
        let mut first = threat("C", "F1");
        first.affected_objects.insert(ObjectId::new("Seat", "S1"));
        first.occurred_at = SimTime::ZERO;
        store.store(first).unwrap();
        let mut second = threat("C", "F1");
        second.affected_objects.insert(ObjectId::new("Seat", "S2"));
        second.instructions.allow_rollback = true;
        store.store(second).unwrap();
        let mut third = threat("C", "F1");
        third.instructions.notify_on_replica_conflict = true;
        assert_eq!(store.store(third), Ok(StoreOutcome::LinkedOccurrence));
        store.store(threat("D", "F2")).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.duplicate_records(), 2);

        let report = store.compact().unwrap();
        assert_eq!(report.folded, 2);
        assert_eq!(report.retained, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.duplicate_records(), 0);
        assert_eq!(store.persisted_records(), 2);

        // The survivor is the first occurrence, carrying the union of
        // affected objects and the OR of the instruction flags.
        let folded = store.first_of(&threat("C", "F1").identity()).unwrap();
        assert_eq!(folded.occurred_at, SimTime::ZERO);
        assert_eq!(folded.tx, TxId::new(NodeId(0), 1));
        assert_eq!(folded.affected_objects.len(), 2);
        assert!(folded.instructions.allow_rollback);
        assert!(folded.instructions.notify_on_replica_conflict);
        assert!(store.any_allows_rollback(&threat("C", "F1").identity()));
        assert!(store.any_wants_conflict_notification(&threat("C", "F1").identity()));

        // The folded record is durable: a crash recovers it unchanged.
        store.recover().unwrap();
        assert_eq!(store.len(), 2);
        let folded = store.first_of(&threat("C", "F1").identity()).unwrap();
        assert_eq!(folded.affected_objects.len(), 2);
        assert!(folded.instructions.allow_rollback);
        assert!(folded.instructions.notify_on_replica_conflict);
    }

    #[test]
    fn compaction_is_a_noop_without_duplicates() {
        let mut store = ThreatStore::new(HistoryPolicy::Reduced);
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("D", "F2")).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report, CompactionReport::default());
        assert_eq!(store.len(), 2);
        assert_eq!(store.persisted_records(), 2);
    }

    #[test]
    fn dedup_does_not_write_additional_records() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        store.store(threat("C", "F1")).unwrap();
        store.store(threat("C", "F1")).unwrap();
        assert_eq!(store.persisted_records(), 1);
    }
}
