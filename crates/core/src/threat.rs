//! Consistency threats and the persistent threat store (§3.2.2).

use dedisys_store::WriteAheadLog;
use dedisys_telemetry::ThreatStorage;
use dedisys_types::{
    ConstraintName, Error, ObjectId, Result, SatisfactionDegree, SimTime, TxBuildHasher, TxId,
    Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{hash_map, BTreeSet, HashMap};
use std::fmt::Write;
use std::sync::Arc;

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
    /// Every object the threat touches: its context object, then its
    /// affected objects.
    fn objects(&self) -> impl Iterator<Item = &ObjectId> {
        self.context_object.iter().chain(&self.affected_objects)
    }

    /// The identity of a threat (§3.2.2): two threats are identical if
    /// they refer to the same constraint and — if applicable — the same
    /// context object.
    pub fn identity(&self) -> ThreatIdentity {
        ThreatIdentity {
            constraint: self.constraint.clone(),
            context_object: self.context_object.clone(),
        }
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
}

/// The persistent store of accepted consistency threats (§3.2.2:
/// accepted threats are *persistently* stored by the middleware and
/// processed again during the reconciliation phase).
///
/// A threat is held once in memory — one record filed under its
/// identity — and once serialized, in the write-ahead log
/// (`dedisys-store`); [`ThreatStore::recover`] rebuilds the former from
/// the latter after a simulated crash.
#[derive(Debug, Clone, Default)]
pub struct ThreatStore {
    policy: HistoryPolicy,
    /// Every stored record, filed under its identity in occurrence
    /// order. Whatever is asked about one identity is answered from its
    /// own records; store-wide order comes from the record numbers.
    /// Hashed without a seed, by the hasher that folds in every word it
    /// is fed (constraint name and context object both count, so the
    /// constraints threatening one object land apart): the table fills
    /// in degraded mode and empties at reconciliation, and a seeded one
    /// regrows at moments that differ from process to process.
    records: HashMap<ThreatIdentity, Vec<Record>, TxBuildHasher>,
    /// Number of records across all identities.
    len: usize,
    wal: WriteAheadLog,
    next_record: u64,
    /// What a journal key, then its record, is written into before the
    /// log shares it: each is allocated once, at its exact size.
    text: String,
}

/// One stored threat and where its journal entry is.
#[derive(Debug, Clone)]
struct Record {
    /// Position in the store-wide occurrence order (the number the
    /// journal key starts with).
    number: u64,
    /// The journal key, as the log holds it: a delete addresses the
    /// record by it.
    key: Arc<str>,
    threat: ConsistencyThreat,
}

/// Table name of the persisted threat records.
const THREAT_TABLE: &str = "consistency_threats";

impl ThreatStore {
    /// Creates a store with the given policy.
    pub fn new(policy: HistoryPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The history policy.
    pub fn policy(&self) -> HistoryPolicy {
        self.policy
    }

    /// Stores an accepted threat per the policy: journalled first, so
    /// the store never holds a threat its journal cannot give back.
    /// Returns how it landed, which drives the persistence cost the
    /// cluster charges (§5.1: a threat initially needs ≥3 database
    /// objects, plus 2 per additional identical threat under full
    /// history; a duplicate under [`HistoryPolicy::IdenticalOnce`]
    /// costs only the read that detected it).
    pub fn store(&mut self, threat: ConsistencyThreat) -> ThreatStorage {
        let seen = self.records.contains_key(&threat.identity());
        if seen && self.policy == HistoryPolicy::IdenticalOnce {
            return ThreatStorage::Deduplicated;
        }
        let record = self.persist(threat);
        self.file(record);
        if seen {
            ThreatStorage::LinkedOccurrence
        } else {
            ThreatStorage::Stored
        }
    }

    /// Journals `threat` under the next record number. The one encoding
    /// becomes the journal entry; nothing else keeps a serialized copy.
    fn persist(&mut self, threat: ConsistencyThreat) -> Record {
        let number = self.next_record;
        self.next_record += 1;
        let text = &mut self.text;
        text.clear();
        let constraint = &threat.constraint;
        match &threat.context_object {
            Some(object) => write!(text, "{number:08}|{constraint}@{object}"),
            None => write!(text, "{number:08}|{constraint}"),
        }
        .expect("a String takes every write");
        let key: Arc<str> = Arc::from(text.as_str());
        text.clear();
        threat.serialize_json(text);
        self.wal
            .append_put(THREAT_TABLE, Arc::clone(&key), text.as_str());
        Record {
            number,
            key,
            threat,
        }
    }

    /// Files `record` under its identity (store and recovery path;
    /// records arrive in occurrence order).
    fn file(&mut self, record: Record) {
        match self.records.entry(record.threat.identity()) {
            // Most identities hold one record (all of them under
            // `IdenticalOnce`): allocate for one, not for a run.
            hash_map::Entry::Vacant(first) => {
                first.insert(vec![record]);
            }
            hash_map::Entry::Occupied(more) => more.into_mut().push(record),
        }
        self.len += 1;
    }

    /// The records of `identity`, in occurrence order.
    fn records_of(&self, identity: &ThreatIdentity) -> &[Record] {
        self.records.get(identity).map_or(&[], Vec::as_slice)
    }

    /// Simulates a middleware crash: drops everything held in memory
    /// and rebuilds it from the write-ahead log's
    /// [survivors](WriteAheadLog::survivors) — of the entries whose
    /// checksums hold, each key's newest if it is a put, so deleted
    /// records are never decoded. They come in journal order, which is
    /// occurrence order: a record's number is taken as it is journalled.
    /// Returns how many threats were recovered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] naming the earliest surviving
    /// journal entry, in journal order, that does not decode; the
    /// in-memory threats are then left as they were.
    pub fn recover(&mut self) -> Result<usize> {
        let survivors = self
            .wal
            .survivors()
            .map(|(entry, record, _)| {
                let corrupt = |e: &dyn std::fmt::Display| {
                    Error::Persistence(format!("threat record {}: {e}", entry.key))
                };
                Ok(Record {
                    number: record_number(&entry.key)
                        .ok_or_else(|| corrupt(&"key without a record number"))?,
                    key: Arc::clone(&entry.key),
                    threat: serde_json::from_str(record).map_err(|e| corrupt(&e))?,
                })
            })
            .collect::<Result<Vec<Record>>>()?;
        self.records.clear();
        self.len = 0;
        for record in survivors {
            self.file(record);
        }
        Ok(self.len)
    }

    /// All stored threats, in occurrence order.
    pub fn threats(&self) -> Vec<&ConsistencyThreat> {
        let mut all: Vec<&Record> = self.records.values().flatten().collect();
        all.sort_unstable_by_key(|r| r.number);
        all.into_iter().map(|r| &r.threat).collect()
    }

    /// Distinct threat identities, in first-occurrence order
    /// (identical threats re-evaluate identically, §5.2, so
    /// reconciliation iterates identities).
    pub fn identities(&self) -> Vec<ThreatIdentity> {
        let mut firsts: Vec<(u64, &ThreatIdentity)> = self
            .records
            .iter()
            .map(|(identity, records)| (records[0].number, identity))
            .collect();
        firsts.sort_unstable_by_key(|&(number, _)| number);
        firsts.into_iter().map(|(_, id)| id.clone()).collect()
    }

    /// Number of distinct identities, without materialising them.
    pub fn identity_count(&self) -> usize {
        self.records.len()
    }

    /// Every object touched by threats of `identity` (context object
    /// plus affected objects, across all stored occurrences).
    pub(crate) fn objects_of(&self, identity: &ThreatIdentity) -> BTreeSet<ObjectId> {
        self.records_of(identity)
            .iter()
            .flat_map(|r| r.threat.objects())
            .cloned()
            .collect()
    }

    /// The first stored threat with `identity`.
    pub(crate) fn first_of(&self, identity: &ThreatIdentity) -> Option<&ConsistencyThreat> {
        self.records_of(identity).first().map(|r| &r.threat)
    }

    /// Whether any stored threat of `identity` allows rollback.
    pub(crate) fn any_allows_rollback(&self, identity: &ThreatIdentity) -> bool {
        self.records_of(identity)
            .iter()
            .any(|r| r.threat.instructions.allow_rollback)
    }

    /// Whether any stored threat of `identity` requests conflict
    /// notification.
    pub(crate) fn any_wants_conflict_notification(&self, identity: &ThreatIdentity) -> bool {
        self.records_of(identity)
            .iter()
            .any(|r| r.threat.instructions.notify_on_replica_conflict)
    }

    /// Removes every threat of `identity` — the threat *and all
    /// identical threats* (§3.3) — returning how many records were
    /// dropped. Their journal entries are deleted through the
    /// write-ahead log as well; an identity that is not stored touches
    /// nothing.
    pub(crate) fn remove_identity(&mut self, identity: &ThreatIdentity) -> usize {
        let Some(records) = self.records.remove(identity) else {
            return 0;
        };
        let removed = records.len();
        self.len -= removed;
        for record in records {
            self.wal.append_delete(THREAT_TABLE, record.key);
        }
        removed
    }

    /// Number of stored threat records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no threats are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The record number a journal key starts with (`NNNNNNNN|identity`).
/// Occurrence order is the order of these *numbers*: as text,
/// `100000000|…` sorts before `99999999|…`.
fn record_number(key: &str) -> Option<u64> {
    key.split_once('|')?.0.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_types::{ChaosRng, NodeId};

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

    /// Eight constraints on one write (`validate_heavy`) are eight
    /// slots, not one probe chain: the name is part of the hash.
    #[test]
    fn constraints_on_one_object_hash_apart() {
        use std::hash::BuildHasher;
        let word =
            |c: &str, key: &str| TxBuildHasher::default().hash_one(threat(c, key).identity());
        assert_ne!(word("C1", "F1"), word("C2", "F1"));
        assert_ne!(word("C1", "F1"), word("C1", "F2"));
        assert_eq!(word("C1", "F1"), word("C1", "F1"));
    }

    #[test]
    fn identical_once_deduplicates() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        assert_eq!(store.store(threat("C", "F1")), ThreatStorage::Stored);
        assert_eq!(store.store(threat("C", "F1")), ThreatStorage::Deduplicated);
        assert_eq!(store.store(threat("C", "F2")), ThreatStorage::Stored);
        assert_eq!(store.len(), 2);
        assert_eq!(store.identities().len(), 2);
    }

    #[test]
    fn full_history_links_occurrences() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        assert_eq!(store.store(threat("C", "F1")), ThreatStorage::Stored);
        assert_eq!(
            store.store(threat("C", "F1")),
            ThreatStorage::LinkedOccurrence
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.identities().len(), 1);
    }

    #[test]
    fn remove_identity_drops_all_identical() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1"));
        store.store(threat("C", "F1"));
        store.store(threat("C", "F2"));
        let removed = store.remove_identity(&threat("C", "F1").identity());
        assert_eq!(removed, 2);
        assert_eq!(store.len(), 1);
    }

    /// `FullHistory` keeps every occurrence and ORs their flags when
    /// read; `IdenticalOnce` keeps the first occurrence as it came.
    #[test]
    fn instruction_aggregation_across_identical_threats() {
        let identity = threat("C", "F1").identity();
        for policy in [HistoryPolicy::FullHistory, HistoryPolicy::IdenticalOnce] {
            let mut store = ThreatStore::new(policy);
            store.store(threat("C", "F1"));
            let journalled = store.wal.len();
            let mut later = threat("C", "F1");
            later.instructions.allow_rollback = true;
            later.affected_objects.insert(ObjectId::new("Seat", "S1"));
            store.store(later);
            let kept = policy == HistoryPolicy::FullHistory;
            assert_eq!(store.any_allows_rollback(&identity), kept, "{policy:?}");
            assert!(
                !store.any_wants_conflict_notification(&identity),
                "{policy:?}"
            );
            assert_eq!(
                store.objects_of(&identity).len(),
                1 + usize::from(kept),
                "{policy:?}"
            );
            assert_eq!(
                store.wal.len(),
                journalled + usize::from(kept),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn query_based_threats_share_identity_by_constraint() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        let mut a = threat("Q", "x");
        a.context_object = None;
        let mut b = threat("Q", "y");
        b.context_object = None;
        store.store(a);
        assert_eq!(store.store(b), ThreatStorage::Deduplicated);
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
        store.store(threat("C", "F1"));
        store.store(threat("C", "F1"));
        store.store(threat("D", "F2"));
        let mut query_based = threat("Q", "x");
        query_based.context_object = None;
        store.store(query_based);
        // The key shape every journal written so far has: record number,
        // then the identity.
        let keys: Vec<&str> = store.wal.entries().iter().map(|e| &*e.key).collect();
        let written = [
            "00000000|C@Flight#F1",
            "00000001|C@Flight#F1",
            "00000002|D@Flight#F2",
            "00000003|Q",
        ];
        assert_eq!(keys, written);
        let recovered = store.recover().unwrap();
        assert_eq!(recovered, 4);
        assert_eq!(store.len(), 4);
        assert_eq!(store.identities().len(), 3);
        assert_eq!(
            store
                .first_of(&threat("C", "F1").identity())
                .unwrap()
                .constraint,
            ConstraintName::from("C")
        );
    }

    #[test]
    fn recovery_reports_the_earliest_undecodable_record_and_reads_only_the_intact_prefix() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1"));
        // Two intact entries that do not decode; the earlier one's key
        // sorts after the later one's.
        store
            .wal
            .append_put(THREAT_TABLE, "00000009|X", "not a record");
        store.wal.append_put(THREAT_TABLE, "00000002|Y", "{");
        match store.clone().recover() {
            Err(Error::Persistence(why)) => {
                assert!(why.starts_with("threat record 00000009|X: "), "{why}");
            }
            other => panic!("expected a persistence error, got {other:?}"),
        }
        // Torn, they are past the intact prefix: recovery never reads
        // them.
        assert_eq!(store.wal.corrupt_tail(2), 2);
        assert_eq!(store.recover(), Ok(1));
        assert_eq!(store.threats()[0].constraint, ConstraintName::from("C"));
    }

    #[test]
    fn removal_is_durable() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1"));
        store.store(threat("C", "F1"));
        store.store(threat("D", "F2"));
        store.remove_identity(&threat("C", "F1").identity());
        assert_eq!(store.recover(), Ok(1));
        let survivors: Vec<_> = store
            .threats()
            .iter()
            .map(|t| t.constraint.as_str())
            .collect();
        assert_eq!(survivors, ["D"]);
    }

    #[test]
    fn removing_an_unknown_identity_touches_nothing() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        store.store(threat("C", "F1"));
        let mut query_based = threat("Q", "x");
        query_based.context_object = None;
        store.store(query_based);
        let log = store.wal.len();
        let f1 = ObjectId::new("Flight", "F1");
        // Other constraint on a stored object, stored constraint on
        // another object, and both query-based spellings.
        for (constraint, context) in [
            ("D", Some(&f1)),
            ("C", Some(&ObjectId::new("Flight", "F2"))),
            ("C", None),
            ("Q", Some(&f1)),
        ] {
            let identity = ThreatIdentity {
                constraint: constraint.into(),
                context_object: context.cloned(),
            };
            assert_eq!(store.remove_identity(&identity), 0);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.identity_count(), 2);
        assert_eq!(store.wal.len(), log, "nothing appended to the WAL");

        // A stored identity still goes from memory and WAL — with or
        // without a context object.
        assert_eq!(store.remove_identity(&threat("C", "F1").identity()), 1);
        let query = ThreatIdentity {
            constraint: "Q".into(),
            context_object: None,
        };
        assert_eq!(store.remove_identity(&query), 1);
        assert!(store.is_empty());
        assert_eq!(store.identity_count(), 0);
        assert_eq!(store.wal.len(), log + 2, "one delete entry per record");
        assert_eq!(store.recover(), Ok(0), "the deletes are durable");
    }

    #[test]
    fn objects_of_tracks_inserts_and_removals() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        let mut a = threat("C", "F1");
        a.affected_objects.insert(ObjectId::new("Seat", "S1"));
        store.store(a);
        store.store(threat("D", "F1"));
        let c = threat("C", "F1").identity();
        let f1 = ObjectId::new("Flight", "F1");
        let s1 = ObjectId::new("Seat", "S1");
        assert_eq!(store.objects_of(&c), BTreeSet::from([f1.clone(), s1]));
        assert_eq!(
            store.objects_of(&threat("D", "F1").identity()),
            BTreeSet::from([f1])
        );

        store.remove_identity(&c);
        assert!(store.objects_of(&c).is_empty());
        assert_eq!(store.identity_count(), 1);
    }

    #[test]
    fn dedup_does_not_write_additional_records() {
        let mut store = ThreatStore::new(HistoryPolicy::IdenticalOnce);
        store.store(threat("C", "F1"));
        store.store(threat("C", "F1"));
        assert_eq!(store.wal.len(), 1);
        assert_eq!(store.recover(), Ok(1));
    }

    #[test]
    fn recovery_orders_by_record_number_not_by_key_text() {
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        // The eight-digit pad of the journal key runs out here: as text
        // "100000000|…" sorts before "99999998|…".
        store.next_record = 99_999_998;
        store.store(threat("A", "F1"));
        store.store(threat("B", "F2"));
        store.store(threat("C", "F3"));
        store.store(threat("A", "F1"));
        let mut restarted = store.clone();
        assert_eq!(restarted.recover(), Ok(4));
        assert_eq!(snapshot_of(&restarted), snapshot_of(&store));
        let order: Vec<_> = restarted
            .threats()
            .iter()
            .map(|t| t.constraint.as_str())
            .collect();
        assert_eq!(order, ["A", "B", "C", "A"]);
    }

    #[test]
    fn the_journal_holds_live_threats_not_their_history() {
        const STEPS: usize = 3_000;
        let mut store = ThreatStore::new(HistoryPolicy::FullHistory);
        let mut longest = 0;
        for step in 0..STEPS {
            // Eight identities in turn: each holds one record until,
            // seven steps on, the next store replaces the one after it.
            store.store(threat(&format!("C{}", step % 8), "F1"));
            store.remove_identity(&threat(&format!("C{}", (step + 1) % 8), "F1").identity());
            longest = longest.max(store.wal.len());
        }
        assert_eq!(store.len(), 7);
        // Twice the live records (eight between a store and its remove)
        // plus the log's compaction floor (1 024), against 6 000 entries
        // appended.
        assert!(longest <= 2 * 8 + 1_024, "{longest}");
        let before = snapshot_of(&store);
        assert_eq!(store.recover(), Ok(7));
        assert_eq!(snapshot_of(&store), before);
    }

    /// Everything a store answers that a restart must give back.
    fn snapshot_of(
        store: &ThreatStore,
    ) -> (Vec<ConsistencyThreat>, Vec<ThreatIdentity>, usize, usize) {
        (
            store.threats().into_iter().cloned().collect(),
            store.identities(),
            store.identity_count(),
            store.len(),
        )
    }

    #[test]
    fn store_agrees_with_its_journal_after_every_step() {
        let constraints: Vec<ConstraintName> = (0..8).map(|i| format!("C{i}").into()).collect();
        let objects: Vec<ObjectId> = (0..5)
            .map(|i| ObjectId::new("Flight", format!("F{i}")))
            .collect();
        let policies = [HistoryPolicy::IdenticalOnce, HistoryPolicy::FullHistory];
        for seed in 0..64 {
            let mut rng = ChaosRng::new(seed);
            let mut store = ThreatStore::new(policies[seed as usize % 2]);
            for step in 0..80u64 {
                let constraint = rng.pick(&constraints).clone();
                // One draw in six is query-based (no context object).
                let context_object = objects.get(rng.below(6) as usize).cloned();
                match rng.below(10) {
                    0..=5 => {
                        let stored = ConsistencyThreat {
                            constraint,
                            context_object,
                            affected_objects: objects
                                .iter()
                                .filter(|_| rng.chance(30))
                                .cloned()
                                .collect(),
                            instructions: ReconcileInstructions {
                                allow_rollback: rng.chance(50),
                                notify_on_replica_conflict: rng.chance(50),
                            },
                            occurred_at: SimTime::from_nanos(step),
                            ..threat("-", "-")
                        };
                        store.store(stored);
                    }
                    6..=8 => {
                        store.remove_identity(&ThreatIdentity {
                            constraint,
                            context_object,
                        });
                    }
                    _ => {
                        store.recover().unwrap();
                    }
                }

                let at = format!("seed {seed} step {step}");
                let mut restarted = store.clone();
                assert_eq!(restarted.recover(), Ok(store.len()), "{at}");
                assert_eq!(snapshot_of(&restarted), snapshot_of(&store), "{at}");

                // The indexed answers equal a scan over every record.
                let all: Vec<ConsistencyThreat> = store.threats().into_iter().cloned().collect();
                let mut seen = Vec::new();
                for t in &all {
                    if !seen.contains(&t.identity()) {
                        seen.push(t.identity());
                    }
                }
                assert_eq!(store.identities(), seen, "{at}");
                for constraint in &constraints {
                    for context_object in objects.iter().map(Some).chain([None]) {
                        let identity = ThreatIdentity {
                            constraint: constraint.clone(),
                            context_object: context_object.cloned(),
                        };
                        let own: Vec<&ConsistencyThreat> =
                            all.iter().filter(|t| t.identity() == identity).collect();
                        assert_eq!(store.first_of(&identity), own.first().copied(), "{at}");
                        assert_eq!(
                            store.objects_of(&identity),
                            own.iter()
                                .flat_map(|t| t.context_object.iter().chain(&t.affected_objects))
                                .cloned()
                                .collect(),
                            "{at}"
                        );
                        assert_eq!(
                            store.any_allows_rollback(&identity),
                            own.iter().any(|t| t.instructions.allow_rollback),
                            "{at}"
                        );
                        assert_eq!(
                            store.any_wants_conflict_notification(&identity),
                            own.iter()
                                .any(|t| t.instructions.notify_on_replica_conflict),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}
