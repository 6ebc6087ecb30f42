//! Write-ahead log with replay and per-entry integrity checksums.
//!
//! ## Entry shape
//!
//! An entry *points at* its payload instead of owning it: `key` and the
//! record of a [`LogOp::Put`] are `Arc<str>`, so the journals of a
//! primary and its backups can log one committed write with one
//! encoding of the record between them. What stays per entry — and per
//! node — is the sequence number and the checksum. `table` is a
//! `&'static str` because tables are compile-time names, never data.
//!
//! ## What the checksum covers
//!
//! The checksum is FNV-1a over `seq`, `table`, `key`, the op tag and —
//! for a put — the *digest* of the record ([`record_digest`]: FNV-1a
//! over the record bytes alone). The digest does not depend on the
//! node, so whoever made the bytes computes it once and hands it to
//! every log that journals them
//! ([`WriteAheadLog::append_put_digested`]); each log then mixes its
//! own `seq` into some thirty bytes instead of re-reading the record.
//! The digest is not stored: verification ([`LogEntry::is_intact`],
//! and the intact prefix a recovery reads) recomputes it from the
//! entry's own bytes, so a corrupted record, key, `seq` or checksum on
//! one node is caught — and truncated — on that node only, whoever else
//! shares the bytes.
//!
//! [`LogEntry`] and [`LogOp`] deliberately do not derive serde: the
//! log is an in-memory model of a disk, nothing serializes an entry,
//! and a derive would force the shared payload back into owned
//! `String`s.
//!
//! ## Compaction: the log holds live state, not history
//!
//! The log is not append-only. A replay keeps the last op of each
//! `(table, key)` and nothing before it, so an entry that a newer one of
//! its key supersedes can never change what a recovery yields — and a
//! delete that is its key's newest entry yields the same as no entry at
//! all. So every append checks the log's length against what its last
//! compaction kept: once it holds at least twice that plus a fixed floor
//! (1 024 entries), it drops every entry except each key's newest, and
//! that one too if it is a delete. A log therefore holds at most
//! `2 · live + floor` entries, however long it runs, and the walk over
//! it is paid for by the appends since the last one. Its capacity is
//! reserved up to that bound after each compaction, and the table the
//! walk files keys in is kept, emptied, for the next one: a log that
//! has reached its size allocates nothing more to stay there.
//!
//! **Keys are filed by a word taken at append.** Each entry carries a
//! private 32-bit hash of its `(table, key)` (FNV-1a over `table ‖ 0xFF
//! ‖ key`), computed by the append while the key is hot, in the padding
//! after the checksum — an entry stays 64 bytes. A compaction files each
//! key under that word in a table of `hash → entry index`, 8 bytes per
//! key, with no key cloned and no key byte re-read: two keys are
//! compared only when their words match (the same `Arc` first, then the
//! bytes), and a genuine 32-bit collision moves on to the next word.
//!
//! **Recovery reads the same walk.** [`WriteAheadLog::survivors`] files
//! the intact prefix the same way and yields what a compaction would
//! keep of it — each key's newest entry if it is a put — in journal
//! order, with the digest that verified it. Both stores rebuild their
//! memory from it, decoding each surviving record once.
//!
//! **Survivors are untouched.** A compaction only removes entries: each
//! survivor keeps its `seq`, its checksum, its shared key and record and
//! its place relative to the others. Nothing is re-encoded, re-hashed or
//! re-checksummed, so a recovery from a compacted log yields exactly the
//! state the full log would.
//!
//! **Compaction verifies nothing.** It reads no record bytes and checks
//! no checksum, so it must not run over a torn entry. None exists while
//! a log is appended to: an entry is torn only between the
//! [`WriteAheadLog::corrupt_tail`] fault hook and the crash that follows
//! it, and a crashed node appends nothing until its recovery has
//! truncated the torn tail.

use crate::TableStore;
use dedisys_types::TxBuildHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The entries a log may hold beyond twice what its last compaction
/// kept before it compacts again: the least work one compaction is
/// paid for by, and the whole log of a store with few live keys.
const COMPACT_FLOOR: usize = 1_024;

/// The operation recorded by a log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// Insert or replace a record.
    Put {
        /// Serialized record, shared with whoever else logs or holds
        /// the same committed write.
        record: Arc<str>,
    },
    /// Delete a record.
    Delete,
}

/// One entry of the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Monotonically increasing log sequence number (per log).
    pub seq: u64,
    /// Target table.
    pub table: &'static str,
    /// Target key.
    pub key: Arc<str>,
    /// The operation.
    pub op: LogOp,
    /// FNV-1a checksum over `seq`/`table`/`key`/op tag/record digest,
    /// written with the entry. A mismatch marks the entry as torn (a
    /// write interrupted by a crash) — recovery truncates the log
    /// there.
    pub checksum: u32,
    /// FNV-1a over `table ‖ 0xFF ‖ key`, taken at append: the word a
    /// compaction and [`WriteAheadLog::survivors`] file the entry by.
    /// Not covered by the checksum and never verified — it only says
    /// which keys are worth comparing.
    key_hash: u32,
}

impl LogEntry {
    /// The digest of the record as its bytes read *now* (`None` for a
    /// delete) — never the one an appender carried.
    fn digest(&self) -> Option<u32> {
        match &self.op {
            LogOp::Put { record } => Some(record_digest(record)),
            LogOp::Delete => None,
        }
    }

    /// The checksum the entry should carry if its record digests to
    /// `digest`.
    fn checksum_over(&self, digest: Option<u32>) -> u32 {
        entry_checksum(self.seq, self.table, &self.key, digest)
    }

    /// The FNV-1a checksum the entry *should* carry given its payload.
    pub(crate) fn expected_checksum(&self) -> u32 {
        self.checksum_over(self.digest())
    }

    /// Whether the stored checksum matches the payload.
    pub fn is_intact(&self) -> bool {
        self.checksum == self.expected_checksum()
    }

    /// Whether `self` and `other` address the same `(table, key)`:
    /// their filed words first, then the shared key, then the bytes.
    fn same_key(&self, other: &LogEntry) -> bool {
        self.key_hash == other.key_hash
            && self.table == other.table
            && (Arc::ptr_eq(&self.key, &other.key) || self.key == other.key)
    }
}

/// Where a walk files keys: a `(table, key)`'s word (or, past a
/// collision, the next free one) → the index of the entry that stands
/// for it.
type Filing = HashMap<u32, u32, TxBuildHasher>;

/// Files `entry`'s key under `at` unless it is filed already: probes
/// from its word, comparing keys only where a filed entry
/// (`filed_entry` of its index) has the same word, and moving to the
/// next word past a genuine collision. Returns whether the key was new.
fn file_new<'a>(
    filing: &mut Filing,
    entry: &LogEntry,
    at: usize,
    filed_entry: impl Fn(usize) -> &'a LogEntry,
) -> bool {
    let mut word = entry.key_hash;
    while let Some(&filed) = filing.get(&word) {
        if filed_entry(filed as usize).same_key(entry) {
            return false;
        }
        word = word.wrapping_add(1);
    }
    filing.insert(
        word,
        u32::try_from(at).expect("a log holds fewer than 2³² entries"),
    );
    true
}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 16_777_619;

/// One FNV-1a pass over `bytes`, continuing from `hash`.
fn fnv1a(hash: u32, bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u32::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the bytes of a record alone: the part of an entry's
/// checksum that is the same on every node that journals the record.
/// Computed where the bytes are made and handed to each log
/// ([`WriteAheadLog::append_put_digested`]); recomputed from the bytes
/// whenever an entry is verified.
pub fn record_digest(record: &str) -> u32 {
    fnv1a(FNV_OFFSET, record.as_bytes())
}

/// FNV-1a over the entry payload, the record standing in by its
/// `digest` (`None`: a delete). Field boundaries are delimited with a
/// `0xFF` byte (which cannot appear in UTF-8 strings) so `("ab","c")`
/// and `("a","bc")` hash differently.
fn entry_checksum(seq: u64, table: &str, key: &str, digest: Option<u32>) -> u32 {
    let mut hash = fnv1a(FNV_OFFSET, &seq.to_le_bytes());
    hash = fnv1a(hash, table.as_bytes());
    hash = fnv1a(hash, &[0xFF]);
    hash = fnv1a(hash, key.as_bytes());
    hash = fnv1a(hash, &[0xFF]);
    match digest {
        Some(digest) => fnv1a(fnv1a(hash, &[0x01]), &digest.to_le_bytes()),
        None => fnv1a(hash, &[0x02]),
    }
}

/// The word a `(table, key)` is filed by: FNV-1a over `table ‖ 0xFF ‖
/// key`.
fn key_hash(table: &str, key: &str) -> u32 {
    fnv1a(
        fnv1a(fnv1a(FNV_OFFSET, table.as_bytes()), &[0xFF]),
        key.as_bytes(),
    )
}

/// What a WAL recovery actually did: how many entries were replayed
/// and how many were discarded as a torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Intact entries replayed into the fresh store.
    pub replayed: u64,
    /// Entries dropped because a torn entry (and everything after it)
    /// cannot be trusted.
    pub truncated: u64,
}

/// A write-ahead log that compacts itself.
///
/// The store layers append before applying; replay reconstructs a
/// [`TableStore`] after a simulated crash. An append that finds the log
/// at twice what its last compaction kept plus a floor drops every
/// entry a replay would overwrite or delete (module docs, "Compaction"):
/// each key's newest entry survives if it is a put, untouched and in
/// order. Compaction checks no checksum; it never meets a torn entry,
/// because a log is torn only between [`WriteAheadLog::corrupt_tail`]
/// and a crash, and a crashed node appends nothing.
///
/// ```
/// use dedisys_store::WriteAheadLog;
///
/// let mut wal = WriteAheadLog::new();
/// wal.append_put("t", "k", "v");
/// wal.append_put("t", "gone", "x");
/// wal.append_delete("t", "gone");
///
/// // What a recovery rebuilds: each key's newest entry, if a put.
/// let records: Vec<&str> = wal.survivors().map(|(_, record, _)| &**record).collect();
/// assert_eq!(records, ["v"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteAheadLog {
    entries: Vec<LogEntry>,
    next_seq: u64,
    /// Entries the last compaction kept (0 before the first).
    kept: usize,
    /// Where a compaction files the keys it has seen, empty between
    /// compactions and kept for the next, so one allocates only to
    /// outgrow the last.
    filing: Filing,
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a put operation, returning its sequence number. Passing
    /// `Arc<str>`s shares key and record with the caller (no copy);
    /// `&str`/`String` are copied into a fresh allocation once. The
    /// record is read once, for its digest.
    pub fn append_put(
        &mut self,
        table: &'static str,
        key: impl Into<Arc<str>>,
        record: impl Into<Arc<str>>,
    ) -> u64 {
        let record = record.into();
        let digest = record_digest(&record);
        self.append(table, key.into(), Some((record, digest)))
    }

    /// [`WriteAheadLog::append_put`] for a caller that already holds
    /// the record's [`record_digest`] — the record is not read, and the
    /// entry is the one `append_put` would have written. A `digest`
    /// that is not the record's writes an entry that fails
    /// verification.
    pub fn append_put_digested(
        &mut self,
        table: &'static str,
        key: Arc<str>,
        record: Arc<str>,
        digest: u32,
    ) -> u64 {
        debug_assert_eq!(digest, record_digest(&record), "digest of another record");
        self.append(table, key, Some((record, digest)))
    }

    /// Appends a delete operation, returning its sequence number.
    pub fn append_delete(&mut self, table: &'static str, key: impl Into<Arc<str>>) -> u64 {
        self.append(table, key.into(), None)
    }

    /// The one append: a put arrives as its record and the record's
    /// digest, a delete as `None`.
    fn append(&mut self, table: &'static str, key: Arc<str>, put: Option<(Arc<str>, u32)>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let checksum = entry_checksum(seq, table, &key, put.as_ref().map(|(_, digest)| *digest));
        let op = match put {
            Some((record, _)) => LogOp::Put { record },
            None => LogOp::Delete,
        };
        let key_hash = key_hash(table, &key);
        self.entries.push(LogEntry {
            seq,
            table,
            key,
            op,
            checksum,
            key_hash,
        });
        if self.entries.len() >= 2 * self.kept + COMPACT_FLOOR {
            self.compact();
        }
        seq
    }

    /// Drops every entry a replay would overwrite or delete: of each
    /// `(table, key)` only the newest entry stays, and only if it is a
    /// put. Survivors are not touched — same `seq`, checksum, shared
    /// key and record, same relative order.
    ///
    /// Verifies nothing: no record byte is read and no checksum
    /// checked, so a torn entry would be kept or dropped like any
    /// other. The log holds none when it is appended to — an entry is
    /// torn only between [`WriteAheadLog::corrupt_tail`] and the crash
    /// that follows it, and a crashed node appends nothing before its
    /// recovery truncates the torn tail.
    fn compact(&mut self) {
        // Newest first, so the first entry filed of a key is its last
        // op. Each key's first entry moves down to the front, where the
        // filing points at it; what stays behind is superseded.
        let (filing, entries) = (&mut self.filing, &mut self.entries);
        entries.reverse();
        let mut newest = 0;
        for at in 0..entries.len() {
            if file_new(filing, &entries[at], newest, |filed| &entries[filed]) {
                entries.swap(newest, at);
                newest += 1;
            }
        }
        entries.truncate(newest);
        // A key whose newest entry is a delete has nothing to recover.
        entries.retain(|entry| matches!(entry.op, LogOp::Put { .. }));
        entries.reverse();
        filing.clear();
        self.kept = entries.len();
        // Room for exactly what the log may hold before the next
        // compaction: it never doubles past its own bound.
        entries.reserve_exact(self.kept + COMPACT_FLOOR);
    }

    /// The entries the log holds, in append order: every entry since the
    /// last compaction, and before it each key's newest put.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries held — what a recovery replays, not what was
    /// appended.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the whole log into `store`.
    pub(crate) fn replay_into(&self, store: &mut TableStore) {
        for entry in &self.entries {
            match &entry.op {
                LogOp::Put { record } => {
                    store.put(entry.table, &*entry.key, String::from(&**record));
                }
                LogOp::Delete => {
                    store.delete(entry.table, &entry.key);
                }
            }
        }
    }

    /// The entries a recovery may trust: every entry before the first
    /// whose checksum fails (an interrupted write means nothing after
    /// it reached disk in order), each with the record digest the
    /// check just recomputed from its bytes (`None` for a delete) — so
    /// a recovery that rebuilds snapshots reads each record once.
    fn intact_prefix(&self) -> impl Iterator<Item = (&LogEntry, Option<u32>)> + '_ {
        self.entries.iter().map_while(|entry| {
            let digest = entry.digest();
            (entry.checksum == entry.checksum_over(digest)).then_some((entry, digest))
        })
    }

    /// What a recovery rebuilds from: of the intact prefix (every entry
    /// before the first whose checksum fails), each `(table, key)`'s
    /// newest entry if it is a put, in journal order, each with
    /// its record and the record digest that verified it. Keys are filed by the word
    /// taken at append, as a compaction files them (module docs,
    /// "Compaction"), so no key is cloned or re-hashed.
    /// [`Survivors::intact`] is the length of the prefix read.
    pub fn survivors(&self) -> Survivors<'_> {
        let intact: Vec<(&LogEntry, Option<u32>)> = self.intact_prefix().collect();
        let mut filing = Filing::default();
        let mut newest = Vec::new();
        // Newest first: the first entry filed of a key is its last op.
        for (at, &(entry, digest)) in intact.iter().enumerate().rev() {
            if file_new(&mut filing, entry, at, |filed| intact[filed].0) {
                if let (LogOp::Put { record }, Some(digest)) = (&entry.op, digest) {
                    newest.push((entry, record, digest));
                }
            }
        }
        Survivors {
            intact: intact.len(),
            newest: newest.into_iter().rev(),
        }
    }

    /// Drops the torn tail: everything from the first entry whose
    /// checksum fails on. Returns the
    /// number of entries dropped. A fully intact log is untouched.
    pub fn truncate_torn_tail(&mut self) -> u64 {
        let intact = self.intact_prefix().count();
        let dropped = self.entries.len() - intact;
        self.entries.truncate(intact);
        dropped as u64
    }

    /// Fault injection: corrupts the checksum of the last `entries`
    /// entries, simulating a torn write caught mid-crash. Returns the
    /// number of entries actually corrupted (bounded by the log
    /// length).
    pub fn corrupt_tail(&mut self, entries: usize) -> usize {
        let len = self.entries.len();
        let from = len.saturating_sub(entries);
        for entry in &mut self.entries[from..] {
            entry.checksum = !entry.checksum;
        }
        len - from
    }
}

/// The walk [`WriteAheadLog::survivors`] hands back: each surviving
/// entry with its record and the record's digest, oldest first.
#[derive(Debug)]
pub struct Survivors<'a> {
    intact: usize,
    newest: std::iter::Rev<std::vec::IntoIter<(&'a LogEntry, &'a Arc<str>, u32)>>,
}

impl Survivors<'_> {
    /// Length of the intact prefix the walk read: the entries a
    /// recovery replays, superseded ones included.
    pub fn intact(&self) -> usize {
        self.intact
    }
}

impl<'a> Iterator for Survivors<'a> {
    type Item = (&'a LogEntry, &'a Arc<str>, u32);

    fn next(&mut self) -> Option<Self::Item> {
        self.newest.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_types::ChaosRng;

    #[test]
    fn replay_reconstructs_store() {
        let mut wal = WriteAheadLog::new();
        wal.append_put("t", "a", "1");
        wal.append_put("t", "b", "2");
        wal.append_put("t", "a", "3");
        wal.append_delete("t", "b");

        let mut store = TableStore::new();
        wal.replay_into(&mut store);
        assert_eq!(store.get("t", "a"), Some("3"));
        assert_eq!(store.get("t", "b"), None);
    }

    #[test]
    fn sequence_numbers_are_gap_free() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.append_put("t", "k", "v"), 0);
        assert_eq!(wal.append_delete("t", "k"), 1);
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn shared_payload_is_logged_without_a_copy_and_checksummed_per_log() {
        let key: Arc<str> = Arc::from("k");
        let record: Arc<str> = Arc::from("v");
        let mut primary = WriteAheadLog::new();
        let mut backup = WriteAheadLog::new();
        backup.append_delete("t", "other"); // the backup's seq runs ahead
        primary.append_put("t", Arc::clone(&key), Arc::clone(&record));
        backup.append_put("t", Arc::clone(&key), Arc::clone(&record));
        let (p, b) = (&primary.entries()[0], &backup.entries()[1]);
        assert!(Arc::ptr_eq(&p.key, &b.key));
        match (&p.op, &b.op) {
            (LogOp::Put { record: pr }, LogOp::Put { record: br }) => {
                assert!(Arc::ptr_eq(pr, br));
                assert!(Arc::ptr_eq(pr, &record));
            }
            other => panic!("expected two puts, got {other:?}"),
        }
        // Same bytes, different `seq`: each log carries its own checksum,
        // and tearing one leaves the other intact.
        assert_ne!((p.seq, p.checksum), (b.seq, b.checksum));
        backup.corrupt_tail(1);
        assert!(primary.entries().iter().all(LogEntry::is_intact));
        assert_eq!(backup.truncate_torn_tail(), 1);
        assert_eq!(primary.truncate_torn_tail(), 0);
    }

    #[test]
    fn appended_entries_carry_valid_checksums() {
        let mut wal = WriteAheadLog::new();
        wal.append_put("t", "k", "v");
        wal.append_delete("t", "k");
        assert!(wal.entries().iter().all(LogEntry::is_intact));
        // Field boundaries matter: moving a byte between table and key
        // changes the checksum.
        let a = entry_checksum(0, "ab", "c", None);
        let b = entry_checksum(0, "a", "bc", None);
        assert_ne!(a, b);
    }

    /// `text` (ASCII) with one byte changed, in an allocation of its own.
    fn one_byte_changed(text: &str, rng: &mut ChaosRng) -> Arc<str> {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
        String::from_utf8(bytes).expect("ASCII stays UTF-8").into()
    }

    #[test]
    fn mid_log_corruption_fails_its_entry_on_its_log_only() {
        let mut kinds = [0u32; 4];
        for seed in 0..64 {
            let mut rng = ChaosRng::new(seed);
            // The same writes three times: digest carried, digest
            // computed by the log, and carried again at other `seq`s.
            let mut carried = WriteAheadLog::new();
            let mut plain = WriteAheadLog::new();
            let mut sibling = WriteAheadLog::new();
            for _ in 0..=rng.below(3) {
                sibling.append_delete("t", "ahead");
            }
            let ahead = sibling.len();
            for n in 0..8 + rng.below(24) {
                let key: Arc<str> = format!("Item#k{}", rng.below(6)).into();
                if rng.chance(25) {
                    for log in [&mut carried, &mut plain, &mut sibling] {
                        log.append_delete("t", Arc::clone(&key));
                    }
                    continue;
                }
                let record: Arc<str> = format!(r#"{{"n":{n},"v":{}}}"#, rng.next_u64()).into();
                let digest = record_digest(&record);
                for log in [&mut carried, &mut sibling] {
                    log.append_put_digested("t", Arc::clone(&key), Arc::clone(&record), digest);
                }
                plain.append_put("t", key, record);
            }
            assert_eq!(
                carried, plain,
                "seed {seed}: a carried digest changes no entry"
            );
            for (a, b) in carried.entries().iter().zip(&sibling.entries()[ahead..]) {
                assert_eq!((&a.key, &a.op), (&b.key, &b.op), "seed {seed}");
                assert_ne!(a.seq, b.seq, "seed {seed}");
            }

            let victim = rng.below(carried.len() as u64) as usize;
            let entry = &mut carried.entries[victim];
            let kind = match (rng.below(4), &entry.op) {
                (0, LogOp::Put { record }) => {
                    // A changed copy: the sibling keeps the original.
                    let record = one_byte_changed(record, &mut rng);
                    entry.op = LogOp::Put { record };
                    0
                }
                (0 | 1, _) => {
                    entry.key = one_byte_changed(&entry.key, &mut rng);
                    1
                }
                (2, _) => {
                    entry.seq ^= 1 << rng.below(64);
                    2
                }
                _ => {
                    entry.checksum ^= 1 << rng.below(32);
                    3
                }
            };
            kinds[kind] += 1;

            let broken: Vec<usize> = (0..carried.len())
                .filter(|&i| !carried.entries()[i].is_intact())
                .collect();
            assert_eq!(broken, [victim], "seed {seed}, kind {kind}");
            assert_eq!(carried.intact_prefix().count(), victim, "seed {seed}");
            let dropped = (carried.len() - victim) as u64;
            assert_eq!(carried.truncate_torn_tail(), dropped, "seed {seed}");
            assert_eq!(carried.entries(), &plain.entries()[..victim], "seed {seed}");
            assert!(sibling.entries().iter().all(LogEntry::is_intact));
            assert_eq!(sibling.truncate_torn_tail(), 0, "seed {seed}");
        }
        assert!(kinds.iter().all(|&n| n > 0), "every kind drawn: {kinds:?}");
    }

    #[test]
    fn torn_tail_is_truncated_intact_log_untouched() {
        let mut wal = WriteAheadLog::new();
        wal.append_put("t", "a", "1");
        wal.append_put("t", "b", "2");
        wal.append_put("t", "c", "3");
        assert_eq!(wal.truncate_torn_tail(), 0);
        assert_eq!(wal.len(), 3);

        assert_eq!(wal.corrupt_tail(2), 2);
        assert_eq!(wal.truncate_torn_tail(), 2);
        assert_eq!(wal.len(), 1);
        assert_eq!(&*wal.entries()[0].key, "a");

        let mut store = TableStore::new();
        wal.replay_into(&mut store);
        assert_eq!(store.get("t", "a"), Some("1"));
        assert_eq!(store.get("t", "b"), None);
    }

    /// The records replaying `log` yields in tables `t` and `u` (a
    /// table whose every key was deleted is no different from one never
    /// written).
    fn replayed(log: &WriteAheadLog) -> Vec<(&'static str, String, String)> {
        let mut store = TableStore::new();
        log.replay_into(&mut store);
        ["t", "u"]
            .into_iter()
            .flat_map(|table| {
                store
                    .scan(table)
                    .map(move |(key, record)| (table, key.to_owned(), record.to_owned()))
            })
            .collect()
    }

    #[test]
    fn compaction_is_invisible_to_recovery() {
        let mut compactions = 0;
        for seed in 0..12 {
            let mut rng = ChaosRng::new(seed);
            let keys = 1 + rng.below(8);
            let appends = 1 + rng.below(5_000);
            let mut wal = WriteAheadLog::new();
            // Every entry as appended: the log that never compacts.
            let mut reference = WriteAheadLog::new();
            for n in 0..appends {
                // Two tables share key texts: a key is the pair.
                let table = if rng.chance(50) { "t" } else { "u" };
                let key: Arc<str> = format!("k{}", rng.below(keys)).into();
                let record: Option<Arc<str>> = (!rng.chance(20)).then(|| format!("v{n}").into());
                let seq = match &record {
                    Some(record) => wal.append_put(table, Arc::clone(&key), Arc::clone(record)),
                    None => wal.append_delete(table, Arc::clone(&key)),
                };
                let digest = record.as_deref().map(record_digest);
                reference.entries.push(LogEntry {
                    seq,
                    table,
                    checksum: entry_checksum(seq, table, &key, digest),
                    key_hash: key_hash(table, &key),
                    key,
                    op: record.map_or(LogOp::Delete, |record| LogOp::Put { record }),
                });

                let at = format!("seed {seed} append {n}");
                assert!(wal.len() <= 2 * wal.kept + COMPACT_FLOOR, "{at}");
                assert!(wal.filing.is_empty(), "{at}: no key held past a compaction");
                let compacted = wal.len() == wal.kept && wal.len() < reference.len();
                compactions += usize::from(compacted);
                if !(compacted || n + 1 == appends || n % 499 == 0) {
                    continue;
                }
                assert_eq!(replayed(&wal), replayed(&reference), "{at}");
                for entry in wal.entries() {
                    let appended = &reference.entries()[entry.seq as usize];
                    assert_eq!(
                        (entry.seq, entry.table, entry.checksum),
                        (appended.seq, appended.table, appended.checksum),
                        "{at}"
                    );
                    assert!(Arc::ptr_eq(&entry.key, &appended.key), "{at}");
                    match (&entry.op, &appended.op) {
                        (LogOp::Put { record }, LogOp::Put { record: was }) => {
                            assert!(Arc::ptr_eq(record, was), "{at}");
                        }
                        (LogOp::Delete, LogOp::Delete) => {}
                        other => panic!("{at}: op changed: {other:?}"),
                    }
                }
                assert!(
                    wal.entries().windows(2).all(|w| w[0].seq < w[1].seq),
                    "{at}: append order kept"
                );
                assert_eq!(wal.intact_prefix().count(), wal.len(), "{at}");
                if compacted && !wal.is_empty() {
                    assert!(
                        wal.entries()
                            .iter()
                            .all(|e| matches!(e.op, LogOp::Put { .. })),
                        "{at}: a delete that is its key's newest entry goes"
                    );
                    // A torn write after a compaction costs the newest
                    // entry, and nothing else.
                    let mut torn = wal.clone();
                    assert_eq!(torn.corrupt_tail(1), 1);
                    assert_eq!(torn.truncate_torn_tail(), 1, "{at}");
                    assert_eq!(torn.entries(), &wal.entries()[..wal.len() - 1], "{at}");
                }
            }
        }
        assert!(compactions > 0, "no schedule reached the floor");
    }

    #[test]
    fn an_entry_is_one_cache_line() {
        // The filed word sits in the padding after the checksum.
        assert_eq!(std::mem::size_of::<LogEntry>(), 64);
    }

    /// Two keys of table `t` whose filed words collide, found by a
    /// bounded seeded search (a 32-bit word repeats after some 2¹⁶
    /// draws).
    fn colliding_keys() -> (Arc<str>, Arc<str>) {
        let mut rng = ChaosRng::new(48);
        let mut drawn: HashMap<u32, Arc<str>> = HashMap::new();
        for _ in 0..1 << 20 {
            let key: Arc<str> = format!("c{:x}", rng.next_u64()).into();
            if let Some(earlier) = drawn.insert(key_hash("t", &key), Arc::clone(&key)) {
                if earlier != key {
                    return (earlier, key);
                }
            }
        }
        panic!("no two keys of 2²⁰ drawn collide");
    }

    /// The compaction as it was before keys were filed by their word: a
    /// set of cloned `(table, key)` pairs, newest entry first.
    fn oracle_compact(entries: &mut Vec<LogEntry>) {
        let mut seen = std::collections::HashSet::new();
        entries.reverse();
        entries.retain(|entry| {
            seen.insert((entry.table, Arc::clone(&entry.key)))
                && matches!(entry.op, LogOp::Put { .. })
        });
        entries.reverse();
    }

    /// One append of a schedule: table, key and record (`None`: a
    /// delete).
    type Append = (&'static str, Arc<str>, Option<Arc<str>>);

    /// A seeded schedule over tables `t` and `u`, keys drawn from
    /// `keys` (the colliding pair among them).
    fn schedule(rng: &mut ChaosRng, keys: &[Arc<str>], appends: u64) -> Vec<Append> {
        (0..appends)
            .map(|n| {
                let table = if rng.chance(70) { "t" } else { "u" };
                let key = Arc::clone(&keys[rng.below(keys.len() as u64) as usize]);
                let record = (!rng.chance(20)).then(|| format!("v{n}").into());
                (table, key, record)
            })
            .collect()
    }

    /// The keys a seeded schedule draws from: the colliding pair, then
    /// up to eight more.
    fn key_pool(rng: &mut ChaosRng, pair: &(Arc<str>, Arc<str>)) -> Vec<Arc<str>> {
        let mut keys = vec![Arc::clone(&pair.0), Arc::clone(&pair.1)];
        keys.extend((0..rng.below(9)).map(|k| format!("k{k}").into()));
        keys
    }

    fn append(
        log: &mut WriteAheadLog,
        table: &'static str,
        key: &Arc<str>,
        record: &Option<Arc<str>>,
    ) {
        match record {
            Some(record) => log.append_put(table, Arc::clone(key), Arc::clone(record)),
            None => log.append_delete(table, Arc::clone(key)),
        };
    }

    #[test]
    fn compaction_by_filed_word_keeps_what_the_cloned_set_kept() {
        let pair = colliding_keys();
        assert_eq!(key_hash("t", &pair.0), key_hash("t", &pair.1));
        let mut compactions = 0;
        for seed in 0..8 {
            let mut rng = ChaosRng::new(seed);
            let keys = key_pool(&mut rng, &pair);
            let mut wal = WriteAheadLog::new();
            let (mut oracle, mut kept) = (Vec::new(), 0);
            for (n, (table, key, record)) in schedule(&mut rng, &keys, 3_000).iter().enumerate() {
                append(&mut wal, table, key, record);
                let seq = n as u64;
                let digest = record.as_deref().map(record_digest);
                oracle.push(LogEntry {
                    seq,
                    table,
                    key: Arc::clone(key),
                    op: record
                        .clone()
                        .map_or(LogOp::Delete, |record| LogOp::Put { record }),
                    checksum: entry_checksum(seq, table, key, digest),
                    key_hash: key_hash(table, key),
                });
                if oracle.len() >= 2 * kept + COMPACT_FLOOR {
                    oracle_compact(&mut oracle);
                    kept = oracle.len();
                    compactions += 1;
                }
                assert_eq!(wal.entries(), oracle.as_slice(), "seed {seed} append {n}");
                assert!(wal.filing.is_empty(), "seed {seed} append {n}");
            }
        }
        assert!(compactions >= 8, "{compactions} compactions");
    }

    /// The entity store's recovery walk as it was: the last op of each
    /// key with its position, then the puts sorted by position.
    fn container_walk(log: &WriteAheadLog) -> Vec<(&LogEntry, u32)> {
        let mut last: HashMap<(&str, &str), (usize, &LogEntry, Option<u32>)> = HashMap::new();
        for (at, (entry, digest)) in log.intact_prefix().enumerate() {
            last.insert((entry.table, &entry.key), (at, entry, digest));
        }
        let mut survivors: Vec<_> = last
            .into_values()
            .filter_map(|(at, entry, digest)| digest.map(|digest| (at, entry, digest)))
            .collect();
        survivors.sort_unstable_by_key(|&(at, ..)| at);
        survivors
            .into_iter()
            .map(|(_, entry, digest)| (entry, digest))
            .collect()
    }

    /// The threat store's recovery walk as it was — newest first, a set
    /// of the keys decided — over the intact prefix, put back in
    /// journal order.
    fn threat_walk(log: &WriteAheadLog) -> Vec<&LogEntry> {
        let intact: Vec<&LogEntry> = log.intact_prefix().map(|(entry, _)| entry).collect();
        let mut decided = std::collections::HashSet::new();
        let mut survivors: Vec<&LogEntry> = intact
            .into_iter()
            .rev()
            .filter(|entry| {
                decided.insert((entry.table, &*entry.key)) && matches!(entry.op, LogOp::Put { .. })
            })
            .collect();
        survivors.reverse();
        survivors
    }

    #[test]
    fn survivors_are_what_both_recovery_walks_found() {
        let pair = colliding_keys();
        let mut torn = 0;
        for seed in 0..24 {
            let mut rng = ChaosRng::new(seed);
            let keys = key_pool(&mut rng, &pair);
            let mut wal = WriteAheadLog::new();
            let appends = 1 + rng.below(3_000);
            for (table, key, record) in schedule(&mut rng, &keys, appends) {
                append(&mut wal, table, &key, &record);
            }
            torn += usize::from(wal.corrupt_tail(rng.below(6) as usize) > 0);
            let survivors = wal.survivors();
            assert_eq!(
                survivors.intact(),
                wal.intact_prefix().count(),
                "seed {seed}"
            );
            let survivors: Vec<(&LogEntry, u32)> = survivors
                .map(|(entry, record, digest)| {
                    assert_eq!(
                        entry.op,
                        LogOp::Put {
                            record: Arc::clone(record)
                        },
                        "seed {seed}"
                    );
                    (entry, digest)
                })
                .collect();
            let same = |a: &[(&LogEntry, u32)], b: &[(&LogEntry, u32)]| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((a, x), (b, y))| std::ptr::eq(*a, *b) && x == y)
            };
            assert!(same(&survivors, &container_walk(&wal)), "seed {seed}");
            let entries: Vec<&LogEntry> = survivors.iter().map(|&(entry, _)| entry).collect();
            let threats = threat_walk(&wal);
            assert!(
                entries.len() == threats.len()
                    && entries
                        .iter()
                        .zip(&threats)
                        .all(|(a, b)| std::ptr::eq(*a, *b)),
                "seed {seed}"
            );
            for (entry, digest) in survivors {
                assert_eq!(Some(digest), entry.digest(), "seed {seed}");
            }
        }
        assert!(torn > 12, "{torn} of 24 journals torn");
    }

    #[test]
    fn corrupt_tail_is_bounded_by_length() {
        let mut wal = WriteAheadLog::new();
        wal.append_put("t", "a", "1");
        assert_eq!(wal.corrupt_tail(10), 1);
        assert_eq!(wal.truncate_torn_tail(), 1);
        assert!(wal.is_empty());
        assert_eq!(wal.corrupt_tail(1), 0);
    }
}
