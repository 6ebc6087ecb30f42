//! Write-ahead log with replay and per-entry integrity checksums.
//!
//! ## Entry shape
//!
//! An entry *points at* its payload instead of owning it: `key` and the
//! record of a [`LogOp::Put`] are `Arc<str>`, so the journals of a
//! primary and its backups can log one committed write with one
//! encoding of the record between them. What stays per entry — and per
//! node — is the sequence number and the checksum: every log computes
//! its own FNV-1a over `seq`/`table`/`key`/record at append time and
//! verifies it on recovery, so a torn tail on one node is truncated on
//! that node only, whoever else shares the bytes. `table` is a
//! `&'static str` because tables are compile-time names, never data.
//!
//! [`LogEntry`] and [`LogOp`] deliberately do not derive serde: the
//! log is an in-memory model of a disk, nothing serializes an entry,
//! and a derive would force the shared payload back into owned
//! `String`s.

use crate::TableStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    /// FNV-1a checksum over `seq`/`table`/`key`/`op`, written with the
    /// entry. A mismatch marks the entry as torn (a write interrupted
    /// by a crash) — recovery truncates the log there.
    pub checksum: u32,
}

impl LogEntry {
    /// The FNV-1a checksum the entry *should* carry given its payload.
    pub fn expected_checksum(&self) -> u32 {
        entry_checksum(self.seq, self.table, &self.key, &self.op)
    }

    /// Whether the stored checksum matches the payload.
    pub fn is_intact(&self) -> bool {
        self.checksum == self.expected_checksum()
    }
}

/// FNV-1a over the entry payload. Field boundaries are delimited with
/// a `0xFF` byte (which cannot appear in UTF-8 strings) so
/// `("ab","c")` and `("a","bc")` hash differently.
fn entry_checksum(seq: u64, table: &str, key: &str, op: &LogOp) -> u32 {
    const OFFSET: u32 = 0x811C_9DC5;
    const PRIME: u32 = 16_777_619;
    let mut hash = OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u32::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    mix(&seq.to_le_bytes());
    mix(table.as_bytes());
    mix(&[0xFF]);
    mix(key.as_bytes());
    mix(&[0xFF]);
    match op {
        LogOp::Put { record } => {
            mix(&[0x01]);
            mix(record.as_bytes());
        }
        LogOp::Delete => mix(&[0x02]),
    }
    hash
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

/// An append-only write-ahead log.
///
/// The store layers append before applying; replay reconstructs a
/// [`TableStore`] after a simulated crash.
///
/// ```
/// use dedisys_store::{TableStore, WriteAheadLog};
///
/// let mut wal = WriteAheadLog::new();
/// wal.append_put("t", "k", "v");
/// wal.append_delete("t", "missing");
///
/// let mut recovered = TableStore::new();
/// wal.replay_into(&mut recovered);
/// assert_eq!(recovered.get("t", "k"), Some("v"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteAheadLog {
    entries: Vec<LogEntry>,
    next_seq: u64,
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a put operation, returning its sequence number. Passing
    /// `Arc<str>`s shares key and record with the caller (no copy);
    /// `&str`/`String` are copied into a fresh allocation once.
    pub fn append_put(
        &mut self,
        table: &'static str,
        key: impl Into<Arc<str>>,
        record: impl Into<Arc<str>>,
    ) -> u64 {
        let record = record.into();
        self.append(table, key.into(), LogOp::Put { record })
    }

    /// Appends a delete operation, returning its sequence number.
    pub fn append_delete(&mut self, table: &'static str, key: impl Into<Arc<str>>) -> u64 {
        self.append(table, key.into(), LogOp::Delete)
    }

    fn append(&mut self, table: &'static str, key: Arc<str>, op: LogOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let checksum = entry_checksum(seq, table, &key, &op);
        self.entries.push(LogEntry {
            seq,
            table,
            key,
            op,
            checksum,
        });
        seq
    }

    /// All entries in append order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the whole log into `store`.
    pub fn replay_into(&self, store: &mut TableStore) {
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

    /// Drops the torn tail: everything from the first entry whose
    /// checksum fails onwards (an interrupted write means nothing after
    /// it reached disk in order). Returns the number of entries
    /// dropped. A fully intact log is untouched.
    pub fn truncate_torn_tail(&mut self) -> u64 {
        let intact_prefix = self
            .entries
            .iter()
            .position(|e| !e.is_intact())
            .unwrap_or(self.entries.len());
        let dropped = self.entries.len() - intact_prefix;
        self.entries.truncate(intact_prefix);
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = entry_checksum(0, "ab", "c", &LogOp::Delete);
        let b = entry_checksum(0, "a", "bc", &LogOp::Delete);
        assert_ne!(a, b);
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
