//! A cost-accounted persistence service.

use crate::{ReplayReport, TableStore, WriteAheadLog};
use dedisys_net::SimClock;
use dedisys_types::SimDuration;

/// Virtual-time costs of database accesses.
///
/// Defaults are calibrated to a commodity 2007-era MySQL over a local
/// connection: writes dominated by fsync/commit, reads mostly cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCosts {
    /// Cost of a write (put/delete).
    pub write: SimDuration,
    /// Cost of a point read.
    pub read: SimDuration,
    /// Cost per row of a scan.
    pub scan_per_row: SimDuration,
}

impl Default for StoreCosts {
    fn default() -> Self {
        Self {
            write: SimDuration::from_millis(3),
            read: SimDuration::from_micros(150),
            scan_per_row: SimDuration::from_micros(30),
        }
    }
}

impl StoreCosts {
    /// Zero-cost configuration for logic-only tests.
    pub fn free() -> Self {
        Self {
            write: SimDuration::ZERO,
            read: SimDuration::ZERO,
            scan_per_row: SimDuration::ZERO,
        }
    }
}

/// A [`TableStore`] + [`WriteAheadLog`] bound to the simulation clock:
/// every access advances virtual time per [`StoreCosts`], mirroring the
/// database round trips that dominated several of the paper's
/// measurements (e.g. threat persistence in Fig 5.2).
#[derive(Debug, Clone)]
pub struct Persistence {
    store: TableStore,
    wal: WriteAheadLog,
    clock: SimClock,
    costs: StoreCosts,
}

impl Persistence {
    /// Creates a persistence service on `clock` with `costs`.
    pub fn new(clock: SimClock, costs: StoreCosts) -> Self {
        Self {
            store: TableStore::new(),
            wal: WriteAheadLog::new(),
            clock,
            costs,
        }
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Writes a record (WAL append + store put).
    pub fn put(&mut self, table: &'static str, key: &str, record: String) {
        self.clock.advance(self.costs.write);
        self.wal.append_put(table, key, record.as_str());
        self.store.put(table, key, record);
    }

    /// Deletes a record.
    pub fn delete(&mut self, table: &'static str, key: &str) -> Option<String> {
        self.clock.advance(self.costs.write);
        self.wal.append_delete(table, key);
        self.store.delete(table, key)
    }

    /// Point read.
    pub fn get(&mut self, table: &str, key: &str) -> Option<String> {
        self.clock.advance(self.costs.read);
        self.store.get(table, key).map(str::to_owned)
    }

    /// Whether a record exists (costs a read).
    pub fn contains(&mut self, table: &str, key: &str) -> bool {
        self.clock.advance(self.costs.read);
        self.store.contains(table, key)
    }

    /// Scans a table, paying per-row cost; returns owned pairs.
    pub fn scan(&mut self, table: &str) -> Vec<(String, String)> {
        let rows: Vec<(String, String)> = self
            .store
            .scan(table)
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        self.clock
            .advance(self.costs.scan_per_row * rows.len() as u64);
        rows
    }

    /// Simulates a crash: drops in-memory state, truncates any torn
    /// tail off the WAL (entries whose per-entry checksum fails, e.g.
    /// a write interrupted by the crash), and replays the intact
    /// prefix. Returns what was replayed and what was dropped.
    pub fn recover_from_wal(&mut self) -> ReplayReport {
        let truncated = self.wal.truncate_torn_tail();
        self.store = TableStore::new();
        self.wal.replay_into(&mut self.store);
        ReplayReport {
            replayed: self.wal.len() as u64,
            truncated,
        }
    }

    /// Fault injection: corrupts the checksum of the last `entries`
    /// WAL entries (a torn write). Returns the number corrupted.
    pub fn corrupt_wal_tail(&mut self, entries: usize) -> usize {
        self.wal.corrupt_tail(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_advance_the_clock() {
        let clock = SimClock::new();
        let mut p = Persistence::new(clock.clone(), StoreCosts::default());
        p.put("t", "k", "v".into());
        let after_write = clock.now();
        assert_eq!(after_write.as_nanos(), 3_000_000);
        p.get("t", "k");
        assert_eq!(clock.now().as_nanos(), 3_150_000);
    }

    #[test]
    fn crash_recovery_replays_wal() {
        let mut p = Persistence::new(SimClock::new(), StoreCosts::free());
        p.put("t", "a", "1".into());
        p.put("t", "b", "2".into());
        p.delete("t", "a");
        let report = p.recover_from_wal();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.truncated, 0);
        assert_eq!(p.store().get("t", "b"), Some("2"));
        assert_eq!(p.store().get("t", "a"), None);
    }

    #[test]
    fn torn_tail_is_dropped_on_recovery() {
        let mut p = Persistence::new(SimClock::new(), StoreCosts::free());
        p.put("t", "a", "1".into());
        p.put("t", "b", "2".into());
        assert_eq!(p.corrupt_wal_tail(1), 1);
        let report = p.recover_from_wal();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.truncated, 1);
        assert_eq!(p.store().get("t", "a"), Some("1"));
        assert_eq!(p.store().get("t", "b"), None, "torn write must not survive");
    }

    #[test]
    fn scan_returns_sorted_rows() {
        let mut p = Persistence::new(SimClock::new(), StoreCosts::free());
        p.put("t", "b", "2".into());
        p.put("t", "a", "1".into());
        let rows = p.scan("t");
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[1].0, "b");
    }
}
