//! The in-memory multi-table store.

use std::collections::BTreeMap;

/// An in-memory, multi-table key/value store of serialized records.
///
/// Tables and keys are strings; records are serialized blobs (the
/// layers above serialize with `serde_json`). Iteration order is
/// deterministic (sorted by key) so simulations are reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStore {
    tables: BTreeMap<String, BTreeMap<String, String>>,
}

impl TableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the record at `(table, key)`, returning the
    /// previous record if any.
    pub fn put(
        &mut self,
        table: impl Into<String>,
        key: impl Into<String>,
        record: String,
    ) -> Option<String> {
        self.tables
            .entry(table.into())
            .or_default()
            .insert(key.into(), record)
    }

    /// Reads the record at `(table, key)`.
    pub fn get(&self, table: &str, key: &str) -> Option<&str> {
        self.tables.get(table)?.get(key).map(String::as_str)
    }

    /// Deletes the record at `(table, key)`, returning it if present.
    pub fn delete(&mut self, table: &str, key: &str) -> Option<String> {
        self.tables.get_mut(table)?.remove(key)
    }

    /// Whether `(table, key)` holds a record.
    pub fn contains(&self, table: &str, key: &str) -> bool {
        self.get(table, key).is_some()
    }

    /// Iterates over `(key, record)` pairs of `table` in key order.
    pub fn scan<'a>(&'a self, table: &str) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    /// Number of records in `table` (zero if absent).
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, BTreeMap::len)
    }

    /// Total number of records across all tables.
    pub fn len(&self) -> usize {
        self.tables.values().map(BTreeMap::len).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let mut s = TableStore::new();
        assert!(s.put("t", "k", "v1".into()).is_none());
        assert_eq!(s.put("t", "k", "v2".into()), Some("v1".into()));
        assert_eq!(s.get("t", "k"), Some("v2"));
        assert_eq!(s.delete("t", "k"), Some("v2".into()));
        assert!(!s.contains("t", "k"));
    }

    #[test]
    fn scan_is_sorted_by_key() {
        let mut s = TableStore::new();
        s.put("t", "b", "2".into());
        s.put("t", "a", "1".into());
        let keys: Vec<&str> = s.scan("t").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn missing_table_behaves_as_empty() {
        let s = TableStore::new();
        assert_eq!(s.get("none", "k"), None);
        assert_eq!(s.table_len("none"), 0);
        assert_eq!(s.scan("none").count(), 0);
    }

    #[test]
    fn len_counts_across_tables() {
        let mut s = TableStore::new();
        s.put("a", "1", "x".into());
        s.put("b", "1", "y".into());
        assert_eq!(s.len(), 2);
        s.delete("a", "1");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
