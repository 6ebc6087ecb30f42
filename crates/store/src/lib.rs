//! # dedisys-store
//!
//! Persistence substrate — the MySQL replacement.
//!
//! The original prototype persisted entity-bean state, replica metadata,
//! intermediate replica states (the degraded-mode history enabling
//! rollback during reconciliation) and accepted consistency threats in
//! MySQL. What the middleware uses of that today is one building block:
//!
//! * [`WriteAheadLog`] — a per-entry checksummed log that compacts
//!   itself to the newest put of each key, so it holds live state, not
//!   history. Each node's entity journal (`dedisys-object`) and the
//!   threat store's journal (`dedisys-core`) are one; both rebuild their
//!   memory from its one survivors walk ([`WriteAheadLog::survivors`]),
//!   decoding only the last record of each key. The degraded-mode
//!   history is not kept here: it is the shipped snapshots themselves,
//!   in `dedisys-replication`.
//!
//! Two more have no product caller left and stay only because the
//! per-layer probes of the `perf/` benchmark still build them; they go
//! with ROADMAP item 3(c):
//!
//! * [`TableStore`] — an in-memory multi-table key/value store holding
//!   serialized records.
//! * [`Persistence`] — a store bound to a [`SimClock`](dedisys_net::SimClock) and
//!   [`StoreCosts`], so every database access advances virtual time the
//!   way MySQL round trips consumed wall-clock time in the paper's
//!   measurements.
//!
//! ## Example
//!
//! ```
//! use dedisys_store::TableStore;
//!
//! let mut store = TableStore::new();
//! store.put("flights", "LH-441", r#"{"seats":80}"#.to_owned());
//! assert_eq!(store.get("flights", "LH-441").unwrap(), r#"{"seats":80}"#);
//! assert_eq!(store.table_len("flights"), 1);
//! ```

mod kv;
mod log;
mod persistence;

pub use kv::TableStore;
pub use log::{record_digest, LogEntry, LogOp, ReplayReport, Survivors, WriteAheadLog};
pub use persistence::{Persistence, StoreCosts};
