//! JSONL export: one JSON line per [`TraceRecord`].
//!
//! The export is a pure function of the record stream — no wall-clock
//! timestamps, no host names, no map with nondeterministic order — so
//! two identically-seeded runs write byte-identical files.
//!
//! Every record is encoded into the one line buffer the exporter keeps
//! and handed to the buffered writer in one `write_all`; a record costs
//! no allocation of the exporter's own.
//!
//! A trace with a hole is worse than one that ends: the first IO error
//! stops the export (later records are not written, and what the
//! buffer still held is dropped), is kept, and is reported once on
//! stderr by the next [`TraceSink::flush`] — or the drop, whichever
//! comes first.

use crate::bus::TraceSink;
use crate::event::TraceRecord;
use serde::Serialize;
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex, PoisonError};

/// An in-memory byte buffer every clone appends to: the `Write` to hand
/// a [`JsonlExporter`] when the trace is read back in the same process,
/// after the exporter (and its buffered writer) is dropped.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A copy of every byte written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`TraceSink`] writing one JSON object per line.
pub struct JsonlExporter {
    /// `None` once a write has failed.
    out: Option<BufWriter<Box<dyn Write + Send>>>,
    /// The line being written, reused from record to record.
    line: String,
    /// Records handed to the writer.
    records: u64,
    /// The first IO error, until it has been reported.
    error: Option<io::Error>,
}

impl std::fmt::Debug for JsonlExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlExporter").finish_non_exhaustive()
    }
}

impl JsonlExporter {
    /// Wraps any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            out: Some(BufWriter::new(writer)),
            line: String::new(),
            records: 0,
            error: None,
        }
    }

    /// Stops the export at its first IO error.
    fn fail(&mut self, error: io::Error) {
        self.error = Some(error);
        if let Some(out) = self.out.take() {
            // Not dropped as a `BufWriter`: that would offer the writer
            // the buffered remainder once more.
            let _ = out.into_parts();
        }
    }

    /// The report of the IO error that stopped the export — once.
    fn take_report(&mut self) -> Option<String> {
        let error = self.error.take()?;
        Some(format!(
            "trace export failed after {} records: {error}",
            self.records
        ))
    }
}

impl TraceSink for JsonlExporter {
    fn record(&mut self, record: &TraceRecord) {
        let Some(out) = &mut self.out else {
            return;
        };
        self.line.clear();
        record.serialize_json(&mut self.line);
        self.line.push('\n');
        match out.write_all(self.line.as_bytes()) {
            Ok(()) => self.records += 1,
            Err(error) => self.fail(error),
        }
    }

    fn flush(&mut self) {
        if let Some(Err(error)) = self.out.as_mut().map(Write::flush) {
            self.fail(error);
        }
        if let Some(report) = self.take_report() {
            // Not `eprintln!`: this runs in `drop`, which must not panic.
            let _ = writeln!(io::stderr(), "{report}");
        }
    }
}

impl Drop for JsonlExporter {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostBreakdown, InvocationOutcome, ThreatStorage, TraceEvent, TraceRecord};
    use dedisys_types::{
        ConstraintName, MethodName, NodeId, ObjectId, SatisfactionDegree, SharedText, SimTime,
        SystemMode, TxId,
    };

    #[test]
    fn writes_one_line_per_record() {
        let buf = SharedBuf::default();
        let mut exporter = JsonlExporter::new(Box::new(buf.clone()));
        for seq in 0..3u64 {
            exporter.record(&TraceRecord {
                seq,
                at: SimTime::from_nanos(seq * 10),
                event: TraceEvent::TxBegin {
                    tx: TxId::new(NodeId(0), seq),
                },
            });
        }
        exporter.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert_eq!(text.lines().count(), 3);
        for (seq, line) in (0u64..).zip(text.lines()) {
            assert!(line.contains("\"kind\":\"tx_begin\""), "{line}");
            let record: TraceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(record.seq, seq);
        }
    }
    /// What a build of the parent commit (0fff804), whose events held
    /// these fields as owned `String`s, exported for the records of
    /// [`records_naming_identities`] — one line per variant whose field
    /// types changed (both arms of the optional ones).
    const PARENT_LINES: [&str; 16] = [
        r#"{"seq":0,"at":0,"event":{"kind":"invocation_start","node":1,"tx":{"node":1,"seq":7},"target":"Fl\"ight#LH-\\441\n\u0001","method":"set\"Seats"}}"#,
        r#"{"seq":1,"at":10,"event":{"kind":"invocation_end","node":1,"tx":{"node":1,"seq":7},"target":"Fl\"ight#LH-\\441\n\u0001","method":"set\"Seats","outcome":"ok","cost":{"r1_application_ns":1,"r2_interception_ns":2,"r3_preparation_ns":3,"r4_repository_ns":4,"r5_checks_ns":5}}}"#,
        r#"{"seq":2,"at":20,"event":{"kind":"constraint_validated","constraint":"seats\"\\\n\u001fé","degree":"PossiblySatisfied","accessed":2}}"#,
        r#"{"seq":3,"at":30,"event":{"kind":"threat_recorded","constraint":"seats\"\\\n\u001fé","context":"Fl\"ight#LH-\\441\n\u0001","degree":"PossiblyViolated","storage":"stored"}}"#,
        r#"{"seq":4,"at":40,"event":{"kind":"threat_recorded","constraint":"seats\"\\\n\u001fé","context":null,"degree":"PossiblyViolated","storage":"deduplicated"}}"#,
        r#"{"seq":5,"at":50,"event":{"kind":"threat_rejected","constraint":"seats\"\\\n\u001fé","degree":"Violated"}}"#,
        r#"{"seq":6,"at":60,"event":{"kind":"replication_update","object":"Fl\"ight#LH-\\441\n\u0001","from":0,"recipients":2,"messages":4,"degraded":false}}"#,
        r#"{"seq":7,"at":70,"event":{"kind":"staleness_hit","object":"Fl\"ight#LH-\\441\n\u0001","node":2}}"#,
        r#"{"seq":8,"at":80,"event":{"kind":"constraint_compiled","constraint":"seats\"\\\n\u001fé","ops":9,"reads":3}}"#,
        r#"{"seq":9,"at":90,"event":{"kind":"verdict_cache_hit","constraint":"seats\"\\\n\u001fé","object":"Fl\"ight#LH-\\441\n\u0001"}}"#,
        r#"{"seq":10,"at":100,"event":{"kind":"verdict_cache_miss","constraint":"seats\"\\\n\u001fé","object":"Fl\"ight#LH-\\441\n\u0001"}}"#,
        r#"{"seq":11,"at":110,"event":{"kind":"verdict_cache_invalidate","object":"Fl\"ight#LH-\\441\n\u0001","entries":3}}"#,
        r#"{"seq":12,"at":120,"event":{"kind":"verdict_cache_invalidate","object":"*","entries":5}}"#,
        r#"{"seq":13,"at":130,"event":{"kind":"replica_ship_retry","object":"Fl\"ight#LH-\\441\n\u0001","backup":2,"attempts":3,"backoff_units":7,"succeeded":true}}"#,
        r#"{"seq":14,"at":140,"event":{"kind":"shard_routed","object":"Fl\"ight#LH-\\441\n\u0001","shard":1,"mode":"Degraded","admitted":false}}"#,
        r#"{"seq":15,"at":150,"event":{"kind":"shard_migrated","object":"Fl\"ight#LH-\\441\n\u0001","from":0,"to":2,"replicas":3}}"#,
    ];

    /// Every variant that names an identity, built from live handles
    /// whose texts hold a quote, a backslash, a newline, a control
    /// character and a non-ASCII letter.
    fn records_naming_identities() -> Vec<TraceRecord> {
        let id = ObjectId::new("Fl\"ight", "LH-\\441\n\u{1}");
        let object = || SharedText::from(id.text());
        let name = ConstraintName::from("seats\"\\\n\u{1f}é");
        let constraint = || SharedText::from(name.text());
        let method = MethodName::from("set\"Seats");
        let (node, tx) = (NodeId(1), TxId::new(NodeId(1), 7));
        let events = vec![
            TraceEvent::InvocationStart {
                node,
                tx,
                target: object(),
                method: method.text().into(),
            },
            TraceEvent::InvocationEnd {
                node,
                tx,
                target: object(),
                method: method.text().into(),
                outcome: InvocationOutcome::Ok,
                cost: CostBreakdown {
                    r1_application_ns: 1,
                    r2_interception_ns: 2,
                    r3_preparation_ns: 3,
                    r4_repository_ns: 4,
                    r5_checks_ns: 5,
                },
            },
            TraceEvent::ConstraintValidated {
                constraint: constraint(),
                degree: SatisfactionDegree::PossiblySatisfied,
                accessed: 2,
            },
            TraceEvent::ThreatRecorded {
                constraint: constraint(),
                context: Some(object()),
                degree: SatisfactionDegree::PossiblyViolated,
                storage: ThreatStorage::Stored,
            },
            TraceEvent::ThreatRecorded {
                constraint: constraint(),
                context: None,
                degree: SatisfactionDegree::PossiblyViolated,
                storage: ThreatStorage::Deduplicated,
            },
            TraceEvent::ThreatRejected {
                constraint: constraint(),
                degree: SatisfactionDegree::Violated,
            },
            TraceEvent::ReplicationUpdate {
                object: object(),
                from: NodeId(0),
                recipients: 2,
                messages: 4,
                degraded: false,
            },
            TraceEvent::StalenessHit {
                object: object(),
                node: NodeId(2),
            },
            TraceEvent::ConstraintCompiled {
                constraint: constraint(),
                ops: 9,
                reads: 3,
            },
            TraceEvent::VerdictCacheHit {
                constraint: constraint(),
                object: object(),
            },
            TraceEvent::VerdictCacheMiss {
                constraint: constraint(),
                object: object(),
            },
            TraceEvent::VerdictCacheInvalidate {
                object: object(),
                entries: 3,
            },
            TraceEvent::VerdictCacheInvalidate {
                object: "*".into(),
                entries: 5,
            },
            TraceEvent::ReplicaShipRetry {
                object: object(),
                backup: NodeId(2),
                attempts: 3,
                backoff_units: 7,
                succeeded: true,
            },
            TraceEvent::ShardRouted {
                object: object(),
                shard: 1,
                mode: SystemMode::Degraded,
                admitted: false,
            },
            TraceEvent::ShardMigrated {
                object: object(),
                from: 0,
                to: 2,
                replicas: 3,
            },
        ];
        (0u64..)
            .zip(events)
            .map(|(seq, event)| TraceRecord {
                seq,
                at: SimTime::from_nanos(seq * 10),
                event,
            })
            .collect()
    }

    #[test]
    fn exported_bytes_are_those_of_the_owned_string_fields() {
        let records = records_naming_identities();
        let buf = SharedBuf::default();
        let mut exporter = JsonlExporter::new(Box::new(buf.clone()));
        for record in &records {
            exporter.record(record);
        }
        exporter.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, PARENT_LINES);
        assert!(text.ends_with('\n'));
        for (line, record) in PARENT_LINES.iter().zip(&records) {
            let back: TraceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(&back, record, "{line}");
        }
    }

    /// Accepts `budget` bytes, then fails every write.
    struct FailsAfter {
        budget: usize,
        accepted: Arc<Mutex<Vec<u8>>>,
        refused: Arc<Mutex<u32>>,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                *self.refused.lock().unwrap() += 1;
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.accepted.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn first_io_error_stops_the_export_and_is_reported_once() {
        let begin = |seq| TraceRecord {
            seq,
            at: SimTime::from_nanos(seq),
            event: TraceEvent::TxBegin {
                tx: TxId::new(NodeId(0), seq),
            },
        };
        let mut expected = String::new();
        for seq in 0..400 {
            begin(seq).serialize_json(&mut expected);
            expected.push('\n');
        }
        const BUDGET: usize = 1000;
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let refused = Arc::new(Mutex::new(0));
        let mut exporter = JsonlExporter::new(Box::new(FailsAfter {
            budget: BUDGET,
            accepted: Arc::clone(&accepted),
            refused: Arc::clone(&refused),
        }));
        // Enough to overflow the buffer once: the writer takes its
        // budget and refuses the rest.
        for seq in 0..200 {
            exporter.record(&begin(seq));
        }
        assert_eq!(*refused.lock().unwrap(), 1, "the buffer was written out");
        let written = exporter.records;
        assert!(
            written < 200,
            "the record that met the error is not counted"
        );
        for seq in 200..400 {
            exporter.record(&begin(seq));
        }
        assert_eq!(exporter.records, written);
        // Taken here so that `flush` and the drop, which would print
        // it, find it gone: the report is made once.
        assert_eq!(
            exporter.take_report(),
            Some(format!(
                "trace export failed after {written} records: disk full"
            ))
        );
        exporter.flush();
        assert!(exporter.take_report().is_none());
        drop(exporter);
        assert_eq!(
            *refused.lock().unwrap(),
            1,
            "nothing is offered to a writer that has failed"
        );
        assert_eq!(*accepted.lock().unwrap(), expected.as_bytes()[..BUDGET]);
    }

    #[test]
    fn an_error_met_at_flush_time_is_kept_too() {
        let mut exporter = JsonlExporter::new(Box::new(FailsAfter {
            budget: 0,
            accepted: Arc::default(),
            refused: Arc::default(),
        }));
        exporter.record(&TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            event: TraceEvent::TxBegin {
                tx: TxId::new(NodeId(0), 0),
            },
        });
        assert!(exporter.take_report().is_none(), "still buffered");
        // What `flush` does, short of printing.
        if let Some(Err(error)) = exporter.out.as_mut().map(Write::flush) {
            exporter.fail(error);
        }
        assert!(exporter.out.is_none(), "nothing more is written");
        assert_eq!(
            exporter.take_report().as_deref(),
            Some("trace export failed after 1 records: disk full")
        );
    }
}
