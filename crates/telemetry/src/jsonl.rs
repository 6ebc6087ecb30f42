//! JSONL export: one `serde_json` line per [`TraceRecord`].
//!
//! The export is a pure function of the record stream — no wall-clock
//! timestamps, no host names, no map with nondeterministic order — so
//! two identically-seeded runs write byte-identical files.

use crate::bus::TraceSink;
use crate::event::TraceRecord;
use std::io::{BufWriter, Write};

/// A [`TraceSink`] writing one JSON object per line.
pub struct JsonlExporter {
    out: BufWriter<Box<dyn Write + Send>>,
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
            out: BufWriter::new(writer),
        }
    }
}

impl TraceSink for JsonlExporter {
    fn record(&mut self, record: &TraceRecord) {
        // Struct serialization cannot fail; IO errors on the buffered
        // writer surface at flush time.
        if let Ok(line) = serde_json::to_string(record) {
            let _ = self.out.write_all(line.as_bytes());
            let _ = self.out.write_all(b"\n");
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlExporter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use dedisys_types::{NodeId, SimTime, TxId};
    use std::io;
    use std::sync::{Arc, Mutex};

    /// Shared-buffer writer for asserting on exported bytes.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_one_line_per_record() {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
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
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        for (seq, line) in (0u64..).zip(text.lines()) {
            assert!(line.contains("\"kind\":\"tx_begin\""), "{line}");
            let record: TraceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(record.seq, seq);
        }
    }
}
