//! `fed_write`, `fed_read` and `fed_write_traced`: a 4 × 3 federation
//! with 40 000 accounts, driven through `FederatedCluster::submit` and
//! `step` — route, admission, session, interception, validation,
//! locks, container, WAL, replica ships.

use crate::app::{bank_federation, check_quiescent, check_replicas};
use crate::harness::rng::SplitMix64;
use crate::harness::Fnv1a;
use crate::workload::{Counters, SharedRecorder, Workload};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_telemetry::JsonlExporter;
use dedisys_types::{ObjectId, PriorityClass, Value};
use std::cell::Cell;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shards in the federation.
pub const SHARDS: u32 = 4;
/// Nodes per shard.
pub const NODES: u32 = 3;
/// Accounts, spread over the shards by the consistent-hash ring.
pub const ACCOUNTS: usize = 40_000;
/// Largest balance written.
const MAX_BALANCE: i64 = 1_000_000;

/// A writer that counts the bytes it is given and keeps none.
struct ByteCounter(Arc<AtomicU64>);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Relaxed: a statistic read after the run, on the same thread.
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a request closure reports back to the generator.
#[derive(Default)]
struct Reply {
    /// The transaction committed.
    committed: Cell<bool>,
    /// The balance a read saw.
    read: Cell<Option<i64>>,
}

/// The federation under load and its sequential model.
pub struct Fed {
    fed: FederatedCluster,
    ids: Rc<[ObjectId]>,
    /// The balance every replica of account `k` must hold.
    model: Vec<i64>,
    rng: SplitMix64,
    /// Reads per hundred operations.
    read_pct: u64,
    rec: SharedRecorder,
    reply: Rc<Reply>,
    /// Bytes written by the JSONL exporters, when attached.
    exported: Option<Arc<AtomicU64>>,
    /// Requests submitted so far (each is one admitted request and one
    /// committed transaction).
    submitted: u64,
    /// Totals right after population.
    after_setup: Counters,
}

impl Fed {
    fn build(seed: u64, rec: &SharedRecorder, read_pct: u64, export: bool) -> Result<Self, String> {
        let (fed, ids) = bank_federation(SHARDS, NODES, ACCOUNTS).map_err(|e| e.to_string())?;
        let exported = export.then(|| {
            let bytes = Arc::new(AtomicU64::new(0));
            let sink = || Box::new(JsonlExporter::new(Box::new(ByteCounter(bytes.clone()))));
            fed.telemetry().attach(sink());
            for shard in 0..SHARDS {
                fed.shard(ShardId(shard)).telemetry().attach(sink());
            }
            bytes
        });
        let mut this = Self {
            fed,
            ids,
            model: vec![0; ACCOUNTS],
            rng: SplitMix64::new(seed),
            read_pct,
            rec: rec.clone(),
            reply: Rc::new(Reply::default()),
            exported,
            submitted: 0,
            after_setup: Counters::default(),
        };
        this.after_setup = this.counters();
        Ok(this)
    }

    /// Submits one request for account `k` and steps the federation to
    /// idle. `write` is the balance to set, or `None` to read it.
    fn request(&mut self, k: usize, write: Option<i64>) -> bool {
        let (ids, rec, reply) = (self.ids.clone(), self.rec.clone(), self.reply.clone());
        reply.committed.set(false);
        reply.read.set(None);
        let span = self.rec.borrow_mut().enter("federation.submit");
        let admitted = self
            .fed
            .submit(&self.ids[k], PriorityClass::Normal, move |mut session| {
                let span = rec.borrow_mut().enter("session.invoke");
                let invoked = match write {
                    Some(balance) => session.set_field(&ids[k], "balance", Value::Int(balance)),
                    None => session
                        .get_field(&ids[k], "balance")
                        .map(|v| reply.read.set(v.as_int())),
                };
                rec.borrow_mut().exit(span);
                invoked?;
                let span = rec.borrow_mut().enter("session.commit");
                let committed = session.commit();
                rec.borrow_mut().exit(span);
                reply.committed.set(committed.is_ok());
                committed
            });
        self.rec.borrow_mut().exit(span);
        self.submitted += 1;
        let span = self.rec.borrow_mut().enter("federation.step");
        while self.fed.step() {}
        self.rec.borrow_mut().exit(span);
        admitted.is_ok() && self.reply.committed.get()
    }
}

impl Workload for Fed {
    fn op(&mut self, _i: u64) -> bool {
        let k = self.rng.below(ACCOUNTS as u64) as usize;
        if self.rng.below(100) < self.read_pct {
            self.request(k, None) && self.reply.read.get() == Some(self.model[k])
        } else {
            let balance = self.rng.between(0, MAX_BALANCE);
            let ok = self.request(k, Some(balance));
            if ok {
                self.model[k] = balance;
            }
            ok
        }
    }

    fn counters(&self) -> Counters {
        let mut total = Counters::of_federation(&self.fed);
        total.telemetry_bytes = self
            .exported
            .as_ref()
            .map_or(0, |bytes| bytes.load(Ordering::Relaxed));
        total
    }

    fn verify(&self) -> Result<u64, String> {
        let mut digest = Fnv1a::default();
        for (k, id) in self.ids.iter().enumerate() {
            let shard = self.fed.shard(self.fed.map().shard_of(id));
            check_replicas(shard, id, "balance", self.model[k], &mut digest)?;
        }
        for shard in (0..SHARDS).map(ShardId) {
            check_quiescent(self.fed.shard(shard)).map_err(|e| format!("{shard}: {e}"))?;
        }
        let totals = self.counters();
        if totals.plane_lost != 0 {
            return Err(format!(
                "request planes rejected, shed, expired or failed {} requests",
                totals.plane_lost
            ));
        }
        if totals.plane_admitted != self.submitted || self.fed.stats().routed != self.submitted {
            return Err(format!(
                "{} requests submitted, {} routed, {} admitted",
                self.submitted,
                self.fed.stats().routed,
                totals.plane_admitted
            ));
        }
        let commits = totals.commits - self.after_setup.commits;
        let rollbacks = totals.rollbacks - self.after_setup.rollbacks;
        if commits != self.submitted || rollbacks != 0 {
            return Err(format!(
                "{} requests, but {commits} commits and {rollbacks} rollbacks",
                self.submitted
            ));
        }
        digest.write_u64(totals.virt_ns);
        Ok(digest.finish())
    }
}

/// `fed_write`: every operation sets a balance.
pub fn build_write(seed: u64, rec: &SharedRecorder) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Fed::build(seed, rec, 0, false)?))
}

/// `fed_read`: 95 % reads, 5 % the `fed_write` operation.
pub fn build_read(seed: u64, rec: &SharedRecorder) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Fed::build(seed, rec, 95, false)?))
}

/// `fed_write_traced`: `fed_write` with a JSONL exporter over a
/// byte-counting null writer on the federation bus and every shard bus.
pub fn build_write_traced(seed: u64, rec: &SharedRecorder) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Fed::build(seed, rec, 0, true)?))
}
