//! Parameterized workloads for the Chapter 5 throughput studies.

use dedisys_core::Cluster;
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState, MethodDescriptor, MethodKind};
use dedisys_types::{ChaosRng, NodeId, ObjectId, Result, SimDuration, Value};

/// The benchmark entity of the DedisysTest application (§5.1): one
/// string attribute plus empty methods with/without constraints.
pub fn bench_app() -> AppDescriptor {
    AppDescriptor::new("dedisys-test").with_class(
        ClassDescriptor::new("Item")
            .with_field("value", Value::from(""))
            .with_method(MethodDescriptor::with_kind(
                "emptyMethod",
                MethodKind::Write,
            ))
            .with_method(MethodDescriptor::with_kind(
                "emptyConstrained",
                MethodKind::Write,
            ))
            .with_method(MethodDescriptor::with_kind(
                "emptyThreatened",
                MethodKind::Write,
            )),
    )
}

/// Creates `count` items through individual transactions; returns
/// their ids.
///
/// # Errors
///
/// Propagates transaction failures.
pub fn create_items(cluster: &mut Cluster, node: NodeId, count: usize) -> Result<Vec<ObjectId>> {
    let mut ids = Vec::with_capacity(count);
    for i in 0..count {
        let id = ObjectId::new("Item", format!("I-{i}"));
        let entity_id = id.clone();
        cluster.run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &entity_id)?)
        })?;
        ids.push(id);
    }
    Ok(ids)
}

/// One operation kind of the §5.1 measurement mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchOp {
    /// Create a fresh entity.
    Create,
    /// `setValue("…")`.
    Setter,
    /// `getValue()`.
    Getter,
    /// An empty method without constraints.
    Empty,
    /// An empty method with an (always satisfied/violated) constraint.
    EmptyConstrained,
    /// Delete the entity.
    Delete,
}

/// Throughput outcome of a timed batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Operations completed successfully.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Virtual time consumed.
    pub elapsed: SimDuration,
}

impl Throughput {
    /// Successful operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `count` repetitions of `op` against the item pool, one
/// transaction per operation (the §5.1 measurement discipline),
/// measuring virtual time.
pub fn run_batch(
    cluster: &mut Cluster,
    node: NodeId,
    op: BenchOp,
    items: &[ObjectId],
    count: usize,
) -> Throughput {
    let start = cluster.now();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for i in 0..count {
        let result: Result<()> = match op {
            BenchOp::Create => {
                let id = ObjectId::new("Item", format!("C-{}-{i}", start.as_nanos()));
                cluster.run_tx(node, move |c, tx| {
                    c.create(node, tx, EntityState::for_class(c.app(), &id)?)
                })
            }
            BenchOp::Setter => {
                let id = items[i % items.len()].clone();
                cluster.run_tx(node, move |c, tx| {
                    c.set_field(node, tx, &id, "value", Value::from("x"))
                })
            }
            BenchOp::Getter => {
                let id = items[i % items.len()].clone();
                cluster
                    .run_tx(node, move |c, tx| c.get_field(node, tx, &id, "value"))
                    .map(|_| ())
            }
            BenchOp::Empty => {
                let id = items[i % items.len()].clone();
                cluster
                    .run_tx(node, move |c, tx| {
                        c.invoke(node, tx, &id, "emptyMethod", vec![])
                    })
                    .map(|_| ())
            }
            BenchOp::EmptyConstrained => {
                let id = items[i % items.len()].clone();
                cluster
                    .run_tx(node, move |c, tx| {
                        c.invoke(node, tx, &id, "emptyConstrained", vec![])
                    })
                    .map(|_| ())
            }
            BenchOp::Delete => {
                let id = items[i % items.len()].clone();
                cluster.run_tx(node, move |c, tx| c.delete(node, tx, &id))
            }
        };
        match result {
            Ok(()) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    Throughput {
        ops: ok,
        failed,
        elapsed: cluster.now().since(start),
    }
}

/// A read/write mix driven across the item pool with a seeded RNG —
/// used for the "read-to-write ratio" sensitivity analyses.
pub fn run_mixed(
    cluster: &mut Cluster,
    node: NodeId,
    items: &[ObjectId],
    total_ops: usize,
    write_fraction: f64,
    seed: u64,
) -> Throughput {
    let mut rng = ChaosRng::new(seed);
    let start = cluster.now();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for _ in 0..total_ops {
        let id = rng.pick(items).clone();
        // 53 random bits: a uniform draw in [0, 1).
        let write = ((rng.next_u64() >> 11) as f64) < write_fraction * (1u64 << 53) as f64;
        let result: Result<()> = if write {
            cluster.run_tx(node, move |c, tx| {
                c.set_field(node, tx, &id, "value", Value::from("w"))
            })
        } else {
            cluster
                .run_tx(node, move |c, tx| c.get_field(node, tx, &id, "value"))
                .map(|_| ())
        };
        match result {
            Ok(()) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    Throughput {
        ops: ok,
        failed,
        elapsed: cluster.now().since(start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_core::ClusterBuilder;

    fn cluster(nodes: u32) -> Cluster {
        ClusterBuilder::new(nodes, bench_app()).build().unwrap()
    }

    #[test]
    fn batches_measure_virtual_time() {
        let mut c = cluster(1);
        let items = create_items(&mut c, NodeId(0), 5).unwrap();
        let t = run_batch(&mut c, NodeId(0), BenchOp::Setter, &items, 20);
        assert_eq!(t.ops, 20);
        assert!(t.ops_per_sec() > 0.0);
    }

    #[test]
    fn getters_are_faster_than_setters() {
        let mut c = cluster(2);
        let items = create_items(&mut c, NodeId(0), 5).unwrap();
        let set = run_batch(&mut c, NodeId(0), BenchOp::Setter, &items, 50);
        let get = run_batch(&mut c, NodeId(0), BenchOp::Getter, &items, 50);
        assert!(
            get.ops_per_sec() > set.ops_per_sec() * 2.0,
            "get {} vs set {}",
            get.ops_per_sec(),
            set.ops_per_sec()
        );
    }

    #[test]
    fn mixed_workload_is_deterministic_per_seed() {
        let mut c1 = cluster(1);
        let items1 = create_items(&mut c1, NodeId(0), 10).unwrap();
        let t1 = run_mixed(&mut c1, NodeId(0), &items1, 100, 0.3, 42);
        let mut c2 = cluster(1);
        let items2 = create_items(&mut c2, NodeId(0), 10).unwrap();
        let t2 = run_mixed(&mut c2, NodeId(0), &items2, 100, 0.3, 42);
        assert_eq!(t1, t2);
    }
}
