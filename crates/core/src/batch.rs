//! The deterministic batch-validation engine.
//!
//! Constraint validation dominates the invocation hot path (Chapter 2
//! measures up to 405× for interpretive checks), and every commit or
//! reconciliation walks a *batch* of candidates — constraint ×
//! object-group pairs. This module evaluates such batches on a pool of
//! scoped worker threads while keeping every observable output —
//! `StatsSnapshot`, threat records, the JSONL telemetry trace —
//! **byte-identical** to serial execution:
//!
//! * workers run only the pure evaluation phase
//!   ([`crate::ccm::evaluate_candidate`]): no telemetry, no clock, no
//!   CCM state;
//! * the merge phase ([`Ccm::finish_validation`][crate::Ccm] +
//!   verdict processing) runs serially, in the canonical candidate
//!   order of the batch;
//! * the shard/lane layout recorded in `validation_batch` trace events
//!   is a function of the batch size alone — the physical thread count
//!   never enters the trace.
//!
//! Determinism is the contract the chaos engine and the `repro`
//! reproducibility harness both depend on; `repro fig-par` diffs a
//! serial against a parallel same-seed trace to enforce it.

use crate::ccm::{
    evaluate_candidate, PartitionEnv, RawEvaluation, ReplicaAccess, ValidationCandidate,
};
use dedisys_constraints::ConstraintEngine;
use dedisys_net::Topology;
use dedisys_object::EntityContainer;
use dedisys_replication::ReplicationManager;
use dedisys_types::{NodeId, TxId};

/// How validation batches are evaluated
/// (`ClusterConfig::validation.parallelism`).
///
/// The setting changes wall-clock time only: virtual time, statistics
/// and the telemetry trace are identical across all variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationParallelism {
    /// Evaluate candidates one after another on the calling thread.
    #[default]
    Serial,
    /// Evaluate the canonical shards of a batch on up to `n` scoped
    /// worker threads (`Threads(0)` and `Threads(1)` behave like
    /// [`ValidationParallelism::Serial`]).
    Threads(usize),
}

impl ValidationParallelism {
    /// Upper bound on concurrently evaluating worker threads.
    pub(crate) fn workers(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Threads(n) => n.max(1),
        }
    }
}

/// Canonical candidates per work unit. Small enough to spread a
/// commit-sized batch over a pool, large enough to amortize the
/// per-shard bookkeeping.
pub(crate) const SHARD_SIZE: usize = 8;

/// Canonical work-unit count of a batch — a pure function of the
/// batch size, deliberately independent of the configured thread
/// count, so `validation_batch` trace events are identical across
/// [`ValidationParallelism`] settings.
pub(crate) fn shard_count(candidates: usize) -> u32 {
    candidates.div_ceil(SHARD_SIZE) as u32
}

/// Evaluates `candidates` and returns one [`RawEvaluation`] per
/// candidate, in candidate order.
///
/// Under [`ValidationParallelism::Threads`] the canonical shards are
/// assigned round-robin to scoped worker threads; each worker builds
/// its own [`ReplicaAccess`] over the shared containers and runs the
/// pure evaluation phase only. Results are stitched back by index, so
/// the output is identical to the serial path by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_batch(
    candidates: &[ValidationCandidate<'_>],
    containers: &[EntityContainer],
    replication: &ReplicationManager,
    topology: &Topology,
    node: NodeId,
    tx: TxId,
    env: PartitionEnv,
    engine: ConstraintEngine,
    parallelism: ValidationParallelism,
) -> Vec<RawEvaluation> {
    let eval_one = |candidate: &ValidationCandidate<'_>| {
        let mut access = ReplicaAccess::new(containers, replication, topology, node, tx);
        evaluate_candidate(candidate, &mut access, env, engine)
    };
    let shards = shard_count(candidates.len()) as usize;
    let workers = parallelism.workers().min(shards);
    if workers <= 1 {
        return candidates.iter().map(eval_one).collect();
    }
    let mut results: Vec<Option<RawEvaluation>> = Vec::new();
    results.resize_with(candidates.len(), || None);
    // Static round-robin shard assignment: worker `w` takes shards
    // `w`, `w + workers`, `w + 2·workers`, … — no work stealing, no
    // scheduler-dependent behavior.
    let mut lanes: Vec<Vec<(&[ValidationCandidate<'_>], &mut [Option<RawEvaluation>])>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, shard) in candidates
        .chunks(SHARD_SIZE)
        .zip(results.chunks_mut(SHARD_SIZE))
        .enumerate()
    {
        lanes[i % workers].push(shard);
    }
    std::thread::scope(|scope| {
        let eval_one = &eval_one;
        for lane in lanes {
            scope.spawn(move || {
                for (shard, out) in lane {
                    for (candidate, slot) in shard.iter().zip(out.iter_mut()) {
                        *slot = Some(eval_one(candidate));
                    }
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every shard slot is filled by exactly one worker"))
        .collect()
}

// The scoped workers share the evaluation environment by reference
// and send evaluations back by slot; pin those bounds here so a
// regression surfaces at the definition, not inside `thread::scope`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<ValidationCandidate<'_>>();
    assert_send_sync::<EntityContainer>();
    assert_send_sync::<ReplicationManager>();
    assert_send_sync::<Topology>();
    assert_send::<RawEvaluation>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_layout_is_a_function_of_size_alone() {
        assert_eq!(shard_count(0), 0);
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(SHARD_SIZE), 1);
        assert_eq!(shard_count(SHARD_SIZE + 1), 2);
        assert_eq!(shard_count(10 * SHARD_SIZE), 10);
    }

    #[test]
    fn worker_counts_clamp_to_serial() {
        assert_eq!(ValidationParallelism::Serial.workers(), 1);
        assert_eq!(ValidationParallelism::Threads(0).workers(), 1);
        assert_eq!(ValidationParallelism::Threads(8).workers(), 8);
    }
}
