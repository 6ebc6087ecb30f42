//! The CCMgr's observable behaviour, pinned: one short scripted
//! scenario drives every CCMgr path through a [`Cluster`] — a
//! precondition, a postcondition and hard invariants; soft and async
//! invariants at commit, healthy and degraded; immediate and deferred
//! negotiation over the non-tradeable, static (with and without a
//! freshness criterion), dynamic and default paths; verdict-cache miss,
//! hit and invalidation; runtime reconfiguration; partition, heal and a
//! reconciliation that resolves one violation by rollback — under both
//! threat-history policies (identical-once dedupe, full-history link).
//! The JSONL trace's length and FNV-1a and the CCM counters are pinned
//! as literals: a refactor of the CCMgr that moves a byte, a counter or
//! a virtual-time charge moves one of them.

use dedisys_constraints::{
    expr::ExprConstraint, Constraint, ConstraintEngine, ConstraintKind, ConstraintMeta,
    ContextPreparation, FreshnessCriterion, RegisteredConstraint, ValidationContext,
};
use dedisys_core::{
    nodes, Cluster, ClusterBuilder, ConsistencyThreat, HighestVersionWins, HistoryPolicy,
    JsonlExporter, NegotiationTiming, SharedBuf, ThreatDecision, ViolationReport,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    fnv1a, ConstraintName, Error, NodeId, ObjectId, SatisfactionDegree, SimDuration, Value,
    FNV_OFFSET,
};
use std::sync::Arc;

fn app() -> AppDescriptor {
    AppDescriptor::new("ccm-trace").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100))
            .with_field("note", Value::Int(0))
            .with_field("lazy", Value::Int(0))
            .with_field("level", Value::Int(0))
            .with_field("peer", Value::Null),
    )
}

/// A postcondition that snapshots `n` before the call.
struct Step(ExprConstraint);

impl Constraint for Step {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> dedisys_types::Result<bool> {
        self.0.validate(ctx)
    }

    fn validate_with(
        &self,
        engine: ConstraintEngine,
        ctx: &mut ValidationContext<'_>,
    ) -> dedisys_types::Result<bool> {
        self.0.validate_with(engine, ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        if let Ok(n) = ctx.self_field("n") {
            ctx.store_pre("n", n);
        }
    }
}

/// One constraint per CCMgr path, each triggered by its own setter.
fn constraints() -> Vec<RegisteredConstraint> {
    let on = |setter: &str, meta: ConstraintMeta, implementation: Arc<dyn Constraint>| {
        RegisteredConstraint::new(meta, implementation)
            .context_class("Counter")
            .affects("Counter", setter, ContextPreparation::CalledObject)
    };
    let expr = |source: &str| Arc::new(ExprConstraint::parse(source).unwrap());
    vec![
        // Precondition on the argument alone: definite even when degraded.
        on(
            "setN",
            ConstraintMeta::new("NonNegative").kind(ConstraintKind::Precondition),
            expr("arg(0) >= 0"),
        ),
        // Postcondition with an `@pre` snapshot: tolerated when threatened.
        on(
            "setN",
            ConstraintMeta::new("StepBound")
                .kind(ConstraintKind::Postcondition)
                .tradeable(SatisfactionDegree::PossiblySatisfied),
            Arc::new(Step(
                ExprConstraint::parse("self.n - pre(\"n\") <= 90").unwrap(),
            )),
        ),
        // Hard invariant, static path, verdict-cacheable.
        on(
            "setN",
            ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblyViolated),
            expr("self.n <= self.max"),
        ),
        // Hard invariant, non-tradeable.
        on(
            "setMax",
            ConstraintMeta::new("Strict"),
            expr("self.n <= self.max"),
        ),
        // Soft invariant on the default path (no static declaration).
        on(
            "setNote",
            ConstraintMeta::new("Noted")
                .kind(ConstraintKind::SoftInvariant)
                .tradeable(SatisfactionDegree::Satisfied),
            expr("self.note <= self.max"),
        ),
        // Async invariant: validated at commit when healthy, recorded
        // unvalidated when degraded.
        on(
            "setLazy",
            ConstraintMeta::new("Lazy")
                .kind(ConstraintKind::AsyncInvariant)
                .tradeable(SatisfactionDegree::Uncheckable),
            expr("self.lazy <= self.max"),
        ),
        // Hard invariant, static path with a freshness criterion over
        // the peer it reads.
        on(
            "setLevel",
            ConstraintMeta::new("Fresh")
                .tradeable(SatisfactionDegree::PossiblySatisfied)
                .with_freshness(FreshnessCriterion::new("Counter", 2)),
            expr("self.level <= self.peer.max"),
        ),
    ]
}

/// One write of `field` on `id` from `node`, committed.
fn write(
    cluster: &mut Cluster,
    node: u32,
    id: &ObjectId,
    field: &str,
    value: i64,
) -> dedisys_types::Result<()> {
    let node = NodeId(node);
    cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, id, field, Value::Int(value))
    })
}

/// One write under a dynamic handler that decides `decision` and, when
/// accepting, allows rollback.
fn write_negotiated(
    cluster: &mut Cluster,
    node: u32,
    id: &ObjectId,
    value: i64,
    decision: ThreatDecision,
) -> dedisys_types::Result<()> {
    let mut session = cluster.session(NodeId(node));
    session.register_negotiation_handler(Box::new(move |threat: &mut ConsistencyThreat| {
        threat.instructions.allow_rollback = true;
        decision
    }))?;
    session.set_field(id, "n", Value::Int(value))?;
    session.commit()
}

/// The §3.3 full re-check of `name`: a cache miss per counter when
/// cold, a hit when warm.
fn sweep(cluster: &mut Cluster, name: &str) {
    let name = ConstraintName::from(name);
    cluster.set_constraint_enabled(&name, false).unwrap();
    cluster.set_constraint_enabled(&name, true).unwrap();
}

fn refused(result: dedisys_types::Result<()>) -> bool {
    matches!(
        result,
        Err(Error::ConstraintViolated { .. } | Error::ThreatRejected { .. })
    )
}

/// What one run of the scenario pins.
type Pinned = ((usize, u64), [u64; 6], [u64; 7], u64);

/// Runs the scenario under `policy`; returns the trace's `(len,
/// fnv1a)`, the CCM counters, the negotiation-path and verdict-cache
/// counters, and the final virtual time.
fn scenario(policy: HistoryPolicy) -> Pinned {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraints(constraints())
        .configure(|c| {
            c.validation.verdict_cache = true;
            c.durability.threat_policy = policy;
        })
        .build()
        .unwrap();
    let buf = SharedBuf::default();
    cluster
        .telemetry()
        .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
    let ids: Vec<ObjectId> = (0..3)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .collect();
    // Each counter's peer is the next one; only c2 declares how often
    // it is usually updated, so only its copies can look stale.
    for (i, id) in ids.iter().enumerate() {
        let peer = Value::Ref(ids[(i + 1) % ids.len()].clone());
        cluster
            .run_tx(NodeId(0), |c, tx| {
                let mut entity = EntityState::for_class(c.app(), id)?;
                entity.set_field("peer", peer, c.now());
                if i == 2 {
                    entity.set_expected_update_interval(SimDuration::from_millis(10));
                }
                c.create(NodeId(0), tx, entity)
            })
            .unwrap();
    }
    let [c0, c1] = [&ids[0], &ids[1]];

    // Healthy: every kind satisfied, then refused by each.
    write(&mut cluster, 0, c0, "n", 10).unwrap();
    assert!(refused(write(&mut cluster, 0, c0, "n", -1)), "precondition");
    assert!(
        refused(write(&mut cluster, 1, c0, "n", 500)),
        "postcondition"
    );
    write(&mut cluster, 1, c0, "n", 95).unwrap();
    assert!(
        refused(write(&mut cluster, 1, c0, "n", 101)),
        "hard invariant"
    );
    write(&mut cluster, 0, c0, "note", 5).unwrap();
    write(&mut cluster, 1, c0, "lazy", 5).unwrap();
    assert!(refused(write(&mut cluster, 0, c0, "note", 500)), "soft");
    assert!(refused(write(&mut cluster, 0, c0, "lazy", 500)), "async");
    // Verdict cache: cold sweep misses, warm sweep hits, a commit
    // invalidates.
    sweep(&mut cluster, "Bounded");
    sweep(&mut cluster, "Bounded");
    write(&mut cluster, 2, c0, "n", 20).unwrap();
    sweep(&mut cluster, "Bounded");

    // Degraded, immediate negotiation.
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    write(&mut cluster, 0, c0, "n", 30).unwrap(); // static: stored
    write(&mut cluster, 0, c0, "n", 40).unwrap(); // identical: dedupe or link
    assert!(
        refused(write(&mut cluster, 0, c0, "max", 90)),
        "non-tradeable"
    );
    write_negotiated(&mut cluster, 2, c1, 20, ThreatDecision::Accept).unwrap();
    write_negotiated(&mut cluster, 2, c1, 150, ThreatDecision::Accept).unwrap();
    assert!(refused(write_negotiated(
        &mut cluster,
        2,
        c1,
        30,
        ThreatDecision::Reject
    )));
    assert!(refused(write(&mut cluster, 0, c0, "note", 7)), "default");
    write(&mut cluster, 0, c0, "lazy", 7).unwrap(); // async shortcut
    cluster.clock().advance(SimDuration::from_millis(50));
    write(&mut cluster, 0, c0, "level", 3).unwrap(); // peer c1 is fresh
    assert!(
        refused(write(&mut cluster, 0, c1, "level", 3)),
        "peer c2 stale"
    );

    // Reconfigured: the default floor lowered, negotiation deferred.
    cluster
        .reconfigure(|c| {
            c.validation.app_default_min_degree = SatisfactionDegree::PossiblySatisfied
        })
        .unwrap();
    write(&mut cluster, 0, c0, "note", 8).unwrap(); // default: accepted
    cluster
        .reconfigure(|c| c.validation.negotiation_timing = NegotiationTiming::Deferred)
        .unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, c0, "n", Value::Int(41))?;
            c.set_field(NodeId(0), tx, c0, "n", Value::Int(42))?;
            c.set_field(NodeId(0), tx, c0, "note", Value::Int(9))
        })
        .unwrap();
    assert!(refused(write_negotiated(
        &mut cluster,
        2,
        c1,
        31,
        ThreatDecision::Reject
    )));
    assert!(
        refused(write(&mut cluster, 0, c1, "level", 4)),
        "deferred stale"
    );
    cluster
        .reconfigure(|c| {
            c.validation.negotiation_timing = NegotiationTiming::Immediate;
            c.validation.app_default_min_degree = SatisfactionDegree::Satisfied;
        })
        .unwrap();
    assert!(refused(write(&mut cluster, 0, c0, "note", 10)), "restored");

    // Heal and reconcile: c1's 150 is resolved by rollback.
    cluster.heal();
    let mut defer = |_: &ViolationReport, _: &mut dedisys_core::ReconOps<'_>| false;
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut defer);
    assert_eq!(summary.constraints.resolved_by_rollback, 1);
    assert!(cluster.threats().is_empty());
    sweep(&mut cluster, "Bounded");
    write(&mut cluster, 1, c1, "n", 25).unwrap();

    let stats = cluster.stats();
    let counter = |name: &str| stats.telemetry.counters.get(name).copied().unwrap_or(0);
    let paths = [
        "negotiation.non_tradeable",
        "negotiation.dynamic",
        "negotiation.static",
        "negotiation.default",
        "ccm.verdict_cache.miss",
        "ccm.verdict_cache.hit",
        "ccm.verdict_cache.invalidate",
    ]
    .map(counter);
    assert!(
        paths.iter().all(|&n| n > 0),
        "every path reached: {paths:?}"
    );
    let ccm = stats.ccm;
    let counts = [
        ccm.validations,
        ccm.threats_detected,
        ccm.threats_accepted,
        ccm.threats_rejected,
        ccm.violations,
        ccm.async_shortcuts,
    ];
    drop(cluster);
    let bytes = buf.bytes();
    (
        (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
        counts,
        paths,
        stats.now_ns,
    )
}

#[test]
fn ccm_trace_and_counters_do_not_move() {
    assert_eq!(
        scenario(HistoryPolicy::IdenticalOnce),
        (
            (49_567, 0x02e9_ac2e_23b4_2b9c),
            [72, 24, 16, 7, 7, 1],
            [1, 6, 11, 4, 7, 5, 5],
            1_812_650_000
        )
    );
    assert_eq!(
        scenario(HistoryPolicy::FullHistory),
        (
            (49_625, 0x0735_3f09_c217_0dbd),
            [72, 24, 16, 7, 7, 1],
            [1, 6, 11, 4, 7, 5, 5],
            2_137_150_000
        )
    );
}
