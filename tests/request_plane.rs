//! The deterministic request plane end to end: strict priority
//! dispatch, token-bucket admission, displacement at the queue bound,
//! deadline shedding, mode-coupled backpressure, byte-identical
//! same-seed traces and the conservation invariant.

use dedisys_core::plane::{DEFAULT_DEADLINE, QUEUE_CAPACITY, REFILL_PER_SECOND};
use dedisys_core::{
    nodes, ClusterBuilder, JsonlExporter, RequestPlane, RingRecorder, SharedBuf, TraceEvent,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_telemetry::ShedCause;
use dedisys_types::{Error, NodeId, ObjectId, PriorityClass, SimDuration, SystemMode, Value};
use std::sync::{Arc, Mutex};

/// The virtual time in which a node's bucket earns one token.
const TOKEN_PERIOD: SimDuration = SimDuration::from_nanos(1_000_000_000 / REFILL_PER_SECOND);

fn app() -> AppDescriptor {
    AppDescriptor::new("plane")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

fn cluster_with(f: impl FnOnce(&mut dedisys_core::ClusterConfig)) -> dedisys_core::Cluster {
    let mut c = ClusterBuilder::new(3, app()).configure(f).build().unwrap();
    for i in 0..3 {
        let id = ObjectId::new("Item", format!("i{i}"));
        c.run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
        })
        .unwrap();
    }
    c
}

/// A submitted write that records its own execution order.
fn write_order(
    order: &Arc<Mutex<Vec<u64>>>,
    tag: u64,
) -> impl for<'a> FnOnce(dedisys_core::Session<'a>) -> dedisys_types::Result<()> + 'static {
    let order = Arc::clone(order);
    move |mut session| {
        order.lock().unwrap().push(tag);
        let id = ObjectId::new("Item", "i0");
        session.set_field(&id, "v", Value::Int(tag as i64))?;
        session.commit()
    }
}

#[test]
fn dispatch_is_strict_priority_then_fifo() {
    let mut c = cluster_with(|_| {});
    let mut plane = RequestPlane::new();
    let order = Arc::new(Mutex::new(Vec::new()));
    // Submission order deliberately inverts priority order.
    for (tag, class) in [
        (1, PriorityClass::Background),
        (2, PriorityClass::Normal),
        (3, PriorityClass::Critical),
        (4, PriorityClass::Background),
        (5, PriorityClass::Normal),
        (6, PriorityClass::Critical),
    ] {
        plane
            .submit_with_deadline(&mut c, NodeId(0), class, None, write_order(&order, tag))
            .unwrap();
    }
    let report = plane.run_until_idle(&mut c);
    assert_eq!(report.queued, 0);
    assert_eq!(report.stats.total().completed, 6);
    assert_eq!(
        *order.lock().unwrap(),
        vec![3, 6, 2, 5, 1, 4],
        "Critical first, FIFO within each class"
    );
}

#[test]
fn empty_token_bucket_refuses_then_refills_on_the_virtual_clock() {
    let mut c = cluster_with(|cfg| cfg.plane.burst = 2);
    let mut plane = RequestPlane::new();
    let ok = |_s: dedisys_core::Session<'_>| Ok(());
    plane
        .submit_with_deadline(&mut c, NodeId(0), PriorityClass::Normal, None, ok)
        .unwrap();
    plane
        .submit_with_deadline(&mut c, NodeId(0), PriorityClass::Normal, None, ok)
        .unwrap();
    // The burst is spent; the third arrival is refused at admission.
    let refused = plane.submit_with_deadline(&mut c, NodeId(0), PriorityClass::Normal, None, ok);
    assert!(matches!(refused, Err(Error::Overloaded { .. })));
    // Tokens accrue on the virtual clock: one token period buys one
    // token, and no more.
    c.clock().advance(TOKEN_PERIOD);
    plane
        .submit_with_deadline(&mut c, NodeId(0), PriorityClass::Normal, None, ok)
        .unwrap();
    let refused = plane.submit_with_deadline(&mut c, NodeId(0), PriorityClass::Normal, None, ok);
    assert!(matches!(refused, Err(Error::Overloaded { .. })));
    assert_eq!(plane.stats().normal.rejected, 2);
    assert_eq!(plane.stats().normal.admitted, 3);
    // Other nodes hold their own buckets — NodeId(1) is unaffected.
    plane
        .submit_with_deadline(&mut c, NodeId(1), PriorityClass::Normal, None, ok)
        .unwrap();
    assert!(plane.conserves());
}

#[test]
fn full_queue_displaces_lower_priority_or_rejects() {
    // Tokens for the bound and two arrivals past it.
    let mut c = cluster_with(|cfg| cfg.plane.burst = QUEUE_CAPACITY + 2);
    let ring = RingRecorder::new(256);
    c.telemetry().attach(Box::new(ring.clone()));
    let mut plane = RequestPlane::new();
    let ok = |_s: dedisys_core::Session<'_>| Ok(());
    for _ in 0..QUEUE_CAPACITY {
        plane
            .submit_with_deadline(&mut c, NodeId(0), PriorityClass::Background, None, ok)
            .unwrap();
    }
    // At the bound, a Critical arrival displaces the newest Background.
    plane
        .submit_with_deadline(&mut c, NodeId(0), PriorityClass::Critical, None, ok)
        .unwrap();
    assert_eq!(plane.stats().background.shed, 1);
    assert_eq!(ring.records_of_kind("request_shed").len(), 1);
    assert_eq!(
        plane.queue_depth(NodeId(0)),
        QUEUE_CAPACITY,
        "bound still respected"
    );
    // A Background arrival finds nothing lower to displace: rejected.
    let refused =
        plane.submit_with_deadline(&mut c, NodeId(0), PriorityClass::Background, None, ok);
    assert!(matches!(
        refused,
        Err(Error::Overloaded {
            depth: QUEUE_CAPACITY,
            ..
        })
    ));
    assert_eq!(ring.records_of_kind("request_rejected").len(), 1);
    assert!(plane.conserves());
}

#[test]
fn expired_deadlines_are_shed_before_execution() {
    let mut c = cluster_with(|_| {});
    let mut plane = RequestPlane::new();
    let ran = Arc::new(Mutex::new(false));
    let flag = Arc::clone(&ran);
    plane
        .submit_with_deadline(
            &mut c,
            NodeId(0),
            PriorityClass::Normal,
            Some(SimDuration::from_millis(1)),
            move |_s| {
                *flag.lock().unwrap() = true;
                Ok(())
            },
        )
        .unwrap();
    // The queue sits past the deadline before anything dispatches.
    c.clock().advance(SimDuration::from_millis(5));
    let report = plane.run_until_idle(&mut c);
    assert!(!*ran.lock().unwrap(), "expired work must never execute");
    assert_eq!(report.stats.normal.deadline_missed, 1);
    assert_eq!(report.stats.normal.completed, 0);
    assert!(plane.conserves());
}

/// A request submitted without a deadline gets its class's default:
/// it runs when dispatched at that deadline and is dropped one token
/// period later; `Critical` has none and runs even a minute late.
#[test]
fn default_deadlines_are_per_class() {
    let ok = |_s: dedisys_core::Session<'_>| Ok(());
    for class in PriorityClass::ALL {
        let waits = match DEFAULT_DEADLINE[class.rank()] {
            Some(deadline) => vec![(deadline, false), (deadline + TOKEN_PERIOD, true)],
            None => vec![(SimDuration::from_secs(60), false)],
        };
        for (wait, expires) in waits {
            let mut c = cluster_with(|_| {});
            let mut plane = RequestPlane::new();
            plane.submit(&mut c, NodeId(0), class, ok).unwrap();
            c.clock().advance(wait);
            let counters = *plane.run_until_idle(&mut c).stats.class(class);
            let missed = u64::from(expires);
            assert_eq!(
                (counters.completed, counters.deadline_missed),
                (1 - missed, missed),
                "{class:?} after {wait:?}"
            );
        }
    }
}

/// The plane's one mode rule as a table, mode × class: a queued
/// request runs — in priority order — except `Background` while the
/// system is not healthy, which is shed with `ShedCause::ModePressure`
/// before anything is dispatched.
#[test]
fn degraded_mode_sheds_background_first() {
    use PriorityClass::{Background, Critical, Normal};
    use SystemMode::{Degraded, Healthy, Reconciliation};
    for mode in [Healthy, Degraded, Reconciliation] {
        let mut c = cluster_with(|_| {});
        let ring = RingRecorder::new(256);
        c.telemetry().attach(Box::new(ring.clone()));
        let mut plane = RequestPlane::new();
        let ran = Arc::new(Mutex::new(Vec::new()));
        // Queued lowest class first, while the system is still healthy:
        // the mode is read at dispatch, not at admission.
        for class in [Background, Normal, Critical] {
            let ran = Arc::clone(&ran);
            plane
                .submit_with_deadline(&mut c, NodeId(0), class, None, move |_s| {
                    ran.lock().unwrap().push(class);
                    Ok(())
                })
                .unwrap();
        }
        if mode != Healthy {
            c.partition(&[nodes![0], nodes![1, 2]]).unwrap();
        }
        if mode == Reconciliation {
            // Degraded-mode residue, then the repair.
            let id = ObjectId::new("Item", "i0");
            c.run_tx(NodeId(0), move |c, tx| {
                c.set_field(NodeId(0), tx, &id, "v", Value::Int(1))
            })
            .unwrap();
            c.heal();
        }
        assert_eq!(c.mode(), mode);

        let report = plane.run_until_idle(&mut c);
        let shed = u64::from(mode != Healthy);
        let ran = ran.lock().unwrap();
        assert_eq!(ran[..2], [Critical, Normal], "{mode:?}");
        assert_eq!(ran.len() as u64, 3 - shed, "{mode:?}");
        let (total, background) = (report.stats.total(), report.stats.background);
        assert_eq!((total.completed, total.shed), (3 - shed, shed), "{mode:?}");
        assert_eq!((background.completed, background.shed), (1 - shed, shed));
        let events = ring.records_of_kind("request_shed");
        assert_eq!(events.len() as u64, shed, "{mode:?}");
        for shed in events {
            let expected = TraceEvent::RequestShed {
                request: 1,
                node: NodeId(0),
                class: Background,
                cause: ShedCause::ModePressure,
            };
            assert_eq!(shed.event, expected, "{mode:?}");
        }
        assert!(plane.conserves(), "{mode:?}");
    }
}

/// One full mixed workload against a traced cluster; returns the raw
/// JSONL bytes plus the serde-independent `(seq, at, kind)` stream.
fn traced_workload() -> (Vec<u8>, Vec<(u64, u64, &'static str)>) {
    let buf = SharedBuf::default();
    let mut c = cluster_with(|cfg| cfg.plane.burst = 8);
    c.telemetry()
        .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
    let ring = RingRecorder::new(8192);
    c.telemetry().attach(Box::new(ring.clone()));
    let mut plane = RequestPlane::new();
    for round in 0u64..6 {
        for (i, class) in PriorityClass::ALL.iter().enumerate() {
            let node = NodeId(((round as u32) + i as u32) % 3);
            let tag = round * 10 + i as u64;
            let _ = plane.submit(&mut c, node, *class, move |mut session| {
                let id = ObjectId::new("Item", format!("i{}", tag % 3));
                session.set_field(&id, "v", Value::Int(tag as i64))?;
                session.commit()
            });
        }
        if round == 2 {
            c.partition(&[nodes![0, 1], nodes![2]]).unwrap();
        }
        if round == 4 {
            c.heal();
        }
        plane.run_until_idle(&mut c);
        c.clock().advance(SimDuration::from_millis(20));
    }
    assert!(plane.conserves());
    let stream: Vec<(u64, u64, &'static str)> = ring
        .records()
        .iter()
        .map(|r| (r.seq, r.at.as_nanos(), r.event.kind()))
        .collect();
    drop(c);
    (buf.bytes(), stream)
}

#[test]
fn same_workload_produces_byte_identical_traces() {
    let (bytes_a, stream_a) = traced_workload();
    let (bytes_b, stream_b) = traced_workload();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "JSONL trace must be deterministic");
    assert!(
        stream_a.iter().any(|(_, _, k)| *k == "request_admitted"),
        "plane events present in the stream"
    );
    assert_eq!(stream_a, stream_b, "event stream must be deterministic");
}

#[test]
fn conservation_and_metrics_under_mixed_load() {
    let mut c = cluster_with(|cfg| cfg.plane.burst = 4);
    let mut plane = RequestPlane::new();
    let ok = |_s: dedisys_core::Session<'_>| Ok(());
    let mut admitted = 0u64;
    // Three arrivals, two tokens and one dispatch per tick: the bucket
    // runs dry and the queue fills to its bound.
    for _ in 0..40 {
        for class in PriorityClass::ALL {
            if plane.submit(&mut c, NodeId(0), class, ok).is_ok() {
                admitted += 1;
            }
        }
        c.clock().advance(TOKEN_PERIOD * 2);
        plane.step(&mut c);
    }
    plane.run_until_idle(&mut c);
    let t = plane.stats().total();
    assert_eq!(t.offered, 120);
    assert_eq!(t.admitted, admitted);
    assert_eq!(t.offered, t.admitted + t.rejected);
    assert_eq!(t.admitted, t.completed + t.shed + t.deadline_missed);
    assert!(t.rejected > 0 && t.shed > 0, "{t:?}");
    assert!(plane.conserves());
}
