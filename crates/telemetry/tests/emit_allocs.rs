//! Emission allocates nothing it need not: an event names its subjects
//! by sharing their text and is encoded into the exporter's one line.
//!
//! A test binary of its own, because it installs a counting global
//! allocator — the one place in the workspace that needs `unsafe`.

use dedisys_net::SimClock;
use dedisys_telemetry::{
    CostBreakdown, InvocationOutcome, JsonlExporter, Telemetry, TraceEvent, TriggerKind,
};
use dedisys_types::{
    ConstraintName, MethodSignature, NodeId, ObjectId, SatisfactionDegree, SystemMode, TxId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness has others).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor reads the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One test, so nothing else runs on this thread's counter.
#[test]
fn emission_allocates_nothing_it_need_not() {
    const ROUNDS: u64 = 2_000; // far more than one buffer of lines
    let id = ObjectId::new("Account", "a000017");
    let sig = MethodSignature::new("Account", "setBalance");
    let constraint = ConstraintName::from("balance_non_negative");
    let (node, tx) = (NodeId(0), TxId::new(NodeId(0), 41));

    let bus = Telemetry::new(SimClock::new());
    bus.attach(Box::new(JsonlExporter::new(Box::new(std::io::sink()))));
    // The five events of a replicated write that name an identity,
    // built from live handles as the emit sites build them.
    let emit_write = || {
        bus.emit(|| TraceEvent::ShardRouted {
            object: id.text().into(),
            shard: 1,
            mode: SystemMode::Healthy,
            admitted: true,
        });
        bus.emit(|| TraceEvent::InvocationStart {
            node,
            tx,
            target: id.text().into(),
            method: sig.method.text().into(),
        });
        bus.emit(|| TraceEvent::ConstraintValidated {
            constraint: constraint.text().into(),
            degree: SatisfactionDegree::Satisfied,
            accessed: 1,
        });
        bus.emit(|| TraceEvent::InvocationEnd {
            node,
            tx,
            target: id.text().into(),
            method: sig.method.text().into(),
            outcome: InvocationOutcome::Ok,
            cost: CostBreakdown::default(),
        });
        bus.emit(|| TraceEvent::ReplicationUpdate {
            object: id.text().into(),
            from: node,
            recipients: 2,
            messages: 4,
            degraded: false,
        });
    };
    emit_write(); // warm-up: the exporter's line grows to its longest record
    let per_write = allocations(|| (0..ROUNDS).for_each(|_| emit_write()));
    assert_eq!(per_write, 0, "{ROUNDS} writes of 5 events each");

    // A trigger point owns its signature: one allocation, of its size.
    let trigger_points = allocations(|| {
        for matches in 0..ROUNDS as u32 {
            bus.emit(|| TraceEvent::TriggerPoint {
                trigger: TriggerKind::Invariant,
                signature: sig.to_text(),
                matches,
            });
        }
    });
    assert_eq!(trigger_points, ROUNDS);
    assert_eq!(bus.events_emitted(), 5 + 6 * ROUNDS);

    // No sink: the closure never runs, so nothing is built at all.
    let disabled = Telemetry::new(SimClock::new());
    let mut built = 0u64;
    let unheard = allocations(|| {
        for _ in 0..ROUNDS {
            disabled.emit(|| {
                built += 1;
                TraceEvent::StalenessHit {
                    object: id.to_string().into(),
                    node,
                }
            });
        }
    });
    assert_eq!((unheard, built, disabled.events_emitted()), (0, 0, 0));
}
