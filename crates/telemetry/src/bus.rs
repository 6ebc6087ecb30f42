//! The event bus: a cheap cloneable handle shared by every emitter.
//!
//! Hot-path discipline: [`Telemetry::emit`] takes a *closure* that
//! builds the event. When no sink is attached the closure is never
//! invoked, so instrumented code pays one relaxed atomic load and no
//! allocation. When someone is listening an event still costs little:
//! it names an object, a method or a constraint by sharing the
//! identity's text ([`SharedText`](dedisys_types::SharedText), a
//! reference-count bump), so only what is not an identity's text — a
//! trigger point's signature, a free-form reason — is built per event.

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::MetricsRegistry;
use dedisys_net::SimClock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of trace records.
///
/// Sinks are driven strictly in attach order and receive records in
/// emission (= sequence-number) order, which keeps exported streams
/// deterministic.
pub trait TraceSink: Send {
    /// Consume one record.
    fn record(&mut self, record: &TraceRecord);
    /// Flush any buffered output (e.g. file writers). Default: no-op.
    fn flush(&mut self) {}
}

struct Inner {
    clock: SimClock,
    enabled: AtomicBool,
    seq: AtomicU64,
    sinks: Mutex<Vec<Box<dyn TraceSink>>>,
    metrics: MetricsRegistry,
}

/// Cloneable handle to a shared telemetry bus.
///
/// A disabled bus (no sink attached) costs one atomic load per
/// emission site; the [`MetricsRegistry`] stays live either way. It
/// holds the histograms and the counts no component keeps in a typed
/// field of its own — a count has one home (DESIGN.md §5, "One book per
/// request"), so a [`MetricsSnapshot`](crate::MetricsSnapshot) is read
/// next to the owners' `*Stats`, never instead of them.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("seq", &self.inner.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// Creates a bus stamping events from `clock`. Starts with no
    /// sinks, i.e. disabled for event emission.
    pub fn new(clock: SimClock) -> Self {
        Self {
            inner: Arc::new(Inner {
                clock,
                enabled: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                sinks: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// Whether at least one sink is attached (events will be built).
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Attaches a sink and enables event emission.
    pub fn attach(&self, sink: Box<dyn TraceSink>) {
        let mut sinks = self.inner.sinks.lock().expect("telemetry sinks poisoned");
        sinks.push(sink);
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Emits one event. `build` is only called when a sink is
    /// attached — the disabled path allocates nothing.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let record = TraceRecord {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            at: self.inner.clock.now(),
            event: build(),
        };
        let mut sinks = self.inner.sinks.lock().expect("telemetry sinks poisoned");
        for sink in sinks.iter_mut() {
            sink.record(&record);
        }
    }

    /// The bus-wide metrics registry (live even with no sink attached).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        let mut sinks = self.inner.sinks.lock().expect("telemetry sinks poisoned");
        for sink in sinks.iter_mut() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingRecorder;
    use dedisys_types::{SimDuration, SystemMode};

    fn mode_event() -> TraceEvent {
        TraceEvent::ModeTransition {
            from: SystemMode::Healthy,
            to: SystemMode::Degraded,
            cause: crate::event::TransitionCause::Scripted,
        }
    }

    #[test]
    fn disabled_bus_skips_event_construction() {
        let bus = Telemetry::new(SimClock::new());
        let mut called = false;
        bus.emit(|| {
            called = true;
            mode_event()
        });
        assert!(!called, "closure must not run while disabled");
        assert_eq!(bus.events_emitted(), 0);
    }

    #[test]
    fn attached_sink_sees_stamped_records() {
        let clock = SimClock::new();
        let bus = Telemetry::new(clock.clone());
        let ring = RingRecorder::new(16);
        bus.attach(Box::new(ring.clone()));
        assert!(bus.is_enabled());

        bus.emit(mode_event);
        clock.advance(SimDuration::from_nanos(500));
        bus.emit(mode_event);

        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[0].at.as_nanos(), 0);
        assert_eq!(records[1].at.as_nanos(), 500);
    }

    #[test]
    fn clones_share_the_same_bus() {
        let bus = Telemetry::new(SimClock::new());
        let alias = bus.clone();
        let ring = RingRecorder::new(4);
        bus.attach(Box::new(ring.clone()));
        alias.emit(mode_event);
        assert_eq!(ring.records().len(), 1);
        assert!(alias.is_enabled());
    }
}
