//! DeDiSys-RS virtual-time telemetry subsystem.
//!
//! The paper's whole contribution is *runtime-visible* dependability:
//! trigger points (§4.2.3), consistency threats (§3.2.2), mode
//! transitions (Figure 1.4), two-step reconciliation (§4.4). This
//! crate makes those concepts first-class observable artifacts of a
//! simulated run:
//!
//! * [`TraceEvent`] — a typed event per paper concept, serialized with
//!   an external `kind` tag so a JSONL stream filters cleanly with
//!   `jq 'select(.event.kind == "threat_recorded")'`.
//! * [`Telemetry`] — a cheap cloneable handle to a shared event bus.
//!   Emission is closure-based ([`Telemetry::emit`]) so the hot path
//!   pays **zero allocation** while no sink is attached: the closure
//!   that builds the event is simply never called.
//! * [`MetricsRegistry`] — deterministic counters and virtual-time
//!   [`Histogram`]s (BTree-ordered, virtual time only — never wall
//!   clock); a histogram answers percentiles from fixed log buckets.
//! * [`JsonlExporter`] — line-per-event `serde_json` export. Two runs
//!   with the same seed produce **byte-identical** files.
//! * [`RingRecorder`] — bounded in-memory recorder for tests.
//!
//! Determinism contract: every stamp comes from the shared virtual
//! [`SimClock`](dedisys_net::SimClock); sequence numbers are a
//! monotonic per-bus counter; all aggregate maps iterate in `BTreeMap`
//! order. Nothing in this crate reads the wall clock.

mod bus;
mod event;
mod jsonl;
mod metrics;
mod ring;

pub use bus::{Telemetry, TraceSink};
pub use event::{
    AdmissionReject, CostBreakdown, InvocationOutcome, ShedCause, ThreatStorage, TraceEvent,
    TraceRecord, TransitionCause, TriggerKind, TwoPcPhase,
};
pub use jsonl::{JsonlExporter, SharedBuf};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use ring::RingRecorder;
