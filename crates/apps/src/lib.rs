//! # dedisys-apps
//!
//! The application scenarios of the dissertation, modelled on top of
//! the DeDiSys-RS middleware:
//!
//! * [`flight`] — the distributed flight booking system of §1.3 (the
//!   running example: the ticket constraint, overbooking under
//!   partitions, reconciliation by rebooking), including the
//!   partition-sensitive variant of §5.5.2.
//! * [`ats`] — the distributed alarm tracking system of §1.4 (Figure
//!   1.5): alarms and repair reports with the
//!   `ComponentKindReferenceConsistency` constraint spanning both.
//! * [`dtms`] — the distributed telecommunication management system of
//!   §1.4: site-bound voice-communication-channel endpoints whose
//!   configuration must stay consistent across sites (objects with
//!   strong ownership — replicas bound to subsets of nodes).

pub mod ats;
pub mod dtms;
pub mod flight;
