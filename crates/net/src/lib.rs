//! # dedisys-net
//!
//! The simulated network substrate of DeDiSys-RS.
//!
//! The original system ran on a 100 Mbit LAN with the Spread group
//! communication toolkit; this crate replaces the physical network with a
//! deterministic simulation:
//!
//! * [`SimClock`] — a shared virtual clock; every network hop and
//!   modelled I/O advances it, so throughput figures are reproducible.
//! * [`Topology`] — which nodes exist and how they are partitioned;
//!   reachability queries drive everything from replica staleness to
//!   view changes.
//!
//! Message transport is not modelled here: the one simulated transport
//! is the per-link fault layer of `dedisys_gms::MembershipSim`, and
//! replica ships are cost-model arithmetic in `dedisys-replication`.
//!
//! ## Example
//!
//! ```
//! use dedisys_net::{SimClock, Topology};
//! use dedisys_types::{NodeId, SimDuration};
//!
//! let clock = SimClock::new();
//! let mut topo = Topology::fully_connected(3);
//! topo.split(&[&[0], &[1, 2]]);
//! assert!(!topo.reachable(NodeId(0), NodeId(1)));
//! clock.advance(SimDuration::from_millis(1));
//! assert_eq!(clock.now().as_nanos(), 1_000_000);
//! ```

mod clock;
mod topology;

pub use clock::SimClock;
pub use topology::Topology;
