//! # dedisys-types
//!
//! Shared vocabulary types for the DeDiSys-RS workspace: identifiers,
//! dynamic [`Value`]s, entity versions, the constraint
//! [`SatisfactionDegree`] lattice of §3.1 of the dissertation, system
//! modes, simulated time, and the workspace error type.
//!
//! Everything here is deliberately dependency-light; higher layers
//! (`dedisys-object`, `dedisys-constraints`, `dedisys-core`, …) build on
//! these definitions.
//!
//! ## Example
//!
//! ```
//! use dedisys_types::{ObjectId, SatisfactionDegree, Value};
//!
//! let flight = ObjectId::new("Flight", "LH-441");
//! assert_eq!(flight.class().as_str(), "Flight");
//!
//! // Combining validation results of a constraint set (§3.1) is the
//! // meet of the satisfaction-degree lattice:
//! let combined = SatisfactionDegree::combine([
//!     SatisfactionDegree::Satisfied,
//!     SatisfactionDegree::PossiblySatisfied,
//! ]);
//! assert_eq!(combined, SatisfactionDegree::PossiblySatisfied);
//! assert!(combined.is_threat());
//!
//! let seats = Value::Int(80);
//! assert!(seats.as_int().unwrap() > 0);
//! ```

mod degree;
mod error;
mod id;
mod mode;
mod plane;
mod rng;
mod time;
mod value;
mod version;

pub use degree::SatisfactionDegree;
pub use error::{Error, Result};
pub use id::{
    fnv1a, ClassName, ConstraintName, FieldName, IdBuildHasher, IdHasher, MethodName,
    MethodSignature, NodeId, ObjectId, SharedText, TxBuildHasher, TxHasher, TxId, ViewId,
    FNV_OFFSET,
};
pub use mode::SystemMode;
pub use plane::PriorityClass;
pub use rng::ChaosRng;
pub use time::{SimDuration, SimTime};
pub use value::Value;
pub use version::{Version, VersionInfo};
