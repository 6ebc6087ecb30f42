//! Facade crate re-exporting the DeDiSys-RS workspace, and the home of
//! the paper's applications ([`apps`]).
pub use dedisys_core as core;
pub use dedisys_federation as federation;
pub use dedisys_telemetry as telemetry;

pub mod apps;
