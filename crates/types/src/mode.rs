//! The three major system states of Figure 1.4.

use serde::{Deserialize, Serialize};
use std::fmt;

/// System mode as locally perceived by each individual node (§1.4).
///
/// * **Healthy** — no failures or inconsistencies present.
/// * **Degraded** — node/link failures present; inconsistencies are
///   potentially introduced (bounded by constraint-threat negotiation).
/// * **Reconciliation** — failures repaired; missed updates are
///   propagated and accepted consistency threats re-evaluated.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default, PartialOrd, Ord,
)]
pub enum SystemMode {
    /// No failures or inconsistencies present.
    #[default]
    Healthy,
    /// Node/link failures present; consistency threats may be traded.
    Degraded,
    /// Failures repaired; inconsistencies being cleaned up.
    Reconciliation,
}

impl fmt::Display for SystemMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemMode::Healthy => "healthy",
            SystemMode::Degraded => "degraded",
            SystemMode::Reconciliation => "reconciliation",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_healthy() {
        assert_eq!(SystemMode::default(), SystemMode::Healthy);
    }
}
