//! Memory-channel timing fidelity selection.
//!
//! The chip model charges memory traffic in one of two ways. `Analytic`
//! is the paper's methodology: a flat first-access latency plus
//! bandwidth streaming on the memory channel, with the LPDDR3
//! controller refining energy only. `ClosedLoop` routes every channel
//! transfer through the in-line multi-channel LPDDR3 controllers and
//! blocks the requesting core until the completion event fires, so bank
//! conflicts, row hits/misses, and channel interleaving shape the
//! critical path.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the memory channel's latency is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TimingMode {
    /// Flat per-access latency + bandwidth streaming (the paper's
    /// methodology; reproduces the paper's tables bit-for-bit).
    #[default]
    Analytic,
    /// Closed-loop timing from the in-line multi-channel LPDDR3
    /// controllers: cores block until the controller completes.
    ClosedLoop,
}

impl TimingMode {
    /// Both modes, in fidelity order.
    pub const ALL: [TimingMode; 2] = [TimingMode::Analytic, TimingMode::ClosedLoop];
}

impl fmt::Display for TimingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingMode::Analytic => write!(f, "analytic"),
            TimingMode::ClosedLoop => write!(f, "closed-loop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_analytic() {
        assert_eq!(TimingMode::default(), TimingMode::Analytic);
    }

    #[test]
    fn display_names_each_mode() {
        assert_eq!(TimingMode::Analytic.to_string(), "analytic");
        assert_eq!(TimingMode::ClosedLoop.to_string(), "closed-loop");
    }
}
