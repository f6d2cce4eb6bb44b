//! Intra-chip stage scheduling policy.
//!
//! A chip executes one `(batch, partition)` stage per partition program
//! per round. `Barrier` is the paper's execution model: a full-chip
//! barrier after every stage, so a round's partitions run strictly in
//! order and the next round starts only when the previous one has
//! fully drained. `Interleaved` relaxes the barrier to a stage
//! dependency graph: a stage may start as soon as its dataflow
//! predecessors are done and its resource claims (crossbar groups) are
//! free, so batch `b+1`'s partition 0 overlaps batch `b`'s draining
//! tail whenever the two touch disjoint cores.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How a chip's `(batch, partition)` stages are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ScheduleMode {
    /// Full-chip barrier between stages (the paper's methodology;
    /// reproduces the golden report fixtures bit-for-bit).
    #[default]
    Barrier,
    /// Dependency-driven dispatch: stages overlap when their resource
    /// claims do not conflict, hiding pipeline fill/drain across
    /// batches.
    Interleaved,
}

impl ScheduleMode {
    /// Both modes, in increasing overlap order.
    pub const ALL: [ScheduleMode; 2] = [ScheduleMode::Barrier, ScheduleMode::Interleaved];
}

impl fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleMode::Barrier => write!(f, "barrier"),
            ScheduleMode::Interleaved => write!(f, "interleaved"),
        }
    }
}

impl FromStr for ScheduleMode {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_lowercase().as_str() {
            "barrier" => Ok(ScheduleMode::Barrier),
            "interleaved" | "interleave" => Ok(ScheduleMode::Interleaved),
            other => Err(format!("unknown schedule mode {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_barrier() {
        assert_eq!(ScheduleMode::default(), ScheduleMode::Barrier);
    }

    #[test]
    fn parses_spellings() {
        assert_eq!("barrier".parse::<ScheduleMode>().unwrap(), ScheduleMode::Barrier);
        assert_eq!("Interleaved".parse::<ScheduleMode>().unwrap(), ScheduleMode::Interleaved);
        assert_eq!("interleave".parse::<ScheduleMode>().unwrap(), ScheduleMode::Interleaved);
        assert!("lockstep".parse::<ScheduleMode>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for mode in ScheduleMode::ALL {
            assert_eq!(mode.to_string().parse::<ScheduleMode>().unwrap(), mode);
        }
    }
}
