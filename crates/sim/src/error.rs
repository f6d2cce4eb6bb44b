//! Simulation errors.

use pim_isa::{CoreId, Tag};
use std::error::Error;
use std::fmt;

/// The simulator could not make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A `RECV` waits for a `SEND` that never executes (malformed
    /// schedule).
    Deadlock {
        /// The blocked core.
        core: CoreId,
        /// The tag it is waiting on.
        tag: Tag,
    },
    /// A program references more cores than the chip has.
    CoreCountMismatch {
        /// Cores in the program.
        program_cores: usize,
        /// Cores on the chip.
        chip_cores: usize,
    },
    /// The chip spec fails [`pim_arch::ChipSpec::validate`] (a zero
    /// count, or a rate, latency or bandwidth that is negative, zero
    /// where it must be positive, or not finite).
    InvalidChip(
        /// Human-readable reason.
        String,
    ),
    /// The system description does not fit the topology (wrong chip
    /// count, broken link graph, or a hand-off to a chip that cannot
    /// be reached).
    InvalidTopology(
        /// Human-readable reason.
        String,
    ),
    /// The serving configuration cannot drive the system (unsorted or
    /// negative trace arrivals, a synthetic traffic model with a
    /// negative or NaN rate, a zero-capacity buffer, a batch deadline
    /// or SLO that is not a finite non-negative time, no chip with
    /// work).
    InvalidServing(
        /// Human-readable reason.
        String,
    ),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { core, tag } => {
                write!(f, "deadlock: {core} blocked on recv {tag} with no matching send")
            }
            SimError::CoreCountMismatch { program_cores, chip_cores } => {
                write!(f, "program targets {program_cores} cores but chip has {chip_cores}")
            }
            SimError::InvalidChip(reason) => write!(f, "invalid chip spec: {reason}"),
            SimError::InvalidTopology(reason) => {
                write!(f, "invalid system topology: {reason}")
            }
            SimError::InvalidServing(reason) => {
                write!(f, "invalid serving configuration: {reason}")
            }
        }
    }
}

impl Error for SimError {}
