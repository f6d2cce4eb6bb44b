//! # compass — a compiler for resource-constrained crossbar PIM DNN accelerators
//!
//! Reproduction of *COMPASS: A Compiler Framework for
//! Resource-Constrained Crossbar-Array Based In-Memory Deep Learning
//! Accelerators* (DATE 2025). COMPASS compiles DNNs **larger than the
//! chip's in-memory footprint** by partitioning the network into
//! chip-sized partitions that execute sequentially with *weight
//! replacement* between them, while layers inside a partition pipeline
//! with *weight replication* for stage balance.
//!
//! The pipeline (paper Fig. 3):
//!
//! 1. **Partition generation** ([`mod@decompose`], [`validity`]) — weight
//!    matrices split along the output dimension into *partition units*
//!    sized for one core; a validity map precomputes which unit spans
//!    fit the chip.
//! 2. **Partition optimization** ([`ga`], [`fitness`], [`mutation`],
//!    [`replication`], [`estimate`]) — a genetic algorithm over
//!    partition groups; each partition is optimized on-chip
//!    (replication + core mapping) and scored with an analytical
//!    latency/energy model; the *partition score* steers mutations
//!    (merge / split / move / fixed-random).
//! 3. **Instruction scheduling** ([`scheduler`]) — per-core
//!    `pim-isa` programs with weight writes and inter-partition
//!    activation load/stores.
//!
//! Baseline partitioners (*greedy*, *layerwise*) live in [`baselines`].
//!
//! # Example
//!
//! ```
//! use compass::{Compiler, CompileOptions};
//! use pim_arch::ChipSpec;
//! use pim_model::zoo;
//!
//! # fn main() -> Result<(), compass::CompileError> {
//! let compiler = Compiler::new(ChipSpec::chip_m());
//! let options = CompileOptions::new().with_batch_size(4).with_seed(7);
//! let compiled = compiler.compile(&zoo::squeezenet(), &options)?;
//! assert!(!compiled.partitions().is_empty());
//! assert!(compiled.estimate().throughput_ips() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod compiler;
pub mod decompose;
pub mod estimate;
pub mod fitness;
pub mod ga;
pub mod mutation;
pub mod packing;
pub mod partition;
pub mod plan;
pub mod replication;
pub mod report;
pub mod scheduler;
pub mod system;
pub mod tuner;
pub mod validity;

mod error;

pub use compiler::{CompileOptions, CompiledModel, Compiler, FitnessKind, Strategy};
pub use decompose::{decompose, PartitionUnit, UnitSequence};
pub use error::CompileError;
pub use estimate::{GroupEstimate, PartitionEstimate};
pub use ga::{GaParams, GaTrace, GenerationRecord};
pub use partition::{Partition, PartitionGroup};
pub use plan::{GroupPlan, PartitionPlan};
pub use report::CompileReport;
pub use system::{
    fan_out_allocation, plan_system, SystemChipPlan, SystemSchedule, SystemStrategy, SystemTarget,
};
pub use tuner::{tune_batch, TuneObjective, TuneResult};
pub use validity::ValidityMap;

/// Re-export of the memory timing-fidelity selector shared with
/// `pim-arch` and `pim-sim`.
pub use pim_arch::TimingMode;

/// Re-export of the intra-chip stage dispatch selector shared with
/// `pim-arch` and `pim-sim`.
pub use pim_arch::ScheduleMode;

/// Re-export of the multi-chip topology description shared with
/// `pim-arch` and `pim-sim`.
pub use pim_arch::Topology;
