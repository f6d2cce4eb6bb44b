//! # pim-sim — event-driven multi-core PIM chip simulator
//!
//! Executes the per-core `pim-isa` programs emitted by the COMPASS
//! scheduler on a timing model of the paper's chip template: cores
//! advance independently, `SEND`/`RECV` pairs rendezvous by tag over a
//! shared arbitrated bus, and `LOAD/STORE` instructions serialize on
//! the global-memory channel. Partitions execute sequentially with a
//! full-chip barrier between them (the weight-replacement boundary of
//! paper §II-B), which yields the per-partition latency breakdown of
//! Fig. 7 directly.
//!
//! Energy combines the `pim-arch` event energies with an optional
//! DRAM-trace replay through `pim-dram` — mirroring the paper's
//! "generate a memory trace from the scheduled instruction and feed it
//! into DRAMsim3" methodology.
//!
//! # Example
//!
//! ```
//! use compass::{Compiler, CompileOptions, Strategy};
//! use pim_arch::ChipSpec;
//! use pim_model::zoo;
//! use pim_sim::ChipSimulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chip = ChipSpec::chip_s();
//! let compiled = Compiler::new(chip.clone()).compile(
//!     &zoo::tiny_cnn(),
//!     &CompileOptions::new().with_strategy(Strategy::Greedy).with_batch_size(2),
//! )?;
//! let report = ChipSimulator::new(chip).run(compiled.programs(), 2)?;
//! assert!(report.makespan_ns > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod serve;
pub mod sim;
pub mod system;

mod components;
mod error;
mod stage;

pub use error::SimError;
pub use report::{
    ChipSimSummary, EngineMode, LinkStats, PartitionSimReport, SimReport, TraceStats,
};
pub use serve::{
    percentile, percentiles, BatchPolicy, RequestRecord, RequestTrace, ServingConfig,
    ServingReport, TrafficSpec, ADMISSION_LATENCY_NS,
};
pub use sim::ChipSimulator;
pub use system::{ChipLoad, Handoff, SystemSimulator};

// The arrival models live in the engine crate; re-export them so
// serving callers need only `pim_sim`.
pub use pim_engine::{ArrivalGen, TrafficModel};
