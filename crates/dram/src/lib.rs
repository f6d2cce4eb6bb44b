//! # pim-dram — cycle-approximate LPDDR3 DRAM simulator
//!
//! A functional stand-in for DRAMsim3 as used by the COMPASS paper
//! (§IV-A1: "We model the DRAM energy by generating a memory trace from
//! the scheduled instruction and feeding it into DRAMsim3").
//!
//! The model implements the behaviours a PIM weight-replacement
//! compiler actually exercises:
//!
//! * per-bank row-buffer state with open-page policy — bulk sequential
//!   weight streams hit the row buffer, scattered activation traffic
//!   pays activate/precharge,
//! * JEDEC-style timing constraints (tRCD, tRP, tCL/tCWL, tRAS, tWR,
//!   tCCD, tRFC with periodic refresh),
//! * a FR-FCFS-lite controller queue with bank-level parallelism,
//! * energy accounting (activate, read, write, IO, background).
//!
//! Where the paper writes a trace and replays it through DRAMsim3 in a
//! second pass, the chip simulator feeds this model in line, as its
//! events fire. A request is what a DRAMsim3 trace line holds (issue
//! time, address, read/write, bytes). Three front ends serve them:
//!
//! * [`DramSimulator::enqueue`] + [`DramSimulator::service_pending`]
//!   (or [`DramSimulator::service_pending_with`]) serve everything
//!   queued so far in FR-FCFS order;
//! * [`DramSimulator::service_one`] serves one request at once, in
//!   arrival order;
//! * [`MultiChannelDram::service`] serves one block request at once,
//!   striped across address-interleaved channels.
//!
//! Each reports per-request completion; the controller keeps the
//! aggregate bandwidth and energy counters.
//!
//! # Example
//!
//! ```
//! use pim_dram::{DramConfig, DramSimulator, Request, RequestKind};
//!
//! let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
//! let id = sim.enqueue(Request::new(0, 0x1000, RequestKind::Read, 64));
//! let results = sim.service_pending();
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].id, id);
//! assert!(results[0].finish_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod config;
pub mod controller;
pub mod energy;
pub mod request;

mod error;

pub use channel::{ChannelAccess, MultiChannelDram};
pub use config::DramConfig;
pub use controller::{ChannelStats, CompletedRequest, DramSimulator};
pub use energy::DramEnergy;
pub use error::DramError;
pub use request::{Request, RequestId, RequestKind};
