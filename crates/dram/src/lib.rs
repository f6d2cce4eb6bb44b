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
//! * bank-level parallelism behind one shared data bus,
//! * energy accounting (activate, read, write, IO, background).
//!
//! Where the paper writes a trace and replays it through DRAMsim3 in a
//! second pass, the chip simulator feeds this model in line, as its
//! events fire. A request is what a DRAMsim3 trace line holds (issue
//! time, address, read/write, bytes). Two front ends serve them, one
//! request at a time, in call order:
//!
//! * [`DramSimulator::service`] serves a request on one controller;
//! * [`MultiChannelDram::service`] stripes a block request across
//!   address-interleaved channels and serves each stripe there.
//!
//! There is no reorder queue, because the simulator's traffic gives a
//! row-hit-first pick nothing to reorder. Requests arrive as their
//! events fire, so call order is issue order. The in-line energy model
//! serves one transfer at a time as contiguous chunks: every chunk but
//! the last is a bulk stream that closes every bank, and bump-allocated
//! addresses keep the later chunks off any row an earlier request
//! opened. Each call returns the request's completion; the controller
//! keeps the aggregate bandwidth and energy counters.
//!
//! # Example
//!
//! ```
//! use pim_dram::{DramConfig, DramSimulator, Request, RequestKind};
//!
//! let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
//! let done = sim.service(Request::new(0, 0x1000, RequestKind::Read, 64));
//! assert!(done.start_ns >= done.issue_ns);
//! assert!(done.finish_ns > done.start_ns);
//! assert_eq!(sim.stats().requests, 1);
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
pub use request::{Request, RequestKind};
