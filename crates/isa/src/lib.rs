//! # pim-isa — instruction set for crossbar PIM accelerators
//!
//! A PUMA/PIMCOMP-style instruction set as used by the COMPASS paper's
//! scheduler (Fig. 3 step (iii)): per-core streams of
//! `LOAD WEIGHT / WRITE WEIGHT / LOAD DATA / MVMUL / SEND / RECV /
//! STORE DATA` operations, plus vector ops for the non-crossbar layers.
//!
//! Instructions are *macro-instructions*: each carries aggregate
//! operand sizes (bytes moved, MVM waves executed) rather than
//! element-level operands. This matches the granularity at which both
//! the paper's latency estimator and its simulator reason, keeps
//! programs compact, and still exposes every event the timing/energy
//! models need.
//!
//! # Example
//!
//! ```
//! use pim_isa::{CoreProgram, Instruction, CoreId};
//!
//! let mut prog = CoreProgram::new(CoreId(0));
//! prog.push(Instruction::LoadWeight { bytes: 4096 });
//! prog.push(Instruction::WriteWeight { bits: 4096 * 8, crossbars: 4 });
//! prog.push(Instruction::Mvmul { waves: 196, activations: 784, node: 3 });
//! assert_eq!(prog.len(), 3);
//! assert_eq!(prog.stats().mvm_waves, 196);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instruction;
pub mod program;
pub mod stats;

pub use instruction::{CoreId, Instruction, Tag, VectorOpKind};
pub use program::{ChipProgram, CoreProgram};
pub use stats::InstructionStats;
