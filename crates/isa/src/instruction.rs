//! Instruction definitions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a PIM core on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Dense index of the core.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Matching tag for a [`Instruction::Send`]/[`Instruction::Recv`] pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Tag(pub u64);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Vector-functional-unit operation classes (the non-crossbar layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorOpKind {
    /// ReLU activation.
    Relu,
    /// Batch-normalization scale/shift.
    BatchNorm,
    /// Max/avg pooling reduction.
    Pool,
    /// Element-wise addition (residual).
    Add,
    /// Channel concatenation (copy/pack).
    Concat,
    /// Softmax.
    Softmax,
    /// Generic data movement within local memory.
    Move,
}

impl fmt::Display for VectorOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VectorOpKind::Relu => "relu",
            VectorOpKind::BatchNorm => "bn",
            VectorOpKind::Pool => "pool",
            VectorOpKind::Add => "add",
            VectorOpKind::Concat => "concat",
            VectorOpKind::Softmax => "softmax",
            VectorOpKind::Move => "move",
        };
        write!(f, "{s}")
    }
}

/// One macro-instruction in a per-core stream.
///
/// Latency and energy semantics are defined by the `pim-sim` executor;
/// this crate only fixes the operational semantics:
///
/// * `LoadWeight`/`LoadData` read from global memory (DRAM) into core
///   staging/local memory; `StoreData` writes back.
/// * `WriteWeight` programs previously loaded weight bits into the
///   core's crossbar cells (the *weight replace* phase of §II-A).
/// * `Mvmul` runs `waves` sequential MVM waves totalling `activations`
///   crossbar activations.
/// * `Send`/`Recv` rendezvous by `(from, to, tag)`; `Recv` blocks until
///   the matching `Send` has delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// Stream weight bytes for the next partition from global memory.
    LoadWeight {
        /// Bytes read from DRAM.
        bytes: usize,
    },
    /// Program loaded weights into crossbar cells.
    WriteWeight {
        /// Cells (bits) written.
        bits: usize,
        /// Distinct crossbars being programmed (writes to different
        /// crossbars proceed in parallel; rows within one crossbar are
        /// sequential).
        crossbars: usize,
    },
    /// Load activation data from global memory (partition entry).
    LoadData {
        /// Bytes read from DRAM.
        bytes: usize,
    },
    /// Execute matrix-vector multiplications.
    Mvmul {
        /// Sequential MVM waves (each wave takes one crossbar MVM
        /// latency).
        waves: usize,
        /// Total crossbar activations across all waves (energy).
        activations: usize,
        /// Model node this computation belongs to (for reporting).
        node: usize,
    },
    /// Vector operation on the VFUs.
    VectorOp {
        /// Operation class.
        op: VectorOpKind,
        /// Elements processed.
        elements: usize,
    },
    /// Send bytes to another core over the on-chip interconnect.
    Send {
        /// Destination core.
        to: CoreId,
        /// Payload size.
        bytes: usize,
        /// Rendezvous tag.
        tag: Tag,
    },
    /// Receive bytes from another core (blocks until delivered).
    Recv {
        /// Source core.
        from: CoreId,
        /// Payload size.
        bytes: usize,
        /// Rendezvous tag.
        tag: Tag,
    },
    /// Store activation data to global memory (partition exit).
    StoreData {
        /// Bytes written to DRAM.
        bytes: usize,
    },
}

impl Instruction {
    /// The mnemonic used by the paper's Fig. 3 instruction listings.
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::LoadWeight { .. } => "LOAD_WEIGHT",
            Instruction::WriteWeight { .. } => "WRITE_WEIGHT",
            Instruction::LoadData { .. } => "LOAD_DATA",
            Instruction::Mvmul { .. } => "MVMUL",
            Instruction::VectorOp { .. } => "VOP",
            Instruction::Send { .. } => "SEND_DATA",
            Instruction::Recv { .. } => "RECV_DATA",
            Instruction::StoreData { .. } => "STORE_DATA",
        }
    }

    /// Bytes this instruction moves to or from global memory (DRAM).
    pub const fn dram_bytes(&self) -> usize {
        match self {
            Instruction::LoadWeight { bytes }
            | Instruction::LoadData { bytes }
            | Instruction::StoreData { bytes } => *bytes,
            _ => 0,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::LoadWeight { bytes } => write!(f, "LOAD_WEIGHT {bytes}B"),
            Instruction::WriteWeight { bits, crossbars } => {
                write!(f, "WRITE_WEIGHT {bits}b -> {crossbars} xbars")
            }
            Instruction::LoadData { bytes } => write!(f, "LOAD_DATA {bytes}B"),
            Instruction::Mvmul { waves, activations, node } => {
                write!(f, "MVMUL n{node} waves={waves} act={activations}")
            }
            Instruction::VectorOp { op, elements } => write!(f, "VOP {op} x{elements}"),
            Instruction::Send { to, bytes, tag } => write!(f, "SEND_DATA {bytes}B -> {to} {tag}"),
            Instruction::Recv { from, bytes, tag } => {
                write!(f, "RECV_DATA {bytes}B <- {from} {tag}")
            }
            Instruction::StoreData { bytes } => write!(f, "STORE_DATA {bytes}B"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_figure3() {
        assert_eq!(Instruction::LoadWeight { bytes: 1 }.mnemonic(), "LOAD_WEIGHT");
        assert_eq!(Instruction::WriteWeight { bits: 1, crossbars: 1 }.mnemonic(), "WRITE_WEIGHT");
        assert_eq!(Instruction::Mvmul { waves: 1, activations: 1, node: 0 }.mnemonic(), "MVMUL");
        assert_eq!(
            Instruction::Send { to: CoreId(1), bytes: 1, tag: Tag(0) }.mnemonic(),
            "SEND_DATA"
        );
    }

    #[test]
    fn dram_byte_accounting() {
        assert_eq!(Instruction::LoadWeight { bytes: 128 }.dram_bytes(), 128);
        assert_eq!(Instruction::StoreData { bytes: 64 }.dram_bytes(), 64);
        assert_eq!(Instruction::Mvmul { waves: 9, activations: 9, node: 0 }.dram_bytes(), 0);
    }

    #[test]
    fn display_is_parseable_by_eye() {
        let send = Instruction::Send { to: CoreId(3), bytes: 256, tag: Tag(7) };
        assert_eq!(send.to_string(), "SEND_DATA 256B -> core3 t7");
    }
}
