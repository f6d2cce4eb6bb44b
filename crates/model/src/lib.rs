//! # pim-model — DNN graph IR and model zoo for crossbar PIM compilation
//!
//! This crate provides the network representation consumed by the
//! [COMPASS](https://arxiv.org/abs/2501.06780) compiler reproduction:
//!
//! * [`TensorShape`] — channel-major activation shapes,
//! * [`LayerKind`] / [`Node`] — typed layer attributes,
//! * [`Network`] — a validated directed acyclic graph of layers with
//!   shape inference and topological iteration,
//! * [`NetworkBuilder`] — ergonomic graph construction,
//! * [`zoo`] — exact-shape builders for the paper's three benchmark
//!   networks (VGG16, ResNet18, SqueezeNet v1.1) plus small synthetic
//!   networks used by tests,
//! * [`stats`] — parameter/weight/MAC accounting at a configurable
//!   weight precision (the paper uses 4-bit weights).
//!
//! Weight *values* are irrelevant to COMPASS (it optimizes latency and
//! energy, not accuracy), so the IR stores shapes only.
//!
//! # Example
//!
//! ```
//! use pim_model::{zoo, Precision, stats::NetworkStats};
//!
//! let net = zoo::resnet18();
//! let stats = NetworkStats::of(&net, Precision::Int4);
//! // Table II of the paper: ResNet18 total 5.569 MiB at 4-bit.
//! assert!((stats.total_weight_mib() - 5.569).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod exec;
pub mod graph;
pub mod layer;
pub mod shape;
pub mod stats;
pub mod zoo;

mod error;

pub use builder::NetworkBuilder;
pub use error::BuildNetworkError;
pub use exec::{execute, ExecError, Tensor, Weights};
pub use graph::{Network, Node, NodeId};
pub use layer::{LayerKind, PoolKind};
pub use shape::TensorShape;
pub use stats::Precision;
