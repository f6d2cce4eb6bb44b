//! Layer kinds and their attributes.

use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pooling flavor for [`LayerKind::Pool2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolKind::Max => write!(f, "max"),
            PoolKind::Avg => write!(f, "avg"),
        }
    }
}

/// A typed DNN layer.
///
/// Only [`LayerKind::Conv2d`] and [`LayerKind::Linear`] carry weights and
/// are mapped onto crossbar arrays; every other kind executes on the PIM
/// core's vector functional units (VFUs) and is attached to its producer
/// Conv/Linear partition by the COMPASS compiler (paper §III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Network input with a fixed activation shape.
    Input {
        /// Shape of one input sample.
        shape: TensorShape,
    },
    /// 2-D convolution with square kernels.
    Conv2d {
        /// Input channel count.
        in_channels: usize,
        /// Output channel count.
        out_channels: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Stride along both spatial dims.
        stride: usize,
        /// Zero padding along both spatial dims.
        padding: usize,
    },
    /// Fully-connected layer.
    Linear {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
    /// 2-D pooling (max or average) with a square window.
    Pool2d {
        /// Max or average pooling.
        kind: PoolKind,
        /// Square window extent.
        kernel: usize,
        /// Stride along both spatial dims.
        stride: usize,
        /// Zero padding along both spatial dims.
        padding: usize,
    },
    /// Global average pooling collapsing `C × H × W` to `C × 1 × 1`.
    GlobalAvgPool,
    /// Rectified linear activation (shape preserving).
    ReLU,
    /// Batch normalization (shape preserving; folded into VFU ops).
    BatchNorm2d {
        /// Channel count the normalization applies over.
        channels: usize,
    },
    /// Element-wise addition of exactly two equal-shape inputs
    /// (residual connections).
    Add,
    /// Channel-wise concatenation of two or more inputs sharing spatial
    /// dims (SqueezeNet fire modules).
    Concat,
    /// Flattens `C × H × W` into `C·H·W × 1 × 1`.
    Flatten,
    /// Softmax over features (shape preserving).
    Softmax,
}

impl LayerKind {
    /// Returns `true` for layers that carry a weight matrix mapped onto
    /// crossbar arrays (Conv2d and Linear).
    pub const fn is_weighted(&self) -> bool {
        matches!(self, LayerKind::Conv2d { .. } | LayerKind::Linear { .. })
    }

    /// Number of weight parameters (biases excluded — the paper's
    /// Table II sizes correspond to bias-free weight counts; biases live
    /// in VFU registers, not crossbar cells).
    pub fn weight_params(&self) -> usize {
        match self {
            LayerKind::Conv2d { in_channels, out_channels, kernel, .. } => {
                in_channels * out_channels * kernel * kernel
            }
            LayerKind::Linear { in_features, out_features } => in_features * out_features,
            _ => 0,
        }
    }

    /// Dimensions of the weight matrix as mapped onto crossbars:
    /// `(rows, cols)` where rows is the flattened input patch size and
    /// cols is the output dimension. Returns `None` for weight-free
    /// layers.
    ///
    /// A Conv2d with kernel `k` maps to a `(k·k·C_in) × C_out` matrix
    /// (im2col formulation), a Linear to `in × out`.
    pub fn matrix_dims(&self) -> Option<(usize, usize)> {
        match self {
            LayerKind::Conv2d { in_channels, out_channels, kernel, .. } => {
                Some((in_channels * kernel * kernel, *out_channels))
            }
            LayerKind::Linear { in_features, out_features } => Some((*in_features, *out_features)),
            _ => None,
        }
    }

    /// Number of matrix-vector multiplications a weighted layer performs
    /// per input sample: one per output spatial position for
    /// convolutions, one for fully-connected layers. Returns 0 for
    /// weight-free layers.
    pub fn mvms_per_sample(&self, output_shape: TensorShape) -> usize {
        if self.is_weighted() {
            output_shape.spatial()
        } else {
            0
        }
    }

    /// Multiply-accumulate operations per sample given the layer's
    /// output shape.
    pub fn macs_per_sample(&self, output_shape: TensorShape) -> usize {
        match self.matrix_dims() {
            Some((rows, _cols)) => rows * output_shape.channels * output_shape.spatial(),
            None => 0,
        }
    }

    /// Short mnemonic used in display output and reports.
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            LayerKind::Input { .. } => "input",
            LayerKind::Conv2d { .. } => "conv",
            LayerKind::Linear { .. } => "linear",
            LayerKind::Pool2d { kind: PoolKind::Max, .. } => "maxpool",
            LayerKind::Pool2d { kind: PoolKind::Avg, .. } => "avgpool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::ReLU => "relu",
            LayerKind::BatchNorm2d { .. } => "bn",
            LayerKind::Add => "add",
            LayerKind::Concat => "concat",
            LayerKind::Flatten => "flatten",
            LayerKind::Softmax => "softmax",
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Conv2d { in_channels, out_channels, kernel, stride, padding } => {
                write!(f, "conv {in_channels}->{out_channels} k{kernel} s{stride} p{padding}")
            }
            LayerKind::Linear { in_features, out_features } => {
                write!(f, "linear {in_features}->{out_features}")
            }
            LayerKind::Pool2d { kind, kernel, stride, .. } => {
                write!(f, "{kind}pool k{kernel} s{stride}")
            }
            other => write!(f, "{}", other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONV: LayerKind =
        LayerKind::Conv2d { in_channels: 64, out_channels: 128, kernel: 3, stride: 1, padding: 1 };

    #[test]
    fn weighted_classification() {
        assert!(CONV.is_weighted());
        assert!(LayerKind::Linear { in_features: 8, out_features: 4 }.is_weighted());
        assert!(!LayerKind::ReLU.is_weighted());
        assert!(!LayerKind::Add.is_weighted());
    }

    #[test]
    fn conv_weight_params_and_matrix() {
        assert_eq!(CONV.weight_params(), 64 * 128 * 9);
        assert_eq!(CONV.matrix_dims(), Some((64 * 9, 128)));
    }

    #[test]
    fn linear_matrix() {
        let l = LayerKind::Linear { in_features: 25088, out_features: 4096 };
        assert_eq!(l.matrix_dims(), Some((25088, 4096)));
        assert_eq!(l.weight_params(), 25088 * 4096);
    }

    #[test]
    fn mvm_counts() {
        let out = TensorShape::new(128, 56, 56);
        assert_eq!(CONV.mvms_per_sample(out), 56 * 56);
        let l = LayerKind::Linear { in_features: 512, out_features: 1000 };
        assert_eq!(l.mvms_per_sample(TensorShape::features(1000)), 1);
        assert_eq!(LayerKind::ReLU.mvms_per_sample(out), 0);
    }

    #[test]
    fn mac_counts() {
        let out = TensorShape::new(128, 56, 56);
        assert_eq!(CONV.macs_per_sample(out), 64 * 9 * 128 * 56 * 56);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(CONV.to_string(), "conv 64->128 k3 s1 p1");
        assert_eq!(
            LayerKind::Pool2d { kind: PoolKind::Max, kernel: 2, stride: 2, padding: 0 }.to_string(),
            "maxpool k2 s2"
        );
    }
}
