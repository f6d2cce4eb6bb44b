//! Activation tensor shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of an activation tensor in channel-major (`C × H × W`) layout.
///
/// Fully-connected activations are represented as `C × 1 × 1`.
///
/// # Example
///
/// ```
/// use pim_model::TensorShape;
///
/// let s = TensorShape::new(3, 224, 224);
/// assert_eq!(s.elements(), 3 * 224 * 224);
/// assert_eq!(TensorShape::features(4096), TensorShape::new(4096, 1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TensorShape {
    /// Number of channels (or features for 1-D activations).
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl TensorShape {
    /// Creates a `C × H × W` shape.
    pub const fn new(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width }
    }

    /// Creates a 1-D feature shape `C × 1 × 1` (post-flatten activations).
    pub const fn features(channels: usize) -> Self {
        Self::new(channels, 1, 1)
    }

    /// Total number of scalar elements.
    pub const fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Number of spatial positions (`H × W`).
    pub const fn spatial(&self) -> usize {
        self.height * self.width
    }

    /// Size of the activation tensor in bytes at the given activation
    /// bit precision, rounded up to whole bytes.
    pub const fn bytes(&self, activation_bits: usize) -> usize {
        (self.elements() * activation_bits).div_ceil(8)
    }

    /// Output spatial extent of a square convolution/pool window applied
    /// along one dimension.
    pub(crate) const fn conv_out(
        dim: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> usize {
        (dim + 2 * padding - kernel) / stride + 1
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_spatial() {
        let s = TensorShape::new(64, 56, 56);
        assert_eq!(s.elements(), 64 * 56 * 56);
        assert_eq!(s.spatial(), 56 * 56);
    }

    #[test]
    fn bytes_rounds_up() {
        // 3 elements at 4 bits = 12 bits = 2 bytes.
        assert_eq!(TensorShape::new(3, 1, 1).bytes(4), 2);
        assert_eq!(TensorShape::new(2, 1, 1).bytes(4), 1);
        assert_eq!(TensorShape::new(1, 1, 1).bytes(8), 1);
    }

    #[test]
    fn conv_out_matches_torch_formula() {
        // 224x224, k=3, s=1, p=1 -> 224
        assert_eq!(TensorShape::conv_out(224, 3, 1, 1), 224);
        // 224x224, k=7, s=2, p=3 -> 112
        assert_eq!(TensorShape::conv_out(224, 7, 2, 3), 112);
        // 112, k=3, s=2, p=1 -> 56
        assert_eq!(TensorShape::conv_out(112, 3, 2, 1), 56);
        // maxpool 2/2 p0: 224 -> 112
        assert_eq!(TensorShape::conv_out(224, 2, 2, 0), 112);
        // squeezenet ceil-mode style pool is modeled with floor; 13, k=3, s=2 -> 6
        assert_eq!(TensorShape::conv_out(13, 3, 2, 0), 6);
    }

    #[test]
    fn display_format() {
        assert_eq!(TensorShape::new(3, 224, 224).to_string(), "3x224x224");
    }
}
