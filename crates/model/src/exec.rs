//! Functional (reference) execution of network graphs.
//!
//! COMPASS never needs weight *values* — it optimizes latency and
//! energy — but a compiler repository needs executable semantics for
//! its IR: to validate shape inference against real data flow, and to
//! let downstream users check that a partitioned execution computes
//! the same function as the original graph.
//!
//! The engine is a straightforward f32 interpreter: channel-major
//! dense tensors, im2col-free direct convolution. It is meant for
//! correctness, not speed.

use crate::graph::{Network, NodeId};
use crate::layer::{LayerKind, PoolKind};
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A dense channel-major activation tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: TensorShape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::DataSize`] if `data.len()` does not match
    /// the shape's element count.
    pub fn new(shape: TensorShape, data: Vec<f32>) -> Result<Self, ExecError> {
        if data.len() != shape.elements() {
            return Err(ExecError::DataSize { expected: shape.elements(), actual: data.len() });
        }
        Ok(Self { shape, data })
    }

    /// An all-zero tensor.
    pub fn zeros(shape: TensorShape) -> Self {
        Self { shape, data: vec![0.0; shape.elements()] }
    }

    /// A tensor filled by `f(c, h, w)`.
    pub fn from_fn(shape: TensorShape, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.elements());
        for c in 0..shape.channels {
            for h in 0..shape.height {
                for w in 0..shape.width {
                    data.push(f(c, h, w));
                }
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// The raw data, channel-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element accessor (`c`, `h`, `w`).
    pub fn at(&self, c: usize, h: usize, w: usize) -> f32 {
        self.data[(c * self.shape.height + h) * self.shape.width + w]
    }

    fn at_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f32 {
        &mut self.data[(c * self.shape.height + h) * self.shape.width + w]
    }

    /// Zero-padded accessor: out-of-range coordinates read 0.
    fn at_padded(&self, c: usize, h: isize, w: isize) -> f32 {
        if h < 0 || w < 0 || h as usize >= self.shape.height || w as usize >= self.shape.width {
            0.0
        } else {
            self.at(c, h as usize, w as usize)
        }
    }
}

/// Weight values for the weighted layers of a network.
///
/// Conv weights are indexed `[out_ch][in_ch][kh][kw]` flattened;
/// linear weights `[out][in]` flattened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Weights {
    tensors: BTreeMap<NodeId, Vec<f32>>,
}

impl Weights {
    /// Creates an empty weight store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deterministically pseudo-random weights for every weighted
    /// layer (useful for tests; values in roughly ±0.5, scaled by
    /// fan-in like standard initializers).
    pub fn synthetic(network: &Network, seed: u64) -> Self {
        let mut tensors = BTreeMap::new();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        for node in network.weighted_nodes() {
            let count = node.kind.weight_params();
            let (rows, _) = node.kind.matrix_dims().expect("weighted");
            let scale = 1.0 / (rows as f32).sqrt();
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32 / (1u64 << 24) as f32;
                values.push((r - 0.5) * 2.0 * scale);
            }
            tensors.insert(node.id, values);
        }
        Self { tensors }
    }

    /// Sets a layer's weights.
    ///
    /// # Errors
    ///
    /// [`ExecError::WeightSize`] if the count does not match the
    /// layer's parameter count, [`ExecError::NotWeighted`] for
    /// weight-free layers.
    pub fn set(
        &mut self,
        network: &Network,
        node: NodeId,
        values: Vec<f32>,
    ) -> Result<(), ExecError> {
        let kind = &network.node(node).kind;
        if !kind.is_weighted() {
            return Err(ExecError::NotWeighted(node));
        }
        let expected = kind.weight_params();
        if values.len() != expected {
            return Err(ExecError::WeightSize { node, expected, actual: values.len() });
        }
        self.tensors.insert(node, values);
        Ok(())
    }

    /// A layer's weights, if set.
    pub fn get(&self, node: NodeId) -> Option<&[f32]> {
        self.tensors.get(&node).map(Vec::as_slice)
    }

    /// Iterates `(node, weights)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[f32])> {
        self.tensors.iter().map(|(&n, v)| (n, v.as_slice()))
    }
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Tensor data length does not match its shape.
    DataSize {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
    /// Weight vector length mismatch.
    WeightSize {
        /// The layer.
        node: NodeId,
        /// Expected parameter count.
        expected: usize,
        /// Provided count.
        actual: usize,
    },
    /// Weights missing for a weighted layer.
    MissingWeights(NodeId),
    /// Tried to set weights on a weight-free layer.
    NotWeighted(NodeId),
    /// Input tensor shape does not match the network's input node.
    InputShape {
        /// Shape the network expects.
        expected: TensorShape,
        /// Shape provided.
        actual: TensorShape,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DataSize { expected, actual } => {
                write!(f, "tensor data has {actual} elements, shape needs {expected}")
            }
            ExecError::WeightSize { node, expected, actual } => {
                write!(f, "weights for {node}: got {actual}, need {expected}")
            }
            ExecError::MissingWeights(node) => write!(f, "no weights set for {node}"),
            ExecError::NotWeighted(node) => write!(f, "{node} has no weights"),
            ExecError::InputShape { expected, actual } => {
                write!(f, "input shape {actual} does not match network input {expected}")
            }
        }
    }
}

impl Error for ExecError {}

/// Executes `network` on one input sample, returning every node's
/// output (index = node id).
///
/// # Errors
///
/// Fails if weights are missing for some layer or the input shape is
/// wrong.
pub fn execute(
    network: &Network,
    weights: &Weights,
    input: &Tensor,
) -> Result<Vec<Tensor>, ExecError> {
    let mut outputs: Vec<Tensor> = Vec::with_capacity(network.len());
    for node in network.nodes() {
        let value = match &node.kind {
            LayerKind::Input { shape } => {
                if input.shape() != *shape {
                    return Err(ExecError::InputShape { expected: *shape, actual: input.shape() });
                }
                input.clone()
            }
            LayerKind::Conv2d { in_channels, out_channels, kernel, stride, padding } => {
                let x = &outputs[node.inputs[0].index()];
                let w = weights.get(node.id).ok_or(ExecError::MissingWeights(node.id))?;
                conv2d(
                    x,
                    w,
                    *in_channels,
                    *out_channels,
                    *kernel,
                    *stride,
                    *padding,
                    node.output_shape,
                )
            }
            LayerKind::Linear { in_features, out_features } => {
                let x = &outputs[node.inputs[0].index()];
                let w = weights.get(node.id).ok_or(ExecError::MissingWeights(node.id))?;
                linear(x, w, *in_features, *out_features)
            }
            LayerKind::Pool2d { kind, kernel, stride, padding } => pool2d(
                &outputs[node.inputs[0].index()],
                *kind,
                *kernel,
                *stride,
                *padding,
                node.output_shape,
            ),
            LayerKind::GlobalAvgPool => {
                let x = &outputs[node.inputs[0].index()];
                let spatial = x.shape().spatial() as f32;
                Tensor::from_fn(node.output_shape, |c, _, _| {
                    let mut sum = 0.0;
                    for h in 0..x.shape().height {
                        for w in 0..x.shape().width {
                            sum += x.at(c, h, w);
                        }
                    }
                    sum / spatial
                })
            }
            LayerKind::ReLU => {
                let x = &outputs[node.inputs[0].index()];
                Tensor::from_fn(node.output_shape, |c, h, w| x.at(c, h, w).max(0.0))
            }
            LayerKind::BatchNorm2d { .. } => {
                // Inference-time BN folds into scale/shift; identity
                // here (folded parameters live with the conv).
                outputs[node.inputs[0].index()].clone()
            }
            LayerKind::Add => {
                let a = &outputs[node.inputs[0].index()];
                let b = &outputs[node.inputs[1].index()];
                Tensor::from_fn(node.output_shape, |c, h, w| a.at(c, h, w) + b.at(c, h, w))
            }
            LayerKind::Concat => {
                let mut out = Tensor::zeros(node.output_shape);
                let mut c_off = 0;
                for &input_id in &node.inputs {
                    let x = &outputs[input_id.index()];
                    for c in 0..x.shape().channels {
                        for h in 0..x.shape().height {
                            for w in 0..x.shape().width {
                                *out.at_mut(c_off + c, h, w) = x.at(c, h, w);
                            }
                        }
                    }
                    c_off += x.shape().channels;
                }
                out
            }
            LayerKind::Flatten => {
                let x = &outputs[node.inputs[0].index()];
                Tensor { shape: node.output_shape, data: x.data.clone() }
            }
            LayerKind::Softmax => {
                let x = &outputs[node.inputs[0].index()];
                let max = x.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = x.data.iter().map(|v| (v - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                Tensor { shape: node.output_shape, data: exps.iter().map(|e| e / sum).collect() }
            }
        };
        debug_assert_eq!(value.shape(), node.output_shape, "{}", node.name);
        outputs.push(value);
    }
    Ok(outputs)
}

#[allow(clippy::too_many_arguments)]
fn conv2d(
    x: &Tensor,
    w: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_shape: TensorShape,
) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    for oc in 0..out_channels {
        for oh in 0..out_shape.height {
            for ow in 0..out_shape.width {
                let mut acc = 0.0;
                for ic in 0..in_channels {
                    for kh in 0..kernel {
                        for kw in 0..kernel {
                            let ih = (oh * stride + kh) as isize - padding as isize;
                            let iw = (ow * stride + kw) as isize - padding as isize;
                            let weight = w[((oc * in_channels + ic) * kernel + kh) * kernel + kw];
                            acc += weight * x.at_padded(ic, ih, iw);
                        }
                    }
                }
                *out.at_mut(oc, oh, ow) = acc;
            }
        }
    }
    out
}

fn linear(x: &Tensor, w: &[f32], in_features: usize, out_features: usize) -> Tensor {
    let mut data = vec![0.0f32; out_features];
    for (o, out) in data.iter_mut().enumerate() {
        let row = &w[o * in_features..(o + 1) * in_features];
        *out = row.iter().zip(&x.data).map(|(a, b)| a * b).sum();
    }
    Tensor { shape: TensorShape::features(out_features), data }
}

fn pool2d(
    x: &Tensor,
    kind: PoolKind,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_shape: TensorShape,
) -> Tensor {
    Tensor::from_fn(out_shape, |c, oh, ow| {
        let mut best = f32::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for kh in 0..kernel {
            for kw in 0..kernel {
                let ih = (oh * stride + kh) as isize - padding as isize;
                let iw = (ow * stride + kw) as isize - padding as isize;
                let v = x.at_padded(c, ih, iw);
                best = best.max(v);
                sum += v;
                count += 1;
            }
        }
        match kind {
            PoolKind::Max => best,
            PoolKind::Avg => sum / count as f32,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::zoo;

    #[test]
    fn identity_conv_preserves_input() {
        // 1x1 conv with identity weights.
        let mut b = NetworkBuilder::new("id");
        let input = b.input(TensorShape::new(2, 3, 3));
        let conv = b.conv2d("c", input, 2, 1, 1, 0);
        let net = b.build().unwrap();
        let mut weights = Weights::new();
        // Identity 2x2 channel mixing.
        weights.set(&net, conv, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let x = Tensor::from_fn(TensorShape::new(2, 3, 3), |c, h, w| (c * 9 + h * 3 + w) as f32);
        let outs = execute(&net, &weights, &x).unwrap();
        assert_eq!(outs[conv.index()], x);
    }

    #[test]
    fn conv_matches_hand_computation() {
        // Single channel 3x3 input, 2x2 kernel of ones, stride 1, no pad:
        // each output = sum of a 2x2 window.
        let mut b = NetworkBuilder::new("sum");
        let input = b.input(TensorShape::new(1, 3, 3));
        let conv = b.conv2d("c", input, 1, 2, 1, 0);
        let net = b.build().unwrap();
        let mut weights = Weights::new();
        weights.set(&net, conv, vec![1.0; 4]).unwrap();
        let x = Tensor::new(
            TensorShape::new(1, 3, 3),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let outs = execute(&net, &weights, &x).unwrap();
        assert_eq!(outs[conv.index()].data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn relu_pool_linear_softmax_chain() {
        let mut b = NetworkBuilder::new("chain");
        let input = b.input(TensorShape::new(1, 4, 4));
        let r = b.relu("r", input);
        let p = b.max_pool2d("p", r, 2, 2);
        let f = b.flatten("f", p);
        let l = b.linear("l", f, 2);
        let s = b.softmax("s", l);
        let net = b.build().unwrap();
        let mut weights = Weights::new();
        // linear: out0 = sum(x), out1 = -sum(x)
        weights.set(&net, l, vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]).unwrap();
        let x = Tensor::from_fn(TensorShape::new(1, 4, 4), |_, h, w| (h * 4 + w) as f32 - 8.0);
        let outs = execute(&net, &weights, &x).unwrap();
        let prob = &outs[s.index()];
        assert!((prob.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
        // max-pool of the positive-heavy map makes out0 > out1.
        assert!(prob.data()[0] > prob.data()[1]);
    }

    #[test]
    fn residual_add_and_concat() {
        let net = zoo::tiny_resnet();
        let weights = Weights::synthetic(&net, 1);
        let x =
            Tensor::from_fn(TensorShape::new(3, 32, 32), |c, h, w| ((c + h + w) % 7) as f32 / 7.0);
        let outs = execute(&net, &weights, &x).unwrap();
        let last = outs.last().unwrap();
        assert_eq!(last.shape(), TensorShape::features(10));
        assert!((last.data().iter().sum::<f32>() - 1.0).abs() < 1e-5, "softmax sums to 1");
    }

    #[test]
    fn squeezenet_executes_end_to_end() {
        // Full concat-heavy network on a reduced input through the
        // same code paths (use the real 224 input: ~1 s in debug is
        // too slow, so test fire modules through tiny shapes instead).
        let mut b = NetworkBuilder::new("mini_fire");
        let input = b.input(TensorShape::new(4, 8, 8));
        let s = b.conv2d("squeeze", input, 2, 1, 1, 0);
        let sr = b.relu("squeeze_relu", s);
        let e1 = b.conv2d("e1", sr, 3, 1, 1, 0);
        let e3 = b.conv2d("e3", sr, 3, 3, 1, 1);
        let cat = b.concat("cat", vec![e1, e3]);
        let gap = b.global_avg_pool("gap", cat);
        let net = b.build().unwrap();
        let weights = Weights::synthetic(&net, 2);
        let x = Tensor::from_fn(TensorShape::new(4, 8, 8), |c, h, w| {
            (c as f32) - (h as f32) * 0.1 + (w as f32) * 0.01
        });
        let outs = execute(&net, &weights, &x).unwrap();
        assert_eq!(outs[gap.index()].shape(), TensorShape::features(6));
    }

    #[test]
    fn missing_weights_error() {
        let net = zoo::tiny_cnn();
        let weights = Weights::new();
        let x = Tensor::zeros(TensorShape::new(3, 32, 32));
        assert!(matches!(execute(&net, &weights, &x), Err(ExecError::MissingWeights(_))));
    }

    #[test]
    fn wrong_input_shape_error() {
        let net = zoo::tiny_cnn();
        let weights = Weights::synthetic(&net, 3);
        let x = Tensor::zeros(TensorShape::new(3, 16, 16));
        assert!(matches!(execute(&net, &weights, &x), Err(ExecError::InputShape { .. })));
    }

    #[test]
    fn weight_setters_validate() {
        let net = zoo::tiny_cnn();
        let mut weights = Weights::new();
        let conv0 = net.weighted_nodes().next().unwrap().id;
        assert!(matches!(
            weights.set(&net, conv0, vec![0.0; 3]),
            Err(ExecError::WeightSize { .. })
        ));
        let relu = net.nodes().iter().find(|n| n.kind == LayerKind::ReLU).unwrap().id;
        assert!(matches!(weights.set(&net, relu, vec![]), Err(ExecError::NotWeighted(_))));
    }

    #[test]
    fn tensor_constructors_validate() {
        assert!(Tensor::new(TensorShape::new(1, 2, 2), vec![0.0; 3]).is_err());
        let t = Tensor::from_fn(TensorShape::new(1, 2, 2), |_, h, w| (h + w) as f32);
        assert_eq!(t.at(0, 1, 1), 2.0);
    }
}
