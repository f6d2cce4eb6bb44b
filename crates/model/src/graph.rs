//! The network DAG: nodes, shape inference, validation, traversal.

use crate::error::BuildNetworkError;
use crate::layer::LayerKind;
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`Network`].
///
/// Node ids are dense indices assigned in construction order, which is
/// also a valid topological order (a node may only consume
/// already-created nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One layer instance inside a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id (equals its index in [`Network::nodes`]).
    pub id: NodeId,
    /// Human-readable name, e.g. `"conv3_2"`.
    pub name: String,
    /// The layer kind and attributes.
    pub kind: LayerKind,
    /// Producer nodes feeding this layer.
    pub inputs: Vec<NodeId>,
    /// Inferred output shape of one sample.
    pub output_shape: TensorShape,
}

/// A validated DNN expressed as a directed acyclic graph of layers.
///
/// Construct via [`crate::NetworkBuilder`] or one of the [`crate::zoo`]
/// functions. Invariants guaranteed after construction:
///
/// * every node's inputs reference earlier nodes (ids form a
///   topological order),
/// * arities and shapes are consistent (`Add` operands match, conv
///   channels line up, windows fit),
/// * there is at least one node and at least one [`LayerKind::Input`].
///
/// # Example
///
/// ```
/// use pim_model::zoo;
///
/// let net = zoo::squeezenet();
/// assert!(net.weighted_nodes().count() > 20); // conv1 + 8 fires*3 + conv10
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    /// consumers[i] lists the nodes that consume node i's output.
    consumers: Vec<Vec<NodeId>>,
}

impl Network {
    /// Validates `nodes` and assembles a network.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildNetworkError`] if the graph is empty, ill-typed,
    /// has dangling or forward references, or shape inference fails.
    /// Shape inference is re-run during validation, so `output_shape`
    /// fields supplied by the caller are checked, not trusted.
    pub fn from_nodes(
        name: impl Into<String>,
        mut nodes: Vec<Node>,
    ) -> Result<Self, BuildNetworkError> {
        if nodes.is_empty() {
            return Err(BuildNetworkError::Empty);
        }
        for (idx, node) in nodes.iter().enumerate() {
            if node.id.index() != idx {
                // Ids must be dense and in order; treat as a cycle-class
                // structural error.
                return Err(BuildNetworkError::Cyclic);
            }
            for &input in &node.inputs {
                if input.index() >= nodes.len() {
                    return Err(BuildNetworkError::UnknownInput { node: node.id, input });
                }
                if input.index() >= idx {
                    return Err(BuildNetworkError::Cyclic);
                }
            }
        }
        // Re-infer shapes front to back.
        let mut shapes: Vec<TensorShape> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let input_shapes: Vec<TensorShape> =
                node.inputs.iter().map(|i| shapes[i.index()]).collect();
            let out = infer_shape(node.id, &node.kind, &input_shapes)?;
            shapes.push(out);
        }
        for (node, shape) in nodes.iter_mut().zip(&shapes) {
            node.output_shape = *shape;
        }
        let mut consumers = vec![Vec::new(); nodes.len()];
        for node in &nodes {
            for &input in &node.inputs {
                consumers[input.index()].push(node.id);
            }
        }
        Ok(Self { name: name.into(), nodes, consumers })
    }

    /// Network name (e.g. `"resnet18"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the network has no nodes (never true for a validated
    /// network; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id.index()]
    }

    /// Iterates over the weighted (crossbar-mapped) nodes — Conv2d and
    /// Linear — in topological order.
    pub fn weighted_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind.is_weighted())
    }

    /// Iterates over input nodes.
    pub fn input_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| matches!(n.kind, LayerKind::Input { .. }))
    }

    /// Nodes with no consumers (network outputs).
    pub fn output_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| self.consumers(n.id).is_empty())
    }

    /// The nearest weighted *ancestors* of `id`: walks backwards
    /// through weight-free producers until weighted (or input) nodes
    /// are reached. Used for inter-partition dependence checks.
    pub fn weighted_ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).inputs.clone();
        let mut seen = vec![false; self.nodes.len()];
        while let Some(prev) = stack.pop() {
            if seen[prev.index()] {
                continue;
            }
            seen[prev.index()] = true;
            let node = self.node(prev);
            if node.kind.is_weighted() || matches!(node.kind, LayerKind::Input { .. }) {
                out.push(prev);
            } else {
                stack.extend_from_slice(&node.inputs);
            }
        }
        out.sort_unstable();
        out
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "network {} ({} nodes)", self.name, self.nodes.len())?;
        for node in &self.nodes {
            write!(f, "  {}: {} [{}] <-", node.id, node.name, node.kind)?;
            for input in &node.inputs {
                write!(f, " {input}")?;
            }
            writeln!(f, " => {}", node.output_shape)?;
        }
        Ok(())
    }
}

/// Infers the output shape of `kind` from its input shapes.
pub(crate) fn infer_shape(
    id: NodeId,
    kind: &LayerKind,
    inputs: &[TensorShape],
) -> Result<TensorShape, BuildNetworkError> {
    let arity_err = |expected: usize| BuildNetworkError::WrongArity {
        node: id,
        expected,
        actual: inputs.len(),
    };
    match kind {
        LayerKind::Input { shape } => {
            if !inputs.is_empty() {
                return Err(BuildNetworkError::WrongArity {
                    node: id,
                    expected: 0,
                    actual: inputs.len(),
                });
            }
            Ok(*shape)
        }
        LayerKind::Conv2d { in_channels, out_channels, kernel, stride, padding } => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            if input.channels != *in_channels {
                return Err(BuildNetworkError::ShapeMismatch {
                    node: id,
                    detail: format!(
                        "conv expects {in_channels} input channels, got {}",
                        input.channels
                    ),
                });
            }
            let h = checked_window(id, input, input.height, *kernel, *stride, *padding)?;
            let w = checked_window(id, input, input.width, *kernel, *stride, *padding)?;
            Ok(TensorShape::new(*out_channels, h, w))
        }
        LayerKind::Linear { in_features, out_features } => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            if input.elements() != *in_features {
                return Err(BuildNetworkError::ShapeMismatch {
                    node: id,
                    detail: format!(
                        "linear expects {in_features} input features, got {} ({input})",
                        input.elements()
                    ),
                });
            }
            Ok(TensorShape::features(*out_features))
        }
        LayerKind::Pool2d { kernel, stride, padding, .. } => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            let h = checked_window(id, input, input.height, *kernel, *stride, *padding)?;
            let w = checked_window(id, input, input.width, *kernel, *stride, *padding)?;
            Ok(TensorShape::new(input.channels, h, w))
        }
        LayerKind::GlobalAvgPool => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            Ok(TensorShape::features(input.channels))
        }
        LayerKind::ReLU | LayerKind::Softmax => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            Ok(input)
        }
        LayerKind::BatchNorm2d { channels } => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            if input.channels != *channels {
                return Err(BuildNetworkError::ShapeMismatch {
                    node: id,
                    detail: format!("batchnorm over {channels} channels applied to {input}"),
                });
            }
            Ok(input)
        }
        LayerKind::Add => {
            if inputs.len() != 2 {
                return Err(arity_err(2));
            }
            if inputs[0] != inputs[1] {
                return Err(BuildNetworkError::ShapeMismatch {
                    node: id,
                    detail: format!("add operands differ: {} vs {}", inputs[0], inputs[1]),
                });
            }
            Ok(inputs[0])
        }
        LayerKind::Concat => {
            if inputs.len() < 2 {
                return Err(arity_err(2));
            }
            let (h, w) = (inputs[0].height, inputs[0].width);
            let mut channels = 0;
            for s in inputs {
                if s.height != h || s.width != w {
                    return Err(BuildNetworkError::ShapeMismatch {
                        node: id,
                        detail: format!("concat spatial dims differ: {} vs {}x{}", s, h, w),
                    });
                }
                channels += s.channels;
            }
            Ok(TensorShape::new(channels, h, w))
        }
        LayerKind::Flatten => {
            let [input] = single(inputs).ok_or_else(|| arity_err(1))?;
            Ok(TensorShape::features(input.elements()))
        }
    }
}

fn single(inputs: &[TensorShape]) -> Option<[TensorShape; 1]> {
    match inputs {
        [only] => Some([*only]),
        _ => None,
    }
}

fn checked_window(
    id: NodeId,
    input: TensorShape,
    dim: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize, BuildNetworkError> {
    if kernel == 0 || stride == 0 || dim + 2 * padding < kernel {
        return Err(BuildNetworkError::WindowTooLarge { node: id, input_shape: input });
    }
    Ok(TensorShape::conv_out(dim, kernel, stride, padding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny");
        let input = b.input(TensorShape::new(3, 8, 8));
        let c1 = b.conv2d("c1", input, 16, 3, 1, 1);
        let r1 = b.relu("r1", c1);
        let c2 = b.conv2d("c2", r1, 16, 3, 1, 1);
        let add = b.add("add", c2, r1);
        let _out = b.global_avg_pool("gap", add);
        b.build().expect("tiny net builds")
    }

    #[test]
    fn topological_ids_and_shapes() {
        let net = tiny();
        assert_eq!(net.len(), 6);
        assert_eq!(net.node(NodeId(1)).output_shape, TensorShape::new(16, 8, 8));
        assert_eq!(net.node(NodeId(5)).output_shape, TensorShape::features(16));
    }

    #[test]
    fn consumers_tracked() {
        let net = tiny();
        // r1 (id 2) feeds c2 and add.
        assert_eq!(net.consumers(NodeId(2)), &[NodeId(3), NodeId(4)]);
        // gap is an output node.
        let outs: Vec<_> = net.output_nodes().map(|n| n.id).collect();
        assert_eq!(outs, vec![NodeId(5)]);
    }

    #[test]
    fn weighted_ancestors_skip_elementwise() {
        let net = tiny();
        // add's weighted ancestors: c2 directly, and c1 via relu.
        assert_eq!(net.weighted_ancestors(NodeId(4)), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn rejects_mismatched_add() {
        let mut b = NetworkBuilder::new("bad");
        let input = b.input(TensorShape::new(3, 8, 8));
        let c1 = b.conv2d("c1", input, 16, 3, 1, 1);
        let c2 = b.conv2d("c2", input, 8, 3, 1, 1);
        let _ = b.add("add", c1, c2);
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildNetworkError::ShapeMismatch { .. }));
    }

    #[test]
    fn rejects_bad_conv_channels() {
        let mut b = NetworkBuilder::new("bad");
        let input = b.input(TensorShape::new(3, 8, 8));
        let c1 = b.conv2d("c1", input, 16, 3, 1, 1);
        // c2 claims 32 in-channels but receives 16.
        let _ = b.add_node(
            "c2",
            LayerKind::Conv2d {
                in_channels: 32,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            vec![c1],
        );
        assert!(matches!(b.build().unwrap_err(), BuildNetworkError::ShapeMismatch { .. }));
    }

    #[test]
    fn rejects_oversized_window() {
        let mut b = NetworkBuilder::new("bad");
        let input = b.input(TensorShape::new(3, 4, 4));
        let _ = b.conv2d("c1", input, 16, 7, 1, 0); // 7x7 kernel on 4x4, no padding
        assert!(matches!(b.build().unwrap_err(), BuildNetworkError::WindowTooLarge { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Network::from_nodes("empty", Vec::new()).unwrap_err(), BuildNetworkError::Empty);
    }

    #[test]
    fn rejects_forward_reference() {
        let nodes = vec![Node {
            id: NodeId(0),
            name: "x".into(),
            kind: LayerKind::ReLU,
            inputs: vec![NodeId(0)], // self reference
            output_shape: TensorShape::features(1),
        }];
        assert_eq!(Network::from_nodes("bad", nodes).unwrap_err(), BuildNetworkError::Cyclic);
    }

    #[test]
    fn display_lists_every_node() {
        let net = tiny();
        let text = net.to_string();
        for node in net.nodes() {
            assert!(text.contains(&node.name));
        }
    }
}
