//! A deterministic dependency + resource graph for ready-set
//! dispatching.
//!
//! [`TaskGraph`] tracks a fixed set of nodes (dense `usize` ids), the
//! precedence edges between them, per-node resource claims, and an
//! optional count of *external* dependencies (inputs satisfied by the
//! outside world rather than by another node — e.g. an inter-chip
//! hand-off landing). A node is **ready** when every predecessor has
//! completed, every external dependency has been satisfied, and every
//! resource it claims exclusively is free.
//!
//! Claims follow read-write-lock semantics: any number of nodes may
//! hold a *shared* claim on a resource concurrently, an *exclusive*
//! claim excludes every other holder. This is what lets a scheduler
//! express "these stages own disjoint crossbar groups but all stream
//! through the one memory channel".
//!
//! All iteration orders are by ascending node id, so dispatch driven
//! by this graph is deterministic by construction — no hash-map
//! iteration anywhere.
//!
//! # Cost
//!
//! The graph keeps the *eligible* set — unstarted nodes with no
//! pending predecessor or external input — up to date as edges,
//! externals, appended nodes and completions change it, at O(log n)
//! per change. [`TaskGraph::take_ready`] therefore walks only the
//! eligible set (the nodes that may start, plus those of them still
//! waiting on a claimed resource), not every node ever created: a
//! long-running graph that grows one round at a time dispatches in
//! time proportional to its frontier, not its history.

use std::collections::{BTreeMap, BTreeSet};

/// How a node holds a resource while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    /// Sole ownership: conflicts with every other claim on the same
    /// resource.
    Exclusive,
    /// Concurrent use: conflicts only with exclusive claims on the
    /// same resource.
    Shared,
}

#[derive(Debug, Clone, Copy, Default)]
struct ResourceState {
    exclusive_holders: usize,
    shared_holders: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    /// Predecessor completions still outstanding.
    pending_deps: usize,
    /// External inputs still outstanding.
    pending_external: usize,
    /// Nodes to notify on completion.
    dependents: Vec<usize>,
    /// `(resource, kind)` pairs acquired while running.
    claims: Vec<(u64, ClaimKind)>,
    started: bool,
    completed: bool,
}

/// A dependency/resource graph dispatched as a ready set.
///
/// # Example
///
/// ```
/// use pim_engine::{ClaimKind, TaskGraph};
///
/// let mut g = TaskGraph::new(3);
/// g.add_dep(0, 2); // 2 runs after 0
/// g.add_dep(1, 2);
/// g.claim(0, 7, ClaimKind::Exclusive);
/// g.claim(1, 7, ClaimKind::Exclusive); // same resource: serialize
/// assert_eq!(g.take_ready(), vec![0]); // 1 blocked on resource 7
/// g.complete(0);
/// assert_eq!(g.take_ready(), vec![1]);
/// g.complete(1);
/// assert_eq!(g.take_ready(), vec![2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    resources: BTreeMap<u64, ResourceState>,
    completed: usize,
    /// Unstarted nodes with no pending deps or externals: the only
    /// candidates [`Self::take_ready`] has to look at.
    eligible: BTreeSet<usize>,
}

impl TaskGraph {
    /// Creates a graph of `nodes` isolated, unclaimed nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes: vec![Node::default(); nodes],
            resources: BTreeMap::new(),
            completed: 0,
            eligible: (0..nodes).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a graph with no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a precedence edge: `after` may not start until `before`
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range, when the edge is a
    /// self-loop, or after dispatch has started.
    pub fn add_dep(&mut self, before: usize, after: usize) {
        assert!(before != after, "self-dependency on node {before}");
        assert!(!self.nodes[before].started && !self.nodes[after].started, "graph is frozen");
        self.nodes[before].dependents.push(after);
        self.nodes[after].pending_deps += 1;
        self.eligible.remove(&after);
    }

    /// Declares that `node` holds `resource` with `kind` while it
    /// runs. Claiming the same resource twice keeps the strongest
    /// kind.
    pub fn claim(&mut self, node: usize, resource: u64, kind: ClaimKind) {
        assert!(!self.nodes[node].started, "graph is frozen");
        let claims = &mut self.nodes[node].claims;
        if let Some(existing) = claims.iter_mut().find(|(r, _)| *r == resource) {
            if kind == ClaimKind::Exclusive {
                existing.1 = ClaimKind::Exclusive;
            }
            return;
        }
        claims.push((resource, kind));
    }

    /// Adds `count` external dependencies to `node`, each cleared by
    /// one [`Self::satisfy_external`] call.
    pub fn add_external(&mut self, node: usize, count: usize) {
        assert!(!self.nodes[node].started, "graph is frozen");
        self.nodes[node].pending_external += count;
        if count > 0 {
            self.eligible.remove(&node);
        }
    }

    /// Appends a fresh, isolated node to a (possibly running) graph
    /// and returns its id. Unlike construction-time nodes, pushed
    /// nodes may be wired with [`Self::add_dep_late`] while earlier
    /// nodes are already dispatching — this is how an open-loop
    /// scheduler grows a round graph as requests arrive.
    pub fn push_node(&mut self) -> usize {
        let node = self.nodes.len();
        self.nodes.push(Node::default());
        self.eligible.insert(node);
        node
    }

    /// Pre-sizes the node table for `additional` more
    /// [`Self::push_node`] calls, so growing a live graph one round at
    /// a time (the serving frontend's appended rounds) never
    /// reallocates mid-append.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Adds a precedence edge into a running graph: `after` may not
    /// start until `before` completes. Unlike [`Self::add_dep`] the
    /// predecessor may already be running (the edge still blocks
    /// `after`) or complete (the edge is already satisfied and is
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range, when the edge is a
    /// self-loop, or when `after` has already started.
    pub fn add_dep_late(&mut self, before: usize, after: usize) {
        assert!(before != after, "self-dependency on node {before}");
        assert!(!self.nodes[after].started, "node {after} already started");
        if self.nodes[before].completed {
            return;
        }
        self.nodes[before].dependents.push(after);
        self.nodes[after].pending_deps += 1;
        self.eligible.remove(&after);
    }

    /// Clears one external dependency of `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` has no outstanding external dependency.
    pub fn satisfy_external(&mut self, node: usize) {
        let pending = &mut self.nodes[node].pending_external;
        assert!(*pending > 0, "node {node} has no outstanding external dependency");
        *pending -= 1;
        self.mark_if_eligible(node);
    }

    /// Adds `node` to the eligible set once nothing but resources can
    /// hold it back.
    fn mark_if_eligible(&mut self, node: usize) {
        let n = &self.nodes[node];
        if !n.started && n.pending_deps == 0 && n.pending_external == 0 {
            self.eligible.insert(node);
        }
    }

    /// `true` when `node`'s precedence edges are all satisfied but at
    /// least one external dependency is still outstanding (i.e. the
    /// node waits on the outside world, not on the graph).
    pub fn blocked_on_external(&self, node: usize) -> bool {
        let n = &self.nodes[node];
        !n.started && n.pending_deps == 0 && n.pending_external > 0
    }

    /// Pops every currently ready node (deps satisfied, externals
    /// satisfied, claims acquirable), acquiring its resources. Nodes
    /// are returned — and acquire resources — in ascending id order,
    /// so two nodes racing for one exclusive resource resolve to the
    /// lower id deterministically. Only the eligible set is walked;
    /// nodes whose claims are still held stay in it for a later call.
    pub fn take_ready(&mut self) -> Vec<usize> {
        let mut ready = Vec::new();
        let Self { nodes, resources, eligible, .. } = self;
        // `retain` visits in ascending order, and acquisition is
        // immediate so a later node in this same sweep sees the claim.
        eligible.retain(|&node| {
            let claims = &nodes[node].claims;
            if !resources_free(resources, claims) {
                return true;
            }
            for &(resource, kind) in claims {
                let state = resources.entry(resource).or_default();
                match kind {
                    ClaimKind::Exclusive => state.exclusive_holders += 1,
                    ClaimKind::Shared => state.shared_holders += 1,
                }
            }
            nodes[node].started = true;
            ready.push(node);
            false
        });
        ready
    }

    /// Marks a started node complete: releases its resources and
    /// unblocks its dependents. Call [`Self::take_ready`] afterwards
    /// to collect what became dispatchable.
    ///
    /// # Panics
    ///
    /// Panics when `node` was never started or completes twice.
    pub fn complete(&mut self, node: usize) {
        {
            let n = &self.nodes[node];
            assert!(n.started, "node {node} completed without starting");
            assert!(!n.completed, "node {node} completed twice");
        }
        self.nodes[node].completed = true;
        self.completed += 1;
        for &(resource, kind) in &self.nodes[node].claims {
            let state = self.resources.get_mut(&resource).expect("claimed resources are tracked");
            match kind {
                ClaimKind::Exclusive => state.exclusive_holders -= 1,
                ClaimKind::Shared => state.shared_holders -= 1,
            }
        }
        let dependents = std::mem::take(&mut self.nodes[node].dependents);
        for &dep in &dependents {
            self.nodes[dep].pending_deps -= 1;
            self.mark_if_eligible(dep);
        }
        self.nodes[node].dependents = dependents;
    }

    /// `true` once every node has completed.
    pub fn all_complete(&self) -> bool {
        self.completed == self.nodes.len()
    }

    /// Number of completed nodes.
    pub fn completed(&self) -> usize {
        self.completed
    }
}

/// `true` when every claim in `claims` can be acquired now.
fn resources_free(resources: &BTreeMap<u64, ResourceState>, claims: &[(u64, ClaimKind)]) -> bool {
    claims.iter().all(|&(resource, kind)| {
        let state = resources.get(&resource).copied().unwrap_or_default();
        match kind {
            ClaimKind::Exclusive => state.exclusive_holders == 0 && state.shared_holders == 0,
            ClaimKind::Shared => state.exclusive_holders == 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dispatches_one_at_a_time() {
        let mut g = TaskGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        assert_eq!(g.take_ready(), vec![0]);
        assert_eq!(g.take_ready(), Vec::<usize>::new(), "node 0 still running");
        g.complete(0);
        assert_eq!(g.take_ready(), vec![1]);
        g.complete(1);
        assert_eq!(g.take_ready(), vec![2]);
        g.complete(2);
        assert!(g.all_complete());
    }

    #[test]
    fn independent_nodes_dispatch_together() {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 3);
        g.add_dep(1, 3);
        g.add_dep(2, 3);
        assert_eq!(g.take_ready(), vec![0, 1, 2]);
        g.complete(1);
        assert!(g.take_ready().is_empty(), "3 waits for all of 0..3");
        g.complete(0);
        g.complete(2);
        assert_eq!(g.take_ready(), vec![3]);
    }

    #[test]
    fn exclusive_claims_serialize_lowest_id_first() {
        let mut g = TaskGraph::new(3);
        g.claim(0, 1, ClaimKind::Exclusive);
        g.claim(1, 1, ClaimKind::Exclusive);
        g.claim(2, 2, ClaimKind::Exclusive);
        assert_eq!(g.take_ready(), vec![0, 2], "1 loses the race for resource 1");
        g.complete(0);
        assert_eq!(g.take_ready(), vec![1]);
    }

    #[test]
    fn shared_claims_coexist_but_block_exclusive() {
        let mut g = TaskGraph::new(3);
        g.claim(0, 9, ClaimKind::Shared);
        g.claim(1, 9, ClaimKind::Shared);
        g.claim(2, 9, ClaimKind::Exclusive);
        assert_eq!(g.take_ready(), vec![0, 1], "readers coexist; the writer waits");
        g.complete(0);
        assert!(g.take_ready().is_empty(), "one reader still holds the resource");
        g.complete(1);
        assert_eq!(g.take_ready(), vec![2]);
    }

    #[test]
    fn exclusive_upgrade_wins_on_double_claim() {
        let mut g = TaskGraph::new(2);
        g.claim(0, 5, ClaimKind::Shared);
        g.claim(0, 5, ClaimKind::Exclusive);
        g.claim(1, 5, ClaimKind::Shared);
        assert_eq!(g.take_ready(), vec![0], "upgraded claim excludes the reader");
        g.complete(0);
        assert_eq!(g.take_ready(), vec![1]);
    }

    #[test]
    fn external_dependencies_gate_until_satisfied() {
        let mut g = TaskGraph::new(2);
        g.add_external(0, 2);
        assert_eq!(g.take_ready(), vec![1]);
        assert!(g.blocked_on_external(0));
        g.satisfy_external(0);
        assert!(g.take_ready().is_empty(), "one external input still missing");
        g.satisfy_external(0);
        assert!(!g.blocked_on_external(0));
        assert_eq!(g.take_ready(), vec![0]);
    }

    #[test]
    fn empty_graph_is_trivially_complete() {
        let mut g = TaskGraph::new(0);
        assert!(g.is_empty());
        assert!(g.all_complete());
        assert!(g.take_ready().is_empty());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut g = TaskGraph::new(1);
        assert_eq!(g.take_ready(), vec![0]);
        g.complete(0);
        g.complete(0);
    }

    #[test]
    fn pushed_nodes_extend_a_running_graph() {
        let mut g = TaskGraph::new(2);
        g.add_dep(0, 1);
        assert_eq!(g.take_ready(), vec![0]);
        // Graph is dispatching; classic add_dep would panic now.
        let n = g.push_node();
        assert_eq!(n, 2);
        g.add_dep_late(1, n);
        g.complete(0);
        assert_eq!(g.take_ready(), vec![1]);
        g.complete(1);
        assert_eq!(g.take_ready(), vec![n]);
        g.complete(n);
        assert!(g.all_complete());
    }

    #[test]
    fn late_edge_from_completed_predecessor_is_already_satisfied() {
        let mut g = TaskGraph::new(1);
        assert_eq!(g.take_ready(), vec![0]);
        g.complete(0);
        let n = g.push_node();
        g.add_dep_late(0, n);
        assert_eq!(g.take_ready(), vec![n], "completed predecessor must not block");
    }

    #[test]
    fn late_edge_from_running_predecessor_still_blocks() {
        let mut g = TaskGraph::new(1);
        assert_eq!(g.take_ready(), vec![0]);
        let n = g.push_node();
        g.add_dep_late(0, n);
        assert!(g.take_ready().is_empty(), "running predecessor blocks");
        g.complete(0);
        assert_eq!(g.take_ready(), vec![n]);
    }

    #[test]
    fn pushed_nodes_accept_claims_and_externals() {
        let mut g = TaskGraph::new(1);
        g.claim(0, 3, ClaimKind::Exclusive);
        assert_eq!(g.take_ready(), vec![0]);
        let n = g.push_node();
        g.claim(n, 3, ClaimKind::Exclusive);
        g.add_external(n, 1);
        assert!(g.take_ready().is_empty(), "resource held and external pending");
        g.satisfy_external(n);
        assert!(g.take_ready().is_empty(), "resource still held");
        g.complete(0);
        assert_eq!(g.take_ready(), vec![n]);
    }
}
