//! Differential test of [`TaskGraph`]'s incremental ready set.
//!
//! `take_ready` walks a maintained set of eligible nodes. The oracle
//! below is the full-scan dispatcher it replaced — every node, every
//! call, in ascending id order. Both graphs are driven through the
//! same seeded random sequence of edges, claims, externals, appended
//! nodes, late edges, completions and external satisfactions, and
//! every `take_ready` must return the same nodes in the same order.

use pim_engine::{ClaimKind, SimRng, TaskGraph};
use std::collections::BTreeMap;

/// The full-scan task graph: same semantics, no eligible set.
#[derive(Default)]
struct FullScan {
    nodes: Vec<ScanNode>,
    resources: BTreeMap<u64, (usize, usize)>,
}

#[derive(Clone, Default)]
struct ScanNode {
    pending_deps: usize,
    pending_external: usize,
    dependents: Vec<usize>,
    claims: Vec<(u64, ClaimKind)>,
    started: bool,
    completed: bool,
}

impl FullScan {
    fn new(nodes: usize) -> Self {
        Self { nodes: vec![ScanNode::default(); nodes], resources: BTreeMap::new() }
    }

    fn add_dep(&mut self, before: usize, after: usize) {
        if self.nodes[before].completed {
            return;
        }
        self.nodes[before].dependents.push(after);
        self.nodes[after].pending_deps += 1;
    }

    fn claim(&mut self, node: usize, resource: u64, kind: ClaimKind) {
        let claims = &mut self.nodes[node].claims;
        if let Some(existing) = claims.iter_mut().find(|(r, _)| *r == resource) {
            if kind == ClaimKind::Exclusive {
                existing.1 = ClaimKind::Exclusive;
            }
            return;
        }
        claims.push((resource, kind));
    }

    fn push_node(&mut self) -> usize {
        self.nodes.push(ScanNode::default());
        self.nodes.len() - 1
    }

    fn resources_free(&self, node: usize) -> bool {
        self.nodes[node].claims.iter().all(|&(resource, kind)| {
            let (exclusive, shared) = self.resources.get(&resource).copied().unwrap_or_default();
            match kind {
                ClaimKind::Exclusive => exclusive == 0 && shared == 0,
                ClaimKind::Shared => exclusive == 0,
            }
        })
    }

    fn take_ready(&mut self) -> Vec<usize> {
        let mut ready = Vec::new();
        for node in 0..self.nodes.len() {
            let n = &self.nodes[node];
            if !n.started
                && n.pending_deps == 0
                && n.pending_external == 0
                && self.resources_free(node)
            {
                for &(resource, kind) in &self.nodes[node].claims {
                    let state = self.resources.entry(resource).or_default();
                    match kind {
                        ClaimKind::Exclusive => state.0 += 1,
                        ClaimKind::Shared => state.1 += 1,
                    }
                }
                self.nodes[node].started = true;
                ready.push(node);
            }
        }
        ready
    }

    fn complete(&mut self, node: usize) {
        self.nodes[node].completed = true;
        for &(resource, kind) in &self.nodes[node].claims {
            let state = self.resources.get_mut(&resource).expect("claimed resources are tracked");
            match kind {
                ClaimKind::Exclusive => state.0 -= 1,
                ClaimKind::Shared => state.1 -= 1,
            }
        }
        for dep in self.nodes[node].dependents.clone() {
            self.nodes[dep].pending_deps -= 1;
        }
    }
}

/// Both graphs plus the test's view of what may legally happen next.
struct Pair {
    fast: TaskGraph,
    scan: FullScan,
    running: Vec<usize>,
    seed: u64,
}

impl Pair {
    fn take_ready(&mut self) {
        let got = self.fast.take_ready();
        let want = self.scan.take_ready();
        assert_eq!(got, want, "seed {}: take_ready diverged from the full scan", self.seed);
        self.running.extend(got);
    }

    fn claim_randomly(&mut self, rng: &mut SimRng, node: usize) {
        for _ in 0..rng.next_below(3) {
            let resource = rng.next_below(4);
            let kind =
                if rng.next_below(3) == 0 { ClaimKind::Exclusive } else { ClaimKind::Shared };
            self.fast.claim(node, resource, kind);
            self.scan.claim(node, resource, kind);
        }
    }

    fn add_externals(&mut self, rng: &mut SimRng, node: usize) {
        let count = if rng.next_below(3) == 0 { 1 + rng.next_below(2) as usize } else { 0 };
        self.fast.add_external(node, count);
        self.scan.nodes[node].pending_external += count;
    }

    fn satisfy_one(&mut self, rng: &mut SimRng) {
        let waiting: Vec<usize> = (0..self.scan.nodes.len())
            .filter(|&n| self.scan.nodes[n].pending_external > 0)
            .collect();
        if waiting.is_empty() {
            return;
        }
        let node = waiting[rng.next_below(waiting.len() as u64) as usize];
        self.fast.satisfy_external(node);
        self.scan.nodes[node].pending_external -= 1;
    }

    fn complete_one(&mut self, rng: &mut SimRng) {
        if self.running.is_empty() {
            return;
        }
        let node = self.running.swap_remove(rng.next_below(self.running.len() as u64) as usize);
        self.fast.complete(node);
        self.scan.complete(node);
    }

    fn append_node(&mut self, rng: &mut SimRng) {
        let node = self.fast.push_node();
        assert_eq!(node, self.scan.push_node(), "seed {}", self.seed);
        let edges = if node == 0 { 0 } else { rng.next_below(3) };
        for _ in 0..edges {
            let before = rng.next_below(node as u64) as usize;
            self.fast.add_dep_late(before, node);
            self.scan.add_dep(before, node);
        }
        self.claim_randomly(rng, node);
        self.add_externals(rng, node);
    }

    fn check_externals(&self) {
        for node in 0..self.scan.nodes.len() {
            let n = &self.scan.nodes[node];
            let want = !n.started && n.pending_deps == 0 && n.pending_external > 0;
            assert_eq!(
                self.fast.blocked_on_external(node),
                want,
                "seed {}: blocked_on_external({node}) diverged",
                self.seed
            );
        }
    }
}

fn run(seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let nodes = rng.next_below(12) as usize;
    let mut pair =
        Pair { fast: TaskGraph::new(nodes), scan: FullScan::new(nodes), running: Vec::new(), seed };
    for after in 0..nodes {
        for before in 0..after {
            if rng.next_below(4) == 0 {
                pair.fast.add_dep(before, after);
                pair.scan.add_dep(before, after);
            }
        }
        pair.claim_randomly(&mut rng, after);
        pair.add_externals(&mut rng, after);
    }
    for _ in 0..200 {
        match rng.next_below(6) {
            0 | 1 => pair.take_ready(),
            2 => pair.complete_one(&mut rng),
            3 => pair.satisfy_one(&mut rng),
            4 => pair.append_node(&mut rng),
            _ => {
                pair.complete_one(&mut rng);
                pair.take_ready();
            }
        }
        pair.check_externals();
    }
    // Drain: every external lands, every running node completes.
    for node in 0..pair.scan.nodes.len() {
        while pair.scan.nodes[node].pending_external > 0 {
            pair.fast.satisfy_external(node);
            pair.scan.nodes[node].pending_external -= 1;
        }
    }
    loop {
        pair.take_ready();
        if pair.running.is_empty() {
            break;
        }
        while !pair.running.is_empty() {
            pair.complete_one(&mut rng);
        }
    }
    assert!(pair.fast.all_complete(), "seed {seed}: the drained graph must complete");
    assert!(pair.scan.nodes.iter().all(|n| n.completed), "seed {seed}: oracle must complete");
}

#[test]
fn incremental_ready_set_matches_the_full_scan() {
    for seed in 0..1_000 {
        run(seed);
    }
}
