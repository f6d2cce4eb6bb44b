//! Multi-chip system topologies.
//!
//! A topology names how many chips a system instantiates and the
//! directed inter-chip links joining them, each with its own
//! serialization bandwidth and propagation latency. The simulator
//! models every transfer hop-by-hop on the shared discrete-event
//! engine, so two transfers crossing the same link contend for it
//! rather than seeing a flat latency.
//!
//! Presets cover the single-chip machine of the paper, a
//! bidirectional ring, and a fully connected mesh.

use crate::error::InvalidConfigError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Timing/width parameters of one inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Propagation latency per traversal, ns (not occupancy).
    pub latency_ns: f64,
    /// Serialization bandwidth in bytes per nanosecond (GB/s); the
    /// link is occupied for `bytes / bandwidth` per transfer.
    pub bandwidth_gbps: f64,
    /// Energy per byte moved across the link, in picojoules.
    pub energy_pj_per_byte: f64,
}

impl LinkSpec {
    /// A board-level chip-to-chip SerDes lane: 8 GB/s, 120 ns
    /// propagation (an order slower and further than the on-chip bus).
    pub fn board() -> Self {
        Self { latency_ns: 120.0, bandwidth_gbps: 8.0, energy_pj_per_byte: 4.0 }
    }

    /// Time the link is occupied serializing `bytes`.
    pub fn serialization_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_gbps
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::board()
    }
}

/// One directed inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source chip index.
    pub src: usize,
    /// Destination chip index.
    pub dst: usize,
    /// Link parameters.
    pub spec: LinkSpec,
}

/// A multi-chip system shape: chip count plus the directed link graph.
///
/// # Example
///
/// ```
/// use pim_arch::Topology;
///
/// let ring = Topology::ring(4);
/// assert_eq!(ring.chips(), 4);
/// // Bidirectional ring: two directed links per edge.
/// assert_eq!(ring.links().len(), 8);
/// // Opposite corner of the ring is two hops away.
/// assert_eq!(ring.route(0, 2).unwrap().len(), 2);
/// ring.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable name (`"single"`, `"ring:4"`, ...).
    pub name: String,
    /// Number of chips in the system.
    pub chips: usize,
    /// Directed links between chips.
    pub links: Vec<Link>,
}

impl Topology {
    /// The paper's machine: one chip, no interconnect.
    pub fn single() -> Self {
        Self { name: "single".to_string(), chips: 1, links: Vec::new() }
    }

    /// A bidirectional ring of `chips` chips with [`LinkSpec::board`]
    /// links (a single chip degenerates to [`Topology::single`]).
    pub fn ring(chips: usize) -> Self {
        let chips = chips.max(1);
        if chips == 1 {
            return Self::single();
        }
        let mut links = Vec::with_capacity(2 * chips);
        for c in 0..chips {
            let next = (c + 1) % chips;
            links.push(Link { src: c, dst: next, spec: LinkSpec::board() });
            links.push(Link { src: next, dst: c, spec: LinkSpec::board() });
        }
        // A 2-chip "ring" is one bidirectional edge, not a double one.
        if chips == 2 {
            links.truncate(2);
        }
        Self { name: format!("ring:{chips}"), chips, links }
    }

    /// A fully connected mesh: one dedicated directed link per ordered
    /// chip pair.
    pub fn fully_connected(chips: usize) -> Self {
        let chips = chips.max(1);
        if chips == 1 {
            return Self::single();
        }
        let mut links = Vec::new();
        for src in 0..chips {
            for dst in 0..chips {
                if src != dst {
                    links.push(Link { src, dst, spec: LinkSpec::board() });
                }
            }
        }
        Self { name: format!("fc:{chips}"), chips, links }
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// `true` for the degenerate one-chip topology.
    pub fn is_single(&self) -> bool {
        self.chips <= 1
    }

    /// Validates the link graph.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] when the system has zero chips, a
    /// link endpoint is out of range or degenerate, a link's bandwidth
    /// is not finite and positive or its latency or energy is not
    /// finite and non-negative, or (for multi-chip systems) some
    /// ordered chip pair has no route.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        if self.chips == 0 {
            return Err(InvalidConfigError::new("topology must have at least one chip"));
        }
        for link in &self.links {
            if link.src >= self.chips || link.dst >= self.chips {
                return Err(InvalidConfigError::new("link endpoint out of range"));
            }
            if link.src == link.dst {
                return Err(InvalidConfigError::new("link must join two distinct chips"));
            }
            if !(link.spec.bandwidth_gbps.is_finite() && link.spec.bandwidth_gbps > 0.0) {
                return Err(InvalidConfigError::new("link bandwidth must be finite and positive"));
            }
            if link.spec.latency_ns < 0.0 || !link.spec.latency_ns.is_finite() {
                return Err(InvalidConfigError::new(
                    "link latency must be finite and non-negative",
                ));
            }
            if link.spec.energy_pj_per_byte < 0.0 || !link.spec.energy_pj_per_byte.is_finite() {
                return Err(InvalidConfigError::new(
                    "link energy per byte must be finite and non-negative",
                ));
            }
        }
        for src in 0..self.chips {
            for dst in 0..self.chips {
                if src != dst && self.route(src, dst).is_none() {
                    return Err(InvalidConfigError::new("topology is not strongly connected"));
                }
            }
        }
        Ok(())
    }

    /// Shortest route from `src` to `dst` as a sequence of link
    /// indices (BFS by hop count; ties broken by lowest link index, so
    /// routing is deterministic). `None` when unreachable; an empty
    /// route when `src == dst`.
    pub fn route(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        if src >= self.chips || dst >= self.chips {
            return None;
        }
        if src == dst {
            return Some(Vec::new());
        }
        // `via[c]` remembers the link that first reached chip `c`.
        let mut via: Vec<Option<usize>> = vec![None; self.chips];
        let mut frontier = vec![src];
        let mut seen = vec![false; self.chips];
        seen[src] = true;
        while !frontier.is_empty() && !seen[dst] {
            let mut next = Vec::new();
            for &at in &frontier {
                for (i, link) in self.links.iter().enumerate() {
                    if link.src == at && !seen[link.dst] {
                        seen[link.dst] = true;
                        via[link.dst] = Some(i);
                        next.push(link.dst);
                    }
                }
            }
            frontier = next;
        }
        if !seen[dst] {
            return None;
        }
        let mut hops = Vec::new();
        let mut at = dst;
        while at != src {
            let link = via[at].expect("reached chips have an inbound hop");
            hops.push(link);
            at = self.links[link].src;
        }
        hops.reverse();
        Some(hops)
    }

    /// The slowest link bandwidth in the system (GB/s).
    /// [`f64::INFINITY`] when there are no links (a single chip pays
    /// no interconnect cost); validation rejects multi-chip
    /// topologies without routes, so estimator callers never see the
    /// infinity for a real system.
    pub fn bottleneck_bandwidth_gbps(&self) -> f64 {
        self.links.iter().map(|l| l.spec.bandwidth_gbps).fold(f64::INFINITY, f64::min)
    }

    /// The worst-case route latency between any ordered chip pair
    /// (sum of per-hop propagation latencies), ns. Zero for a single
    /// chip.
    pub fn max_route_latency_ns(&self) -> f64 {
        let mut worst = 0.0f64;
        for src in 0..self.chips {
            for dst in 0..self.chips {
                if src == dst {
                    continue;
                }
                if let Some(hops) = self.route(src, dst) {
                    let lat: f64 = hops.iter().map(|&h| self.links[h].spec.latency_ns).sum();
                    worst = worst.max(lat);
                }
            }
        }
        worst
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::single()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for topo in [
            Topology::single(),
            Topology::ring(2),
            Topology::ring(4),
            Topology::fully_connected(2),
            Topology::fully_connected(4),
        ] {
            topo.validate().unwrap_or_else(|e| panic!("{topo}: {e}"));
        }
    }

    #[test]
    fn ring_routes_are_shortest() {
        let ring = Topology::ring(4);
        assert_eq!(ring.route(0, 1).unwrap().len(), 1);
        assert_eq!(ring.route(0, 2).unwrap().len(), 2);
        assert_eq!(ring.route(0, 3).unwrap().len(), 1, "wrap-around beats three forward hops");
        assert_eq!(ring.route(2, 2).unwrap().len(), 0);
    }

    #[test]
    fn fully_connected_is_one_hop_everywhere() {
        let fc = Topology::fully_connected(4);
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    let hops = fc.route(src, dst).unwrap();
                    assert_eq!(hops.len(), 1);
                    let link = fc.links()[hops[0]];
                    assert_eq!((link.src, link.dst), (src, dst));
                }
            }
        }
    }

    #[test]
    fn two_chip_ring_has_one_edge_pair() {
        assert_eq!(Topology::ring(2).links().len(), 2);
    }

    #[test]
    fn validation_rejects_broken_graphs() {
        let mut topo = Topology::ring(3);
        topo.links[0].dst = 7;
        assert!(topo.validate().is_err());

        let disconnected =
            Topology { name: "broken".to_string(), chips: 3, links: Topology::ring(2).links };
        assert!(disconnected.validate().is_err(), "chip 2 is unreachable");

        let mut bad_bw = Topology::ring(2);
        bad_bw.links[0].spec.bandwidth_gbps = 0.0;
        assert!(bad_bw.validate().is_err());
    }

    #[test]
    fn bottleneck_terms() {
        let ring = Topology::ring(4);
        assert_eq!(ring.bottleneck_bandwidth_gbps(), LinkSpec::board().bandwidth_gbps);
        // The ring's worst pair is two hops away.
        assert!((ring.max_route_latency_ns() - 2.0 * LinkSpec::board().latency_ns).abs() < 1e-9);
        assert_eq!(Topology::single().max_route_latency_ns(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let topo = Topology::ring(3);
        let json = serde_json::to_string(&topo).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(topo, back);
    }
}
