//! Property-style invariants of `MultiChannelDram` interleaving,
//! implemented as deterministic seeded sweeps (the offline environment
//! has no proptest), like `tests/invariants.rs`:
//!
//! 1. every issued request is serviced exactly once (bytes conserve
//!    piece-by-piece),
//! 2. per-channel service order follows issue order (non-decreasing
//!    service windows on the immediate path),
//! 3. channel counts 1/2/4 conserve total bytes.

use pim_dram::{ChannelStats, DramConfig, DramError, MultiChannelDram, Request, RequestKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;
const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];

/// A random mixed request stream: bulk sequential runs (weight-like)
/// interleaved with scattered small transfers (activation-like).
fn random_stream(rng: &mut StdRng) -> Vec<Request> {
    let n = rng.gen_range(4usize..40);
    let mut issue_ns = 0.0f64;
    let mut seq_addr = 0u64;
    (0..n)
        .map(|_| {
            issue_ns += rng.gen_range(0u64..500) as f64;
            let kind = if rng.gen_bool(0.3) { RequestKind::Write } else { RequestKind::Read };
            if rng.gen_bool(0.5) {
                let bytes = *[32usize, 256, 4096, 64 << 10].get(rng.gen_range(0usize..4)).unwrap();
                let addr = seq_addr;
                seq_addr += bytes as u64;
                Request::at_ns(issue_ns, addr, kind, bytes)
            } else {
                let addr = rng.gen_range(0u64..(256 << 20)) & !31;
                Request::at_ns(issue_ns, addr, kind, rng.gen_range(1usize..2048))
            }
        })
        .collect()
}

#[test]
fn every_request_is_serviced_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0xD0);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng);
        for channels in CHANNEL_COUNTS {
            let mut mem = MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, 4096).unwrap();
            let mut expected_pieces = 0usize;
            let mut stripes = 0usize;
            for req in &stream {
                // A block covers ceil span over interleave-aligned
                // stripes; count what the router must split it into.
                let il = mem.interleave_bytes() as u64;
                let first = req.addr / il;
                let last = (req.addr + req.bytes as u64 - 1) / il;
                expected_pieces += (last - first + 1) as usize;
                let access = mem.service(*req);
                stripes += access.stripes;
                assert!(access.finish_ns >= access.start_ns);
                assert!(access.start_ns >= req.issue_ns);
            }
            let stats = mem.channel_stats();
            let served: u64 = stats.iter().map(|s| s.requests).sum();
            assert_eq!(stripes, expected_pieces, "each stripe serviced exactly once");
            assert_eq!(served as usize, expected_pieces, "each stripe serviced exactly once");
            let total: u64 = stats.iter().map(ChannelStats::total_bytes).sum();
            let issued: usize = stream.iter().map(|r| r.bytes).sum();
            assert_eq!(
                total as usize, issued,
                "no stripe lost or duplicated ({channels} channels)"
            );
        }
    }
}

#[test]
fn immediate_service_preserves_per_channel_order() {
    // The closed-loop path serves accesses in call order; service
    // windows must be non-decreasing and each access must land at or
    // after its issue time.
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng);
        for channels in CHANNEL_COUNTS {
            let mut mem = MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, 4096).unwrap();
            let mut served_bytes = 0usize;
            for req in &stream {
                // The channels this request's stripes route to (same
                // interleave arithmetic the router uses).
                let il = mem.interleave_bytes() as u64;
                let touched: Vec<usize> = (req.addr / il..=(req.addr + req.bytes as u64 - 1) / il)
                    .map(|stripe| (stripe % channels as u64) as usize)
                    .collect();
                let before = mem.channel_stats();
                let access = mem.service(*req);
                let after = mem.channel_stats();

                assert!(access.start_ns >= req.issue_ns - 1e-9, "service cannot precede issue");
                assert!(access.finish_ns >= access.start_ns);
                assert_eq!(access.stripes, touched.len());
                // Call order is service order: each touched channel's
                // clock only moves forward, and this access finishes
                // exactly when its slowest touched channel does — a
                // reordering (or misrouting) implementation would
                // leave an untouched channel modified or report a
                // finish that is not the frontier it just advanced.
                let mut touched_frontier = 0.0f64;
                for ch in 0..channels {
                    if touched.contains(&ch) {
                        assert!(
                            after[ch].makespan_ns > before[ch].makespan_ns,
                            "serving on channel {ch} must advance its clock"
                        );
                        touched_frontier = touched_frontier.max(after[ch].makespan_ns);
                    } else {
                        assert_eq!(
                            after[ch], before[ch],
                            "channel {ch} was not addressed by this access"
                        );
                    }
                }
                assert!(
                    (access.finish_ns - touched_frontier).abs() < 1e-9,
                    "access must finish with the slowest channel it touched"
                );
                served_bytes += req.bytes;
            }
            let stats = mem.channel_stats();
            assert_eq!(stats.len(), channels);
            let counted: u64 = stats.iter().map(ChannelStats::total_bytes).sum();
            assert_eq!(counted as usize, served_bytes);
            // The aggregate makespan is the slowest channel.
            let slowest = stats.iter().map(|s| s.makespan_ns).fold(0.0, f64::max);
            assert!((mem.makespan_ns() - slowest).abs() < 1e-9);
        }
    }
}

#[test]
fn channel_counts_conserve_total_bytes() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng);
        let issued: u64 = stream.iter().map(|r| r.bytes as u64).sum();
        let mut makespans = Vec::new();
        for channels in CHANNEL_COUNTS {
            let mut mem = MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, 4096).unwrap();
            for req in &stream {
                mem.service(*req);
            }
            let stats = mem.channel_stats();
            let total: u64 = stats.iter().map(ChannelStats::total_bytes).sum();
            assert_eq!(total, issued, "{channels} channels must move every byte exactly once");
            let reads: u64 = stats.iter().map(|s| s.read_bytes).sum();
            let expected_reads: u64 =
                stream.iter().filter(|r| r.kind == RequestKind::Read).map(|r| r.bytes as u64).sum();
            assert_eq!(reads, expected_reads, "read/write split is routing-invariant");
            makespans.push(mem.makespan_ns());
        }
        // More channels never make the same stream slower.
        for pair in makespans.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-6, "extra channels slowed the stream: {makespans:?}");
        }
    }
}

#[test]
fn fr_fcfs_batches_conserve_bytes_and_stay_deterministic() {
    // The reorder path (`service_batch`) may overtake arrival order
    // for row hits, but it must still serve every stripe exactly
    // once, never before its issue time, and bit-identically run to
    // run.
    let mut rng = StdRng::seed_from_u64(0xFCF5);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng);
        // Same-instant batch: strip the issue stagger, as the chip
        // simulator's drain latch does.
        let batch: Vec<Request> =
            stream.iter().map(|r| Request::at_ns(0.0, r.addr, r.kind, r.bytes)).collect();
        for channels in CHANNEL_COUNTS {
            let run = || {
                let mut mem =
                    MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, 4096).unwrap();
                let accesses = mem.service_batch(&batch);
                (accesses, mem.channel_stats())
            };
            let (accesses, stats) = run();
            assert_eq!(run(), (accesses.clone(), stats.clone()), "reorder must be deterministic");
            assert_eq!(accesses.len(), batch.len());
            for (req, access) in batch.iter().zip(&accesses) {
                assert!(access.start_ns >= req.issue_ns, "no service before issue");
                assert!(access.finish_ns >= access.start_ns);
                assert!(access.stripes > 0 || req.bytes == 0);
            }
            let issued: u64 = batch.iter().map(|r| r.bytes as u64).sum();
            let served: u64 = stats.iter().map(ChannelStats::total_bytes).sum();
            assert_eq!(served, issued, "reorder must conserve bytes ({channels} channels)");
        }
    }
}

#[test]
fn zero_channels_is_a_typed_error() {
    assert_eq!(
        MultiChannelDram::new(DramConfig::lpddr3_1600(), 0, 4096).unwrap_err(),
        DramError::NoChannels
    );
}
