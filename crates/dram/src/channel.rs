//! Multi-channel DRAM: several independent controllers with
//! address-interleaved routing.
//!
//! LPDDR3 systems commonly gang two or four 32-bit channels for
//! bandwidth; the chip-level `MemorySpec` bandwidth then aggregates.
//! Channels are fully independent (own banks, bus, refresh), and
//! requests route by address interleave at a configurable granularity.
//!
//! The chip simulator's closed-loop timing mode drives one front end,
//! [`MultiChannelDram::service`]: each block access is served as its
//! event arrives, and the aggregated completion time feeds back into
//! the chip's critical path.

use crate::config::DramConfig;
use crate::controller::{ChannelStats, DramSimulator};
use crate::energy::DramEnergy;
use crate::error::DramError;
use crate::request::Request;

/// The closed-loop outcome of one block access: when its first stripe
/// started service and when its last stripe's data completed, across
/// every channel it touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelAccess {
    /// Earliest service start across the stripes, ns.
    pub start_ns: f64,
    /// Latest completion across the stripes, ns.
    pub finish_ns: f64,
    /// Number of interleave stripes the access was split into.
    pub stripes: usize,
}

/// A set of independent DRAM channels with interleaved addressing.
///
/// # Example
///
/// ```
/// use pim_dram::{DramConfig, MultiChannelDram, Request, RequestKind};
///
/// let mut mem = MultiChannelDram::new(DramConfig::lpddr3_1600(), 2, 4096).unwrap();
/// let access = mem.service(Request::new(0, 0, RequestKind::Read, 64 * 1024));
/// assert_eq!(access.stripes, 16);
/// // Two channels stream roughly twice as fast as one.
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelDram {
    channels: Vec<DramSimulator>,
    interleave_bytes: usize,
}

impl MultiChannelDram {
    /// Creates `channels` identical controllers interleaved every
    /// `interleave_bytes` (rounded up to at least one burst).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoChannels`] if `channels == 0`.
    pub fn new(
        cfg: DramConfig,
        channels: usize,
        interleave_bytes: usize,
    ) -> Result<Self, DramError> {
        if channels == 0 {
            return Err(DramError::NoChannels);
        }
        let interleave = interleave_bytes.max(cfg.burst_bytes);
        Ok(Self {
            channels: (0..channels).map(|_| DramSimulator::new(cfg.clone())).collect(),
            interleave_bytes: interleave,
        })
    }

    /// The interleave granularity in bytes.
    pub fn interleave_bytes(&self) -> usize {
        self.interleave_bytes
    }

    /// Serves a block request immediately (closed-loop path): every
    /// stripe is serviced on its channel in call order, and the
    /// access completes when its slowest stripe's data lands. Channel
    /// queueing, bank conflicts, row hits/misses, and refresh all show
    /// up in the returned window.
    pub fn service(&mut self, request: Request) -> ChannelAccess {
        let mut start_ns = f64::INFINITY;
        let mut finish_ns = request.issue_ns.max(0.0);
        let mut count = 0usize;
        for (channel, piece) in Self::stripes(self.channels.len(), self.interleave_bytes, request) {
            let done = self.channels[channel].service(piece);
            start_ns = start_ns.min(done.start_ns);
            finish_ns = finish_ns.max(done.finish_ns);
            count += 1;
        }
        if !start_ns.is_finite() {
            start_ns = finish_ns; // zero-byte access: an empty window
        }
        ChannelAccess { start_ns, finish_ns, stripes: count }
    }

    /// Switches every channel of a fresh instance to the reference
    /// controller path (the differential tests' oracle).
    #[cfg(test)]
    pub(crate) fn use_reference(&mut self) {
        self.channels.iter_mut().for_each(DramSimulator::use_reference);
    }

    /// Splits a block request into per-channel stripes: for each
    /// piece, the channel index and the channel-local request. The
    /// local address folds the interleave out so each channel sees a
    /// dense address space. Takes `Copy` inputs rather than `&self` so
    /// the routing loops can mutate `self.channels` while iterating —
    /// no per-request stripe buffer is allocated.
    ///
    /// Only the first stripe divides: every later one starts on an
    /// interleave boundary, so its channel is the next one round-robin
    /// and its local address advances by one interleave each time the
    /// channel wraps to zero.
    fn stripes(
        channels: usize,
        interleave_bytes: usize,
        request: Request,
    ) -> impl Iterator<Item = (usize, Request)> {
        let n = channels as u64;
        let il = interleave_bytes as u64;
        let stripe_off = request.addr % il;
        let mut channel = ((request.addr / il) % n) as usize;
        // Local address of the current stripe's interleave boundary.
        let mut local_base = (request.addr / (il * n)) * il;
        let mut take = ((il - stripe_off) as usize).min(request.bytes);
        let mut local = local_base + stripe_off;
        let mut remaining = request.bytes;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let piece = (channel, Request::at_ns(request.issue_ns, local, request.kind, take));
            remaining -= take;
            take = interleave_bytes.min(remaining);
            channel += 1;
            if channel == channels {
                channel = 0;
                local_base += il;
            }
            local = local_base;
            Some(piece)
        })
    }

    /// Latest completion time across channels.
    pub fn makespan_ns(&self) -> f64 {
        self.channels.iter().map(DramSimulator::makespan_ns).fold(0.0, f64::max)
    }

    /// Per-channel aggregate counters, in channel order.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(DramSimulator::stats).collect()
    }

    /// Total energy across channels.
    pub fn energy(&self) -> DramEnergy {
        self.channels.iter().map(DramSimulator::energy).fold(DramEnergy::default(), |acc, e| {
            DramEnergy {
                activate_nj: acc.activate_nj + e.activate_nj,
                read_nj: acc.read_nj + e.read_nj,
                write_nj: acc.write_nj + e.write_nj,
                refresh_nj: acc.refresh_nj + e.refresh_nj,
                background_nj: acc.background_nj + e.background_nj,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn mem(channels: usize) -> MultiChannelDram {
        MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, 4096).unwrap()
    }

    fn stream_time(channels: usize, bytes: usize) -> f64 {
        let mut mem = mem(channels);
        mem.service(Request::new(0, 0, RequestKind::Read, bytes));
        mem.makespan_ns()
    }

    #[test]
    fn two_channels_nearly_double_stream_bandwidth() {
        let one = stream_time(1, 1 << 20);
        let two = stream_time(2, 1 << 20);
        let speedup = one / two;
        assert!(
            speedup > 1.7 && speedup < 2.2,
            "2-channel speedup {speedup} (one {one} ns, two {two} ns)"
        );
    }

    #[test]
    fn four_channels_scale_further() {
        let two = stream_time(2, 1 << 20);
        let four = stream_time(4, 1 << 20);
        assert!(two / four > 1.6, "4-ch should beat 2-ch: {two} vs {four}");
    }

    #[test]
    fn all_bytes_accounted() {
        let mut mem = mem(2);
        mem.service(Request::new(0, 1000, RequestKind::Read, 100_000));
        let total: u64 = mem.channel_stats().iter().map(ChannelStats::total_bytes).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn energy_sums_channels() {
        let mut mem = mem(2);
        mem.service(Request::new(0, 0, RequestKind::Write, 64 * 1024));
        let e = mem.energy();
        assert!(e.write_nj > 0.0);
        assert!(e.total_nj() > e.write_nj);
    }

    #[test]
    fn zero_channels_is_an_error() {
        let err = MultiChannelDram::new(DramConfig::lpddr3_1600(), 0, 4096).unwrap_err();
        assert_eq!(err, DramError::NoChannels);
        assert!(err.to_string().contains("at least one channel"));
    }

    #[test]
    fn service_window_is_ordered_and_covers_stripes() {
        let mut mem = mem(2);
        let access = mem.service(Request::new(0, 0, RequestKind::Read, 64 * 1024));
        // 64 KiB over 4 KiB stripes = 16 stripes, 8 per channel.
        assert_eq!(access.stripes, 16);
        assert!(access.start_ns >= 0.0);
        assert!(access.finish_ns > access.start_ns);
        let stats = mem.channel_stats();
        assert_eq!(stats.len(), 2);
        let total: u64 = stats.iter().map(ChannelStats::total_bytes).sum();
        assert_eq!(total, 64 * 1024);
    }

    /// The division-per-stripe split the incremental
    /// [`MultiChannelDram::stripes`] replaced, kept as its oracle.
    fn stripes_by_division(
        channels: usize,
        interleave: usize,
        request: Request,
    ) -> Vec<(usize, Request)> {
        let n = channels as u64;
        let il = interleave as u64;
        let mut addr = request.addr;
        let mut remaining = request.bytes;
        let mut out = Vec::new();
        while remaining > 0 {
            let stripe_off = addr % il;
            let take = ((il - stripe_off) as usize).min(remaining);
            let channel = ((addr / il) % n) as usize;
            let local = (addr / (il * n)) * il + stripe_off;
            out.push((channel, Request::at_ns(request.issue_ns, local, request.kind, take)));
            addr += take as u64;
            remaining -= take;
        }
        out
    }

    /// SplitMix64: a seedable test RNG with no dependencies.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn incremental_stripes_match_the_division_split() {
        let interleaves = [32, 64, 96, 1000, 3000, 4096, 4097, 65_536];
        for seed in 0..2_000u64 {
            let mut rng = seed;
            let channels = 1 + (splitmix(&mut rng) % 5) as usize;
            let interleave = interleaves[(splitmix(&mut rng) % interleaves.len() as u64) as usize];
            // Sizes: empty, sub-burst, within one stripe, and spanning
            // many stripes (and several channel wraps).
            let bytes = match splitmix(&mut rng) % 4 {
                0 => 0,
                1 => 1 + (splitmix(&mut rng) % 31) as usize,
                2 => 1 + (splitmix(&mut rng) % interleave as u64) as usize,
                _ => (splitmix(&mut rng) % (40 * interleave as u64)) as usize,
            };
            // Addresses: stripe-aligned, arbitrary, and near the top of
            // the activation region's 4 GiB offset.
            let addr = match splitmix(&mut rng) % 3 {
                0 => (splitmix(&mut rng) % 1_000) * interleave as u64,
                1 => splitmix(&mut rng) % (1 << 40),
                _ => (1 << 32) + splitmix(&mut rng) % (1 << 20),
            };
            let kind = if seed % 2 == 0 { RequestKind::Read } else { RequestKind::Write };
            let request = Request::at_ns(seed as f64 * 1.5, addr, kind, bytes);
            let got: Vec<_> = MultiChannelDram::stripes(channels, interleave, request).collect();
            assert_eq!(
                got,
                stripes_by_division(channels, interleave, request),
                "seed {seed}: {channels} channels, {interleave} B interleave, {request:?}"
            );
        }
    }

    #[test]
    fn stats_track_hits_and_utilization() {
        let mut mem = mem(1);
        mem.service(Request::new(0, 0, RequestKind::Read, 1 << 16));
        let s = mem.channel_stats()[0];
        assert!(s.row_hit_rate() > 0.8, "sequential stream mostly hits: {}", s.row_hit_rate());
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
        assert!(s.makespan_ns >= s.busy_ns);
    }
}
