//! The memory controller / simulator front end.

use crate::bank::{AccessClass, Bank};
use crate::config::{DramConfig, DramTiming};
use crate::energy::DramEnergy;
use crate::request::{Request, RequestKind};
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// When the request became eligible.
    pub issue_ns: f64,
    /// When its first burst started service.
    pub start_ns: f64,
    /// When its last burst's data completed.
    pub finish_ns: f64,
    /// Read or write.
    pub kind: RequestKind,
    /// Total bytes transferred.
    pub bytes: usize,
}

/// Aggregate counters of one controller (one channel), as reported in
/// closed-loop timing mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ChannelStats {
    /// Requests served.
    pub requests: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Row activations (row-buffer misses + conflicts).
    pub activates: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Data-bus occupancy, ns.
    pub busy_ns: f64,
    /// Completion time of the channel's last burst, ns.
    pub makespan_ns: f64,
}

impl ChannelStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Data-bus busy fraction of the channel's makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        (self.busy_ns / self.makespan_ns).min(1.0)
    }

    /// Fraction of column accesses that hit the open row.
    pub fn row_hit_rate(&self) -> f64 {
        let accesses = self.activates + self.row_hits;
        if accesses == 0 {
            return 0.0;
        }
        self.row_hits as f64 / accesses as f64
    }
}

/// A cycle-approximate LPDDR3 memory controller.
///
/// Requests are served in call order ([`DramSimulator::service`]).
/// Block requests are split into bursts; banks pipeline while the
/// shared data bus serializes — so bulk sequential traffic approaches
/// peak bandwidth while random traffic pays activate/precharge
/// latency, the two behaviours the COMPASS weight-replacement schedule
/// is sensitive to.
///
/// The cycle-scaled timing constants ([`DramTiming`]) are computed
/// once, when the controller is built: the per-burst path reads them
/// instead of re-deriving `cycles × cycle time` (a float division) on
/// every access, and computes bit-identical times.
///
/// Two shortcuts skip work whose result cannot differ from the
/// per-burst model, bit for bit:
///
/// * **Row-hit runs in closed form.** When a burst finds its bank open
///   on its row, the bursts left in that row are back-to-back hits:
///   column commands at `T0 = max(t, ready)` and every `tCCD` after,
///   the bus done at `max(T_last + CAS, bus_free + k·tCCD)`, the bank
///   ready at `T_last + tCCD`. The run is taken in O(1) when it ends
///   before the next refresh instant (it is cut short there) and when
///   every value the loop would compute lies in one binade whose
///   spacing divides every timing constant — checked on the lowest
///   and highest value's exponent bits — so every sum the loop rounds
///   is exact. Otherwise the per-burst loop, the one general path,
///   serves the bursts.
/// * **Lazy all-bank closes.** A refresh or a bulk stream closes every
///   bank. The controller counts these closes and keeps the latest
///   close end instead of walking the banks; a bank catches up when
///   it is next touched (its row closes, its ready time becomes
///   `max(ready, latest end)`). Ends act only through `max`, so this
///   is exact. Missed refreshes are still counted one by one.
///
/// # Example
///
/// ```
/// use pim_dram::{DramConfig, DramSimulator, Request, RequestKind};
///
/// let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
/// // Stream 64 KiB of weights.
/// let done = sim.service(Request::new(0, 0, RequestKind::Read, 64 * 1024));
/// let gbps = 64.0 * 1024.0 / done.finish_ns; // bytes per ns
/// assert!(gbps > 4.0, "sequential stream should be near peak, got {gbps}");
/// ```
#[derive(Debug, Clone)]
pub struct DramSimulator {
    cfg: DramConfig,
    /// `cfg`'s timing in ns, computed once at construction.
    timing: DramTiming,
    banks: Vec<Bank>,
    bus_free_ns: f64,
    next_refresh_ns: f64,
    refreshes: u64,
    activates: u64,
    row_hits: u64,
    served: u64,
    data_busy_ns: f64,
    read_bits: u64,
    write_bits: u64,
    makespan_ns: f64,
    /// All-bank closes (refreshes, bulk streams) issued so far; banks
    /// apply them lazily ([`Bank::catch_up`]).
    closes: u64,
    /// The latest end among those closes, ns.
    close_end_ns: f64,
    /// Binary exponent every run-relevant timing constant is a
    /// multiple of ([`exact_grain`]); bounds where row-hit runs may be
    /// taken in closed form.
    exact_grain: i32,
    /// Serve through the pre-closed-form per-burst loop and eager
    /// all-bank closes (the differential tests' oracle).
    #[cfg(test)]
    reference: bool,
}

impl DramSimulator {
    /// Creates an idle simulator.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![Bank::new(); cfg.banks];
        let timing = cfg.timing();
        Self {
            next_refresh_ns: timing.refi_ns,
            cfg,
            timing,
            banks,
            bus_free_ns: 0.0,
            refreshes: 0,
            activates: 0,
            row_hits: 0,
            served: 0,
            data_busy_ns: 0.0,
            read_bits: 0,
            write_bits: 0,
            makespan_ns: 0.0,
            closes: 0,
            close_end_ns: 0.0,
            exact_grain: exact_grain(&[
                timing.ccd_ns,
                timing.read_cas_ns,
                timing.write_cas_ns,
                timing.wr_ns,
            ]),
            #[cfg(test)]
            reference: false,
        }
    }

    /// Serves one request, in call order, and returns its completion.
    /// The request waits for its issue time, its banks and the data
    /// bus; nothing is queued or reordered.
    pub fn service(&mut self, req: Request) -> CompletedRequest {
        #[cfg(test)]
        if self.reference {
            return self.serve_reference(req);
        }
        let burst_time = self.timing.ccd_ns;
        let is_write = req.kind == RequestKind::Write;
        let mut t = req.issue_ns.max(0.0);
        let mut start_ns = f64::INFINITY;
        let mut finish_ns = t;
        let bursts = req.bytes.div_ceil(self.cfg.burst_bytes).max(1);
        if bursts > 64 {
            return self.serve_bulk(req, bursts);
        }
        let mut b = 0;
        while b < bursts {
            let addr = req.addr + (b * self.cfg.burst_bytes) as u64;
            self.apply_refresh(t);
            let (bank_idx, row) = self.cfg.map_address(addr);
            let bank = &mut self.banks[bank_idx];
            bank.catch_up(self.closes, self.close_end_ns);
            if bank.open_row() == Some(row) {
                // Every burst left in this row is a hit on this bank.
                let in_row = (self.cfg.row_bytes - (addr % self.cfg.row_bytes as u64) as usize)
                    .div_ceil(self.cfg.burst_bytes);
                if let Some(run) = self.hit_run(bank_idx, t, (bursts - b).min(in_row), is_write) {
                    start_ns = start_ns.min(run.first_ns);
                    self.bus_free_ns = run.bus_done_ns;
                    finish_ns = run.bus_done_ns;
                    t = self.banks[bank_idx].ready_ns();
                    b += run.bursts;
                    continue;
                }
            }
            let bank = &mut self.banks[bank_idx];
            let service_start = t.max(bank.ready_ns());
            start_ns = start_ns.min(service_start);
            let (data_ready, class) = bank.access(&self.timing, t, row, is_write);
            if class != AccessClass::RowHit {
                self.activates += 1;
            } else {
                self.row_hits += 1;
            }
            // Shared data bus: one burst at a time.
            let bus_done = data_ready.max(self.bus_free_ns + burst_time);
            self.bus_free_ns = bus_done;
            finish_ns = bus_done;
            // Next burst of this request can issue immediately after
            // this one's column command; approximate by advancing to
            // the bus handoff minus the CAS latency floor.
            t = self.banks[bank_idx].ready_ns();
            b += 1;
        }
        let bits = (req.bytes * 8) as u64;
        if is_write {
            self.write_bits += bits;
        } else {
            self.read_bits += bits;
        }
        self.served += 1;
        self.data_busy_ns += bursts as f64 * burst_time;
        self.makespan_ns = self.makespan_ns.max(finish_ns);
        CompletedRequest {
            issue_ns: req.issue_ns,
            start_ns: if start_ns.is_finite() { start_ns } else { req.issue_ns },
            finish_ns,
            kind: req.kind,
            bytes: req.bytes,
        }
    }

    /// Serves up to the next `run` bursts of a request in closed form,
    /// when they are row hits on `bank_idx` (open on their row, caught
    /// up) issued no earlier than `t`. Returns the run taken, or `None`
    /// to leave the bursts to the per-burst loop.
    ///
    /// Back-to-back hits issue at `T0 = max(t, ready)` and every `tCCD`
    /// after, so the loop's bus chain `max(data_ready, bus_free + tCCD)`
    /// folds to `max(T_last + CAS, bus_free + run·tCCD)`. Two checks
    /// keep this bit-equal to the loop:
    ///
    /// * **refresh** — burst `j ≥ 1` checks refresh at its own issue
    ///   time, so the run stops before the first burst at or after the
    ///   next refresh instant (and is declined if that leaves one
    ///   burst);
    /// * **exactness** — every value the loop computes lies in
    ///   `[min(T0, bus_free), max(T_last + CAS, bus_free + run·tCCD)]`.
    ///   When both ends share one binade whose spacing divides every
    ///   timing constant ([`exact_span`]), each sum the loop rounds is
    ///   exact, and so are the products here.
    fn hit_run(&mut self, bank_idx: usize, t: f64, run: usize, is_write: bool) -> Option<HitRun> {
        if run < 2 {
            return None;
        }
        let ccd = self.timing.ccd_ns;
        let cas_done = |at: f64| {
            if is_write {
                at + self.timing.write_cas_ns + self.timing.wr_ns
            } else {
                at + self.timing.read_cas_ns
            }
        };
        let first = t.max(self.banks[bank_idx].ready_ns());
        let span = |bursts: usize| {
            let last = first + (bursts - 1) as f64 * ccd;
            cas_done(last).max(self.bus_free_ns + bursts as f64 * ccd)
        };
        if !exact_span(first.min(self.bus_free_ns), span(run), self.exact_grain) {
            return None;
        }
        let mut run = run;
        if first + (run - 1) as f64 * ccd >= self.next_refresh_ns {
            if first >= self.next_refresh_ns {
                return None;
            }
            // Bursts issuing before the refresh instant. Inside the
            // exact span the quotient cannot round across an integer.
            run = ((self.next_refresh_ns - first) / ccd).ceil() as usize;
            debug_assert!(first + (run - 1) as f64 * ccd < self.next_refresh_ns);
            debug_assert!(first + run as f64 * ccd >= self.next_refresh_ns);
            if run < 2 {
                return None;
            }
        }
        self.banks[bank_idx].hit_run(&self.timing, first, run);
        self.row_hits += run as u64;
        Some(HitRun { bursts: run, first_ns: first, bus_done_ns: span(run) })
    }

    /// Closed-form fast path for large sequential transfers (weight
    /// streams): per-burst simulation would dominate runtime, and for
    /// a sequential stream the shared data bus is the binding
    /// constraint once the first access has opened its row. Activate
    /// counts and refresh stalls are applied analytically, so energy
    /// and bandwidth match the per-burst path closely.
    fn serve_bulk(&mut self, req: Request, bursts: usize) -> CompletedRequest {
        let burst_time = self.timing.ccd_ns;
        let is_write = req.kind == RequestKind::Write;
        let t = req.issue_ns.max(0.0);
        self.apply_refresh(t);
        // First access pays the usual bank latency.
        let (bank_idx, row) = self.cfg.map_address(req.addr);
        let bank = &mut self.banks[bank_idx];
        bank.catch_up(self.closes, self.close_end_ns);
        let service_start = t.max(bank.ready_ns());
        let (first_ready, class) = bank.access(&self.timing, t, row, is_write);
        let first_activate = (class != AccessClass::RowHit) as u64;
        self.activates += first_activate;
        // Remaining rows each cost one activate (banks rotate, so the
        // activations hide behind the streaming data bus); every other
        // burst of the stream hits its open row.
        let rows_touched = (req.addr + req.bytes as u64 - 1) / self.cfg.row_bytes as u64
            - req.addr / self.cfg.row_bytes as u64;
        self.activates += rows_touched;
        self.row_hits += (bursts as u64).saturating_sub(first_activate + rows_touched);
        // Refresh stalls crossed during the stream.
        let stream_time = bursts as f64 * burst_time;
        let start_bus = first_ready.max(self.bus_free_ns + burst_time) - burst_time;
        let mut finish = start_bus + stream_time;
        while finish >= self.next_refresh_ns {
            self.refreshes += 1;
            self.next_refresh_ns += self.timing.refi_ns;
            finish += self.timing.rfc_ns;
        }
        self.bus_free_ns = finish;
        // The stream occupied all banks and closed their rows. Each
        // refresh above ended at or before `finish` (it added tRFC on
        // top of a finish at or past the refresh instant), so one
        // close at `finish` covers them all.
        self.close_all(finish);
        let bits = (req.bytes * 8) as u64;
        if is_write {
            self.write_bits += bits;
        } else {
            self.read_bits += bits;
        }
        self.served += 1;
        self.data_busy_ns += stream_time;
        self.makespan_ns = self.makespan_ns.max(finish);
        CompletedRequest {
            issue_ns: req.issue_ns,
            start_ns: service_start,
            finish_ns: finish,
            kind: req.kind,
            bytes: req.bytes,
        }
    }

    /// All-bank refresh every tREFI: banks stall for tRFC and rows
    /// close. Every missed refresh is counted; refresh ends increase,
    /// so the banks only need the last one.
    fn apply_refresh(&mut self, now_ns: f64) {
        if now_ns < self.next_refresh_ns {
            return;
        }
        let mut end = 0.0;
        while now_ns >= self.next_refresh_ns {
            end = self.next_refresh_ns + self.timing.rfc_ns;
            self.refreshes += 1;
            self.next_refresh_ns += self.timing.refi_ns;
        }
        self.close_all(end);
    }

    /// Closes every bank's row and holds every bank until `end_ns`,
    /// lazily: banks catch up when next touched ([`Bank::catch_up`]).
    fn close_all(&mut self, end_ns: f64) {
        self.closes += 1;
        self.close_end_ns = self.close_end_ns.max(end_ns);
    }

    /// Total simulated time (completion of the last burst so far).
    pub fn makespan_ns(&self) -> f64 {
        self.makespan_ns
    }

    /// Energy consumed so far (including background power over the
    /// makespan).
    pub fn energy(&self) -> DramEnergy {
        DramEnergy::from_counts(
            &self.cfg,
            self.activates,
            self.refreshes,
            self.read_bits,
            self.write_bits,
            self.makespan_ns,
        )
    }

    /// Aggregate counters for this controller.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            requests: self.served,
            read_bytes: self.read_bits / 8,
            write_bytes: self.write_bits / 8,
            activates: self.activates,
            row_hits: self.row_hits,
            busy_ns: self.data_busy_ns,
            makespan_ns: self.makespan_ns,
        }
    }
}

/// A row-hit run served in closed form ([`DramSimulator::hit_run`]).
struct HitRun {
    /// Bursts served.
    bursts: usize,
    /// The first burst's column command time, ns.
    first_ns: f64,
    /// When the last burst's data leaves the bus, ns.
    bus_done_ns: f64,
}

/// The largest binary exponent `g` such that every value in `xs` is a
/// whole multiple of `2^g` (zeros are multiples of anything);
/// `i32::MIN` when a value is not finite.
fn exact_grain(xs: &[f64]) -> i32 {
    xs.iter()
        .filter(|x| **x != 0.0)
        .map(|x| {
            if !x.is_finite() {
                return i32::MIN;
            }
            let bits = x.to_bits();
            let exp = ((bits >> 52) & 0x7ff) as i32;
            let mantissa = bits & ((1 << 52) - 1);
            if exp == 0 {
                mantissa.trailing_zeros() as i32 - 1074
            } else {
                (mantissa | 1 << 52).trailing_zeros() as i32 + exp - 1075
            }
        })
        .min()
        .unwrap_or(i32::MAX)
}

/// `true` when `lo` and `hi` are normal, non-negative and in one
/// binade whose spacing divides `2^grain`. Every double between them
/// then lies in that binade, and adding a multiple of `2^grain` that
/// lands between them is exact.
fn exact_span(lo: f64, hi: f64, grain: i32) -> bool {
    // The sign bit sits above the exponent, so a negative value fails
    // the spacing bound.
    let exp = lo.to_bits() >> 52;
    exp == hi.to_bits() >> 52 && exp != 0 && exp as i32 - 1075 <= grain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DramSimulator {
        DramSimulator::new(DramConfig::lpddr3_1600())
    }

    #[test]
    fn single_read_latency_is_reasonable() {
        let mut s = sim();
        let done = s.service(Request::new(0, 0, RequestKind::Read, 32));
        let lat = done.finish_ns - done.issue_ns;
        // tRCD + tCL + burst = (15 + 12 + 4) * 1.25 = 38.75 ns.
        assert!((lat - 38.75).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn sequential_stream_beats_random() {
        let mut seq = sim();
        for i in 0..256u64 {
            seq.service(Request::new(0, i * 32, RequestKind::Read, 32));
        }
        let seq_end = seq.makespan_ns();

        let mut rng_state = 12345u64;
        let mut random = sim();
        for _ in 0..256 {
            // xorshift addresses scattered over 64 MiB.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let addr = (rng_state % (64 * 1024 * 1024)) & !31;
            random.service(Request::new(0, addr, RequestKind::Read, 32));
        }
        let rnd_end = random.makespan_ns();
        assert!(
            rnd_end > 1.5 * seq_end,
            "random ({rnd_end}) should be much slower than sequential ({seq_end})"
        );
    }

    #[test]
    fn bulk_read_approaches_peak_bandwidth() {
        let mut s = sim();
        let bytes = 1 << 20; // 1 MiB
        let done = s.service(Request::new(0, 0, RequestKind::Read, bytes));
        let gbps = bytes as f64 / done.finish_ns;
        let peak = s.cfg.peak_bandwidth_gbps();
        assert!(gbps > 0.8 * peak, "bulk stream {gbps} GB/s vs peak {peak}");
    }

    #[test]
    fn refresh_fires_on_long_runs() {
        let mut s = sim();
        // Spread requests over > tREFI.
        let refi_ns = s.timing.refi_ns;
        for i in 0..10u64 {
            s.service(Request::at_ns(i as f64 * refi_ns, i * 32, RequestKind::Read, 32));
        }
        assert!(s.refreshes >= 9, "refreshes {}", s.refreshes);
    }

    #[test]
    fn writes_are_tracked_separately() {
        let mut s = sim();
        s.service(Request::new(0, 0, RequestKind::Write, 64));
        s.service(Request::new(0, 4096, RequestKind::Read, 64));
        assert_eq!(s.write_bits, 64 * 8);
        assert_eq!(s.read_bits, 64 * 8);
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut small = sim();
        small.service(Request::new(0, 0, RequestKind::Read, 1024));
        let mut big = sim();
        big.service(Request::new(0, 0, RequestKind::Read, 1024 * 1024));
        assert!(big.energy().total_nj() > 10.0 * small.energy().total_nj());
    }

    #[test]
    fn exact_grain_is_the_coarsest_common_power_of_two() {
        let t = DramConfig::lpddr3_1600().timing();
        // 1.25 ns cycles: 5.0, 20.0, 12.5, 15.0 are multiples of 0.5.
        assert_eq!(exact_grain(&[t.ccd_ns, t.read_cas_ns, t.write_cas_ns, t.wr_ns]), -1);
        assert_eq!(exact_grain(&[1.25, 5.0]), -2);
        assert_eq!(exact_grain(&[0.0, 0.0]), i32::MAX, "zero is a multiple of anything");
        assert_eq!(exact_grain(&[1.0, f64::INFINITY]), i32::MIN);
        assert_eq!(exact_grain(&[f64::from_bits(1)]), -1074, "smallest subnormal");
        assert_eq!(exact_grain(&[3.0 * f64::MIN_POSITIVE]), -1022);
        // 1000 / 933 MHz is no dyadic fraction: the guard never passes
        // in a realistic range.
        let odd = DramConfig { clock_mhz: 933.0, ..DramConfig::lpddr3_1600() }.timing();
        assert!(exact_grain(&[odd.ccd_ns]) < -40);
    }

    #[test]
    fn exact_span_needs_one_binade_fine_enough_for_the_grain() {
        assert!(exact_span(1024.0, 2047.75, -2));
        assert!(exact_span(1536.0, 1536.0, -2));
        // Crosses 2^11, or 2^10 from below.
        assert!(!exact_span(1024.0, 2048.0, -2));
        assert!(!exact_span(1023.75, 1024.0, -2));
        // Zero and subnormals never pass: their "binade" is not one.
        assert!(!exact_span(0.0, 0.0, 10));
        assert!(!exact_span(0.0, 20.0, -2));
        let tiny = f64::MIN_POSITIVE / 4.0;
        assert!(!exact_span(tiny, tiny, 10));
        // Spacing 0.25 is fine for a 0.25 grain, 0.5 is not.
        let two_50 = 2f64.powi(50);
        assert!(exact_span(two_50, two_50 + 4.0, -2));
        assert!(!exact_span(2.0 * two_50, 2.0 * two_50 + 4.0, -2));
        assert!(exact_span(2.0 * two_50, 2.0 * two_50 + 4.0, -1));
        // Negative and non-finite values fail.
        assert!(!exact_span(-8.0, -8.0, 10));
        assert!(!exact_span(f64::INFINITY, f64::INFINITY, 10));
    }

    #[test]
    fn completions_are_ordered_and_stats_count_every_request() {
        let mut s = sim();
        let mut bytes = 0;
        for i in 0..50u64 {
            // Sub-burst, multi-burst and bulk sizes, some issued
            // before the bus frees up.
            let size = [64, 3_000, 70_000][i as usize % 3];
            let kind = if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read };
            let c = s.service(Request::new(i * 100, i * 4_096, kind, size));
            assert!(c.issue_ns <= c.start_ns && c.start_ns <= c.finish_ns, "request {i}: {c:?}");
            assert_eq!((c.kind, c.bytes), (kind, size));
            bytes += size as u64;
        }
        let stats = s.stats();
        assert_eq!(stats.requests, 50);
        assert_eq!(stats.total_bytes(), bytes);
    }
}
