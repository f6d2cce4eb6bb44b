//! The controller as it was before row-hit runs were taken in closed
//! form and all-bank closes became lazy: one iteration per burst, and
//! every refresh or bulk stream walks all banks. Kept as the oracle of
//! the seeded differential tests below, which demand bit-equal
//! completions, counters and energy from both paths.

use super::*;

impl DramSimulator {
    /// Switches a fresh simulator to the reference path.
    pub(crate) fn use_reference(&mut self) {
        assert_eq!(self.served, 0, "switch paths before serving");
        self.reference = true;
    }

    pub(super) fn serve_reference(&mut self, req: Request) -> CompletedRequest {
        let burst_time = self.timing.ccd_ns;
        let is_write = req.kind == RequestKind::Write;
        let mut t = req.issue_ns.max(0.0);
        let mut start_ns = f64::INFINITY;
        let mut finish_ns = t;
        let bursts = req.bytes.div_ceil(self.cfg.burst_bytes).max(1);
        if bursts > 64 {
            return self.serve_bulk_reference(req, bursts);
        }
        for b in 0..bursts {
            let addr = req.addr + (b * self.cfg.burst_bytes) as u64;
            self.apply_refresh_reference(t);
            let (bank_idx, row) = self.cfg.map_address(addr);
            let service_start = t.max(self.banks[bank_idx].ready_ns());
            start_ns = start_ns.min(service_start);
            let (data_ready, class) = self.banks[bank_idx].access(&self.timing, t, row, is_write);
            if class != AccessClass::RowHit {
                self.activates += 1;
            } else {
                self.row_hits += 1;
            }
            let bus_done = data_ready.max(self.bus_free_ns + burst_time);
            self.bus_free_ns = bus_done;
            finish_ns = bus_done;
            t = self.banks[bank_idx].ready_ns();
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

    fn serve_bulk_reference(&mut self, req: Request, bursts: usize) -> CompletedRequest {
        let burst_time = self.timing.ccd_ns;
        let is_write = req.kind == RequestKind::Write;
        let t = req.issue_ns.max(0.0);
        self.apply_refresh_reference(t);
        let (bank_idx, row) = self.cfg.map_address(req.addr);
        let service_start = t.max(self.banks[bank_idx].ready_ns());
        let (first_ready, class) = self.banks[bank_idx].access(&self.timing, t, row, is_write);
        let first_activate = (class != AccessClass::RowHit) as u64;
        self.activates += first_activate;
        let rows_touched = (req.addr + req.bytes as u64 - 1) / self.cfg.row_bytes as u64
            - req.addr / self.cfg.row_bytes as u64;
        self.activates += rows_touched;
        self.row_hits += (bursts as u64).saturating_sub(first_activate + rows_touched);
        let stream_time = bursts as f64 * burst_time;
        let start_bus = first_ready.max(self.bus_free_ns + burst_time) - burst_time;
        let mut finish = start_bus + stream_time;
        let rfc_ns = self.timing.rfc_ns;
        while finish >= self.next_refresh_ns {
            let end = self.next_refresh_ns + rfc_ns;
            for bank in &mut self.banks {
                bank.refresh_until(end);
            }
            self.refreshes += 1;
            self.next_refresh_ns += self.timing.refi_ns;
            finish += rfc_ns;
        }
        self.bus_free_ns = finish;
        for bank in &mut self.banks {
            bank.refresh_until(finish);
        }
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

    fn apply_refresh_reference(&mut self, now_ns: f64) {
        while now_ns >= self.next_refresh_ns {
            let end = self.next_refresh_ns + self.timing.rfc_ns;
            for bank in &mut self.banks {
                bank.refresh_until(end);
            }
            self.refreshes += 1;
            self.next_refresh_ns += self.timing.refi_ns;
        }
    }
}

mod tests {
    use super::*;
    use crate::channel::MultiChannelDram;

    /// SplitMix64: a seedable test RNG with no dependencies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// The device under test: the preset, one whose cycle time is not
    /// a dyadic fraction (no run is ever exact, so the loop serves
    /// all), and a small-row, wide-burst part.
    fn config(rng: &mut Rng) -> DramConfig {
        let mut cfg = DramConfig::lpddr3_1600();
        match rng.below(4) {
            0 => cfg.clock_mhz = 933.0,
            1 => {
                cfg.row_bytes = 1024;
                cfg.burst_bytes = 64;
                cfg.banks = 4;
            }
            _ => {}
        }
        cfg
    }

    /// Request streams: issue times that repeat, creep, jump back,
    /// idle across refreshes, and land just below powers of two and
    /// around refresh instants; addresses that continue the previous
    /// request (row-hit runs), jump, or straddle row ends; 1 B to
    /// 1 MiB (at most `max_bytes`), reads and writes.
    struct Stream {
        rng: Rng,
        refi_ns: f64,
        row_bytes: u64,
        max_bytes: usize,
        t: f64,
        next_addr: u64,
    }

    impl Stream {
        fn new(rng: Rng, cfg: &DramConfig, max_bytes: usize) -> Self {
            Self {
                rng,
                refi_ns: cfg.timing().refi_ns,
                row_bytes: cfg.row_bytes as u64,
                max_bytes,
                t: 0.0,
                next_addr: 0,
            }
        }

        fn request(&mut self) -> Request {
            let rng = &mut self.rng;
            self.t = match rng.below(8) {
                0 => self.t,
                1 => self.t + rng.below(400) as f64 * 0.25,
                2 => self.t + rng.below(1000) as f64 / 3.0,
                3 => {
                    let k = 6 + rng.below(19) as i32;
                    let eps = rng.pick(&[0.0, 0.25, 1e-3, 1.0 / 3.0, 5.0, 40.0]);
                    (2f64.powi(k) - eps).max(0.0)
                }
                4 => {
                    let n = (1 + rng.below(2000)) as f64;
                    let off = rng.pick(&[-400.0, -40.0, -5.0, -0.25, 0.0, 0.25, 5.0, 40.0]);
                    (n * self.refi_ns + off).max(0.0)
                }
                5 => (self.t - rng.below(2000) as f64 * 0.25).max(0.0),
                6 => self.t + rng.below(5) as f64 * self.refi_ns,
                _ => self.t + rng.below(20) as f64,
            };
            let addr = match rng.below(4) {
                0 | 1 => self.next_addr,
                2 => rng.below(1 << 30),
                _ => (1 + rng.below(1 << 16)) * self.row_bytes - rng.below(200),
            };
            let scale = rng.below(21);
            let bytes = (1 + rng.below(1 << scale) as usize).min(self.max_bytes);
            let kind = if rng.below(3) == 0 { RequestKind::Write } else { RequestKind::Read };
            self.next_addr = addr + bytes as u64;
            Request::at_ns(self.t, addr, kind, bytes)
        }
    }

    /// Bit-exact comparison (Debug prints the shortest round-trip form
    /// of every float, and `-0.0` apart from `0.0`).
    fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// One seeded stream through `MultiChannelDram::service` and one
    /// through a single controller's `service`, each on both paths.
    fn differential(seed: u64, ops: usize) {
        let mut rng = Rng(seed);
        let cfg = config(&mut rng);
        let channels = 1 + rng.below(4) as usize;
        let interleave = rng.pick(&[32, 64, 100, 256, 1000, 2048, 4096, 8192]);
        let mut fast = MultiChannelDram::new(cfg.clone(), channels, interleave).unwrap();
        let mut slow = MultiChannelDram::new(cfg.clone(), channels, interleave).unwrap();
        slow.use_reference();
        // At most 256 stripes a request: the stripes, not the bytes,
        // cost time on the multi-channel path.
        let mut stream = Stream::new(Rng(rng.next()), &cfg, 256 * interleave);
        for op in 0..ops {
            let request = stream.request();
            let (a, b) = (fast.service(request), slow.service(request));
            assert!(same(&a, &b), "seed {seed} op {op}: {request:?}\n{a:?}\n{b:?}");
        }
        assert!(same(&fast.channel_stats(), &slow.channel_stats()), "seed {seed}: stats");
        assert!(same(&fast.energy(), &slow.energy()), "seed {seed}: energy");

        let mut fast = DramSimulator::new(cfg.clone());
        let mut slow = DramSimulator::new(cfg.clone());
        slow.use_reference();
        let mut stream = Stream::new(Rng(rng.next()), &cfg, 1 << 20);
        for op in 0..ops {
            let request = stream.request();
            let (a, b) = (fast.service(request), slow.service(request));
            assert!(same(&a, &b), "seed {seed} op {op}: {request:?}\n{a:?}\n{b:?}");
        }
        assert!(same(&fast.stats(), &slow.stats()), "seed {seed}: stats");
        assert!(same(&fast.energy(), &slow.energy()), "seed {seed}: energy");
        assert_eq!(fast.refreshes, slow.refreshes, "seed {seed}: refreshes");
    }

    #[test]
    fn closed_form_runs_and_lazy_closes_match_the_reference() {
        for seed in 0..250 {
            differential(seed, 60);
        }
    }

    /// The larger budget, for release builds:
    /// `cargo test -q --release -p pim-dram -- --ignored`.
    #[test]
    #[ignore]
    fn closed_form_runs_and_lazy_closes_match_the_reference_at_scale() {
        for seed in 1_000..4_000 {
            differential(seed, 400);
        }
    }
}
