//! Per-bank row-buffer state machine.

use crate::config::DramTiming;
use serde::{Deserialize, Serialize};

/// Outcome class of a column access, used for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessClass {
    /// Row buffer hit (no activate needed).
    RowHit,
    /// Row buffer miss on a closed bank (activate only).
    RowClosed,
    /// Row buffer conflict (precharge + activate).
    RowConflict,
}

/// One DRAM bank with an open-page row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Bank {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Earliest time the bank can issue its next column command, ns.
    ready_ns: f64,
    /// Time the current row was activated (for tRAS), ns.
    activated_ns: f64,
    /// How many of the controller's all-bank closes this bank has
    /// applied (see [`Bank::catch_up`]).
    closes_seen: u64,
}

impl Bank {
    /// Creates a closed, idle bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open row.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest time the bank can accept a new column command.
    pub fn ready_ns(&self) -> f64 {
        self.ready_ns
    }

    /// Classifies an access to `row` without mutating state.
    pub fn classify(&self, row: u64) -> AccessClass {
        match self.open_row {
            Some(open) if open == row => AccessClass::RowHit,
            Some(_) => AccessClass::RowConflict,
            None => AccessClass::RowClosed,
        }
    }

    /// Performs one burst access to `row` starting no earlier than
    /// `now_ns` under the controller's precomputed `timing`, returning
    /// `(data_ready_ns, class)`: the time the data burst completes on
    /// the data bus and the row-buffer outcome.
    ///
    /// The bank becomes ready for its next column command `tCCD` after
    /// the column command issues; the caller (controller) serializes
    /// the shared data bus separately.
    pub fn access(
        &mut self,
        timing: &DramTiming,
        now_ns: f64,
        row: u64,
        is_write: bool,
    ) -> (f64, AccessClass) {
        let class = self.classify(row);
        let mut t = now_ns.max(self.ready_ns);
        match class {
            AccessClass::RowHit => {}
            AccessClass::RowClosed => {
                t += timing.rcd_ns;
                self.activated_ns = t;
                self.open_row = Some(row);
            }
            AccessClass::RowConflict => {
                // Respect tRAS from the previous activate, then
                // precharge and activate the new row.
                let ras_done = self.activated_ns + timing.ras_ns;
                t = t.max(ras_done);
                t += timing.rp_rcd_ns;
                self.activated_ns = t;
                self.open_row = Some(row);
            }
        }
        let data_ready =
            if is_write { t + timing.write_cas_ns + timing.wr_ns } else { t + timing.read_cas_ns };
        // Next column command to this bank can issue tCCD after this one.
        self.ready_ns = t + timing.ccd_ns;
        (data_ready, class)
    }

    /// Issues `bursts` back-to-back column commands to the open row,
    /// the first at `first_ns` (at or after [`Self::ready_ns`]), each
    /// `tCCD` after the last; returns the last command's issue time.
    /// The caller checks that every one is a row hit and that the sums
    /// are exact, so this equals `bursts` calls of [`Self::access`].
    pub(crate) fn hit_run(&mut self, timing: &DramTiming, first_ns: f64, bursts: usize) -> f64 {
        let last = first_ns + (bursts - 1) as f64 * timing.ccd_ns;
        self.ready_ns = last + timing.ccd_ns;
        last
    }

    /// Applies a refresh completing at `end_ns`: all rows closed, bank
    /// unavailable until then.
    pub fn refresh_until(&mut self, end_ns: f64) {
        self.open_row = None;
        self.ready_ns = self.ready_ns.max(end_ns);
    }

    /// Applies the all-bank closes this bank missed. The controller
    /// counts its closes (`closes`) and keeps the latest close end
    /// (`end_ns`) instead of walking every bank; a bank that lags the
    /// count closes its row and waits for that end. Ends only act
    /// through `max`, and the bank's ready time already covers every
    /// end it caught up on before, so this equals applying each missed
    /// close in turn.
    #[inline]
    pub(crate) fn catch_up(&mut self, closes: u64, end_ns: f64) {
        if self.closes_seen != closes {
            self.closes_seen = closes;
            self.refresh_until(end_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn cfg() -> DramConfig {
        DramConfig::lpddr3_1600()
    }

    #[test]
    fn first_access_activates() {
        let cfg = cfg();
        let mut bank = Bank::new();
        let (done, class) = bank.access(&cfg.timing(), 0.0, 7, false);
        assert_eq!(class, AccessClass::RowClosed);
        // tRCD + tCL + tCCD cycles.
        let expect = (cfg.t_rcd + cfg.t_cl + cfg.t_ccd) as f64 * cfg.cycle_ns();
        assert!((done - expect).abs() < 1e-9, "{done} vs {expect}");
        assert_eq!(bank.open_row(), Some(7));
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let cfg = cfg();
        let mut bank = Bank::new();
        let (t0, _) = bank.access(&cfg.timing(), 0.0, 1, false);
        let (t_hit, c_hit) = bank.access(&cfg.timing(), t0, 1, false);
        assert_eq!(c_hit, AccessClass::RowHit);

        let mut bank2 = Bank::new();
        let (s0, _) = bank2.access(&cfg.timing(), 0.0, 1, false);
        let (t_conf, c_conf) = bank2.access(&cfg.timing(), s0, 2, false);
        assert_eq!(c_conf, AccessClass::RowConflict);
        assert!(t_conf - s0 > t_hit - t0, "conflict {t_conf} hit {t_hit}");
    }

    #[test]
    fn conflict_respects_tras() {
        let cfg = cfg();
        let mut bank = Bank::new();
        bank.access(&cfg.timing(), 0.0, 1, false);
        // Immediately conflict: precharge cannot begin before
        // activate + tRAS.
        let (done, _) = bank.access(&cfg.timing(), 0.0, 2, false);
        let min_done = (cfg.t_rcd + cfg.t_ras + cfg.t_rp + cfg.t_rcd + cfg.t_cl + cfg.t_ccd) as f64
            * cfg.cycle_ns();
        assert!(done >= min_done - 1e-9, "{done} vs {min_done}");
    }

    #[test]
    fn write_includes_recovery() {
        let cfg = cfg();
        let mut rd = Bank::new();
        let (t_read, _) = rd.access(&cfg.timing(), 0.0, 1, false);
        let mut wr = Bank::new();
        let (t_write, _) = wr.access(&cfg.timing(), 0.0, 1, true);
        // Write: tCWL < tCL but +tWR recovery makes it slower overall.
        assert!(t_write > t_read);
    }

    #[test]
    fn refresh_closes_rows() {
        let cfg = cfg();
        let mut bank = Bank::new();
        bank.access(&cfg.timing(), 0.0, 3, false);
        bank.refresh_until(500.0);
        assert_eq!(bank.open_row(), None);
        assert!(bank.ready_ns() >= 500.0);
    }
}
