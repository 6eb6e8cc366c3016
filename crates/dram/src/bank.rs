//! Per-bank state machine enforcing intra-bank JEDEC timing.

use crate::timing::TimingParams;

/// One DRAM bank: its open row (if any) and the earliest cycle at which
/// each command class may next be issued to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    open_row: Option<u32>,
    next_act: u64,
    next_pre: u64,
    next_rd: u64,
    next_wr: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

impl Bank {
    /// A precharged bank, ready to activate at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        Bank {
            open_row: None,
            next_act: 0,
            next_pre: 0,
            next_rd: 0,
            next_wr: 0,
        }
    }

    /// The currently open row, if the bank is active.
    #[inline]
    #[must_use]
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Whether an activate may issue at `now`.
    #[inline]
    #[must_use]
    pub fn can_activate(&self, now: u64) -> bool {
        self.open_row.is_none() && now >= self.next_act
    }

    /// Whether a precharge may issue at `now`.
    #[inline]
    #[must_use]
    pub fn can_precharge(&self, now: u64) -> bool {
        self.open_row.is_some() && now >= self.next_pre
    }

    /// Whether a row operation may issue at `now` (requires a precharged
    /// bank, like an activate).
    #[inline]
    #[must_use]
    pub fn can_row_op(&self, now: u64) -> bool {
        self.can_activate(now)
    }

    /// The earliest cycle an activate could issue (ignoring rank windows).
    #[inline]
    #[must_use]
    pub fn next_act_at(&self) -> u64 {
        self.next_act
    }

    /// The earliest cycle a precharge could issue (meaningful only while a
    /// row is open).
    #[inline]
    #[must_use]
    pub fn next_pre_at(&self) -> u64 {
        self.next_pre
    }

    /// The earliest cycle a read could issue to the open row.
    #[inline]
    #[must_use]
    pub fn next_rd_at(&self) -> u64 {
        self.next_rd
    }

    /// The earliest cycle a write could issue to the open row.
    #[inline]
    #[must_use]
    pub fn next_wr_at(&self) -> u64 {
        self.next_wr
    }

    /// Issues an activate for `row` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the timing constraints are violated; the controller must
    /// check [`Bank::can_activate`] first.
    pub fn activate(&mut self, row: u32, now: u64, t: &TimingParams) {
        assert!(self.can_activate(now), "activate violates bank timing");
        self.open_row = Some(row);
        self.next_rd = now + u64::from(t.t_rcd);
        self.next_wr = now + u64::from(t.t_rcd);
        self.next_pre = now + u64::from(t.t_ras);
        self.next_act = now + u64::from(t.t_rc);
    }

    /// Issues a precharge at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the timing constraints are violated.
    pub fn precharge(&mut self, now: u64, t: &TimingParams) {
        assert!(self.can_precharge(now), "precharge violates bank timing");
        self.open_row = None;
        self.next_act = self.next_act.max(now + u64::from(t.t_rp));
    }

    /// Issues a read burst at cycle `now`; returns the cycle at which the
    /// data has fully returned.
    ///
    /// # Panics
    ///
    /// Panics if the timing constraints are violated.
    pub fn read(&mut self, now: u64, t: &TimingParams) -> u64 {
        assert!(
            self.open_row.is_some() && now >= self.next_rd,
            "read violates bank timing"
        );
        self.next_rd = now + u64::from(t.t_ccd);
        self.next_wr = now + u64::from(t.t_cl) + u64::from(t.t_bl) + 2 - u64::from(t.t_cwl);
        self.next_pre = self.next_pre.max(now + u64::from(t.t_rtp));
        now + u64::from(t.t_cl) + u64::from(t.t_bl)
    }

    /// Issues a write burst at cycle `now`; returns the cycle at which the
    /// write data has been fully transferred.
    ///
    /// # Panics
    ///
    /// Panics if the timing constraints are violated.
    pub fn write(&mut self, now: u64, t: &TimingParams) -> u64 {
        assert!(
            self.open_row.is_some() && now >= self.next_wr,
            "write violates bank timing"
        );
        let data_end = now + u64::from(t.t_cwl) + u64::from(t.t_bl);
        self.next_wr = now + u64::from(t.t_ccd);
        self.next_rd = data_end + u64::from(t.t_wtr);
        self.next_pre = self.next_pre.max(data_end + u64::from(t.t_wr));
        data_end
    }

    /// Issues a bank-occupying row operation at `now` lasting
    /// `busy_cycles`; the bank returns to the precharged state afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not precharged and past its tRC window.
    pub fn row_op(&mut self, now: u64, busy_cycles: u32) {
        assert!(self.can_row_op(now), "row op violates bank timing");
        self.open_row = None;
        self.next_act = now + u64::from(busy_cycles);
    }

    /// Blocks the bank until `until` (used for refresh).
    pub fn block_until(&mut self, until: u64) {
        self.next_act = self.next_act.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600_11()
    }

    #[test]
    fn activate_read_precharge_sequence_obeys_trcd_tras_trp() {
        let t = t();
        let mut b = Bank::new();
        b.activate(7, 0, &t);
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.next_rd_at(), u64::from(t.t_rcd));
        assert_eq!(b.next_wr_at(), u64::from(t.t_rcd));
        assert!(!b.can_precharge(u64::from(t.t_ras) - 1));
        let done = b.read(u64::from(t.t_rcd), &t);
        assert_eq!(done, u64::from(t.t_rcd + t.t_cl + t.t_bl));
        assert!(b.can_precharge(u64::from(t.t_ras)));
        b.precharge(u64::from(t.t_ras), &t);
        assert!(!b.can_activate(u64::from(t.t_rc) - 1));
        assert!(b.can_activate(u64::from(t.t_rc)));
    }

    #[test]
    fn reads_to_wrong_row_are_refused() {
        let t = t();
        let mut b = Bank::new();
        b.activate(3, 0, &t);
        assert_ne!(b.open_row(), Some(4));
        assert_eq!(b.open_row(), Some(3));
        assert!(b.next_rd_at() <= 100);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        let issue = u64::from(t.t_rcd);
        let data_end = b.write(issue, &t);
        assert_eq!(data_end, issue + u64::from(t.t_cwl + t.t_bl));
        let earliest_pre = data_end + u64::from(t.t_wr);
        assert!(!b.can_precharge(earliest_pre - 1));
        assert!(b.can_precharge(earliest_pre));
    }

    #[test]
    fn write_to_read_turnaround_is_enforced() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        let issue = u64::from(t.t_rcd);
        let data_end = b.write(issue, &t);
        assert_eq!(b.open_row(), Some(0));
        assert_eq!(b.next_rd_at(), data_end + u64::from(t.t_wtr));
        assert_eq!(b.next_wr_at(), issue + u64::from(t.t_ccd));
    }

    #[test]
    fn row_op_occupies_then_releases_bank() {
        let t = t();
        let mut b = Bank::new();
        b.row_op(0, t.t_rc);
        assert_eq!(b.open_row(), None);
        assert!(!b.can_activate(u64::from(t.t_rc) - 1));
        assert!(b.can_activate(u64::from(t.t_rc)));
    }

    #[test]
    fn back_to_back_reads_respect_tccd() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        let first = u64::from(t.t_rcd);
        let _ = b.read(first, &t);
        assert_eq!(b.open_row(), Some(0));
        assert_eq!(b.next_rd_at(), first + u64::from(t.t_ccd));
    }

    #[test]
    #[should_panic(expected = "activate violates")]
    fn double_activate_panics() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        b.activate(1, 1, &t);
    }
}
