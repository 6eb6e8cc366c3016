//! Per-rank activation-window tracking (tRRD and tFAW).

use crate::timing::TimingParams;

/// Tracks the rank-level constraints that span banks: the minimum spacing
/// between activates (`tRRD`) and the sliding four-activate window
/// (`tFAW`). Row operations count their declared number of activations.
#[derive(Debug, Clone, Default)]
pub struct Rank {
    /// Issue cycles of the (at most four) most recent, possibly weighted,
    /// activations, oldest first: `recent_acts[..recent_len]` is live.
    /// tFAW never looks further back than four activations.
    recent_acts: [u64; 4],
    recent_len: usize,
    last_act: Option<u64>,
}

impl Rank {
    /// A rank with no activation history.
    #[must_use]
    pub fn new() -> Self {
        Rank::default()
    }

    /// Whether `count` new activations may issue at `now` without violating
    /// tRRD or tFAW.
    #[must_use]
    pub fn can_activate(&self, now: u64, count: u8, t: &TimingParams) -> bool {
        if let Some(last) = self.last_act {
            if now < last + u64::from(t.t_rrd) {
                return false;
            }
        }
        // tFAW allows at most 4 activations in any window. With `count` new
        // activations at `now`, the one that would become the 5th-most
        // recent is the (5 - count)-th most recent previous activation; it
        // must be at least tFAW old.
        match self.faw_gate(count) {
            Some(gate) => now >= gate + u64::from(t.t_faw),
            None => true,
        }
    }

    /// The previous activation that `count` new ones would push to fifth
    /// most recent (it must be at least tFAW old), or `None` when fewer
    /// than `5 - count` activations are on record.
    fn faw_gate(&self, count: u8) -> Option<u64> {
        let needed_from_history = 5usize.saturating_sub(usize::from(count.min(4)));
        self.recent_len
            .checked_sub(needed_from_history)
            .map(|idx| self.recent_acts[idx])
    }

    /// Records `count` activations issued at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the constraint check fails; call
    /// [`Rank::can_activate`] first.
    pub fn record_activate(&mut self, now: u64, count: u8, t: &TimingParams) {
        assert!(
            self.can_activate(now, count, t),
            "activate violates rank timing (tRRD/tFAW)"
        );
        for _ in 0..count {
            if self.recent_len == self.recent_acts.len() {
                self.recent_acts.copy_within(1.., 0);
                self.recent_len -= 1;
            }
            self.recent_acts[self.recent_len] = now;
            self.recent_len += 1;
        }
        self.last_act = Some(now);
    }

    /// The earliest cycle at which `count` activations could issue, at or
    /// after `now`.
    #[must_use]
    pub fn earliest_activate(&self, now: u64, count: u8, t: &TimingParams) -> u64 {
        let mut earliest = now;
        if let Some(last) = self.last_act {
            earliest = earliest.max(last + u64::from(t.t_rrd));
        }
        if let Some(gate) = self.faw_gate(count) {
            earliest = earliest.max(gate + u64::from(t.t_faw));
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600_11()
    }

    #[test]
    fn trrd_spaces_consecutive_activates() {
        let t = t();
        let mut r = Rank::new();
        r.record_activate(0, 1, &t);
        assert!(!r.can_activate(u64::from(t.t_rrd) - 1, 1, &t));
        assert!(r.can_activate(u64::from(t.t_rrd), 1, &t));
    }

    #[test]
    fn tfaw_limits_fifth_activate() {
        let t = t();
        let mut r = Rank::new();
        let rrd = u64::from(t.t_rrd);
        for i in 0..4 {
            let at = i * rrd;
            assert!(r.can_activate(at, 1, &t), "act {i}");
            r.record_activate(at, 1, &t);
        }
        // Fifth activate must wait until tFAW after the first.
        let faw_gate = u64::from(t.t_faw);
        assert!(!r.can_activate(4 * rrd, 1, &t));
        assert!(r.can_activate(faw_gate, 1, &t));
        assert_eq!(r.earliest_activate(4 * rrd, 1, &t), faw_gate);
    }

    #[test]
    fn double_activation_row_ops_consume_window_faster() {
        let t = t();
        let mut r = Rank::new();
        // Two RowClone-style ops (2 activations each) fill the window.
        r.record_activate(0, 2, &t);
        let next = r.earliest_activate(0, 2, &t);
        r.record_activate(next, 2, &t);
        // A third double-op must wait on tFAW relative to the first pair.
        let gate = r.earliest_activate(next, 2, &t);
        assert!(gate >= u64::from(t.t_faw));
    }

    #[test]
    fn steady_state_activate_rate_is_tfaw_limited() {
        // Issuing single activates as fast as allowed must converge to
        // 4 activates per tFAW window, the bound that shapes the paper's
        // Figure 7 destruction times.
        let t = t();
        let mut r = Rank::new();
        let mut now = 0u64;
        let n = 64;
        for _ in 0..n {
            now = r.earliest_activate(now, 1, &t);
            r.record_activate(now, 1, &t);
        }
        let per_act = now as f64 / (n - 1) as f64;
        let bound = f64::from(t.t_faw) / 4.0;
        assert!((per_act - bound).abs() < 1.0, "rate {per_act} vs {bound}");
    }

    #[test]
    fn fresh_rank_allows_immediate_activates() {
        let t = t();
        let r = Rank::new();
        assert!(r.can_activate(0, 1, &t));
        assert!(r.can_activate(0, 4, &t));
        assert_eq!(r.earliest_activate(5, 1, &t), 5);
    }
}
