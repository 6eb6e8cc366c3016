//! One-shot completion slots for the device's asynchronous submission
//! path: no executor, no waker, no lock.
//!
//! An [`OpFuture`] shares one `Arc<OnceLock<_>>` with its operation's
//! pending entry. The clock driver —
//! [`CodicDevice::step`](crate::device::CodicDevice::step) /
//! [`run_to_idle`](crate::device::CodicDevice::run_to_idle) or
//! [`DevicePool::drive`](crate::pool::DevicePool::drive), possibly on a
//! rayon worker — fills it once, and [`OpFuture::try_take`] takes the
//! typed [`OpCompletion`] once. A slot whose future was dropped is freed
//! with the entry. The fleet's serving loop uses no slot at all: it
//! drains the shards' completion buffers at every batch boundary (see
//! [`crate::fleet`]).
//!
//! ```
//! use codic_core::device::{CodicDevice, DeviceConfig};
//! use codic_core::ops::{CodicOp, VariantId};
//! use codic_dram::{DramGeometry, TimingParams};
//!
//! let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11());
//! let mut device = CodicDevice::new(config.with_refresh(false));
//! let op = CodicOp::command(VariantId::DetZero, 0);
//! let mut future = device.submit_async(op).unwrap();
//! assert_eq!(future.try_take(), None, "nothing has run yet");
//! device.run_to_idle(); // the clock driver fills the slot
//! assert_eq!(future.try_take().map(|c| c.op), Some(op));
//! assert_eq!(future.try_take(), None, "a completion is taken once");
//! ```

use std::sync::{Arc, OnceLock};

use crate::device::OpCompletion;

/// The device-side half of an [`OpFuture`], held in its operation's
/// pending entry and used up by the one fulfilment.
#[derive(Debug)]
pub(crate) struct Completer(Arc<OnceLock<OpCompletion>>);

/// A connected future and completer over a fresh empty slot.
pub(crate) fn one_shot() -> (OpFuture, Completer) {
    let cell = Arc::new(OnceLock::new());
    (OpFuture(Some(Arc::clone(&cell))), Completer(cell))
}

impl Completer {
    /// Stores `completion`, for nobody if the future was dropped first.
    pub(crate) fn fulfil(self, completion: OpCompletion) {
        let filled = self.0.set(completion);
        debug_assert!(filled.is_ok(), "a completer fills its slot once");
    }
}

/// The completion slot of one submitted operation, from
/// [`CodicDevice::submit_async`](crate::device::CodicDevice::submit_async)
/// or [`DevicePool::submit_all_async_routed`](crate::pool::DevicePool::submit_all_async_routed).
/// The clock driver fills it; the holder only takes.
#[derive(Debug)]
pub struct OpFuture(Option<Arc<OnceLock<OpCompletion>>>);

impl OpFuture {
    /// Consumes the completion if it has already arrived, without
    /// blocking. Returns `None` while the operation is still in flight,
    /// and after the completion has been taken (which releases the
    /// slot).
    pub fn try_take(&mut self) -> Option<OpCompletion> {
        let completion = *self.0.as_ref()?.get()?;
        self.0 = None;
        Some(completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{OpCost, OpToken};
    use crate::fault::OpOutcome;
    use crate::ops::{CodicOp, VariantId};

    fn completion(cycle: u64) -> OpCompletion {
        OpCompletion {
            token: OpToken::test_only(cycle),
            op: CodicOp::command(VariantId::Sig, 0),
            finish_cycle: cycle,
            cost: OpCost {
                busy_cycles: 1,
                activations: 1,
                energy_nj: 0.5,
            },
            outcome: OpOutcome::Ok,
            attempts: 1,
            fingerprint: 0,
        }
    }

    #[test]
    fn fulfilled_future_resolves_immediately() {
        let (mut future, completer) = one_shot();
        assert_eq!(future.try_take(), None);
        completer.fulfil(completion(42));
        let done = future.try_take().expect("fulfilled");
        assert_eq!(done.finish_cycle, 42);
    }

    #[test]
    fn a_fulfil_on_another_thread_is_visible_after_join() {
        let (mut future, completer) = one_shot();
        let handle_thread = std::thread::spawn(move || completer.fulfil(completion(7)));
        handle_thread.join().unwrap();
        let done = future
            .try_take()
            .expect("the fill happened before the join");
        assert_eq!(done.finish_cycle, 7);
        assert_eq!(future.try_take(), None, "a completion is taken once");
    }

    #[test]
    fn dropped_future_frees_its_slot_and_discards_the_completion() {
        let (future, completer) = one_shot();
        drop(future);
        // Fulfilment after the drop lands in a slot nobody reads.
        completer.fulfil(completion(9));
        // A fresh pair starts unfulfilled, untouched by the stale result.
        let (mut future, fresh) = one_shot();
        assert_eq!(future.try_take(), None, "a new slot starts unfulfilled");
        fresh.fulfil(completion(11));
        assert_eq!(future.try_take().map(|c| c.finish_cycle), Some(11));
    }

    #[test]
    fn try_take_drains_without_blocking() {
        let (mut future, completer) = one_shot();
        assert_eq!(future.try_take(), None, "in-flight op yields nothing");
        completer.fulfil(completion(5));
        let done = future.try_take().expect("fulfilled op drains");
        assert_eq!(done.finish_cycle, 5);
        assert_eq!(future.try_take(), None, "a completion is taken once");
    }
}
