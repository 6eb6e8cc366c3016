//! Std-only completion futures for the device service path, one
//! one-shot cell per asynchronous operation.
//!
//! An [`OpFuture`] is a plain [`std::future::Future`] resolved by the
//! engine's clock driver —
//! [`CodicDevice::step`](crate::device::CodicDevice::step) /
//! [`run_to_idle`](crate::device::CodicDevice::run_to_idle) or
//! [`DevicePool::drive`](crate::pool::DevicePool::drive) — with **no
//! external runtime** (the build is offline/vendored), and [`block_on`]
//! is a minimal thread-parking executor for synchronous callers
//! (examples, tests, trace-replay oracles).
//!
//! Each [`OpFuture`] shares one `Arc<Mutex<_>>` cell with the pending
//! entry of its operation. The cell is waiting (holding the awaiting
//! task's waker once the future has been polled), done, or taken. The
//! clock driver fulfils it once, possibly from a rayon worker thread,
//! and wakes any registered waker; awaiting it yields the same typed
//! [`OpCompletion`] the polling API returns. A future dropped before its
//! operation retires leaves the device's fulfilment nothing to wake, and
//! the cell is freed with the entry.
//!
//! # Example
//!
//! Submit asynchronously, drive the clock, and `await` the typed
//! completion — no tick loop and no poll loop:
//!
//! ```
//! use codic_core::device::{CodicDevice, DeviceConfig};
//! use codic_core::executor::block_on;
//! use codic_core::ops::{CodicOp, VariantId};
//! use codic_dram::{DramGeometry, TimingParams};
//!
//! let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
//!     .with_refresh(false);
//! let mut device = CodicDevice::new(config);
//!
//! let future = device.submit_async(CodicOp::command(VariantId::DetZero, 0)).unwrap();
//! assert!(!future.is_ready());
//! device.run_to_idle(); // the clock driver resolves the future
//! let completion = block_on(future);
//! assert_eq!(completion.op, CodicOp::command(VariantId::DetZero, 0));
//! assert!(completion.cost.energy_nj > 0.0);
//! ```
//!
//! Callers that must not block use the non-blocking drain instead:
//! [`OpFuture::try_take`] consumes the completion only once it has
//! arrived. The fleet's serving loop needs no future at all: it submits
//! on each device's synchronous path and drains the shards' completion
//! buffers at every batch boundary (see [`crate::fleet`]).

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use crate::device::OpCompletion;

/// The one-shot cell an [`OpFuture`] and its [`Completer`] share.
#[derive(Debug)]
enum Cell {
    /// In flight; holds the awaiting task's waker once the future has
    /// been polled.
    Waiting(Option<Waker>),
    /// Fulfilled; the completion awaits its one consumer.
    Done(OpCompletion),
    /// Consumed by [`OpFuture::try_take`] or an `await`.
    Taken,
}

/// The device-side half of an [`OpFuture`], held in its operation's
/// pending entry and used up by the one fulfilment.
#[derive(Debug)]
pub(crate) struct Completer(Arc<Mutex<Cell>>);

/// A connected future and completer over a fresh waiting cell.
pub(crate) fn one_shot() -> (OpFuture, Completer) {
    let cell = Arc::new(Mutex::new(Cell::Waiting(None)));
    (OpFuture(Arc::clone(&cell)), Completer(cell))
}

impl Completer {
    /// Stores `completion` and wakes the awaiting task, if any. When the
    /// future was dropped first, the completion lands in a cell nobody
    /// reads and is freed with it.
    pub(crate) fn fulfil(self, completion: OpCompletion) {
        let previous = std::mem::replace(
            &mut *self.0.lock().expect("completion cell poisoned"),
            Cell::Done(completion),
        );
        if let Cell::Waiting(Some(waker)) = previous {
            waker.wake();
        }
    }
}

/// A future resolving to the typed [`OpCompletion`] of one submitted
/// operation.
///
/// Created by [`CodicDevice::submit_async`](crate::device::CodicDevice::submit_async)
/// or [`DevicePool::submit_all_async`](crate::pool::DevicePool::submit_all_async).
/// It is resolved by the clock driver, not by polling: `await` it (under
/// [`block_on`] or any executor) after — or while another thread is —
/// driving the engine.
#[derive(Debug)]
pub struct OpFuture(Arc<Mutex<Cell>>);

impl OpFuture {
    fn cell(&self) -> MutexGuard<'_, Cell> {
        self.0.lock().expect("completion cell poisoned")
    }

    /// Whether the completion has already arrived (non-consuming peek;
    /// `false` again once it has been taken).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(*self.cell(), Cell::Done(_))
    }

    /// Consumes the completion if it has already arrived, without
    /// blocking, registering a waker, or needing an executor. Returns
    /// `None` while the operation is still in flight, and after the
    /// completion has been taken.
    pub fn try_take(&mut self) -> Option<OpCompletion> {
        let mut cell = self.cell();
        let Cell::Done(completion) = *cell else {
            return None;
        };
        *cell = Cell::Taken;
        Some(completion)
    }
}

impl Future for OpFuture {
    type Output = OpCompletion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<OpCompletion> {
        let mut cell = self.cell();
        match std::mem::replace(&mut *cell, Cell::Taken) {
            Cell::Done(completion) => Poll::Ready(completion),
            Cell::Waiting(_) => {
                *cell = Cell::Waiting(Some(cx.waker().clone()));
                Poll::Pending
            }
            Cell::Taken => panic!("OpFuture polled after completion"),
        }
    }
}

/// Wakes the blocked thread of [`block_on`].
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the current thread — the minimal
/// executor the offline/vendored build uses in place of an async runtime.
///
/// The thread parks between polls and is unparked by the future's waker,
/// so this is event-driven too: no spin/poll loop. A future that is never
/// fulfilled (e.g. an [`OpFuture`] whose device is never driven) blocks
/// forever, exactly like awaiting it under any other executor.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
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
        let (future, completer) = one_shot();
        assert!(!future.is_ready());
        completer.fulfil(completion(42));
        assert!(future.is_ready());
        let done = block_on(future);
        assert_eq!(done.finish_cycle, 42);
    }

    #[test]
    fn block_on_wakes_across_threads() {
        let (future, completer) = one_shot();
        let handle_thread = std::thread::spawn(move || {
            // Let the main thread reach park() first in the common case;
            // correctness does not depend on the ordering.
            std::thread::yield_now();
            completer.fulfil(completion(7));
        });
        let done = block_on(future);
        handle_thread.join().unwrap();
        assert_eq!(done.finish_cycle, 7);
    }

    #[test]
    fn block_on_runs_plain_async_blocks() {
        let value = block_on(async { 40 + 2 });
        assert_eq!(value, 42);
    }

    #[test]
    fn dropped_future_frees_its_slot_and_discards_the_completion() {
        let (future, completer) = one_shot();
        drop(future);
        // Fulfilment after the drop lands in a cell nobody reads.
        completer.fulfil(completion(9));
        // A fresh pair starts unfulfilled, untouched by the stale result.
        let (future, fresh) = one_shot();
        assert!(!future.is_ready(), "a new cell starts unfulfilled");
        fresh.fulfil(completion(11));
        assert_eq!(block_on(future).finish_cycle, 11);
    }

    #[test]
    fn try_take_drains_without_blocking() {
        let (mut future, completer) = one_shot();
        assert_eq!(future.try_take(), None, "in-flight op yields nothing");
        completer.fulfil(completion(5));
        let done = future.try_take().expect("fulfilled op drains");
        assert_eq!(done.finish_cycle, 5);
        assert_eq!(future.try_take(), None, "a completion is taken once");
        assert!(!future.is_ready());
    }
}
