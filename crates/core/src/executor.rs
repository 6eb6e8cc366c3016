//! Std-only completion futures for the device service path, backed by a
//! preallocated slot arena.
//!
//! The ROADMAP's async-executor item asks services to `await` operation
//! completions instead of polling
//! [`execute_all`](crate::device::CodicDevice::execute_all). This module
//! supplies the machinery with **no external runtime** (the build is
//! offline/vendored): an [`OpFuture`] is a plain [`std::future::Future`]
//! resolved by the engine's clock driver —
//! [`CodicDevice::step`](crate::device::CodicDevice::step) /
//! [`run_to_idle`](crate::device::CodicDevice::run_to_idle) or
//! [`DevicePool::drive`](crate::pool::DevicePool::drive) — and
//! [`block_on`] is a minimal thread-parking executor for synchronous
//! callers (examples, tests, trace-replay services).
//!
//! # Allocation-free steady state
//!
//! Futures do not own a per-operation `Arc<Mutex>`. Each device owns one
//! `SlotArena` — a slab of completion slots recycled through a
//! freelist — and a future is just `(Arc<arena>, slot index, generation)`.
//! Submitting an operation claims a slot (recycling a freed one when
//! available), the clock driver fulfils it, and consuming or dropping
//! the future returns the slot to the freelist with its generation
//! bumped, so a stale handle can never observe a recycled slot. After
//! warm-up the async path allocates nothing per operation.
//!
//! The contract: submitting through
//! [`submit_async`](crate::device::CodicDevice::submit_async) hands back a
//! future; driving the clock fulfils it (possibly from a rayon worker
//! thread — the arena is mutex-guarded and wakes any registered waker);
//! awaiting it yields the same typed [`OpCompletion`] the polling API
//! returns, in the same completion order.
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
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use crate::device::OpCompletion;

/// One completion slot of the arena.
#[derive(Debug)]
struct ArenaSlot {
    /// Bumped every time the slot is returned to the freelist; a handle
    /// whose generation does not match is stale (its future was consumed
    /// or dropped) and is ignored.
    generation: u32,
    state: SlotState,
}

#[derive(Debug)]
enum SlotState {
    /// On the freelist.
    Vacant,
    /// Claimed by a submission; holds the awaiting task's waker once the
    /// future has been polled.
    Waiting(Option<Waker>),
    /// Fulfilled; the completion awaits its one consumer.
    Done(OpCompletion),
}

#[derive(Debug, Default)]
struct ArenaInner {
    slots: Vec<ArenaSlot>,
    free: Vec<u32>,
}

/// A device's preallocated pool of completion slots. Shared (via `Arc`)
/// between the device — which claims and fulfils slots — and the
/// [`OpFuture`]s that await them.
#[derive(Debug, Default)]
pub(crate) struct SlotArena {
    inner: Mutex<ArenaInner>,
}

/// The device-side handle to one claimed slot: a plain `Copy` index +
/// generation pair, stored in the device's pending table instead of a
/// per-operation allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotHandle {
    index: u32,
    generation: u32,
}

impl SlotArena {
    /// An arena with `capacity` slots pre-created (it still grows on
    /// demand if a burst claims more).
    pub(crate) fn with_capacity(capacity: usize) -> Arc<Self> {
        let mut inner = ArenaInner {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        };
        for i in 0..capacity {
            inner.slots.push(ArenaSlot {
                generation: 0,
                state: SlotState::Vacant,
            });
            inner.free.push(i as u32);
        }
        Arc::new(SlotArena {
            inner: Mutex::new(inner),
        })
    }

    /// Claims a slot (recycling a freed one when available) and returns
    /// the connected future/handle pair.
    pub(crate) fn claim(self: &Arc<Self>) -> (OpFuture, SlotHandle) {
        let mut inner = self.inner.lock().expect("slot arena poisoned");
        let index = match inner.free.pop() {
            Some(index) => index,
            None => {
                inner.slots.push(ArenaSlot {
                    generation: 0,
                    state: SlotState::Vacant,
                });
                (inner.slots.len() - 1) as u32
            }
        };
        let slot = &mut inner.slots[index as usize];
        slot.state = SlotState::Waiting(None);
        let handle = SlotHandle {
            index,
            generation: slot.generation,
        };
        drop(inner);
        (
            OpFuture {
                arena: Arc::clone(self),
                handle,
                taken: false,
            },
            handle,
        )
    }

    /// Stores `completion` in the slot `handle` names and wakes the
    /// awaiting task, if any. A stale handle (its future was dropped
    /// before fulfilment) is ignored — matching the old per-op-slot
    /// behavior where the completion landed in a slot nobody could read.
    pub(crate) fn fulfil(&self, handle: SlotHandle, completion: OpCompletion) {
        let waker = {
            let mut inner = self.inner.lock().expect("slot arena poisoned");
            let slot = &mut inner.slots[handle.index as usize];
            if slot.generation != handle.generation {
                return;
            }
            match std::mem::replace(&mut slot.state, SlotState::Done(completion)) {
                SlotState::Waiting(waker) => waker,
                state => {
                    slot.state = state;
                    return;
                }
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Returns `handle`'s slot to the freelist, invalidating the handle.
    fn release(&self, handle: SlotHandle) {
        let mut inner = self.inner.lock().expect("slot arena poisoned");
        let slot = &mut inner.slots[handle.index as usize];
        if slot.generation != handle.generation {
            return;
        }
        slot.generation = slot.generation.wrapping_add(1);
        slot.state = SlotState::Vacant;
        inner.free.push(handle.index);
    }
}

/// A future resolving to the typed [`OpCompletion`] of one submitted
/// operation.
///
/// Created by [`CodicDevice::submit_async`](crate::device::CodicDevice::submit_async)
/// or [`DevicePool::submit_all_async`](crate::pool::DevicePool::submit_all_async).
/// It is resolved by the clock driver, not by polling: `await` it (under
/// [`block_on`] or any executor) after — or while another thread is —
/// driving the engine. The future references a recycled arena slot, not
/// a per-operation allocation; consuming or dropping it frees the slot.
#[derive(Debug)]
pub struct OpFuture {
    arena: Arc<SlotArena>,
    handle: SlotHandle,
    taken: bool,
}

impl OpFuture {
    /// Whether the completion has already arrived (non-consuming peek).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        if self.taken {
            return false;
        }
        let inner = self.arena.inner.lock().expect("slot arena poisoned");
        let slot = &inner.slots[self.handle.index as usize];
        slot.generation == self.handle.generation && matches!(slot.state, SlotState::Done(_))
    }

    /// Consumes the completion if it has already arrived, without
    /// blocking, registering a waker, or needing an executor — the
    /// serving-loop drain. Returns `None` while the operation is still in
    /// flight (and after the completion has been taken); the slot is
    /// recycled exactly as if the future had been awaited.
    pub fn try_take(&mut self) -> Option<OpCompletion> {
        if self.taken {
            return None;
        }
        let mut inner = self.arena.inner.lock().expect("slot arena poisoned");
        let slot = &mut inner.slots[self.handle.index as usize];
        if slot.generation != self.handle.generation || !matches!(slot.state, SlotState::Done(_)) {
            return None;
        }
        let SlotState::Done(completion) = std::mem::replace(&mut slot.state, SlotState::Vacant)
        else {
            unreachable!("state was just matched as Done");
        };
        // Inline release (the lock is already held): bump the generation
        // and return the slot to the freelist.
        slot.generation = slot.generation.wrapping_add(1);
        inner.free.push(self.handle.index);
        self.taken = true;
        Some(completion)
    }
}

impl Future for OpFuture {
    type Output = OpCompletion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<OpCompletion> {
        let this = self.get_mut();
        assert!(!this.taken, "OpFuture polled after completion");
        let completion = {
            let mut inner = this.arena.inner.lock().expect("slot arena poisoned");
            let slot = &mut inner.slots[this.handle.index as usize];
            debug_assert_eq!(
                slot.generation, this.handle.generation,
                "live future references a recycled slot"
            );
            match &mut slot.state {
                SlotState::Done(completion) => *completion,
                SlotState::Waiting(waker) => {
                    *waker = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                SlotState::Vacant => unreachable!("claimed slot cannot be vacant"),
            }
        };
        this.taken = true;
        this.arena.release(this.handle);
        Poll::Ready(completion)
    }
}

impl Drop for OpFuture {
    fn drop(&mut self) {
        if !self.taken {
            self.arena.release(self.handle);
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
        let arena = SlotArena::with_capacity(4);
        let (future, handle) = arena.claim();
        assert!(!future.is_ready());
        arena.fulfil(handle, completion(42));
        assert!(future.is_ready());
        let done = block_on(future);
        assert_eq!(done.finish_cycle, 42);
    }

    #[test]
    fn block_on_wakes_across_threads() {
        let arena = SlotArena::with_capacity(1);
        let (future, handle) = arena.claim();
        let fulfiller = Arc::clone(&arena);
        let handle_thread = std::thread::spawn(move || {
            // Let the main thread reach park() first in the common case;
            // correctness does not depend on the ordering.
            std::thread::yield_now();
            fulfiller.fulfil(handle, completion(7));
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
    fn slots_are_recycled_not_reallocated() {
        let arena = SlotArena::with_capacity(2);
        for round in 0..8u64 {
            let (future, handle) = arena.claim();
            arena.fulfil(handle, completion(round));
            assert_eq!(block_on(future).finish_cycle, round);
        }
        let inner = arena.inner.lock().unwrap();
        assert_eq!(inner.slots.len(), 2, "steady state claims no new slots");
        assert_eq!(inner.free.len(), 2, "all slots returned to the freelist");
    }

    #[test]
    fn dropped_future_frees_its_slot_and_discards_the_completion() {
        let arena = SlotArena::with_capacity(1);
        let (future, handle) = arena.claim();
        drop(future);
        // Fulfilment after the drop is a stale-generation no-op.
        arena.fulfil(handle, completion(9));
        // The slot is reusable and uncontaminated by the stale result.
        let (future, fresh) = arena.claim();
        assert!(!future.is_ready(), "recycled slot starts unfulfilled");
        arena.fulfil(fresh, completion(11));
        assert_eq!(block_on(future).finish_cycle, 11);
        let inner = arena.inner.lock().unwrap();
        assert_eq!(inner.slots.len(), 1, "one slot served every claim");
    }

    #[test]
    fn try_take_drains_without_blocking() {
        let arena = SlotArena::with_capacity(2);
        let (mut future, handle) = arena.claim();
        assert_eq!(future.try_take(), None, "in-flight op yields nothing");
        arena.fulfil(handle, completion(5));
        let done = future.try_take().expect("fulfilled op drains");
        assert_eq!(done.finish_cycle, 5);
        assert_eq!(future.try_take(), None, "a completion is taken once");
        assert!(!future.is_ready());
        // The slot was recycled: dropping the future must not double-free.
        drop(future);
        let inner = arena.inner.lock().unwrap();
        assert_eq!(inner.free.len(), 2, "slot returned to the freelist once");
    }

    #[test]
    fn arena_grows_past_capacity_when_a_burst_demands_it() {
        let arena = SlotArena::with_capacity(1);
        let (f1, h1) = arena.claim();
        let (f2, h2) = arena.claim();
        {
            let inner = arena.inner.lock().unwrap();
            assert_eq!(inner.slots.len(), 2, "the burst created a second slot");
            assert!(inner.free.is_empty());
        }
        arena.fulfil(h2, completion(2));
        arena.fulfil(h1, completion(1));
        assert_eq!(block_on(f1).finish_cycle, 1);
        assert_eq!(block_on(f2).finish_cycle, 2);
        let inner = arena.inner.lock().unwrap();
        assert_eq!(inner.free.len(), 2, "both slots returned to the freelist");
    }
}
