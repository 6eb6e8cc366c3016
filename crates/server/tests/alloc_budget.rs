//! Allocation budget of the serving path: the heap allocations a served
//! batch costs must not grow with the batch's size.
//!
//! A counting global allocator tallies every `alloc` and `realloc` made
//! on the thread that serves an in-memory session. The *marginal* count
//! per batch — the difference between two session lengths at one batch
//! size, divided by the difference in batches — cancels session set-up
//! and teardown, leaving what each further batch costs. A `Vec` that
//! grows by doubling shows up here as a cost that rises with the batch.
//!
//! This file holds the only `unsafe` of the test suite: the allocator
//! forwards to [`System`] and only counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use codic_server::proto::{write_frame_crc, Frame, SessionParams};
use codic_server::server::{serve_session, ServerConfig, SessionEnd};
use codic_server::trace::generate_mixed;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations on this thread while the server serves `ops` in batches
/// of `batch`, from `Hello` to `Summary`.
fn serving_allocs(ops: &[codic_core::ops::CodicOp], batch: usize) -> u64 {
    let mut input = Vec::new();
    write_frame_crc(&mut input, &Frame::Hello(SessionParams::defaults())).unwrap();
    for chunk in ops.chunks(batch) {
        write_frame_crc(&mut input, &Frame::Batch(chunk.to_vec())).unwrap();
    }
    write_frame_crc(&mut input, &Frame::Bye).unwrap();
    let config = ServerConfig::default();
    let before = ALLOCS.with(Cell::get);
    let end = serve_session(&mut input.as_slice(), &mut io::sink(), &config).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");
    allocs
}

#[test]
fn allocations_per_served_batch_do_not_grow_with_the_batch() {
    const SHORT: usize = 8192;
    const LONG: usize = 16384;
    let ops = generate_mixed(LONG, 8192, 2024);
    let marginal = |batch: usize| {
        let (short, long) = (
            serving_allocs(&ops[..SHORT], batch),
            serving_allocs(&ops, batch),
        );
        (long - short) as f64 / ((LONG - SHORT) / batch) as f64
    };
    let (small, large) = (marginal(64), marginal(1024));
    assert!(
        large <= small + 1.0,
        "allocations per batch: {small:.2} at 64-op batches, {large:.2} at 1024-op batches"
    );
}
