//! Memory bound of the serving path under a starved write: the heap a
//! session holds must follow its live operations, not its length.
//!
//! FR-FCFS drains writes only at the high-water mark or once the read
//! queue is empty, so a write followed by a steady stream of reads to
//! the same shard waits while every later request retires around it. A
//! device table sized by the span of live request ids, rather than by
//! their count, grows with every read served behind that write.
//!
//! A counting global allocator tracks the live heap bytes of the thread
//! that serves an in-memory session, and their peak. Comparing two
//! session lengths cancels set-up, so what remains is what the longer
//! stream kept alive.
//!
//! Like `alloc_budget.rs`, the allocator forwards to [`System`] and only
//! counts; the `unsafe` is that forwarding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use codic_core::ops::CodicOp;
use codic_dram::geometry::DramGeometry;
use codic_server::proto::{write_frame_crc, Frame, SessionParams};
use codic_server::server::{serve_session, ServerConfig, SessionEnd};

thread_local! {
    /// Heap bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking inside the allocator.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct LiveBytes;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; tracking touches no heap memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Peak live heap bytes on this thread while the server serves `Hello`,
/// one `Write` to row 0, `reads` reads of shard 0's rows in 64-op
/// batches, and `Bye`.
fn peak_serving_bytes(reads: u64) -> i64 {
    let config = ServerConfig {
        journal_max_bytes: 64 << 10,
        ..ServerConfig::default()
    };
    // Rows are dealt to shards in blocks of 8 (one bank rotation), so
    // shard 0 of the default 4 owns every fourth block.
    let row_of = |i: u64| i / 8 * 8 * config.shards as u64 + i % 8;
    let ops: Vec<CodicOp> = (0..reads)
        .map(|i| CodicOp::read(row_of(i % 2048) * DramGeometry::ROW_BYTES))
        .collect();
    let mut input = Vec::new();
    write_frame_crc(&mut input, &Frame::Hello(SessionParams::defaults())).unwrap();
    write_frame_crc(&mut input, &Frame::Batch(vec![CodicOp::write(0)])).unwrap();
    for chunk in ops.chunks(64) {
        write_frame_crc(&mut input, &Frame::Batch(chunk.to_vec())).unwrap();
    }
    write_frame_crc(&mut input, &Frame::Bye).unwrap();
    drop(ops);
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let end = serve_session(&mut input.as_slice(), &mut io::sink(), &config).unwrap();
    assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");
    PEAK.with(Cell::get) - base
}

#[test]
fn peak_heap_does_not_grow_with_reads_served_behind_a_starved_write() {
    let short = peak_serving_bytes(25_000);
    let long = peak_serving_bytes(200_000);
    assert!(
        long - short < 1 << 20,
        "peak live heap: {short} B at 25,000 reads, {long} B at 200,000 reads"
    );
}
