//! Memory bounds of a session: the heap it holds must follow what it
//! has to keep, not its length.
//!
//! - Under a starved write. FR-FCFS drains writes only at the
//!   high-water mark or once the read queue is empty, so a write
//!   followed by a steady stream of reads to the same shard waits while
//!   every later request retires around it. A device table sized by the
//!   span of live request ids, rather than by their count, grows with
//!   every read served behind that write. Comparing two session lengths
//!   cancels set-up, so what remains is what the longer stream kept
//!   alive.
//! - The resume journal holds its retained units and one emission, not
//!   the slack of a buffer that grows by doubling.
//! - Client verification holds one batch of the reference, not the
//!   whole reference stream next to the report.
//!
//! A counting global allocator tracks the live heap bytes of the thread
//! under test, and their peak.
//!
//! Like `alloc_budget.rs`, the allocator forwards to [`System`] and only
//! counts; the `unsafe` is that forwarding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use codic_core::ops::CodicOp;
use codic_dram::geometry::DramGeometry;
use codic_server::client::{verify_against_reference, ClientReport};
use codic_server::proto::{
    decode_body, read_body_crc, write_frame_crc, Frame, SessionParams, Summary,
};
use codic_server::server::{serve_session, ReplayEngine, ServerConfig, SessionEnd};
use codic_server::trace::generate_mixed;

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
    let (end, peak) =
        peak_during(|| serve_session(&mut input.as_slice(), &mut io::sink(), &config).unwrap());
    assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");
    peak
}

/// Peak live heap bytes on this thread while `run` runs, above the live
/// bytes when it started.
fn peak_during<T>(run: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = run();
    (out, PEAK.with(Cell::get) - base)
}

/// The batch size `perfbench` replays with.
const BATCH: usize = 256;

/// An `n`-op mixed trace over a 64 MiB module, as `perfbench`'s
/// `mixed_replay` generates it.
fn mixed_ops(n: usize) -> Vec<CodicOp> {
    generate_mixed(n, DramGeometry::module_mib(64).total_rows(), 1)
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

#[test]
fn the_journal_holds_its_retained_units_and_one_emission() {
    let config = ServerConfig::default();
    let ops = mixed_ops(65_536);
    let session = |ops: &[CodicOp]| {
        let mut input = Vec::new();
        write_frame_crc(&mut input, &Frame::Hello(SessionParams::defaults())).unwrap();
        for chunk in ops.chunks(BATCH) {
            write_frame_crc(&mut input, &Frame::Batch(chunk.to_vec())).unwrap();
        }
        write_frame_crc(&mut input, &Frame::Bye).unwrap();
        // Reserved before the measurement, so the served stream lands
        // without an allocation on the serving thread.
        let mut output = Vec::with_capacity(16 << 20);
        let (end, peak) =
            peak_during(|| serve_session(&mut input.as_slice(), &mut output, &config).unwrap());
        assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");
        assert_eq!(output.capacity(), 16 << 20, "the output buffer never grew");
        (output, peak)
    };
    // Set-up: the fleet, the pool and the reader, with no event.
    let (_, empty) = session(&[]);
    let (output, peak) = session(&ops);

    // Each live emission goes out as one `Events` frame, so the frames
    // give the unit bytes the journal retains (the cap evicts none of
    // them) and the largest emission.
    let (mut retained, mut emission, mut body) = (0usize, 0usize, Vec::new());
    let mut wire = output.as_slice();
    while !wire.is_empty() {
        let frame = read_body_crc(&mut wire, &mut body).unwrap();
        if let Frame::Events(events) = decode_body(frame).unwrap() {
            assert!(!events.is_empty());
            // Tag and unit count precede the units.
            let units = frame.len() - 5;
            retained += units;
            emission = emission.max(units);
        }
    }
    assert!(retained < config.journal_max_bytes, "the cap evicted units");
    assert!(
        retained > 2 << 20,
        "the session journaled only {retained} B"
    );
    let bound = retained + emission + (256 << 10);
    assert!(
        (peak - empty) as usize <= bound,
        "peak live heap {} B over set-up, bound {bound} B ({retained} B retained, \
         largest emission {emission} B)",
        peak - empty
    );
}

#[test]
fn verification_holds_one_batch_of_the_reference() {
    let ops = mixed_ops(131_072);
    let params = ServerConfig::default().negotiate(&SessionParams::defaults());
    // The served stream of a faithful server is the reference's own.
    let mut engine = ReplayEngine::new(&params);
    let mut completions = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(BATCH) {
        let drained = engine.submit_batch(chunk).unwrap();
        completions.extend(drained.iter().map(|e| e.to_wire()));
    }
    completions.extend(engine.flush().iter().map(|e| e.to_wire()));
    drop(engine);
    let report = ClientReport {
        params,
        completions,
        failures: Vec::new(),
        summary: Summary::default(),
        checksum: 0,
        host_seconds: 1.0,
        connections: 1,
    };
    let (verified, peak) = peak_during(|| verify_against_reference(&report, &ops, BATCH));
    verified.expect("the faithful stream verifies");
    assert!(
        peak <= 1 << 20,
        "verification added {peak} B of peak live heap over its inputs"
    );
}
