//! The serving path's reply writes and per-batch allocations.
//!
//! A reply — the `Events` frame a `Batch`, `Flush` or `Bye` drained and
//! the `Batched`, `Flushed` or `Summary` frame that closes it — reaches
//! the stream in one write call when its emission fits one `Events`
//! frame: on a socket, one system call and one wakeup of the client.
//! The writer below records each `write` and `write_vectored` call the
//! server makes, taking every byte it is handed, as a socket with room
//! in its send buffer does.
//!
//! The fixed-size frames (`HelloAck`, `Batched`, `Flushed`, `Summary`)
//! are encoded on the stack. A counting global allocator, as in
//! `alloc_budget.rs`, pins how many allocations a further served batch
//! costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, IoSlice, Write};

use codic_core::ops::CodicOp;
use codic_server::proto::{read_frame_crc, write_frame_crc, Frame, SessionParams};
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

/// A stream that keeps the bytes of each write call apart.
#[derive(Default)]
struct Calls(Vec<Vec<u8>>);

impl Write for Calls {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let call: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
        let len = call.len();
        self.0.push(call);
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The frames of one write call.
fn frames(mut call: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while !call.is_empty() {
        frames.push(read_frame_crc(&mut call).expect("a call carries whole frames"));
    }
    frames
}

/// The client's side of a session: `Hello`, then `frames`.
fn session(frames: &[Frame]) -> Vec<u8> {
    let mut input = Vec::new();
    write_frame_crc(&mut input, &Frame::Hello(SessionParams::defaults())).unwrap();
    for frame in frames {
        write_frame_crc(&mut input, frame).unwrap();
    }
    input
}

#[test]
fn every_reply_reaches_the_stream_in_one_write() {
    let ops = generate_mixed(2048, 8192, 7);
    let mut requests: Vec<Frame> = ops[..1024]
        .chunks(256)
        .map(|chunk| Frame::Batch(chunk.to_vec()))
        .collect();
    requests.push(Frame::Flush);
    requests.push(Frame::Batch(Vec::new()));
    requests.extend(ops[1024..].chunks(512).map(|c| Frame::Batch(c.to_vec())));
    requests.push(Frame::Bye);

    let mut calls = Calls::default();
    let end = serve_session(
        &mut session(&requests).as_slice(),
        &mut calls,
        &ServerConfig::default(),
    )
    .unwrap();
    assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");

    // One call for the handshake, then one per request.
    let calls = calls.0;
    assert_eq!(calls.len(), 1 + requests.len(), "write calls");
    assert!(matches!(&frames(&calls[0])[..], [Frame::HelloAck { .. }]));
    let mut events = 0;
    for (request, call) in requests.iter().zip(&calls[1..]) {
        let replies = frames(call);
        let (reply, emission) = replies.split_last().expect("every call carries its reply");
        let emitted = match (request, reply) {
            (Frame::Batch(_), Frame::Batched(ack)) => u64::from(ack.emitted),
            (Frame::Flush, Frame::Flushed(ack)) => ack.emitted,
            (Frame::Bye, Frame::Summary(summary)) => summary.ops + summary.failed - events,
            other => panic!("unexpected reply pairing {other:?}"),
        };
        match emission {
            [] => assert_eq!(emitted, 0),
            [Frame::Events(units)] => assert_eq!(units.len() as u64, emitted),
            other => panic!("an emission of one frame, got {other:?}"),
        }
        events += emitted;
    }
    assert_eq!(events, ops.len() as u64, "every op's event arrived");
}

/// Allocations on this thread while the server serves `ops` in batches
/// of `batch`, from `Hello` to `Summary`.
fn serving_allocs(ops: &[CodicOp], batch: usize) -> u64 {
    let mut requests: Vec<Frame> = ops
        .chunks(batch)
        .map(|chunk| Frame::Batch(chunk.to_vec()))
        .collect();
    requests.push(Frame::Bye);
    let input = session(&requests);
    let config = ServerConfig::default();
    let before = ALLOCS.with(Cell::get);
    let end = serve_session(&mut input.as_slice(), &mut io::sink(), &config).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(matches!(end, SessionEnd::Bye), "session ended with {end:?}");
    allocs
}

#[test]
fn a_served_batch_costs_a_fixed_count_of_allocations() {
    const SHORT: usize = 8192;
    const LONG: usize = 16384;
    const BATCH: usize = 256;
    let ops = generate_mixed(LONG, 8192, 2024);
    let marginal = serving_allocs(&ops, BATCH) as f64 - serving_allocs(&ops[..SHORT], BATCH) as f64;
    let per_batch = marginal / ((LONG - SHORT) / BATCH) as f64;
    // Six per batch, plus one amortized doubling of the journal's
    // emission queue over the longer session (1/32 per batch). The
    // `Batched` ack is encoded on the stack: a `Vec` body cost three
    // more allocations per batch, as it grew to the ack's 25 bytes.
    assert_eq!(
        per_batch.round(),
        6.0,
        "allocations per served batch: {per_batch:.3}"
    );
}
