//! Session edge cases: degenerate windows, empty work units, and the
//! zero-completion session — the corners where backpressure and tally
//! bookkeeping are easiest to get wrong.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use codic_server::client::{replay, verify_against_reference};
use codic_server::proto::{
    completion_payload, failure_payload, read_frame_crc, write_frame_crc, Fnv64, Frame,
    SessionEvent, SessionParams,
};
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::generate_mixed;

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codic-edge-{tag}-{}.sock", std::process::id()))
}

fn with_server<R>(
    tag: &str,
    config: ServerConfig,
    sessions: usize,
    client: impl FnOnce(&PathBuf) -> R,
) -> R {
    let socket = temp_socket(tag);
    let server = ReplayServer::bind(&socket, config).expect("bind temp socket");
    let serving = std::thread::spawn(move || {
        server.serve_connections(sessions).expect("serve");
    });
    let out = client(&socket);
    serving.join().expect("server thread");
    out
}

/// A raw protocol session: Hello, then hand the typed reader/writer to
/// the closure for frame-level choreography.
fn raw_session<R>(
    socket: &PathBuf,
    hello: &SessionParams,
    drive: impl FnOnce(&mut BufReader<UnixStream>, &mut BufWriter<UnixStream>) -> R,
) -> R {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame_crc(&mut writer, &Frame::Hello(*hello)).expect("hello");
    writer.flush().expect("flush");
    match read_frame_crc(&mut reader).expect("hello ack") {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    drive(&mut reader, &mut writer)
}

/// Reads frames until the first that is not `Events`, folding every
/// event unit before it into `checksum`; returns that frame and the
/// number of units folded.
fn read_past_events(reader: &mut BufReader<UnixStream>, checksum: &mut Fnv64) -> (Frame, u64) {
    let mut payload = Vec::new();
    let mut units = 0;
    loop {
        match read_frame_crc(reader).expect("frame") {
            Frame::Events(events) => {
                for event in &events {
                    payload.clear();
                    match event {
                        SessionEvent::Completion(c) => completion_payload(c, &mut payload),
                        SessionEvent::Failure(f) => failure_payload(f, &mut payload),
                    }
                    checksum.update(&payload);
                    units += 1;
                }
            }
            other => return (other, units),
        }
    }
}

/// A 5 ms socket read timeout, so a 40 ms client pause spans several
/// timed-out reads on the server.
fn short_timeouts() -> ServerConfig {
    ServerConfig {
        read_timeout_ms: 5,
        session_idle_ms: 5_000,
        ..ServerConfig::default()
    }
}

#[test]
fn a_frame_straddling_read_timeouts_loses_no_bytes() {
    // One Batch frame sent in three pieces with a pause after each: the
    // server's reads time out inside the length prefix and inside the
    // body, and must resume exactly where they stopped.
    let ops = generate_mixed(300, 8192, 17);
    let mut wire = Vec::new();
    write_frame_crc(&mut wire, &Frame::Batch(ops)).expect("encode");
    assert!(wire.len() > 700, "the last piece must not be empty");
    with_server("straddle", short_timeouts(), 1, |socket| {
        raw_session(socket, &SessionParams::defaults(), |reader, writer| {
            for piece in [&wire[..2], &wire[2..700], &wire[700..]] {
                writer.write_all(piece).expect("send piece");
                writer.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(40));
            }
            let mut checksum = Fnv64::new();
            match read_past_events(reader, &mut checksum) {
                (Frame::Batched(ack), _) => assert_eq!(ack.accepted, 300),
                (other, _) => panic!("expected Batched, got {other:?}"),
            }
            write_frame_crc(writer, &Frame::Bye).expect("bye");
            writer.flush().expect("flush");
            match read_past_events(reader, &mut checksum) {
                (Frame::Summary(s), _) => {
                    assert_eq!(s.ops, 300);
                    assert_eq!(s.checksum, checksum.value());
                }
                (other, _) => panic!("expected Summary, got {other:?}"),
            }
        });
    });
}

#[test]
fn shutdown_with_half_a_frame_unread_still_sends_an_honest_summary() {
    let socket = temp_socket("halfshutdown");
    let server = ReplayServer::bind(&socket, short_timeouts()).expect("bind temp socket");
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve_forever());
    let ops = generate_mixed(200, 8192, 23);
    raw_session(&socket, &SessionParams::defaults(), |reader, writer| {
        write_frame_crc(writer, &Frame::Batch(ops.clone())).expect("batch");
        writer.flush().expect("flush");
        let mut checksum = Fnv64::new();
        let mut delivered = match read_past_events(reader, &mut checksum) {
            (Frame::Batched(ack), units) => {
                assert_eq!(ack.accepted, 200);
                units
            }
            (other, _) => panic!("expected Batched, got {other:?}"),
        };
        // Half of a second batch, then silence: the shutdown finds the
        // server waiting for the rest of that frame.
        let mut wire = Vec::new();
        write_frame_crc(&mut wire, &Frame::Batch(ops.clone())).expect("encode");
        writer
            .write_all(&wire[..wire.len() / 2])
            .expect("half frame");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(40));
        handle.shutdown();
        match read_past_events(reader, &mut checksum) {
            (Frame::Summary(s), units) => {
                delivered += units;
                // Only the whole batch counts; the half frame is dropped.
                assert_eq!(s.ops, 200);
                assert_eq!(s.ops, delivered);
                assert_eq!(s.failed, 0);
                assert_eq!(s.checksum, checksum.value());
            }
            (other, _) => panic!("expected Summary, got {other:?}"),
        }
    });
    serving.join().expect("server thread").expect("accept loop");
}

#[test]
fn outstanding_window_of_one_fully_serializes_and_verifies() {
    // The tightest legal window: every operation must retire before the
    // next is admitted. Pacing changes; results must not.
    let ops = generate_mixed(600, 8192, 31);
    let tight = SessionParams {
        max_outstanding: 1,
        ..SessionParams::defaults()
    };
    let report = with_server("window1", ServerConfig::default(), 1, |socket| {
        replay(socket, &tight, &ops, 128).expect("window-1 session")
    });
    assert_eq!(report.params.max_outstanding, 1);
    assert_eq!(report.summary.ops, 600);
    assert_eq!(report.summary.failed, 0);
    verify_against_reference(&report, &ops, 128).expect("window-1 stream verifies");
}

#[test]
fn empty_batch_is_acked_without_consuming_sequence_numbers() {
    let ops = generate_mixed(8, 8192, 3);
    with_server("emptybatch", ServerConfig::default(), 1, |socket| {
        raw_session(socket, &SessionParams::defaults(), |reader, writer| {
            // An empty batch: legal, acked, and free.
            write_frame_crc(writer, &Frame::Batch(Vec::new())).expect("send");
            writer.flush().expect("flush");
            let ack = match read_frame_crc(reader).expect("ack") {
                Frame::Batched(ack) => ack,
                other => panic!("expected Batched, got {other:?}"),
            };
            assert_eq!(ack.accepted, 0);
            assert_eq!(ack.emitted, 0);
            assert_eq!(ack.seq_base, 0, "no sequence numbers consumed");
            assert_eq!(ack.outstanding, 0);

            // The next real batch starts exactly where the session began.
            write_frame_crc(writer, &Frame::Batch(ops.clone())).expect("send");
            writer.flush().expect("flush");
            loop {
                match read_frame_crc(reader).expect("burst") {
                    Frame::Events(events) => {
                        for event in events {
                            match event {
                                SessionEvent::Completion(c) => {
                                    assert!(c.seq < ops.len() as u64)
                                }
                                SessionEvent::Failure(f) => {
                                    panic!("fault-free session failed seq {}", f.seq)
                                }
                            }
                        }
                    }
                    Frame::Batched(ack) => {
                        assert_eq!(ack.seq_base, 0, "empty batch consumed nothing");
                        assert_eq!(ack.accepted, ops.len() as u32);
                        break;
                    }
                    other => panic!("expected Events/Batched, got {other:?}"),
                }
            }
            write_frame_crc(writer, &Frame::Bye).expect("bye");
            writer.flush().expect("flush");
            loop {
                match read_frame_crc(reader).expect("tail") {
                    Frame::Events(_) => {}
                    Frame::Summary(s) => {
                        assert_eq!(s.ops, ops.len() as u64);
                        break;
                    }
                    other => panic!("expected Events/Summary, got {other:?}"),
                }
            }
        });
    });
}

#[test]
fn flush_with_nothing_in_flight_acks_zero() {
    with_server("idleflush", ServerConfig::default(), 1, |socket| {
        raw_session(socket, &SessionParams::defaults(), |reader, writer| {
            for _ in 0..2 {
                write_frame_crc(writer, &Frame::Flush).expect("send");
                writer.flush().expect("flush");
                match read_frame_crc(reader).expect("ack") {
                    Frame::Flushed(ack) => {
                        assert_eq!(ack.emitted, 0, "nothing was in flight");
                    }
                    other => panic!("expected Flushed, got {other:?}"),
                }
            }
            write_frame_crc(writer, &Frame::Bye).expect("bye");
            writer.flush().expect("flush");
            match read_frame_crc(reader).expect("summary") {
                Frame::Summary(s) => assert_eq!(s.ops, 0),
                other => panic!("expected Summary, got {other:?}"),
            }
        });
    });
}

#[test]
fn zero_completion_session_reports_the_empty_checksum() {
    // FNV-1a over zero bytes is the offset basis: a session that never
    // streamed a frame must say exactly that, not zero.
    const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    with_server("zerosession", ServerConfig::default(), 1, |socket| {
        raw_session(socket, &SessionParams::defaults(), |reader, writer| {
            write_frame_crc(writer, &Frame::Bye).expect("bye");
            writer.flush().expect("flush");
            match read_frame_crc(reader).expect("summary") {
                Frame::Summary(s) => {
                    assert_eq!(s.ops, 0);
                    assert_eq!(s.row_ops, 0);
                    assert_eq!(s.failed, 0);
                    assert_eq!(s.max_finish_cycle, 0);
                    assert_eq!(s.total_energy_nj.to_bits(), 0.0f64.to_bits());
                    assert_eq!(s.checksum, FNV_OFFSET_BASIS);
                }
                other => panic!("expected Summary, got {other:?}"),
            }
        });
    });
}

#[test]
fn governed_empty_batches_never_divide_by_zero_or_sleep() {
    // A rate-governed session fed only empty batches: the governor sees
    // zero rows and must neither stall nor panic.
    let governed = SessionParams {
        target_rows_per_s: 1_000,
        ..SessionParams::defaults()
    };
    with_server("govempty", ServerConfig::default(), 1, |socket| {
        raw_session(socket, &governed, |reader, writer| {
            let started = std::time::Instant::now();
            for _ in 0..16 {
                write_frame_crc(writer, &Frame::Batch(Vec::new())).expect("send");
                writer.flush().expect("flush");
                match read_frame_crc(reader).expect("ack") {
                    Frame::Batched(ack) => assert_eq!(ack.accepted, 0),
                    other => panic!("expected Batched, got {other:?}"),
                }
            }
            assert!(
                started.elapsed() < std::time::Duration::from_secs(2),
                "zero-row batches must not be paced as if they carried rows"
            );
            write_frame_crc(writer, &Frame::Bye).expect("bye");
            writer.flush().expect("flush");
            match read_frame_crc(reader).expect("summary") {
                Frame::Summary(s) => assert_eq!(s.ops, 0),
                other => panic!("expected Summary, got {other:?}"),
            }
        });
    });
}
