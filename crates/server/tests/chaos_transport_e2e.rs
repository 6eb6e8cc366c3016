//! Chaos-transport end to end: protocol v4's resume machinery exercised
//! over real sockets while the seeded chaos shim actively cuts,
//! corrupts, shortens, and stalls the wire.
//!
//! The acceptance contract this suite pins:
//!
//! - A session cut mid-stream reconnects, resumes, and finishes with a
//!   `Summary` — server-side checksum included — **bit-identical** to
//!   an uninterrupted run, and a client-visible stream that verifies
//!   against the in-process reference engine.
//! - The same holds with device-level fault injection armed at the
//!   same time: the three fault domains (device, session, transport)
//!   compose without touching the DRAM timeline.
//! - Corrupted bytes are always *detected* (CRC32C trailers), surface
//!   as reconnects, and never as wrong data.
//! - Short reads/writes and stalls are pure pacing: one connection, no
//!   resume, same bytes.
//! - A client that vanishes (silent or cut) is honestly torn down by
//!   the idle deadline, and its parked resume state — journal
//!   included — is reaped by the accept loop (the stale-session fix).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codic_core::fault::FaultPlan;
use codic_server::chaos::{self, ChaosPlan};
use codic_server::client::{
    replay, replay_resumable_with, verify_against_reference, ClientReport, ResumePolicy,
};
use codic_server::proto::{read_frame_crc, write_frame_crc, ErrorCode, Frame, SessionParams};
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::generate_mixed;

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codic-chaoswire-{tag}-{}.sock", std::process::id()))
}

/// A live daemon-mode server (`serve_forever`) the closure's client may
/// connect to as many times as its chaos requires.
fn with_live_server<R>(
    tag: &str,
    config: ServerConfig,
    client: impl FnOnce(&PathBuf, &ReplayServer) -> R,
) -> R {
    let socket = temp_socket(tag);
    let server = Arc::new(ReplayServer::bind(&socket, config).expect("bind temp socket"));
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.serve_forever().expect("serve")
    });
    let out = client(&socket, &server);
    handle.shutdown();
    serving.join().expect("server thread");
    out
}

type ChaosHalves = (
    BufReader<chaos::ChaosReader<UnixStream>>,
    BufWriter<chaos::ChaosWriter<UnixStream>>,
);

/// Opens connection `attempt` through `plan`'s chaos (independently
/// reseeded per attempt, like the real client binary does).
fn chaos_connect(socket: &Path, plan: ChaosPlan, attempt: u32) -> io::Result<ChaosHalves> {
    let stream = UnixStream::connect(socket)?;
    let (reader, writer) = chaos::wrap_unix(stream, plan.for_attempt(attempt))?;
    Ok((BufReader::new(reader), BufWriter::new(writer)))
}

/// Runs the resumable client through `plan` against `socket`.
fn chaos_replay(
    socket: &Path,
    ops: &[codic_core::ops::CodicOp],
    batch: usize,
    plan: ChaosPlan,
) -> ClientReport {
    let policy = ResumePolicy {
        max_resumes: 32,
        backoff_base: Duration::from_millis(1),
    };
    replay_resumable_with(&SessionParams::defaults(), ops, batch, policy, |attempt| {
        chaos_connect(socket, plan, attempt)
    })
    .expect("chaotic session recovers")
}

/// Polls `probe` until it returns true or `deadline` passes.
fn eventually(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    probe()
}

#[test]
fn cut_sessions_resume_to_the_uninterrupted_checksum() {
    let ops = generate_mixed(12_000, 8192, 99);
    with_live_server("cut", ServerConfig::default(), |socket, _| {
        let clean = replay(socket, &SessionParams::defaults(), &ops, 512).expect("clean run");
        verify_against_reference(&clean, &ops, 512).expect("clean stream verifies");
        assert_eq!(clean.connections, 1);

        // ~500 KiB of completions stream down: a 150 KiB cut budget
        // guarantees several mid-frame kills before the trace finishes.
        let plan = ChaosPlan::new(0xc4a0_5001).with_cut_after(150_000);
        let chaotic = chaos_replay(socket, &ops, 512, plan);
        assert!(
            chaotic.connections > 1,
            "the cut must actually fire (got {} connection(s))",
            chaotic.connections
        );
        assert_eq!(
            chaotic.summary.checksum, clean.summary.checksum,
            "a resumed session's checksum is bit-identical to a clean run"
        );
        assert_eq!(chaotic.summary, clean.summary);
        assert_eq!(chaotic.completions.len(), ops.len());
        verify_against_reference(&chaotic, &ops, 512).expect("chaotic stream verifies");
    });
}

#[test]
fn transport_cuts_compose_with_device_fault_injection() {
    // Device misfires *and* transport cuts at once: the CI smoke's
    // fault plan, served over a wire that keeps dying. Failures are
    // session events like completions — journaled, replayed, and
    // checksummed — so the faulted stream resumes bit-identically too.
    let ops = generate_mixed(12_000, 8192, 2024);
    let faulted = ServerConfig {
        fault: Some(FaultPlan::new(2024).with_misfires(6554)),
        ..ServerConfig::default()
    };
    with_live_server("cutfaults", faulted, |socket, _| {
        let clean = replay(socket, &SessionParams::defaults(), &ops, 512).expect("clean run");
        assert!(
            !clean.failures.is_empty(),
            "the misfire plan must actually fire"
        );
        let plan = ChaosPlan::new(0xfa17_c001).with_cut_after(160_000);
        let chaotic = chaos_replay(socket, &ops, 512, plan);
        assert!(chaotic.connections > 1, "the cut must actually fire");
        assert_eq!(chaotic.summary, clean.summary);
        assert_eq!(chaotic.failures.len(), clean.failures.len());
        assert_eq!(
            chaotic.failures, clean.failures,
            "typed failures replay exactly"
        );
    });
}

#[test]
fn corrupted_bytes_are_detected_and_healed_by_resume() {
    // ~1 corrupted byte per 64 KiB per direction over a ~200 KiB
    // session: every strike is caught by a CRC32C trailer (client- or
    // server-side), kills that connection, and the next one resumes.
    // Nothing ever decodes wrong — the final stream is the clean one.
    let ops = generate_mixed(4_000, 8192, 7);
    with_live_server("corrupt", ServerConfig::default(), |socket, _| {
        let clean = replay(socket, &SessionParams::defaults(), &ops, 256).expect("clean run");
        let plan = ChaosPlan::new(0x0bad_b175).with_corruption(1);
        let chaotic = chaos_replay(socket, &ops, 256, plan);
        assert_eq!(chaotic.summary, clean.summary);
        assert_eq!(chaotic.completions.len(), ops.len());
        verify_against_reference(&chaotic, &ops, 256).expect("healed stream verifies");
    });
}

#[test]
fn short_io_and_stalls_are_pure_pacing() {
    // 7-byte transfers and seeded ~1 ms stalls: brutal for buffering,
    // invisible to correctness — one connection, no resume, the clean
    // checksum.
    let ops = generate_mixed(2_000, 8192, 55);
    with_live_server("shortio", ServerConfig::default(), |socket, _| {
        let clean = replay(socket, &SessionParams::defaults(), &ops, 256).expect("clean run");
        let plan = ChaosPlan::new(0x51a1_1ed0).with_short_io(7).with_stalls(64);
        let paced = chaos_replay(socket, &ops, 256, plan);
        assert_eq!(paced.connections, 1, "pacing alone must not kill anything");
        assert_eq!(paced.summary, clean.summary);
        verify_against_reference(&paced, &ops, 256).expect("paced stream verifies");
    });
}

#[test]
fn silent_clients_are_torn_down_honestly_at_the_idle_deadline() {
    let quick = ServerConfig {
        read_timeout_ms: 5,
        session_idle_ms: 60,
        ..ServerConfig::default()
    };
    with_live_server("idlesilent", quick, |socket, server| {
        let stream = UnixStream::connect(socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        write_frame_crc(&mut writer, &Frame::Hello(SessionParams::defaults())).expect("hello");
        writer.flush().expect("flush");
        match read_frame_crc(&mut reader).expect("hello ack") {
            Frame::HelloAck { token, .. } => assert_ne!(token, 0),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        // Go silent. The server must tear the session down honestly:
        // a typed Unavailable naming the deadline, then the Summary of
        // what was actually delivered (nothing).
        match read_frame_crc(&mut reader).expect("idle teardown") {
            Frame::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Unavailable);
                assert!(detail.contains("idle deadline"), "detail: {detail}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        match read_frame_crc(&mut reader).expect("final summary") {
            Frame::Summary(s) => assert_eq!(s.ops, 0),
            other => panic!("expected Summary, got {other:?}"),
        }
        // An idle teardown frees the session outright — nothing parks.
        assert_eq!(server.parked_sessions(), 0);
    });
}

#[test]
fn parked_sessions_of_vanished_clients_are_reaped() {
    // The stale-session regression: a client cut mid-stream parks its
    // session for resume, but if it never comes back the accept loop's
    // reaper must free the session (journal included) at the idle
    // deadline — parked state may not accumulate forever.
    let quick = ServerConfig {
        read_timeout_ms: 5,
        session_idle_ms: 60,
        ..ServerConfig::default()
    };
    let ops = generate_mixed(1_000, 8192, 13);
    with_live_server("idlereap", quick, |socket, server| {
        let stream = UnixStream::connect(socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        write_frame_crc(&mut writer, &Frame::Hello(SessionParams::defaults())).expect("hello");
        write_frame_crc(&mut writer, &Frame::Batch(ops.clone())).expect("batch");
        writer.flush().expect("flush");
        let mut sink = [0u8; 4096];
        let _ = reader.read(&mut sink); // absorb a little, then vanish
        drop(reader);
        drop(writer);

        assert!(
            eventually(Duration::from_secs(5), || server.parked_sessions() == 1),
            "the cut session must park for resume"
        );
        assert!(
            eventually(Duration::from_secs(5), || server.parked_sessions() == 0),
            "the reaper must free the parked session at the idle deadline"
        );
    });
}
