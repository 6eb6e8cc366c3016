//! Chaos end-to-end: the fault-injection layer exercised over the real
//! wire path, against the acceptance contract of the robustness PR:
//!
//! - **Phase A** — with retry disabled, a misfire-armed server serving
//!   the 160k-op mixed trace delivers every *non-faulted* operation
//!   **bit-identical** (finish cycle and energy bits) to the fault-free
//!   server, and every faulted operation as a typed failure unit; the
//!   in-process faulted engine and the socket stream agree exactly.
//! - **Phase B** — retry-with-backoff recovers almost all misfires at a
//!   harsh per-attempt rate, deterministically (twin runs, one
//!   checksum).
//! - **Phase C** — a shard whose clock wedges mid-trace is quarantined
//!   at a batch boundary, its stranded operations surface as typed
//!   `ClockStuck` failures, and the remaining traffic re-routes to the
//!   survivors deterministically.
//! - **Shutdown** — a server told to shut down mid-session drains what
//!   is in flight and sends an honest `Summary` before hanging up.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use codic_core::fault::{FaultCause, FaultPlan, RetryPolicy};
use codic_server::client::{replay, ClientReport};
use codic_server::proto::{
    self, read_frame_crc, write_frame_crc, Fnv64, Frame, SessionParams, WireCompletion,
};
use codic_server::server::{ReplayEngine, ReplayServer, ServerConfig};
use codic_server::trace::generate_mixed;

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codic-chaos-{tag}-{}.sock", std::process::id()))
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

fn chaos_config(fault: FaultPlan, retry: RetryPolicy) -> ServerConfig {
    ServerConfig {
        fault: Some(fault),
        retry,
        ..ServerConfig::default()
    }
}

fn wire_run(tag: &str, config: ServerConfig, ops: &[codic_core::ops::CodicOp]) -> ClientReport {
    with_server(tag, config, 1, |socket| {
        replay(socket, &SessionParams::defaults(), ops, 1024).expect("chaos session")
    })
}

#[test]
fn misfires_on_the_wire_flip_outcome_bits_and_nothing_else() {
    // The capstone trace: 160k mixed ops (≥100k row operations).
    let ops = generate_mixed(160_000, 8192, 2024);
    let plan = FaultPlan::new(0xc0d1_c000).with_misfires(2048); // ~3% of row ops

    let baseline = wire_run("base", ServerConfig::default(), &ops);
    assert!(baseline.failures.is_empty());
    let faulted = wire_run("misfire", chaos_config(plan, RetryPolicy::default()), &ops);

    // Conservation: every op resolves exactly once, one way or the other.
    assert_eq!(
        faulted.completions.len() + faulted.failures.len(),
        ops.len()
    );
    assert!(
        !faulted.failures.is_empty(),
        "a 3% misfire plan over 100k+ row ops must fire"
    );

    // Every non-faulted op is bit-identical to the fault-free server:
    // same shard, op, finish cycle, busy cycles, and energy bits.
    let reference: HashMap<u64, &WireCompletion> =
        baseline.completions.iter().map(|c| (c.seq, c)).collect();
    for got in &faulted.completions {
        let want = reference[&got.seq];
        assert_eq!(got.shard, want.shard, "seq {} shard", got.seq);
        assert_eq!(got.op, want.op, "seq {} op", got.seq);
        assert_eq!(got.finish_cycle, want.finish_cycle, "seq {}", got.seq);
        assert_eq!(got.busy_cycles, want.busy_cycles, "seq {}", got.seq);
        assert_eq!(
            got.energy_nj.to_bits(),
            want.energy_nj.to_bits(),
            "seq {} energy bits",
            got.seq
        );
    }
    // Every faulted op is a typed misfire on a row operation, at the
    // exact cycle its fault-free twin finished — the op occupied the
    // DRAM either way; only the outcome bits differ.
    for failure in &faulted.failures {
        assert_eq!(failure.cause, FaultCause::Misfire);
        assert_eq!(failure.attempts, 1, "retry is disabled");
        assert!(
            failure.op.row_op_kind().is_some(),
            "plain reads/writes never misfire"
        );
        let twin = reference[&failure.seq];
        assert_eq!(failure.shard, twin.shard);
        assert_eq!(failure.op, twin.op);
        assert_eq!(failure.at_cycle, twin.finish_cycle, "timeline preserved");
    }
    assert_eq!(
        faulted.summary.max_finish_cycle, baseline.summary.max_finish_cycle,
        "the session timeline is bit-identical"
    );

    // The in-process faulted engine, batched identically, must agree
    // with the socket stream event for event — one determinism check
    // across two fully independent runs.
    let config = chaos_config(plan, RetryPolicy::default());
    let fleet = config.fleet(&faulted.params, 1);
    let mut engine = ReplayEngine::for_fleet(&faulted.params, &fleet).expect("a free slot");
    let mut in_process = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(1024) {
        in_process.extend(engine.submit_batch(chunk).expect("in range"));
    }
    in_process.extend(engine.flush());
    assert_eq!(in_process.len(), ops.len());
    let (mut wire_c, mut wire_f) = (faulted.completions.iter(), faulted.failures.iter());
    for r in &in_process {
        match r.to_wire_failure() {
            Some(failure) => assert_eq!(&failure, wire_f.next().expect("failure on the wire")),
            None => assert_eq!(&r.to_wire(), wire_c.next().expect("completion on the wire")),
        }
    }
}

#[test]
fn retry_recovers_misfires_over_the_wire_deterministically() {
    let ops = generate_mixed(20_000, 8192, 7);
    // A harsh 20% per-attempt rate; 4 attempts push the per-op failure
    // rate to ~0.16%, so retry must recover the overwhelming majority.
    let plan = FaultPlan::new(77).with_misfires(13_107);
    let retry = RetryPolicy::attempts(4).with_backoff(32, 512);

    let recovered = wire_run("retry", chaos_config(plan, retry), &ops);
    let unprotected = wire_run("noretry", chaos_config(plan, RetryPolicy::default()), &ops);

    assert!(
        unprotected.summary.failed > 1_000,
        "20% of 12k+ row ops must misfire unprotected, saw {}",
        unprotected.summary.failed
    );
    assert!(
        recovered.summary.failed < unprotected.summary.failed / 20,
        "retry must recover ≥95% of misfires: {} vs {}",
        recovered.summary.failed,
        unprotected.summary.failed
    );
    for failure in &recovered.failures {
        assert_eq!(
            failure.attempts, 4,
            "a final failure exhausted its attempts"
        );
        assert_eq!(failure.cause, FaultCause::Misfire);
    }
    // Determinism: a twin run is bit-identical down to the checksum.
    let twin = wire_run("retrytwin", chaos_config(plan, retry), &ops);
    assert_eq!(recovered.checksum, twin.checksum);
    assert_eq!(recovered.summary, twin.summary);
}

#[test]
fn stuck_shard_is_quarantined_and_traffic_reroutes_to_survivors() {
    let ops = generate_mixed(8_000, 8192, 9);
    // Shard 1's clock wedges at cycle 50 — mid-first-batch.
    let plan = FaultPlan::new(9).with_stuck_shard(1, 50);

    let run = |tag: &str| wire_run(tag, chaos_config(plan, RetryPolicy::default()), &ops);
    let report = run("stuck");

    assert_eq!(report.completions.len() + report.failures.len(), ops.len());
    assert!(
        !report.failures.is_empty(),
        "the wedged shard strands operations"
    );
    for failure in &report.failures {
        assert_eq!(failure.cause, FaultCause::ClockStuck);
        assert_eq!(failure.shard, 1, "only the wedged shard fails");
    }
    // Shard 1 traffic after the wedge re-routed: any completion still on
    // shard 1 finished before the clock ceiling.
    let on_wedged: Vec<&WireCompletion> =
        report.completions.iter().filter(|c| c.shard == 1).collect();
    for c in &on_wedged {
        assert!(
            c.finish_cycle <= 50,
            "seq {} completed on the wedged shard at cycle {}",
            c.seq,
            c.finish_cycle
        );
    }
    // The survivors actually absorbed the re-routed rows.
    for shard in [0u16, 2, 3] {
        assert!(
            report.completions.iter().any(|c| c.shard == shard),
            "survivor shard {shard} served traffic"
        );
    }
    // Deterministic containment: the twin run fails the same set and
    // re-routes identically, down to the checksum.
    let twin = run("stucktwin");
    assert_eq!(report.checksum, twin.checksum);
    assert_eq!(report.summary, twin.summary);
    assert_eq!(report.failures, twin.failures);
}

#[test]
fn graceful_shutdown_drains_in_flight_ops_and_sends_an_honest_summary() {
    let socket = temp_socket("shutdown");
    let server = ReplayServer::bind(&socket, ServerConfig::default()).expect("bind");
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve_forever());

    // A batch below max_outstanding: the boundary admits it without
    // driving, so nearly everything is still in flight afterwards.
    let ops = generate_mixed(800, 8192, 13);
    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    // Raw frames on purpose: this test checks the shutdown teardown
    // frame by frame (resume has its own suite in chaos_transport_e2e.rs).
    write_frame_crc(&mut writer, &Frame::Hello(SessionParams::defaults())).expect("hello");
    writer.flush().expect("flush");
    match read_frame_crc(&mut reader).expect("ack") {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_frame_crc(&mut writer, &Frame::Batch(ops.clone())).expect("batch");
    writer.flush().expect("flush");

    let mut checksum = Fnv64::new();
    let mut payload = Vec::new();
    let mut delivered = 0u64;
    // Completions arrive as Events units; the checksum folds each
    // unit's payload.
    let absorb = |events: &[proto::SessionEvent],
                  checksum: &mut Fnv64,
                  payload: &mut Vec<u8>,
                  delivered: &mut u64| {
        for event in events {
            match event {
                proto::SessionEvent::Completion(c) => {
                    payload.clear();
                    proto::completion_payload(c, payload);
                }
                proto::SessionEvent::Failure(f) => {
                    payload.clear();
                    proto::failure_payload(f, payload);
                }
            }
            checksum.update(payload);
            *delivered += 1;
        }
    };
    loop {
        match read_frame_crc(&mut reader).expect("burst") {
            Frame::Events(events) => absorb(&events, &mut checksum, &mut payload, &mut delivered),
            Frame::Batched(ack) => {
                assert_eq!(ack.accepted, ops.len() as u32);
                assert!(
                    ack.outstanding > 0,
                    "the shutdown must catch operations in flight"
                );
                break;
            }
            other => panic!("expected Events/Batched, got {other:?}"),
        }
    }

    // No Bye: the server is told to shut down with the session open.
    handle.shutdown();
    let summary = loop {
        match read_frame_crc(&mut reader).expect("teardown stream") {
            Frame::Events(events) => absorb(&events, &mut checksum, &mut payload, &mut delivered),
            Frame::Summary(summary) => break summary,
            other => panic!("expected Events/Summary, got {other:?}"),
        }
    };
    serving.join().expect("server thread").expect("accept loop");

    // Honest totals: every in-flight op was drained and accounted, and
    // the checksum covers exactly what was streamed.
    assert_eq!(summary.ops, ops.len() as u64);
    assert_eq!(summary.ops, delivered);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.checksum, checksum.value());

    // A post-shutdown connection is turned away (or refused outright).
    if let Ok(stream) = UnixStream::connect(&socket) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        if write_frame_crc(&mut writer, &Frame::Hello(SessionParams::defaults()))
            .and_then(|()| writer.flush())
            .is_ok()
        {
            assert!(
                read_frame_crc(&mut reader).is_err(),
                "a shut-down server must not serve new sessions"
            );
        }
    }
}
