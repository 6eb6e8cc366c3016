//! Multi-tenant shared-fleet serving, end to end over real sockets:
//! many concurrent sessions multiplexed onto one shared device fleet,
//! over the Unix listener and the TCP listener at once.
//!
//! The acceptance contract this suite pins:
//!
//! - k concurrent tenants on a shared fleet each receive a stream
//!   **bit-identical** to a solo run on a private pool — the in-process
//!   reference engine (`verify_against_reference`) and a live
//!   private-pool server both agree — over Unix and TCP alike.
//! - The bundled sample trace played through a fleet tenant over TCP
//!   lands the repo-wide pinned checksum `0x2361aca91f8ddfd0`: fleet
//!   multiplexing and transport choice are invisible to the stream.
//! - A tenant whose wire is cut mid-stream resumes to its clean
//!   checksum while its neighbors' sessions — running the whole time —
//!   are not perturbed by the cut, the park, or the resume.
//! - Device-level fault injection composes: a misfire-armed fleet
//!   serves each tenant the same typed-failure stream a misfire-armed
//!   private server would.
//! - Oversized v5 resource claims (tenant count, op quota) are rejected
//!   with a typed `Policy` error before any allocation, a full fleet
//!   rejects with `Unavailable`, and a vanished tenant's slot is
//!   recycled to the next Hello once the reaper frees its parked
//!   session (a finished tenant gives its slot back at `Bye`).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use codic_core::fault::FaultPlan;
use codic_core::ops::CodicOp;
use codic_server::chaos::{self, ChaosPlan};
use codic_server::client::{
    replay, replay_resumable_with, replay_tcp, verify_against_reference, ClientReport, ResumePolicy,
};
use codic_server::proto::{
    read_frame_crc, write_frame_crc, ErrorCode, Frame, SessionParams, MAX_TENANT_CLAIM,
};
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::{generate_mixed, parse_trace};

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codic-fleet-{tag}-{}.sock", std::process::id()))
}

/// A live daemon-mode fleet server listening on a Unix socket *and* an
/// ephemeral TCP port at once; the closure gets both addresses.
fn with_fleet_server<R>(
    tag: &str,
    config: ServerConfig,
    client: impl FnOnce(&PathBuf, SocketAddr, &ReplayServer) -> R,
) -> R {
    let socket = temp_socket(tag);
    let server = ReplayServer::bind(&socket, config)
        .expect("bind temp socket")
        .with_tcp("127.0.0.1:0")
        .expect("bind ephemeral tcp");
    let addr = server.tcp_addr().expect("tcp listener address");
    let server = Arc::new(server);
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.serve_forever().expect("serve")
    });
    let out = client(&socket, addr, &server);
    handle.shutdown();
    serving.join().expect("server thread");
    out
}

/// Solo references: each trace played alone against a live
/// *private-pool* server (no fleet) with the same config.
fn solo_reports(tag: &str, config: ServerConfig, traces: &[Vec<CodicOp>]) -> Vec<ClientReport> {
    let socket = temp_socket(&format!("{tag}-solo"));
    let server = Arc::new(ReplayServer::bind(&socket, config).expect("bind solo socket"));
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.serve_forever().expect("serve solo")
    });
    let reports = traces
        .iter()
        .map(|ops| replay(&socket, &SessionParams::defaults(), ops, 512).expect("solo run"))
        .collect();
    handle.shutdown();
    serving.join().expect("solo server thread");
    reports
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

fn fleet_config(slots: usize) -> ServerConfig {
    ServerConfig {
        fleet_slots: slots,
        ..ServerConfig::default()
    }
}

#[test]
fn concurrent_fleet_tenants_match_solo_private_runs_over_unix_and_tcp() {
    // Four tenants with four distinct traces, two over the Unix
    // listener and two over TCP, all in flight at once on one shared
    // fleet. Each must land exactly the stream a private-pool server
    // gives that trace alone.
    let traces: Vec<Vec<CodicOp>> = (0..4u64)
        .map(|t| generate_mixed(3_000, 8192, 100 + t))
        .collect();
    let solo = solo_reports("mix", ServerConfig::default(), &traces);

    let fleet = with_fleet_server("mix", fleet_config(4), |socket, addr, _| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = traces
                .iter()
                .enumerate()
                .map(|(tenant, ops)| {
                    scope.spawn(move || {
                        if tenant % 2 == 0 {
                            replay(socket, &SessionParams::defaults(), ops, 512)
                        } else {
                            replay_tcp(addr, &SessionParams::defaults(), ops, 512)
                        }
                        .expect("fleet tenant run")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread"))
                .collect::<Vec<_>>()
        })
    });

    for (tenant, (ours, solo)) in fleet.iter().zip(&solo).enumerate() {
        assert_eq!(
            ours.summary, solo.summary,
            "tenant {tenant}: fleet summary differs from the solo private-pool run"
        );
        assert_eq!(ours.completions, solo.completions, "tenant {tenant}");
        assert_eq!(ours.checksum, solo.checksum, "tenant {tenant}");
        verify_against_reference(ours, &traces[tenant], 512).expect("fleet stream verifies");
        // The ack advertises the fleet: every tenant sees 4 slots.
        assert_eq!(ours.params.tenants, 4, "tenant {tenant}");
        assert_eq!(solo.params.tenants, 0, "solo runs are not fleet-served");
    }
}

#[test]
fn fleet_tcp_session_lands_the_repo_pinned_checksum() {
    // The CI pin, reproduced through every new layer at once: the
    // bundled sample trace, default params, a shared fleet, the TCP
    // transport. The session checksum is computed over event payload
    // bytes only, so it must be the exact repo-wide constant.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/traces/sample_mixed.trace"
    ))
    .expect("bundled trace");
    let ops = parse_trace(&text).expect("parse bundled trace");
    with_fleet_server("pin", fleet_config(2), |_, addr, _| {
        let report =
            replay_tcp(addr, &SessionParams::defaults(), &ops, 1024).expect("fleet tcp run");
        assert_eq!(report.summary.row_ops, 1693);
        assert_eq!(report.checksum, 0x2361_aca9_1f8d_dfd0);
        verify_against_reference(&report, &ops, 1024).expect("pinned stream verifies");
    });
}

#[test]
fn a_cut_tenant_resumes_without_perturbing_its_neighbors() {
    // Tenant 0's TCP wire dies repeatedly; tenants 1 (Unix) and 2 (TCP)
    // run clean sessions at the same time on the same fleet. The victim
    // must resume to its solo checksum, and the neighbors must land
    // theirs as if nothing happened.
    let traces: Vec<Vec<CodicOp>> = (0..3u64)
        .map(|t| generate_mixed(6_000, 8192, 900 + t))
        .collect();
    let solo = solo_reports("cut", ServerConfig::default(), &traces);

    let fleet = with_fleet_server("cut", fleet_config(3), |socket, addr, _| {
        std::thread::scope(|scope| {
            let victim = scope.spawn(|| {
                let plan = ChaosPlan::new(0xf1ee_70c1).with_cut_after(80_000);
                let policy = ResumePolicy {
                    max_resumes: 32,
                    backoff_base: Duration::from_millis(1),
                };
                replay_resumable_with(
                    &SessionParams::defaults(),
                    &traces[0],
                    512,
                    policy,
                    |attempt| {
                        let stream = TcpStream::connect(addr)?;
                        stream.set_nodelay(true)?;
                        let (r, w) = chaos::wrap_tcp(stream, plan.for_attempt(attempt))?;
                        Ok((BufReader::new(r), BufWriter::new(w)))
                    },
                )
                .expect("cut tenant recovers")
            });
            let unix_neighbor = scope.spawn(|| {
                replay(socket, &SessionParams::defaults(), &traces[1], 512)
                    .expect("unix neighbor run")
            });
            let tcp_neighbor = scope.spawn(|| {
                replay_tcp(addr, &SessionParams::defaults(), &traces[2], 512)
                    .expect("tcp neighbor run")
            });
            vec![
                victim.join().expect("victim thread"),
                unix_neighbor.join().expect("unix neighbor thread"),
                tcp_neighbor.join().expect("tcp neighbor thread"),
            ]
        })
    });

    assert!(
        fleet[0].connections > 1,
        "the cut must actually fire (got {} connection(s))",
        fleet[0].connections
    );
    for (tenant, (ours, solo)) in fleet.iter().zip(&solo).enumerate() {
        assert_eq!(ours.summary, solo.summary, "tenant {tenant}");
        assert_eq!(ours.completions, solo.completions, "tenant {tenant}");
        verify_against_reference(ours, &traces[tenant], 512).expect("stream verifies");
    }
    assert_eq!(fleet[1].connections, 1, "neighbors never reconnect");
    assert_eq!(fleet[2].connections, 1, "neighbors never reconnect");
}

#[test]
fn device_misfires_compose_with_fleet_serving() {
    // A misfire-armed fleet: each tenant's lease seeds its fault plan
    // from lease-local shard indices, so every tenant sees exactly the
    // typed-failure stream a misfire-armed *private* server would give
    // its trace.
    let faulted = ServerConfig {
        fault: Some(FaultPlan::new(2024).with_misfires(6554)),
        ..ServerConfig::default()
    };
    let traces: Vec<Vec<CodicOp>> = (0..2u64)
        .map(|t| generate_mixed(4_000, 8192, 2024 + t))
        .collect();
    let solo = solo_reports("fault", faulted.clone(), &traces);
    assert!(
        solo.iter().all(|r| !r.failures.is_empty()),
        "the misfire plan must actually fire"
    );

    let fleet = with_fleet_server(
        "fault",
        ServerConfig {
            fleet_slots: 2,
            ..faulted
        },
        |socket, addr, _| {
            std::thread::scope(|scope| {
                let a = scope.spawn(|| {
                    replay(socket, &SessionParams::defaults(), &traces[0], 512).expect("tenant 0")
                });
                let b = scope.spawn(|| {
                    replay_tcp(addr, &SessionParams::defaults(), &traces[1], 512).expect("tenant 1")
                });
                vec![a.join().expect("tenant 0"), b.join().expect("tenant 1")]
            })
        },
    );

    for (tenant, (ours, solo)) in fleet.iter().zip(&solo).enumerate() {
        assert_eq!(ours.summary, solo.summary, "tenant {tenant}");
        assert_eq!(
            ours.failures, solo.failures,
            "tenant {tenant}: typed failures replay exactly"
        );
    }
}

/// Raw CRC-framed handshake over TCP: send `hello`, return the reply.
fn raw_hello(addr: SocketAddr, hello: &SessionParams) -> (TcpStream, Frame) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    write_frame_crc(&mut writer, &Frame::Hello(*hello)).expect("hello");
    writer.flush().expect("flush");
    let reply = read_frame_crc(&mut reader).expect("handshake reply");
    (stream, reply)
}

#[test]
fn claims_and_capacity_are_policed_at_the_door_and_slots_recycle() {
    let quick = ServerConfig {
        fleet_slots: 1,
        read_timeout_ms: 5,
        session_idle_ms: 40,
        ..ServerConfig::default()
    };
    let ops = generate_mixed(200, 8192, 5);
    with_fleet_server("police", quick, |_, addr, server| {
        // An oversized tenant-count claim dies with a typed Policy
        // error before anything is allocated from its numbers.
        let oversized = SessionParams {
            tenants: MAX_TENANT_CLAIM + 1,
            ..SessionParams::defaults()
        };
        let (_stream, reply) = raw_hello(addr, &oversized);
        match reply {
            Frame::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Policy);
                assert!(detail.contains("claim out of range"), "detail: {detail}");
            }
            other => panic!("expected Policy error, got {other:?}"),
        }
        assert_eq!(server.free_tenant_slots(), Some(1), "nothing was allocated");

        // Hold the only slot open; the next Hello is told the fleet is
        // full with a typed Unavailable, not hung or dropped.
        let (held, reply) = raw_hello(addr, &SessionParams::defaults());
        match reply {
            Frame::HelloAck { token, .. } => assert_ne!(token, 0),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        assert_eq!(server.free_tenant_slots(), Some(0));
        let (_stream, reply) = raw_hello(addr, &SessionParams::defaults());
        match reply {
            Frame::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Unavailable);
                assert!(detail.contains("tenant slots"), "detail: {detail}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }

        // Vanish. The idle reaper frees the slot, and the next tenant
        // is served a full session on the recycled lease.
        drop(held);
        assert!(
            eventually(Duration::from_secs(5), || server.free_tenant_slots()
                == Some(1)),
            "the reaper must recycle the vanished tenant's slot"
        );
        let report = replay_tcp(addr, &SessionParams::defaults(), &ops, 64)
            .expect("recycled slot serves a full session");
        assert_eq!(report.completions.len(), ops.len());
        verify_against_reference(&report, &ops, 64).expect("recycled stream verifies");
    });
}
