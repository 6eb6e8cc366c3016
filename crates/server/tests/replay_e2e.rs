//! End-to-end replay serving: a recorded ≥100k-row mixed
//! secure-deallocation / cold-boot trace over a real Unix socket, with
//! the typed completion stream required to be **bit-identical** to a
//! direct `DevicePool::submit_all_async_routed` run — same cycles, same energy
//! bits, completion order preserved.

use std::collections::HashMap;
use std::path::PathBuf;

use codic_core::ops::CodicOp;
use codic_core::pool::DevicePool;
use codic_server::client::{replay, verify_against_reference};
use codic_server::proto::{SessionParams, WireCompletion};
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::{format_trace, generate_mixed, parse_trace};

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codic-e2e-{tag}-{}.sock", std::process::id()))
}

/// Serves `sessions` connections of the default server on a private
/// socket, runs `client` against it, and joins the server.
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

/// The direct run the acceptance criterion names: the same batches
/// through bare `DevicePool::submit_all_async_routed`, one `drive()` at
/// the end, no serving loop in between. Returns `(shard, completion)`
/// per sequence number.
fn direct_async_run(
    params: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
) -> Vec<(u16, codic_core::device::OpCompletion)> {
    let config = ServerConfig::device_config(params);
    let mut pool = DevicePool::new(params.shards as usize, &config);
    let mut routed = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(batch) {
        routed.extend(
            pool.submit_all_async_routed(chunk)
                .expect("trace is in range"),
        );
    }
    pool.drive();
    routed
        .into_iter()
        .map(|(shard, mut f)| (shard as u16, f.try_take().expect("driven to idle")))
        .collect()
}

#[test]
fn hundred_k_row_trace_round_trips_bit_identical_to_the_direct_run() {
    // A deterministic mixed trace with ≥100k row operations, through the
    // text format (so the file round-trip is part of the path under test).
    let ops = parse_trace(&format_trace(&generate_mixed(160_000, 8192, 2024))).expect("trace");
    let row_ops = ops.iter().filter(|op| op.row_op_kind().is_some()).count();
    assert!(
        row_ops >= 100_000,
        "the trace must carry at least 100k row operations, got {row_ops}"
    );
    let batch = 1024;

    let report = with_server("100k", ServerConfig::default(), 1, |socket| {
        replay(socket, &SessionParams::defaults(), &ops, batch).expect("replay session")
    });
    assert_eq!(report.summary.ops, ops.len() as u64);
    assert_eq!(report.summary.row_ops, row_ops as u64);
    assert_eq!(report.checksum, report.summary.checksum);

    // Bit-identity against the serving discipline replayed in process.
    verify_against_reference(&report, &ops, batch).expect("reference verification");

    // Bit-identity against the *direct* submit_all_async_routed run: per
    // sequence number the same shard, finish cycle, and energy bits.
    let direct = direct_async_run(&report.params, &ops, batch);
    let by_seq: HashMap<u64, &WireCompletion> =
        report.completions.iter().map(|c| (c.seq, c)).collect();
    assert_eq!(
        by_seq.len(),
        direct.len(),
        "every op completed exactly once"
    );
    let mut total_energy = 0.0f64;
    for (seq, (shard, completion)) in direct.iter().enumerate() {
        let served = by_seq[&(seq as u64)];
        assert_eq!(served.shard, *shard, "seq {seq} shard");
        assert_eq!(served.op, completion.op, "seq {seq} op");
        assert_eq!(
            served.finish_cycle, completion.finish_cycle,
            "seq {seq} finish cycle"
        );
        assert_eq!(
            served.energy_nj.to_bits(),
            completion.cost.energy_nj.to_bits(),
            "seq {seq} energy bits"
        );
        assert_eq!(served.busy_cycles, completion.cost.busy_cycles);
        assert_eq!(served.activations, completion.cost.activations);
        total_energy += completion.cost.energy_nj;
    }
    assert_eq!(
        report.summary.total_energy_nj.to_bits(),
        report
            .completions
            .iter()
            .map(|c| c.energy_nj)
            .sum::<f64>()
            .to_bits(),
        "summary energy is the exact fold of the stream"
    );
    assert!((report.summary.total_energy_nj - total_energy).abs() < 1e-6);

    // Completion order preserved: per shard, the served stream is in
    // nondecreasing finish-cycle order — the shard's true completion
    // order — and covers exactly the shard's direct-run completions.
    for shard in 0..report.params.shards {
        let cycles: Vec<u64> = report
            .completions
            .iter()
            .filter(|c| c.shard == shard)
            .map(|c| c.finish_cycle)
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "shard {shard} stream is in completion order"
        );
        let direct_count = direct.iter().filter(|(s, _)| *s == shard).count();
        assert_eq!(cycles.len(), direct_count, "shard {shard} coverage");
        assert!(!cycles.is_empty(), "shard {shard} served traffic");
    }
}

#[test]
fn bulk_bitwise_compute_replays_value_verified_over_the_socket() {
    use codic_core::data::{row_fingerprint, RowWords, WORDS_PER_ROW};
    use codic_core::simd::{reference, SimdLayout, VecOp};
    use codic_dram::geometry::DramGeometry;

    // A compute region spanning the top 64 rows of the default module,
    // with an 8-bit-lane layout inside it.
    let compute_rows = 64u64;
    let total_rows = DramGeometry::module_mib(64).total_rows();
    let base = (total_rows - compute_rows) * DramGeometry::ROW_BYTES;
    let layout = SimdLayout::new(base, 8);
    assert!(layout.rows_needed() <= compute_rows);
    let a: Vec<u64> = (0..8)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i * 7))
        .collect();
    let b: Vec<u64> = (0..8)
        .map(|i| 0xc2b2_ae35_27d4_eb4fu64.rotate_left(i * 11))
        .collect();

    // Each planned VecOp, with the expected fingerprint of every result
    // row — computed from the *scalar* reference, independent of the
    // data plane the server runs.
    let mut ops = Vec::new();
    let mut expected = Vec::new(); // (seq of last write to D[bit], fingerprint)
    for vec_op in VecOp::ALL {
        ops.extend(layout.seed(&a, &b));
        let plan = layout.plan(vec_op);
        let plan_base = ops.len();
        let want = reference(vec_op, &a, &b);
        for bit in 0..layout.bits() {
            let last_write = plan
                .iter()
                .rposition(|op| {
                    op.written_rows()
                        .row_addrs()
                        .any(|r| r == layout.d_row(bit))
                })
                .expect("every result row is written");
            let mut row: RowWords = [0u64; WORDS_PER_ROW];
            row.fill(want[bit as usize]);
            expected.push((plan_base + last_write, row_fingerprint(&row)));
        }
        ops.extend(plan);
    }
    // The text format is part of the path under test.
    let ops = parse_trace(&format_trace(&ops)).expect("bitwise trace round-trips");

    let hello = SessionParams {
        compute_rows: compute_rows as u32,
        ..SessionParams::defaults()
    };
    let report = with_server("bitwise", ServerConfig::default(), 1, |socket| {
        replay(socket, &hello, &ops, 256).expect("bitwise session")
    });
    assert_eq!(report.params.compute_rows, compute_rows as u32);
    assert_eq!(report.summary.ops, ops.len() as u64);
    assert_eq!(report.summary.failed, 0);

    // Bit-identity (cycles, energy, order, fingerprints) against the
    // in-process reference.
    verify_against_reference(&report, &ops, 256).expect("bitwise stream verifies");

    // Value verification: the served fingerprint of the last write to
    // each result row must equal the fingerprint of the row the scalar
    // reference predicts.
    let by_seq: HashMap<u64, &WireCompletion> =
        report.completions.iter().map(|c| (c.seq, c)).collect();
    for (seq, fingerprint) in expected {
        let served = by_seq[&(seq as u64)];
        assert_eq!(
            served.fingerprint, fingerprint,
            "seq {seq} ({:?}): served result row diverges from the scalar reference",
            served.op
        );
    }

    // Compute completions carry a real fingerprint on the wire; classic
    // ops in other sessions still serve the 40-byte payload (pinned by
    // the fault-free smoke), so the two families coexist.
    assert!(report.completions.iter().all(|c| c.op.is_compute()));
}

#[test]
fn concurrent_sessions_are_independent_and_both_verify() {
    let ops_a = generate_mixed(6_000, 8192, 11);
    let ops_b = generate_mixed(6_000, 8192, 22);
    let (report_a, report_b) = with_server("pair", ServerConfig::default(), 2, |socket| {
        let sock_a = socket.clone();
        let a = std::thread::spawn(move || {
            replay(&sock_a, &SessionParams::defaults(), &ops_a, 512).expect("session a")
        });
        let sock_b = socket.clone();
        let b = std::thread::spawn(move || {
            replay(&sock_b, &SessionParams::defaults(), &ops_b, 512).expect("session b")
        });
        (a.join().expect("a"), b.join().expect("b"))
    });
    verify_against_reference(&report_a, &generate_mixed(6_000, 8192, 11), 512).expect("a verifies");
    verify_against_reference(&report_b, &generate_mixed(6_000, 8192, 22), 512).expect("b verifies");
    assert_ne!(
        report_a.checksum, report_b.checksum,
        "different traces produce different streams"
    );
}

#[test]
fn policy_rejections_surface_as_error_frames() {
    // A destructive command outside the 64 MiB module: the batch is
    // rejected all-or-nothing and the server answers with a Policy error.
    let ops = vec![CodicOp::command(
        codic_core::ops::VariantId::DetZero,
        1 << 40,
    )];
    let err = with_server("policy", ServerConfig::default(), 1, |socket| {
        replay(socket, &SessionParams::defaults(), &ops, 16).expect_err("must be rejected")
    });
    match err {
        codic_server::client::ClientError::Server { code, detail } => {
            assert_eq!(code, codic_server::proto::ErrorCode::Policy);
            assert!(detail.contains("safe range"), "{detail}");
        }
        other => panic!("expected a server policy error, got {other}"),
    }
}

#[test]
fn rate_governor_paces_the_session_without_perturbing_cycles() {
    let ops = generate_mixed(2_000, 8192, 5);
    let capped = SessionParams {
        target_rows_per_s: 20_000,
        ..SessionParams::defaults()
    };
    let report = with_server("governor", ServerConfig::default(), 1, |socket| {
        replay(socket, &capped, &ops, 256).expect("capped session")
    });
    assert_eq!(report.params.target_rows_per_s, 20_000);
    assert!(
        report.host_seconds >= 0.08,
        "2000 rows at 20k rows/s must take ≥ ~0.1 s of host time, took {:.3} s",
        report.host_seconds
    );
    // Pacing is host-side only: the DRAM timeline stays bit-identical.
    verify_against_reference(&report, &ops, 256).expect("capped stream verifies");
    let uncapped = with_server("uncapped", ServerConfig::default(), 1, |socket| {
        replay(socket, &SessionParams::defaults(), &ops, 256).expect("uncapped session")
    });
    assert_eq!(report.checksum, uncapped.checksum);
    assert_eq!(
        report.summary.max_finish_cycle,
        uncapped.summary.max_finish_cycle
    );
}

#[test]
fn client_can_bound_its_outstanding_window() {
    let ops = generate_mixed(4_000, 8192, 9);
    let tight = SessionParams {
        max_outstanding: 32,
        ..SessionParams::defaults()
    };
    let report = with_server("bounded", ServerConfig::default(), 1, |socket| {
        replay(socket, &tight, &ops, 256).expect("bounded session")
    });
    assert_eq!(report.params.max_outstanding, 32);
    assert_eq!(report.summary.ops, 4_000);
    // The tighter window changes pacing, never results: the in-process
    // reference under the same params stays bit-identical.
    verify_against_reference(&report, &ops, 256).expect("bounded stream verifies");
}
