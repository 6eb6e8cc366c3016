//! The serving stack from the facade's point of view: the `codic` crate
//! provides the device pool, `codic-server` the transport, and the two
//! must agree bit-for-bit on a replayed trace.

use codic::{CodicOp, DevicePool};
use codic_server::client::{replay, verify_against_reference};
use codic_server::proto::SessionParams;
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::generate_mixed;

#[test]
fn facade_pool_and_replay_server_agree_on_a_served_trace() {
    let ops = generate_mixed(8_192, 8192, 77);
    let batch = 512;
    let socket = std::env::temp_dir().join(format!("codic-facade-{}.sock", std::process::id()));
    let server = ReplayServer::bind(&socket, ServerConfig::default()).expect("bind");
    let serving = std::thread::spawn(move || server.serve_connections(1).expect("serve"));
    let report = replay(&socket, &SessionParams::defaults(), &ops, batch).expect("session");
    serving.join().expect("server thread");
    verify_against_reference(&report, &ops, batch).expect("bit-identical to the reference");

    // Cross-check a served aggregate against the facade's own pool: the
    // row-operation count the summary reports equals what the facade's
    // typed command set says the trace contains.
    let row_ops = ops
        .iter()
        .filter(|op: &&CodicOp| op.row_op_kind().is_some())
        .count() as u64;
    assert_eq!(report.summary.row_ops, row_ops);

    // And the direct facade-side run reproduces the served energy total.
    let config = ServerConfig::device_config(&report.params);
    let mut pool = DevicePool::new(report.params.shards as usize, &config);
    let mut futures = Vec::new();
    for chunk in ops.chunks(batch) {
        futures.extend(pool.submit_all_async_routed(chunk).expect("in range"));
    }
    pool.drive();
    let direct_energy: f64 = futures
        .iter_mut()
        .map(|(_, f)| f.try_take().expect("idle").cost.energy_nj)
        .sum();
    assert!((report.summary.total_energy_nj - direct_energy).abs() < 1e-6);
}
