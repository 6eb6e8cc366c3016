//! Fault injection and recovery, pinned end to end at the device and
//! pool layers.
//!
//! The contracts under test:
//!
//! 1. **Disabled injection is free**: a device carrying a
//!    [`FaultPlan`] with every rate at zero is *bit-identical* to a
//!    device with no plan at all — same completion cycles, energy bits,
//!    and statistics.
//! 2. **Misfires perturb outcomes, not the timeline**: with retry
//!    disabled (`max_attempts = 1`), a misfired operation occupies
//!    exactly the DRAM time and energy of a successful one, so a faulted
//!    run and its fault-free twin agree on every cycle and differ only
//!    in the typed [`OpOutcome`] bits — and which ops fail is a pure
//!    function of the plan seed.
//! 3. **Retry recovers deterministically**: with `max_attempts > 1`,
//!    re-issues are scheduled with bounded cycle-domain backoff, the
//!    completion carries the attempt count, and two identical runs
//!    retire identical streams.
//! 4. **Stuck clocks are contained**: a shard whose clock freezes stops
//!    making progress without hanging any driver loop; its pending ops
//!    are failed with [`FaultCause::ClockStuck`] and the pool
//!    quarantines it, re-routing its rows to the survivors.

use codic_core::device::{CodicDevice, DeviceConfig, OpCompletion};
use codic_core::executor::OpFuture;
use codic_core::fault::{FaultCause, FaultPlan, OpOutcome, RetryPolicy};
use codic_core::ops::{CodicOp, VariantId};
use codic_core::pool::{DevicePool, ShardHealth};
use codic_core::CodicError;
use codic_dram::geometry::DramGeometry;
use codic_dram::timing::TimingParams;

fn base_config() -> DeviceConfig {
    DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false)
}

/// A mixed workload: row operations of every kind plus plain data
/// accesses (which must never misfire).
fn mixed_ops(n: u64) -> Vec<CodicOp> {
    (0..n)
        .map(|i| {
            let row_addr = (i % 4096) * DramGeometry::ROW_BYTES;
            match i % 6 {
                0 => CodicOp::command(VariantId::DetZero, row_addr),
                1 => CodicOp::command(VariantId::Sig, row_addr),
                2 => CodicOp::RowCloneZero { row_addr },
                3 => CodicOp::LisaCloneZero { row_addr },
                4 => CodicOp::read(row_addr + 64),
                _ => CodicOp::write(row_addr + 128),
            }
        })
        .collect()
}

/// Everything observable about a completion except its outcome bits.
fn timeline_key(c: &OpCompletion) -> (u64, CodicOp, u32, u64) {
    (
        c.finish_cycle,
        c.op,
        c.cost.busy_cycles,
        c.cost.energy_nj.to_bits(),
    )
}

#[test]
fn disabled_fault_plan_changes_nothing() {
    let ops = mixed_ops(96);

    let mut plain = CodicDevice::new(base_config());
    plain.submit_all(&ops).unwrap();
    plain.run_to_idle();
    let reference = plain.take_completions();

    let mut armed = CodicDevice::new(base_config().with_faults(FaultPlan::new(0xdead_beef)));
    armed.submit_all(&ops).unwrap();
    armed.run_to_idle();
    let observed = armed.take_completions();

    assert_eq!(reference.len(), observed.len());
    for (a, b) in reference.iter().zip(&observed) {
        assert_eq!(timeline_key(a), timeline_key(b));
        assert_eq!(b.outcome, OpOutcome::Ok);
        assert_eq!(b.attempts, 1);
    }
    assert_eq!(plain.stats(), armed.stats());
    assert_eq!(plain.now(), armed.now());
    assert_eq!(armed.fault_stats().failed, 0);
}

#[test]
fn misfires_leave_the_timeline_bit_identical_without_retry() {
    let ops = mixed_ops(240);
    let plan = FaultPlan::new(1234).with_misfires(6554); // ~10% of row ops

    let mut clean = CodicDevice::new(base_config());
    clean.submit_all(&ops).unwrap();
    clean.run_to_idle();
    let clean_stream = clean.take_completions();

    // Two identical faulted runs, to pin determinism of the failure set.
    let run = || {
        let mut device = CodicDevice::new(base_config().with_faults(plan));
        device.submit_all(&ops).unwrap();
        device.run_to_idle();
        device.take_completions()
    };
    let faulted = run();
    let faulted_again = run();
    assert_eq!(faulted, faulted_again, "the failure set is seeded");

    // Identical timeline, completion for completion; outcomes may differ.
    assert_eq!(clean_stream.len(), faulted.len());
    let mut failed = 0usize;
    for (clean_c, faulted_c) in clean_stream.iter().zip(&faulted) {
        assert_eq!(timeline_key(clean_c), timeline_key(faulted_c));
        assert_eq!(faulted_c.attempts, 1);
        match faulted_c.outcome {
            OpOutcome::Ok => {}
            OpOutcome::Failed { cause } => {
                assert_eq!(cause, FaultCause::Misfire);
                assert!(
                    faulted_c.op.row_op_kind().is_some(),
                    "plain reads/writes never misfire"
                );
                failed += 1;
            }
        }
    }
    // 160 row ops at ~10%: the seeded schedule must actually fire.
    assert!(
        (4..=40).contains(&failed),
        "expected a ~10% misfire rate over 160 row ops, saw {failed}"
    );
    let mut audited = CodicDevice::new(base_config().with_faults(plan));
    audited.submit_all(&ops).unwrap();
    audited.run_to_idle();
    audited.take_completions();
    assert_eq!(audited.fault_stats().failed, failed as u64);
    assert_eq!(audited.fault_stats().retries, 0, "retry is disabled");
}

#[test]
fn retry_recovers_misfires_and_reports_attempts() {
    let ops = mixed_ops(240);
    let plan = FaultPlan::new(77).with_misfires(13107); // ~20% per attempt
    let retry = RetryPolicy::attempts(4).with_backoff(32, 512);

    let run = || {
        let mut device = CodicDevice::new(base_config().with_faults(plan).with_retry(retry));
        device.submit_all(&ops).unwrap();
        device.run_to_idle();
        (device.take_completions(), device.fault_stats())
    };
    let (stream, stats) = run();
    let (stream_b, stats_b) = run();
    assert_eq!(stream, stream_b, "retried runs are deterministic");
    assert_eq!(stats, stats_b);

    assert_eq!(stream.len(), ops.len(), "every op completes exactly once");
    let retried: Vec<&OpCompletion> = stream.iter().filter(|c| c.attempts > 1).collect();
    assert!(!retried.is_empty(), "a ~20% misfire rate forces retries");
    assert!(stats.retries > 0);
    assert!(
        retried.iter().any(|c| c.outcome.is_ok()),
        "some retries must succeed at a 20% per-attempt rate"
    );
    for c in &stream {
        assert!(c.attempts >= 1 && c.attempts <= 4);
        if c.attempts > 1 {
            assert!(c.op.row_op_kind().is_some(), "only row ops are retried");
        }
        if c.outcome.is_failed() {
            assert_eq!(c.attempts, 4, "a final failure exhausted its attempts");
        }
    }
    // ~20% per attempt with 4 attempts: final failure rate ~0.16%, so
    // the overwhelming majority of the 160 row ops must succeed.
    assert!(stats.ok >= 230, "retry must recover most misfires");
    assert_eq!(stats.ok + stats.failed, ops.len() as u64);
}

#[test]
fn stuck_clock_stalls_without_hanging_and_fails_pending() {
    let plan = FaultPlan::new(5).with_stuck_clock(100);
    let mut device = CodicDevice::new(base_config().with_faults(plan));

    // More work than fits in 100 cycles: the device wedges mid-batch.
    let ops = mixed_ops(32);
    let mut futures: Vec<OpFuture> = ops
        .iter()
        .map(|&op| device.submit_async(op).unwrap())
        .collect();

    // Every driver terminates despite the wedge.
    device.run_to_idle();
    while device.step() {}
    assert!(device.is_stalled());
    assert!(device.outstanding() > 0, "the wedge strands pending ops");
    let mut early: Vec<Option<OpCompletion>> = futures.iter_mut().map(OpFuture::try_take).collect();
    let finished_early = early.iter().flatten().count();

    // Failing the stranded ops fills every remaining slot with a typed,
    // zero-cost ClockStuck completion.
    let failed = device.fail_all_pending(FaultCause::ClockStuck);
    assert_eq!(failed + finished_early, ops.len());
    assert_eq!(device.outstanding(), 0);
    let mut stuck = 0usize;
    for (taken, f) in early.iter_mut().zip(&mut futures) {
        let c = taken
            .take()
            .or_else(|| f.try_take())
            .expect("every future resolves");
        match c.outcome {
            OpOutcome::Ok => assert!(c.cost.energy_nj > 0.0),
            OpOutcome::Failed { cause } => {
                assert_eq!(cause, FaultCause::ClockStuck);
                assert_eq!(c.cost.energy_nj.to_bits(), 0.0f64.to_bits());
                assert_eq!(c.cost.busy_cycles, 0);
                stuck += 1;
            }
        }
    }
    assert_eq!(stuck, failed);
}

#[test]
fn pool_quarantines_a_stuck_shard_and_reroutes_its_rows() {
    let plan = FaultPlan::new(9).with_stuck_shard(1, 50);
    let config = base_config().with_faults(plan);

    let run = |ops: &[CodicOp]| {
        let mut pool = DevicePool::new(4, &config);
        let futures = pool.submit_all_async_routed(ops).unwrap();
        pool.drive();
        // The batch boundary: shard 1 wedged, so the health check
        // condemns it and fails its stranded ops.
        assert_eq!(pool.check_health(), 1);
        assert_eq!(
            pool.health()[1],
            ShardHealth::Quarantined {
                cause: FaultCause::ClockStuck
            }
        );
        assert!(pool.health()[0].is_healthy());
        (pool, futures)
    };

    let ops = mixed_ops(160);
    let (mut pool, mut futures) = run(&ops);
    let outcomes: Vec<OpOutcome> = futures
        .iter_mut()
        .map(|(_, f)| f.try_take().expect("resolved or failed").outcome)
        .collect();
    assert!(
        outcomes.iter().any(|o| o.is_failed()),
        "shard 1's stranded ops surface as typed failures"
    );
    assert!(outcomes.iter().any(|o| o.is_ok()));

    // Determinism: a twin run fails exactly the same ops.
    let (_, mut twin_futures) = run(&ops);
    let twin: Vec<OpOutcome> = twin_futures
        .iter_mut()
        .map(|(_, f)| f.try_take().expect("resolved or failed").outcome)
        .collect();
    assert_eq!(outcomes, twin);

    // Post-quarantine traffic lands only on survivors and re-routing is
    // the documented pure function of the quarantine set.
    let next = mixed_ops(64);
    for &op in &next {
        assert_ne!(pool.shard_of(op), 1, "no traffic routes to quarantine");
    }
    let routed = pool.submit_all_async_routed(&next).unwrap();
    pool.drive();
    assert!(routed.iter().all(|&(shard, _)| shard != 1));
    let completed = routed
        .into_iter()
        .filter_map(|(_, mut f)| f.try_take())
        .count();
    assert_eq!(completed, next.len(), "every op completes");

    // A fully quarantined pool turns traffic away with a typed error.
    pool.quarantine(0, FaultCause::Quarantined);
    pool.quarantine(2, FaultCause::Quarantined);
    pool.quarantine(3, FaultCause::Quarantined);
    assert_eq!(
        pool.submit_all_async_routed(&next).unwrap_err(),
        CodicError::NoHealthyShards
    );
}
