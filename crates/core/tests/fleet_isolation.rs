//! The tenant-isolation pin: property tests asserting that a tenant's
//! demultiplexed event stream on a [`FleetHandle`] is **bit-identical**
//! to a solo run of the same operations on an equivalent private
//! [`DevicePool`] — sequence numbers, lease-local shards, finish
//! cycles, busy cycles, energy bits, outcomes, attempts, fingerprints —
//! for random tenant mixes, batch splits, quotas, and interleavings,
//! fault-free and under seeded misfire/stuck-clock injection.
//!
//! The solo reference is not the fleet run twice: it is the serving
//! layer's private-pool engine discipline written out by hand (routed
//! async submission, step-at-a-time quota backpressure, a health check
//! at every batch boundary, `(finish_cycle, seq)` drain order), run on
//! a `DevicePool` of the tenant's slot shape. If the fleet's carving,
//! scheduling, or fault seeding leaked any cross-tenant state, these
//! streams would diverge.

use codic_core::device::{DeviceConfig, OpCompletion};
use codic_core::executor::OpFuture;
use codic_core::fault::{FaultPlan, RetryPolicy};
use codic_core::fleet::{FleetConfig, FleetEvent, FleetHandle};
use codic_core::ops::{CodicOp, VariantId};
use codic_core::pool::DevicePool;
use codic_dram::geometry::DramGeometry;
use codic_dram::timing::TimingParams;
use proptest::prelude::*;

/// Deterministically picks a typed op (rows kept in-module for a 64 MB
/// device) — row operations of every kind plus plain read/write traffic.
fn arbitrary_op(selector: u8, variant_idx: u8, row: u64) -> CodicOp {
    let row_addr = (row % 4096) * DramGeometry::ROW_BYTES;
    match selector % 6 {
        0 => CodicOp::command(
            VariantId::ALL[usize::from(variant_idx) % VariantId::ALL.len()],
            row_addr,
        ),
        1 => CodicOp::RowCloneZero { row_addr },
        2 => CodicOp::LisaCloneZero { row_addr },
        3 => CodicOp::read(row_addr + 64),
        4 => CodicOp::write(row_addr + 128),
        _ => CodicOp::command(VariantId::DetZero, row_addr),
    }
}

fn device_config(fault: Option<FaultPlan>, retry: RetryPolicy) -> DeviceConfig {
    let mut config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_retry(retry);
    if let Some(plan) = fault {
        config = config.with_faults(plan);
    }
    config
}

/// Everything observable about one emitted completion.
type Emitted = (u64, u16, u64, CodicOp, u32, u64, bool, u8, u64);

fn key(seq: u64, shard: u16, c: &OpCompletion) -> Emitted {
    (
        seq,
        shard,
        c.finish_cycle,
        c.op,
        c.cost.busy_cycles,
        c.cost.energy_nj.to_bits(),
        c.outcome.is_ok(),
        c.attempts,
        c.fingerprint,
    )
}

fn emitted(events: &[FleetEvent]) -> Vec<Emitted> {
    events
        .iter()
        .map(|e| key(e.seq, e.shard, &e.completion))
        .collect()
}

/// The private-pool serving engine, reduced to its core calls — the
/// reference every tenant stream must match bit for bit.
fn solo_run(
    shards: usize,
    config: &DeviceConfig,
    ops: &[CodicOp],
    batch: usize,
    quota: usize,
) -> Vec<Emitted> {
    let mut pool = DevicePool::new(shards, config);
    let mut pending: Vec<(u64, u16, OpFuture)> = Vec::new();
    let mut next_seq = 0u64;
    let mut out = Vec::with_capacity(ops.len());
    let drain = |pending: &mut Vec<(u64, u16, OpFuture)>| {
        let mut ready = Vec::new();
        pending.retain_mut(|(seq, shard, future)| match future.try_take() {
            Some(completion) => {
                ready.push((*seq, *shard, completion));
                false
            }
            None => true,
        });
        ready.sort_by_key(|(seq, _, c)| (c.finish_cycle, *seq));
        ready
    };
    for chunk in ops.chunks(batch) {
        let routed = pool.submit_all_async_routed(chunk).expect("in range");
        for (shard, future) in routed {
            pending.push((next_seq, shard as u16, future));
            next_seq += 1;
        }
        while pool.outstanding() > quota {
            if !pool.step() {
                break;
            }
        }
        pool.check_health();
        out.extend(
            drain(&mut pending)
                .iter()
                .map(|(seq, shard, c)| key(*seq, *shard, c)),
        );
    }
    pool.drive();
    pool.check_health();
    out.extend(
        drain(&mut pending)
            .iter()
            .map(|(seq, shard, c)| key(*seq, *shard, c)),
    );
    out
}

/// One tenant's workload for a fleet run.
struct TenantLoad {
    ops: Vec<CodicOp>,
    batch: usize,
    quota: usize,
}

/// Runs every tenant's workload on one shared fleet, admitting batches
/// in the interleaving `order` dictates (each entry picks the next
/// unsubmitted batch of tenant `order[i] % tenants`; leftovers drain
/// round-robin), and returns each tenant's collected stream.
///
/// `check_quota` additionally asserts the tenant's outstanding-op bound
/// after every admission — sound whenever no clock can wedge.
fn fleet_run(
    tenants: &[TenantLoad],
    shards_per_slot: usize,
    device: &DeviceConfig,
    order: &[u8],
    check_quota: bool,
) -> Vec<Vec<Emitted>> {
    let fleet = FleetHandle::new(FleetConfig::new(
        tenants.len(),
        shards_per_slot,
        device.clone(),
    ));
    let ids: Vec<_> = tenants
        .iter()
        .map(|t| fleet.acquire_with(1, t.quota).expect("free slot"))
        .collect();
    let mut cursors = vec![0usize; tenants.len()];
    let mut streams: Vec<Vec<Emitted>> = tenants.iter().map(|_| Vec::new()).collect();
    let mut submit_next = |fleet: &FleetHandle, t: usize| -> bool {
        let load = &tenants[t];
        if cursors[t] >= load.ops.len() {
            return false;
        }
        let end = (cursors[t] + load.batch).min(load.ops.len());
        let chunk = &load.ops[cursors[t]..end];
        cursors[t] = end;
        let (receipt, events) = fleet.submit(ids[t], chunk).expect("in range");
        assert_eq!(receipt.accepted as usize, chunk.len());
        if check_quota {
            assert!(
                fleet.outstanding(ids[t]) <= load.quota,
                "tenant {t} quota violated after admission"
            );
        }
        streams[t].extend(emitted(&events));
        true
    };
    for &pick in order {
        submit_next(&fleet, usize::from(pick) % tenants.len());
    }
    // Whatever the interleaving didn't cover drains round-robin.
    loop {
        let mut any = false;
        for t in 0..tenants.len() {
            any |= submit_next(&fleet, t);
        }
        if !any {
            break;
        }
    }
    for (t, &id) in ids.iter().enumerate() {
        let (_, events) = fleet.flush(id);
        streams[t].extend(emitted(&events));
        if check_quota {
            assert_eq!(fleet.outstanding(id), 0, "flush drains tenant {t}");
        }
        fleet.release(id);
    }
    streams
}

/// Raw proptest tuple: (packed ops, batch size, quota).
type RawLoad = (Vec<(u8, u8, u64)>, usize, usize);

/// Expands proptest's raw tuples into tenant workloads.
fn loads(raw: &[RawLoad]) -> Vec<TenantLoad> {
    raw.iter()
        .map(|(ops, batch, quota)| TenantLoad {
            ops: ops.iter().map(|&(s, v, r)| arbitrary_op(s, v, r)).collect(),
            batch: *batch,
            quota: *quota,
        })
        .collect()
}

fn tenant_load_strategy(max_ops: usize) -> impl Strategy<Value = RawLoad> {
    (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..max_ops),
        1usize..32,
        1usize..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free isolation pin: for 1–3 tenants with independent
    /// workloads, batch splits, and quotas, admitted in a random
    /// interleaving, every tenant's stream is bit-identical to its solo
    /// run — and its quota holds after every admission step.
    #[test]
    fn tenant_streams_are_bit_identical_to_solo_runs(
        raw in proptest::collection::vec(tenant_load_strategy(80), 1..4),
        shards_per_slot in 1usize..3,
        order in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let tenants = loads(&raw);
        let device = device_config(None, RetryPolicy::default());
        let streams = fleet_run(&tenants, shards_per_slot, &device, &order, true);
        for (t, load) in tenants.iter().enumerate() {
            let solo = solo_run(shards_per_slot, &device, &load.ops, load.batch, load.quota);
            prop_assert_eq!(solo.len(), load.ops.len());
            prop_assert_eq!(
                &streams[t], &solo,
                "tenant {} diverged from its solo run", t
            );
        }
    }

    /// The same pin under seeded misfire injection with retry: derived
    /// per-shard fault schedules, attempt counts, and typed failures
    /// must be seeded by *lease-local* shard index, or a tenant's slot
    /// position in the fleet would leak into its failure stream.
    #[test]
    fn faulted_tenant_streams_match_their_solo_runs(
        raw in proptest::collection::vec(tenant_load_strategy(60), 1..4),
        shards_per_slot in 1usize..3,
        order in proptest::collection::vec(any::<u8>(), 0..32),
        seed in any::<u64>(),
        per_64k in 1u32..16_000,
        attempts in 1u8..4,
    ) {
        let tenants = loads(&raw);
        let plan = FaultPlan::new(seed).with_misfires(per_64k);
        let retry = RetryPolicy::attempts(attempts).with_backoff(16, 256);
        let device = device_config(Some(plan), retry);
        let streams = fleet_run(&tenants, shards_per_slot, &device, &order, true);
        for (t, load) in tenants.iter().enumerate() {
            let solo = solo_run(shards_per_slot, &device, &load.ops, load.batch, load.quota);
            prop_assert_eq!(
                &streams[t], &solo,
                "faulted tenant {} diverged from its solo run", t
            );
        }
    }

    /// A wedged clock on every tenant's local shard 0 (the worst case:
    /// the *same* local index everywhere) quarantines and re-routes
    /// inside each lease exactly as it does on a private pool — no
    /// tenant's recovery perturbs another's stream. Quota assertions are
    /// off: a wedged clock legitimately strands outstanding ops, for
    /// fleet and solo alike.
    #[test]
    fn stuck_clock_recovery_is_solo_identical_per_tenant(
        raw in proptest::collection::vec(tenant_load_strategy(50), 2..4),
        order in proptest::collection::vec(any::<u8>(), 0..32),
        seed in any::<u64>(),
        stuck_cycle in 500u64..20_000,
    ) {
        let tenants = loads(&raw);
        let plan = FaultPlan::new(seed).with_stuck_shard(0, stuck_cycle);
        let device = device_config(Some(plan), RetryPolicy::default());
        // Two shards per slot so the survivor can absorb re-routes.
        let streams = fleet_run(&tenants, 2, &device, &order, false);
        for (t, load) in tenants.iter().enumerate() {
            let solo = solo_run(2, &device, &load.ops, load.batch, load.quota);
            prop_assert_eq!(
                &streams[t], &solo,
                "tenant {} diverged from its solo run under a stuck clock", t
            );
        }
    }
}
