//! Exactly-once delivery under real thread contention: eight tenant
//! threads share one [`FleetHandle`], each submitting its own mixed
//! stream batch by batch and then flushing. Every tenant's collected
//! events must be **bit-identical** to a solo run of the same stream on
//! a one-slot fleet — same sequence numbers, shards, finish cycles,
//! energy bits, outcomes and fingerprints, in the same order — so no
//! event is lost, duplicated, or perturbed by another tenant's lock
//! traffic.

use std::thread;

use codic_core::device::DeviceConfig;
use codic_core::fleet::{FleetConfig, FleetEvent, FleetHandle};
use codic_core::ops::{CodicOp, VariantId};
use codic_dram::geometry::DramGeometry;
use codic_dram::timing::TimingParams;

const TENANTS: usize = 8;
const OPS_PER_TENANT: usize = 2048;
const BATCH: usize = 256;
const QUOTA: usize = 1024;

fn device() -> DeviceConfig {
    DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false)
}

/// A deterministic mixed stream (CODIC commands of every variant,
/// RowClone/LISA-clone zeroing, reads and writes) from a splitmix64
/// sequence, distinct per `seed`.
fn mixed_ops(seed: u64) -> Vec<CodicOp> {
    let mut state = seed;
    (0..OPS_PER_TENANT)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let row_addr = ((z >> 8) % 8192) * DramGeometry::ROW_BYTES;
            match z % 5 {
                0 => CodicOp::command(
                    VariantId::ALL[(z >> 40) as usize % VariantId::ALL.len()],
                    row_addr,
                ),
                1 => CodicOp::RowCloneZero { row_addr },
                2 => CodicOp::LisaCloneZero { row_addr },
                3 => CodicOp::read(row_addr + 64),
                _ => CodicOp::write(row_addr + 128),
            }
        })
        .collect()
}

/// Submits `ops` to the tenancy `fleet` grants, batch by batch, then
/// flushes; returns every event in collection order.
fn run_tenant(fleet: &FleetHandle, ops: &[CodicOp]) -> Vec<FleetEvent> {
    let id = fleet.acquire_with(1, QUOTA).expect("a free slot");
    let mut events = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(BATCH) {
        let (receipt, drained) = fleet.submit(id, chunk).expect("fleet admission");
        assert_eq!(receipt.accepted as usize, chunk.len());
        events.extend(drained);
    }
    events.extend(fleet.flush(id).1);
    fleet.release(id);
    events
}

#[test]
fn concurrent_tenants_match_their_solo_runs() {
    let traces: Vec<Vec<CodicOp>> = (0..TENANTS as u64).map(|t| mixed_ops(42 + t)).collect();
    let solo: Vec<Vec<FleetEvent>> = traces
        .iter()
        .map(|ops| {
            let fleet = FleetHandle::new(FleetConfig::new(1, 1, device()).with_quota(QUOTA));
            run_tenant(&fleet, ops)
        })
        .collect();

    let shared = FleetHandle::new(FleetConfig::new(TENANTS, 1, device()).with_quota(QUOTA));
    let contended: Vec<Vec<FleetEvent>> = thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .map(|ops| {
                let fleet = shared.clone();
                scope.spawn(move || run_tenant(&fleet, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    for (t, (got, want)) in contended.iter().zip(&solo).enumerate() {
        assert_eq!(
            got.len(),
            OPS_PER_TENANT,
            "tenant {t} lost or duplicated events"
        );
        assert_eq!(got, want, "tenant {t}'s stream diverged from its solo run");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.completion.cost.energy_nj.to_bits(),
                w.completion.cost.energy_nj.to_bits(),
                "tenant {t} seq {}: energy bits diverged",
                g.seq
            );
        }
    }
    assert_eq!(shared.free_slots(), TENANTS, "every tenancy was released");
}
