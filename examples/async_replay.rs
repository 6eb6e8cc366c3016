//! Take typed completions from the pooled service path — no polling loop.
//!
//! The service pattern: submit a batch asynchronously (one `OpFuture`
//! completion slot per operation), let the clock driver advance the event
//! engine, then take each completion. Nothing here ticks a cycle or polls
//! a completion buffer; the engine jumps from DRAM event to DRAM event and
//! fills the slots in completion order.
//!
//! Run with: `cargo run --example async_replay`

use codic::dram::{DramGeometry, TimingParams};
use codic::{CodicOp, DeviceConfig, DevicePool, VariantId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-shard pool over 64 MB modules: the serving configuration of
    // BENCH_device.json.
    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false);
    let mut pool = DevicePool::new(4, &config);

    // A mixed batch on the one shared FR-FCFS path: secure-deallocation
    // zeroing rows interleaved with ordinary read/write traffic.
    let mut ops = Vec::new();
    for row in 0..32u64 {
        let addr = row * DramGeometry::ROW_BYTES;
        ops.push(CodicOp::command(VariantId::DetZero, addr));
        ops.push(CodicOp::read(addr + 64));
        ops.push(CodicOp::write(addr + 128));
    }

    // Submit async: every operation hands back its shard and a slot...
    let routed = pool.submit_all_async_routed(&ops)?;
    // ...the clock driver fills them all (event-driven, in parallel
    // across shards)...
    let finish_cycle = pool.drive();

    // ...and each completion is simply taken — no tick loop, no poll loop.
    let timing = TimingParams::ddr3_1600_11();
    let mut zeroed = 0u64;
    let mut energy_nj = 0.0;
    for (_, mut future) in routed {
        let completion = future.try_take().ok_or("the pool was driven to idle")?;
        if completion.op.variant() == Some(VariantId::DetZero) {
            zeroed += 1;
        }
        energy_nj += completion.cost.energy_nj;
    }

    println!(
        "batch finished at cycle {finish_cycle} ({:.1} ns of DRAM time)",
        timing.ns(finish_cycle)
    );
    println!("rows zeroed: {zeroed}");
    println!("accounted energy: {energy_nj:.1} nJ");
    assert_eq!(zeroed, 32);
    Ok(())
}
