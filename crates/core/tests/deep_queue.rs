//! Deep-queue property tests: the indexed scheduler under sustained
//! backpressure.
//!
//! The O(1)-per-command refactor (slab + per-bank chains + ready-bank
//! index) must not change a single issued command even when the service
//! stream is far deeper than the controller's 64-entry queues. Each case
//! pushes **≥ 1024 mixed operations** (CODIC commands of every variant,
//! RowClone/LISA clones, plain reads and writes) through one device
//! twice — once drained by the horizon-free reference driver
//! ([`CodicDevice::tick_reference`]), once by the event engine with the
//! async completion-slot path — and requires bit-identical completion cycles,
//! accounted energy, command statistics, and final clocks.
//!
//! [`CodicDevice::tick_reference`]: codic_core::device::CodicDevice::tick_reference

use codic_core::device::{CodicDevice, DeviceConfig, OpCompletion};
use codic_core::ops::{CodicOp, VariantId};
use codic_dram::geometry::DramGeometry;
use codic_dram::timing::TimingParams;
use proptest::prelude::*;

/// The satellite floor: every generated stream is at least this deep.
const MIN_OUTSTANDING: usize = 1024;

/// Deterministically expands a small generated pattern into a deep
/// mixed stream: the pattern repeats with a row stride so the stream
/// walks banks and rows instead of hammering one address.
fn deep_ops(pattern: &[(u8, u8, u64)]) -> Vec<CodicOp> {
    (0..MIN_OUTSTANDING + pattern.len())
        .map(|i| {
            let (selector, variant_idx, row_seed) = pattern[i % pattern.len()];
            let row = (row_seed + i as u64 * 7) % 4096;
            let row_addr = row * DramGeometry::ROW_BYTES;
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
        })
        .collect()
}

fn device(refresh: bool) -> CodicDevice {
    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(refresh);
    CodicDevice::new(config)
}

/// The observable identity of a completion: everything but the token.
fn key(c: &OpCompletion) -> (u64, CodicOp, u32, u64) {
    (
        c.finish_cycle,
        c.op,
        c.cost.busy_cycles,
        c.cost.energy_nj.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ≥1024 outstanding mixed requests, reference-ticked vs
    /// event-driven: identical command stream (statistics), completion
    /// cycles, and per-operation energy.
    #[test]
    fn deep_mixed_queues_are_bit_identical_across_drivers(
        pattern in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 0u64..4096), 16..48),
        refresh in any::<bool>(),
    ) {
        let ops = deep_ops(&pattern);
        prop_assert!(ops.len() >= MIN_OUTSTANDING);

        // Reference side: submission is shared machinery; the post-
        // submission drain runs on the horizon-free reference driver.
        let mut ticked = device(refresh);
        ticked.submit_all(&ops).unwrap();
        let mut guard = 0u64;
        while !ticked.is_idle() {
            ticked.tick_reference();
            guard += 1;
            prop_assert!(guard < 20_000_000, "tick engine livelock");
        }
        let tick_completions = ticked.take_completions();
        prop_assert_eq!(tick_completions.len(), ops.len());

        // Event side: the async path — every operation taken from its
        // one-shot completion slot, exactly once.
        let mut evented = device(refresh);
        let mut futures: Vec<_> = ops
            .iter()
            .map(|&op| evented.submit_async(op).unwrap())
            .collect();
        evented.run_to_idle();
        let mut async_completions: Vec<OpCompletion> =
            futures.iter_mut().filter_map(|f| f.try_take()).collect();
        prop_assert_eq!(async_completions.len(), ops.len(), "every op resolves");
        prop_assert!(futures.iter_mut().all(|f| f.try_take().is_none()), "each op resolves once");
        // Slots are taken in submission order; the polling buffer is in
        // completion order. Compare on the retirement order both share.
        async_completions.sort_by_key(|c| (c.finish_cycle, c.token));

        let a: Vec<_> = tick_completions.iter().map(key).collect();
        let b: Vec<_> = async_completions.iter().map(key).collect();
        prop_assert_eq!(a, b, "deep-queue completion streams diverge");
        prop_assert_eq!(ticked.stats(), evented.stats());
        prop_assert_eq!(ticked.now(), evented.now());

        let tick_energy: f64 = tick_completions.iter().map(|c| c.cost.energy_nj).sum();
        let event_energy: f64 = async_completions.iter().map(|c| c.cost.energy_nj).sum();
        prop_assert_eq!(tick_energy.to_bits(), event_energy.to_bits());
    }
}
