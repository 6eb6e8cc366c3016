//! Property tests pinning the event-driven engine to the tick engine.
//!
//! The executor refactor's contract is that jumping the clock from event
//! to event ([`MemoryController::advance_to`] under
//! [`CodicDevice::run_to_idle`]) is *bit-identical* to advancing one
//! cycle at a time: same completion cycles, same accounted energy, same
//! command statistics — and that the completions taken from
//! [`OpFuture`] slots match the polling path completion for completion,
//! in [`CodicDevice::take_completions`] order.
//!
//! [`MemoryController::advance_to`]: codic_dram::MemoryController::advance_to
//! [`CodicDevice::run_to_idle`]: codic_core::device::CodicDevice::run_to_idle
//! [`CodicDevice::take_completions`]: codic_core::device::CodicDevice::take_completions
//! [`OpFuture`]: codic_core::executor::OpFuture

use codic_core::device::{CodicDevice, DeviceConfig, OpCompletion};
use codic_core::ops::{CodicOp, VariantId};
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

fn device(refresh: bool) -> CodicDevice {
    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(refresh);
    CodicDevice::new(config)
}

fn ops_from(raw: &[(u8, u8, u64)]) -> Vec<CodicOp> {
    raw.iter().map(|&(s, v, r)| arbitrary_op(s, v, r)).collect()
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `CodicOp` batches complete at bit-identical cycles with
    /// bit-identical energy whether the device is driven tick-by-tick or
    /// by `advance_to` jumps.
    #[test]
    fn event_and_tick_execution_agree(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>()), 1..24),
        refresh in any::<bool>(),
    ) {
        let ops = ops_from(&raw);

        // The post-submission drain runs on the horizon-free reference
        // driver. (Submission internals — MRS drain barriers, queue-full
        // retries — are event-driven on both sides; the fully
        // horizon-free pin is the controller-level oracle in
        // codic_dram's tests.)
        let mut ticked = device(refresh);
        ticked.submit_all(&ops).unwrap();
        let mut guard = 0u64;
        while !ticked.is_idle() {
            ticked.tick_reference();
            guard += 1;
            prop_assert!(guard < 2_000_000, "tick engine livelock");
        }
        let tick_completions = ticked.take_completions();

        let mut jumped = device(refresh);
        jumped.submit_all(&ops).unwrap();
        jumped.run_to_idle();
        let jump_completions = jumped.take_completions();

        prop_assert_eq!(tick_completions.len(), ops.len());
        let a: Vec<_> = tick_completions.iter().map(key).collect();
        let b: Vec<_> = jump_completions.iter().map(key).collect();
        prop_assert_eq!(a, b, "completion streams diverge");
        prop_assert_eq!(ticked.stats(), jumped.stats());
        prop_assert_eq!(ticked.now(), jumped.now());
    }

    /// Completion slots yield exactly the completions the polling path
    /// yields, each once, filled in `take_completions` order (ascending
    /// finish-cycle, ties broken by submission id).
    #[test]
    fn future_resolution_matches_take_completions_order(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>()), 1..16),
    ) {
        let ops = ops_from(&raw);

        let mut sync_dev = device(false);
        sync_dev.submit_all(&ops).unwrap();
        sync_dev.run_to_idle();
        let sync_completions = sync_dev.take_completions();
        // The polling order is the retirement order: ascending
        // (finish_cycle, token).
        let mut sorted = sync_completions.clone();
        sorted.sort_by_key(|c| (c.finish_cycle, c.token));
        prop_assert_eq!(&sync_completions, &sorted);

        // The async twin, driven one event at a time by the clock driver.
        let mut async_dev = device(false);
        let mut futures: Vec<_> = ops
            .iter()
            .map(|&op| async_dev.submit_async(op).unwrap())
            .collect();
        // Take each completion in the event wave that filled its slot: a
        // slot yields its completion exactly once, and the taken set grows
        // in completion order.
        let mut taken: Vec<Option<OpCompletion>> = vec![None; futures.len()];
        let mut resolution_rank = vec![usize::MAX; futures.len()];
        let mut wave = 0usize;
        while async_dev.step() {
            wave += 1;
            for (i, f) in futures.iter_mut().enumerate() {
                if let Some(completion) = f.try_take() {
                    prop_assert!(taken[i].is_none(), "a slot yielded its completion twice");
                    taken[i] = Some(completion);
                    resolution_rank[i] = wave;
                }
            }
        }
        let async_completions: Option<Vec<OpCompletion>> = taken.into_iter().collect();
        prop_assert!(async_completions.is_some(), "every op resolves");
        let async_completions = async_completions.unwrap();
        // Identical completions, op for op (submission order is preserved
        // on both sides).
        let by_submission_sync = {
            let mut v = sync_completions.clone();
            v.sort_by_key(|c| c.token);
            v
        };
        let a: Vec<_> = by_submission_sync.iter().map(key).collect();
        let b: Vec<_> = async_completions.iter().map(key).collect();
        prop_assert_eq!(a, b);
        // Resolution order is completion order: ranking futures by the
        // event wave that resolved them must agree with the polling
        // order's (finish_cycle, token) sort.
        let mut order: Vec<usize> = (0..async_completions.len()).collect();
        order.sort_by_key(|&i| {
            // One event wave may retire several completions at once; the
            // unobservable intra-wave order is the heap's (finish, token).
            (
                resolution_rank[i],
                async_completions[i].finish_cycle,
                async_completions[i].token,
            )
        });
        let resolved_stream: Vec<_> = order.iter().map(|&i| key(&async_completions[i])).collect();
        let polled_stream: Vec<_> = sync_completions.iter().map(key).collect();
        prop_assert_eq!(resolved_stream, polled_stream);
    }
}
