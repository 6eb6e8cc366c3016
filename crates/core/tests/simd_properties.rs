//! Property-based tests of the bit-serial SIMD planner: every planned
//! vector operation must compute exactly what the scalar reference
//! computes, over arbitrary operands and lane widths, and every plan
//! must stay inside the compute region that authorizes it. The data
//! plane's cached row fingerprints must always equal a fresh hash of the
//! row they describe, and its one-word rows must always equal a full-row
//! reference model (whose rows must stay uniform).

use codic_core::data::{row_fingerprint, DataPlane, RowWords, WORDS_PER_ROW};
use codic_core::device::{CodicDevice, DeviceConfig};
use codic_core::ops::{CodicOp, VariantId};
use codic_core::simd::{reference, SimdLayout, VecOp};
use codic_core::CodicError;
use codic_dram::DramGeometry;
use proptest::prelude::*;

const ROW: u64 = DramGeometry::ROW_BYTES;

/// Runs `seed(a, b)` then `plan(op)` through a bare data plane and
/// returns the first word of each result row.
fn execute(layout: &SimdLayout, op: VecOp, a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut plane = DataPlane::new(layout.base()..layout.base() + layout.rows_needed() * ROW);
    for op in layout.seed(a, b).into_iter().chain(layout.plan(op)) {
        plane.apply(op);
    }
    (0..layout.bits())
        .map(|bit| plane.word(layout.d_row(bit)))
        .collect()
}

fn vec_op(selector: u8) -> VecOp {
    VecOp::ALL[usize::from(selector) % VecOp::ALL.len()]
}

/// Base address of the 16-row region the cache-coherence property drives.
const REGION_BASE: u64 = 0x40_0000;
const REGION_ROWS: u64 = 16;

/// Row index `i` of the coherence region; indices past the region name
/// rows outside it: just below, just above, and far away.
fn region_addr(i: u8) -> u64 {
    match u64::from(i) {
        i if i < REGION_ROWS => REGION_BASE + i * ROW,
        16 => REGION_BASE - ROW,
        17 => REGION_BASE + REGION_ROWS * ROW,
        _ => REGION_BASE + 1000 * ROW,
    }
}

/// One data-plane operation over the coherence region. Compute
/// destinations stay inside it; sources and non-compute targets may
/// fall outside. `word` picks the fill pattern, biased towards the
/// all-zeros and all-ones constants.
fn coherence_op(kind: u8, a: u8, b: u8, word: u64) -> CodicOp {
    let dst = region_addr(a % 16);
    let src = region_addr(b % 19);
    match kind % 9 {
        0 => CodicOp::RowInit {
            row_addr: dst,
            ones: word & 1 == 1,
        },
        1 => CodicOp::RowFill {
            row_addr: dst,
            pattern: match word % 4 {
                0 => 0,
                1 => u64::MAX,
                _ => word,
            },
        },
        2 => CodicOp::RowCopy {
            src_addr: if word & 1 == 1 { dst } else { src },
            dst_addr: dst,
        },
        3 => CodicOp::Not {
            src_addr: if word & 1 == 1 { dst } else { src },
            dst_addr: dst,
        },
        4 => CodicOp::MajAnd {
            row_addr: region_addr(a % 14),
        },
        5 => CodicOp::MajOr {
            row_addr: region_addr(a % 14),
        },
        6 => CodicOp::RowCloneZero { row_addr: src },
        7 => CodicOp::command(VariantId::DetOne, src),
        _ => CodicOp::command(VariantId::Sig, src),
    }
}

/// Reference contents of the region, applied without fingerprints.
/// Rows outside it are never written by [`coherence_op`]'s compute ops
/// and non-compute ops there are ignored, so they always read zeros.
fn model_apply(model: &mut [Box<RowWords>], op: CodicOp) {
    let index = |addr: u64| {
        (REGION_BASE..REGION_BASE + REGION_ROWS * ROW)
            .contains(&addr)
            .then(|| ((addr - REGION_BASE) / ROW) as usize)
    };
    let read = |model: &[Box<RowWords>], addr: u64| -> RowWords {
        index(addr).map_or([0; WORDS_PER_ROW], |i| *model[i])
    };
    let dst = index(op.row_addr());
    match op {
        CodicOp::RowInit { ones, .. } => model[dst.unwrap()].fill(if ones { u64::MAX } else { 0 }),
        CodicOp::RowFill { pattern, .. } => model[dst.unwrap()].fill(pattern),
        CodicOp::RowCopy { src_addr, .. } => *model[dst.unwrap()] = read(model, src_addr),
        CodicOp::Not { src_addr, .. } => {
            let src = read(model, src_addr);
            for (d, s) in model[dst.unwrap()].iter_mut().zip(src) {
                *d = !s;
            }
        }
        CodicOp::MajAnd { .. } | CodicOp::MajOr { .. } => {
            let i = dst.unwrap();
            for w in 0..WORDS_PER_ROW {
                let (a, b, c) = (model[i][w], model[i + 1][w], model[i + 2][w]);
                let maj = (a & b) | (a & c) | (b & c);
                for row in &mut model[i..i + 3] {
                    row[w] = maj;
                }
            }
        }
        CodicOp::Command {
            variant: VariantId::DetOne,
            ..
        } => {
            if let Some(i) = dst {
                model[i].fill(u64::MAX);
            }
        }
        _ => {
            if let Some(i) = dst {
                model[i].fill(0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_fingerprints_always_match_the_row_contents(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            1..=48,
        ),
    ) {
        let mut plane = DataPlane::new(REGION_BASE..REGION_BASE + REGION_ROWS * ROW);
        let mut model = vec![Box::new([0u64; WORDS_PER_ROW]); REGION_ROWS as usize];
        for (kind, a, b, word) in ops {
            let op = coherence_op(kind, a, b, word);
            let fp = plane.apply(op);
            model_apply(&mut model, op);
            for (i, row) in model.iter().enumerate() {
                prop_assert!(
                    row.iter().all(|&w| w == row[0]),
                    "model row {} is not uniform after {:?}", i, op
                );
            }
            let expected = if op.is_compute() {
                row_fingerprint(&[plane.word(op.row_addr()); WORDS_PER_ROW])
            } else {
                0
            };
            prop_assert_eq!(fp, expected, "returned fingerprint of {:?}", op);
            for i in 0..=18 {
                let addr = region_addr(i);
                let row = [plane.word(addr); WORDS_PER_ROW];
                prop_assert_eq!(
                    plane.fingerprint(addr),
                    row_fingerprint(&row),
                    "cached fingerprint of row {} after {:?}", i, op
                );
                let want = model.get(usize::from(i)).map_or(&[0; WORDS_PER_ROW], |r| &**r);
                prop_assert!(&row == want, "contents of row {} after {:?}", i, op);
            }
        }
    }

    #[test]
    fn planned_vector_ops_match_the_scalar_reference(
        selector in any::<u8>(),
        operands in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..=16),
    ) {
        let op = vec_op(selector);
        let (a, b): (Vec<u64>, Vec<u64>) = operands.into_iter().unzip();
        let layout = SimdLayout::new(0x40_0000, a.len() as u32);
        prop_assert_eq!(execute(&layout, op, &a, &b), reference(op, &a, &b));
    }

    #[test]
    fn plans_write_only_inside_their_layout(
        selector in any::<u8>(),
        bits in 1u32..=16,
        base_row in 0u64..1024,
    ) {
        let op = vec_op(selector);
        let layout = SimdLayout::new(base_row * ROW, bits);
        let end = base_row * ROW + layout.rows_needed() * ROW;
        for planned in layout.plan(op) {
            prop_assert!(planned.is_compute());
            for addr in planned.written_rows().row_addrs() {
                prop_assert!(
                    (base_row * ROW..end).contains(&addr),
                    "{:?} writes row {:#x} outside [{:#x}, {:#x})",
                    planned, addr, base_row * ROW, end
                );
            }
        }
    }

    #[test]
    fn compute_ops_outside_the_region_never_reach_the_bus(
        selector in any::<u8>(),
        bits in 1u32..=8,
        offset_rows in 0u64..64,
    ) {
        // A device whose compute region is its top 64 rows: plans inside
        // the region execute, while the same plan shifted to start below
        // the region is rejected pre-bus with a typed policy error.
        let config = DeviceConfig::paper_default().with_compute_rows(64);
        let region = config.compute_range();
        let mut device = CodicDevice::new(config.clone());
        let inside = SimdLayout::new(region.start, bits);
        prop_assume!(inside.rows_needed() <= 64);
        let inside_plan = inside.plan(vec_op(selector));
        let planned_ops = inside_plan.len() as u64;
        for planned in inside_plan {
            device.submit(planned).expect("authorized compute op");
        }
        device.run_to_idle();
        prop_assert_eq!(device.stats().row_ops, planned_ops);

        // Shift the layout so its first row falls below the region.
        let outside = SimdLayout::new(
            region.start - (offset_rows + 1) * ROW,
            bits,
        );
        // Ops of the straddling plan that land fully inside the region
        // are legitimately accepted; the first op touching a row below
        // the region must be rejected and reach the bus never.
        let mut accepted = 0u64;
        let mut rejected = None;
        for op in outside.plan(vec_op(selector)) {
            match device.submit(op) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("a straddling plan must be rejected");
        prop_assert!(matches!(err, CodicError::ComputeOutsideRegion { .. }));
        device.run_to_idle();
        prop_assert_eq!(
            device.stats().row_ops,
            planned_ops + accepted,
            "rejected compute ops must not reach the command bus"
        );
    }
}
