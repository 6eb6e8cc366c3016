//! The bit-serial SIMD planner: element-wise vector operations compiled
//! into bulk-bitwise row-operation sequences (SIMDRAM-style).
//!
//! Operands live *vertically* bit-sliced: bit `i` of every lane occupies
//! one DRAM row, so an 8 KB row holds bit `i` of 65 536 one-bit lanes and
//! an `n`-bit vector occupies `n` rows. One triple-row activation then
//! computes a bitwise majority over all lanes at once, and AND/OR fall
//! out of MAJ by loading a constant all-zeros/all-ones third row
//! ([`CodicOp::RowInit`]). XOR and ADD are composed:
//!
//! - `a XOR b = (a OR b) AND NOT(a AND b)`;
//! - ADD ripples a carry row through the bit positions, using the
//!   triple-row group as a true 3-input majority for the carry and the
//!   XOR decomposition for the sum bit (results wrap modulo `2^n`).
//!
//! The planner emits only [`CodicOp`]s — `RowCopy` for data movement,
//! `RowInit` for constants, `MajAnd`/`MajOr`/`Not` for logic — over a
//! [`SimdLayout`] carved out of the authorized compute region, so every
//! plan replays through the ordinary service path and its policy.

use codic_dram::geometry::DramGeometry;

use crate::ops::CodicOp;

/// An element-wise vector operation over `n`-bit lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// Lane-wise AND.
    And,
    /// Lane-wise OR.
    Or,
    /// Lane-wise XOR.
    Xor,
    /// Lane-wise integer addition, wrapping modulo `2^n`.
    Add,
}

impl VecOp {
    /// Every vector operation the planner compiles.
    pub const ALL: [VecOp; 4] = [VecOp::And, VecOp::Or, VecOp::Xor, VecOp::Add];

    /// The trace-grammar name of the operation.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VecOp::And => "and",
            VecOp::Or => "or",
            VecOp::Xor => "xor",
            VecOp::Add => "add",
        }
    }
}

/// Row indices (relative to the layout base) of the planner's fixed
/// scratch rows: the 3-row triple-activation group, three temporaries,
/// and the carry row.
const GROUP: u64 = 0;
const T0: u64 = 3;
const T1: u64 = 4;
const T2: u64 = 5;
const CARRY: u64 = 6;
/// First operand row: everything below is scratch.
const OPERANDS: u64 = 7;

/// The compute-region layout of one bit-serial operation: scratch rows,
/// then operand `A`, operand `B`, and the result `D`, each `bits` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdLayout {
    base: u64,
    bits: u32,
}

impl SimdLayout {
    /// A layout for `bits`-bit lanes based at byte address `base` (the
    /// first row of the region the caller reserves for it).
    ///
    /// # Panics
    ///
    /// Panics when `bits` is zero.
    #[must_use]
    pub fn new(base: u64, bits: u32) -> Self {
        assert!(bits > 0, "zero-bit lanes have no rows");
        SimdLayout { base, bits }
    }

    /// Byte address of the layout's first row.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Lane width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total rows the layout occupies (scratch + `A` + `B` + `D`).
    #[must_use]
    pub fn rows_needed(&self) -> u64 {
        OPERANDS + 3 * u64::from(self.bits)
    }

    fn row(&self, index: u64) -> u64 {
        self.base + index * DramGeometry::ROW_BYTES
    }

    /// Row address holding bit `bit` of operand `A`.
    #[must_use]
    pub fn a_row(&self, bit: u32) -> u64 {
        self.row(OPERANDS + u64::from(bit))
    }

    /// Row address holding bit `bit` of operand `B`.
    #[must_use]
    pub fn b_row(&self, bit: u32) -> u64 {
        self.row(OPERANDS + u64::from(self.bits) + u64::from(bit))
    }

    /// Row address holding bit `bit` of the result `D`.
    #[must_use]
    pub fn d_row(&self, bit: u32) -> u64 {
        self.row(OPERANDS + 2 * u64::from(self.bits) + u64::from(bit))
    }

    /// The operand-seeding plan: fills each bit-slice row of `A` and `B`
    /// with its 64-lane pattern repeated across the row (lanes repeat
    /// with period 64, which loses no generality for value checks).
    ///
    /// # Panics
    ///
    /// Panics when a pattern slice is not exactly `bits` long.
    #[must_use]
    pub fn seed(&self, a: &[u64], b: &[u64]) -> Vec<CodicOp> {
        assert_eq!(a.len(), self.bits as usize, "one pattern per bit of A");
        assert_eq!(b.len(), self.bits as usize, "one pattern per bit of B");
        let mut ops = Vec::with_capacity(2 * self.bits as usize);
        for (bit, &pattern) in a.iter().enumerate() {
            ops.push(CodicOp::RowFill {
                row_addr: self.a_row(bit as u32),
                pattern,
            });
        }
        for (bit, &pattern) in b.iter().enumerate() {
            ops.push(CodicOp::RowFill {
                row_addr: self.b_row(bit as u32),
                pattern,
            });
        }
        ops
    }

    fn copy(src: u64, dst: u64) -> CodicOp {
        CodicOp::RowCopy {
            src_addr: src,
            dst_addr: dst,
        }
    }

    /// `out = a AND b` via MAJ(a, b, 0).
    fn and_into(&self, ops: &mut Vec<CodicOp>, a: u64, b: u64, out: u64) {
        let g = self.row(GROUP);
        ops.push(Self::copy(a, g));
        ops.push(Self::copy(b, g + DramGeometry::ROW_BYTES));
        ops.push(CodicOp::RowInit {
            row_addr: g + 2 * DramGeometry::ROW_BYTES,
            ones: false,
        });
        ops.push(CodicOp::MajAnd { row_addr: g });
        ops.push(Self::copy(g, out));
    }

    /// `out = a OR b` via MAJ(a, b, 1).
    fn or_into(&self, ops: &mut Vec<CodicOp>, a: u64, b: u64, out: u64) {
        let g = self.row(GROUP);
        ops.push(Self::copy(a, g));
        ops.push(Self::copy(b, g + DramGeometry::ROW_BYTES));
        ops.push(CodicOp::RowInit {
            row_addr: g + 2 * DramGeometry::ROW_BYTES,
            ones: true,
        });
        ops.push(CodicOp::MajOr { row_addr: g });
        ops.push(Self::copy(g, out));
    }

    /// `out = MAJ(a, b, c)` — the true 3-input majority (carry).
    fn maj_into(&self, ops: &mut Vec<CodicOp>, a: u64, b: u64, c: u64, out: u64) {
        let g = self.row(GROUP);
        ops.push(Self::copy(a, g));
        ops.push(Self::copy(b, g + DramGeometry::ROW_BYTES));
        ops.push(Self::copy(c, g + 2 * DramGeometry::ROW_BYTES));
        ops.push(CodicOp::MajOr { row_addr: g });
        ops.push(Self::copy(g, out));
    }

    /// `out = a XOR b = (a OR b) AND NOT(a AND b)`; clobbers `T0`/`T1`,
    /// so `a` and `b` must not be those scratch rows.
    fn xor_into(&self, ops: &mut Vec<CodicOp>, a: u64, b: u64, out: u64) {
        self.and_into(ops, a, b, self.row(T0));
        ops.push(CodicOp::Not {
            src_addr: self.row(T0),
            dst_addr: self.row(T1),
        });
        self.or_into(ops, a, b, self.row(T0));
        self.and_into(ops, self.row(T0), self.row(T1), out);
    }

    /// Compiles `op` over the seeded operands into the row-operation
    /// sequence that leaves the result in the `D` rows.
    #[must_use]
    pub fn plan(&self, op: VecOp) -> Vec<CodicOp> {
        let mut ops = Vec::new();
        match op {
            VecOp::And => {
                for bit in 0..self.bits {
                    self.and_into(&mut ops, self.a_row(bit), self.b_row(bit), self.d_row(bit));
                }
            }
            VecOp::Or => {
                for bit in 0..self.bits {
                    self.or_into(&mut ops, self.a_row(bit), self.b_row(bit), self.d_row(bit));
                }
            }
            VecOp::Xor => {
                for bit in 0..self.bits {
                    self.xor_into(&mut ops, self.a_row(bit), self.b_row(bit), self.d_row(bit));
                }
            }
            VecOp::Add => {
                ops.push(CodicOp::RowInit {
                    row_addr: self.row(CARRY),
                    ones: false,
                });
                for bit in 0..self.bits {
                    let (a, b) = (self.a_row(bit), self.b_row(bit));
                    // Sum bit first (it needs the incoming carry), then
                    // the carry update for the next position.
                    self.xor_into(&mut ops, a, b, self.row(T2));
                    self.xor_into(&mut ops, self.row(T2), self.row(CARRY), self.d_row(bit));
                    self.maj_into(&mut ops, a, b, self.row(CARRY), self.row(CARRY));
                }
            }
        }
        ops
    }
}

/// The scalar reference: the bit-slice patterns the `D` rows must hold
/// after [`SimdLayout::plan`]`(op)` runs over operands seeded with `a`
/// and `b` (one 64-lane pattern per bit).
///
/// # Panics
///
/// Panics when `a` and `b` differ in length.
#[must_use]
pub fn reference(op: VecOp, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "operands must have the same lane width");
    match op {
        VecOp::And => a.iter().zip(b).map(|(x, y)| x & y).collect(),
        VecOp::Or => a.iter().zip(b).map(|(x, y)| x | y).collect(),
        VecOp::Xor => a.iter().zip(b).map(|(x, y)| x ^ y).collect(),
        VecOp::Add => {
            // Ripple-carry directly on the bit slices: each u64 word is
            // 64 independent lanes, so full-adder algebra per slice IS
            // lane-wise addition.
            let mut carry = 0u64;
            a.iter()
                .zip(b)
                .map(|(&x, &y)| {
                    let sum = x ^ y ^ carry;
                    carry = (x & y) | (x & carry) | (y & carry);
                    sum
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataPlane;

    const ROW: u64 = DramGeometry::ROW_BYTES;

    /// Runs `layout.seed(a, b)` then `layout.plan(op)` through a data
    /// plane and returns the first word of each `D` row.
    fn execute(layout: &SimdLayout, op: VecOp, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut plane = DataPlane::new(layout.base..layout.base + layout.rows_needed() * ROW);
        for op in layout.seed(a, b).into_iter().chain(layout.plan(op)) {
            plane.apply(op);
        }
        (0..layout.bits())
            .map(|bit| plane.word(layout.d_row(bit)))
            .collect()
    }

    #[test]
    fn layout_partitions_rows_without_overlap() {
        let l = SimdLayout::new(0x10000, 4);
        assert_eq!(l.rows_needed(), 7 + 12);
        let mut rows: Vec<u64> = (0..4)
            .flat_map(|b| [l.a_row(b), l.b_row(b), l.d_row(b)])
            .collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), 12, "operand and result rows are distinct");
        assert!(rows.iter().all(|&r| r >= 0x10000 + OPERANDS * ROW));
    }

    #[test]
    fn planned_logic_matches_the_scalar_reference() {
        let l = SimdLayout::new(0, 4);
        let a = [0b1100, 0xFFFF_0000_FFFF_0000, 0, u64::MAX];
        let b = [0b1010, 0x00FF_00FF_00FF_00FF, u64::MAX, u64::MAX];
        for op in [VecOp::And, VecOp::Or, VecOp::Xor] {
            assert_eq!(execute(&l, op, &a, &b), reference(op, &a, &b), "{op:?}");
        }
    }

    #[test]
    fn planned_addition_ripples_carries_across_bit_positions() {
        let l = SimdLayout::new(0, 8);
        // Lane 0 (bit 0 of each pattern): 0xFF + 0x01 wraps to 0x00;
        // lane 1: 0x0F + 0x00 = 0x0F; remaining lanes: 0 + 0 = 0.
        let a: Vec<u64> = (0..8).map(|i| 1 | if i < 4 { 2 } else { 0 }).collect();
        let b: Vec<u64> = (0..8).map(|i| u64::from(i == 0)).collect();
        let got = execute(&l, VecOp::Add, &a, &b);
        let want = reference(VecOp::Add, &a, &b);
        assert_eq!(got, want);
        // Decode lane 0 and lane 1 as integers to confirm the reference
        // itself is lane-wise addition.
        let lane = |slices: &[u64], j: u32| -> u64 {
            slices
                .iter()
                .enumerate()
                .map(|(i, s)| ((s >> j) & 1) << i)
                .sum()
        };
        assert_eq!(lane(&want, 0), (0xFFu64 + 1) & 0xFF);
        assert_eq!(lane(&want, 1), 0x0F);
    }

    #[test]
    fn plans_speak_only_the_typed_op_vocabulary() {
        let l = SimdLayout::new(0x8000, 2);
        for op in VecOp::ALL {
            for planned in l.plan(op) {
                assert!(planned.is_compute(), "{planned:?}");
                for addr in planned.written_rows().row_addrs() {
                    assert!(
                        addr < 0x8000 + l.rows_needed() * ROW && addr >= 0x8000,
                        "{planned:?} writes outside the layout"
                    );
                }
            }
        }
    }
}
