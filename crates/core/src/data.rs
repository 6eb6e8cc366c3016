//! The compute-region data plane: simulated row *contents* for the
//! bulk-bitwise subsystem.
//!
//! The cycle-level model times operations; it does not hold data. That is
//! the right trade for the paper's original use cases (signatures and
//! zeroing need no value tracking), but the bulk-bitwise family exists to
//! *compute*, so its results must be value-checked against a scalar
//! reference — not just timed. This module materializes row contents
//! lazily and only for rows inside the authorized compute region, so a
//! device without a compute region pays nothing.
//!
//! Every compute destination (all three rows of a MAJ group included)
//! must lie inside the region: the device rejects other compute ops
//! pre-bus, and `apply` asserts it in debug builds. So rows outside the
//! region, like rows never written, read as all-zeros; a `RowCopy`/`Not`
//! whose source lies outside it reads zeros, which the planner never
//! relies on. Each compute operation returns the FNV-1a-64 fingerprint of
//! its destination row, which the service layer carries into completions
//! and the wire protocol folds into the session checksum — making a
//! pinned replay checksum value-verifying end to end.
//!
//! Every tracked row is one 64-bit word repeated across the row, because
//! every write keeps it so: `RowInit`, `RowFill` and the Zeros/Ones
//! effects of non-compute ops fill a row with one word; `RowCopy`, `Not`
//! and MAJ map uniform rows to uniform rows; column writes are not
//! tracked, and signature-class ops drop the row. A row is stored as its
//! word and fingerprint, set when written, in a map keyed by row index
//! under a fixed multiplicative hasher, so memory stays bounded by the
//! rows actually touched however large the region is. Only an op
//! creating a new word hashes, once, with [`uniform_fingerprint`], which
//! walks the word's low-byte orbit through a per-word successor table
//! instead of hashing the row's 8192 bytes. A host↔vertical
//! transposition writing arbitrary rows would have to widen this layout.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::num::Wrapping;
use std::ops::Range;

use codic_dram::geometry::DramGeometry;

use crate::exec::DataEffect;
use crate::ops::CodicOp;

/// 64-bit words per DRAM row (8 KB rows).
pub const WORDS_PER_ROW: usize = (DramGeometry::ROW_BYTES / 8) as usize;

/// One row of simulated contents.
pub type RowWords = [u64; WORDS_PER_ROW];

/// The FNV-1a-64 offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fingerprints of the all-zeros row (every unmaterialized row) and of
/// the all-ones row.
const ZERO_FP: u64 = row_fingerprint(&[0; WORDS_PER_ROW]);
const ONES_FP: u64 = row_fingerprint(&[u64::MAX; WORDS_PER_ROW]);

/// FNV-1a-64 over `words` in little-endian byte order — the same
/// algorithm (and constants) the wire protocol's session checksum uses,
/// so a row fingerprint folds naturally into the replay checksum. This is
/// the reference definition; the data plane computes the same value with
/// [`uniform_fingerprint`].
#[must_use]
pub const fn row_fingerprint(words: &RowWords) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut i = 0;
    while i < WORDS_PER_ROW {
        let word = words[i];
        let mut shift = 0;
        while shift < 64 {
            hash ^= (word >> shift) & 0xff;
            hash = hash.wrapping_mul(FNV_PRIME);
            shift += 8;
        }
        i += 1;
    }
    hash
}

/// `row_fingerprint(&[word; WORDS_PER_ROW])`, without walking the row's
/// 8192 bytes one at a time.
///
/// XOR-ing a byte into an FNV-1a state changes only its low byte, and the
/// low byte of a product depends only on the low bytes of its factors.
/// So hashing one more `word` into a state `h` gives exactly
/// `(h & !0xff)·P⁸ + fnv_word(h & 0xff)` (`P` the FNV prime), where
/// `fnv_word(l)` hashes the word's eight bytes from the state `l < 256`,
/// and the low byte moves by a map `next` of its own. `next` is a
/// bijective T-function on 8 bits (each byte step is an XOR and a
/// multiplication by an odd number), and every cycle of such a map has a
/// power-of-two length. So from the offset basis the low byte comes back
/// after `period` words, a power of two no larger than 256, which
/// divides `WORDS_PER_ROW` (asserted at compile time), so no remainder is
/// left.
///
/// Hence only a table lookup and one multiply-add per word stay on the
/// serial chain. `next` is tabulated for all 256 start bytes up front,
/// eight vectorisable passes of one byte step each, and the orbit is
/// walked with `l = next[l]`. The full state folds in each
/// `fnv_word(l)`, whose eight multiplications start from a known byte,
/// so successive words' hashes overlap instead of chaining. The orbit
/// gives the period's affine map `h ↦ h·a + c`, with
/// `a = P^(8·period)`; the whole row is that map applied
/// `WORDS_PER_ROW / period` times, by squaring.
#[must_use]
pub fn uniform_fingerprint(word: u64) -> u64 {
    const { assert!(WORDS_PER_ROW.is_multiple_of(256) && WORDS_PER_ROW.is_power_of_two()) };
    let bytes = word.to_le_bytes();
    // 16-bit lanes: a byte step's low byte depends only on the lane's low
    // byte, and baseline x86-64 multiplies 16-bit lanes but not 8-bit ones.
    let mut next = [0u16; 256];
    for (x, low) in (0..).zip(&mut next) {
        *low = x;
    }
    for byte in bytes {
        for low in &mut next {
            *low = (*low ^ u16::from(byte)).wrapping_mul(FNV_PRIME as u16);
        }
    }
    let fnv_word = |low: u8| {
        let step = |hash: u64, &byte: &u8| (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        bytes.iter().fold(u64::from(low), step)
    };
    let p8 = FNV_PRIME.wrapping_pow(8);
    let start = FNV_OFFSET as u8;
    let (mut hash, mut low, mut period) = (FNV_OFFSET, start, 0usize);
    loop {
        hash = (hash & !0xff).wrapping_mul(p8).wrapping_add(fnv_word(low));
        low = next[usize::from(low)] as u8;
        period += 1;
        if low == start {
            break;
        }
    }
    debug_assert!(period.is_power_of_two() && period <= 256);
    let mut a = Wrapping(FNV_PRIME.wrapping_pow(8 * period as u32));
    let mut c = Wrapping(hash) - Wrapping(FNV_OFFSET) * a;
    for _ in 0..(WORDS_PER_ROW / period).trailing_zeros() {
        c = c * a + c;
        a *= a;
    }
    (Wrapping(FNV_OFFSET) * a + c).0
}

/// A materialized row: the word repeated across it and its fingerprint,
/// always `uniform_fingerprint(word)`.
#[derive(Debug, Clone, Copy)]
struct Row {
    word: u64,
    fp: u64,
}

impl Row {
    fn filled(word: u64) -> Row {
        let fp = match word {
            0 => ZERO_FP,
            u64::MAX => ONES_FP,
            _ => uniform_fingerprint(word),
        };
        Row { word, fp }
    }
}

/// The row map's hasher: one multiplication of the row index by an odd
/// constant, its high half folded into the low. The map picks buckets
/// from the low bits, which the multiplication keeps distinct for
/// consecutive rows and the fold spreads for power-of-two strides. A
/// fixed hasher also keeps `apply`'s lookups cheap enough to inline.
#[derive(Debug, Clone, Copy, Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("row keys hash as one u64")
    }

    fn write_u64(&mut self, row: u64) {
        let h = row.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Lazily materialized row contents for one device's compute region.
#[derive(Debug, Clone, Default)]
pub struct DataPlane {
    region: Range<u64>,
    /// Rows written so far, by row index.
    rows: HashMap<u64, Row, BuildHasherDefault<RowHasher>>,
}

impl DataPlane {
    /// A data plane tracking contents for rows inside `region` (byte
    /// addresses).
    #[must_use]
    pub fn new(region: Range<u64>) -> Self {
        DataPlane {
            region,
            rows: HashMap::default(),
        }
    }

    /// The tracked byte-address region.
    #[must_use]
    pub fn region(&self) -> &Range<u64> {
        &self.region
    }

    /// Number of rows materialized so far.
    #[must_use]
    pub fn materialized_rows(&self) -> usize {
        self.rows.len()
    }

    fn key(addr: u64) -> u64 {
        addr / DramGeometry::ROW_BYTES
    }

    fn get(&self, addr: u64) -> Row {
        let row = self.rows.get(&Self::key(addr));
        row.copied().unwrap_or(Row::filled(0))
    }

    /// Writes `row` over the row containing `addr`; returns its fingerprint.
    fn set(&mut self, addr: u64, row: Row) -> u64 {
        self.rows.insert(Self::key(addr), row);
        row.fp
    }

    /// The word repeated across the row containing `addr` (zero when never
    /// written or outside the region).
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        self.get(addr).word
    }

    /// The FNV-1a-64 fingerprint of the row containing `addr`.
    #[must_use]
    pub fn fingerprint(&self, addr: u64) -> u64 {
        self.get(addr).fp
    }

    /// Applies the architectural data effect of `op` and returns the
    /// fingerprint of the written destination row for bulk-bitwise
    /// compute operations (`0` for everything else).
    ///
    /// Compute destinations must lie inside the region. Non-compute
    /// destructive operations landing inside the region keep the plane
    /// honest: CODIC-det and the clone-zero baselines leave the
    /// deterministic value, and signature-class commands drop the row
    /// (its process-variation contents are not modeled, so it reads as
    /// zeros afterwards). Ordinary reads and writes are column traffic
    /// the plane does not track.
    pub fn apply(&mut self, op: CodicOp) -> u64 {
        let inside = |addr| self.region.contains(&addr);
        debug_assert!(
            !op.is_compute() || op.written_rows().row_addrs().all(inside),
            "compute destination outside the region: {op:?}"
        );
        let fp = match op {
            CodicOp::RowInit { row_addr, ones } => {
                self.set(row_addr, Row::filled(if ones { u64::MAX } else { 0 }))
            }
            CodicOp::RowFill { row_addr, pattern } => self.set(row_addr, Row::filled(pattern)),
            CodicOp::RowCopy { src_addr, dst_addr } => self.set(dst_addr, self.get(src_addr)),
            CodicOp::Not { src_addr, dst_addr } => {
                self.set(dst_addr, Row::filled(!self.word(src_addr)))
            }
            // Triple-row activation: the group charge-shares to the bitwise
            // majority, and the restore writes it back into all three rows.
            CodicOp::MajAnd { row_addr } | CodicOp::MajOr { row_addr } => {
                let rows = [0, 1, 2].map(|i| row_addr + i * DramGeometry::ROW_BYTES);
                let [a, b, c] = rows.map(|addr| self.word(addr));
                let maj = Row::filled((a & b) | (a & c) | (b & c));
                for addr in rows {
                    self.set(addr, maj);
                }
                maj.fp
            }
            _ => {
                // Non-compute operations matter only on a tracked row.
                if op.written_rows().rows > 0 && self.region.contains(&op.row_addr()) {
                    let key = Self::key(op.row_addr());
                    match op.class().data_effect() {
                        DataEffect::Zeros => self.rows.insert(key, Row::filled(0)),
                        DataEffect::Ones => self.rows.insert(key, Row::filled(u64::MAX)),
                        DataEffect::Signature | DataEffect::Scramble => self.rows.remove(&key),
                        DataEffect::Preserve | DataEffect::Computed => None,
                    };
                }
                return 0;
            }
        };
        debug_assert_eq!(
            fp,
            row_fingerprint(&[self.word(op.row_addr()); WORDS_PER_ROW]),
            "stale cached fingerprint after {op:?}"
        );
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VariantId;
    use proptest::prelude::*;

    const ROW: u64 = DramGeometry::ROW_BYTES;

    fn plane() -> DataPlane {
        DataPlane::new(0..16 * ROW)
    }

    #[test]
    fn untouched_rows_read_as_zeros() {
        let p = plane();
        assert_eq!(p.word(0), 0);
        assert_eq!(p.fingerprint(0), row_fingerprint(&[0; WORDS_PER_ROW]));
        assert_eq!(p.materialized_rows(), 0);
    }

    fn assert_exact(word: u64) {
        assert_eq!(
            uniform_fingerprint(word),
            row_fingerprint(&[word; WORDS_PER_ROW]),
            "word {word:#018x}"
        );
    }

    #[test]
    fn uniform_fingerprint_is_exact_on_every_byte_in_every_lane() {
        assert_exact(0);
        assert_exact(!0);
        for lane in 0..8 {
            for byte in 0..=255u64 {
                assert_exact(byte << (8 * lane));
            }
        }
    }

    proptest! {
        #[test]
        fn uniform_fingerprint_is_exact(word in any::<u64>()) {
            assert_exact(word);
        }
    }

    /// Words hashed from the offset basis until the state's low byte
    /// comes back, walking the low byte alone.
    fn orbit_length(word: u64) -> u32 {
        let start = FNV_OFFSET as u8;
        let mut low = start;
        for words in 1.. {
            for byte in word.to_le_bytes() {
                low = (low ^ byte).wrapping_mul(FNV_PRIME as u8);
            }
            if low == start {
                return words;
            }
        }
        unreachable!("a bijection on 256 states cycles within 256 steps")
    }

    #[test]
    fn uniform_fingerprint_is_exact_at_every_orbit_length() {
        let mut by_length = [None; 8];
        for i in 0..1024u64 {
            let word = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let length = orbit_length(word);
            assert!(length.is_power_of_two() && length <= 128, "orbit {length}");
            by_length[length.trailing_zeros() as usize].get_or_insert(word);
        }
        for (k, word) in by_length.into_iter().enumerate() {
            let word = word.unwrap_or_else(|| panic!("no word with a {}-word orbit", 1 << k));
            assert_exact(word);
        }
    }

    #[test]
    fn rows_anywhere_in_a_full_module_region_keep_their_own_words() {
        let rows = DramGeometry::default().total_rows();
        let mut p = DataPlane::new(0..rows * ROW);
        // The region's ends, every power of two, and every multiple of
        // 2^10: strides that would share low key bits under a plain mask.
        let mut indices: Vec<u64> = (0..rows.ilog2()).map(|k| 1 << k).collect();
        indices.extend((0..rows).step_by(1 << 10));
        indices.push(rows - 1);
        indices.sort_unstable();
        indices.dedup();
        let word = |i: u64| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &i in &indices {
            let fp = p.apply(CodicOp::RowFill {
                row_addr: i * ROW,
                pattern: word(i),
            });
            assert_eq!(fp, row_fingerprint(&[word(i); WORDS_PER_ROW]), "row {i}");
        }
        assert_eq!(p.materialized_rows(), indices.len());
        for &i in &indices {
            assert_eq!(p.word(i * ROW + ROW - 1), word(i), "row {i}");
            assert_eq!(
                p.fingerprint(i * ROW),
                uniform_fingerprint(word(i)),
                "row {i}"
            );
        }
        assert_eq!(
            p.word(3 * ROW),
            0,
            "an unwritten row between them reads zeros"
        );
    }

    #[test]
    fn init_fill_copy_and_not_have_value_semantics() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: 0,
            pattern: 0xA5A5_A5A5_A5A5_A5A5,
        });
        p.apply(CodicOp::RowCopy {
            src_addr: 0,
            dst_addr: ROW,
        });
        assert_eq!(p.word(ROW), 0xA5A5_A5A5_A5A5_A5A5);
        let fp = p.apply(CodicOp::Not {
            src_addr: ROW,
            dst_addr: 2 * ROW,
        });
        assert_eq!(p.word(2 * ROW), 0x5A5A_5A5A_5A5A_5A5A);
        assert_eq!(fp, p.fingerprint(2 * ROW));
        p.apply(CodicOp::RowInit {
            row_addr: 2 * ROW,
            ones: true,
        });
        assert_eq!(p.word(2 * ROW), u64::MAX);
    }

    #[test]
    fn triple_activation_writes_the_majority_into_all_three_rows() {
        let mut p = plane();
        for (i, pattern) in [(0u64, 0b1100u64), (1, 0b1010), (2, 0b1001)] {
            p.apply(CodicOp::RowFill {
                row_addr: i * ROW,
                pattern,
            });
        }
        p.apply(CodicOp::MajAnd { row_addr: 0 });
        for i in 0..3 {
            assert_eq!(p.word(i * ROW), 0b1000, "row {i} holds MAJ");
        }
    }

    #[test]
    fn addressing_is_row_granular() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: ROW + 64,
            pattern: 7,
        });
        assert_eq!(p.word(ROW), 7, "mid-row addresses select the row");
    }

    #[test]
    fn legacy_destructive_ops_keep_tracked_rows_honest() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: 0,
            pattern: 7,
        });
        assert_eq!(p.apply(CodicOp::RowCloneZero { row_addr: 0 }), 0);
        assert_eq!(p.word(0), 0);
        p.apply(CodicOp::command(VariantId::DetOne, 0));
        assert_eq!(p.word(0), u64::MAX);
        p.apply(CodicOp::command(VariantId::Sig, 0));
        assert_eq!(p.word(0), 0, "signature rows are dropped, read zeros");
        // Out-of-region destructive ops are ignored entirely.
        p.apply(CodicOp::RowCloneZero {
            row_addr: 1024 * ROW,
        });
        assert_eq!(p.materialized_rows(), 0, "sig dropped row 0; nothing new");
    }
}
