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
//! Rows never touched (or outside the region) read as all-zeros; a
//! `RowCopy`/`Not` whose source lies outside the region therefore reads
//! zeros, which the planner never relies on. Each compute operation
//! returns the FNV-1a-64 fingerprint of its destination row, which the
//! service layer carries into completions and the wire protocol folds
//! into the session checksum — making a pinned replay checksum
//! value-verifying end to end.
//!
//! Every materialized row stores its fingerprint beside its words, set
//! when the row is written, so reading it never hashes. Only operations
//! that create new contents hash, once each: `Not`, a `MajAnd`/`MajOr`
//! group (whose three rows share the result), and a `RowFill` of any
//! pattern but all-zeros or all-ones. `RowInit`, constant fills and the
//! zeroing/one-setting effects of non-compute operations take a
//! compile-time fingerprint, and `RowCopy` takes its source's.

use std::collections::HashMap;
use std::ops::Range;

use codic_dram::geometry::DramGeometry;

use crate::exec::DataEffect;
use crate::ops::CodicOp;

/// 64-bit words per DRAM row (8 KB rows).
pub const WORDS_PER_ROW: usize = (DramGeometry::ROW_BYTES / 8) as usize;

/// One row of simulated contents.
pub type RowWords = [u64; WORDS_PER_ROW];

/// The all-zeros contents every unmaterialized row reads as.
static ZERO_ROW: RowWords = [0; WORDS_PER_ROW];

/// Fingerprint of an all-zeros row (every unmaterialized row).
const ZERO_FP: u64 = row_fingerprint(&[0; WORDS_PER_ROW]);

/// Fingerprint of an all-ones row.
const ONES_FP: u64 = row_fingerprint(&[u64::MAX; WORDS_PER_ROW]);

/// FNV-1a-64 over `words` in little-endian byte order — the same
/// algorithm (and constants) the wire protocol's session checksum uses,
/// so a row fingerprint folds naturally into the replay checksum.
#[must_use]
pub const fn row_fingerprint(words: &RowWords) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < WORDS_PER_ROW {
        let word = words[i];
        let mut shift = 0;
        while shift < 64 {
            hash ^= (word >> shift) & 0xff;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            shift += 8;
        }
        i += 1;
    }
    hash
}

/// A materialized row: its contents and their fingerprint, which every
/// write keeps equal to `row_fingerprint(&words)`.
#[derive(Debug, Clone)]
struct Row {
    words: Box<RowWords>,
    fp: u64,
}

/// Lazily materialized row contents for one device's compute region.
#[derive(Debug, Clone, Default)]
pub struct DataPlane {
    region: Range<u64>,
    rows: HashMap<u64, Row>,
}

impl DataPlane {
    /// A data plane tracking contents for rows inside `region` (byte
    /// addresses).
    #[must_use]
    pub fn new(region: Range<u64>) -> Self {
        DataPlane {
            region,
            rows: HashMap::new(),
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
        addr - addr % DramGeometry::ROW_BYTES
    }

    /// The contents of the row containing `addr` (all-zeros when never
    /// written or outside the region).
    #[must_use]
    pub fn row(&self, addr: u64) -> &RowWords {
        self.rows
            .get(&Self::key(addr))
            .map_or(&ZERO_ROW, |row| &row.words)
    }

    /// The FNV-1a-64 fingerprint of the row containing `addr`.
    #[must_use]
    pub fn fingerprint(&self, addr: u64) -> u64 {
        self.rows
            .get(&Self::key(addr))
            .map_or(ZERO_FP, |row| row.fp)
    }

    /// The row keyed `key`, materialized as zeros if it was not yet.
    fn row_mut(&mut self, key: u64) -> &mut Row {
        self.rows.entry(key).or_insert_with(|| Row {
            words: Box::new(ZERO_ROW),
            fp: ZERO_FP,
        })
    }

    fn fill(&mut self, addr: u64, word: u64) -> u64 {
        let row = self.row_mut(Self::key(addr));
        row.words.fill(word);
        row.fp = match word {
            0 => ZERO_FP,
            u64::MAX => ONES_FP,
            _ => row_fingerprint(&row.words),
        };
        row.fp
    }

    /// Copies the source row's words and fingerprint into the
    /// destination row and returns it.
    fn copy(&mut self, src_addr: u64, dst_addr: u64) -> &mut Row {
        let (src, dst) = (Self::key(src_addr), Self::key(dst_addr));
        self.row_mut(dst);
        if src != dst {
            match self.rows.get_disjoint_mut([&src, &dst]) {
                [Some(s), Some(d)] => {
                    d.words.copy_from_slice(&s.words[..]);
                    d.fp = s.fp;
                }
                [None, Some(d)] => {
                    d.words.fill(0);
                    d.fp = ZERO_FP;
                }
                [_, None] => unreachable!("the destination row was just materialized"),
            }
        }
        self.row_mut(dst)
    }

    fn not(&mut self, src_addr: u64, dst_addr: u64) -> u64 {
        let dst = self.copy(src_addr, dst_addr);
        for w in dst.words.iter_mut() {
            *w = !*w;
        }
        dst.fp = row_fingerprint(&dst.words);
        dst.fp
    }

    /// Triple-row activation: the group charge-shares to the bitwise
    /// majority, and the restore writes that majority back into all
    /// three rows.
    fn majority(&mut self, row_addr: u64) -> u64 {
        let k0 = Self::key(row_addr);
        let keys = [
            k0,
            k0 + DramGeometry::ROW_BYTES,
            k0 + 2 * DramGeometry::ROW_BYTES,
        ];
        for key in keys {
            self.row_mut(key);
        }
        let [Some(a), Some(b), Some(c)] = self.rows.get_disjoint_mut(keys.each_ref()) else {
            unreachable!("all three rows were just materialized");
        };
        for ((a, b), c) in a
            .words
            .iter_mut()
            .zip(b.words.iter_mut())
            .zip(c.words.iter_mut())
        {
            let maj = (*a & *b) | (*a & *c) | (*b & *c);
            (*a, *b, *c) = (maj, maj, maj);
        }
        let fp = row_fingerprint(&a.words);
        (a.fp, b.fp, c.fp) = (fp, fp, fp);
        fp
    }

    /// Applies the architectural data effect of `op` and returns the
    /// fingerprint of the written destination row for bulk-bitwise
    /// compute operations (`0` for everything else).
    ///
    /// Non-compute destructive operations landing inside the region keep
    /// the plane honest: CODIC-det and the clone-zero baselines leave the
    /// deterministic value, and signature-class commands drop the row
    /// (its process-variation contents are not modeled, so it reads as
    /// zeros afterwards). Ordinary reads and writes are column traffic
    /// the plane does not track.
    pub fn apply(&mut self, op: CodicOp) -> u64 {
        let fp = match op {
            CodicOp::RowInit { row_addr, ones } => {
                self.fill(row_addr, if ones { u64::MAX } else { 0 })
            }
            CodicOp::RowFill { row_addr, pattern } => self.fill(row_addr, pattern),
            CodicOp::RowCopy { src_addr, dst_addr } => self.copy(src_addr, dst_addr).fp,
            CodicOp::Not { src_addr, dst_addr } => self.not(src_addr, dst_addr),
            CodicOp::MajAnd { row_addr } | CodicOp::MajOr { row_addr } => self.majority(row_addr),
            _ => {
                // Non-compute operations only matter when they land on a
                // tracked row.
                if op.written_rows().rows > 0 && self.region.contains(&op.row_addr()) {
                    match op.class().data_effect() {
                        DataEffect::Zeros => {
                            self.fill(op.row_addr(), 0);
                        }
                        DataEffect::Ones => {
                            self.fill(op.row_addr(), u64::MAX);
                        }
                        DataEffect::Signature | DataEffect::Scramble => {
                            self.rows.remove(&Self::key(op.row_addr()));
                        }
                        DataEffect::Preserve | DataEffect::Computed => {}
                    }
                }
                return 0;
            }
        };
        debug_assert_eq!(
            fp,
            row_fingerprint(self.row(op.row_addr())),
            "stale cached fingerprint after {op:?}"
        );
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VariantId;

    const ROW: u64 = DramGeometry::ROW_BYTES;

    fn plane() -> DataPlane {
        DataPlane::new(0..16 * ROW)
    }

    #[test]
    fn untouched_rows_read_as_zeros() {
        let p = plane();
        assert!(p.row(0).iter().all(|&w| w == 0));
        assert_eq!(p.fingerprint(0), row_fingerprint(&ZERO_ROW));
        assert_eq!(p.materialized_rows(), 0);
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
        assert_eq!(p.row(ROW)[7], 0xA5A5_A5A5_A5A5_A5A5);
        let fp = p.apply(CodicOp::Not {
            src_addr: ROW,
            dst_addr: 2 * ROW,
        });
        assert_eq!(p.row(2 * ROW)[0], 0x5A5A_5A5A_5A5A_5A5A);
        assert_eq!(fp, p.fingerprint(2 * ROW));
        p.apply(CodicOp::RowInit {
            row_addr: 2 * ROW,
            ones: true,
        });
        assert!(p.row(2 * ROW).iter().all(|&w| w == u64::MAX));
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
            assert_eq!(p.row(i * ROW)[0], 0b1000, "row {i} holds MAJ");
        }
    }

    #[test]
    fn addressing_is_row_granular() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: ROW + 64,
            pattern: 7,
        });
        assert_eq!(p.row(ROW)[0], 7, "mid-row addresses select the row");
    }

    #[test]
    fn legacy_destructive_ops_keep_tracked_rows_honest() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: 0,
            pattern: 7,
        });
        assert_eq!(p.apply(CodicOp::RowCloneZero { row_addr: 0 }), 0);
        assert!(p.row(0).iter().all(|&w| w == 0));
        p.apply(CodicOp::command(VariantId::DetOne, 0));
        assert!(p.row(0).iter().all(|&w| w == u64::MAX));
        p.apply(CodicOp::command(VariantId::Sig, 0));
        assert_eq!(p.row(0)[0], 0, "signature rows are dropped, read zeros");
        // Out-of-region destructive ops are ignored entirely.
        p.apply(CodicOp::RowCloneZero {
            row_addr: 1024 * ROW,
        });
        assert_eq!(p.materialized_rows(), 0, "sig dropped row 0; nothing new");
    }
}
