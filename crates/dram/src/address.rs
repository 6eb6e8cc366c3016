//! Physical-address to DRAM-coordinate mapping.

use crate::geometry::{Divisor, DramGeometry, LINE_BYTES};

/// A fully decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DramAddress {
    /// Rank index on the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// 64 B line slot within the row.
    pub line: u32,
}

impl DramAddress {
    /// A global bank identifier (`rank × banks_per_rank + bank`).
    #[must_use]
    pub fn bank_id(&self, geometry: &DramGeometry) -> u32 {
        self.rank * geometry.banks_per_rank + self.bank
    }
}

/// Maps physical byte addresses to DRAM coordinates with the
/// row:rank:bank:column layout (row bits on top, line bits at the bottom).
///
/// Consecutive lines walk a row (maximizing row-buffer hits for streaming
/// accesses) and consecutive rows walk the banks (maximizing bank-level
/// parallelism for row-granularity sweeps) — the address layout assumed by
/// the paper's destruction and deallocation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: DramGeometry,
    /// The geometry's dimensions as precomputed divisors: lines in the
    /// module, lines per row, banks per rank, ranks.
    lines: Divisor,
    lines_per_row: Divisor,
    banks_per_rank: Divisor,
    ranks: Divisor,
}

impl AddressMapper {
    /// Creates a mapper for `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension of `geometry` is 0.
    #[must_use]
    pub fn new(geometry: DramGeometry) -> Self {
        AddressMapper {
            geometry,
            lines: Divisor::new(geometry.total_lines()),
            lines_per_row: Divisor::new(u64::from(geometry.lines_per_row)),
            banks_per_rank: Divisor::new(u64::from(geometry.banks_per_rank)),
            ranks: Divisor::new(u64::from(geometry.ranks)),
        }
    }

    /// The geometry this mapper targets.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Decodes a physical byte address. Addresses beyond the module wrap.
    #[must_use]
    pub fn decode(&self, phys_addr: u64) -> DramAddress {
        let line_in_module = phys_addr / LINE_BYTES % self.lines;
        let (row_global, line) = self.lines_per_row.div_rem(line_in_module);
        let (rank_row, bank) = self.banks_per_rank.div_rem(row_global);
        let (row, rank) = self.ranks.div_rem(rank_row);
        DramAddress {
            rank: rank as u32,
            bank: bank as u32,
            row: row as u32,
            line: line as u32,
        }
    }

    /// The rank of the global bank `bank_id` ([`DramAddress::bank_id`]).
    pub(crate) fn rank_of_bank(&self, bank_id: usize) -> usize {
        (bank_id as u64 / self.banks_per_rank) as usize
    }

    /// Encodes a DRAM coordinate back into a physical byte address
    /// (inverse of [`AddressMapper::decode`]).
    #[must_use]
    pub fn encode(&self, addr: DramAddress) -> u64 {
        let g = &self.geometry;
        let rank_row = u64::from(addr.row) * u64::from(g.ranks) + u64::from(addr.rank);
        let row_global = rank_row * u64::from(g.banks_per_rank) + u64::from(addr.bank);
        let line_in_module = row_global * u64::from(g.lines_per_row) + u64::from(addr.line);
        line_in_module * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_encode_round_trips() {
        let m = AddressMapper::new(DramGeometry::module_mib(64));
        for phys in [0u64, 64, 8192, 8192 * 3 + 128, 64 * 1024 * 1024 - 64] {
            let d = m.decode(phys);
            assert_eq!(m.encode(d), phys, "addr {phys:#x}");
        }
    }

    #[test]
    fn consecutive_lines_share_a_row() {
        let m = AddressMapper::new(DramGeometry::module_mib(64));
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!((a.rank, a.bank, a.row), (b.rank, b.bank, b.row));
        assert_eq!(b.line, a.line + 1);
    }

    #[test]
    fn consecutive_rows_rotate_banks() {
        let m = AddressMapper::new(DramGeometry::module_mib(64));
        let a = m.decode(0);
        let b = m.decode(DramGeometry::ROW_BYTES);
        assert_eq!(a.row, b.row);
        assert_eq!(b.bank, a.bank + 1);
        // After all 8 banks, the row index advances.
        let c = m.decode(DramGeometry::ROW_BYTES * 8);
        assert_eq!(c.bank, 0);
        assert_eq!(c.row, 1);
    }

    #[test]
    fn addresses_wrap_at_module_size() {
        let g = DramGeometry::module_mib(64);
        let m = AddressMapper::new(g);
        assert_eq!(m.decode(0), m.decode(g.total_bytes()));
    }

    #[test]
    fn bank_id_is_globally_unique() {
        let mut g = DramGeometry::module_mib(64);
        g.ranks = 2;
        let mut seen = std::collections::HashSet::new();
        for rank in 0..2 {
            for bank in 0..8 {
                let a = DramAddress {
                    rank,
                    bank,
                    row: 0,
                    line: 0,
                };
                assert!(seen.insert(a.bank_id(&g)));
            }
        }
    }
}
