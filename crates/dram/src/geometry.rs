//! DRAM organization: channels, ranks, banks, rows, columns.

/// Cache-line / DRAM burst granularity in bytes (64-bit bus × burst of 8).
pub const LINE_BYTES: u64 = 64;

/// Physical organization of one DRAM channel.
///
/// The defaults follow the paper's evaluation configuration (Table 5):
/// a single channel of DDR3 x8 devices, eight banks per rank, 8 KB rows
/// at rank level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Ranks on the channel.
    pub ranks: u32,
    /// Banks per rank (8 for DDR3).
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Column (cache-line) slots per row: `row_bytes / 64`.
    pub lines_per_row: u32,
    /// DRAM devices (chips) ganged per rank (8 × x8 = 64-bit bus).
    pub devices_per_rank: u32,
}

impl Default for DramGeometry {
    /// A 1 GB single-rank module (Table 5 uses DDR3-1600 x8).
    fn default() -> Self {
        DramGeometry::module_mib(1024)
    }
}

impl DramGeometry {
    /// Row size at rank level in bytes (8 KB: 1 KB per x8 device × 8
    /// devices).
    pub const ROW_BYTES: u64 = 8192;

    /// Builds the geometry of a single-rank module of `capacity_mib`
    /// mebibytes, as used in the paper's Figure 7 sweep (64 MB – 64 GB).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into 8 banks of 8 KB rows.
    #[must_use]
    pub fn module_mib(capacity_mib: u64) -> Self {
        let bytes = capacity_mib * 1024 * 1024;
        let banks = 8u64;
        let row_bytes = Self::ROW_BYTES;
        assert!(
            bytes.is_multiple_of(banks * row_bytes),
            "capacity {capacity_mib} MiB is not divisible into {banks} banks of {row_bytes} B rows"
        );
        let rows_per_bank = bytes / (banks * row_bytes);
        assert!(
            rows_per_bank >= 1,
            "capacity {capacity_mib} MiB is not divisible into at least one row per bank"
        );
        assert!(rows_per_bank <= u64::from(u32::MAX), "module too large");
        DramGeometry {
            ranks: 1,
            banks_per_rank: banks as u32,
            rows_per_bank: rows_per_bank as u32,
            lines_per_row: (row_bytes / LINE_BYTES) as u32,
            devices_per_rank: 8,
        }
    }

    /// Total module capacity in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.ranks)
            * u64::from(self.banks_per_rank)
            * u64::from(self.rows_per_bank)
            * Self::ROW_BYTES
    }

    /// Total number of rows across all ranks and banks.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.banks_per_rank) * u64::from(self.rows_per_bank)
    }

    /// Total banks across all ranks.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Total 64 B lines in the module.
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.total_bytes() / LINE_BYTES
    }
}

/// A divisor fixed at construction, such as a geometry dimension or a
/// shard count, with its power-of-two case precomputed: there a quotient
/// is a shift and a remainder a mask, so the per-request index
/// arithmetic of the mapper, the controller and the pool routes through
/// no integer division. Any other divisor (a 96 MiB module's row count,
/// 3 shards) divides as before. A `u64` divides by it with `/` and `%`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Divisor {
    divisor: u64,
    /// `log2(divisor)` when it is a power of two, else `u32::MAX`.
    shift: u32,
}

impl Divisor {
    /// Precomputes `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is 0.
    #[must_use]
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "a divisor must be positive");
        let shift = if divisor.is_power_of_two() {
            divisor.trailing_zeros()
        } else {
            u32::MAX
        };
        Divisor { divisor, shift }
    }

    /// `(n / divisor, n % divisor)`.
    #[inline]
    #[must_use]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        if self.shift == u32::MAX {
            (n / self.divisor, n % self.divisor)
        } else {
            (n >> self.shift, n & (self.divisor - 1))
        }
    }
}

impl std::ops::Div<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn div(self, divisor: Divisor) -> u64 {
        divisor.div_rem(self).0
    }
}

impl std::ops::Rem<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, divisor: Divisor) -> u64 {
        divisor.div_rem(self).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_presets_have_expected_capacity() {
        for (mib, rows_per_bank) in [
            (64, 1024),
            (256, 4096),
            (1024, 16384),
            (4096, 65536),
            (8192, 131072),
            (16384, 262144),
            (65536, 1_048_576),
        ] {
            let g = DramGeometry::module_mib(mib);
            assert_eq!(g.total_bytes(), mib * 1024 * 1024, "capacity {mib} MiB");
            assert_eq!(g.rows_per_bank, rows_per_bank, "capacity {mib} MiB");
        }
    }

    #[test]
    fn row_and_line_accounting_are_consistent() {
        let g = DramGeometry::module_mib(64);
        assert_eq!(g.total_rows() * DramGeometry::ROW_BYTES, g.total_bytes());
        assert_eq!(g.total_lines() * LINE_BYTES, g.total_bytes());
        assert_eq!(
            u64::from(g.lines_per_row) * LINE_BYTES,
            DramGeometry::ROW_BYTES
        );
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn odd_capacity_is_rejected() {
        // 3 KB is far below one bank of rows.
        let _ = DramGeometry {
            ..DramGeometry::module_mib(0)
        };
    }

    #[test]
    fn divisors_agree_with_division() {
        for d in [1u64, 2, 3, 8, 12, 96, 1 << 20, (1 << 20) + 1, u64::MAX] {
            let div = Divisor::new(d);
            for n in [0u64, 1, 7, 8, 95, 96, 12_345_678, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
                assert_eq!((n / div, n % div), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divisors_are_rejected() {
        let _ = Divisor::new(0);
    }

    #[test]
    fn default_is_one_gib() {
        assert_eq!(DramGeometry::default().total_bytes(), 1024 * 1024 * 1024);
    }
}
