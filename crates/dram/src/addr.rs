//! Physical addresses.
//!
//! A [`PhysAddr`] names one burst-aligned location by its position in the
//! DRAM hierarchy. The controller takes addresses already decomposed:
//! accelerator models build them from their placement logic (the
//! contiguous row-slot mapping lives in `recross_nmp::layout`).

use crate::config::Topology;

/// A decomposed physical DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank group within the rank.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Byte offset within the row (burst-aligned for reads).
    pub col_byte: u32,
}

impl PhysAddr {
    /// Subarray containing this row.
    pub fn subarray(&self, topo: &Topology) -> u32 {
        self.row / topo.rows_per_subarray()
    }

    /// Flat bank id within the channel: `rank × banks/rank + bg × banks/bg
    /// + bank`.
    pub fn flat_bank(&self, topo: &Topology) -> u32 {
        (self.rank * topo.bank_groups + self.bank_group) * topo.banks_per_group + self.bank
    }

    /// Flat bank-group id within the channel.
    pub fn flat_bank_group(&self, topo: &Topology) -> u32 {
        self.rank * topo.bank_groups + self.bank_group
    }

    /// Checks all fields are inside the topology.
    pub fn is_valid(&self, topo: &Topology) -> bool {
        self.channel < topo.channels
            && self.rank < topo.ranks
            && self.bank_group < topo.bank_groups
            && self.bank < topo.banks_per_group
            && self.row < topo.rows_per_bank
            && self.col_byte < topo.row_bytes
    }
}

impl core::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ch{}/r{}/bg{}/b{}/row{}/col{}",
            self.channel, self.rank, self.bank_group, self.bank, self.row, self.col_byte
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn topo() -> Topology {
        DramConfig::ddr5_4800().topology
    }

    #[test]
    fn subarray_of_row() {
        let t = topo();
        let p = PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 300,
            col_byte: 0,
        };
        // 256 rows per subarray → row 300 is subarray 1.
        assert_eq!(p.subarray(&t), 1);
    }

    #[test]
    fn flat_ids_are_dense() {
        let t = topo();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..t.ranks {
            for bg in 0..t.bank_groups {
                for bank in 0..t.banks_per_group {
                    let p = PhysAddr {
                        channel: 0,
                        rank,
                        bank_group: bg,
                        bank,
                        row: 0,
                        col_byte: 0,
                    };
                    assert!(seen.insert(p.flat_bank(&t)));
                    assert!(p.flat_bank(&t) < t.banks_per_channel());
                }
            }
        }
        assert_eq!(seen.len(), t.banks_per_channel() as usize);
    }
}
