//! Contiguous embedding-table memory layout.
//!
//! The baselines store embedding tables contiguously: "the embedding tables
//! are allocated contiguously in the memory and a row index also serves as
//! the memory offset" (paper §3.1). Vectors pack into DRAM rows;
//! consecutive DRAM rows rotate across the channel's banks (the standard
//! bandwidth-friendly interleave, [`slot_to_addr`]), so hot embedding rows
//! land on effectively random banks.

use recross_dram::{PhysAddr, Topology};
use recross_workload::EmbeddingTableSpec;

/// Where one embedding vector lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLocation {
    /// Decomposed DRAM address of the vector's first byte.
    pub addr: PhysAddr,
    /// Bursts needed to read the whole vector.
    pub bursts: u32,
}

/// A contiguous layout of a set of embedding tables over one channel.
#[derive(Debug, Clone)]
pub struct TableLayout {
    topo: Topology,
    /// Per table: starting global DRAM-row slot.
    base_slot: Vec<u64>,
    /// Per table: vectors per DRAM row.
    vectors_per_row: Vec<u32>,
    /// Per table: vector size in bytes.
    vector_bytes: Vec<u32>,
    /// Total DRAM-row slots consumed.
    total_slots: u64,
}

impl TableLayout {
    /// Packs `tables` contiguously starting at global row slot
    /// `start_slot`.
    ///
    /// A *global row slot* `g` denotes DRAM row `g / banks_per_channel` of
    /// flat bank `g % banks_per_channel` — consecutive slots rotate across
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if a vector is larger than a DRAM row or the tables overflow
    /// the channel capacity.
    pub fn pack(topo: Topology, tables: &[EmbeddingTableSpec], start_slot: u64) -> Self {
        let mut base_slot = Vec::with_capacity(tables.len());
        let mut vectors_per_row = Vec::with_capacity(tables.len());
        let mut vector_bytes = Vec::with_capacity(tables.len());
        let mut slot = start_slot;
        for t in tables {
            let vbytes = t.vector_bytes() as u32;
            assert!(
                vbytes <= topo.row_bytes,
                "embedding vector larger than a DRAM row"
            );
            let vpr = topo.row_bytes / vbytes;
            base_slot.push(slot);
            vectors_per_row.push(vpr);
            vector_bytes.push(vbytes);
            slot += t.rows.div_ceil(u64::from(vpr));
        }
        let max_slots = u64::from(topo.rows_per_bank) * u64::from(topo.banks_per_channel());
        assert!(slot <= max_slots, "tables overflow channel capacity");
        Self {
            topo,
            base_slot,
            vectors_per_row,
            vector_bytes,
            total_slots: slot,
        }
    }

    /// Number of global row slots used (including the starting offset).
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Location of `(table, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn locate(&self, table: usize, row: u64) -> VectorLocation {
        let vpr = u64::from(self.vectors_per_row[table]);
        let slot = self.base_slot[table] + row / vpr;
        let col_byte = (row % vpr) as u32 * self.vector_bytes[table];
        let addr = slot_to_addr(&self.topo, slot, col_byte);
        VectorLocation {
            addr,
            bursts: self.vector_bytes[table].div_ceil(self.topo.burst_bytes),
        }
    }
}

/// Converts a global row slot + column offset to a physical address.
///
/// # Panics
///
/// Panics if the slot exceeds the channel's rows.
pub fn slot_to_addr(topo: &Topology, slot: u64, col_byte: u32) -> PhysAddr {
    let banks = u64::from(topo.banks_per_channel());
    let row = slot / banks;
    assert!(row < u64::from(topo.rows_per_bank), "row slot out of range");
    let flat = (slot % banks) as u32;
    let rank = flat / topo.banks_per_rank();
    let within_rank = flat % topo.banks_per_rank();
    PhysAddr {
        channel: 0,
        rank,
        bank_group: within_rank / topo.banks_per_group,
        bank: within_rank % topo.banks_per_group,
        row: row as u32,
        col_byte,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_dram::DramConfig;

    fn topo() -> Topology {
        DramConfig::ddr5_4800().topology
    }

    #[test]
    fn vectors_pack_into_rows() {
        let t = topo();
        let tables = vec![EmbeddingTableSpec::new(100, 64)]; // 256 B vectors
        let l = TableLayout::pack(t, &tables, 0);
        // 32 vectors per 8 KiB row.
        let v0 = l.locate(0, 0);
        let v31 = l.locate(0, 31);
        let v32 = l.locate(0, 32);
        assert_eq!(v0.addr.flat_bank(&t), v31.addr.flat_bank(&t));
        assert_eq!(v0.addr.row, v31.addr.row);
        assert_eq!(v31.addr.col_byte, 31 * 256);
        assert_ne!(
            v0.addr.flat_bank(&t),
            v32.addr.flat_bank(&t),
            "next slot rotates bank"
        );
        assert_eq!(v0.bursts, 4);
    }

    #[test]
    fn tables_are_disjoint() {
        let t = topo();
        let tables = vec![
            EmbeddingTableSpec::new(33, 64),
            EmbeddingTableSpec::new(10, 64),
        ];
        let l = TableLayout::pack(t, &tables, 0);
        // Table 0 occupies ceil(33/32) = 2 slots; table 1 starts at slot 2.
        let a = l.locate(0, 32);
        let b = l.locate(1, 0);
        assert_ne!(
            (a.addr.rank, a.addr.bank_group, a.addr.bank, a.addr.row),
            (b.addr.rank, b.addr.bank_group, b.addr.bank, b.addr.row)
        );
        assert_eq!(l.total_slots(), 3);
    }

    #[test]
    fn locations_are_unique() {
        let t = topo();
        let tables = vec![
            EmbeddingTableSpec::new(200, 32),
            EmbeddingTableSpec::new(77, 16),
        ];
        let l = TableLayout::pack(t, &tables, 5);
        let mut seen = std::collections::HashSet::new();
        for (ti, spec) in tables.iter().enumerate() {
            for row in 0..spec.rows {
                let v = l.locate(ti, row);
                assert!(
                    seen.insert((
                        v.addr.rank,
                        v.addr.bank_group,
                        v.addr.bank,
                        v.addr.row,
                        v.addr.col_byte
                    )),
                    "collision at table {ti} row {row}"
                );
            }
        }
    }

    #[test]
    fn start_slot_offsets_layout() {
        let t = topo();
        let tables = vec![EmbeddingTableSpec::new(1, 64)];
        let l0 = TableLayout::pack(t, &tables, 0);
        let l9 = TableLayout::pack(t, &tables, 9);
        assert_ne!(l0.locate(0, 0).addr, l9.locate(0, 0).addr);
    }

    #[test]
    #[should_panic(expected = "overflow channel capacity")]
    fn capacity_overflow_detected() {
        let t = topo();
        // 64 Ki rows × 64 banks × 32 vectors = 134 M vectors fit; ask more.
        let tables = vec![EmbeddingTableSpec::new(200_000_000, 64)];
        TableLayout::pack(t, &tables, 0);
    }

    #[test]
    fn slot_addr_roundtrip_fields() {
        let t = topo();
        let a = slot_to_addr(&t, 12_345, 128);
        assert!(a.is_valid(&t));
        let flat = a.flat_bank(&t);
        assert_eq!(
            u64::from(flat) + u64::from(t.banks_per_channel()) * u64::from(a.row),
            12_345 % u64::from(t.banks_per_channel())
                + u64::from(t.banks_per_channel()) * (12_345 / u64::from(t.banks_per_channel()))
        );
    }

    #[test]
    #[should_panic(expected = "row slot out of range")]
    fn slot_beyond_channel_panics() {
        let t = topo();
        slot_to_addr(
            &t,
            u64::from(t.banks_per_channel()) * u64::from(t.rows_per_bank),
            0,
        );
    }
}
