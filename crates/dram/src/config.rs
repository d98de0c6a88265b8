//! DRAM system configuration: topology, timing, and energy parameters.
//!
//! Defaults reproduce the paper's Table 2 (DDR5-4800, ×8 devices, 1 DIMM per
//! channel, 2 ranks per DIMM, 8 bank-groups per rank, 4 banks per bank-group,
//! 256 subarrays per bank) and its timing/energy constants.

/// Clock-cycle count (memory-controller cycles at the DRAM core frequency).
pub type Cycle = u64;

/// Topology of one memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Independent channels (each with its own controller).
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Subarrays per bank (paper: 256).
    pub subarrays_per_bank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Bytes per row (per rank; all chips of a rank operate in lock-step).
    pub row_bytes: u32,
    /// Bytes transferred per read burst (DDR5 BL16 on a 32-bit sub-channel
    /// pair = 64 B, the paper's §2.2).
    pub burst_bytes: u32,
}

impl Topology {
    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.banks_per_rank()
    }

    /// Rows per subarray.
    pub fn rows_per_subarray(&self) -> u32 {
        self.rows_per_bank / self.subarrays_per_bank
    }

    /// Bank capacity in bytes.
    pub fn bank_bytes(&self) -> u64 {
        u64::from(self.rows_per_bank) * u64::from(self.row_bytes)
    }

    /// Read bursts needed for `bytes` contiguous bytes.
    pub fn bursts_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(u64::from(self.burst_bytes))
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or `rows_per_bank` is not divisible by
    /// `subarrays_per_bank`.
    pub fn validate(&self) {
        assert!(self.channels > 0 && self.ranks > 0, "empty topology");
        assert!(self.bank_groups > 0 && self.banks_per_group > 0);
        assert!(self.subarrays_per_bank > 0 && self.rows_per_bank > 0);
        assert!(self.row_bytes > 0 && self.burst_bytes > 0);
        assert_eq!(
            self.rows_per_bank % self.subarrays_per_bank,
            0,
            "rows per bank must be a multiple of subarrays per bank"
        );
        assert!(
            self.row_bytes.is_multiple_of(self.burst_bytes),
            "row must hold whole bursts"
        );
    }
}

/// DRAM timing constraints in controller cycles (paper Table 2 values for
/// DDR5-4800; `t_ra` is the subarray-select constraint ReCross introduces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// ACT → RD, same bank (RAS-to-CAS delay).
    pub t_rcd: Cycle,
    /// RD → first data (CAS latency).
    pub t_cl: Cycle,
    /// PRE → ACT, same bank (row precharge).
    pub t_rp: Cycle,
    /// ACT → PRE, same bank (row active time).
    pub t_ras: Cycle,
    /// ACT → ACT, same bank (row cycle = tRAS + tRP).
    pub t_rc: Cycle,
    /// Burst length on the data bus, in cycles.
    pub t_bl: Cycle,
    /// RD → RD, different bank group, same rank.
    pub t_ccd_s: Cycle,
    /// RD → RD, same bank group.
    pub t_ccd_l: Cycle,
    /// Four-activate window per rank.
    pub t_faw: Cycle,
    /// ACT → ACT, different bank group, same rank.
    pub t_rrd_s: Cycle,
    /// ACT → ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// RD → PRE, same bank (read-to-precharge).
    pub t_rtp: Cycle,
    /// RD → subarray-select switch (ReCross SALP constraint, §4.1/Fig. 6).
    pub t_ra: Cycle,
    /// WR → first data (CAS write latency).
    pub t_cwl: Cycle,
    /// Write recovery: last write data → PRE, same bank.
    pub t_wr: Cycle,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: Cycle,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: Cycle,
    /// Average refresh interval per rank (REF cadence). 0 disables refresh.
    pub t_refi: Cycle,
    /// Refresh cycle time: the rank is unavailable for this long per REF.
    pub t_rfc: Cycle,
}

impl TimingParams {
    /// Table 2 values (DDR5-4800).
    pub fn ddr5_4800() -> Self {
        Self {
            t_rcd: 40,
            t_cl: 40,
            t_rp: 40,
            t_ras: 76,
            t_rc: 116,
            t_bl: 8,
            t_ccd_s: 8,
            t_ccd_l: 12,
            t_faw: 32,
            t_rrd_s: 8,
            t_rrd_l: 12,
            t_rtp: 12,
            t_ra: 8,
            t_cwl: 38,
            t_wr: 72,
            t_wtr_l: 24,
            t_wtr_s: 8,
            // DDR5: tREFI = 3.9 us, tRFC ≈ 295 ns at 2400 MHz.
            t_refi: 9_360,
            t_rfc: 708,
        }
    }

    /// Validates basic relations between the constraints.
    ///
    /// # Panics
    ///
    /// Panics if `t_rc < t_ras + t_rp` or any constraint is zero where a
    /// positive value is required.
    pub fn validate(&self) {
        assert!(self.t_rc >= self.t_ras + self.t_rp, "tRC >= tRAS + tRP");
        assert!(self.t_bl > 0 && self.t_ccd_s >= self.t_bl);
        assert!(self.t_ccd_l >= self.t_ccd_s, "tCCD_L >= tCCD_S");
        assert!(self.t_rrd_l >= self.t_rrd_s, "tRRD_L >= tRRD_S");
        assert!(
            self.t_refi == 0 || self.t_refi > self.t_rfc,
            "tREFI must exceed tRFC (or be 0 to disable refresh)"
        );
    }
}

/// Energy constants (paper Table 2 "Energy and Latency Parameters").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per row activation, in picojoules (paper: 2 nJ).
    pub act_pj: f64,
    /// DRAM read/write energy per bit (paper: 4.2 pJ/bit).
    pub rd_wr_pj_per_bit: f64,
    /// Off-chip I/O energy per bit (paper: 4 pJ/bit).
    pub io_pj_per_bit: f64,
    /// FP32 adder energy per op (paper: 0.9 pJ/op).
    pub fp32_add_pj: f64,
    /// FP32 multiplier energy per op (paper: 2.4 pJ/op).
    pub fp32_mul_pj: f64,
    /// Energy per all-bank refresh (folded into the activation bucket of
    /// the Figure 15 breakdown).
    pub ref_pj: f64,
    /// Background (static) power per rank in milliwatts; contributes the
    /// execution-time-dependent term of Figure 15.
    pub static_mw_per_rank: f64,
}

impl EnergyParams {
    /// Table 2 values.
    pub fn paper_defaults() -> Self {
        Self {
            act_pj: 2_000.0,
            rd_wr_pj_per_bit: 4.2,
            io_pj_per_bit: 4.0,
            fp32_add_pj: 0.9,
            fp32_mul_pj: 2.4,
            ref_pj: 14_000.0,
            static_mw_per_rank: 75.0,
        }
    }
}

/// Complete DRAM system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub topology: Topology,
    /// Timing constraints.
    pub timing: TimingParams,
    /// Energy constants.
    pub energy: EnergyParams,
    /// Core clock frequency in MHz (DDR5-4800 I/O clock: 2400 MHz).
    pub clock_mhz: f64,
    /// Command/address pins usable for NMP-instruction transfer per cycle
    /// (DDR5: 14). See §4.2.
    pub ca_bits_per_cycle: u32,
    /// Total pins in two-stage NMP-instruction transfer mode (14 C/A +
    /// 80 DQ = 94). See §4.2.
    pub two_stage_bits_per_cycle: u32,
}

impl DramConfig {
    /// The paper's Table 2 system: DDR5-4800, 1 DIMM/channel, 2 ranks,
    /// 8 bank-groups × 4 banks, 256 subarrays per bank.
    pub fn ddr5_4800() -> Self {
        let topology = Topology {
            channels: 1,
            ranks: 2,
            bank_groups: 8,
            banks_per_group: 4,
            subarrays_per_bank: 256,
            rows_per_bank: 65_536,
            row_bytes: 8_192,
            burst_bytes: 64,
        };
        Self {
            topology,
            timing: TimingParams::ddr5_4800(),
            energy: EnergyParams::paper_defaults(),
            clock_mhz: 2_400.0,
            ca_bits_per_cycle: 14,
            two_stage_bits_per_cycle: 94,
        }
    }

    /// A DDR4-3200 system for sensitivity studies: half the bank groups of
    /// DDR5 (§2.2: "DDR5 doubles the number of bank-groups per rank"),
    /// smaller per-chip capacity, and DDR4 timing at a 1600 MHz command
    /// clock.
    pub fn ddr4_3200() -> Self {
        let topology = Topology {
            channels: 1,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            subarrays_per_bank: 128,
            rows_per_bank: 65_536,
            row_bytes: 8_192,
            burst_bytes: 64,
        };
        let timing = TimingParams {
            t_rcd: 22,
            t_cl: 22,
            t_rp: 22,
            t_ras: 52,
            t_rc: 74,
            t_bl: 4, // BL8 at DDR
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_faw: 34,
            t_rrd_s: 6,
            t_rrd_l: 8,
            t_rtp: 12,
            t_ra: 6,
            t_cwl: 18,
            t_wr: 24,
            t_wtr_l: 12,
            t_wtr_s: 4,
            // DDR4: tREFI = 7.8 us, tRFC ≈ 350 ns at 1600 MHz.
            t_refi: 12_480,
            t_rfc: 560,
        };
        Self {
            topology,
            timing,
            energy: EnergyParams::paper_defaults(),
            clock_mhz: 1_600.0,
            ca_bits_per_cycle: 24, // DDR4 C/A width
            two_stage_bits_per_cycle: 88,
        }
    }

    /// Same system with a different rank count (the Fig. 4/5/11 sweeps).
    pub fn with_ranks(mut self, ranks: u32) -> Self {
        assert!(ranks > 0, "need at least one rank");
        self.topology.ranks = ranks;
        self
    }

    /// Converts cycles to nanoseconds at the configured clock.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * 1_000.0 / self.clock_mhz
    }

    /// Converts a nanosecond duration to controller cycles (rounded up, so
    /// a positive duration never collapses to zero cycles).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or non-finite.
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be >= 0, finite");
        (ns * self.clock_mhz / 1_000.0).ceil() as Cycle
    }

    /// Controller clock rate in cycles per second (wall-time conversions
    /// for the serving simulator).
    pub fn cycles_per_sec(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Validates the whole configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent topology or timing (see [`Topology::validate`]
    /// and [`TimingParams::validate`]).
    pub fn validate(&self) {
        self.topology.validate();
        self.timing.validate();
        assert!(self.clock_mhz > 0.0);
        assert!(self.ca_bits_per_cycle > 0);
        assert!(self.two_stage_bits_per_cycle >= self.ca_bits_per_cycle);
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr5_4800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        DramConfig::default().validate();
    }

    #[test]
    fn ddr4_preset_is_valid_and_smaller() {
        let d4 = DramConfig::ddr4_3200();
        d4.validate();
        let d5 = DramConfig::ddr5_4800();
        assert_eq!(d4.topology.bank_groups * 2, d5.topology.bank_groups);
    }

    #[test]
    fn table2_timing_relations() {
        let t = TimingParams::ddr5_4800();
        t.validate();
        assert_eq!(t.t_rc, t.t_ras + t.t_rp);
        assert_eq!(t.t_rc, 116);
    }

    #[test]
    fn topology_capacity_math() {
        let topo = DramConfig::ddr5_4800().topology;
        assert_eq!(topo.banks_per_rank(), 32);
        assert_eq!(topo.rows_per_subarray(), 256);
        // 64 Ki rows × 8 KiB = 512 MiB per bank.
        assert_eq!(topo.bank_bytes(), 512 * (1u64 << 20));
    }

    #[test]
    fn bursts_round_up() {
        let topo = DramConfig::ddr5_4800().topology;
        assert_eq!(topo.bursts_for(64), 1);
        assert_eq!(topo.bursts_for(65), 2);
        assert_eq!(topo.bursts_for(256), 4);
    }

    #[test]
    fn cycles_to_ns_at_2400mhz() {
        let c = DramConfig::ddr5_4800();
        assert!((c.cycles_to_ns(2400) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ns_to_cycles_roundtrips_and_rounds_up() {
        let c = DramConfig::ddr5_4800();
        assert_eq!(c.ns_to_cycles(1000.0), 2400);
        assert_eq!(c.ns_to_cycles(c.cycles_to_ns(12_345)), 12_345);
        // A sub-cycle duration still costs one cycle.
        assert_eq!(c.ns_to_cycles(0.1), 1);
        assert_eq!(c.ns_to_cycles(0.0), 0);
        assert!((c.cycles_per_sec() - 2.4e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_ns_rejected() {
        DramConfig::ddr5_4800().ns_to_cycles(-1.0);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zero_ranks_rejected() {
        let _ = DramConfig::ddr5_4800().with_ranks(0);
    }

    #[test]
    #[should_panic(expected = "multiple of subarrays")]
    fn bad_subarray_split_rejected() {
        let mut c = DramConfig::ddr5_4800();
        c.topology.subarrays_per_bank = 255;
        c.validate();
    }
}
