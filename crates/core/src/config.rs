//! ReCross configuration: PE counts per level, region split, optimizations.
//!
//! The default configuration is the paper's ReCross-d (§5.4): per rank, one
//! rank-level PE, 4 bank-group-level PEs and 4 subarray-parallel bank-level
//! PEs, giving an R:G:B region ratio of 16:12:4 banks. The exploration
//! configs c1–c5 of Figure 14 are provided as named constructors.

use recross_dram::DramConfig;

/// The three ReCross memory regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Rank-level NMP region (capacity-optimized, cold data).
    R,
    /// Bank-group-level NMP region.
    G,
    /// Subarray-parallel bank-level NMP region (hottest data).
    B,
}

impl Region {
    /// All regions in R, G, B order (also the coldest→hottest order).
    pub const ALL: [Region; 3] = [Region::R, Region::G, Region::B];

    /// Dense index (R=0, G=1, B=2).
    pub fn index(self) -> usize {
        match self {
            Region::R => 0,
            Region::G => 1,
            Region::B => 2,
        }
    }
}

impl core::fmt::Display for Region {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Region::R => "R",
            Region::G => "G",
            Region::B => "B",
        })
    }
}

/// Full ReCross configuration.
#[derive(Debug, Clone)]
pub struct ReCrossConfig {
    /// The DRAM system (Table 2 defaults).
    pub dram: DramConfig,
    /// Config name (for reports).
    pub name: String,
    /// Bank-group-level PEs per rank (each covers one bank group).
    pub bg_pes_per_rank: u32,
    /// Bank-level (SALP) PEs per rank (each covers one bank inside an
    /// NMP-featured bank group).
    pub bank_pes_per_rank: u32,
    /// Subarray-level parallelism in the B-region (§4.1; ablation toggle).
    pub sap: bool,
    /// Bandwidth-aware partitioning (§4.3; ablation toggle — off means the
    /// naive capacity-proportional split).
    pub bwp: bool,
    /// Locality-aware scheduling (§4.1; ablation toggle — off means plain
    /// FR-FCFS).
    pub las: bool,
    /// Two-stage NMP-instruction transfer over C/A + DQ pins (§4.2).
    pub two_stage_inst: bool,
}

impl ReCrossConfig {
    /// ReCross-d, the paper's default: 1/4/4 PEs, R:G:B = 16:12:4.
    pub fn default_d(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-d", 4, 4)
    }

    /// ReCross-c1: 1/4/8 PEs, R:G:B = 16:8:8.
    pub fn c1(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-c1", 4, 8)
    }

    /// ReCross-c2: 1/4/16 PEs, R:G:B = 16:0:16.
    pub fn c2(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-c2", 4, 16)
    }

    /// ReCross-c3: 1/8/8 PEs, R:G:B = 0:24:8.
    pub fn c3(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-c3", 8, 8)
    }

    /// ReCross-c4: 1/8/16 PEs, R:G:B = 0:16:16.
    pub fn c4(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-c4", 8, 16)
    }

    /// ReCross-c5: 1/8/32 PEs, R:G:B = 0:0:32.
    pub fn c5(dram: DramConfig) -> Self {
        Self::named(dram, "ReCross-c5", 8, 32)
    }

    /// All Figure 14 configurations in paper order (d, c1–c5).
    pub fn exploration_set(dram: DramConfig) -> Vec<Self> {
        vec![
            Self::default_d(dram.clone()),
            Self::c1(dram.clone()),
            Self::c2(dram.clone()),
            Self::c3(dram.clone()),
            Self::c4(dram.clone()),
            Self::c5(dram),
        ]
    }

    fn named(dram: DramConfig, name: &str, bg_pes: u32, bank_pes: u32) -> Self {
        let cfg = Self {
            dram,
            name: name.to_owned(),
            bg_pes_per_rank: bg_pes,
            bank_pes_per_rank: bank_pes,
            sap: true,
            bwp: true,
            las: true,
            two_stage_inst: true,
        };
        cfg.validate();
        cfg
    }

    /// Disables subarray parallelism (ablation).
    pub fn without_sap(mut self) -> Self {
        self.sap = false;
        self
    }

    /// Disables bandwidth-aware partitioning (ablation).
    pub fn without_bwp(mut self) -> Self {
        self.bwp = false;
        self
    }

    /// Disables locality-aware scheduling (ablation).
    pub fn without_las(mut self) -> Self {
        self.las = false;
        self
    }

    /// ReCross-Base of Figure 12: no SAP, no BWP, no LAS.
    pub fn base(dram: DramConfig) -> Self {
        let mut c = Self::default_d(dram);
        c.name = "ReCross-Base".to_owned();
        c.sap = false;
        c.bwp = false;
        c.las = false;
        c
    }

    /// Banks per rank in each region, derived from the PE counts:
    /// `B = bank PEs`, `G = bg_pes × banks/group − B`, `R = rest`.
    pub fn region_banks(&self) -> (u32, u32, u32) {
        let t = &self.dram.topology;
        let covered = self.bg_pes_per_rank * t.banks_per_group;
        let b = self.bank_pes_per_rank;
        let g = covered - b;
        let r = t.banks_per_rank() - covered;
        (r, g, b)
    }

    /// Validates PE counts against the topology.
    ///
    /// # Panics
    ///
    /// Panics if PEs exceed the topology or bank PEs exceed the covered
    /// bank groups.
    pub fn validate(&self) {
        self.dram.validate();
        let t = &self.dram.topology;
        assert!(
            self.bg_pes_per_rank >= 1 && self.bg_pes_per_rank <= t.bank_groups,
            "bank-group PEs must be within 1..=bank_groups"
        );
        assert!(
            self.bank_pes_per_rank <= self.bg_pes_per_rank * t.banks_per_group,
            "bank PEs must live inside NMP-featured bank groups"
        );
    }
}

impl Default for ReCrossConfig {
    fn default() -> Self {
        Self::default_d(DramConfig::ddr5_4800())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_d() {
        let c = ReCrossConfig::default();
        assert_eq!(c.region_banks(), (16, 12, 4));
        assert!(c.sap && c.bwp && c.las);
    }

    #[test]
    fn exploration_ratios_match_paper() {
        let d = DramConfig::ddr5_4800();
        let expect = [
            (16, 12, 4),
            (16, 8, 8),
            (16, 0, 16),
            (0, 24, 8),
            (0, 16, 16),
            (0, 0, 32),
        ];
        for (cfg, want) in ReCrossConfig::exploration_set(d).iter().zip(expect) {
            assert_eq!(cfg.region_banks(), want, "{}", cfg.name);
        }
    }

    #[test]
    fn ablation_toggles() {
        let c = ReCrossConfig::base(DramConfig::ddr5_4800());
        assert!(!c.sap && !c.bwp && !c.las);
        let c = ReCrossConfig::default().without_sap();
        assert!(!c.sap && c.bwp);
    }

    #[test]
    #[should_panic(expected = "inside NMP-featured bank groups")]
    fn too_many_bank_pes_rejected() {
        let c = ReCrossConfig {
            bank_pes_per_rank: 17, // 4 BGs × 4 banks = 16 max
            ..ReCrossConfig::default()
        };
        c.validate();
    }

    #[test]
    fn region_display_and_index() {
        assert_eq!(Region::R.to_string(), "R");
        assert_eq!(Region::B.index(), 2);
        assert_eq!(Region::ALL.len(), 3);
    }
}
