//! # recross-dram
//!
//! A from-scratch cycle-level DDR5 DRAM model for the ReCross reproduction
//! (Liu et al., ISCA 2023). The paper's evaluation runs on a modified
//! Ramulator; this crate is the Rust substitute, enforcing the same Table 2
//! timing constraints at command granularity:
//!
//! * [`config`] — topology (ranks / bank-groups / banks / subarrays),
//!   timing (tRCD, tCL, tRP, tRAS, tRC, tBL, tCCD_S/L, tFAW, tRRD, tRTP and
//!   the new tRA) and energy constants;
//! * [`addr`] — decomposed physical addresses;
//! * [`command`] — ACT / RD / PRE plus the SALP extension commands
//!   (`ACT_SA`, `SEL_SA`) of the paper's §4.1;
//! * [`timing`] — the constraint engine every scheduler issues through;
//! * [`controller`] — a per-command read/write controller with pluggable
//!   bus scopes (channel / rank / bank-group / bank — the essence of NMP
//!   levels), scheduling by FR-FCFS (the baselines) or by the locality-aware
//!   policy of §4.1 within a 16-request window per bank;
//! * [`bus`] — data-bus and NMP-instruction-channel occupancy (§4.2);
//! * [`energy`] — event counting → the Figure 15 energy breakdown;
//! * [`check`] — an independent trace replayer used by property tests.
//!
//! # Examples
//!
//! ```
//! use recross_dram::config::DramConfig;
//! use recross_dram::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};
//! use recross_dram::addr::PhysAddr;
//!
//! let cfg = DramConfig::ddr5_4800();
//! let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
//! let addr = PhysAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 7, col_byte: 0 };
//! // a 256-byte (64-dim f32) embedding vector = 4 bursts, host-bound
//! ctl.enqueue(ReadRequest::to_host(1, addr, 4));
//! let done = ctl.run();
//! assert_eq!(done.len(), 1);
//! // cold read: tRCD + 3 same-bank column gaps (tCCD_L) + tCL + final burst
//! assert_eq!(done[0].done_at, 40 + 3 * 12 + 40 + 8);
//! ```

pub mod addr;
pub mod attribution;
pub mod bus;
pub mod check;
pub mod command;
pub mod config;
pub mod controller;
pub mod energy;
pub mod timing;
pub mod traceviz;

pub use addr::PhysAddr;
pub use attribution::{CommandAttribution, PeBusy};
pub use command::{Command, CommandKind, DataScope, IssuedCommand};
pub use config::{Cycle, DramConfig, EnergyParams, TimingParams, Topology};
pub use controller::{
    BusScope, Completion, Controller, ReadRequest, RunStats, SchedulePolicy, SchedulerWork,
};
pub use energy::{EnergyBreakdown, EnergyCounters};
pub use timing::{TimingError, TimingState};
pub use traceviz::{dram_tracks, record_commands, DramTracks};
