//! The DRAM timing-constraint engine.
//!
//! [`TimingState`] answers, for any candidate command, *the earliest cycle
//! at which it may legally issue* given everything issued so far, and then
//! records the issue. Every controller and NMP engine in the reproduction
//! schedules through this one type, and the independent checker in
//! [`crate::check`] replays emitted traces against a fresh instance, so a
//! scheduling bug cannot hide.
//!
//! Scopes follow the DDR5 rules of the paper's Table 2:
//!
//! * same bank: tRC (ACT→ACT), tRCD (ACT→RD), tRAS (ACT→PRE), tRTP (RD→PRE),
//!   tRP (PRE→ACT);
//! * same bank-group: tRRD_L (ACT→ACT), tCCD_L (RD→RD);
//! * same rank: tRRD_S, tCCD_S, and the tFAW four-activate window;
//! * SALP (§4.1): `ActSa` to a *different subarray* of an open bank is legal
//!   after tRRD_L instead of tRC, local buffers persist, and `SelSa`
//!   switches the global connection no earlier than tRA after the last RD.

use crate::addr::PhysAddr;
use crate::command::{Command, CommandKind, DataScope};
use crate::config::{Cycle, TimingParams, Topology};

/// Marks an empty subarray-local row buffer.
const NO_ROW: u32 = u32::MAX;

/// One subarray's SALP state. A bank holds these densely, indexed by
/// subarray, once anything writes one.
#[derive(Debug, Clone, Copy)]
struct Subarray {
    /// Row held in the local row buffer, or [`NO_ROW`].
    row: u32,
    /// Whether `row`, `ready` or `read_until` is set (listed in
    /// [`BankState::touched`]).
    touched: bool,
    /// Whether the subarray was ever activated (listed in
    /// [`BankState::activated`]).
    activated: bool,
    /// Earliest next activation (local tRC). Survives PRE/REF, which only
    /// raise it, and only once the subarray has been activated.
    next_act: Cycle,
    /// Cycle the local buffer becomes selectable (tRCD after its
    /// activation); 0 once cleared.
    ready: Cycle,
    /// Cycle until which the local buffer's contents are protected by
    /// in-flight reads (a new ActSa may not overwrite earlier); 0 once
    /// cleared.
    read_until: Cycle,
}

impl Default for Subarray {
    fn default() -> Self {
        Self {
            row: NO_ROW,
            touched: false,
            activated: false,
            next_act: 0,
            ready: 0,
            read_until: 0,
        }
    }
}

/// Per-bank dynamic state.
#[derive(Debug, Clone, Default)]
struct BankState {
    /// Open row in the *global* row buffer (non-SALP path), if any.
    open_row: Option<u32>,
    /// Earliest next ACT / RD / PRE (same-bank constraints).
    next_act: Cycle,
    next_rd: Cycle,
    next_pre: Cycle,
    /// SALP: per-subarray state, empty until the bank first writes one.
    subarrays: Vec<Subarray>,
    /// Subarrays with a local row, `ready` or `read_until` set: what a
    /// precharge clears, so clearing costs what was touched, not the bank.
    touched: Vec<u32>,
    /// Subarrays ever activated: the ones whose `next_act` PRE/REF raise.
    activated: Vec<u32>,
    /// Local row buffers holding a row.
    held: u32,
    /// SALP: which subarray is connected to the global row buffer.
    selected_subarray: Option<u32>,
    /// SALP: earliest cycle a new `SelSa` may issue (tRA after last RD).
    next_sel: Cycle,
    /// Earliest next WR (column write cadence).
    next_wr: Cycle,
}

impl BankState {
    /// State of subarray `sa` (the default for one never written).
    fn subarray(&self, sa: u32) -> Subarray {
        self.subarrays.get(sa as usize).copied().unwrap_or_default()
    }

    /// Row held in subarray `sa`'s local buffer.
    fn local_row(&self, sa: u32) -> Option<u32> {
        let row = self.subarray(sa).row;
        (row != NO_ROW).then_some(row)
    }

    /// Subarray `sa` for writing its row, `ready` or `read_until`.
    fn touch(&mut self, sa: u32, subarrays: u32) -> &mut Subarray {
        if self.subarrays.is_empty() {
            self.subarrays = vec![Subarray::default(); subarrays as usize];
        }
        let s = &mut self.subarrays[sa as usize];
        if !s.touched {
            s.touched = true;
            self.touched.push(sa);
        }
        s
    }

    /// Precharge (PRE, or REF's implicit precharge-all): drops the global
    /// row, every local row and selection, clears the touched subarrays'
    /// `ready`/`read_until`, and holds every activated subarray's next
    /// activation to at least `act_floor`.
    fn close(&mut self, act_floor: Cycle) {
        self.open_row = None;
        self.selected_subarray = None;
        self.held = 0;
        for &sa in &self.touched {
            let s = &mut self.subarrays[sa as usize];
            s.row = NO_ROW;
            s.touched = false;
            s.ready = 0;
            s.read_until = 0;
        }
        self.touched.clear();
        for &sa in &self.activated {
            let next = &mut self.subarrays[sa as usize].next_act;
            *next = (*next).max(act_floor);
        }
    }
}

/// Per-bank-group dynamic state.
#[derive(Debug, Clone, Copy, Default)]
struct GroupState {
    next_act: Cycle,
    next_rd: Cycle,
    next_wr: Cycle,
}

/// Per-rank dynamic state.
#[derive(Debug, Clone, Default)]
struct RankState {
    next_act: Cycle,
    next_rd: Cycle,
    next_wr: Cycle,
    /// Timestamps of the most recent activations (tFAW window).
    recent_acts: Vec<Cycle>,
}

/// Reason a command can never issue (as opposed to "not yet").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// RD with no matching open row.
    RowNotOpen,
    /// ACT while another row is open (must PRE first) — non-SALP path.
    RowAlreadyOpen,
    /// PRE of an already-precharged bank is redundant (we reject it to catch
    /// controller bugs).
    NothingToPrecharge,
    /// `SelSa` of a subarray whose local buffer holds no activated row.
    SubarrayNotActivated,
    /// RD targets a subarray that is not the selected one (SALP path).
    SubarrayNotSelected,
    /// Address fields out of topology range.
    BadAddress,
}

impl core::fmt::Display for TimingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            TimingError::RowNotOpen => "read issued with row not open",
            TimingError::RowAlreadyOpen => "activate issued with a row open",
            TimingError::NothingToPrecharge => "precharge of idle bank",
            TimingError::SubarrayNotActivated => "subarray-select of an inactive subarray",
            TimingError::SubarrayNotSelected => "read from an unselected subarray",
            TimingError::BadAddress => "address outside topology",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TimingError {}

/// The constraint engine. See the module docs.
#[derive(Debug, Clone)]
pub struct TimingState {
    topo: Topology,
    t: TimingParams,
    banks: Vec<BankState>,
    groups: Vec<GroupState>,
    ranks: Vec<RankState>,
}

impl TimingState {
    /// Creates a fresh (all-banks-precharged) state for one channel.
    pub fn new(topo: Topology, timing: TimingParams) -> Self {
        topo.validate();
        timing.validate();
        let banks = vec![BankState::default(); topo.banks_per_channel() as usize];
        let groups = vec![GroupState::default(); (topo.ranks * topo.bank_groups) as usize];
        let ranks = vec![RankState::default(); topo.ranks as usize];
        Self {
            topo,
            t: timing,
            banks,
            groups,
            ranks,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.t
    }

    /// Row currently open in a bank's global row buffer.
    pub fn open_row(&self, addr: &PhysAddr) -> Option<u32> {
        self.banks[addr.flat_bank(&self.topo) as usize].open_row
    }

    /// Row held in a subarray's local row buffer (SALP).
    pub fn local_row(&self, addr: &PhysAddr, subarray: u32) -> Option<u32> {
        self.banks[addr.flat_bank(&self.topo) as usize].local_row(subarray)
    }

    /// Subarray currently connected to the global row buffer (SALP).
    pub fn selected_subarray(&self, addr: &PhysAddr) -> Option<u32> {
        self.banks[addr.flat_bank(&self.topo) as usize].selected_subarray
    }

    /// Earliest legal issue cycle for `cmd`, or a [`TimingError`] if the
    /// command is illegal in the current state: the later of its bank
    /// bound (what the command's own bank sets) and its shared bound (what
    /// its bank group and rank set).
    ///
    /// # Errors
    ///
    /// See [`TimingError`].
    pub fn earliest(&self, cmd: &Command) -> Result<Cycle, TimingError> {
        Ok(self.bank_bound(cmd)?.max(self.shared_bound(cmd)))
    }

    /// The part of [`earliest`](Self::earliest) that only `cmd`'s own bank
    /// sets (for REF, the banks of its rank), with the command's legality.
    /// It changes only when a command to that bank, or a refresh of its
    /// rank, commits.
    ///
    /// # Errors
    ///
    /// See [`TimingError`].
    pub(crate) fn bank_bound(&self, cmd: &Command) -> Result<Cycle, TimingError> {
        if !cmd.addr.is_valid(&self.topo) {
            return Err(TimingError::BadAddress);
        }
        let b = &self.banks[cmd.addr.flat_bank(&self.topo) as usize];
        let sa = cmd.addr.subarray(&self.topo);
        match cmd.kind {
            CommandKind::Act => {
                if b.open_row.is_some() {
                    return Err(TimingError::RowAlreadyOpen);
                }
                Ok(b.next_act)
            }
            CommandKind::ActSa => {
                // SALP activation into the local buffer: gated by the
                // subarray's own row cycle and the protection window of
                // reads still draining from its local buffer (plus the
                // shared ACT windows) — not by other subarrays of the bank.
                let s = b.subarray(sa);
                Ok(s.next_act.max(s.read_until))
            }
            CommandKind::Rd => {
                // Non-SALP read requires the matching global open row; SALP
                // read requires local row + selection + the subarray's tRCD.
                if let Some(sel) = b.selected_subarray {
                    if sel != sa {
                        return Err(TimingError::SubarrayNotSelected);
                    }
                    let s = b.subarray(sa);
                    if s.row != cmd.addr.row {
                        return Err(TimingError::RowNotOpen);
                    }
                    Ok(b.next_rd.max(s.ready))
                } else {
                    match b.open_row {
                        Some(row) if row == cmd.addr.row => Ok(b.next_rd),
                        _ => Err(TimingError::RowNotOpen),
                    }
                }
            }
            CommandKind::Pre => {
                if b.open_row.is_none() && b.held == 0 && b.selected_subarray.is_none() {
                    return Err(TimingError::NothingToPrecharge);
                }
                Ok(b.next_pre)
            }
            CommandKind::SelSa => {
                let s = b.subarray(sa);
                if s.row == NO_ROW {
                    return Err(TimingError::SubarrayNotActivated);
                }
                Ok(b.next_sel.max(s.ready))
            }
            CommandKind::Wr => {
                // Writes go through the global row buffer only (B-region
                // SALP banks are read-optimized; updates land cold, §4.5).
                match b.open_row {
                    Some(row) if row == cmd.addr.row => Ok(b.next_wr),
                    _ => Err(TimingError::RowNotOpen),
                }
            }
            CommandKind::Ref => {
                // All-bank refresh: every bank of the rank must be able to
                // precharge (tRAS / tRTP settled) — the controller's
                // implicit precharge-all.
                let topo = self.topo;
                let base = cmd.addr.rank * topo.banks_per_rank();
                let mut ready = 0;
                for i in 0..topo.banks_per_rank() {
                    let bank = &self.banks[(base + i) as usize];
                    if bank.open_row.is_some() || bank.held > 0 {
                        ready = ready.max(bank.next_pre);
                    }
                    ready = ready.max(bank.next_act.saturating_sub(self.t.t_rc));
                }
                Ok(ready)
            }
        }
    }

    /// The part of [`earliest`](Self::earliest) that the bank group and
    /// rank of `cmd` set: the ACT windows (tRRD, tFAW) and the column
    /// cadence (tCCD) of the I/O scopes a read's or write's data crosses (a
    /// bank-PE access shares nothing beyond its own column path). Unlike
    /// the bank bound it moves when other banks of the group or rank
    /// issue. It never falls: every group and rank timer only rises, and
    /// the rank's tRRD_S timer makes its activations commit in cycle
    /// order, so the tFAW term `recent_acts[len-4] + tFAW` only rises too.
    ///
    /// # Panics
    ///
    /// Panics if `cmd`'s address is outside the topology.
    pub(crate) fn shared_bound(&self, cmd: &Command) -> Cycle {
        let g = &self.groups[cmd.addr.flat_bank_group(&self.topo) as usize];
        let r = &self.ranks[cmd.addr.rank as usize];
        let (group_next, rank_next) = match cmd.kind {
            CommandKind::Act | CommandKind::ActSa => {
                return g.next_act.max(self.rank_act_window(cmd.addr.rank as usize));
            }
            CommandKind::Rd => (g.next_rd, r.next_rd),
            CommandKind::Wr => (g.next_wr, r.next_wr),
            CommandKind::Ref => return r.next_act,
            CommandKind::Pre | CommandKind::SelSa => return 0,
        };
        match cmd.data_scope {
            DataScope::Bank => 0,
            DataScope::BankGroup => group_next,
            DataScope::Rank => group_next.max(rank_next),
        }
    }

    /// The bank-group part of an activation's shared bound (tRRD_L):
    /// the earliest cycle an ACT or ACT_SA to flat bank group `group` may
    /// issue as far as that group alone decides.
    pub(crate) fn group_next_act(&self, group: usize) -> Cycle {
        self.groups[group].next_act
    }

    /// The rank part of an activation's shared bound: tRRD_S and the tFAW
    /// window of rank `rank`. An activation's shared bound is the later of
    /// this and [`group_next_act`](Self::group_next_act). It moves when
    /// any bank of the rank activates or the rank refreshes, so callers
    /// read it afresh rather than caching it per bank.
    pub(crate) fn rank_act_window(&self, rank: usize) -> Cycle {
        let r = &self.ranks[rank];
        // tFAW: at most 4 activations per rank per window.
        match r.recent_acts.len() {
            n if n >= 4 => r.next_act.max(r.recent_acts[n - 4] + self.t.t_faw),
            _ => r.next_act,
        }
    }

    /// Records `cmd` as issued at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `cycle` is earlier than
    /// [`TimingState::earliest`] allows — controllers must consult
    /// `earliest` first.
    pub fn commit(&mut self, cmd: &Command, cycle: Cycle) {
        debug_assert!(
            self.earliest(cmd).map(|c| cycle >= c).unwrap_or(false),
            "commit violates timing: {:?} at {cycle}",
            cmd
        );
        let t = self.t;
        let topo = self.topo;
        let sa = cmd.addr.subarray(&topo);
        let bank_idx = cmd.addr.flat_bank(&topo) as usize;
        let group_idx = cmd.addr.flat_bank_group(&topo) as usize;
        let rank_idx = cmd.addr.rank as usize;
        if cmd.kind == CommandKind::Ref {
            // Close every bank of the rank and block it for tRFC.
            let base = (cmd.addr.rank * topo.banks_per_rank()) as usize;
            for bank in &mut self.banks[base..base + topo.banks_per_rank() as usize] {
                bank.close(cycle + t.t_rfc);
                bank.next_act = bank.next_act.max(cycle + t.t_rfc);
                bank.next_rd = bank.next_rd.max(cycle + t.t_rfc);
                bank.next_wr = bank.next_wr.max(cycle + t.t_rfc);
            }
            let rank = &mut self.ranks[rank_idx];
            rank.next_act = rank.next_act.max(cycle + t.t_rfc);
            rank.next_rd = rank.next_rd.max(cycle + t.t_rfc);
            rank.next_wr = rank.next_wr.max(cycle + t.t_rfc);
            for g in 0..topo.bank_groups {
                let gi = (cmd.addr.rank * topo.bank_groups + g) as usize;
                self.groups[gi].next_act = self.groups[gi].next_act.max(cycle + t.t_rfc);
                self.groups[gi].next_rd = self.groups[gi].next_rd.max(cycle + t.t_rfc);
                self.groups[gi].next_wr = self.groups[gi].next_wr.max(cycle + t.t_rfc);
            }
            return;
        }
        let b = &mut self.banks[bank_idx];
        match cmd.kind {
            CommandKind::Act => {
                b.open_row = Some(cmd.addr.row);
                b.next_rd = b.next_rd.max(cycle + t.t_rcd);
                b.next_wr = b.next_wr.max(cycle + t.t_rcd);
                b.next_pre = b.next_pre.max(cycle + t.t_ras);
                b.next_act = b.next_act.max(cycle + t.t_rc);
                Self::note_act(
                    &mut self.groups[group_idx],
                    &mut self.ranks[rank_idx],
                    cycle,
                    &t,
                );
            }
            CommandKind::ActSa => {
                let s = b.touch(sa, topo.subarrays_per_bank);
                let newly_held = s.row == NO_ROW;
                let first_activation = !s.activated;
                s.row = cmd.addr.row;
                s.activated = true;
                s.next_act = cycle + t.t_rc;
                // Reads of this subarray (and its selection) wait tRCD; the
                // bank-wide read gate is untouched so other subarrays keep
                // streaming — the whole point of SALP.
                s.ready = cycle + t.t_rcd;
                if newly_held {
                    b.held += 1;
                }
                if first_activation {
                    b.activated.push(sa);
                }
                b.next_pre = b.next_pre.max(cycle + t.t_ras);
                Self::note_act(
                    &mut self.groups[group_idx],
                    &mut self.ranks[rank_idx],
                    cycle,
                    &t,
                );
            }
            CommandKind::Rd => {
                // Same-bank column cadence: tCCD_L models the shared
                // bank-group I/O gating; a read into a *bank-level PE*
                // bypasses that I/O and cycles at the core column rate
                // (tCCD_S) — the source of bank-level NMP's internal
                // bandwidth (paper §2.3).
                let bank_gap = if matches!(cmd.data_scope, DataScope::Bank) {
                    t.t_ccd_s
                } else {
                    t.t_ccd_l
                };
                b.next_rd = b.next_rd.max(cycle + bank_gap);
                b.next_pre = b.next_pre.max(cycle + t.t_rtp);
                b.next_sel = b.next_sel.max(cycle + t.t_ra);
                let s = b.touch(sa, topo.subarrays_per_bank);
                s.read_until = s.read_until.max(cycle + bank_gap);
                // Read-to-write turnaround on the same paths.
                b.next_wr = b.next_wr.max(cycle + bank_gap);
                if !matches!(cmd.data_scope, DataScope::Bank) {
                    self.groups[group_idx].next_rd =
                        self.groups[group_idx].next_rd.max(cycle + t.t_ccd_l);
                    self.groups[group_idx].next_wr =
                        self.groups[group_idx].next_wr.max(cycle + t.t_ccd_l);
                }
                if matches!(cmd.data_scope, DataScope::Rank) {
                    self.ranks[rank_idx].next_rd =
                        self.ranks[rank_idx].next_rd.max(cycle + t.t_ccd_s);
                    self.ranks[rank_idx].next_wr =
                        self.ranks[rank_idx].next_wr.max(cycle + t.t_ccd_s);
                }
            }
            CommandKind::Pre => {
                b.close(cycle + t.t_rp);
                b.next_act = b.next_act.max(cycle + t.t_rp);
            }
            CommandKind::SelSa => {
                b.selected_subarray = Some(sa);
                // Selection switch must settle before data moves: model as a
                // read gate of tRA.
                b.next_rd = b.next_rd.max(cycle + t.t_ra);
                b.next_sel = b.next_sel.max(cycle + t.t_ra);
            }
            CommandKind::Wr => {
                let bank_gap = if matches!(cmd.data_scope, DataScope::Bank) {
                    t.t_ccd_s
                } else {
                    t.t_ccd_l
                };
                b.next_wr = b.next_wr.max(cycle + bank_gap);
                // Write data lands tCWL later and must recover (tWR) before
                // precharge; reads wait the write-to-read turnaround.
                b.next_pre = b.next_pre.max(cycle + t.t_cwl + t.t_bl + t.t_wr);
                b.next_rd = b.next_rd.max(cycle + t.t_cwl + t.t_bl + t.t_wtr_l);
                if !matches!(cmd.data_scope, DataScope::Bank) {
                    self.groups[group_idx].next_wr =
                        self.groups[group_idx].next_wr.max(cycle + t.t_ccd_l);
                    self.groups[group_idx].next_rd = self.groups[group_idx]
                        .next_rd
                        .max(cycle + t.t_cwl + t.t_bl + t.t_wtr_l);
                }
                if matches!(cmd.data_scope, DataScope::Rank) {
                    self.ranks[rank_idx].next_wr =
                        self.ranks[rank_idx].next_wr.max(cycle + t.t_ccd_s);
                    self.ranks[rank_idx].next_rd = self.ranks[rank_idx]
                        .next_rd
                        .max(cycle + t.t_cwl + t.t_bl + t.t_wtr_s);
                }
            }
            CommandKind::Ref => unreachable!("handled before the bank borrow"),
        }
    }

    fn note_act(g: &mut GroupState, r: &mut RankState, cycle: Cycle, t: &TimingParams) {
        g.next_act = g.next_act.max(cycle + t.t_rrd_l);
        r.next_act = r.next_act.max(cycle + t.t_rrd_s);
        r.recent_acts.push(cycle);
        if r.recent_acts.len() > 8 {
            r.recent_acts.drain(..4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn state() -> TimingState {
        let c = DramConfig::ddr5_4800();
        TimingState::new(c.topology, c.timing)
    }

    fn addr(rank: u32, bg: u32, bank: u32, row: u32, col: u32) -> PhysAddr {
        PhysAddr {
            channel: 0,
            rank,
            bank_group: bg,
            bank,
            row,
            col_byte: col,
        }
    }

    fn cmd(kind: CommandKind, a: PhysAddr) -> Command {
        Command::new(kind, a)
    }

    #[test]
    fn act_then_rd_waits_trcd() {
        let mut s = state();
        let a = addr(0, 0, 0, 5, 0);
        let act = cmd(CommandKind::Act, a);
        assert_eq!(s.earliest(&act).unwrap(), 0);
        s.commit(&act, 0);
        let rd = cmd(CommandKind::Rd, a);
        assert_eq!(s.earliest(&rd).unwrap(), s.timing().t_rcd);
    }

    #[test]
    fn rd_requires_matching_row() {
        let mut s = state();
        let a = addr(0, 0, 0, 5, 0);
        s.commit(&cmd(CommandKind::Act, a), 0);
        let wrong_row = cmd(CommandKind::Rd, addr(0, 0, 0, 6, 0));
        assert_eq!(s.earliest(&wrong_row), Err(TimingError::RowNotOpen));
    }

    #[test]
    fn act_on_open_bank_rejected() {
        let mut s = state();
        let a = addr(0, 0, 0, 5, 0);
        s.commit(&cmd(CommandKind::Act, a), 0);
        let again = cmd(CommandKind::Act, addr(0, 0, 0, 9, 0));
        assert_eq!(s.earliest(&again), Err(TimingError::RowAlreadyOpen));
    }

    #[test]
    fn row_cycle_enforced_after_pre() {
        let mut s = state();
        let t = *s.timing();
        let a = addr(0, 0, 0, 5, 0);
        s.commit(&cmd(CommandKind::Act, a), 0);
        let pre = cmd(CommandKind::Pre, a);
        let pre_at = s.earliest(&pre).unwrap();
        assert_eq!(pre_at, t.t_ras);
        s.commit(&pre, pre_at);
        let act2 = cmd(CommandKind::Act, addr(0, 0, 0, 6, 0));
        // Next ACT limited by both tRC from ACT and tRP from PRE.
        assert_eq!(s.earliest(&act2).unwrap(), t.t_rc.max(pre_at + t.t_rp));
    }

    #[test]
    fn ccd_long_vs_short() {
        let mut s = state();
        let t = *s.timing();
        let a0 = addr(0, 0, 0, 1, 0);
        let a1 = addr(0, 1, 0, 1, 0); // different bank group
        s.commit(&cmd(CommandKind::Act, a0), 0);
        s.commit(&cmd(CommandKind::Act, a1), t.t_rrd_s);
        let rd0 = cmd(CommandKind::Rd, a0);
        let at0 = s.earliest(&rd0).unwrap();
        s.commit(&rd0, at0);
        // Same bank group read: tCCD_L; cross group: tCCD_S.
        let same_bg = cmd(CommandKind::Rd, addr(0, 0, 0, 1, 64));
        let diff_bg = cmd(CommandKind::Rd, a1);
        assert_eq!(s.earliest(&same_bg).unwrap(), at0 + t.t_ccd_l);
        assert_eq!(s.earliest(&diff_bg).unwrap(), at0 + t.t_ccd_s);
    }

    #[test]
    fn faw_limits_fifth_activation() {
        let mut s = state();
        let t = *s.timing();
        // Five ACTs to distinct banks of one rank.
        let mut issue = Vec::new();
        for i in 0..5u32 {
            let a = addr(0, i % 8, (i / 8) % 4, 0, 0);
            let c = cmd(CommandKind::Act, a);
            let at = s.earliest(&c).unwrap();
            s.commit(&c, at);
            issue.push(at);
        }
        // 5th activation must wait for the window after the 1st.
        assert!(issue[4] >= issue[0] + t.t_faw);
        // ...and the first four were only tRRD apart.
        assert!(issue[3] < issue[0] + t.t_faw);
    }

    #[test]
    fn different_rank_independent_faw() {
        let mut s = state();
        for i in 0..4u32 {
            let c = cmd(CommandKind::Act, addr(0, i % 8, 0, 0, 0));
            let at = s.earliest(&c).unwrap();
            s.commit(&c, at);
        }
        // Rank 1 unaffected.
        let c = cmd(CommandKind::Act, addr(1, 0, 0, 0, 0));
        assert_eq!(s.earliest(&c).unwrap(), 0);
    }

    #[test]
    fn write_requires_open_row_and_recovers() {
        let mut s = state();
        let t = *s.timing();
        let a = addr(0, 0, 0, 5, 0);
        assert_eq!(
            s.earliest(&cmd(CommandKind::Wr, a)),
            Err(TimingError::RowNotOpen)
        );
        s.commit(&cmd(CommandKind::Act, a), 0);
        let wr = cmd(CommandKind::Wr, a);
        let wr_at = s.earliest(&wr).unwrap();
        assert_eq!(wr_at, t.t_rcd);
        s.commit(&wr, wr_at);
        // Precharge waits for write recovery.
        let pre_at = s.earliest(&cmd(CommandKind::Pre, a)).unwrap();
        assert_eq!(pre_at, wr_at + t.t_cwl + t.t_bl + t.t_wr);
        // Read after write waits the turnaround.
        let rd_at = s.earliest(&cmd(CommandKind::Rd, a)).unwrap();
        assert_eq!(rd_at, wr_at + t.t_cwl + t.t_bl + t.t_wtr_l);
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut s = state();
        let t = *s.timing();
        let a = addr(0, 0, 0, 5, 0);
        let refresh = cmd(CommandKind::Ref, a);
        assert_eq!(s.earliest(&refresh).unwrap(), 0);
        s.commit(&refresh, 0);
        let act = cmd(CommandKind::Act, a);
        assert_eq!(s.earliest(&act).unwrap(), t.t_rfc);
        // Other rank unaffected.
        let other = cmd(CommandKind::Act, addr(1, 0, 0, 5, 0));
        assert_eq!(s.earliest(&other).unwrap(), 0);
    }

    #[test]
    fn refresh_waits_for_open_rows() {
        let mut s = state();
        let t = *s.timing();
        let a = addr(0, 0, 0, 5, 0);
        s.commit(&cmd(CommandKind::Act, a), 0);
        let refresh = cmd(CommandKind::Ref, a);
        // The open row pins the refresh behind tRAS (precharge-all).
        assert!(s.earliest(&refresh).unwrap() >= t.t_ras);
        let at = s.earliest(&refresh).unwrap();
        s.commit(&refresh, at);
        assert_eq!(s.open_row(&a), None, "refresh closes rows");
    }

    #[test]
    fn salp_overlapped_activation() {
        let mut s = state();
        let t = *s.timing();
        // Two rows in *different subarrays* of the same bank.
        let a0 = addr(0, 0, 0, 0, 0); // subarray 0
        let a1 = addr(0, 0, 0, 256, 0); // subarray 1
        let act0 = cmd(CommandKind::ActSa, a0);
        s.commit(&act0, 0);
        let act1 = cmd(CommandKind::ActSa, a1);
        // Legal after tRRD_L, far earlier than tRC.
        let at1 = s.earliest(&act1).unwrap();
        assert_eq!(at1, t.t_rrd_l);
        assert!(at1 < t.t_rc);
    }

    #[test]
    fn salp_same_subarray_still_serial() {
        let mut s = state();
        let t = *s.timing();
        let a0 = addr(0, 0, 0, 0, 0);
        let a1 = addr(0, 0, 0, 1, 0); // same subarray, different row
        s.commit(&cmd(CommandKind::ActSa, a0), 0);
        let at = s.earliest(&cmd(CommandKind::ActSa, a1)).unwrap();
        assert_eq!(at, t.t_rc, "same-subarray row cycle unchanged");
    }

    #[test]
    fn salp_read_needs_selection() {
        let mut s = state();
        let t = *s.timing();
        let a0 = addr(0, 0, 0, 0, 0);
        s.commit(&cmd(CommandKind::ActSa, a0), 0);
        // Read before SelSa: the bank has no selected subarray and no global
        // open row -> RowNotOpen.
        assert_eq!(
            s.earliest(&cmd(CommandKind::Rd, a0)),
            Err(TimingError::RowNotOpen)
        );
        let sel = cmd(CommandKind::SelSa, a0);
        let sel_at = s.earliest(&sel).unwrap();
        s.commit(&sel, sel_at);
        let rd_at = s.earliest(&cmd(CommandKind::Rd, a0)).unwrap();
        assert!(rd_at >= sel_at + t.t_ra.min(t.t_rcd));
        s.commit(&cmd(CommandKind::Rd, a0), rd_at);
        // Reading another subarray without re-selecting is illegal.
        let a1 = addr(0, 0, 0, 256, 0);
        s.commit(
            &cmd(CommandKind::ActSa, a1),
            s.earliest(&cmd(CommandKind::ActSa, a1)).unwrap(),
        );
        assert_eq!(
            s.earliest(&cmd(CommandKind::Rd, a1)),
            Err(TimingError::SubarrayNotSelected)
        );
        // Re-selection waits tRA after the last read.
        let sel1 = cmd(CommandKind::SelSa, a1);
        assert!(s.earliest(&sel1).unwrap() >= rd_at + t.t_ra);
    }

    #[test]
    fn salp_select_requires_activation() {
        let s = state();
        let a = addr(0, 0, 0, 0, 0);
        assert_eq!(
            s.earliest(&cmd(CommandKind::SelSa, a)),
            Err(TimingError::SubarrayNotActivated)
        );
    }

    #[test]
    fn pre_clears_salp_state() {
        let mut s = state();
        let a = addr(0, 0, 0, 0, 0);
        s.commit(&cmd(CommandKind::ActSa, a), 0);
        let sel = cmd(CommandKind::SelSa, a);
        let at = s.earliest(&sel).unwrap();
        s.commit(&sel, at);
        let pre = cmd(CommandKind::Pre, a);
        let pre_at = s.earliest(&pre).unwrap();
        s.commit(&pre, pre_at);
        assert_eq!(s.selected_subarray(&a), None);
        assert_eq!(s.local_row(&a, 0), None);
    }

    #[test]
    fn dense_subarray_state_keeps_map_semantics() {
        let mut s = state();
        let t = *s.timing();
        let sa0 = addr(0, 0, 0, 0, 0);
        let sa5 = addr(0, 0, 0, 5 * 256, 0);
        let act_sa = |a| cmd(CommandKind::ActSa, a);
        s.commit(&act_sa(sa0), 0);
        assert_eq!(s.bank_bound(&act_sa(sa0)), Ok(t.t_rc));
        let pre = cmd(CommandKind::Pre, sa0);
        let pre_at = s.earliest(&pre).unwrap();
        s.commit(&pre, pre_at);
        // PRE raises the timer of the activated subarray only: one never
        // activated still reads 0, and the cleared buffer holds nothing.
        assert_eq!(s.bank_bound(&act_sa(sa0)), Ok(t.t_rc.max(pre_at + t.t_rp)));
        assert_eq!(s.bank_bound(&act_sa(sa5)), Ok(0));
        assert_eq!(s.bank_bound(&pre), Err(TimingError::NothingToPrecharge));
        // A read on the global path still guards its subarray's buffer.
        let open = cmd(CommandKind::Act, sa5);
        let open_at = s.earliest(&open).unwrap();
        s.commit(&open, open_at);
        let rd = cmd(CommandKind::Rd, sa5);
        let rd_at = s.earliest(&rd).unwrap();
        s.commit(&rd, rd_at);
        assert_eq!(s.bank_bound(&act_sa(sa5)), Ok(rd_at + t.t_ccd_l));
        let pre_at = s.earliest(&pre).unwrap();
        s.commit(&pre, pre_at);
        assert_eq!(s.bank_bound(&act_sa(sa5)), Ok(0), "PRE clears the guard");
    }

    #[test]
    fn earliest_is_the_later_of_bank_and_shared_bounds() {
        let mut s = state();
        let t = *s.timing();
        let a = addr(0, 0, 0, 5, 0);
        s.commit(&cmd(CommandKind::Act, a), 0);
        let b = addr(0, 0, 1, 5, 0);
        let act_b = cmd(CommandKind::Act, b);
        // Bank 1 is idle; only the group's tRRD_L holds its ACT back.
        assert_eq!(s.bank_bound(&act_b), Ok(0));
        assert_eq!(s.shared_bound(&act_b), t.t_rrd_l);
        assert_eq!(s.earliest(&act_b), Ok(t.t_rrd_l));
        let rd = cmd(CommandKind::Rd, a);
        s.commit(&rd, t.t_rcd);
        // A bank-PE read shares no I/O; a rank-bound one waits tCCD_L.
        let bank_rd = Command {
            data_scope: DataScope::Bank,
            ..cmd(CommandKind::Rd, addr(0, 0, 0, 5, 64))
        };
        assert_eq!(s.shared_bound(&bank_rd), 0);
        assert_eq!(s.shared_bound(&rd), t.t_rcd + t.t_ccd_l);
    }

    #[test]
    fn pre_of_idle_bank_rejected() {
        let s = state();
        assert_eq!(
            s.earliest(&cmd(CommandKind::Pre, addr(0, 0, 0, 0, 0))),
            Err(TimingError::NothingToPrecharge)
        );
    }

    #[test]
    fn bad_address_rejected() {
        let s = state();
        let a = addr(9, 0, 0, 0, 0);
        assert_eq!(
            s.earliest(&cmd(CommandKind::Act, a)),
            Err(TimingError::BadAddress)
        );
    }
}
