//! Post-hoc bottleneck attribution over a recorded command trace.
//!
//! Folds an [`IssuedCommand`] stream into *where the cycles went*: C/A-bus
//! occupancy, data movement split by the region it stops in
//! ([`DataScope`]), row-activation (tRCD) and precharge (tRP) overhead,
//! row-buffer conflict penalties, and per-region PE busy time. This is the
//! machinery behind the `ObsReport` bottleneck section — the Fig. 11–14
//! style analyses (C/A saturation for short vectors, serial bank access,
//! tRCD/tRP overlap under SALP) computed from the same trace the Perfetto
//! exporter draws, so the numbers and the picture cannot disagree.
//!
//! Everything is integer cycles over a caller-chosen analysis window and
//! therefore byte-deterministic in JSON form.

use recross_obs::{fmt_f64, json_string};

use crate::command::{CommandKind, DataScope, IssuedCommand};
use crate::config::{Cycle, DramConfig, TimingParams, Topology};

/// Per-region PE (or DQ) busy cycles: one slot per rank, per flat bank
/// group, and per flat bank. A region is *busy* for the burst duration of
/// every read whose data stops there; the rank slot also absorbs
/// host-bound reads (rank DQ and host path share the pins).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeBusy {
    /// Busy cycles per rank (rank-level PEs + host-bound traffic).
    pub rank: Vec<Cycle>,
    /// Busy cycles per flat bank group.
    pub bank_group: Vec<Cycle>,
    /// Busy cycles per flat bank.
    pub bank: Vec<Cycle>,
}

/// Cycle attribution of one channel's command stream over an analysis
/// window of `span` cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommandAttribution {
    /// Analysis window in cycles (≥ the last command's end).
    pub span: Cycle,
    /// Total commands attributed.
    pub commands: u64,
    /// RD commands.
    pub reads: u64,
    /// WR commands.
    pub writes: u64,
    /// ACT + ACT_SA commands.
    pub activates: u64,
    /// PRE commands.
    pub precharges: u64,
    /// REF commands.
    pub refreshes: u64,
    /// C/A-bus busy cycles: one command slot per issued command (the
    /// deliberate simplification — instruction-stream occupancy from NMP
    /// inst transfer is modeled upstream in the engines).
    pub ca_busy: Cycle,
    /// Data-bus cycles for bursts that stop at a bank PE.
    pub data_bank: Cycle,
    /// Data-bus cycles for bursts that stop at a bank-group PE.
    pub data_bank_group: Cycle,
    /// Data-bus cycles on the rank DQ (rank PEs and host-bound reads).
    pub data_rank: Cycle,
    /// Cycles spent in row activation (tRCD per ACT/ACT_SA).
    pub trcd: Cycle,
    /// Cycles spent precharging (tRP per PRE).
    pub trp: Cycle,
    /// Row-buffer conflicts: re-activations of a bank with a different
    /// row than the previous activation.
    pub bank_conflicts: u64,
    /// Conflict penalty cycles: `(tRP + tRCD)` per conflict — the
    /// close-then-reopen a conflicting access pays over a row hit.
    pub bank_conflict_cycles: Cycle,
    /// Per-region PE busy time.
    pub pe: PeBusy,
}

/// Incremental attribution: the same linear fold [`from_commands`]
/// performs, exposed batch-by-batch so a serving run can attribute its
/// command stream *as it happens* instead of retaining every command
/// until the end. State is fixed-size (the accumulator plus one
/// last-opened-row slot per bank), so long streamed runs stay bounded.
///
/// Equivalence: folding batches `b₀, b₁, …` (each with its dispatch-cycle
/// offset) and taking [`snapshot`] produces *exactly* the
/// [`CommandAttribution`] that [`from_commands`] computes over the
/// concatenated, offset-shifted trace — the fold carries no cross-command
/// state other than the accumulator and per-bank open rows.
///
/// [`from_commands`]: CommandAttribution::from_commands
/// [`snapshot`]: AttributionBuilder::snapshot
#[derive(Debug, Clone)]
pub struct AttributionBuilder {
    topo: Topology,
    t: TimingParams,
    acc: CommandAttribution,
    last_row: Vec<Option<u32>>,
}

impl AttributionBuilder {
    /// An empty builder for one channel of `cfg`.
    pub fn new(cfg: &DramConfig) -> Self {
        let topo = cfg.topology;
        Self {
            topo,
            t: cfg.timing,
            acc: CommandAttribution {
                pe: PeBusy {
                    rank: vec![0; topo.ranks as usize],
                    bank_group: vec![0; (topo.ranks * topo.bank_groups) as usize],
                    bank: vec![0; topo.banks_per_channel() as usize],
                },
                ..Default::default()
            },
            last_row: vec![None; topo.banks_per_channel() as usize],
        }
    }

    /// Folds one batch of commands, shifting each command's issue cycle
    /// by `offset` (the batch's dispatch cycle) when widening the
    /// analysis window — exactly what attributing the pre-shifted
    /// concatenated trace would do.
    pub fn fold(&mut self, trace: &[IssuedCommand], offset: Cycle) {
        let topo = self.topo;
        let t = self.t;
        let a = &mut self.acc;
        for ic in trace {
            let addr = ic.command.addr;
            let flat = addr.flat_bank(&topo) as usize;
            a.commands += 1;
            a.ca_busy += 1;
            a.span = a
                .span
                .max(offset + ic.cycle + crate::traceviz::display_duration(ic.command.kind, &t));
            match ic.command.kind {
                CommandKind::Act | CommandKind::ActSa => {
                    a.activates += 1;
                    a.trcd += t.t_rcd;
                    if let Some(prev) = self.last_row[flat] {
                        if prev != addr.row {
                            a.bank_conflicts += 1;
                            a.bank_conflict_cycles += t.t_rp + t.t_rcd;
                        }
                    }
                    self.last_row[flat] = Some(addr.row);
                }
                CommandKind::Pre => {
                    a.precharges += 1;
                    a.trp += t.t_rp;
                }
                CommandKind::Rd | CommandKind::Wr => {
                    if ic.command.kind == CommandKind::Rd {
                        a.reads += 1;
                    } else {
                        a.writes += 1;
                    }
                    match ic.command.data_scope {
                        DataScope::Bank => {
                            a.data_bank += t.t_bl;
                            a.pe.bank[flat] += t.t_bl;
                        }
                        DataScope::BankGroup => {
                            a.data_bank_group += t.t_bl;
                            a.pe.bank_group[addr.flat_bank_group(&topo) as usize] += t.t_bl;
                        }
                        DataScope::Rank => {
                            a.data_rank += t.t_bl;
                            a.pe.rank[addr.rank as usize] += t.t_bl;
                        }
                    }
                }
                CommandKind::SelSa => {}
                CommandKind::Ref => a.refreshes += 1,
            }
        }
    }

    /// Commands folded so far.
    pub fn commands(&self) -> u64 {
        self.acc.commands
    }

    /// The attribution over a window of `span` cycles (widened to cover
    /// the last folded command, so fractions never exceed 1). The builder
    /// keeps accumulating afterwards.
    pub fn snapshot(&self, span: Cycle) -> CommandAttribution {
        let mut a = self.acc.clone();
        a.span = span.max(self.acc.span);
        a
    }
}

impl CommandAttribution {
    /// Attributes `trace` (cycle-sorted, as [`crate::Controller::trace`]
    /// returns) over a window of `span` cycles; the window is widened to
    /// cover the last command if `span` is too small, so fractions never
    /// exceed 1. One-shot form of [`AttributionBuilder`].
    pub fn from_commands(trace: &[IssuedCommand], cfg: &DramConfig, span: Cycle) -> Self {
        let mut b = AttributionBuilder::new(cfg);
        b.fold(trace, 0);
        b.snapshot(span)
    }

    /// `cycles / span` as a fraction in `[0, 1]`; 0 for an empty window.
    pub fn fraction(&self, cycles: Cycle) -> f64 {
        if self.span == 0 {
            0.0
        } else {
            cycles as f64 / self.span as f64
        }
    }

    /// Deterministic JSON object (see DESIGN.md "Observability").
    pub fn to_json(&self) -> String {
        let frac_vec = |v: &[Cycle]| {
            let items: Vec<String> = v.iter().map(|&c| fmt_f64(self.fraction(c))).collect();
            format!("[{}]", items.join(","))
        };
        let active = self.pe.bank.iter().filter(|&&c| c > 0).count();
        let bank_sum: Cycle = self.pe.bank.iter().sum();
        let bank_mean_active = if active == 0 {
            0.0
        } else {
            self.fraction(bank_sum) / active as f64
        };
        let bank_max = self
            .pe
            .bank
            .iter()
            .map(|&c| self.fraction(c))
            .fold(0.0, f64::max);
        format!(
            concat!(
                "{{\"span_cycles\":{},\"commands\":{},",
                "\"reads\":{},\"writes\":{},\"activates\":{},\"precharges\":{},\"refreshes\":{},",
                "\"ca_bus\":{{\"busy_cycles\":{},\"utilization\":{}}},",
                "\"data_bus\":{{\"bank_cycles\":{},\"bank_group_cycles\":{},\"rank_cycles\":{},\"rank_utilization\":{}}},",
                "\"trcd_cycles\":{},\"trp_cycles\":{},",
                "\"bank_conflicts\":{{\"count\":{},\"cycles\":{},\"fraction\":{}}},",
                "\"pe_utilization\":{{\"rank\":{},\"bank_group\":{},",
                "\"bank\":{{\"active\":{},\"mean_active\":{},\"max\":{}}}}}}}"
            ),
            self.span,
            self.commands,
            self.reads,
            self.writes,
            self.activates,
            self.precharges,
            self.refreshes,
            self.ca_busy,
            fmt_f64(self.fraction(self.ca_busy)),
            self.data_bank,
            self.data_bank_group,
            self.data_rank,
            fmt_f64(self.fraction(self.data_rank)),
            self.trcd,
            self.trp,
            self.bank_conflicts,
            self.bank_conflict_cycles,
            fmt_f64(self.fraction(self.bank_conflict_cycles)),
            frac_vec(&self.pe.rank),
            frac_vec(&self.pe.bank_group),
            active,
            fmt_f64(bank_mean_active),
            fmt_f64(bank_max),
        )
    }
}

/// Human-oriented one-line summary (used by CLI `--obs-summary` output
/// alongside the JSON).
pub fn summarize(name: &str, a: &CommandAttribution) -> String {
    format!(
        "{}: {} cmds over {} cycles — C/A {:.1}%, rank DQ {:.1}%, tRCD {:.1}%, tRP {:.1}%, conflicts {} ({:.1}%)",
        json_string(name),
        a.commands,
        a.span,
        100.0 * a.fraction(a.ca_busy),
        100.0 * a.fraction(a.data_rank),
        100.0 * a.fraction(a.trcd),
        100.0 * a.fraction(a.trp),
        a.bank_conflicts,
        100.0 * a.fraction(a.bank_conflict_cycles),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};

    fn host_read(id: u64, row: u32, col: u32) -> ReadRequest {
        ReadRequest {
            id,
            addr: PhysAddr {
                channel: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row,
                col_byte: col,
            },
            bursts: 1,
            ready_at: 0,
            dest: BusScope::Channel,
            salp: false,
            auto_precharge: false,
            write: false,
        }
    }

    #[test]
    fn attributes_a_conflicting_pair_exactly() {
        let cfg = DramConfig::ddr5_4800();
        let t = cfg.timing;
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        // Same bank, different rows: the second read pays a full
        // close-and-reopen — one row-buffer conflict.
        ctl.enqueue(host_read(1, 10, 0));
        ctl.enqueue(host_read(2, 20, 0));
        ctl.run();
        let trace = ctl.trace().unwrap();
        let a = CommandAttribution::from_commands(&trace, &cfg, ctl.stats().finish);
        assert_eq!(a.reads, 2);
        assert_eq!(a.activates, 2);
        assert_eq!(a.precharges, 1);
        assert_eq!(a.commands, 5);
        assert_eq!(a.ca_busy, 5);
        assert_eq!(a.trcd, 2 * t.t_rcd);
        assert_eq!(a.trp, t.t_rp);
        assert_eq!(a.bank_conflicts, 1);
        assert_eq!(a.bank_conflict_cycles, t.t_rp + t.t_rcd);
        // Host-bound data crosses the rank DQ.
        assert_eq!(a.data_rank, 2 * t.t_bl);
        assert_eq!(a.data_bank, 0);
        assert_eq!(a.pe.rank[0], 2 * t.t_bl);
        assert!(a.fraction(a.ca_busy) > 0.0 && a.fraction(a.ca_busy) <= 1.0);
    }

    #[test]
    fn row_hits_are_not_conflicts() {
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        ctl.enqueue(host_read(1, 10, 0));
        ctl.enqueue(host_read(2, 10, 64));
        ctl.run();
        let a = CommandAttribution::from_commands(&ctl.trace().unwrap(), &cfg, ctl.stats().finish);
        assert_eq!(a.activates, 1);
        assert_eq!(a.bank_conflicts, 0);
    }

    #[test]
    fn window_widens_to_cover_the_trace() {
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        ctl.enqueue(host_read(1, 10, 0));
        ctl.run();
        let a = CommandAttribution::from_commands(&ctl.trace().unwrap(), &cfg, 0);
        assert!(a.span > 0);
        assert!(a.fraction(a.ca_busy) <= 1.0);
    }

    #[test]
    fn incremental_builder_matches_one_shot_attribution() {
        let cfg = DramConfig::ddr5_4800();
        // Three "batches" of traffic with row conflicts crossing batch
        // boundaries (row 10 → 20 → 10 on the same bank), dispatched at
        // increasing offsets.
        let batches: Vec<(Cycle, Vec<IssuedCommand>)> = [(10u32, 0u64), (20, 1000), (10, 2500)]
            .iter()
            .map(|&(row, offset)| {
                let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
                ctl.record_trace();
                ctl.enqueue(host_read(1, row, 0));
                ctl.enqueue(host_read(2, row, 64));
                ctl.run();
                (offset, ctl.trace().unwrap().to_vec())
            })
            .collect();

        let mut builder = AttributionBuilder::new(&cfg);
        let mut concatenated: Vec<IssuedCommand> = Vec::new();
        for (offset, cmds) in &batches {
            builder.fold(cmds, *offset);
            concatenated.extend(cmds.iter().map(|ic| {
                let mut ic = *ic;
                ic.cycle += offset;
                ic
            }));
        }
        for span in [0, 5_000] {
            let incremental = builder.snapshot(span);
            let one_shot = CommandAttribution::from_commands(&concatenated, &cfg, span);
            assert_eq!(incremental, one_shot);
            assert_eq!(incremental.to_json(), one_shot.to_json());
        }
        // Conflicts crossed batch boundaries (10→20 and 20→10), proving
        // the builder carries open-row state across fold calls.
        assert_eq!(builder.snapshot(0).bank_conflicts, 2);
        assert_eq!(builder.commands(), concatenated.len() as u64);
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        ctl.enqueue(host_read(1, 10, 0));
        ctl.enqueue(host_read(2, 20, 0));
        ctl.run();
        let trace = ctl.trace().unwrap();
        let a = CommandAttribution::from_commands(&trace, &cfg, ctl.stats().finish);
        let j1 = a.to_json();
        let j2 = CommandAttribution::from_commands(&trace, &cfg, ctl.stats().finish).to_json();
        assert_eq!(j1, j2);
        assert_eq!(j1.matches('{').count(), j1.matches('}').count());
        assert!(j1.contains("\"bank_conflicts\":{\"count\":1"));
    }
}
