//! Command-trace visualization export, built on `recross-obs` tracks.
//!
//! [`dram_tracks`] lays out one obs track per bank (named `rank R / bg G /
//! bank B`) under a caller-supplied parent, plus lazily created per-region
//! PE/DQ occupancy tracks; [`record_commands`] folds a recorded
//! [`IssuedCommand`] trace onto those tracks — one span per command with
//! its occupancy duration, one `burst` span per read on the PE/DQ track of
//! the region its data lands in ([`DataScope`]). A
//! `recross_obs::ChromeStreamSink` attached to the recorder writes the
//! tracks as a `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//! timeline.

use std::fmt::Write;

use recross_obs::{Recorder, TrackId};

use crate::command::{CommandKind, DataScope, IssuedCommand};
use crate::config::{Cycle, DramConfig, TimingParams};

/// Duration a command occupies its bank, for display purposes.
pub(crate) fn display_duration(kind: CommandKind, t: &TimingParams) -> u64 {
    match kind {
        CommandKind::Act | CommandKind::ActSa => t.t_rcd,
        CommandKind::Rd => t.t_bl,
        CommandKind::Wr => t.t_bl,
        CommandKind::Pre => t.t_rp,
        CommandKind::SelSa => t.t_ra,
        CommandKind::Ref => t.t_rfc,
    }
}

/// Obs-track layout for one DRAM channel: eager per-bank command tracks
/// plus lazily created per-region PE/DQ occupancy tracks (only regions
/// that actually receive data get a track).
#[derive(Debug)]
pub struct DramTracks {
    parent: TrackId,
    banks: Vec<TrackId>,
    pe_rank: Vec<Option<TrackId>>,
    pe_group: Vec<Option<TrackId>>,
    pe_bank: Vec<Option<TrackId>>,
    /// The command span name being formatted, reused for every command.
    name: String,
}

/// Creates the per-bank command tracks for one channel under `parent`,
/// named exactly like the original trace exporter (`rank R / bg G /
/// bank B`), in flat-bank order.
pub fn dram_tracks(rec: &mut Recorder, parent: TrackId, cfg: &DramConfig) -> DramTracks {
    let topo = &cfg.topology;
    let mut banks = Vec::with_capacity(topo.banks_per_channel() as usize);
    for rank in 0..topo.ranks {
        for bg in 0..topo.bank_groups {
            for bank in 0..topo.banks_per_group {
                banks.push(rec.track(
                    &format!("rank {rank} / bg {bg} / bank {bank}"),
                    Some(parent),
                ));
            }
        }
    }
    DramTracks {
        parent,
        banks,
        pe_rank: vec![None; topo.ranks as usize],
        pe_group: vec![None; (topo.ranks * topo.bank_groups) as usize],
        pe_bank: vec![None; topo.banks_per_channel() as usize],
        name: String::new(),
    }
}

/// The region's PE/DQ track, created (and only then named) on first use.
fn region_track(
    rec: &mut Recorder,
    parent: TrackId,
    slot: &mut Option<TrackId>,
    name: impl FnOnce() -> String,
) -> TrackId {
    *slot.get_or_insert_with(|| rec.track(&name(), Some(parent)))
}

/// Records `trace` onto the channel's tracks, shifting every command by
/// `offset` cycles (so per-batch traces priced at cycle 0 can be placed at
/// their real dispatch time). Each command becomes a span on its bank's
/// track; each read additionally becomes a `burst` span on the PE/DQ
/// track of the region its data lands in — bank PE, bank-group PE, or the
/// rank DQ (which rank-level PEs and host-bound reads share).
pub fn record_commands(
    rec: &mut Recorder,
    tracks: &mut DramTracks,
    cfg: &DramConfig,
    trace: &[IssuedCommand],
    offset: Cycle,
) {
    let topo = cfg.topology;
    let t = cfg.timing;
    for ic in trace {
        let a = ic.command.addr;
        let flat = a.flat_bank(&topo) as usize;
        let start = offset + ic.cycle;
        let end = start + display_duration(ic.command.kind, &t);
        tracks.name.clear();
        write!(
            tracks.name,
            "{} r{} c{}",
            ic.command.kind, a.row, a.col_byte
        )
        .expect("writing to a String cannot fail");
        rec.span(tracks.banks[flat], &tracks.name, start, end);
        if ic.command.kind == CommandKind::Rd {
            let burst_start = start + t.t_cl;
            let burst_end = burst_start + t.t_bl;
            let track = match ic.command.data_scope {
                DataScope::Bank => {
                    region_track(rec, tracks.parent, &mut tracks.pe_bank[flat], || {
                        format!("PE bank r{} / g{} / b{}", a.rank, a.bank_group, a.bank)
                    })
                }
                DataScope::BankGroup => {
                    let g = a.flat_bank_group(&topo) as usize;
                    region_track(rec, tracks.parent, &mut tracks.pe_group[g], || {
                        format!("PE bg r{} / g{}", a.rank, a.bank_group)
                    })
                }
                DataScope::Rank => region_track(
                    rec,
                    tracks.parent,
                    &mut tracks.pe_rank[a.rank as usize],
                    || format!("PE/DQ rank {}", a.rank),
                ),
            };
            rec.span(track, "burst", burst_start, burst_end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::controller::{Controller, ReadRequest, SchedulePolicy};
    use recross_obs::{ChromeStreamSink, Event, EventSink, SharedWriter};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The Chrome-trace JSON of `trace` on one channel's tracks under a
    /// `DRAM channel` root.
    fn chrome_json(trace: &[IssuedCommand], cfg: &DramConfig) -> String {
        let out = SharedWriter::new();
        let mut rec = Recorder::new();
        rec.attach(Box::new(ChromeStreamSink::new(
            out.clone(),
            cfg.cycles_to_ns(1),
        )));
        let root = rec.track("DRAM channel", None);
        let mut tracks = dram_tracks(&mut rec, root, cfg);
        record_commands(&mut rec, &mut tracks, cfg, trace, 0);
        rec.finish().unwrap();
        out.contents()
    }

    /// Collects every event's timestamp.
    #[derive(Default)]
    struct Stamps(Vec<u64>);

    impl EventSink for Stamps {
        fn kind(&self) -> &'static str {
            "stamps"
        }
        fn on_event(&mut self, e: &Event) {
            self.0.push(e.ts);
        }
    }

    #[test]
    fn emits_valid_json_shape() {
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        for i in 0..4u64 {
            ctl.enqueue(ReadRequest::to_host(
                i,
                PhysAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: i as u32 % 2,
                    bank: 0,
                    row: 1,
                    col_byte: 0,
                },
                2,
            ));
        }
        ctl.run();
        let trace = ctl.trace().unwrap();
        let reads = trace
            .iter()
            .filter(|ic| ic.command.kind == CommandKind::Rd)
            .count();
        let s = chrome_json(&trace, &cfg);
        assert!(s.starts_with("[\n"));
        assert!(s.trim_end().ends_with(']'));
        // One slice per command plus one burst span per read (the PE/DQ
        // occupancy interval).
        assert_eq!(s.matches("\"ph\":\"X\"").count(), trace.len() + reads);
        // Metadata names every bank track, the channel root, and the one
        // rank DQ track the host-bound reads created.
        assert_eq!(
            s.matches("thread_name").count(),
            cfg.topology.banks_per_channel() as usize + 2
        );
        assert!(s.contains("\"PE/DQ rank 0\""));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn empty_trace_is_valid() {
        let cfg = DramConfig::ddr5_4800();
        let s = chrome_json(&[], &cfg);
        assert!(s.contains("thread_name"));
    }

    #[test]
    fn offset_shifts_command_spans() {
        let cfg = DramConfig::ddr5_4800();
        let trace = [IssuedCommand {
            command: crate::command::Command {
                kind: CommandKind::Pre,
                addr: PhysAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row: 0,
                    col_byte: 0,
                },
                data_scope: DataScope::Bank,
            },
            cycle: 5,
        }];
        let stamps = Rc::new(RefCell::new(Stamps::default()));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&stamps)));
        let root = rec.track("ch", None);
        let mut tracks = dram_tracks(&mut rec, root, &cfg);
        record_commands(&mut rec, &mut tracks, &cfg, &trace, 100);
        assert_eq!(stamps.borrow().0, [105]);
    }
}
