//! Independent command-trace validation.
//!
//! Replays a recorded command trace against a *fresh* [`TimingState`] and
//! reports any violation: a command issued earlier than the constraint
//! engine allows, or in an illegal bank state. Because this replayer shares
//! no scheduling code with the controllers, a controller bug cannot
//! self-certify — this is the backbone of the property-test suite.

use crate::command::IssuedCommand;
use crate::config::{TimingParams, Topology};
use crate::timing::{TimingError, TimingState};

/// A violation found in a command trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Command issued `deficit` cycles before its earliest legal cycle.
    TooEarly {
        /// Index into the trace.
        index: usize,
        /// The offending command.
        command: IssuedCommand,
        /// How many cycles too early it was.
        deficit: u64,
    },
    /// Command illegal in the replayed state.
    Illegal {
        /// Index into the trace.
        index: usize,
        /// The offending command.
        command: IssuedCommand,
        /// Why it was illegal.
        error: TimingError,
    },
    /// Trace is not sorted by issue cycle.
    OutOfOrder {
        /// Index of the command that went back in time.
        index: usize,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::TooEarly {
                index,
                command,
                deficit,
            } => write!(
                f,
                "command #{index} ({command}) issued {deficit} cycles early"
            ),
            Violation::Illegal {
                index,
                command,
                error,
            } => {
                write!(f, "command #{index} ({command}) illegal: {error}")
            }
            Violation::OutOfOrder { index } => {
                write!(f, "command #{index} issued before its predecessor")
            }
        }
    }
}

/// Replays `trace` and returns every violation found (empty = valid).
///
/// The trace must be sorted by cycle; same-cycle commands to different
/// resources are fine.
pub fn check_trace(
    topo: Topology,
    timing: TimingParams,
    trace: &[IssuedCommand],
) -> Vec<Violation> {
    let mut state = TimingState::new(topo, timing);
    let mut violations = Vec::new();
    let mut last_cycle = 0;
    for (index, ic) in trace.iter().enumerate() {
        if ic.cycle < last_cycle {
            violations.push(Violation::OutOfOrder { index });
            continue;
        }
        last_cycle = ic.cycle;
        match state.earliest(&ic.command) {
            Ok(earliest) if ic.cycle >= earliest => {
                state.commit(&ic.command, ic.cycle);
            }
            Ok(earliest) => {
                violations.push(Violation::TooEarly {
                    index,
                    command: *ic,
                    deficit: earliest - ic.cycle,
                });
                // Commit at the legal time so later checks stay meaningful.
                state.commit(&ic.command, earliest);
            }
            Err(error) => {
                violations.push(Violation::Illegal {
                    index,
                    command: *ic,
                    error,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::command::{Command, CommandKind};
    use crate::config::DramConfig;
    use crate::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};

    fn cfg() -> DramConfig {
        DramConfig::ddr5_4800()
    }

    fn addr(row: u32, col: u32) -> PhysAddr {
        PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row,
            col_byte: col,
        }
    }

    fn ic(kind: CommandKind, a: PhysAddr, cycle: u64) -> IssuedCommand {
        IssuedCommand {
            command: Command::new(kind, a),
            cycle,
        }
    }

    #[test]
    fn valid_trace_passes() {
        let c = cfg();
        let t = c.timing;
        let trace = vec![
            ic(CommandKind::Act, addr(1, 0), 0),
            ic(CommandKind::Rd, addr(1, 0), t.t_rcd),
        ];
        assert!(check_trace(c.topology, t, &trace).is_empty());
    }

    #[test]
    fn early_read_detected() {
        let c = cfg();
        let t = c.timing;
        let trace = vec![
            ic(CommandKind::Act, addr(1, 0), 0),
            ic(CommandKind::Rd, addr(1, 0), t.t_rcd - 5),
        ];
        let v = check_trace(c.topology, t, &trace);
        assert!(matches!(v[0], Violation::TooEarly { deficit: 5, .. }));
    }

    #[test]
    fn illegal_read_detected() {
        let c = cfg();
        let trace = vec![ic(CommandKind::Rd, addr(1, 0), 100)];
        let v = check_trace(c.topology, c.timing, &trace);
        assert!(matches!(v[0], Violation::Illegal { .. }));
    }

    #[test]
    fn out_of_order_detected() {
        let c = cfg();
        let t = c.timing;
        let trace = vec![
            ic(CommandKind::Act, addr(1, 0), 100),
            ic(CommandKind::Rd, addr(1, 0), 90),
        ];
        let v = check_trace(c.topology, t, &trace);
        assert!(matches!(v[0], Violation::OutOfOrder { index: 1 }));
    }

    #[test]
    fn controller_traces_are_always_valid() {
        // Smoke variant of the proptest: random-ish requests through every
        // scope/policy must yield violation-free traces.
        let c = cfg();
        for (policy, scope, salp) in [
            (SchedulePolicy::FrFcfs, BusScope::Channel, false),
            (SchedulePolicy::FrFcfs, BusScope::Rank, false),
            (SchedulePolicy::FrFcfs, BusScope::BankGroup, false),
            (SchedulePolicy::LocalityAware, BusScope::Bank, true),
        ] {
            let mut ctl = Controller::new(c.clone(), policy);
            ctl.record_trace();
            for i in 0..200u64 {
                let mul = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ctl.enqueue(ReadRequest {
                    id: i,
                    addr: PhysAddr {
                        channel: 0,
                        rank: (mul >> 7) as u32 % 2,
                        bank_group: (mul >> 13) as u32 % 8,
                        bank: (mul >> 23) as u32 % 4,
                        row: (mul >> 31) as u32 % 4096,
                        col_byte: ((mul >> 43) as u32 % 124) * 64,
                    },
                    bursts: 1 + (mul % 4) as u32, // max col 123*64 + 4 bursts fits the 8 KiB row
                    ready_at: 0,
                    dest: scope,
                    salp,
                    auto_precharge: !salp && i % 3 == 0,
                    write: !salp && i % 7 == 0,
                });
            }
            ctl.run();
            let trace = ctl.trace().unwrap();
            let v = check_trace(c.topology, c.timing, &trace);
            assert!(
                v.is_empty(),
                "{policy:?}/{scope:?}/salp={salp}: {:?}",
                &v[..v.len().min(3)]
            );
        }
    }
}
