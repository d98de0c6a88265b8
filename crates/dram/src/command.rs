//! DRAM commands and issue records.

use crate::addr::PhysAddr;
use crate::config::Cycle;

/// A DRAM command kind.
///
/// `ActSa` and `SelSa` are the ReCross SALP extension (§4.1): `ActSa`
/// activates a row into its *local* (subarray) row buffer without seizing
/// the global bit-lines; `SelSa` switches which subarray's local buffer is
/// connected to the global row buffer (constrained by `tRA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate a row into the (global) row buffer.
    Act,
    /// Read one burst from the open row.
    Rd,
    /// Write one burst into the open row (embedding updates, §4.5).
    Wr,
    /// Precharge the bank.
    Pre,
    /// SALP: activate a row into the subarray-local row buffer.
    ActSa,
    /// SALP: connect a subarray's local buffer to the global row buffer.
    SelSa,
    /// All-bank refresh of one rank (addr's rank field selects it); the
    /// rank is unavailable for tRFC.
    Ref,
}

impl CommandKind {
    /// Whether this command performs a row activation (counts ACT energy
    /// and tFAW/tRRD windows).
    pub fn is_activate(self) -> bool {
        matches!(self, CommandKind::Act | CommandKind::ActSa)
    }
}

impl core::fmt::Display for CommandKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CommandKind::Act => "ACT",
            CommandKind::Rd => "RD",
            CommandKind::Wr => "WR",
            CommandKind::Pre => "PRE",
            CommandKind::ActSa => "ACT_SA",
            CommandKind::SelSa => "SEL_SA",
            CommandKind::Ref => "REF",
        };
        f.write_str(s)
    }
}

/// Which shared device I/O resources a read's data crosses — determined by
/// the NMP level its data is destined for. A read into a bank-level PE uses
/// only the bank's own column path; a bank-group-level read additionally
/// uses the bank-group I/O (tCCD_L scope); rank-level and host-bound reads
/// also use the rank-shared I/O (tCCD_S scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataScope {
    /// Data stays within the bank (bank-level PE).
    Bank,
    /// Data crosses the bank-group I/O (bank-group-level PE).
    BankGroup,
    /// Data crosses the rank I/O (rank-level PE or host-bound).
    #[default]
    Rank,
}

/// A command bound to an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Command {
    /// What to do.
    pub kind: CommandKind,
    /// Where (row/col meaning depends on `kind`).
    pub addr: PhysAddr,
    /// For RD: how far the data travels (ignored for other kinds).
    pub data_scope: DataScope,
}

impl Command {
    /// A command whose data (if any) travels the full rank path.
    pub fn new(kind: CommandKind, addr: PhysAddr) -> Self {
        Self {
            kind,
            addr,
            data_scope: DataScope::Rank,
        }
    }
}

/// A command together with the cycle it was issued — the unit of the
/// command traces used by Figure 6 and the timing-invariant checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IssuedCommand {
    /// The command.
    pub command: Command,
    /// Issue cycle.
    pub cycle: Cycle,
}

impl core::fmt::Display for IssuedCommand {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "@{:>8} {} {}",
            self.cycle, self.command.kind, self.command.addr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> PhysAddr {
        PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 1,
            bank: 2,
            row: 3,
            col_byte: 0,
        }
    }

    #[test]
    fn activate_classification() {
        assert!(CommandKind::Act.is_activate());
        assert!(CommandKind::ActSa.is_activate());
        assert!(!CommandKind::Rd.is_activate());
        assert!(!CommandKind::Wr.is_activate());
        assert!(!CommandKind::Pre.is_activate());
        assert!(!CommandKind::SelSa.is_activate());
        assert!(!CommandKind::Ref.is_activate());
    }

    #[test]
    fn display_formats() {
        let ic = IssuedCommand {
            command: Command::new(CommandKind::Rd, addr()),
            cycle: 42,
        };
        let s = format!("{ic}");
        assert!(s.contains("RD"));
        assert!(s.contains("bg1"));
    }
}
