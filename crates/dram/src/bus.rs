//! Shared-bus occupancy modeling.
//!
//! Two kinds of serialized resources matter for NMP performance:
//!
//! 1. **Data buses.** Where a read burst's data lands depends on the NMP
//!    level (paper §3.2, Figure 6): with a bank-group PE the burst occupies
//!    the bank-group-local I/O; with a rank PE it additionally occupies the
//!    rank DQ; without NMP it crosses the channel bus to the host. A
//!    [`BusSet`] tracks the busy-until time of every bus at one level of
//!    granularity.
//!
//! 2. **The NMP-instruction channel** (§4.2). Each lookup's instruction must
//!    reach the DIMM before its first command; the C/A pins (optionally plus
//!    idle DQ pins — the two-stage technique) provide a fixed number of bits
//!    per cycle. [`InstructionBus`] hands out delivery slots.

use crate::config::Cycle;

/// A set of independent serialized buses, one per resource instance.
#[derive(Debug, Clone)]
pub struct BusSet {
    busy_until: Vec<Cycle>,
    busy_total: Vec<Cycle>,
}

impl BusSet {
    /// Creates `n` idle buses.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bus");
        Self {
            busy_until: vec![0; n],
            busy_total: vec![0; n],
        }
    }

    /// Number of buses.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Whether the set is empty (never true).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Earliest cycle bus `i` can accept a new occupancy starting no earlier
    /// than `not_before`.
    pub fn earliest(&self, i: usize, not_before: Cycle) -> Cycle {
        self.busy_until[i].max(not_before)
    }

    /// Reserves bus `i` for `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics if the bus is still busy at `start` (callers must use
    /// [`BusSet::earliest`]).
    pub fn reserve(&mut self, i: usize, start: Cycle, duration: Cycle) {
        assert!(
            start >= self.busy_until[i],
            "bus {i} busy until {} but reserved at {start}",
            self.busy_until[i]
        );
        self.busy_until[i] = start + duration;
        self.busy_total[i] += duration;
    }

    /// Busy-until time of bus `i`.
    pub fn busy_until(&self, i: usize) -> Cycle {
        self.busy_until[i]
    }

    /// Total busy cycles accumulated on bus `i`.
    pub fn busy_total(&self, i: usize) -> Cycle {
        self.busy_total[i]
    }

    /// Utilization of bus `i` over a run of `duration` cycles, in `[0, 1]`.
    pub fn utilization(&self, i: usize, duration: Cycle) -> f64 {
        if duration == 0 {
            0.0
        } else {
            self.busy_total[i] as f64 / duration as f64
        }
    }
}

/// The NMP-instruction delivery channel: a single serialized resource
/// delivering `bits_per_cycle` instruction bits per cycle.
#[derive(Debug, Clone)]
pub struct InstructionBus {
    cycles_per_inst: Cycle,
    next_free: Cycle,
    delivered: u64,
}

impl InstructionBus {
    /// Creates a bus for `inst_bits`-bit instructions over `bits_per_cycle`
    /// pins (e.g. 82-bit instructions over 14 C/A bits, or 94 bits in
    /// two-stage mode).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(inst_bits: u32, bits_per_cycle: u32) -> Self {
        assert!(inst_bits > 0 && bits_per_cycle > 0);
        Self {
            cycles_per_inst: Cycle::from(inst_bits.div_ceil(bits_per_cycle)),
            next_free: 0,
            delivered: 0,
        }
    }

    /// Reserves the next delivery slot at or after `not_before`; returns the
    /// cycle at which the instruction has fully arrived.
    pub fn deliver(&mut self, not_before: Cycle) -> Cycle {
        let start = self.next_free.max(not_before);
        self.next_free = start + self.cycles_per_inst;
        self.delivered += 1;
        self.next_free
    }

    /// Number of instructions delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Cycle after which the channel is idle.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_set_serializes() {
        let mut b = BusSet::new(2);
        assert_eq!(b.earliest(0, 0), 0);
        b.reserve(0, 0, 8);
        assert_eq!(b.earliest(0, 0), 8);
        assert_eq!(b.earliest(1, 0), 0, "other bus unaffected");
        b.reserve(0, 8, 8);
        assert_eq!(b.busy_until(0), 16);
    }

    #[test]
    #[should_panic(expected = "busy until")]
    fn double_booking_panics() {
        let mut b = BusSet::new(1);
        b.reserve(0, 0, 10);
        b.reserve(0, 5, 1);
    }

    #[test]
    fn utilization_accumulates() {
        let mut b = BusSet::new(1);
        b.reserve(0, 0, 8);
        b.reserve(0, 100, 8);
        assert_eq!(b.busy_total(0), 16);
        assert!((b.utilization(0, 160) - 0.1).abs() < 1e-12);
        assert_eq!(b.utilization(0, 0), 0.0);
    }

    #[test]
    fn instruction_bus_ca_only_vs_two_stage() {
        // 82-bit instruction over 14 C/A pins: 6 cycles; over 94: 1 cycle.
        let mut ca = InstructionBus::new(82, 14);
        let mut two = InstructionBus::new(82, 94);
        assert_eq!(ca.deliver(0), 6);
        assert_eq!(two.deliver(0), 1);
    }

    #[test]
    fn instruction_bus_backpressure() {
        let mut bus = InstructionBus::new(82, 14);
        let a = bus.deliver(0);
        let b = bus.deliver(0);
        assert_eq!(a, 6);
        assert_eq!(b, 12, "second instruction queues behind the first");
        let c = bus.deliver(100);
        assert_eq!(c, 106, "idle gap respected");
        assert_eq!(bus.delivered(), 3);
    }
}
