//! Multi-channel scaling.
//!
//! The paper evaluates one channel (Table 2) and argues ReCross "ensures
//! well scalability" (§5.2); production servers populate several channels.
//! Channels are fully independent in DDR systems — own controller, C/A and
//! data pins — so the model is: partition the embedding tables across
//! channels (balancing expected access *load*, not just bytes), split each
//! trace accordingly, run one accelerator instance per channel, and combine
//! (makespan = slowest channel; energy adds).

use recross_workload::{Batch, EmbeddingOp, Trace};

use crate::accel::{EmbeddingAccelerator, RunReport};

/// Assignment of every table to a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPlan {
    assignment: Vec<usize>,
    channels: usize,
}

impl ChannelPlan {
    /// Balances tables across `channels` greedily by *observed access
    /// volume* (lookups × vector bytes from a profiling trace) — the load
    /// metric that actually determines per-channel time.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn balance_by_load(trace: &Trace, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        let mut load: Vec<(usize, u64)> = trace
            .tables
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let lookups: u64 = trace
                    .iter_ops()
                    .filter(|op| op.table == i)
                    .map(|op| op.indices.len() as u64)
                    .sum();
                (i, lookups * spec.vector_bytes())
            })
            .collect();
        // Largest first onto the least-loaded channel.
        load.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        let mut totals = vec![0u64; channels];
        let mut assignment = vec![0usize; trace.tables.len()];
        for (table, bytes) in load {
            let ch = totals
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("channels > 0");
            assignment[table] = ch;
            totals[ch] += bytes;
        }
        Self {
            assignment,
            channels,
        }
    }

    /// Explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any channel id is out of range or `channels == 0`.
    pub fn new(assignment: Vec<usize>, channels: usize) -> Self {
        assert!(channels > 0);
        assert!(assignment.iter().all(|&c| c < channels));
        Self {
            assignment,
            channels,
        }
    }

    /// Channel of a table.
    pub fn channel_of(&self, table: usize) -> usize {
        self.assignment[table]
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Splits a trace into per-channel traces. Table indices are remapped
    /// densely within each channel; returns the traces plus, per channel,
    /// the original table index of each remapped table.
    pub fn split(&self, trace: &Trace) -> Vec<(Trace, Vec<usize>)> {
        assert_eq!(self.assignment.len(), trace.tables.len());
        // Dense remap per channel.
        let mut remap = vec![Vec::new(); self.channels]; // channel -> original tables
        let mut dense = vec![usize::MAX; trace.tables.len()];
        for (table, &ch) in self.assignment.iter().enumerate() {
            dense[table] = remap[ch].len();
            remap[ch].push(table);
        }
        (0..self.channels)
            .map(|ch| {
                let tables = remap[ch].iter().map(|&orig| trace.tables[orig]).collect();
                let batches = trace
                    .batches
                    .iter()
                    .map(|b| Batch {
                        ops: b
                            .ops
                            .iter()
                            .filter(|op| self.assignment[op.table] == ch)
                            .map(|op| EmbeddingOp {
                                table: dense[op.table],
                                indices: op.indices.clone(),
                                weights: op.weights.clone(),
                            })
                            .collect(),
                    })
                    .collect();
                (Trace { tables, batches }, remap[ch].clone())
            })
            .collect()
    }
}

/// Runs a trace over `plan.channels()` independent accelerator instances
/// (built by `make`, which receives the channel id and its sub-trace) and
/// combines the reports: makespan = slowest channel, energies add.
pub fn run_multichannel<A, F>(plan: &ChannelPlan, trace: &Trace, mut make: F) -> RunReport
where
    A: EmbeddingAccelerator,
    F: FnMut(usize, &Trace) -> A,
{
    let mut combined = RunReport {
        name: format!("{}-channel", plan.channels()),
        ..Default::default()
    };
    let mut ratios_weighted = 0.0;
    let mut hits_weighted = 0.0;
    for (ch, (sub, _orig)) in plan.split(trace).into_iter().enumerate() {
        if sub.ops() == 0 {
            continue;
        }
        let mut accel = make(ch, &sub);
        let r = accel.run(&sub);
        combined.cycles = combined.cycles.max(r.cycles);
        combined.ns = combined.ns.max(r.ns);
        combined.lookups += r.lookups;
        combined.ops += r.ops;
        combined.cache_hits += r.cache_hits;
        combined.counters.merge(&r.counters);
        combined.work += r.work;
        combined.energy.act_pj += r.energy.act_pj;
        combined.energy.rd_wr_pj += r.energy.rd_wr_pj;
        combined.energy.io_pj += r.energy.io_pj;
        combined.energy.pe_pj += r.energy.pe_pj;
        combined.energy.static_pj += r.energy.static_pj;
        combined.node_loads.extend(r.node_loads);
        ratios_weighted += r.imbalance.mean * r.ops as f64;
        hits_weighted += r.row_hit_rate * r.lookups as f64;
        combined.op_latency.max = combined.op_latency.max.max(r.op_latency.max);
        combined.op_latency.p99 = combined.op_latency.p99.max(r.op_latency.p99);
        combined.op_latency.p90 = combined.op_latency.p90.max(r.op_latency.p90);
        combined.op_latency.p50 = combined.op_latency.p50.max(r.op_latency.p50);
    }
    if combined.ops > 0 {
        combined.imbalance.mean = ratios_weighted / combined.ops as f64;
    }
    if combined.lookups > 0 {
        combined.row_hit_rate = hits_weighted / combined.lookups as f64;
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trim::Trim;
    use recross_dram::DramConfig;
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(4)
            .pooling(16)
            .generate(3)
    }

    #[test]
    fn split_preserves_every_op() {
        let t = trace();
        let plan = ChannelPlan::balance_by_load(&t, 3);
        let subs = plan.split(&t);
        let total_ops: usize = subs.iter().map(|(s, _)| s.ops()).sum();
        let total_lookups: usize = subs.iter().map(|(s, _)| s.lookups()).sum();
        assert_eq!(total_ops, t.ops());
        assert_eq!(total_lookups, t.lookups());
        // Remapped table indices are in range.
        for (sub, orig) in &subs {
            assert_eq!(sub.tables.len(), orig.len());
            for op in sub.iter_ops() {
                assert!(op.table < sub.tables.len());
            }
        }
    }

    #[test]
    fn balance_spreads_load() {
        let t = trace();
        let plan = ChannelPlan::balance_by_load(&t, 2);
        let subs = plan.split(&t);
        let loads: Vec<u64> = subs.iter().map(|(s, _)| s.gathered_bytes()).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 2.0,
            "channels roughly balanced: {loads:?}"
        );
    }

    #[test]
    fn two_channels_beat_one() {
        let t = trace();
        let one = Trim::bank_group(DramConfig::ddr5_4800()).run(&t);
        let plan = ChannelPlan::balance_by_load(&t, 2);
        let two = run_multichannel(&plan, &t, |_, _| Trim::bank_group(DramConfig::ddr5_4800()));
        assert!(two.cycles < one.cycles, "{} vs {}", two.cycles, one.cycles);
        assert_eq!(two.lookups, one.lookups);
        // Energy does not vanish — both channels' events are accounted.
        assert!(two.counters.rd_wr_bits == one.counters.rd_wr_bits);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        ChannelPlan::balance_by_load(&trace(), 0);
    }

    use crate::accel::EmbeddingAccelerator;

    #[test]
    fn explicit_assignment_validated() {
        let plan = ChannelPlan::new(vec![0, 1, 0], 2);
        assert_eq!(plan.channel_of(1), 1);
        assert_eq!(plan.channels(), 2);
    }
}
