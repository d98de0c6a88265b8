//! The shared command-level NMP execution engine.
//!
//! Every accelerator model reduces to the same skeleton: decide *where each
//! lookup's data lives and which PE reduces it* (the placement plan), then
//! drive the plan through the DRAM controller with the right bus
//! destinations, the NMP-instruction channel (§4.2), and PE/result-return
//! accounting. The engine owns that skeleton so baselines and ReCross
//! differ only in their plans.

use std::collections::HashMap;

use recross_dram::bus::InstructionBus;
use recross_dram::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};
use recross_dram::{Cycle, DramConfig, EnergyBreakdown, PhysAddr};
use recross_workload::stats::{imbalance_ratio, ImbalanceSummary};
use recross_workload::Trace;

use crate::accel::RunReport;

/// One physical read a lookup requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedRead {
    /// DRAM address of the data's first byte.
    pub addr: PhysAddr,
    /// Bursts to read.
    pub bursts: u32,
    /// The PE level the data travels to.
    pub dest: BusScope,
    /// Whether the bank supports subarray-parallel access.
    pub salp: bool,
    /// Closed-page access (ACT-RD-PRE per vector, paper Figure 6) — the
    /// baseline NMPs' deterministic access pattern.
    pub auto_precharge: bool,
    /// Write instead of read (embedding updates, §4.5).
    pub write: bool,
    /// Memory-node id for load accounting (architecture-defined).
    pub node: usize,
}

/// Placement plan of one lookup.
#[derive(Debug, Clone, Default)]
pub struct LookupPlan {
    /// Index of the owning embedding op (trace order).
    pub op: usize,
    /// Physical reads (empty if served from a PE-side cache).
    pub reads: Vec<PlacedRead>,
    /// Served from a PE cache (no DRAM access, PE still reduces).
    pub cached: bool,
}

/// Plans every lookup of `trace` in trace order: `place(table, row)` gives
/// the reads row `row` of table `table` needs. A lookup with no reads is
/// served from a PE-side cache.
pub fn plan_lookups(
    trace: &Trace,
    mut place: impl FnMut(usize, u64) -> Vec<PlacedRead>,
) -> Vec<LookupPlan> {
    let mut plans = Vec::with_capacity(trace.lookups());
    for (op, e) in trace.iter_ops().enumerate() {
        for &row in &e.indices {
            let reads = place(e.table, row);
            let cached = reads.is_empty();
            plans.push(LookupPlan { op, reads, cached });
        }
    }
    plans
}

/// NMP-instruction size in bits (§4.2).
pub const NMP_INST_BITS: u32 = 82;

/// Embedding ops in flight at once on an NMP design, bounded by the PEs'
/// partial-sum buffer capacity: each in-flight op pins one psum register
/// in every PE it touches.
pub const PSUM_OPS: usize = 64;

/// Host-controller global request-queue bound (Table 2: 64 entries for the
/// CPU baseline).
pub const HOST_QUEUE: usize = 64;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The DRAM system.
    pub dram: DramConfig,
    /// Controller scheduling policy.
    pub policy: SchedulePolicy,
    /// Architecture name for the report.
    pub name: String,
    /// Number of memory nodes (PEs) for imbalance accounting.
    pub num_nodes: usize,
    /// Use the two-stage (C/A + DQ) instruction transfer (§4.2).
    pub two_stage_inst: bool,
    /// Host-side gather and reduction (the CPU baseline). A host engine
    /// issues plain DRAM commands (no NMP-instruction channel), queues at
    /// most [`HOST_QUEUE`] requests in the host controller, needs no psum
    /// bound on ops in flight, and returns no result vectors: all gathered
    /// data already crossed the channel. An NMP engine sends one
    /// [`NMP_INST_BITS`]-bit instruction per lookup, queues requests at the
    /// PEs, and keeps at most [`PSUM_OPS`] ops in flight.
    pub host: bool,
    /// Record the full DRAM command trace into
    /// [`RunReport::commands`](crate::accel::RunReport::commands) (the
    /// observability path). Off by default: recording allocates per
    /// command, so keep it disabled on untraced hot paths.
    pub trace_commands: bool,
}

impl EngineConfig {
    /// A standard NMP engine configuration.
    pub fn nmp(name: &str, dram: DramConfig, num_nodes: usize) -> Self {
        Self {
            dram,
            policy: SchedulePolicy::FrFcfs,
            name: name.to_owned(),
            num_nodes,
            two_stage_inst: true,
            host: false,
            trace_commands: false,
        }
    }
}

/// Turns a trace's lookups into placement plans, one per lookup in trace
/// order. A planner is `Fn`: it cannot mutate what it captured, so per-call
/// state (LRU caches, replica round-robins) starts afresh on every call and
/// identical traces plan identically. That is what keeps a serving
/// session's memo exact.
pub type Planner = Box<dyn Fn(&Trace) -> Vec<LookupPlan>>;

/// An accelerator prepared for one table universe: everything
/// table-dependent (layouts, placements, caches' geometry) is resolved
/// into the planner, and the engine configuration says how the plans run.
/// [`EmbeddingAccelerator::prepare`](crate::accel::EmbeddingAccelerator::prepare)
/// returns one; the offline run and the serving session both drive it.
pub struct Prepared {
    /// How the plans run on the DRAM system.
    pub engine: EngineConfig,
    /// Where each lookup's data lives and which PE reduces it.
    pub plan: Planner,
}

/// Executes `plans` (one per lookup, in trace order) and assembles the
/// report.
///
/// Debug builds record every command stream and replay it through the
/// independent checker [`recross_dram::check::check_trace`].
///
/// # Panics
///
/// Panics if `plans` length mismatches the trace's lookups, or the plan
/// contains invalid addresses; in debug builds, also if the command stream
/// breaks a DRAM timing rule.
pub fn execute(cfg: &EngineConfig, trace: &Trace, plans: &[LookupPlan]) -> RunReport {
    let total_lookups: usize = trace.lookups();
    assert_eq!(plans.len(), total_lookups, "one plan per lookup");

    let mut ctl = Controller::new(cfg.dram.clone(), cfg.policy);
    if cfg.host {
        ctl = ctl.with_global_window(HOST_QUEUE);
    }
    if cfg.trace_commands || cfg!(debug_assertions) {
        ctl.record_trace();
    }
    let mut inst_bus = (!cfg.host).then(|| {
        let pins = if cfg.two_stage_inst {
            cfg.dram.two_stage_bits_per_cycle
        } else {
            cfg.dram.ca_bits_per_cycle
        };
        InstructionBus::new(NMP_INST_BITS, pins)
    });

    // Per-op metadata in trace order.
    let num_ops = trace.ops();
    let mut op_result_bursts = Vec::with_capacity(num_ops);
    let mut op_result_bytes = Vec::with_capacity(num_ops);
    for op in trace.iter_ops() {
        // One weighted-sum vector of `dim` f32s per op (§4.1).
        let bytes = u64::from(trace.tables[op.table].dim) * 4;
        op_result_bursts.push(cfg.dram.topology.bursts_for(bytes) as u32);
        op_result_bytes.push(bytes);
    }

    let mut node_loads = vec![0u64; cfg.num_nodes.max(1)];
    let mut cache_hits = 0u64;
    let mut op_done = vec![0 as Cycle; num_ops];
    let mut op_start = vec![Cycle::MAX; num_ops];
    let mut finish: Cycle = 0;
    let mut io_bits = 0u64;

    // Psum-bounded execution (§4.2): PEs hold per-op partial sums until the
    // op's result is read out (lastTag). With double-buffered psum storage,
    // op group k may enter the PEs once group k-2's results have drained.
    // A host engine reduces host-side and needs no such bound.
    let mut batch_latencies: Vec<Cycle> = Vec::with_capacity(trace.batches.len());
    let mut barrier: Cycle = 0; // ready floor for the current group
    let mut group_done_history: [Cycle; 2] = [0, 0];
    let mut group_counter = 0usize;
    let mut plan_idx = 0usize;
    let mut op_base = 0usize;
    for batch in &trace.batches {
        let mut batch_end: Cycle = 0;
        // Ops issue in groups bounded by psum capacity.
        let group = if cfg.host { batch.ops.len() } else { PSUM_OPS }.max(1);
        let mut ops_iter = batch.ops.iter().enumerate().peekable();
        while ops_iter.peek().is_some() {
            let mut group_ops: Vec<usize> = Vec::with_capacity(group);
            for (local_idx, op) in ops_iter.by_ref().take(group) {
                let op_idx = op_base + local_idx;
                group_ops.push(op_idx);
                for _ in 0..op.indices.len() {
                    let plan = &plans[plan_idx];
                    debug_assert_eq!(plan.op, op_idx, "plan/op order mismatch");
                    let ready = match &mut inst_bus {
                        Some(bus) => bus.deliver(barrier),
                        None => 0,
                    };
                    if plan.cached {
                        cache_hits += 1;
                    }
                    for r in &plan.reads {
                        assert!(r.node < cfg.num_nodes, "node id out of range");
                        node_loads[r.node] += 1;
                        ctl.enqueue(ReadRequest {
                            id: plan_idx as u64,
                            addr: r.addr,
                            bursts: r.bursts,
                            ready_at: ready.max(barrier),
                            dest: r.dest,
                            salp: r.salp,
                            auto_precharge: r.auto_precharge,
                            write: r.write,
                        });
                    }
                    // Cached lookups complete at instruction arrival.
                    op_done[plan.op] = op_done[plan.op].max(ready).max(barrier);
                    op_start[plan.op] = op_start[plan.op].min(ready.max(barrier));
                    plan_idx += 1;
                }
            }
            let completions = ctl.run();
            for c in &completions {
                let plan = &plans[c.id as usize];
                op_done[plan.op] = op_done[plan.op].max(c.done_at);
            }
            finish = finish.max(ctl.stats().finish);
            // Result return for this group's ops frees the psums.
            let group_end = if cfg.host {
                group_ops
                    .iter()
                    .map(|&i| op_done[i])
                    .max()
                    .unwrap_or(barrier)
            } else {
                let mut order = group_ops.clone();
                order.sort_by_key(|&i| op_done[i]);
                let mut end = barrier;
                for &op_idx in &order {
                    let done = ctl.reserve_channel(op_done[op_idx], op_result_bursts[op_idx]);
                    io_bits += op_result_bytes[op_idx] * 8;
                    end = end.max(done);
                }
                end
            };
            finish = finish.max(group_end);
            batch_end = batch_end.max(group_end);
            // Double-buffered psums: the next group's floor is the
            // completion of the group *two back*.
            group_done_history[group_counter % 2] = group_end;
            group_counter += 1;
            barrier = group_done_history[group_counter % 2];
        }
        batch_latencies.push(batch_end);
        op_base += batch.ops.len();
    }
    ctl.energy_mut().io_bits += io_bits;

    // Weighted-sum arithmetic (§4.1): one multiply and one add per
    // element of every gathered vector.
    {
        let e = ctl.energy_mut();
        for op in trace.iter_ops() {
            let elems = op.indices.len() as u64 * u64::from(trace.tables[op.table].dim);
            e.fp_muls += elems;
            e.fp_adds += elems;
        }
    }

    // Imbalance: per-op per-node DRAM-read loads.
    let mut per_op_loads: Vec<HashMap<usize, u64>> = vec![HashMap::new(); num_ops];
    for plan in plans.iter() {
        for r in &plan.reads {
            *per_op_loads[plan.op].entry(r.node).or_insert(0) += 1;
        }
    }
    let ratios: Vec<f64> = per_op_loads
        .iter()
        .map(|loads| {
            let mut v = vec![0u64; cfg.num_nodes.max(1)];
            for (&n, &c) in loads {
                v[n] = c;
            }
            imbalance_ratio(&v)
        })
        .collect();

    let op_latencies: Vec<Cycle> = (0..num_ops)
        .map(|i| {
            let start = if op_start[i] == Cycle::MAX {
                0
            } else {
                op_start[i]
            };
            op_done[i].saturating_sub(start)
        })
        .collect();

    let commands = ctl.trace();
    #[cfg(debug_assertions)]
    if let Some(commands) = &commands {
        let violations =
            recross_dram::check::check_trace(cfg.dram.topology, cfg.dram.timing, commands);
        assert!(
            violations.is_empty(),
            "{}: {} timing violations, the first: {}",
            cfg.name,
            violations.len(),
            violations[0]
        );
    }
    let stats = ctl.stats();
    let counters = stats.energy;
    RunReport {
        name: cfg.name.clone(),
        cycles: finish,
        ns: cfg.dram.cycles_to_ns(finish),
        lookups: plans.len() as u64,
        ops: num_ops as u64,
        energy: EnergyBreakdown::from_counters(&counters, finish, &cfg.dram),
        counters,
        imbalance: ImbalanceSummary::from_ratios(&ratios),
        row_hit_rate: stats.row_hit_rate(),
        node_loads,
        cache_hits,
        op_latency: crate::accel::LatencySummary::from_latencies(&op_latencies),
        batch_latency: crate::accel::LatencySummary::from_latencies(&batch_latencies),
        commands: commands.filter(|_| cfg.trace_commands),
        work: stats.work,
    }
}

/// Peak aggregate internal bandwidth (bytes/cycle) available to PEs at a
/// given level — the Figure 5 "internal bandwidth" series.
pub fn internal_bandwidth(dram: &DramConfig, level: BusScope) -> f64 {
    let t = &dram.topology;
    let burst = f64::from(t.burst_bytes);
    let tim = &dram.timing;
    match level {
        BusScope::Channel => burst / tim.t_bl as f64,
        BusScope::Rank => f64::from(t.ranks) * burst / tim.t_ccd_s as f64,
        BusScope::BankGroup => f64::from(t.ranks * t.bank_groups) * burst / tim.t_ccd_l as f64,
        BusScope::Bank => f64::from(t.banks_per_channel()) * burst / tim.t_ccd_l as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TableLayout;
    use recross_workload::TraceGenerator;

    fn small_trace() -> Trace {
        TraceGenerator::criteo_scaled(16, 10_000)
            .batch_size(2)
            .pooling(4)
            .generate(7)
    }

    fn plans_for(trace: &Trace, dest: BusScope, num_nodes: usize) -> Vec<LookupPlan> {
        let topo = DramConfig::ddr5_4800().topology;
        let layout = TableLayout::pack(topo, &trace.tables, 0);
        plan_lookups(trace, |table, row| {
            let loc = layout.locate(table, row);
            vec![PlacedRead {
                addr: loc.addr,
                bursts: loc.bursts,
                dest,
                salp: false,
                auto_precharge: false,
                write: false,
                node: loc.addr.flat_bank(&topo) as usize % num_nodes,
            }]
        })
    }

    #[test]
    fn executes_and_reports() {
        let trace = small_trace();
        let cfg = EngineConfig::nmp("test", DramConfig::ddr5_4800(), 2);
        let plans = plans_for(&trace, BusScope::Rank, 2);
        let report = execute(&cfg, &trace, &plans);
        assert_eq!(report.lookups as usize, plans.len());
        assert_eq!(report.ops as usize, trace.ops());
        assert!(report.cycles > 0);
        assert!(report.energy.total_pj() > 0.0);
        // Weighted sum: one multiply and one add per gathered element.
        let elems: u64 = trace
            .iter_ops()
            .map(|op| op.indices.len() as u64 * u64::from(trace.tables[op.table].dim))
            .sum();
        assert_eq!(report.counters.fp_muls, elems);
        assert_eq!(report.counters.fp_adds, elems);
        assert_eq!(report.node_loads.iter().sum::<u64>(), plans.len() as u64);
    }

    #[test]
    fn finer_level_is_faster() {
        let trace = TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(4)
            .pooling(20)
            .generate(1);
        let d = DramConfig::ddr5_4800();
        let run = |dest, nodes| {
            let cfg = EngineConfig::nmp("x", d.clone(), nodes);
            execute(&cfg, &trace, &plans_for(&trace, dest, nodes))
        };
        let host = run(BusScope::Channel, 1);
        let rank = run(BusScope::Rank, 2);
        let bg = run(BusScope::BankGroup, 16);
        assert!(rank.cycles < host.cycles, "rank NMP beats host transfer");
        assert!(bg.cycles < rank.cycles, "bank-group NMP beats rank NMP");
    }

    #[test]
    fn instruction_channel_throttles_short_vectors() {
        let trace = TraceGenerator::criteo_scaled(16, 1000)
            .batch_size(4)
            .pooling(20)
            .generate(1);
        let d = DramConfig::ddr5_4800();
        let mut two_stage = EngineConfig::nmp("x", d.clone(), 64);
        two_stage.two_stage_inst = true;
        let mut ca_only = two_stage.clone();
        ca_only.two_stage_inst = false;
        let plans = plans_for(&trace, BusScope::Bank, 64);
        let fast = execute(&two_stage, &trace, &plans);
        let slow = execute(&ca_only, &trace, &plans);
        assert!(
            slow.cycles > fast.cycles,
            "C/A-only instruction delivery must throttle: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn cached_lookups_skip_dram() {
        let trace = small_trace();
        let cfg = EngineConfig::nmp("cached", DramConfig::ddr5_4800(), 2);
        let plans = plan_lookups(&trace, |_, _| vec![]);
        let report = execute(&cfg, &trace, &plans);
        assert_eq!(report.cache_hits, report.lookups);
        assert_eq!(report.counters.rd_wr_bits, 0);
        assert_eq!(report.counters.activations, 0);
        // Results still return over the channel: one f32 vector per op.
        let result_bits: u64 = trace
            .iter_ops()
            .map(|op| u64::from(trace.tables[op.table].dim) * 4 * 8)
            .sum();
        assert_eq!(report.counters.io_bits, result_bits);
    }

    #[test]
    fn trace_commands_captures_the_schedule_without_changing_it() {
        let trace = small_trace();
        let mut cfg = EngineConfig::nmp("test", DramConfig::ddr5_4800(), 2);
        let plans = plans_for(&trace, BusScope::Rank, 2);
        let plain = execute(&cfg, &trace, &plans);
        cfg.trace_commands = true;
        let traced = execute(&cfg, &trace, &plans);
        assert_eq!(
            traced.cycles, plain.cycles,
            "tracing must not perturb timing"
        );
        assert!(plain.commands.is_none(), "untraced runs carry no commands");
        let commands = traced.commands.expect("traced run records commands");
        assert!(!commands.is_empty());
        assert!(commands.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn internal_bandwidth_scales_with_level() {
        let d = DramConfig::ddr5_4800();
        let ch = internal_bandwidth(&d, BusScope::Channel);
        let rank = internal_bandwidth(&d, BusScope::Rank);
        let bg = internal_bandwidth(&d, BusScope::BankGroup);
        let bank = internal_bandwidth(&d, BusScope::Bank);
        assert!(rank > ch);
        assert!(bg > rank);
        assert!(bank > bg);
        assert!((bank / bg - 4.0).abs() < 1e-9, "4 banks per group");
    }

    #[test]
    #[should_panic(expected = "one plan per lookup")]
    fn plan_count_validated() {
        let trace = small_trace();
        let cfg = EngineConfig::nmp("x", DramConfig::ddr5_4800(), 1);
        execute(&cfg, &trace, &[]);
    }
}
