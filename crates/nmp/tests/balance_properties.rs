//! Randomized properties of the channel-partitioning planner
//! (`ChannelPlan::balance_by_load`), checked over seeded case sets from the
//! in-repo deterministic PRNG.

use recross_nmp::multichannel::ChannelPlan;
use recross_workload::rng::Xoshiro256pp;
use recross_workload::stats::imbalance_ratio;
use recross_workload::{AccessDistribution, EmbeddingTableSpec, TraceGenerator};

/// A random skewed workload: a handful of tables with wildly different
/// cardinalities, hot-table probabilities, and per-table Zipf skew.
fn random_generator(rng: &mut Xoshiro256pp) -> TraceGenerator {
    let n_tables = 2 + rng.next_bounded(10) as usize;
    let tables: Vec<EmbeddingTableSpec> = (0..n_tables)
        .map(|_| EmbeddingTableSpec {
            rows: 16 + rng.next_bounded(100_000),
            dim: 1 << (2 + rng.next_bounded(5)),
            dtype_bytes: 4,
        })
        .collect();
    let dists = tables
        .iter()
        .map(|t| AccessDistribution::zipf(t.rows, 0.2 + rng.next_f64()))
        .collect();
    // Skew which tables the trace touches at all.
    let probs: Vec<f64> = (0..n_tables)
        .map(|_| 0.05 + 0.95 * rng.next_f64())
        .collect();
    TraceGenerator::new(tables, dists)
        .table_probabilities(probs)
        .batch_size(1 + rng.next_bounded(6) as usize)
        .pooling(1 + rng.next_bounded(32) as u32)
        .batches(1 + rng.next_bounded(4) as usize)
}

/// Per-channel access-volume loads (lookups × vector bytes) under a plan.
fn channel_loads(plan: &ChannelPlan, trace: &recross_workload::Trace) -> Vec<u64> {
    let mut loads = vec![0u64; plan.channels()];
    for op in trace.iter_ops() {
        loads[plan.channel_of(op.table)] +=
            op.indices.len() as u64 * trace.tables[op.table].vector_bytes();
    }
    loads
}

#[test]
fn every_table_assigned_to_a_valid_channel() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA1A_0001);
    for case in 0..32 {
        let g = random_generator(&mut rng);
        let trace = g.generate(case);
        let channels = 1 + rng.next_bounded(6) as usize;
        let plan = ChannelPlan::balance_by_load(&trace, channels);
        assert_eq!(plan.channels(), channels, "case {case}");
        // Every table has exactly one in-range channel, and splitting
        // loses no work.
        for t in 0..trace.tables.len() {
            assert!(plan.channel_of(t) < channels, "case {case} table {t}");
        }
        let subs = plan.split(&trace);
        assert_eq!(subs.len(), channels, "case {case}");
        let ops: usize = subs.iter().map(|(s, _)| s.ops()).sum();
        let lookups: usize = subs.iter().map(|(s, _)| s.lookups()).sum();
        assert_eq!(ops, trace.ops(), "case {case}");
        assert_eq!(lookups, trace.lookups(), "case {case}");
        // The dense remaps partition the original table set.
        let mut seen = vec![false; trace.tables.len()];
        for (_, orig) in &subs {
            for &t in orig {
                assert!(!seen[t], "case {case}: table {t} mapped twice");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}: all tables mapped");
    }
}

#[test]
fn balanced_plan_beats_random_assignment_on_skewed_traces() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA1A_0002);
    let mut planner_total = 0.0;
    let mut random_total = 0.0;
    for case in 0..24 {
        let g = random_generator(&mut rng);
        let trace = g.generate(1000 + case);
        let channels = 2 + rng.next_bounded(3) as usize;
        let plan = ChannelPlan::balance_by_load(&trace, channels);
        let planned = imbalance_ratio(&channel_loads(&plan, &trace));
        // Average a few random assignments as the strawman.
        let mut random_sum = 0.0;
        for _ in 0..8 {
            let assignment = (0..trace.tables.len())
                .map(|_| rng.next_bounded(channels as u64) as usize)
                .collect();
            let rand_plan = ChannelPlan::new(assignment, channels);
            random_sum += imbalance_ratio(&channel_loads(&rand_plan, &trace));
        }
        let random_mean = random_sum / 8.0;
        // Greedy LPT can't always be perfect with few huge tables, but it
        // must never be *worse* than a random scatter (small tolerance for
        // the degenerate all-load-on-one-table traces where both tie).
        assert!(
            planned <= random_mean + 1e-9,
            "case {case}: planned {planned:.3} worse than random {random_mean:.3}"
        );
        planner_total += planned;
        random_total += random_mean;
    }
    // And in aggregate it should be strictly better, not merely tied.
    assert!(
        planner_total < random_total,
        "planner {planner_total:.2} should beat random {random_total:.2} overall"
    );
}

#[test]
fn single_channel_plan_is_trivial() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA1A_0003);
    let g = random_generator(&mut rng);
    let trace = g.generate(9);
    let plan = ChannelPlan::balance_by_load(&trace, 1);
    assert!((0..trace.tables.len()).all(|t| plan.channel_of(t) == 0));
    let loads = channel_loads(&plan, &trace);
    assert_eq!(loads.len(), 1);
    assert_eq!(loads[0], trace.gathered_bytes());
    assert_eq!(imbalance_ratio(&loads), 1.0);
}
