//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [table2|fig3|fig4|fig5|fig6|headline|fig9|fig10|fig11|fig12|fig13|fig14|fig15|table3|overheads|inst|channels|ddr4|training|all]...
//! repro [--quick] serve [--qps-sweep] [--bursty] [--sjf|--edf] [--seed=N] [--out=FILE]
//! repro [--quick] serve --slo-search [--slo-p99=US] [--bursty] [--sjf|--edf] [--seed=N] [--out=FILE]
//! repro [--quick] serve --tenants=SPEC [--slo-search] [--fifo|--sjf] [--seed=N] [--out=FILE]
//! repro [--quick] serve --trace-out=FILE [--agg-out=FILE] [--obs-summary[=FILE]] [--arch=cpu|recross] [--load=F] [--timeline-only] [...]
//! repro [--quick] run [--arch=cpu|recross] [--seed=N] [--trace-out=FILE] [--agg-out=FILE] [--obs-summary[=FILE]] [--out=FILE]
//! ```
//!
//! An unknown experiment name, an unknown flag, a removed flag, a value
//! flag without its `=VALUE`, or a flag that the chosen mode does not read
//! (`recross_bench::cli::check_modes`) exits with status 2 and one line on
//! stderr, before anything runs. With no name, `all` runs.
//!
//! `--quick` runs the 1/100-scale workload (seconds instead of minutes);
//! the default is the paper-scale Criteo-Kaggle workload. `serve` runs the
//! open-loop serving sweep (not part of `all`): offered-QPS fractions of
//! each architecture's saturation rate, reporting tail latency, goodput,
//! and shed rate as deterministic JSON. `serve --slo-search` instead runs
//! the closed-loop throughput search: a deterministic bisection over
//! offered QPS for the highest rate whose p99 latency meets the
//! `--slo-p99` bound (microseconds) with nothing shed.
//!
//! `--tenants=SPEC` switches `serve` to the multi-tenant deadline-aware
//! path: `SPEC` is a comma-separated list of
//! `name:share:process:deadline:priority` classes (e.g.
//! `rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low`; grammar documented
//! on `recross_bench::cli::parse_tenants`). Requests are tagged with
//! their tenant and absolute deadline, served EDF with deadline shedding
//! and adaptive linger by default (`--fifo`/`--sjf` override the dequeue
//! policy), and reports carry per-tenant latency/goodput/shed/miss
//! sections. Each class declares its own arrival process in the spec, so
//! the single-stream `--bursty` flag is rejected in tenant mode. With
//! `--slo-search` the bisection finds the max *aggregate* QPS at which
//! every tenant meets its own p99 deadline.
//!
//! `--trace-out=FILE`, `--agg-out=FILE` and `--obs-summary` switch `serve`
//! to the traced single-point mode: one architecture (`--arch`, default
//! recross) serves one offered-load point (`--load` × estimated capacity,
//! default 0.9) through the cross-layer tracer. `--trace-out` streams a
//! unified Perfetto timeline — tenant request lanes, per-channel batch
//! spans and queue-depth gauges, down to per-bank DRAM commands — to
//! `FILE` while the simulation runs (load it in
//! <https://ui.perfetto.dev>); no event buffer is retained, so long runs
//! stay flat in memory. `--agg-out` runs the online aggregation engine
//! alongside (per-tenant queue/service histograms, per-channel busy
//! fractions, span-duration stats, gauge percentiles) and writes its
//! deterministic JSON. `--obs-summary` (alone or `=FILE`) emits the
//! deterministic `ObsReport` JSON with per-channel busy/idle fractions,
//! queue-depth percentiles, and DRAM bottleneck attribution;
//! `--timeline-only` skips the per-command bank tracks. The traced run's
//! `"serve"` section is byte-identical to an untraced run of the same
//! seed — tracing never perturbs the simulation. With `--slo-search` the
//! search runs untraced as usual, then the found max-QPS point of
//! `--arch` is re-served through the same traced-point code.
//!
//! `run` is the closed-loop sibling (not part of `all`): the standard
//! fixed trace runs batch-by-batch on one architecture, and the full
//! DRAM command stream is traced. `--trace-out` streams the unified
//! timeline, `--agg-out` writes the online aggregates, and
//! `--obs-summary` emits the attribution JSON (folded incrementally, so no
//! command is retained).

use recross_bench::cli;
use recross_bench::experiments as exp;
use recross_bench::serving::{self, Traffic};
use recross_bench::workloads::{dram, standard_trace, Scale};

/// Every experiment name, in run order: the name on the command line,
/// whether `all` includes it, and what it runs. Both dispatch and the
/// unknown-name check read this table.
type Experiment = (&'static str, bool, fn(Scale, &[String]));
const EXPERIMENTS: &[Experiment] = &[
    ("table2", true, |_, _| table2()),
    ("fig3", true, |s, _| fig3(s)),
    ("fig4", true, |s, _| fig4(s)),
    ("fig5", true, |s, _| fig5(s)),
    ("fig6", true, |_, _| fig6()),
    ("headline", true, |s, _| headline(s)),
    ("fig9", true, |s, _| {
        sweep(
            "Figure 9: speedup over CPU vs embedding vector length",
            "vlen",
            exp::fig9_vector_length(s),
        )
    }),
    ("fig10", true, |s, _| {
        sweep(
            "Figure 10: speedup over CPU vs batch size (vlen 64)",
            "batch",
            exp::fig10_batch_size(s),
        )
    }),
    ("fig11", true, |s, _| {
        sweep(
            "Figure 11: speedup over CPU vs rank count (vlen 64)",
            "ranks",
            exp::fig11_rank_count(s),
        )
    }),
    ("fig12", true, |s, _| fig12(s)),
    ("fig13", true, |s, _| fig13(s)),
    ("fig14", true, |s, _| fig14(s)),
    ("fig15", true, |s, _| fig15(s)),
    ("table3", true, |_, _| table3()),
    ("overheads", true, |s, _| overheads(s)),
    ("inst", true, |s, _| inst(s)),
    ("channels", true, |s, _| channels(s)),
    ("ddr4", true, |s, _| ddr4(s)),
    ("training", true, |s, _| training(s)),
    ("serve", false, serve),
    ("run", false, run_traced),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).chain(["all"]).collect();
    let mut modes: Vec<String> = what.iter().map(|n| cli::mode(n, &args)).collect();
    modes.sort();
    modes.dedup();
    let checked = cli::check_flags(&args)
        .and_then(|()| cli::check_experiments(&what, &known))
        .and_then(|()| cli::check_modes(&args, &modes));
    if let Err(e) = checked {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let all = what.contains(&"all");
    for &(name, in_all, run) in EXPERIMENTS {
        if (all && in_all) || what.contains(&name) {
            run(scale, &args);
        }
    }
}

fn banner(s: &str) {
    println!("\n=== {s} ===");
}

fn table2() {
    banner("Table 2: system configuration");
    let d = dram();
    let t = d.topology;
    println!(
        "DRAM: DDR5-4800 ×8, {} channel(s), {} ranks, {} bank-groups × {} banks, {} subarrays/bank",
        t.channels, t.ranks, t.bank_groups, t.banks_per_group, t.subarrays_per_bank
    );
    let tm = d.timing;
    println!(
        "timing (cycles): tRCD={} tCL={} tRP={} tRAS={} tRC={} tBL={} tCCD_S={} tCCD_L={} tFAW={} tRRD_S={} tRRD_L={} tRA={}",
        tm.t_rcd, tm.t_cl, tm.t_rp, tm.t_ras, tm.t_rc, tm.t_bl, tm.t_ccd_s,
        tm.t_ccd_l, tm.t_faw, tm.t_rrd_s, tm.t_rrd_l, tm.t_ra
    );
    let e = d.energy;
    println!(
        "energy: ACT={} pJ, RD/WR={} pJ/bit, I/O={} pJ/bit, FP add={} pJ, FP mul={} pJ",
        e.act_pj, e.rd_wr_pj_per_bit, e.io_pj_per_bit, e.fp32_add_pj, e.fp32_mul_pj
    );
    let (r, g, b) = exp::region_split();
    println!("ReCross-d regions (banks/rank): R={r} G={g} B={b}");
}

fn fig3(scale: Scale) {
    banner("Figure 3: cumulative access share of the hottest p fraction of rows");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "table", "p=5%", "p=10%", "p=20%", "p=50%", "rows"
    );
    let g = recross_bench::workloads::generator(scale, 64);
    for (i, series) in exp::fig3_access_cdf(scale, 100) {
        let at = |p: f64| {
            series
                .iter()
                .min_by(|a, b| {
                    (a.0 - p)
                        .abs()
                        .partial_cmp(&(b.0 - p).abs())
                        .expect("no NaN")
                })
                .expect("non-empty")
                .1
        };
        println!(
            "{:>5} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>9}",
            i,
            at(0.05) * 100.0,
            at(0.10) * 100.0,
            at(0.20) * 100.0,
            at(0.50) * 100.0,
            g.tables()[i].rows
        );
    }
}

fn fig4(scale: Scale) {
    banner("Figure 4: load-imbalance ratio per NMP level (contiguous baseline layout)");
    println!(
        "{:>6} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "ranks", "level", "mean", "p50", "p90", "max"
    );
    for (ranks, level, s) in exp::fig4_imbalance(scale) {
        println!(
            "{ranks:>6} {level:>12} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            s.mean, s.p50, s.p90, s.max
        );
    }
}

fn fig5(scale: Scale) {
    banner("Figure 5: speedup (vs 2-rank rank-level) and internal bandwidth per NMP level");
    println!(
        "{:>6} {:>12} {:>9} {:>16}",
        "ranks", "level", "speedup", "intBW (B/cyc)"
    );
    for (ranks, level, speedup, bw) in exp::fig5_levels(scale) {
        println!("{ranks:>6} {level:>12} {speedup:>9.2} {bw:>16.1}");
    }
}

fn fig6() {
    banner("Figure 6: command timeline, 4 reads to 2 banks");
    for (mode, lines) in exp::fig6_timeline() {
        println!("--- {mode}");
        for l in lines {
            println!("  {l}");
        }
    }
}

fn headline(scale: Scale) {
    banner("Headline comparison (vlen 64, default batch)");
    let (g, trace) = standard_trace(scale, 64);
    let reports = exp::run_all(&g, &trace, &dram());
    let cpu_ns = reports[0].ns;
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "arch", "cycles", "ns", "speedup", "imb", "rowhit", "energy (uJ)", "op p50", "op p99"
    );
    for r in &reports {
        println!(
            "{:<12} {:>12} {:>12.0} {:>9.2} {:>8.2} {:>8.2} {:>12.2} {:>10} {:>10}",
            r.name,
            r.cycles,
            r.ns,
            cpu_ns / r.ns,
            r.imbalance.mean,
            r.row_hit_rate,
            r.energy.total_pj() / 1e6,
            r.op_latency.p50,
            r.op_latency.p99
        );
    }
}

fn sweep<X: std::fmt::Display>(title: &str, xname: &str, rows: Vec<(X, Vec<(String, f64)>)>) {
    banner(title);
    if let Some((_, first)) = rows.first() {
        print!("{xname:>6}");
        for (arch, _) in first {
            print!(" {arch:>11}");
        }
        println!();
    }
    for (x, cols) in rows {
        print!("{x:>6}");
        for (_, v) in cols {
            print!(" {v:>11.2}");
        }
        println!();
    }
}

fn fig12(scale: Scale) {
    banner("Figure 12: optimization breakdown (speedup over CPU)");
    for (name, speedup) in exp::fig12_ablation(scale) {
        println!("{name:<22} {speedup:>7.2}x");
    }
}

fn fig13(scale: Scale) {
    banner("Figure 13: load-imbalance ratio comparison");
    for (name, mean) in exp::fig13_bwp_imbalance(scale) {
        println!("{name:<18} mean imbalance {mean:>7.2}");
    }
}

fn fig14(scale: Scale) {
    banner("Figure 14: configuration exploration (d, c1–c5)");
    println!(
        "{:<12} {:>9} {:>16} {:>18}",
        "config", "speedup", "PE area (mm²)", "speedup per mm²"
    );
    for (name, speedup, area, eff) in exp::fig14_configurations(scale) {
        println!("{name:<12} {speedup:>9.2} {area:>16.2} {eff:>18.2}");
    }
}

fn fig15(scale: Scale) {
    banner("Figure 15: energy breakdown normalized to CPU");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "arch", "ACT", "RD/WR", "I/O", "PE", "static", "total"
    );
    for (name, e) in exp::fig15_energy(scale) {
        println!(
            "{name:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            e[0], e[1], e[2], e[3], e[4], e[5]
        );
    }
}

fn table3() {
    banner("Table 3: extra area overhead breakdown");
    println!(
        "{:<12} {:>22} {:>22}",
        "solution", "rank PE (buffer, mm²)", "BG/bank PE (chip, mm²)"
    );
    for (name, a) in exp::table3_area() {
        println!(
            "{name:<12} {:>22.2} {:>22.2}",
            a.buffer_chip_mm2, a.dram_chip_mm2
        );
    }
}

fn inst(scale: Scale) {
    banner("§4.2 ablation: two-stage vs C/A-only instruction transfer");
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "vlen", "two-stage cyc", "C/A-only cyc", "slowdown"
    );
    for (dim, fast, slow, ratio) in exp::instruction_transfer_ablation(scale) {
        println!("{dim:>6} {fast:>14} {slow:>14} {ratio:>10.2}");
    }
}

fn channels(scale: Scale) {
    banner("Beyond-paper: ReCross multi-channel scaling");
    println!("{:>9} {:>12} {:>9}", "channels", "cycles", "speedup");
    for (ch, cycles, speedup) in exp::channel_scaling(scale) {
        println!("{ch:>9} {cycles:>12} {speedup:>9.2}");
    }
}

fn ddr4(scale: Scale) {
    banner("Beyond-paper: DDR4-3200 sensitivity (speedup over CPU)");
    for (name, speedup) in exp::ddr4_sensitivity(scale) {
        println!("{name:<12} {speedup:>7.2}x");
    }
}

fn training(scale: Scale) {
    banner("Beyond-paper: §4.5 online-training (read-modify-write) overhead");
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>10}",
        "arch", "updates", "inference cyc", "training cyc", "overhead"
    );
    for (arch, frac, inf, tr, overhead) in exp::training_updates(scale) {
        println!(
            "{arch:<10} {:>7.0}% {inf:>14} {tr:>14} {overhead:>10.2}",
            frac * 100.0
        );
    }
}

fn serve(scale: Scale, args: &[String]) {
    use recross_serve::QueuePolicy;

    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let tenants = cli::parse_tenants(args).unwrap_or_else(|e| fail(e));
    let traffic = match &tenants {
        Some(mix) => Traffic::Tenants(mix),
        None => Traffic::Stream {
            bursty: args.iter().any(|a| a == "--bursty"),
        },
    };
    // Tenant mode defaults to EDF (deadlines are what it is for); the
    // single-class sweep keeps its FIFO default. `--fifo`/`--sjf`/`--edf`
    // force a policy in either mode.
    let policy = if args.iter().any(|a| a == "--fifo") {
        QueuePolicy::Fifo
    } else if args.iter().any(|a| a == "--sjf") {
        QueuePolicy::ShortestJobFirst
    } else if args.iter().any(|a| a == "--edf") || tenants.is_some() {
        QueuePolicy::Edf
    } else {
        QueuePolicy::Fifo
    };
    let seed = cli::parse_seed(args).unwrap_or_else(|e| fail(e));
    let slo_p99_us = cli::parse_slo_p99(args).unwrap_or_else(|e| fail(e));
    let load = cli::parse_load(args).unwrap_or_else(|e| fail(e));
    let arch = cli::parse_arch(args).unwrap_or_else(|e| fail(e));
    let out = cli::value_of(args, "--out");

    let slo = args.iter().any(|a| a == "--slo-search");
    let traced = cli::traced(args);
    let json = if !slo {
        if traced {
            serve_trace_point(scale, traffic, policy, seed, load, arch, args)
        } else {
            serve_sweep(scale, traffic, policy, seed)
        }
    } else {
        let (json, rates) = match traffic {
            Traffic::Tenants(mix) => serve_tenant_slo(scale, mix, policy, seed),
            Traffic::Stream { bursty } => serve_slo_search(scale, bursty, policy, seed, slo_p99_us),
        };
        if traced {
            // Re-serve the found max-QPS point traced. `rates` carries
            // `(arch, max_qps, bracket_hi_qps)` per searched architecture;
            // the capacity estimate is the bracket's `hi / 2`.
            let (_, max_qps, bracket_hi) = rates
                .iter()
                .find(|(a, _, _)| a == arch)
                .unwrap_or_else(|| fail(format!("search produced no rate for {arch}")));
            if *max_qps > 0.0 {
                let load = max_qps / (bracket_hi / 2.0);
                serve_trace_point(scale, traffic, policy, seed, load, arch, args);
            } else {
                println!("{arch}: no SLO-compliant rate in bracket; nothing to trace");
            }
        }
        json
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Writes `contents` to `path` (exit 2 on failure) and prints what
/// landed where.
fn write_artifact(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {what} {path}");
}

/// Emits an observability summary JSON per the `--obs-summary` form.
fn emit_obs_summary(args: &[String], json: &str) {
    match cli::parse_obs_summary(args) {
        cli::ObsSummary::Off => {}
        cli::ObsSummary::Stdout => println!("{json}"),
        cli::ObsSummary::File(path) => write_artifact(path, &format!("{json}\n"), "obs summary"),
    }
}

/// Opens the `--trace-out` target for incremental writing (exit 2 on
/// failure).
fn open_stream(path: &str) -> Box<dyn std::io::Write> {
    match std::fs::File::create(path) {
        Ok(f) => Box::new(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// One human-readable line on the recorder's memory footprint and sink
/// drop counters.
fn recorder_stats_line(heap: usize, sinks: &[recross_obs::SinkStats]) -> String {
    let sinks = if sinks.is_empty() {
        "none".to_string()
    } else {
        sinks
            .iter()
            .map(|s| format!("{} ({} dropped)", s.kind, s.dropped))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "recorder: heap high-water {:.1} KiB; sinks: {sinks}",
        heap as f64 / 1024.0
    )
}

/// Serves one traced point of `arch` at `load` × capacity, writes the
/// requested artifacts, and returns the point's JSON document.
fn serve_trace_point(
    scale: Scale,
    traffic: Traffic,
    policy: recross_serve::QueuePolicy,
    seed: u64,
    load: f64,
    arch: &str,
    args: &[String],
) -> String {
    let (mix, bursty) = match traffic {
        Traffic::Stream { bursty } => (None, bursty),
        Traffic::Tenants(mix) => (Some(mix), false),
    };
    let dram_tracks = !args.iter().any(|a| a == "--timeline-only");
    let trace_out = cli::value_of(args, "--trace-out");
    let agg_out = cli::value_of(args, "--agg-out");

    banner("recross-obs: traced serving point (request lanes down to DRAM commands)");
    let opts = serving::TraceOptions {
        stream: trace_out.map(open_stream),
        agg: agg_out.is_some(),
        buffered: false,
    };
    let p = serving::traced_point_with(
        scale,
        arch,
        mix,
        load,
        bursty,
        policy,
        seed,
        dram_tracks,
        opts,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write streamed trace: {e}");
        std::process::exit(2);
    });
    println!(
        "{}: {:.0} offered qps ({:.2}x of {:.0} capacity qps), {} requests: \
         {} completed, {} late, {} queue-shed, {} deadline-shed",
        p.arch,
        p.offered_qps,
        p.load,
        p.capacity_qps,
        p.obs.requests,
        p.obs.completed,
        p.obs.late,
        p.obs.queue_shed,
        p.obs.deadline_shed
    );
    println!(
        "{:>3} {:>7} {:>10} {:>21} {:>11}",
        "ch", "busy", "dispatches", "depth p50/p99/max", "shed q/d"
    );
    for (ch, c) in p.obs.channels.iter().enumerate() {
        println!(
            "{ch:>3} {:>6.1}% {:>10} {:>17}/{}/{} {:>8}/{}",
            c.busy_fraction * 100.0,
            c.dispatches,
            c.depth_p50,
            c.depth_p99,
            c.depth_max,
            c.queue_shed,
            c.deadline_shed
        );
        if let Some(a) = &c.attribution {
            println!(
                "    {}",
                recross_dram::attribution::summarize(&format!("ch{ch}"), a)
            );
        }
    }
    println!("{}", recorder_stats_line(p.obs.heap_capacity, &p.obs.sinks));
    if let Some(path) = trace_out {
        println!("wrote Perfetto timeline {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = agg_out {
        let agg = p.agg.as_ref().expect("agg enabled by --agg-out");
        write_artifact(path, &format!("{}\n", agg.to_json()), "online aggregates");
    }
    emit_obs_summary(args, &p.obs.to_json());
    serving::traced_point_to_json(&p, scale, mix, bursty, policy, seed)
}

fn run_traced(scale: Scale, args: &[String]) {
    use recross_bench::runtrace;

    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let arch = cli::parse_arch(args).unwrap_or_else(|e| fail(e));
    let seed = cli::parse_seed(args).unwrap_or_else(|e| fail(e));
    let trace_out = cli::value_of(args, "--trace-out");
    let agg_out = cli::value_of(args, "--agg-out");

    banner("recross-obs: closed-loop traced run (engine batches down to DRAM commands)");
    let opts = serving::TraceOptions {
        stream: trace_out.map(open_stream),
        agg: agg_out.is_some(),
        buffered: false,
    };
    let rt = runtrace::closed_loop_trace_with(scale, arch, seed, 0, opts)
        .unwrap_or_else(|e| fail(format!("cannot write streamed trace: {e}")));
    println!(
        "{} ({}): {} batches, {} lookups, {} cycles, {} DRAM commands",
        rt.arch,
        rt.engine,
        rt.batches.len(),
        rt.lookups,
        rt.total_cycles,
        rt.command_count
    );
    println!("{}", rt.summary_line());
    let (heap, sinks) = rt.recorder_stats();
    println!("{}", recorder_stats_line(heap, &sinks));
    if let Some(path) = trace_out {
        println!("wrote Perfetto timeline {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = agg_out {
        let agg = rt.aggregates().expect("agg enabled by --agg-out");
        write_artifact(path, &format!("{}\n", agg.to_json()), "online aggregates");
    }
    let json = rt.to_json(scale, seed);
    emit_obs_summary(args, &json);
    match cli::value_of(args, "--out") {
        Some(path) => write_artifact(path, &format!("{json}\n"), "report"),
        None => println!("{json}"),
    }
}

fn serve_sweep(
    scale: Scale,
    traffic: Traffic,
    policy: recross_serve::QueuePolicy,
    seed: u64,
) -> String {
    let tenants = matches!(traffic, Traffic::Tenants(_));
    if tenants {
        banner("recross-serve: multi-tenant sweep (deadline-aware batching queue per channel)");
        println!(
            "{:<10} {:>6} {:<8} {:>12} {:>12} {:>10} {:>9} {:>9}",
            "arch", "load", "tenant", "p50 (us)", "p99 (us)", "goodput", "shed", "miss"
        );
    } else {
        banner("recross-serve: offered-QPS sweep (open-loop arrivals, batching queue per channel)");
        println!(
            "{:<10} {:>9} {:>14} {:>12} {:>10} {:>12} {:>12} {:>9} {:>7}",
            "arch",
            "load",
            "offered qps",
            "goodput",
            "shed",
            "p50 (us)",
            "p99 (us)",
            "util",
            "cache"
        );
    }
    let sweeps = serving::sweep(scale, traffic, serving::SWEEP_FRACTIONS, policy, seed);
    for s in &sweeps {
        for (fraction, r) in &s.points {
            if !tenants {
                let util = r
                    .channels
                    .iter()
                    .map(|c| c.utilization)
                    .fold(0.0f64, f64::max);
                println!(
                    "{:<10} {:>8.2}x {:>14.0} {:>12.0} {:>9.1}% {:>12.1} {:>12.1} {:>9.2} {:>6.0}%",
                    s.arch,
                    fraction,
                    r.offered_qps,
                    r.goodput_qps(),
                    r.shed_rate() * 100.0,
                    r.cycles_to_us(r.latency.quantile(0.5)),
                    r.cycles_to_us(r.latency.quantile(0.99)),
                    util,
                    r.cache_hit_rate() * 100.0
                );
            }
            // A stream's reports carry no tenant sections.
            for (i, t) in r.tenants.iter().enumerate() {
                println!(
                    "{:<10} {:>5.2}x {:<8} {:>12.1} {:>12.1} {:>10.0} {:>8.1}% {:>8.1}%",
                    s.arch,
                    fraction,
                    t.name,
                    r.cycles_to_us(t.latency.quantile(0.5)),
                    r.cycles_to_us(t.latency.quantile(0.99)),
                    r.tenant_goodput_qps(i),
                    t.shed_rate() * 100.0,
                    t.deadline_miss_rate() * 100.0
                );
            }
        }
    }
    serving::sweep_to_json(&sweeps, scale, traffic, policy, seed)
}

fn serve_slo_search(
    scale: Scale,
    bursty: bool,
    policy: recross_serve::QueuePolicy,
    seed: u64,
    slo_p99_us: f64,
) -> (String, Vec<(String, f64, f64)>) {
    banner("recross-serve: closed-loop SLO throughput search (bisection over offered QPS)");
    let reports = serving::slo_search(scale, bursty, policy, seed, slo_p99_us);
    println!(
        "{:<10} {:>14} {:>14} {:>8} {:>14} {:>7}",
        "arch", "slo p99 (us)", "max qps", "probes", "last p99 (us)", "cache"
    );
    for r in &reports {
        let last_met = r.probes.iter().rev().find(|p| p.met);
        println!(
            "{:<10} {:>14.1} {:>14.0} {:>8} {:>14.1} {:>6.0}%",
            r.arch,
            r.slo_p99_us,
            r.max_qps,
            r.probes.len(),
            last_met.map_or(f64::NAN, |p| p.p99_us),
            r.cache_total().hit_rate() * 100.0
        );
    }
    let rates = reports
        .iter()
        .map(|r| (r.arch.clone(), r.max_qps, r.bracket_hi_qps))
        .collect();
    (
        serving::slo_to_json(&reports, scale, bursty, policy, seed),
        rates,
    )
}

fn serve_tenant_slo(
    scale: Scale,
    mix: &recross_serve::TenantMix,
    policy: recross_serve::QueuePolicy,
    seed: u64,
) -> (String, Vec<(String, f64, f64)>) {
    banner("recross-serve: multi-tenant SLO search (max aggregate QPS, every tenant on time)");
    let reports = serving::tenant_slo_search(scale, mix, policy, seed, serving::SLO_ITERATIONS);
    println!(
        "{:<10} {:>14} {:>8} {:<8} {:>14} {:>14}",
        "arch", "max qps", "probes", "tenant", "p99 (us)", "deadline (us)"
    );
    for r in &reports {
        let last_met = r.probes.iter().rev().find(|p| p.met);
        match last_met {
            Some(p) => {
                for t in &p.tenants {
                    println!(
                        "{:<10} {:>14.0} {:>8} {:<8} {:>14.1} {:>14.1}",
                        r.arch,
                        r.max_qps,
                        r.probes.len(),
                        t.name,
                        t.p99_us,
                        t.deadline_us
                    );
                }
            }
            None => println!(
                "{:<10} {:>14.0} {:>8} (no passing probe in bracket)",
                r.arch,
                r.max_qps,
                r.probes.len()
            ),
        }
    }
    let rates = reports
        .iter()
        .map(|r| (r.arch.clone(), r.max_qps, r.bracket_hi_qps))
        .collect();
    (
        serving::tenant_slo_to_json(&reports, scale, mix, policy, seed),
        rates,
    )
}

fn overheads(scale: Scale) {
    banner("§5.6: partitioning and mapping-table overheads");
    let (lp_ms, bytes, frac) = exp::partitioning_overheads(scale);
    println!("LP partitioning time: {lp_ms:.1} ms (paper: within 5 s via Gurobi)");
    println!(
        "mapping table: {:.1} MiB = {:.2}% of model size (paper: < 4%)",
        bytes as f64 / (1024.0 * 1024.0),
        frac * 100.0
    );
}
