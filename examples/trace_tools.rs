//! Trace tooling: generate a workload trace, characterize its skew, export
//! it to a file, re-import it bit-exactly, and simulate it with a
//! command-timeline visualization — the workflow for bringing external
//! production traces into the simulator.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```
//!
//! Outputs `target/trace_tools/trace.txt` and
//! `target/trace_tools/commands.json` (open the latter in
//! https://ui.perfetto.dev).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};

use recross_obs::{ChromeStreamSink, Recorder};
use recross_repro::dram::{dram_tracks, record_commands, DramConfig};
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::{execute, Prepared, Trim};
use recross_repro::workload::io::{read_trace, write_trace};
use recross_repro::workload::stats::{entropy_bits, gini, normalized_entropy};
use recross_repro::workload::TraceGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::Path::new("target/trace_tools");
    std::fs::create_dir_all(dir)?;

    // 1. Generate and characterize.
    let generator = TraceGenerator::criteo_scaled(64, 1000)
        .batch_size(4)
        .pooling(40);
    let trace = generator.generate(123);
    println!("{} ops, {} lookups", trace.ops(), trace.lookups());
    for table in [2usize, 8, 25] {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for op in trace.iter_ops().filter(|op| op.table == table) {
            for &row in &op.indices {
                *counts.entry(row).or_insert(0) += 1;
            }
        }
        let v: Vec<u64> = counts.values().copied().collect();
        println!(
            "table {table:>2}: {} distinct rows touched, gini {:.3}, entropy {:.2} bits (normalized {:.2})",
            v.len(),
            gini(&v),
            entropy_bits(&v),
            normalized_entropy(&v)
        );
    }

    // 2. Export / re-import bit-exactly.
    let path = dir.join("trace.txt");
    write_trace(&trace, BufWriter::new(File::create(&path)?))?;
    let back = read_trace(BufReader::new(File::open(&path)?))?;
    assert_eq!(back.ops(), trace.ops());
    println!(
        "round-tripped {} ops through {}",
        back.ops(),
        path.display()
    );

    // 3. Simulate the imported trace, recording its DRAM commands for a
    //    command-timeline visualization.
    let cfg = DramConfig::ddr5_4800();
    let Prepared { mut engine, plan } = Trim::bank_group(cfg.clone()).prepare(&back.tables);
    engine.trace_commands = true;
    let report = execute(&engine, &back, &plan(&back));
    println!(
        "TRiM-G on imported trace: {} cycles, row-hit rate {:.2}",
        report.cycles, report.row_hit_rate
    );
    let json = dir.join("commands.json");
    let mut rec = Recorder::new();
    rec.attach(Box::new(ChromeStreamSink::new(
        BufWriter::new(File::create(&json)?),
        cfg.cycles_to_ns(1),
    )));
    let root = rec.track("DRAM channel", None);
    let mut tracks = dram_tracks(&mut rec, root, &cfg);
    let commands = report.commands.expect("commands recorded");
    record_commands(&mut rec, &mut tracks, &cfg, &commands, 0);
    rec.finish()?;
    println!(
        "command timeline written to {} (open in Perfetto)",
        json.display()
    );
    Ok(())
}
