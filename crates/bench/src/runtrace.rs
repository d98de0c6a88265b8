//! Closed-loop trace capture for `repro run`: run the standard workload
//! batch-by-batch through one prepared accelerator session, record every
//! DRAM command, and export a unified timeline plus bottleneck
//! attribution.
//!
//! This is the closed-loop sibling of the serving tracer
//! ([`recross_serve::ServeObs`]): no arrivals or queues, just the fixed
//! trace run back-to-back — batch `i+1` starts the cycle batch `i`
//! finishes. The recorder carries one `engine` track with a span per
//! batch and, under a `DRAM channel 0` root, the per-bank command tracks
//! and per-region PE/DQ occupancy tracks from
//! [`recross_dram::traceviz`]. Commands are priced by
//! [`service_traced`](recross_nmp::session::ServiceSession::service_traced),
//! so the reported cycles match an untraced run of the same trace
//! exactly, and everything is deterministic in the seed — reruns are
//! byte-identical.
//!
//! Attribution is folded incrementally through
//! [`recross_dram::attribution::AttributionBuilder`] as batches complete,
//! so the stored summary never needs the full command vector. With
//! [`TraceOptions`] the timeline is streamed to a writer and/or kept in
//! memory as Perfetto text, and aggregated online, while the run
//! executes; with `buffered: false` resident memory stays bounded for
//! long runs (`repro run --trace-out`).

use std::cell::RefCell;
use std::rc::Rc;

use recross_dram::attribution::{summarize, AttributionBuilder, CommandAttribution};
use recross_dram::traceviz::{dram_tracks, record_commands};
use recross_dram::Cycle;
use recross_nmp::multichannel::ChannelPlan;
use recross_obs::agg::{Aggregates, Aggregator};
use recross_obs::{fmt_f64, json_string, ChromeStreamSink, Recorder, SharedWriter, SinkStats};

use crate::serving::{arch_sessions, scale_name, TraceOptions};
use crate::workloads::{dram, generator, Scale};

/// A captured closed-loop run: per-batch cycle costs, the incrementally
/// folded bottleneck attribution, and the unified timeline when it was
/// kept in memory.
#[derive(Debug)]
pub struct RunTrace {
    /// Architecture name as it appears in the reports.
    pub arch: String,
    /// The session's concrete engine name (e.g. `ReCross-d`).
    pub engine: String,
    /// `(batch index, start cycle, service cycles)` per batch, in run
    /// order.
    pub batches: Vec<(usize, Cycle, Cycle)>,
    /// Total run length in DRAM cycles (the last batch's end).
    pub total_cycles: Cycle,
    /// Total embedding lookups serviced.
    pub lookups: u64,
    /// DRAM commands folded into the attribution.
    pub command_count: u64,
    attribution: CommandAttribution,
    agg: Option<Aggregates>,
    perfetto: Option<String>,
    heap_capacity: usize,
    sinks: Vec<SinkStats>,
}

impl RunTrace {
    /// Cycle-level bottleneck attribution over the whole command trace
    /// (C/A bus vs data bus vs tRCD/tRP overlap vs bank conflicts),
    /// folded incrementally as the run executed — identical to a
    /// one-shot `CommandAttribution::from_commands` over the full
    /// retained trace.
    pub fn attribution(&self) -> CommandAttribution {
        self.attribution.clone()
    }

    /// Online aggregates (span-duration stats per class, counter-gauge
    /// percentiles), when the run was captured with
    /// [`TraceOptions::agg`] on.
    pub fn aggregates(&self) -> Option<&Aggregates> {
        self.agg.as_ref()
    }

    /// The unified Perfetto / Chrome-trace timeline (engine batch spans +
    /// per-bank DRAM command tracks) as a JSON string. `None` unless
    /// [`TraceOptions::buffered`] was on.
    pub fn perfetto(&self) -> Option<String> {
        self.perfetto.clone()
    }

    /// Per-sink drop counters and the recorder's capacity index at the
    /// end of the run ([`Recorder::heap_capacity`]: summed container
    /// capacities, not bytes), for human-readable output.
    pub fn recorder_stats(&self) -> (usize, Vec<SinkStats>) {
        (self.heap_capacity, self.sinks.clone())
    }

    /// One human-readable attribution summary line.
    pub fn summary_line(&self) -> String {
        summarize(&self.arch, &self.attribution())
    }

    /// The run as one JSON document: metadata envelope, per-batch cycle
    /// costs, and the bottleneck attribution under `"dram"`
    /// (deterministic bytes for a given input, whatever the
    /// [`TraceOptions`]).
    pub fn to_json(&self, scale: Scale, seed: u64) -> String {
        let batches: Vec<String> = self
            .batches
            .iter()
            .map(|(i, start, cycles)| {
                format!("{{\"batch\":{i},\"start_cycle\":{start},\"cycles\":{cycles}}}")
            })
            .collect();
        format!(
            concat!(
                "{{\"experiment\":\"run_trace\",\"scale\":{},\"arch\":{},",
                "\"engine\":{},",
                "\"seed\":{},\"batches\":[{}],\"total_cycles\":{},",
                "\"commands\":{},\"throughput_lookups_per_cycle\":{},",
                "\"dram\":{}}}"
            ),
            json_string(scale_name(scale)),
            json_string(&self.arch),
            json_string(&self.engine),
            seed,
            batches.join(","),
            self.total_cycles,
            self.command_count,
            fmt_f64(self.lookups as f64 / self.total_cycles.max(1) as f64),
            self.attribution.to_json()
        )
    }
}

/// Runs the standard workload (dim-64 trace at the given scale and seed)
/// closed-loop through the named architecture's prepared session,
/// tracing every DRAM command. The whole trace maps to one channel
/// (closed-loop runs are single-server; the serving path is where
/// multi-channel sharding lives). `max_batches` caps how many trace
/// batches are traced (0 means all).
///
/// [`TraceOptions`] choose where the timeline goes: streamed to a writer
/// while the run executes, aggregated online, and/or kept in memory for
/// [`RunTrace::perfetto`] (`buffered`). Attribution and `to_json` do not
/// depend on the options, since both fold incrementally. Returns `Err`
/// only when the stream writer fails.
pub fn closed_loop_trace_with(
    scale: Scale,
    arch: &str,
    seed: u64,
    max_batches: usize,
    opts: TraceOptions,
) -> std::io::Result<RunTrace> {
    let d = dram();
    let mut trace = generator(scale, 64).generate(seed);
    if max_batches > 0 {
        trace.batches.truncate(max_batches);
    }
    let plan = ChannelPlan::balance_by_load(&trace, 1);
    let batch_hint = scale.batch_size() as f64;
    let session = &mut arch_sessions(arch, &trace, &plan, batch_hint)[0];

    let ns = d.cycles_to_ns(1);
    let mut rec = Recorder::new();
    let memory = opts.buffered.then(SharedWriter::new);
    if let Some(m) = &memory {
        rec.attach(Box::new(ChromeStreamSink::new(m.clone(), ns)));
    }
    if let Some(w) = opts.stream {
        rec.attach(Box::new(ChromeStreamSink::new(w, ns)));
    }
    let agg_handle = opts.agg.then(|| {
        let h = Rc::new(RefCell::new(Aggregator::default()));
        rec.attach(Box::new(h.clone()));
        h
    });
    let engine = rec.track("engine", None);
    let ch_root = rec.track("DRAM channel 0", None);
    let mut tracks = dram_tracks(&mut rec, ch_root, &d);

    let mut cursor: Cycle = 0;
    let mut batches = Vec::with_capacity(trace.batches.len());
    let mut builder = AttributionBuilder::new(&d);
    let mut lookups: u64 = 0;
    for (i, b) in trace.batches.iter().enumerate() {
        let (cycles, trace_cmds) = session.service_traced(b);
        rec.span(
            engine,
            &format!("batch#{i} ({} lookups)", b.ops.len()),
            cursor,
            cursor + cycles,
        );
        record_commands(&mut rec, &mut tracks, &d, &trace_cmds, cursor);
        builder.fold(&trace_cmds, cursor);
        batches.push((i, cursor, cycles));
        lookups += b.ops.len() as u64;
        cursor += cycles;
    }
    rec.finish()?;

    Ok(RunTrace {
        arch: arch.to_string(),
        engine: session.name().to_string(),
        batches,
        total_cycles: cursor,
        lookups,
        command_count: builder.commands(),
        attribution: builder.snapshot(cursor),
        agg: agg_handle.map(|h| h.borrow().snapshot()),
        perfetto: memory.map(|m| m.contents()),
        heap_capacity: rec.heap_capacity(),
        sinks: rec.sink_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_obs::SharedWriter;

    fn buffered(scale: Scale, arch: &str, seed: u64, max_batches: usize) -> RunTrace {
        closed_loop_trace_with(scale, arch, seed, max_batches, TraceOptions::default())
            .expect("in-memory tracing cannot fail on IO")
    }

    #[test]
    fn closed_loop_trace_is_consistent_and_deterministic() {
        let rt = buffered(Scale::Tiny, "ReCross", 0xD17A, 0);
        assert_eq!(rt.arch, "ReCross");
        assert_eq!(rt.engine, "ReCross-d");
        assert!(!rt.batches.is_empty());
        assert!(rt.total_cycles > 0);
        assert!(rt.command_count > 0);
        // Batches tile the run back-to-back.
        let mut expect = 0;
        for &(_, start, cycles) in &rt.batches {
            assert_eq!(start, expect);
            expect += cycles;
        }
        assert_eq!(expect, rt.total_cycles);
        // Attribution covers the run (display durations may spill past
        // the last command's issue cycle).
        let a = rt.attribution();
        assert!(a.span >= rt.total_cycles);
        assert!(a.reads > 0);

        let rt2 = buffered(Scale::Tiny, "ReCross", 0xD17A, 0);
        assert_eq!(rt.perfetto(), rt2.perfetto(), "same seed, same bytes");
        assert_eq!(
            rt.to_json(Scale::Tiny, 0xD17A),
            rt2.to_json(Scale::Tiny, 0xD17A)
        );
    }

    #[test]
    fn traced_cycles_match_untraced_run() {
        // Pricing through service_traced must equal plain service.
        let trace = generator(Scale::Tiny, 64).generate(7);
        let plan = ChannelPlan::balance_by_load(&trace, 1);
        let session = &mut arch_sessions("CPU", &trace, &plan, 2.0)[0];
        let plain: Cycle = trace.batches.iter().map(|b| session.service(b)).sum();
        let rt = buffered(Scale::Tiny, "CPU", 7, 0);
        assert_eq!(rt.total_cycles, plain);
    }

    #[test]
    fn json_and_exports_are_well_formed() {
        let rt = buffered(Scale::Tiny, "CPU", 3, 1);
        assert_eq!(rt.batches.len(), 1, "max_batches caps the run");
        let json = rt.to_json(Scale::Tiny, 3);
        assert!(json.contains("\"experiment\":\"run_trace\""));
        assert!(json.contains("\"arch\":\"CPU\""));
        assert!(json.contains("\"dram\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let p = rt.perfetto().expect("buffered capture keeps the timeline");
        assert!(p.contains("\"engine\""));
        assert!(p.contains("rank 0 / bg 0 / bank 0"));
        assert!(p.contains("batch#0"));
        assert!(rt.summary_line().contains("CPU"));
    }

    #[test]
    fn streamed_capture_matches_buffered_without_retaining_commands() {
        let buffered = buffered(Scale::Tiny, "ReCross", 0xD17B, 0);

        let out = SharedWriter::new();
        let streamed = closed_loop_trace_with(
            Scale::Tiny,
            "ReCross",
            0xD17B,
            0,
            TraceOptions {
                stream: Some(Box::new(out.clone())),
                agg: true,
                buffered: false,
            },
        )
        .expect("stream writer cannot fail");

        // The streamed file holds the bytes the in-memory capture kept,
        // and the run's JSON (incremental attribution included) does not
        // depend on where the timeline went.
        assert_eq!(out.contents(), buffered.perfetto().unwrap());
        assert_eq!(
            streamed.to_json(Scale::Tiny, 0xD17B),
            buffered.to_json(Scale::Tiny, 0xD17B)
        );
        assert!(streamed.perfetto().is_none());
        assert_eq!(streamed.command_count, buffered.command_count);

        // Nothing dropped, and the online aggregates saw the whole run:
        // one `batch` span per batch, makespan covering the run.
        let (_, sinks) = streamed.recorder_stats();
        assert!(sinks.iter().all(|s| s.dropped == 0));
        let agg = streamed.aggregates().expect("agg enabled");
        let batch_spans = agg
            .spans
            .iter()
            .find(|(name, _)| name == "batch")
            .expect("batch span class");
        assert_eq!(batch_spans.1.count(), streamed.batches.len() as u64);
        assert!(agg.makespan_cycles >= streamed.total_cycles);
    }
}
