//! A timing decorator for `ServiceSession`: it forwards every call to the
//! wrapped session unchanged and logs the host time of each `service` and
//! `service_traced` call, telling memo hits from misses by the `stats()`
//! delta around the call.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use recross_dram::{Cycle, IssuedCommand};
use recross_nmp::{ServiceSession, SessionStats};
use recross_workload::Batch;

/// One logged call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Architecture key, as in the per-layer metric names.
    pub arch: &'static str,
    /// What the benchmark was doing when the call was made.
    pub phase: Phase,
    /// Host seconds spent in the call.
    pub secs: f64,
    /// Priced from the memo.
    pub hit: bool,
    /// Memo entries evicted by the call.
    pub evictions: u64,
    /// DRAM commands returned (`service_traced` only).
    pub commands: u64,
}

/// The benchmark phase a call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The capacity estimate made before serving.
    Capacity,
    /// Batches dispatched by the serving simulation.
    Serve,
}

#[derive(Debug)]
struct Inner {
    phase: Phase,
    calls: Vec<Call>,
}

/// The call log shared by every wrapped session of a run.
#[derive(Debug, Clone)]
pub struct CallLog(Rc<RefCell<Inner>>);

impl Default for CallLog {
    fn default() -> Self {
        CallLog(Rc::new(RefCell::new(Inner {
            phase: Phase::Capacity,
            calls: Vec::new(),
        })))
    }
}

impl CallLog {
    /// Tags the calls made from now on.
    pub fn set_phase(&self, phase: Phase) {
        self.0.borrow_mut().phase = phase;
    }

    /// Every call logged so far, in call order.
    pub fn calls(&self) -> Vec<Call> {
        self.0.borrow().calls.clone()
    }

    /// Host seconds spent in calls logged so far.
    pub fn total_secs(&self) -> f64 {
        self.0.borrow().calls.iter().map(|c| c.secs).sum()
    }

    fn push(&self, mut call: Call) {
        let mut inner = self.0.borrow_mut();
        call.phase = inner.phase;
        inner.calls.push(call);
    }
}

/// A session that times the session it wraps.
pub struct TimedSession {
    inner: Box<dyn ServiceSession>,
    arch: &'static str,
    log: CallLog,
}

impl TimedSession {
    /// Runs `f` on the wrapped session and logs it; `f` also returns the
    /// number of commands it got back.
    fn logged<T>(&mut self, f: impl FnOnce(&mut dyn ServiceSession) -> (T, u64)) -> T {
        let before = self.inner.stats();
        let start = Instant::now();
        let (out, commands) = f(self.inner.as_mut());
        let secs = start.elapsed().as_secs_f64();
        let delta = self.inner.stats().since(&before);
        let call = Call {
            arch: self.arch,
            phase: Phase::Capacity,
            secs,
            hit: delta.hits > 0,
            evictions: delta.evictions,
            commands,
        };
        self.log.push(call);
        out
    }
}

impl ServiceSession for TimedSession {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service(&mut self, batch: &Batch) -> Cycle {
        self.logged(|s| (s.service(batch), 0))
    }

    fn service_traced(&mut self, batch: &Batch) -> (Cycle, Vec<IssuedCommand>) {
        self.logged(|s| {
            let traced = s.service_traced(batch);
            let n = traced.1.len() as u64;
            (traced, n)
        })
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn set_cache_enabled(&mut self, enabled: bool) {
        self.inner.set_cache_enabled(enabled);
    }

    fn set_cache_capacity(&mut self, capacity: usize) {
        self.inner.set_cache_capacity(capacity);
    }
}

/// Wraps each session so that its calls land in `log` under `arch`.
pub fn wrap(
    sessions: Vec<Box<dyn ServiceSession>>,
    arch: &'static str,
    log: &CallLog,
) -> Vec<Box<dyn ServiceSession>> {
    sessions
        .into_iter()
        .map(|inner| {
            Box::new(TimedSession {
                inner,
                arch,
                log: log.clone(),
            }) as Box<dyn ServiceSession>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{open_arch, ARCHS};
    use crate::spans::Spans;
    use recross_bench::serving::batcher_config;
    use recross_bench::workloads::{dram, generator, Scale};
    use recross_nmp::ChannelPlan;
    use recross_serve::{simulate_sessions, ArrivalProcess, QueuePolicy};

    /// Wrapping a session changes no byte of the serving report, and the
    /// log sees exactly one call per dispatched batch.
    #[test]
    fn wrapped_and_bare_sessions_give_identical_reports() {
        let cps = dram().cycles_per_sec();
        let trace = generator(Scale::Tiny, 64)
            .batch_size(1)
            .batches(32)
            .generate(11);
        let plan = ChannelPlan::balance_by_load(&trace, 2);
        let cfg = batcher_config(QueuePolicy::Fifo);
        for (key, arch) in ARCHS {
            let log = CallLog::default();
            log.set_phase(Phase::Serve);
            let mut bare = open_arch(arch, &trace, &plan, cfg.max_batch as f64, &Spans::default());
            let mut timed = wrap(
                open_arch(arch, &trace, &plan, cfg.max_batch as f64, &Spans::default()),
                key,
                &log,
            );
            // Two rates over the same sessions, so the second run hits the memo.
            for qps in [20_000.0, 80_000.0] {
                let arrivals = ArrivalProcess::poisson(qps).timestamps(32, cps, 5);
                let a = simulate_sessions(arch, &trace, &plan, &arrivals, cfg, cps, &mut bare);
                let b = simulate_sessions(arch, &trace, &plan, &arrivals, cfg, cps, &mut timed);
                assert_eq!(a.to_json(), b.to_json(), "{arch} at {qps} qps");
            }
            let calls = log.calls();
            let hits = calls.iter().filter(|c| c.hit).count() as u64;
            let stats: SessionStats = timed.iter().fold(SessionStats::default(), |acc, s| {
                let st = s.stats();
                SessionStats {
                    hits: acc.hits + st.hits,
                    misses: acc.misses + st.misses,
                    evictions: acc.evictions + st.evictions,
                }
            });
            assert_eq!(calls.len() as u64, stats.hits + stats.misses, "{arch}");
            assert_eq!(hits, stats.hits, "{arch}");
            assert!(hits > 0, "{arch}: the replayed requests must hit the memo");
        }
    }
}
