//! The event-driven serving simulator.
//!
//! One server per memory channel (channels are independent in DDR — see
//! `recross_nmp::multichannel`): each channel owns a batching queue and a
//! prepared accelerator [`ServiceSession`], requests are sharded across
//! channels by the table partition ([`ChannelPlan`]), and a request
//! completes when its last channel part does. The loop is a textbook
//! discrete-event simulation — two event sources (next arrival, next batch
//! trigger), always advance the earlier — and everything is integer
//! cycles, so runs are exactly reproducible.
//!
//! Sessions are opened once per channel ([`open_sessions`]) and can be
//! reused across many [`simulate_sessions`] runs over the same trace and
//! plan — that is what makes a QPS sweep or an SLO search affordable: the
//! session keeps its resolved layout/placement state *and* its memoized
//! service-time cache across runs, so a batch composition priced at one
//! offered rate is free at every other rate.
//!
//! The tenant-aware entry points ([`simulate_tenant_sessions`] /
//! [`simulate_tenant_sessions_obs`]) run the same loop over a deadline-tagged
//! [`TenantRequest`] stream: jobs carry their tenant, priority, and
//! absolute deadline into the batcher (enabling
//! [`QueuePolicy::Edf`](crate::batch::QueuePolicy::Edf) and deadline
//! shedding), and the report gains a per-tenant section. The deadline-shed
//! service floor is learned online: it is the smallest per-request service
//! time any dispatch on that channel has observed so far (0 before the
//! first dispatch), so shedding is conservative — a request is only
//! dropped when even the cheapest service seen could not meet its
//! deadline.

use recross_dram::Cycle;
use recross_nmp::accel::EmbeddingAccelerator;
use recross_nmp::multichannel::ChannelPlan;
use recross_nmp::session::{ServiceSession, SessionStats};
use recross_workload::{Batch, Trace};

use crate::batch::{Batcher, BatcherConfig, QueuedJob};
use crate::obs::{RequestFate, ServeObs};
use crate::report::{ChannelReport, ServeReport, TenantReport};
use crate::tenant::{TenantMix, TenantRequest};

/// What happened on one channel.
struct ChannelOutcome {
    /// Per-request completion cycle; `None` means dropped at this channel
    /// (see `expired_flags` for which kind of drop).
    completions: Vec<Option<Cycle>>,
    /// Per-request flag: dropped by deadline shedding (as opposed to a
    /// full queue). Only meaningful where `completions` is `None`.
    expired_flags: Vec<bool>,
    /// Per-request dispatch cycle (`None` for dropped or empty-part
    /// requests).
    dispatched_at: Vec<Option<Cycle>>,
    /// Per-request drop cycle: arrival for queue drops, the dispatch
    /// trigger for deadline sheds. Only set where `completions` is `None`.
    dropped_at: Vec<Option<Cycle>>,
    /// Cycles the server spent servicing batches.
    busy: Cycle,
    /// Batches dispatched.
    dispatches: u64,
    /// Requests shed at this channel's queue (admission tail-drop).
    shed: u64,
    /// Requests shed at this channel by deadline shedding.
    expired: u64,
    /// Queue depth sampled after each arrival (aligned across channels).
    depth_after_arrival: Vec<usize>,
    /// `(cycle, depth)` after every queue transition — arrivals, deadline
    /// sheds, and batch dispatches. Feeds both the per-channel depth
    /// percentiles and the obs gauge (same samples, so they cannot
    /// disagree).
    depth_samples: Vec<(Cycle, usize)>,
    /// Service-time memo cache activity charged during this run.
    cache: SessionStats,
}

/// Simulates one channel: `sub` is the per-channel trace with **one batch
/// per request** (possibly empty when the request touches no table on this
/// channel — those complete at their arrival instant, costing nothing).
fn simulate_channel(
    sub: &Trace,
    requests: &[TenantRequest],
    cfg: BatcherConfig,
    session: &mut dyn ServiceSession,
    mut obs: Option<(&mut ServeObs, usize)>,
) -> ChannelOutcome {
    let n = requests.len();
    assert_eq!(sub.batches.len(), n, "one request per batch");
    let stats_before = session.stats();
    let mut batcher = Batcher::new(cfg);
    let mut completions: Vec<Option<Cycle>> = vec![None; n];
    let mut expired_flags = vec![false; n];
    let mut dispatched_at: Vec<Option<Cycle>> = vec![None; n];
    let mut dropped_at: Vec<Option<Cycle>> = vec![None; n];
    let mut depth_after_arrival = Vec::with_capacity(n);
    let mut depth_samples: Vec<(Cycle, usize)> = Vec::with_capacity(n);
    let mut busy: Cycle = 0;
    let mut dispatches = 0u64;
    let mut server_free: Cycle = 0;
    // Lower bound on per-request service time, learned from dispatches;
    // feeds the deadline-shed feasibility check.
    let mut service_floor: Cycle = 0;
    let mut next = 0usize; // next arrival index

    loop {
        let trigger = batcher.next_trigger(server_free);
        // Admit the next arrival if it happens before (or at) the next
        // dispatch; otherwise dispatch. Ties favor admission so a request
        // arriving exactly at the trigger can still join the batch.
        let admit = match (trigger, requests.get(next)) {
            (None, None) => break,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(td), Some(r)) => r.arrival <= td,
        };
        if admit {
            let req = &requests[next];
            let ops = &sub.batches[next].ops;
            if ops.is_empty() {
                // Nothing to do on this channel: done on arrival.
                completions[next] = Some(req.arrival);
            } else if !batcher.offer(QueuedJob {
                id: next,
                arrival: req.arrival,
                cost: sub.batches[next].lookups() as u64,
                deadline: req.deadline,
                priority: req.priority,
                tenant: req.tenant,
            }) {
                // Tail-dropped by the full queue, at arrival time.
                dropped_at[next] = Some(req.arrival);
            }
            depth_after_arrival.push(batcher.len());
            depth_samples.push((req.arrival, batcher.len()));
            if let Some((o, ch)) = obs.as_mut() {
                o.depth_sample(*ch, req.arrival, batcher.len());
            }
            next += 1;
        } else {
            let td = trigger.expect("dispatch arm requires a trigger");
            let expired_jobs = batcher.shed_expired(td, service_floor);
            let had_expired = !expired_jobs.is_empty();
            for j in expired_jobs {
                expired_flags[j.id] = true;
                dropped_at[j.id] = Some(td);
            }
            if had_expired {
                depth_samples.push((td, batcher.len()));
                if let Some((o, ch)) = obs.as_mut() {
                    o.depth_sample(*ch, td, batcher.len());
                }
            }
            let jobs = batcher.take_batch();
            if jobs.is_empty() {
                // Shedding emptied the queue; re-evaluate events.
                continue;
            }
            depth_samples.push((td, batcher.len()));
            if let Some((o, ch)) = obs.as_mut() {
                o.depth_sample(*ch, td, batcher.len());
            }
            let merged = Batch {
                ops: jobs
                    .iter()
                    .flat_map(|j| sub.batches[j.id].ops.iter().cloned())
                    .collect(),
            };
            // The traced path prices through the same memo (asserted
            // identical in debug builds), so traced and untraced runs
            // produce byte-identical reports.
            let stats_at_dispatch = session.stats();
            let (service, commands) = match obs.as_mut() {
                Some((o, _)) if o.dram_trace() => {
                    let (service, commands) = session.service_traced(&merged);
                    (service, Some(commands))
                }
                _ => (session.service(&merged), None),
            };
            let done = td + service;
            for j in &jobs {
                completions[j.id] = Some(done);
                dispatched_at[j.id] = Some(td);
            }
            if let Some((o, ch)) = obs.as_mut() {
                let hit = session.stats().since(&stats_at_dispatch).hits > 0;
                o.service_span(*ch, dispatches, jobs.len(), td, done, hit);
                if let Some(commands) = commands {
                    o.batch_commands(*ch, td, &commands);
                }
            }
            let per_job = service / jobs.len() as Cycle;
            service_floor = if service_floor == 0 {
                per_job
            } else {
                service_floor.min(per_job)
            };
            busy += service;
            dispatches += 1;
            server_free = done;
        }
    }

    ChannelOutcome {
        completions,
        expired_flags,
        dispatched_at,
        dropped_at,
        busy,
        dispatches,
        shed: batcher.shed(),
        expired: batcher.expired(),
        depth_after_arrival,
        depth_samples,
        cache: session.stats().since(&stats_before),
    }
}

/// Request `i`'s channel parts merged: `Ok` with the latest completion
/// (its `arrival` when no channel held a part), or `Err` with how it was
/// dropped; a queue drop on any channel outranks a deadline drop on
/// another.
fn merged(outcomes: &[ChannelOutcome], i: usize, arrival: Cycle) -> Result<Cycle, RequestFate> {
    let mut done = Ok(arrival);
    for o in outcomes {
        done = match (done, o.completions[i]) {
            (Ok(d), Some(c)) => Ok(d.max(c)),
            (Err(RequestFate::QueueShed), _) | (_, Some(_)) => done,
            (_, None) if o.expired_flags[i] => Err(RequestFate::DeadlineShed),
            (_, None) => Err(RequestFate::QueueShed),
        };
    }
    done
}

/// Replays the per-request outcomes into `obs` as lifecycle spans: one
/// span per request on its tenant group's lanes, from arrival to the
/// request's last resolution event, labeled with its fate and annotated
/// with per-channel dispatch/drop instants.
fn record_lifecycles(
    obs: &mut ServeObs,
    requests: &[TenantRequest],
    mix: Option<&TenantMix>,
    outcomes: &[ChannelOutcome],
) {
    for (i, req) in requests.iter().enumerate() {
        let mut end = req.arrival;
        let mut instants: Vec<(Cycle, String)> = Vec::new();
        for (ch, o) in outcomes.iter().enumerate() {
            match o.completions[i] {
                Some(c) => {
                    end = end.max(c);
                    if let Some(td) = o.dispatched_at[i] {
                        instants.push((td, format!("dispatch ch{ch}")));
                    }
                }
                None => {
                    let t = o.dropped_at[i].unwrap_or(req.arrival);
                    end = end.max(t);
                    let drop = if o.expired_flags[i] {
                        "deadline-shed"
                    } else {
                        "queue-shed"
                    };
                    instants.push((t, format!("{drop} ch{ch}")));
                }
            }
        }
        let fate = match merged(outcomes, i, req.arrival) {
            Ok(d) if d <= req.deadline => RequestFate::Completed,
            Ok(_) => RequestFate::Late,
            Err(drop) => drop,
        };
        instants.sort_by_key(|&(t, _)| t);
        let group = if mix.is_some() { req.tenant } else { 0 };
        obs.request_span(group, i, fate, req.arrival, end, &instants);
    }
}

/// Opens one [`ServiceSession`] per channel of `plan` over `trace`: `make`
/// builds the accelerator for a channel from its id and sub-trace (same
/// contract as [`recross_nmp::multichannel::run_multichannel`]), and each
/// accelerator's session is prepared for that channel's table universe.
///
/// The sessions can then serve any number of [`simulate_sessions`] runs
/// over the same `(trace, plan)` pair.
pub fn open_sessions<A, F>(
    trace: &Trace,
    plan: &ChannelPlan,
    mut make: F,
) -> Vec<Box<dyn ServiceSession>>
where
    A: EmbeddingAccelerator,
    F: FnMut(usize, &Trace) -> A,
{
    plan.split(trace)
        .into_iter()
        .enumerate()
        .map(|(ch, (sub, _orig))| make(ch, &sub).open_session(&sub.tables))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_simulation(
    name: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    requests: &[TenantRequest],
    mix: Option<&TenantMix>,
    cfg: BatcherConfig,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
    mut obs: Option<&mut ServeObs>,
) -> ServeReport {
    assert_eq!(
        requests.len(),
        trace.batches.len(),
        "one arrival per request batch"
    );
    assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "arrivals must be nondecreasing"
    );
    if let Some(mix) = mix {
        assert!(
            requests.iter().all(|r| r.tenant < mix.len()),
            "tenant indices must address the mix"
        );
    }
    assert_eq!(
        sessions.len(),
        plan.channels(),
        "one session per channel (see open_sessions)"
    );

    if let Some(o) = obs.as_deref_mut() {
        let groups: Vec<String> = match mix {
            Some(m) => m.classes().iter().map(|c| c.name.clone()).collect(),
            None => vec!["requests".to_string()],
        };
        o.begin(plan.channels(), &groups);
    }
    let mut outcomes = Vec::with_capacity(plan.channels());
    for (ch, (sub, _orig)) in plan.split(trace).into_iter().enumerate() {
        outcomes.push(simulate_channel(
            &sub,
            requests,
            cfg,
            sessions[ch].as_mut(),
            obs.as_deref_mut().map(|o| (o, ch)),
        ));
    }
    if let Some(o) = obs {
        record_lifecycles(o, requests, mix, &outcomes);
        debug_assert_eq!(o.recorder().validate(), Ok(()));
    }
    ServeReport::from_outcomes(name, requests, mix, cycles_per_sec, &outcomes)
}

/// Single-tenant requests at `arrivals`: tenant 0, no deadline.
fn untagged(arrivals: &[Cycle]) -> Vec<TenantRequest> {
    arrivals
        .iter()
        .map(|&arrival| TenantRequest {
            arrival,
            tenant: 0,
            deadline: Cycle::MAX,
            priority: 0,
        })
        .collect()
}

/// Runs the full serving simulation against prepared per-channel sessions:
/// shards `trace` (one batch = one request) across `plan.channels()`
/// servers, feeds each the same arrival sequence, and merges per-channel
/// outcomes into a [`ServeReport`].
///
/// `sessions` must have been opened via [`open_sessions`] (or equivalent)
/// for the **same** `trace` and `plan`; it is borrowed mutably so the same
/// sessions — including their memoized service times — carry over to the
/// next run. The report's cache counters cover only this run.
///
/// A request is **shed** if any channel's queue dropped its part;
/// otherwise its latency is `max(channel completion) − arrival`.
///
/// Requests carry no deadlines here (the single-tenant surface); use
/// [`simulate_tenant_sessions`] for deadline-tagged multi-tenant streams.
///
/// # Panics
///
/// Panics if `arrivals` is not nondecreasing, its length differs from the
/// number of request batches in `trace`, or `sessions` does not hold one
/// session per channel.
pub fn simulate_sessions(
    name: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    arrivals: &[Cycle],
    cfg: BatcherConfig,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
) -> ServeReport {
    run_simulation(
        name,
        trace,
        plan,
        &untagged(arrivals),
        None,
        cfg,
        cycles_per_sec,
        sessions,
        None,
    )
}

/// [`simulate_sessions`] with cross-layer tracing: identical simulation
/// and report (byte-for-byte — tracing never perturbs pricing), but every
/// event is also recorded into `obs` — request lifecycle spans, server
/// batch spans, queue-depth gauges, and (unless disabled via
/// [`ServeObs::set_dram_trace`]) per-dispatch DRAM command tracks.
///
/// `obs` must be freshly created ([`ServeObs::new`]); after the call,
/// export the timeline with [`ServeObs::write_chrome_trace`] and the
/// attribution summary with [`ServeObs::obs_report`].
///
/// # Panics
///
/// Same contract as [`simulate_sessions`], plus panics if `obs` already
/// observed a simulation.
#[allow(clippy::too_many_arguments)]
pub fn simulate_sessions_obs(
    name: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    arrivals: &[Cycle],
    cfg: BatcherConfig,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
    obs: &mut ServeObs,
) -> ServeReport {
    run_simulation(
        name,
        trace,
        plan,
        &untagged(arrivals),
        None,
        cfg,
        cycles_per_sec,
        sessions,
        Some(obs),
    )
}

/// Runs the serving simulation over a deadline-tagged multi-tenant request
/// stream (see [`TenantMix::requests`]): identical event loop and sharding
/// as [`simulate_sessions`], but jobs carry tenant, priority, and absolute
/// deadline into each channel's batcher — so
/// [`QueuePolicy::Edf`](crate::batch::QueuePolicy::Edf),
/// [`BatcherConfig::shed_expired`], and
/// [`BatcherConfig::adaptive_linger`] all take effect — and the returned
/// report carries one [`TenantReport`] per class of `mix`
/// (`ServeReport::tenants`), in class order.
///
/// Per tenant, the counters partition exactly:
/// `requests = completed + missed + queue_shed + deadline_shed`.
///
/// # Panics
///
/// Panics if `requests` is not sorted by arrival, its length differs from
/// the number of request batches in `trace`, a request's tenant index is
/// out of range for `mix`, or `sessions` does not hold one session per
/// channel.
#[allow(clippy::too_many_arguments)]
pub fn simulate_tenant_sessions(
    name: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    requests: &[TenantRequest],
    mix: &TenantMix,
    cfg: BatcherConfig,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
) -> ServeReport {
    run_simulation(
        name,
        trace,
        plan,
        requests,
        Some(mix),
        cfg,
        cycles_per_sec,
        sessions,
        None,
    )
}

/// [`simulate_tenant_sessions`] with cross-layer tracing — the tenant
/// counterpart of [`simulate_sessions_obs`]: one lane group per tenant
/// class, request lifecycle spans labeled completed / late / queue-shed /
/// deadline-shed, and the same channel-level and DRAM-level tracks.
///
/// # Panics
///
/// Same contract as [`simulate_tenant_sessions`], plus panics if `obs`
/// already observed a simulation.
#[allow(clippy::too_many_arguments)]
pub fn simulate_tenant_sessions_obs(
    name: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    requests: &[TenantRequest],
    mix: &TenantMix,
    cfg: BatcherConfig,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
    obs: &mut ServeObs,
) -> ServeReport {
    run_simulation(
        name,
        trace,
        plan,
        requests,
        Some(mix),
        cfg,
        cycles_per_sec,
        sessions,
        Some(obs),
    )
}

/// Nearest-rank p50/p99/max over one channel's queue-depth transition
/// samples (all zero when no transitions were sampled).
fn depth_percentiles(samples: &[(Cycle, usize)]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    let mut depths: Vec<u64> = samples.iter().map(|&(_, d)| d as u64).collect();
    depths.sort_unstable();
    let pick =
        |q: f64| depths[((q * depths.len() as f64).ceil() as usize).clamp(1, depths.len()) - 1];
    (pick(0.5), pick(0.99), *depths.last().expect("nonempty"))
}

impl ServeReport {
    fn from_outcomes(
        name: &str,
        requests: &[TenantRequest],
        mix: Option<&TenantMix>,
        cycles_per_sec: f64,
        outcomes: &[ChannelOutcome],
    ) -> ServeReport {
        let n = requests.len();
        let mut hist = crate::LatencyHistogram::new();
        let mut tenants: Vec<TenantReport> = mix
            .map(|m| m.classes().iter().map(TenantReport::new).collect())
            .unwrap_or_default();
        let mut shed_requests = 0u64;
        let mut makespan: Cycle = requests.last().map(|r| r.arrival).unwrap_or(0);
        for (i, req) in requests.iter().enumerate() {
            let tenant = tenants.get_mut(req.tenant);
            match merged(outcomes, i, req.arrival) {
                Ok(d) => {
                    let latency = d - req.arrival;
                    hist.record(latency);
                    makespan = makespan.max(d);
                    if let Some(t) = tenant {
                        t.requests += 1;
                        t.latency.record(latency);
                        if d <= req.deadline {
                            t.completed += 1;
                        } else {
                            t.missed += 1;
                        }
                    }
                }
                Err(drop) => {
                    shed_requests += 1;
                    if let Some(t) = tenant {
                        t.requests += 1;
                        if drop == RequestFate::QueueShed {
                            t.queue_shed += 1;
                        } else {
                            t.deadline_shed += 1;
                        }
                    }
                }
            }
        }
        // Total queue depth across channels, sampled at each arrival.
        let depth_series: Vec<u64> = (0..n)
            .map(|i| {
                outcomes
                    .iter()
                    .map(|o| o.depth_after_arrival[i] as u64)
                    .sum()
            })
            .collect();
        let channels = outcomes
            .iter()
            .map(|o| {
                let (depth_p50, depth_p99, depth_max) = depth_percentiles(&o.depth_samples);
                ChannelReport {
                    busy_cycles: o.busy,
                    utilization: if makespan > 0 {
                        o.busy as f64 / makespan as f64
                    } else {
                        0.0
                    },
                    dispatches: o.dispatches,
                    shed: o.shed,
                    expired: o.expired,
                    depth_p50,
                    depth_p99,
                    depth_max,
                }
            })
            .collect();
        let arrival_span_s =
            requests.last().map(|r| r.arrival).unwrap_or(0) as f64 / cycles_per_sec;
        ServeReport {
            name: name.to_string(),
            requests: n as u64,
            shed: shed_requests,
            makespan_cycles: makespan,
            cycles_per_sec,
            offered_qps: if arrival_span_s > 0.0 {
                n as f64 / arrival_span_s
            } else {
                0.0
            },
            latency: hist,
            depth_series,
            channels,
            service_cache: outcomes.iter().map(|o| o.cache).sum(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueuePolicy;
    use crate::tenant::{Priority, TenantClass, TenantProcess};
    use recross_dram::DramConfig;
    use recross_nmp::cpu::CpuBaseline;
    use recross_workload::TraceGenerator;

    fn serving_setup() -> (Trace, ChannelPlan, Vec<Cycle>, BatcherConfig, f64) {
        let dram = DramConfig::ddr5_4800();
        let trace = TraceGenerator::criteo_scaled(32, 200)
            .batch_size(1)
            .pooling(8)
            .batches(24)
            .generate(13);
        let plan = ChannelPlan::balance_by_load(&trace, 2);
        let arrivals = crate::arrival::ArrivalProcess::poisson(40_000.0).timestamps(
            trace.batches.len(),
            dram.cycles_per_sec(),
            13,
        );
        (
            trace,
            plan,
            arrivals,
            BatcherConfig::default(),
            dram.cycles_per_sec(),
        )
    }

    /// The memoized service-time cache is an exact cache: the same seed
    /// yields byte-identical reports with the cache enabled and disabled
    /// (the only divergence is the hit/miss accounting itself, which the
    /// comparison normalizes away after asserting it exactly).
    #[test]
    fn cache_on_and_off_reports_are_byte_identical() {
        let (trace, plan, arrivals, cfg, cps) = serving_setup();
        let dram = DramConfig::ddr5_4800();
        let make = |_: usize, _: &Trace| CpuBaseline::new(dram.clone());

        let mut cached = open_sessions(&trace, &plan, make);
        let mut uncached = open_sessions(&trace, &plan, make);
        for s in uncached.iter_mut() {
            s.set_cache_enabled(false);
        }

        // Two consecutive runs per variant: the second run is where the
        // cached sessions replay memoized service times.
        let run = |s: &mut Vec<Box<dyn ServiceSession>>| {
            simulate_sessions("CPU", &trace, &plan, &arrivals, cfg, cps, s)
        };
        let (a1, a2) = (run(&mut cached), run(&mut cached));
        let (b1, b2) = (run(&mut uncached), run(&mut uncached));

        // Exact accounting: every dispatch is a miss on the first cached
        // run, a hit on the identical replay; the uncached sessions only
        // ever miss.
        let dispatches: u64 = a1.channels.iter().map(|c| c.dispatches).sum();
        assert_eq!(a1.service_cache.hits, 0);
        assert_eq!(a1.service_cache.misses, dispatches);
        assert_eq!(a2.service_cache.hits, dispatches);
        assert_eq!(a2.service_cache.misses, 0);
        assert_eq!(b1.service_cache.hits, 0);
        assert_eq!(b1.service_cache.misses, dispatches);
        assert_eq!(b2.service_cache, b1.service_cache);
        assert!((a1.cache_hit_rate() - 0.0).abs() < 1e-12);
        assert!((a2.cache_hit_rate() - 1.0).abs() < 1e-12);

        // Byte-identical modulo the declared accounting fields.
        let mut a1n = a1.clone();
        let mut a2n = a2.clone();
        a1n.service_cache = b1.service_cache;
        a2n.service_cache = b2.service_cache;
        assert_eq!(a1n.to_json(), b1.to_json());
        assert_eq!(a2n.to_json(), b2.to_json());
    }

    /// Bounding the memo to a single entry changes only the cache
    /// accounting, never the modeled timing: reports from capacity-1
    /// sessions are byte-identical to unbounded ones modulo the
    /// `service_cache` counters (satellite check for the LRU-bounded
    /// session cache).
    #[test]
    fn capacity_one_memo_reports_are_byte_identical() {
        let (trace, plan, arrivals, cfg, cps) = serving_setup();
        let dram = DramConfig::ddr5_4800();
        let make = |_: usize, _: &Trace| CpuBaseline::new(dram.clone());

        let mut unbounded = open_sessions(&trace, &plan, make);
        let mut tiny = open_sessions(&trace, &plan, make);
        for s in tiny.iter_mut() {
            s.set_cache_capacity(1);
        }

        let run = |s: &mut Vec<Box<dyn ServiceSession>>| {
            simulate_sessions("CPU", &trace, &plan, &arrivals, cfg, cps, s)
        };
        // Two runs each: the second run exercises replay (hits for the
        // unbounded memo, evictions for the capacity-1 one).
        let (a1, a2) = (run(&mut unbounded), run(&mut unbounded));
        let (t1, t2) = (run(&mut tiny), run(&mut tiny));

        assert!(
            t1.service_cache.evictions + t2.service_cache.evictions > 0,
            "capacity-1 memo must evict under multiple distinct batches"
        );
        assert_eq!(
            a1.service_cache.evictions, 0,
            "default capacity never evicts here"
        );

        let mut t1n = t1.clone();
        let mut t2n = t2.clone();
        t1n.service_cache = a1.service_cache;
        t2n.service_cache = a2.service_cache;
        assert_eq!(t1n.to_json(), a1.to_json());
        assert_eq!(t2n.to_json(), a2.to_json());
    }

    #[test]
    #[should_panic(expected = "one session per channel")]
    fn session_count_validated() {
        let (trace, plan, arrivals, cfg, cps) = serving_setup();
        simulate_sessions("CPU", &trace, &plan, &arrivals, cfg, cps, &mut []);
    }

    fn tenant_setup(
        n: usize,
        qps: f64,
        seed: u64,
    ) -> (Trace, ChannelPlan, TenantMix, Vec<TenantRequest>, f64) {
        let dram = DramConfig::ddr5_4800();
        let cps = dram.cycles_per_sec();
        let trace = TraceGenerator::criteo_scaled(32, 200)
            .batch_size(1)
            .pooling(8)
            .batches(n)
            .generate(seed);
        let plan = ChannelPlan::balance_by_load(&trace, 2);
        let mix = TenantMix::new(vec![
            TenantClass::new("rt", 0.7, TenantProcess::Poisson, 10.0, Priority::High),
            TenantClass::new("batch", 0.3, TenantProcess::Bursty, 10_000.0, Priority::Low),
        ]);
        let requests = mix.requests(n, qps, cps, seed);
        (trace, plan, mix, requests, cps)
    }

    /// Per-tenant counters partition the tenant's requests exactly, and
    /// the per-tenant totals sum to the report-level totals.
    #[test]
    fn tenant_counters_balance_exactly() {
        for policy in [QueuePolicy::Fifo, QueuePolicy::Edf] {
            let (trace, plan, mix, requests, cps) = tenant_setup(96, 4_800_000.0, 7);
            let dram = DramConfig::ddr5_4800();
            let cfg = BatcherConfig {
                max_batch: 8,
                max_linger: 5_000,
                queue_depth: 16,
                policy,
                shed_expired: policy == QueuePolicy::Edf,
                adaptive_linger: policy == QueuePolicy::Edf,
            };
            let mut sessions = open_sessions(&trace, &plan, |_, _| CpuBaseline::new(dram.clone()));
            let report = simulate_tenant_sessions(
                "CPU",
                &trace,
                &plan,
                &requests,
                &mix,
                cfg,
                cps,
                &mut sessions,
            );
            assert_eq!(report.tenants.len(), 2);
            let mut total = 0u64;
            let mut total_shed = 0u64;
            for t in &report.tenants {
                assert_eq!(
                    t.requests,
                    t.completed + t.missed + t.queue_shed + t.deadline_shed,
                    "counters must partition tenant {} under {policy:?}",
                    t.name
                );
                total += t.requests;
                total_shed += t.queue_shed + t.deadline_shed;
            }
            assert_eq!(total, report.requests);
            assert_eq!(total_shed, report.shed);
        }
    }

    /// The headline multi-tenant claim: under overload, EDF dequeue plus
    /// deadline shedding gives the deadline-tight tenant strictly lower
    /// p99 latency AND a strictly lower deadline-miss rate than the same
    /// mix served FIFO with no shedding — and both runs stay perfectly
    /// reproducible.
    #[test]
    fn edf_with_shedding_beats_fifo_for_tight_tenant() {
        let run = |policy: QueuePolicy, shed: bool| {
            let (trace, plan, mix, requests, cps) = tenant_setup(96, 4_800_000.0, 11);
            let dram = DramConfig::ddr5_4800();
            let cfg = BatcherConfig {
                max_batch: 8,
                max_linger: 5_000,
                queue_depth: 64,
                policy,
                shed_expired: shed,
                adaptive_linger: shed,
            };
            let mut sessions = open_sessions(&trace, &plan, |_, _| CpuBaseline::new(dram.clone()));
            simulate_tenant_sessions(
                "CPU",
                &trace,
                &plan,
                &requests,
                &mix,
                cfg,
                cps,
                &mut sessions,
            )
        };
        let fifo = run(QueuePolicy::Fifo, false);
        let edf = run(QueuePolicy::Edf, true);

        let (rt_fifo, rt_edf) = (&fifo.tenants[0], &edf.tenants[0]);
        assert_eq!(rt_fifo.name, "rt");
        assert!(rt_fifo.requests > 0 && rt_edf.requests > 0);
        let p99_fifo = rt_fifo.latency.quantile(0.99);
        let p99_edf = rt_edf.latency.quantile(0.99);
        assert!(
            p99_edf < p99_fifo,
            "EDF should cut the tight tenant's p99: edf={p99_edf} fifo={p99_fifo}"
        );
        assert!(
            rt_edf.deadline_miss_rate() < rt_fifo.deadline_miss_rate(),
            "EDF+shedding should cut the miss rate: edf={} fifo={}",
            rt_edf.deadline_miss_rate(),
            rt_fifo.deadline_miss_rate()
        );
        // Determinism: same inputs, byte-identical reports.
        assert_eq!(run(QueuePolicy::Edf, true).to_json(), edf.to_json());
        assert_eq!(run(QueuePolicy::Fifo, false).to_json(), fifo.to_json());
    }

    /// The tentpole consistency claims: a traced run produces a
    /// byte-identical `ServeReport` to the untraced run on the same seed,
    /// the recorded request-lifecycle spans partition exactly into
    /// completed + late + queue-shed + deadline-shed matching the report's
    /// counters, the timeline validates (balanced, monotone per track),
    /// and both exports are byte-identical across reruns.
    #[test]
    fn traced_run_matches_untraced_and_lifecycle_spans_balance() {
        let (trace, plan, mix, requests, cps) = tenant_setup(96, 4_800_000.0, 7);
        let dram = DramConfig::ddr5_4800();
        let cfg = BatcherConfig {
            max_batch: 8,
            max_linger: 5_000,
            queue_depth: 32,
            policy: QueuePolicy::Edf,
            shed_expired: true,
            adaptive_linger: true,
        };
        let make = |_: usize, _: &Trace| CpuBaseline::new(dram.clone());

        let mut plain_sessions = open_sessions(&trace, &plan, make);
        let plain = simulate_tenant_sessions(
            "CPU",
            &trace,
            &plan,
            &requests,
            &mix,
            cfg,
            cps,
            &mut plain_sessions,
        );

        let traced_run = || {
            let mut sessions = open_sessions(&trace, &plan, make);
            let mut obs = ServeObs::new(dram.clone());
            let report = simulate_tenant_sessions_obs(
                "CPU",
                &trace,
                &plan,
                &requests,
                &mix,
                cfg,
                cps,
                &mut sessions,
                &mut obs,
            );
            (report, obs)
        };
        let (traced, obs) = traced_run();

        // Tracing never perturbs the simulation.
        assert_eq!(traced.to_json(), plain.to_json());

        // One lifecycle span per request; fates partition exactly and
        // agree with the report's own accounting.
        let t = obs.lifecycle_totals();
        assert_eq!(t.spans, traced.requests);
        assert_eq!(
            t.completed + t.late + t.queue_shed + t.deadline_shed,
            t.spans
        );
        assert_eq!(t.queue_shed + t.deadline_shed, traced.shed);
        assert_eq!(
            t.completed,
            traced.tenants.iter().map(|x| x.completed).sum()
        );
        assert_eq!(t.late, traced.tenants.iter().map(|x| x.missed).sum());
        assert_eq!(
            t.queue_shed,
            traced.tenants.iter().map(|x| x.queue_shed).sum()
        );
        assert_eq!(
            t.deadline_shed,
            traced.tenants.iter().map(|x| x.deadline_shed).sum()
        );
        // This configuration exercises both drop paths and real traffic.
        assert!(
            t.queue_shed > 0,
            "queue_depth=32 should tail-drop under overload"
        );
        assert!(t.deadline_shed > 0, "EDF shedding should fire");
        assert!(t.completed > 0);

        // The timeline is well-formed and carries DRAM-level spans.
        assert_eq!(obs.recorder().validate(), Ok(()));
        let perfetto = obs.chrome_trace_string();
        assert!(perfetto.contains("\"ph\":\"X\""));
        assert!(perfetto.contains("rank 0 / bg 0 / bank 0"));
        assert!(perfetto.contains("tenant: rt"));
        assert!(perfetto.contains("cache "));

        // ObsReport is consistent with the ServeReport…
        let summary = obs.obs_report(&traced);
        assert_eq!(summary.requests, traced.requests);
        for (oc, cr) in summary.channels.iter().zip(&traced.channels) {
            assert_eq!(oc.busy_fraction, cr.utilization);
            assert_eq!(oc.depth_max, cr.depth_max);
            let a = oc.attribution.as_ref().expect("dram tracing on");
            // `from_commands` widens the window to the last command's
            // display end, so it can only meet or exceed the makespan.
            assert!(a.span >= traced.makespan_cycles);
            assert!(a.reads > 0);
        }

        // …and both exports are byte-identical across reruns.
        let (traced2, obs2) = traced_run();
        assert_eq!(obs2.chrome_trace_string(), perfetto);
        assert_eq!(obs2.obs_report(&traced2).to_json(), summary.to_json());
    }

    /// Streaming export and online aggregation on a two-tenant EDF run:
    /// the streamed trace is byte-identical to the in-memory export, the
    /// online aggregates equal a recompute from the full retained trace,
    /// and the ObsReport tenant blocks agree with the aggregation engine.
    #[test]
    fn streamed_trace_and_online_aggregates_match_in_memory_recompute() {
        use recross_obs::agg::Aggregates;
        use recross_obs::SharedWriter;

        let (trace, plan, mix, requests, cps) = tenant_setup(96, 4_800_000.0, 7);
        let dram = DramConfig::ddr5_4800();
        let cfg = BatcherConfig {
            max_batch: 8,
            max_linger: 5_000,
            queue_depth: 32,
            policy: QueuePolicy::Edf,
            shed_expired: true,
            adaptive_linger: true,
        };
        let make = |_: usize, _: &Trace| CpuBaseline::new(dram.clone());

        // Stream + aggregate live while ALSO retaining the in-memory
        // buffer, so the same run provides both sides of the comparison.
        let out = SharedWriter::new();
        let mut sessions = open_sessions(&trace, &plan, make);
        let mut obs = ServeObs::new(dram.clone());
        obs.stream_to(out.clone());
        obs.enable_agg();
        let report = simulate_tenant_sessions_obs(
            "CPU",
            &trace,
            &plan,
            &requests,
            &mix,
            cfg,
            cps,
            &mut sessions,
            &mut obs,
        );
        obs.finish().unwrap();

        // Byte identity: live-streamed file == in-memory export.
        assert_eq!(out.contents(), obs.chrome_trace_string());

        // Equivalence: online aggregates == recompute from the full trace.
        let live = obs.aggregates().expect("agg enabled");
        let replayed = Aggregates::from_recorder(obs.recorder());
        assert_eq!(live, replayed);
        assert_eq!(live.to_json(), replayed.to_json());

        // The aggregation engine's view matches both the report and the
        // ObsReport per-tenant blocks (same evidence, two consumers). The
        // aggregate makespan tracks the last event's display end, which
        // can only meet or exceed the report's makespan (DRAM command
        // spans widen past the last completion, as with attribution).
        assert!(live.makespan_cycles >= report.makespan_cycles);
        let summary = obs.obs_report(&report);
        assert_eq!(live.tenants.len(), summary.tenants.len());
        for (a, t) in live.tenants.iter().zip(&summary.tenants) {
            assert_eq!(a.name, t.name);
            assert_eq!(a.completed, t.completed);
            assert_eq!(a.late, t.late);
            assert_eq!(a.queue_shed, t.queue_shed);
            assert_eq!(a.deadline_shed, t.deadline_shed);
            assert_eq!(a.time_in_queue, t.time_in_queue);
            assert_eq!(a.time_in_service, t.time_in_service);
        }
        for (a, r) in live.tenants.iter().zip(&report.tenants) {
            assert_eq!(a.completed, r.completed);
            assert_eq!(a.late, r.missed);
            assert_eq!(a.queue_shed, r.queue_shed);
            assert_eq!(a.deadline_shed, r.deadline_shed);
        }

        // Drop-free run: every sink saw every event.
        assert_eq!(obs.recorder().dropped_events(), 0);
    }

    /// Timeline-only mode (DRAM tracing off) still matches the untraced
    /// report and records no bank tracks or attribution.
    #[test]
    fn timeline_only_tracing_matches_untraced_report() {
        let (trace, plan, arrivals, cfg, cps) = serving_setup();
        let dram = DramConfig::ddr5_4800();
        let make = |_: usize, _: &Trace| CpuBaseline::new(dram.clone());

        let mut plain_sessions = open_sessions(&trace, &plan, make);
        let plain = simulate_sessions(
            "CPU",
            &trace,
            &plan,
            &arrivals,
            cfg,
            cps,
            &mut plain_sessions,
        );

        let mut sessions = open_sessions(&trace, &plan, make);
        let mut obs = ServeObs::new(dram.clone());
        obs.set_dram_trace(false);
        let traced = simulate_sessions_obs(
            "CPU",
            &trace,
            &plan,
            &arrivals,
            cfg,
            cps,
            &mut sessions,
            &mut obs,
        );
        assert_eq!(traced.to_json(), plain.to_json());
        assert_eq!(obs.lifecycle_totals().spans, traced.requests);
        let summary = obs.obs_report(&traced);
        assert!(summary.channels.iter().all(|c| c.attribution.is_none()));
        assert!(!obs.chrome_trace_string().contains("bank 0"));
    }
}
