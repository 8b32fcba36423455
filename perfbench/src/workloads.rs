//! The three workloads, each driven through the library's public API.
//!
//! Why these three (see `README.md` for the full table):
//!
//! * `fattree_coldstart` — high switch degree, so LSRP guard evaluation
//!   dominates; the default (full) trace sink's action log shows in memory.
//!   Its traced run also times the region executor (8 regions).
//! * `traffic_chaos_export` — the data plane, congestion, flows, the
//!   analysis monitors and trace export, stepped one event at a time.
//! * `corpus` — every checked-in scenario, as users run them.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use lsrp_analysis::{
    run_traffic_monitored, standard_monitors, AvailabilityMonitor, Monitor, TrafficSummary,
    Violation, WorkloadDriver, WorkloadKind, WorkloadSpec,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::{FaultProcess, FaultSchedule};
use lsrp_graph::partition::partition;
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{
    CongAlgKind, CongestionConfig, EngineConfig, EngineStats, SimTime, SinkFactory, SinkKind,
};

use crate::checks::{Checks, Fnv};
use crate::layers::{self, SinkTimes, Stepper};
use crate::{fastest, median, nproc, peak_rss_mb, Metrics};

/// Simulated-time cap for every engine run (never reached: each workload
/// quiesces long before).
const HORIZON: f64 = 1_000_000.0;
/// `fattree_coldstart`'s fat-tree arity: 18,000 nodes, switch degree 40.
const FATTREE_K: u32 = 40;
/// Regions of the partitioned cold starts behind `sim.regions.speedup`.
const REGIONS: usize = 8;
/// `traffic_chaos_export`: grid side, flow count, link rate (weight units
/// per second) and port queue capacity. The flows' sources are uniform,
/// not a hotspot: a seeded hotspot's distance to the destination sets the
/// run's cost (0.9M to 2.3M events over seeds 0-8), while 512 uniform
/// sources average it out; every flow still converges on the destination,
/// so its links congest.
const GRID_SIDE: u32 = 24;
const FLOWS: usize = 512;
const LINK_RATE: f64 = 400.0;
const QUEUE_CAP: u64 = 2_000;
/// Fault window and traffic duration after the fault-free fixpoint (equal,
/// so every fault lands while packets are in flight), availability window.
const FAULT_WINDOW: f64 = 150.0;
const TRAFFIC_DURATION: f64 = 150.0;
const AVAIL_WINDOW: f64 = 20.0;
/// Corpus loads timed before each pass over the corpus. Spreading the
/// loads over the run, rather than timing them all up front, lets the
/// fastest one come from a quiet stretch of the host.
const CORPUS_LOADS: usize = 200;

/// The checked-in scenario files the `corpus` workload runs. A fixed list,
/// so a scenario added later changes the workload only by editing here.
const CORPUS: [&str; 28] = [
    "churn_continuous.toml",
    "e10_continuous.toml",
    "e11_overhead.toml",
    "e12_wave_ratio.toml",
    "e13_availability.toml",
    "e14_robustness.toml",
    "e15_c2_ablation.toml",
    "e16_route_stability.toml",
    "e17_containment_depth.toml",
    "e18_message_loss.toml",
    "e19_full_table.toml",
    "e1_e2_fig2_vs_fig5.toml",
    "e20_live_availability.toml",
    "e21_congested_recovery.toml",
    "e3_fig6.toml",
    "e4_fig7.toml",
    "e5_selfstab.toml",
    "e6_multi.toml",
    "e6_scaling.toml",
    "e7_regions.toml",
    "e8_loop_freedom.toml",
    "e9_loop_breakage.toml",
    "flap_storm.toml",
    "lsrp_containment.toml",
    "multi_region_traffic.toml",
    "partition_heal_hotspot.toml",
    "scale_sweep.toml",
    "weight_drift.toml",
];

type Outcome = Result<(Metrics, String), String>;

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

fn route_hash(sim: &LsrpSimulation) -> u64 {
    let mut h = Fnv::new();
    for (v, e) in sim.route_table().iter() {
        h.u64(u64::from(v.raw()));
        h.u64(match e.distance {
            Distance::Finite(d) => d,
            Distance::Infinite => u64::MAX,
        });
        h.u64(u64::from(e.parent.raw()));
    }
    h.finish()
}

/// The simulated outputs of an engine run: events by kind, messages
/// delivered, the final route table and, for the traffic workload, the
/// violation count, packet conservation and the export file's hash.
fn engine_fingerprint(stats: &EngineStats, routes: u64, tail: &str) -> String {
    let events: Vec<String> = event_counts(stats)
        .iter()
        .map(|(_, n)| n.to_string())
        .collect();
    format!(
        "ev={} msgs={} routes={routes:016x}{tail}",
        events.join(","),
        stats.messages_delivered,
    )
}

/// Every per-layer metric at 0, in print order. A traced run sets the
/// ones its workload exercises and prints them all, so every traced run
/// reports the same names: those of `per_layer` in `BENCHMARK.json`.
fn layer_metrics() -> Metrics {
    let mut m = Metrics::default();
    for name in [
        "graph.generate_s",
        "graph.partition_s",
        "sim.build_s",
        "faults.generate_s",
        "scenario.load_s",
    ] {
        m.push(name, 0.0, "s");
    }
    for class in layers::STEP_CLASSES {
        m.push(format!("sim.step_ns.{class}"), 0.0, "ns");
    }
    m.push("core.guard_eval_ns", 0.0, "ns");
    m.push("core.guard_eval_ns_maxdeg", 0.0, "ns");
    for (kind, _) in event_counts(&EngineStats::default()) {
        m.push(format!("sim.events.{kind}"), 0.0, "count");
    }
    m.push("sim.messages_delivered", 0.0, "count");
    m.push("sim.guard_fire_ratio", 0.0, "ratio");
    m.push("sim.peak_pending", 0.0, "count");
    m.push("sim.peak_queue_depth_sampled", 0.0, "count");
    m.push("sim.sched.hold_ns", 0.0, "ns");
    m.push("sim.regions.speedup", 0.0, "ratio");
    m.push("sim.sink.hook_ns", 0.0, "ns");
    m.push("sim.sink.hook_calls", 0.0, "count");
    m.push("trace.bytes_per_event", 0.0, "B");
    m.push("trace.frames", 0.0, "count");
    for name in MONITORS {
        m.push(format!("analysis.monitor_ns.{name}"), 0.0, "ns");
    }
    m.push("analysis.avail_observe_ns", 0.0, "ns");
    m.push("analysis.workload_schedule_s", 0.0, "s");
    for f in CORPUS {
        let name = f.trim_end_matches(".toml").replace('_', "-");
        m.push(format!("scenario.run_s.{name}"), 0.0, "s");
    }
    for name in [
        "bench.untraced_run_s",
        "bench.traced_run_s",
        "bench.trace_overhead_s",
    ] {
        m.push(name, 0.0, "s");
    }
    m
}

/// Each `EventCounts` field by name.
fn event_counts(stats: &EngineStats) -> [(&'static str, u64); 8] {
    let e = &stats.events;
    [
        ("deliveries", e.deliveries),
        ("guard_timers", e.guard_timers),
        ("guard_fires", e.guard_fires),
        ("wakeups", e.wakeups),
        ("packet_hops", e.packet_hops),
        ("port_drains", e.port_drains),
        ("flow_acks", e.flow_acks),
        ("flow_timers", e.flow_timers),
    ]
}

/// The stepped run must reproduce the untraced one exactly, and every
/// stepped event must fall in one class.
fn check_stepped(checks: &mut Checks, fp: &str, untraced: &Rep, stepper: &Stepper) {
    checks.check(fp == untraced.fingerprint, || {
        format!(
            "traced fingerprint {fp} != untraced {}",
            untraced.fingerprint
        )
    });
    let unclassified = stepper.unclassified();
    checks.check(unclassified == 0, || {
        format!("{unclassified} stepped events matched no event class")
    });
}

/// Sets the layers every stepped engine run measures.
#[allow(clippy::cast_precision_loss)]
fn set_engine_layers(
    m: &mut Metrics,
    stepper: &Stepper,
    stats: &EngineStats,
    untraced: &Rep,
    times: &SinkTimes,
    seed: u64,
) {
    stepper.report(m);
    for (kind, n) in event_counts(stats) {
        m.set(&format!("sim.events.{kind}"), n as f64);
    }
    m.set("sim.messages_delivered", stats.messages_delivered as f64);
    let e = &stats.events;
    if e.guard_timers > 0 {
        m.set(
            "sim.guard_fire_ratio",
            e.guard_fires as f64 / e.guard_timers as f64,
        );
    }
    // Stepping samples the queue depth after every event, so the stepped
    // run's `peak_queue_depth` is the exact high-water mark.
    let peak = stats.peak_queue_depth;
    m.set("sim.peak_pending", peak as f64);
    m.set("sim.peak_queue_depth_sampled", untraced.peak_sampled as f64);
    m.set("sim.sched.hold_ns", layers::sched_hold_ns(peak, seed));
    m.set("sim.sink.hook_ns", times.hook_ns());
    m.set("sim.sink.hook_calls", times.calls() as f64);
    m.set("bench.untraced_run_s", untraced.run_s);
    m.set("bench.traced_run_s", stepper.wall_s);
}

/// One repetition of an engine workload.
struct Rep {
    /// Set-up seconds, for a repetition that did a whole set-up.
    setup_s: Option<f64>,
    run_s: f64,
    events: u64,
    fingerprint: String,
    /// `EngineStats::peak_queue_depth` of the untraced run.
    peak_sampled: usize,
    /// The process's `VmHWM` right after this repetition.
    rss_mb: f64,
}

// ---------------------------------------------------------------------
// fattree_coldstart
// ---------------------------------------------------------------------

fn fattree_config(seed: u64) -> EngineConfig {
    EngineConfig::default().with_seed(seed)
}

fn build(graph: Graph, config: EngineConfig) -> LsrpSimulation {
    LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(config)
        .build()
}

/// Runs a built cold start to quiescence (timed) and checks it: it must
/// quiesce on the true shortest-path distances.
fn finish_cold_start(mut sim: LsrpSimulation, setup_s: Option<f64>, checks: &mut Checks) -> Rep {
    let t = Instant::now();
    let report = sim.run_to_quiescence(HORIZON);
    let run_s = t.elapsed().as_secs_f64();
    checks.check(report.quiescent, || "cold start did not quiesce".into());
    checks.check(sim.routes_correct(), || {
        "cold start ended on routes that are not shortest paths".into()
    });
    let stats = sim.stats();
    Rep {
        setup_s,
        run_s,
        events: stats.total_events(),
        fingerprint: engine_fingerprint(&stats, route_hash(&sim), ""),
        peak_sampled: stats.peak_queue_depth,
        rss_mb: peak_rss_mb(),
    }
}

/// One fresh cold start; its set-up time covers generation and build.
fn fattree_rep(seed: u64, checks: &mut Checks) -> Rep {
    let t = Instant::now();
    let sim = build(generators::fat_tree(FATTREE_K), fattree_config(seed));
    let setup_s = t.elapsed().as_secs_f64();
    finish_cold_start(sim, Some(setup_s), checks)
}

fn fattree_traced(seed: u64, checks: &mut Checks, m: &mut Metrics) -> Rep {
    let untraced = fattree_rep(seed, checks);
    checks.fingerprint(&seed.to_string(), &untraced.fingerprint, None);

    let t = Instant::now();
    let graph = generators::fat_tree(FATTREE_K);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let part = partition(&graph, REGIONS);
    let partition_s = t.elapsed().as_secs_f64();
    assert_eq!(
        part.len(),
        REGIONS,
        "partition yields the requested regions"
    );

    let times = Arc::new(SinkTimes::default());
    let config = fattree_config(seed);
    let traced_config = config.clone().with_sink_factory(layers::timed_factory(
        None,
        config.sink,
        Arc::clone(&times),
    ));
    let t = Instant::now();
    let mut sim = build(graph.clone(), traced_config);
    let build_s = t.elapsed().as_secs_f64();
    let mut stepper = Stepper::new(&graph);
    let quiescent = stepper.run_to_quiescence(&mut sim, HORIZON);
    checks.check(quiescent, || "stepped cold start did not quiesce".into());
    let stats = sim.stats();
    let fp = engine_fingerprint(&stats, route_hash(&sim), "");
    check_stepped(checks, &fp, &untraced, &stepper);
    drop(sim);

    // The same cold start serial and partitioned, for the region speedup.
    let run_with = |regions: usize, checks: &mut Checks| {
        let config = fattree_config(seed)
            .with_regions(regions)
            .with_jobs(nproc());
        finish_cold_start(build(graph.clone(), config), None, checks).run_s
    };
    let serial = median(&[run_with(1, checks), run_with(1, checks)]);
    let regional = median(&[run_with(REGIONS, checks), run_with(REGIONS, checks)]);

    m.set("graph.generate_s", generate_s);
    m.set("graph.partition_s", partition_s);
    m.set("sim.build_s", build_s);
    set_engine_layers(m, &stepper, &stats, &untraced, &times, seed);
    m.set("sim.regions.speedup", serial / regional);
    untraced
}

// ---------------------------------------------------------------------
// traffic_chaos_export
// ---------------------------------------------------------------------

fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_scratch")
}

fn export_path(seed: u64) -> PathBuf {
    scratch_dir().join(format!("traffic-{}-{seed}.jsonl", std::process::id()))
}

/// A settled traffic run ready to be driven.
struct TrafficSetup {
    sim: LsrpSimulation,
    graph: Graph,
    schedule: FaultSchedule,
    monitors: Vec<Box<dyn Monitor>>,
    workload: WorkloadDriver,
    avail: AvailabilityMonitor,
    /// Per-layer set-up times: graph, engine build, settle, faults.
    parts: [f64; 4],
}

/// `traffic_chaos_export`'s faults: the standard link flaps, node churn
/// and partition, without its state corruptions. `WaveOrderMonitor`
/// attributes every C and SC action in a corruption's window to that
/// corruption, so a corruption that lands while a partition or a churned
/// node is still recovering can read as a wave-order inversion. The
/// standard process tripped it on 10 of seeds 0-299 on the bare grid (no
/// flows, infinite links), so the data plane plays no part. Corruption-only
/// and corruption-free processes tripped no monitor on 4,000 seeds each.
fn traffic_faults() -> FaultProcess {
    FaultProcess {
        corruptions: 0,
        ..FaultProcess::standard()
    }
}

fn traffic_setup(seed: u64, wrap: Option<Arc<SinkTimes>>) -> Result<TrafficSetup, String> {
    let dest = NodeId::new(0);
    std::fs::create_dir_all(scratch_dir()).map_err(|e| format!("scratch dir: {e}"))?;
    let t = Instant::now();
    let graph = generators::grid(GRID_SIDE, GRID_SIDE, 1);
    let graph_s = t.elapsed().as_secs_f64();
    let stream = lsrp_trace::streaming_factory(
        lsrp_trace::TraceConfig::new(export_path(seed)),
        SinkKind::Full,
    )
    .map_err(|e| format!("trace export file: {e}"))?;
    let factory: SinkFactory = match wrap {
        Some(times) => layers::timed_factory(Some(stream), SinkKind::Full, times),
        None => stream,
    };
    let config = EngineConfig::default()
        .with_seed(seed)
        .with_congestion(CongestionConfig::limited(LINK_RATE, QUEUE_CAP))
        .with_sink_factory(factory);
    let t = Instant::now();
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .engine_config(config)
        .build();
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.run_to_quiescence(HORIZON);
    let settle_s = t.elapsed().as_secs_f64();
    let t0 = sim.now().seconds();
    let t = Instant::now();
    let raw = traffic_faults().generate(&graph, dest, FAULT_WINDOW, seed);
    let faults_s = t.elapsed().as_secs_f64();
    let mut schedule = FaultSchedule::new();
    for e in &raw.events {
        schedule.push(t0 + e.at, e.fault.clone());
    }
    let timing = *sim.timing();
    let monitors = standard_monitors(&timing, graph.node_count());
    let spec = WorkloadSpec {
        kind: WorkloadKind::Poisson,
        flows: FLOWS,
        ..WorkloadSpec::default()
    };
    let workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, TRAFFIC_DURATION, seed)
        .with_transport(CongAlgKind::Aimd {
            initial: 4,
            max: 64,
        });
    Ok(TrafficSetup {
        sim,
        graph,
        schedule,
        monitors,
        workload,
        avail: AvailabilityMonitor::new(AVAIL_WINDOW),
        parts: [graph_s, build_s, settle_s, faults_s],
    })
}

/// The export file's hash, size in bytes and frame count; the file is
/// removed afterwards.
fn take_export(seed: u64) -> Result<(u64, u64, u64), String> {
    let path = export_path(seed);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading trace export: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(scratch_dir());
    let mut h = Fnv::new();
    h.bytes(&bytes);
    let frames = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
    Ok((h.finish(), bytes.len() as u64, frames))
}

/// What the checks of a finished traffic run need from its engine.
struct TrafficEnd {
    stats: EngineStats,
    routes: u64,
    in_flight: u64,
}

/// Reads what the checks need, then drops the engine, which flushes and
/// closes the export. Returns the seconds the drop took: users pay them.
fn close_traffic(sim: LsrpSimulation) -> (TrafficEnd, f64) {
    let end = TrafficEnd {
        stats: sim.stats(),
        routes: route_hash(&sim),
        in_flight: sim.engine().packets_in_flight(),
    };
    let t = Instant::now();
    drop(sim);
    (end, t.elapsed().as_secs_f64())
}

/// Checks a closed traffic run; returns its fingerprint and the export's
/// size in bytes and frames.
fn traffic_verdict(
    end: &TrafficEnd,
    violations: &[Violation],
    quiescent: bool,
    summary: &TrafficSummary,
    seed: u64,
    checks: &mut Checks,
) -> Result<(String, u64, u64), String> {
    let (stats, in_flight) = (&end.stats, end.in_flight);
    let (export, bytes, frames) = take_export(seed)?;
    checks.check(quiescent, || "traffic run did not drain".into());
    checks.check(violations.is_empty(), || {
        let list: Vec<String> = violations.iter().map(ToString::to_string).collect();
        format!("monitor violations: {}", list.join("; "))
    });
    let c = stats.traffic;
    checks.check(c.completed() == c.injected && in_flight == 0, || {
        format!(
            "packet conservation: injected {} completed {} in flight {in_flight}",
            c.injected,
            c.completed()
        )
    });
    let tail = format!(
        " viol={} pkts={}/{} flows={}/{} export={export:016x}",
        violations.len(),
        c.injected,
        c.completed(),
        summary.flows_completed,
        summary.flows_aborted,
    );
    Ok((engine_fingerprint(stats, end.routes, &tail), bytes, frames))
}

fn traffic_rep(seed: u64, checks: &mut Checks) -> Result<Rep, String> {
    let t = Instant::now();
    let mut s = traffic_setup(seed, None)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (report, summary) = run_traffic_monitored(
        &mut s.sim,
        &s.schedule,
        HORIZON,
        &mut s.monitors,
        &mut s.workload,
        &mut s.avail,
    );
    let run_s = t.elapsed().as_secs_f64();
    let (end, drop_s) = close_traffic(s.sim);
    let (fingerprint, _, _) = traffic_verdict(
        &end,
        &report.violations,
        report.quiescent,
        &summary,
        seed,
        checks,
    )?;
    Ok(Rep {
        setup_s: Some(setup_s),
        run_s: run_s + drop_s,
        events: end.stats.total_events(),
        fingerprint,
        peak_sampled: end.stats.peak_queue_depth,
        rss_mb: peak_rss_mb(),
    })
}

/// The traced traffic run: the loop of `run_traffic_monitored`, stepped
/// here so each monitor, availability observation and workload
/// scheduling call is timed on its own.
fn traffic_traced(seed: u64, checks: &mut Checks, m: &mut Metrics) -> Result<Rep, String> {
    let untraced = traffic_rep(seed, checks)?;
    checks.fingerprint(&seed.to_string(), &untraced.fingerprint, None);

    let times = Arc::new(SinkTimes::default());
    let mut s = traffic_setup(seed, Some(Arc::clone(&times)))?;
    let mut stepper = Stepper::new(&s.graph);
    let mut mon_ns = vec![0u64; s.monitors.len()];
    let mut observe = (0u64, 0u64);
    let mut schedule_s = 0.0;
    let mut violations = Vec::new();

    let drained = |sim: &LsrpSimulation| {
        !sim.engine().any_enabled_non_maintenance()
            && sim.engine().inflight_messages() == 0
            && sim.engine().packets_in_flight() == 0
            && sim.engine().flows_active() == 0
    };
    let ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Steps up to `until`, feeding every monitor; false when the run
    // drained first (the 256-event cadence of the library loop).
    let step_through = |s: &mut TrafficSetup,
                        stepper: &mut Stepper,
                        violations: &mut Vec<Violation>,
                        until: f64,
                        mon_ns: &mut [u64],
                        observe: &mut (u64, u64)| loop {
        match s.sim.engine().next_event_time() {
            Some(t) if t.seconds() <= until => {
                stepper.step(&mut s.sim);
                for (i, mon) in s.monitors.iter_mut().enumerate() {
                    let t = Instant::now();
                    mon.on_event(&s.sim, violations);
                    mon_ns[i] += ns(t);
                }
                if stepper.events.is_multiple_of(256) {
                    let t = Instant::now();
                    s.avail.observe(&mut s.sim);
                    observe.0 += ns(t);
                    observe.1 += 1;
                    if drained(&s.sim) {
                        return false;
                    }
                }
            }
            _ => return true,
        }
    };

    let wall = Instant::now();
    s.avail.arm(&mut s.sim);
    let events = s.schedule.events.clone();
    for ev in &events {
        let t = Instant::now();
        s.workload.ensure_scheduled(s.sim.engine_mut(), ev.at);
        schedule_s += t.elapsed().as_secs_f64();
        step_through(
            &mut s,
            &mut stepper,
            &mut violations,
            ev.at,
            &mut mon_ns,
            &mut observe,
        );
        if ev.at > s.sim.now().seconds() {
            s.sim.run_until(ev.at);
        }
        for (i, mon) in s.monitors.iter_mut().enumerate() {
            let t = Instant::now();
            mon.on_fault(SimTime::new(ev.at), &ev.fault, &s.sim, &mut violations);
            mon_ns[i] += ns(t);
        }
        let t = Instant::now();
        s.avail.observe(&mut s.sim);
        observe.0 += ns(t);
        observe.1 += 1;
        s.avail.invalidate_truth();
        let _ = ev.fault.apply_lsrp(&mut s.sim);
    }
    let t = Instant::now();
    s.workload
        .ensure_scheduled(s.sim.engine_mut(), f64::INFINITY);
    schedule_s += t.elapsed().as_secs_f64();
    loop {
        if drained(&s.sim) {
            break;
        }
        if !step_through(
            &mut s,
            &mut stepper,
            &mut violations,
            HORIZON,
            &mut mon_ns,
            &mut observe,
        ) {
            break;
        }
        if s.sim
            .engine()
            .next_event_time()
            .is_none_or(|t| t.seconds() > HORIZON)
        {
            break;
        }
    }
    let quiescent = drained(&s.sim);
    for (i, mon) in s.monitors.iter_mut().enumerate() {
        let t = Instant::now();
        mon.finish(&s.sim, &mut violations);
        mon_ns[i] += ns(t);
    }
    let t = Instant::now();
    s.avail.observe(&mut s.sim);
    observe.0 += ns(t);
    observe.1 += 1;
    let summary = s
        .avail
        .finish(s.sim.stats().traffic, s.sim.stats().congestion);
    let names: Vec<&'static str> = s.monitors.iter().map(|mon| mon.name()).collect();
    let (end, _) = close_traffic(s.sim);
    let traced_s = wall.elapsed().as_secs_f64();
    let (fp, bytes, frames) =
        traffic_verdict(&end, &violations, quiescent, &summary, seed, checks)?;
    let stats = end.stats;
    check_stepped(checks, &fp, &untraced, &stepper);

    let [graph_s, build_s, _, faults_s] = s.parts;
    m.set("graph.generate_s", graph_s);
    m.set("sim.build_s", build_s);
    m.set("faults.generate_s", faults_s);
    stepper.wall_s = traced_s;
    set_engine_layers(m, &stepper, &stats, &untraced, &times, seed);
    #[allow(clippy::cast_precision_loss)]
    {
        m.set(
            "trace.bytes_per_event",
            bytes as f64 / stats.total_events().max(1) as f64,
        );
        m.set("trace.frames", frames as f64);
        for (name, ns) in names.iter().zip(&mon_ns) {
            m.set(
                &format!("analysis.monitor_ns.{name}"),
                *ns as f64 / stepper.events.max(1) as f64,
            );
        }
        m.set(
            "analysis.avail_observe_ns",
            observe.0 as f64 / observe.1.max(1) as f64,
        );
    }
    m.set("analysis.workload_schedule_s", schedule_s);
    Ok(untraced)
}

/// The monitors `standard_monitors` builds, by `Monitor::name()`.
const MONITORS: [&str; 4] = ["convergence", "contamination", "wave-order", "loop-freedom"];

// ---------------------------------------------------------------------
// corpus
// ---------------------------------------------------------------------

/// Reads, parses and lowers every corpus file (the `lsrp scenario check`
/// path).
fn load_corpus() -> Result<Vec<lsrp_scenario::Scenario>, String> {
    CORPUS
        .iter()
        .map(|f| {
            let path = format!("scenarios/{f}");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let s = lsrp_scenario::load_str(&text).map_err(|e| format!("{path}: {e}"))?;
            lsrp_scenario::expand_list(&s).map_err(|e| format!("{path}: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// One pass over the corpus; returns the per-scenario seconds, indexed
/// like [`CORPUS`].
fn corpus_pass(
    corpus: &[lsrp_scenario::Scenario],
    checks: &mut Checks,
    first: &mut [Option<String>],
) -> Result<Vec<f64>, String> {
    let runner = lsrp_bench::scenario_runner::BenchRunner;
    let opts = lsrp_scenario::ExecOptions::sharded(nproc());
    let mut secs = vec![0.0; corpus.len()];
    for (i, s) in corpus.iter().enumerate() {
        let t = Instant::now();
        let outcome = lsrp_scenario::run_scenario_with(s, opts, Some(&runner))
            .map_err(|e| format!("scenario {}: {e}", s.name))?;
        secs[i] = t.elapsed().as_secs_f64();
        let name = s.name.clone();
        let failures = outcome.failures.clone();
        checks.check(failures.is_empty(), || {
            format!(
                "scenario {name} expectations failed: {}",
                failures.join("; ")
            )
        });
        let mut h = Fnv::new();
        h.bytes(outcome.report().as_bytes());
        let fp = format!("{:016x}", h.finish());
        checks.fingerprint(&s.name, &fp, first[i].as_deref());
        first[i].get_or_insert(fp);
    }
    Ok(secs)
}

/// Loads the corpus [`CORPUS_LOADS`] times; returns it and the seconds of
/// each load, appended to `loads`.
fn corpus_setup(loads: &mut Vec<f64>) -> Result<Vec<lsrp_scenario::Scenario>, String> {
    let mut corpus = Vec::new();
    for _ in 0..CORPUS_LOADS {
        let t = Instant::now();
        corpus = load_corpus()?;
        loads.push(t.elapsed().as_secs_f64());
    }
    Ok(corpus)
}

fn corpus_untraced(seconds: f64, checks: &mut Checks) -> Outcome {
    let start = Instant::now();
    let mut loads = Vec::new();
    let mut first = vec![None; CORPUS.len()];
    let mut runs = Vec::new();
    let mut rss = 0.0;
    loop {
        let corpus = corpus_setup(&mut loads)?;
        let secs = corpus_pass(&corpus, checks, &mut first)?;
        runs.push(secs.iter().sum::<f64>());
        if runs.len() == 1 {
            rss = peak_rss_mb();
        }
        if !another_fits(start, runs.len(), seconds) {
            break;
        }
    }
    let run_s = fastest(&runs);
    let setup_s = fastest(&loads);
    let mut m = Metrics::default();
    m.push("run_s", run_s, "s");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", rss, "MiB");
    let summary = format!(
        "passes={} run_s={run_s} s median_run_s={} s setup_s={setup_s} s peak_rss_mb={rss} MiB ",
        runs.len(),
        median(&runs),
    );
    Ok((m, summary))
}

fn corpus_traced(checks: &mut Checks, m: &mut Metrics) -> Result<f64, String> {
    let mut loads = Vec::new();
    let corpus = corpus_setup(&mut loads)?;
    let load_s = fastest(&loads);
    let mut first = vec![None; corpus.len()];
    let t = Instant::now();
    corpus_pass(&corpus, checks, &mut first)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let secs = corpus_pass(&corpus, checks, &mut first)?;
    let traced_s = t.elapsed().as_secs_f64();
    m.set("scenario.load_s", load_s);
    for (s, secs) in corpus.iter().zip(secs) {
        m.set(&format!("scenario.run_s.{}", s.name), secs);
    }
    m.set("bench.untraced_run_s", untraced_s);
    m.set("bench.traced_run_s", traced_s);
    Ok(untraced_s)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Whether one more repetition, at the mean repetition time so far, still
/// ends within `seconds` of `start`: a run lasts at most `seconds`, and
/// always at least one repetition.
fn another_fits(start: Instant, reps: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let per_rep = elapsed / reps as f64;
    elapsed + per_rep <= seconds
}

/// Repeats the workload (fresh set-up each time) for up to `seconds` and
/// reports the fastest repetition's `run_s` and the fastest `setup_s`.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64, checks: &mut Checks) -> Outcome {
    if workload == "corpus" {
        return corpus_untraced(seconds, checks);
    }
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = if workload == "fattree_coldstart" {
            fattree_rep(seed, checks)
        } else {
            traffic_rep(seed, checks)?
        };
        eprintln!(
            "perfbench: rep {} setup_s={:?} run_s={:.6}",
            reps.len(),
            rep.setup_s,
            rep.run_s
        );
        let first = reps.first().map(|r| r.fingerprint.clone());
        checks.fingerprint(&seed.to_string(), &rep.fingerprint, first.as_deref());
        reps.push(rep);
        if !another_fits(start, reps.len(), seconds) {
            break;
        }
    }
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let run_s = fastest(&runs);
    let setup_s = fastest(&reps.iter().filter_map(|r| r.setup_s).collect::<Vec<_>>());
    // Every repetition repeats the first one's events (the fingerprint
    // checks it), so the fastest one also has the highest rate.
    #[allow(clippy::cast_precision_loss)]
    let events_per_s = reps[0].events as f64 / run_s;
    // Later repetitions inherit the allocator's retained memory, so the
    // first one is the peak a user's single run pays.
    let rss = reps[0].rss_mb;
    let mut m = Metrics::default();
    m.push("run_s", run_s, "s");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", rss, "MiB");
    let summary = format!(
        "reps={} events={} run_s={run_s} s median_run_s={} s events_per_s={events_per_s} 1/s setup_s={setup_s} s peak_rss_mb={rss} MiB ",
        reps.len(),
        reps[0].events,
        median(&runs),
    );
    Ok((m, summary))
}

/// One untraced and one traced repetition; prints every per-layer metric.
pub fn run_traced(workload: &str, seed: u64, checks: &mut Checks) -> Outcome {
    let mut m = layer_metrics();
    let untraced_s = match workload {
        "fattree_coldstart" => fattree_traced(seed, checks, &mut m).run_s,
        "traffic_chaos_export" => traffic_traced(seed, checks, &mut m)?.run_s,
        _ => corpus_traced(checks, &mut m)?,
    };
    let overhead = m.get("bench.traced_run_s") - m.get("bench.untraced_run_s");
    m.set("bench.trace_overhead_s", overhead);
    Ok((m, format!("untraced_run_s={untraced_s} s ")))
}
