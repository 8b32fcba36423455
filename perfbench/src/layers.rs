//! Per-layer timing from outside the library: a wrapper [`TraceSink`]
//! installed through a [`SinkFactory`], a single-stepped event loop that
//! classifies each `step()` by its `EventCounts` delta, direct calls to
//! `ProtocolNode::enabled_actions_into` on sampled nodes, and a hold
//! benchmark of a bare `EventQueue`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lsrp_core::LsrpSimulation;
use lsrp_graph::{Graph, NodeId};
use lsrp_sim::{
    ActionRecord, CountsOnly, EnabledSet, EventCounts, EventKey, EventQueue, FlowRecord,
    MarkerKind, PacketRecord, ProtocolNode, SchedulerKind, SimTime, SinkFactory, Trace, TraceSink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Metrics;

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[allow(clippy::cast_precision_loss)]
fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Totals shared between a [`TimedSink`] inside an engine and the
/// benchmark that reads them after the run. The counters publish no other
/// data, so relaxed ordering suffices.
#[derive(Default)]
pub struct SinkTimes {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl SinkTimes {
    /// Mean host ns per timed hook call.
    pub fn hook_ns(&self) -> f64 {
        per(
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Forwards every hook to the sink the engine would have used and times
/// the recording hooks.
struct TimedSink {
    inner: Box<dyn TraceSink>,
    times: Arc<SinkTimes>,
}

impl TimedSink {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn TraceSink) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.times.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.times.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl TraceSink for TimedSink {
    fn record_action(&mut self, rec: ActionRecord, keep_records: bool) {
        self.timed(|s| s.record_action(rec, keep_records));
    }
    fn record_receive_change(&mut self, time: SimTime, node: NodeId) {
        self.timed(|s| s.record_receive_change(time, node));
    }
    fn count_sent(&mut self, from: NodeId) {
        self.timed(|s| s.count_sent(from));
    }
    fn count_delivered(&mut self) {
        self.timed(|s| s.count_delivered());
    }
    fn count_dropped_lossy(&mut self) {
        self.timed(|s| s.count_dropped_lossy());
    }
    fn count_dropped_dead(&mut self) {
        self.timed(|s| s.count_dropped_dead());
    }
    fn count_duplicated(&mut self) {
        self.timed(|s| s.count_duplicated());
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn trace(&self) -> Option<&Trace> {
        self.inner.trace()
    }
    fn counts(&self) -> Option<&CountsOnly> {
        self.inner.counts()
    }
    fn attach(&mut self, graph: &Graph, seed: u64) {
        self.inner.attach(graph, seed);
    }
    fn record_marker(
        &mut self,
        time: SimTime,
        kind: MarkerKind,
        a: Option<NodeId>,
        b: Option<NodeId>,
    ) {
        self.timed(|s| s.record_marker(time, kind, a, b));
    }
    fn record_view_update(
        &mut self,
        time: SimTime,
        node: NodeId,
        entry: Option<lsrp_sim::view::ViewEntry>,
    ) {
        self.timed(|s| s.record_view_update(time, node, entry));
    }
    fn record_packet_done(&mut self, rec: &PacketRecord) {
        self.timed(|s| s.record_packet_done(rec));
    }
    fn record_flow_done(&mut self, rec: &FlowRecord) {
        self.timed(|s| s.record_flow_done(rec));
    }
    fn record_queue_sample(
        &mut self,
        time: SimTime,
        from: NodeId,
        to: NodeId,
        occupancy: u64,
        dropped: bool,
    ) {
        self.timed(|s| s.record_queue_sample(time, from, to, occupancy, dropped));
    }
    fn wants_queue_samples(&self) -> bool {
        self.inner.wants_queue_samples()
    }
    fn footprint(&self) -> Option<usize> {
        self.inner.footprint()
    }
}

/// Wraps whatever sink `base` builds in a [`TimedSink`] reporting into
/// `times`. Like the engine's own fallback, a factory that declines
/// (a consumed one-shot) yields the plain `fallback` kind, timed.
pub fn timed_factory(
    base: Option<SinkFactory>,
    fallback: lsrp_sim::SinkKind,
    times: Arc<SinkTimes>,
) -> SinkFactory {
    SinkFactory::new(move || {
        let inner = base
            .as_ref()
            .and_then(SinkFactory::build)
            .unwrap_or_else(|| fallback.build());
        Some(Box::new(TimedSink {
            inner,
            times: Arc::clone(&times),
        }) as Box<dyn TraceSink>)
    })
}

/// Step classes, in `sim.step_ns.<class>` order.
pub const STEP_CLASSES: [&str; 6] = [
    "deliver",
    "guard_timer",
    "wakeup",
    "packet_hop",
    "port_drain",
    "flow",
];

/// Host time of single-stepped events, by event class, plus the guard
/// evaluation samples taken along the way.
pub struct Stepper {
    ns: [u64; 6],
    count: [u64; 6],
    unclassified: u64,
    pub events: u64,
    /// Wall-clock seconds of the whole stepped loop, instrumentation
    /// included.
    pub wall_s: f64,
    guards: GuardSampler,
}

fn class_of(before: &EventCounts, after: &EventCounts) -> Option<usize> {
    let d = |a: u64, b: u64| a != b;
    if d(before.deliveries, after.deliveries) {
        Some(0)
    } else if d(before.guard_timers, after.guard_timers) {
        Some(1)
    } else if d(before.wakeups, after.wakeups) {
        Some(2)
    } else if d(before.packet_hops, after.packet_hops) {
        Some(3)
    } else if d(before.port_drains, after.port_drains) {
        Some(4)
    } else if d(before.flow_acks, after.flow_acks) || d(before.flow_timers, after.flow_timers) {
        Some(5)
    } else {
        None
    }
}

impl Stepper {
    pub fn new(graph: &Graph) -> Self {
        Stepper {
            ns: [0; 6],
            count: [0; 6],
            unclassified: 0,
            events: 0,
            wall_s: 0.0,
            guards: GuardSampler::new(graph),
        }
    }

    /// Processes one event, timing the `step()` call alone; samples guard
    /// evaluation every [`GuardSampler::EVERY`] events.
    pub fn step(&mut self, sim: &mut LsrpSimulation) {
        let before = sim.engine().event_counts();
        let t = Instant::now();
        sim.step();
        let ns = ns_since(t);
        let after = sim.engine().event_counts();
        match class_of(&before, &after) {
            Some(c) => {
                self.ns[c] += ns;
                self.count[c] += 1;
            }
            None => self.unclassified += 1,
        }
        self.events += 1;
        if self.events.is_multiple_of(GuardSampler::EVERY) {
            self.guards.sample(sim);
        }
    }

    /// Steps to quiescence under the same stop rule as
    /// `Engine::run_to_quiescence` (queue drained, or nothing effective
    /// for a settle window with no protocol action enabled), so the
    /// stepped trajectory is the one the untraced run took.
    pub fn run_to_quiescence(&mut self, sim: &mut LsrpSimulation, horizon: f64) -> bool {
        let settle = sim.settle_window();
        let t = Instant::now();
        let quiescent = loop {
            let Some(next) = sim.engine().next_event_time() else {
                break true;
            };
            let le = sim.engine().last_effective().seconds();
            if settle > 0.0
                && next.seconds() > le + settle
                && !sim.engine().any_enabled_non_maintenance()
            {
                break true;
            }
            if next.seconds() > horizon {
                break false;
            }
            self.step(sim);
        };
        self.wall_s += t.elapsed().as_secs_f64();
        quiescent
    }

    pub fn report(&self, m: &mut Metrics) {
        for (i, class) in STEP_CLASSES.iter().enumerate() {
            m.set(
                &format!("sim.step_ns.{class}"),
                per(self.ns[i], self.count[i]),
            );
        }
        self.guards.report(m);
    }

    /// Events whose `EventCounts` delta matched no class (expected 0).
    pub fn unclassified(&self) -> u64 {
        self.unclassified
    }
}

/// Times `LsrpNode::enabled_actions_into` on a fixed node sample.
struct GuardSampler {
    nodes: Vec<NodeId>,
    maxdeg: Option<NodeId>,
    all: Vec<f64>,
    maxdeg_ns: Vec<f64>,
    set: EnabledSet,
}

impl GuardSampler {
    /// Events between two samples.
    const EVERY: u64 = 4096;
    /// Nodes per sample, spread evenly over the node ids.
    const NODES: usize = 32;
    /// Back-to-back calls timed together per node, so the clock's own
    /// cost is amortized.
    const REPS: u32 = 16;

    fn new(graph: &Graph) -> Self {
        let ids: Vec<NodeId> = graph.nodes().collect();
        let stride = (ids.len() / Self::NODES).max(1);
        let nodes = ids
            .iter()
            .copied()
            .step_by(stride)
            .take(Self::NODES)
            .collect();
        let maxdeg = ids
            .iter()
            .copied()
            .max_by_key(|&v| (graph.degree(v), u32::MAX - v.raw()));
        GuardSampler {
            nodes,
            maxdeg,
            all: Vec::new(),
            maxdeg_ns: Vec::new(),
            set: EnabledSet::none(),
        }
    }

    /// Host ns of one call on `v`, evaluated at the engine's global time
    /// (a node's local clock is not public; LSRP's guards read it only for
    /// the periodic `SYN` refresh).
    fn time_node(&mut self, sim: &LsrpSimulation, v: NodeId) -> Option<f64> {
        let node = sim.engine().node(v)?;
        let now = sim.now().seconds();
        let t = Instant::now();
        for _ in 0..Self::REPS {
            node.enabled_actions_into(black_box(now), &mut self.set);
            black_box(&self.set);
        }
        #[allow(clippy::cast_precision_loss)]
        Some(ns_since(t) as f64 / f64::from(Self::REPS))
    }

    fn sample(&mut self, sim: &LsrpSimulation) {
        for i in 0..self.nodes.len() {
            if let Some(ns) = self.time_node(sim, self.nodes[i]) {
                self.all.push(ns);
            }
        }
        if let Some(v) = self.maxdeg {
            if let Some(ns) = self.time_node(sim, v) {
                self.maxdeg_ns.push(ns);
            }
        }
    }

    fn report(&self, m: &mut Metrics) {
        let med = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                crate::median(xs)
            }
        };
        m.set("core.guard_eval_ns", med(&self.all));
        m.set("core.guard_eval_ns_maxdeg", med(&self.maxdeg_ns));
    }
}

/// Host ns of one `EventQueue` schedule + pop pair (the hold model) at a
/// steady depth of `depth` pending events, on the engine's default
/// scheduler.
pub fn sched_hold_ns(depth: usize, seed: u64) -> f64 {
    const OPS: u32 = 1 << 20;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new(SchedulerKind::default());
    let mut k = 0u64;
    for _ in 0..depth.max(1) {
        k += 1;
        q.schedule(SimTime::new(rng.gen::<f64>() * 2.0), EventKey::driver(k), 0);
    }
    let t = Instant::now();
    for _ in 0..OPS {
        let (time, _, item) = q.pop().expect("the hold model keeps the queue at depth");
        k += 1;
        let next = time.seconds() + 1.0 + rng.gen::<f64>();
        q.schedule(SimTime::new(next), EventKey::driver(k), black_box(item));
    }
    #[allow(clippy::cast_precision_loss)]
    let ns = ns_since(t) as f64 / f64::from(OPS);
    black_box(q.len());
    ns
}
