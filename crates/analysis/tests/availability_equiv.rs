//! Equivalence of the O(n) snapshot availability with its literal
//! definitions: `availability` must equal the per-node `forward_packet`
//! delivered count over `n` on arbitrary tables, and
//! `measure_availability` must reproduce the one-evaluation-per-sample
//! loop sample for sample, bit for bit.

use std::collections::BTreeSet;

use lsrp_analysis::forwarding::{availability, forward_packet};
use lsrp_analysis::{measure_availability, PacketFate, RoutingSimulation};
use lsrp_baselines::{
    BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
    PvSimulation,
};
use lsrp_core::{LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_faults::corruption::contiguous_region;
use lsrp_graph::{generators, Distance, Graph, NodeId, RouteEntry, RouteTable};
use lsrp_sim::EngineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The literal definition: walk a packet from every node.
fn literal_availability(table: &RouteTable, graph: &Graph, dest: NodeId) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 1.0;
    }
    let delivered = graph
        .nodes()
        .filter(|&v| {
            matches!(
                forward_packet(table, graph, v, dest, 4 * n),
                PacketFate::Delivered { .. }
            )
        })
        .count();
    delivered as f64 / n as f64
}

/// A random graph on sparse ids with a random table: parents that are
/// neighbours, non-neighbours or absent ids, self parents, `∞`
/// distances, missing entries, and planted cycles of length `cycle`.
fn random_case(rng: &mut StdRng, cycle: usize) -> (Graph, RouteTable, NodeId) {
    let mut ids = BTreeSet::new();
    let n = rng.gen_range(cycle.max(1)..=cycle.max(1) + 10);
    while ids.len() < n {
        ids.insert(NodeId::new(rng.gen_range(0..4 * n as u32)));
    }
    let ids: Vec<NodeId> = ids.into_iter().collect();
    let mut graph = Graph::new();
    for &v in &ids {
        graph.add_node(v);
    }
    let density = rng.gen_range(0.0..0.6);
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            if rng.gen_bool(density) {
                graph.add_edge(a, b, 1).unwrap();
            }
        }
    }
    let pick = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
    let mut table = RouteTable::new();
    for &v in &ids {
        let distance = if rng.gen_bool(0.15) {
            Distance::Infinite
        } else {
            Distance::Finite(rng.gen_range(0..20))
        };
        let neighbors: Vec<NodeId> = graph.neighbors(v).map(|(k, _)| k).collect();
        let parent = match rng.gen_range(0..10) {
            0 => continue, // no entry at all
            1 => v,
            2 => NodeId::new(rng.gen_range(0..8 * n as u32)), // maybe absent
            3 => pick(rng),
            _ if neighbors.is_empty() => pick(rng),
            _ => neighbors[rng.gen_range(0..neighbors.len())],
        };
        table.insert(v, RouteEntry::new(distance, parent));
    }
    // Plant a parent cycle of exactly `cycle` nodes over up edges.
    if cycle >= 2 {
        let mut on_cycle = ids.clone();
        for i in (1..on_cycle.len()).rev() {
            on_cycle.swap(i, rng.gen_range(0..=i));
        }
        on_cycle.truncate(cycle);
        for (i, &a) in on_cycle.iter().enumerate() {
            let b = on_cycle[(i + 1) % cycle];
            if !graph.has_edge(a, b) {
                graph.add_edge(a, b, 1).unwrap();
            }
            table.insert(a, RouteEntry::new(Distance::Finite(1), b));
        }
    }
    let dest = if rng.gen_bool(0.2) {
        NodeId::new(8 * n as u32 + 1) // absent from the graph
    } else {
        pick(rng)
    };
    if rng.gen_bool(0.5) {
        // The destination's own entry is arbitrary and must not matter.
        table.insert(dest, RouteEntry::new(Distance::Finite(7), pick(rng)));
    }
    (graph, table, dest)
}

#[test]
fn availability_equals_the_per_node_walk() {
    let mut rng = StdRng::seed_from_u64(0x5eed_a7a1);
    for case in 0..3000 {
        let cycle = case % 14;
        let (graph, table, dest) = random_case(&mut rng, cycle);
        assert_eq!(
            availability(&table, &graph, dest),
            literal_availability(&table, &graph, dest),
            "case {case}: dest {dest:?}, table {table:?}, graph {graph:?}"
        );
    }
}

#[test]
fn availability_of_an_empty_graph_is_one() {
    let graph = Graph::new();
    let table = RouteTable::new();
    assert_eq!(availability(&table, &graph, NodeId::new(0)), 1.0);
    assert_eq!(literal_availability(&table, &graph, NodeId::new(0)), 1.0);
}

/// The sampling loop before samples crossed by one step shared an
/// evaluation: one `availability` call per sample point.
fn per_sample_reference(
    sim: &mut dyn RoutingSimulation,
    horizon: f64,
    sample_every: f64,
) -> Vec<(f64, f64)> {
    let dest = sim.destination();
    let mut samples = Vec::new();
    let mut next_sample = sim.now().seconds();
    let take = |sim: &dyn RoutingSimulation, t: f64, samples: &mut Vec<(f64, f64)>| {
        samples.push((t, availability(&sim.route_table(), sim.graph(), dest)));
    };
    take(sim, next_sample, &mut samples);
    next_sample += sample_every;
    while let Some(t) = sim.step() {
        if t.seconds() > horizon {
            break;
        }
        while t.seconds() >= next_sample {
            take(sim, next_sample, &mut samples);
            next_sample += sample_every;
        }
    }
    take(sim, sim.now().seconds(), &mut samples);
    samples
}

const PROTOCOLS: [&str; 4] = ["lsrp", "dbf", "dual", "pv"];

/// The E13 cell: a size-`p` region near the destination of a `w`×`w`
/// grid hijacks the prefix and its neighbours learn the bogus route.
fn hijacked(protocol: &str, w: u32, p: usize, seed: u64) -> Box<dyn RoutingSimulation> {
    let graph = generators::grid(w, w, 1);
    let dest = NodeId::new(0);
    let engine = EngineConfig::default().with_seed(seed);
    let mut sim: Box<dyn RoutingSimulation> = match protocol {
        "lsrp" => Box::new(
            LsrpSimulation::builder(graph.clone(), dest)
                .timing(TimingConfig::paper_example(1.0))
                .engine_config(engine)
                .build(),
        ),
        "dbf" => Box::new(DbfSimulation::new(
            graph.clone(),
            dest,
            None,
            DbfConfig::default(),
            engine,
        )),
        "dual" => Box::new(DualSimulation::new(
            graph.clone(),
            dest,
            None,
            DualConfig {
                infinity: 4096,
                active_timeout: 20_000.0,
                ..DualConfig::default()
            },
            engine,
        )),
        "pv" => Box::new(PvSimulation::new(
            graph.clone(),
            dest,
            None,
            PvConfig::default(),
            engine,
        )),
        other => unreachable!("{other}"),
    };
    sim.reset_trace();
    for node in contiguous_region(&graph, NodeId::new(w + 1), p, dest) {
        sim.inject_route(node, Distance::ZERO, node);
        for (k, _) in graph.neighbors(node) {
            sim.poison_mirror(k, node, Distance::ZERO);
        }
    }
    sim
}

fn assert_same_trace(protocol: &str, w: u32, p: usize, seed: u64) {
    const HORIZON: f64 = 5_000_000.0;
    let fast = measure_availability(hijacked(protocol, w, p, seed).as_mut(), HORIZON, 1.0);
    let reference = per_sample_reference(hijacked(protocol, w, p, seed).as_mut(), HORIZON, 1.0);
    let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
        s.iter().map(|&(t, a)| (t.to_bits(), a.to_bits())).collect()
    };
    assert_eq!(
        bits(&fast.samples),
        bits(&reference),
        "{protocol} w={w} p={p} seed={seed}"
    );
    assert!(
        fast.min < 1.0,
        "{protocol} w={w} p={p} seed={seed}: the hijack must be visible"
    );
}

#[test]
fn measure_availability_matches_per_sample_evaluation_on_e13() {
    for protocol in PROTOCOLS {
        assert_same_trace(protocol, 16, 4, 3);
    }
}

#[test]
fn measure_availability_matches_per_sample_evaluation_across_seeds() {
    for seed in 0..4 {
        for protocol in PROTOCOLS {
            assert_same_trace(protocol, 10, 2, seed);
        }
    }
}
