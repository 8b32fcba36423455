//! Forwarding-plane availability (§III-B: "The availability of an f-local
//! stabilizing system is high...").
//!
//! The control plane's job is to keep the *data plane* working: a packet
//! at node `v` follows parent pointers hop by hop and is delivered when it
//! reaches the destination, black-holed at a routeless node, or caught in
//! a loop. Sampling the fraction of nodes with a working path during
//! recovery quantifies the availability claim the paper makes informally.

use lsrp_graph::{Distance, Graph, NodeId, RouteTable};

use crate::sim_trait::RoutingSimulation;

/// What happens to a packet injected at one node on a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Reached the destination in this many hops.
    Delivered {
        /// Forwarding hops taken.
        hops: usize,
    },
    /// Hit a node with no route (infinite distance / self parent / dead
    /// link) and was dropped.
    BlackHoled {
        /// Where the packet died.
        at: NodeId,
    },
    /// Entered a true parent-pointer cycle (proved by revisiting a node,
    /// not inferred from a spent budget).
    Looped {
        /// Length of the cycle in hops.
        cycle_len: usize,
    },
    /// The hop budget ran out on a long-but-finite path — distinct from a
    /// proven cycle. With any budget `>= 3 * graph size` this cannot
    /// happen on a snapshot (paths without cycles are simple).
    HopBudgetExceeded,
}

/// Forwards one packet from `from` toward `dest` on a route-table
/// snapshot, following parent pointers across up edges only.
///
/// Cycles are detected with Brent's algorithm in O(1) extra memory: a
/// checkpoint node is re-planted at power-of-two hop counts, and since
/// the snapshot makes the next hop a pure function of the current node,
/// revisiting the checkpoint proves a cycle and yields its exact length.
pub fn forward_packet(
    table: &RouteTable,
    graph: &Graph,
    from: NodeId,
    dest: NodeId,
    max_hops: usize,
) -> PacketFate {
    let mut at = from;
    let mut hops = 0;
    let mut checkpoint = from;
    let mut lap = 0usize;
    let mut power = 1usize;
    loop {
        if at == dest {
            return PacketFate::Delivered { hops };
        }
        if hops >= max_hops {
            return PacketFate::HopBudgetExceeded;
        }
        let Some(next) = next_hop(table, graph, at) else {
            return PacketFate::BlackHoled { at };
        };
        if next == checkpoint {
            return PacketFate::Looped { cycle_len: lap + 1 };
        }
        lap += 1;
        if lap == power {
            checkpoint = next;
            power = power.saturating_mul(2);
            lap = 0;
        }
        at = next;
        hops += 1;
    }
}

/// The hop a packet at `at` takes next, or `None` if it is dropped there:
/// no entry, a self parent, an infinite distance, or no up edge to the
/// parent. The one definition both [`forward_packet`] and
/// [`availability`] forward by.
fn next_hop(table: &RouteTable, graph: &Graph, at: NodeId) -> Option<NodeId> {
    let entry = table.entry(at)?;
    let next = entry.parent;
    (next != at && entry.distance != Distance::Infinite && graph.has_edge(at, next)).then_some(next)
}

/// A node's packet fate while [`availability`] resolves it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Unknown,
    OnWalk,
    Delivered,
    Dropped,
}

/// The fraction of up nodes whose packet currently reaches the
/// destination (the destination itself counts as delivered).
///
/// Equals the share of nodes for which [`forward_packet`] returns
/// `Delivered` under any budget `>= n`, but settles each node once: next
/// hops form a functional graph, so a walk stops at the first node whose
/// fate is known and writes its verdict back along the walked path.
/// Reaching a node on the current walk proves a cycle. O(n) table and
/// edge lookups per call, against O(n · path length) for per-node walks.
pub fn availability(table: &RouteTable, graph: &Graph, dest: NodeId) -> f64 {
    let n = graph.node_count();
    // Ids may be sparse; `nodes()` ascends, so the last one is the largest.
    let Some(last) = graph.nodes().last() else {
        return 1.0;
    };
    let mut fate = vec![Fate::Unknown; last.raw() as usize + 1];
    if let Some(f) = fate.get_mut(dest.raw() as usize) {
        *f = Fate::Delivered;
    }
    let mut walk = Vec::new();
    for v in graph.nodes() {
        let mut at = v;
        // Every hop crosses an up edge, so `at` is always a graph node.
        let verdict = loop {
            match fate[at.raw() as usize] {
                Fate::Unknown => {}
                Fate::OnWalk => break Fate::Dropped,
                known => break known,
            }
            fate[at.raw() as usize] = Fate::OnWalk;
            walk.push(at);
            match next_hop(table, graph, at) {
                Some(next) => at = next,
                None => break Fate::Dropped,
            }
        };
        for u in walk.drain(..) {
            fate[u.raw() as usize] = verdict;
        }
    }
    let delivered = graph
        .nodes()
        .filter(|v| fate[v.raw() as usize] == Fate::Delivered)
        .count();
    delivered as f64 / n as f64
}

/// Availability sampled through a recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityTrace {
    /// `(time, availability)` samples, one per sampling interval.
    pub samples: Vec<(f64, f64)>,
    /// Worst instantaneous availability observed.
    pub min: f64,
    /// Time-averaged availability over the recovery window.
    pub mean: f64,
    /// Total simulated seconds during which availability was below 1.
    pub degraded_time: f64,
    /// Integrated unavailability `∫ (1 − a(t)) dt` — "availability-seconds
    /// lost", the window-length-independent damage measure.
    pub lost: f64,
}

/// Steps `sim` until quiescence (or `horizon`), sampling forwarding-plane
/// availability every `sample_every` simulated seconds. Call right after
/// injecting a fault.
///
/// The first sample reads the table at the start time and the last reads
/// it when stepping stops. In between, the sample at time `s` reads the
/// table *after* the first event at or after `s` has been applied, so a
/// sample can be one event late. All sample points that one step crosses
/// share one evaluation of [`availability`]: the table cannot change
/// between them. The cost is one O(n) evaluation per crossing step, not
/// per sample.
pub fn measure_availability<S: RoutingSimulation + ?Sized>(
    sim: &mut S,
    horizon: f64,
    sample_every: f64,
) -> AvailabilityTrace {
    assert!(sample_every > 0.0, "sampling interval must be positive");
    let dest = sim.destination();
    let mut samples = Vec::new();
    let mut next_sample = sim.now().seconds();
    let avail = |sim: &S| availability(&sim.route_table(), sim.graph(), dest);
    samples.push((next_sample, avail(sim)));
    next_sample += sample_every;
    while let Some(t) = sim.step() {
        if t.seconds() > horizon {
            break;
        }
        if t.seconds() >= next_sample {
            let a = avail(sim);
            while t.seconds() >= next_sample {
                samples.push((next_sample, a));
                next_sample += sample_every;
            }
        }
    }
    samples.push((sim.now().seconds(), avail(sim)));
    let min = samples.iter().map(|&(_, a)| a).fold(1.0, f64::min);
    let mean = samples.iter().map(|&(_, a)| a).sum::<f64>() / samples.len() as f64;
    let degraded_time = samples
        .windows(2)
        .filter(|w| w[0].1 < 1.0)
        .map(|w| w[1].0 - w[0].0)
        .sum();
    let lost = samples
        .windows(2)
        .map(|w| (1.0 - w[0].1) * (w[1].0 - w[0].0))
        .sum();
    AvailabilityTrace {
        samples,
        min,
        mean,
        degraded_time,
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::{generators, RouteEntry};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn packets_follow_parents() {
        let g = generators::path(4, 1);
        let t = RouteTable::legitimate(&g, v(0));
        assert_eq!(
            forward_packet(&t, &g, v(3), v(0), 16),
            PacketFate::Delivered { hops: 3 }
        );
        assert_eq!(
            forward_packet(&t, &g, v(0), v(0), 16),
            PacketFate::Delivered { hops: 0 }
        );
    }

    #[test]
    fn black_holes_and_loops_are_detected() {
        let g = generators::path(4, 1);
        let mut t = RouteTable::legitimate(&g, v(0));
        t.insert(v(2), RouteEntry::no_route(v(2)));
        assert_eq!(
            forward_packet(&t, &g, v(3), v(0), 16),
            PacketFate::BlackHoled { at: v(2) }
        );
        // 2-loop between v2 and v3: detected as a cycle with its length,
        // well before the hop budget is spent.
        t.insert(v(2), RouteEntry::new(Distance::Finite(1), v(3)));
        t.insert(v(3), RouteEntry::new(Distance::Finite(2), v(2)));
        assert_eq!(
            forward_packet(&t, &g, v(3), v(0), 16),
            PacketFate::Looped { cycle_len: 2 }
        );
        // A parent not connected by an up edge black-holes too.
        t.insert(v(3), RouteEntry::new(Distance::Finite(2), v(1)));
        assert_eq!(
            forward_packet(&t, &g, v(3), v(0), 16),
            PacketFate::BlackHoled { at: v(3) }
        );
    }

    #[test]
    fn long_cycles_report_their_exact_length() {
        // Ring parents all pointing clockwise toward a dest that is not on
        // the ring's tree: a pure n-cycle.
        let n = 7;
        let g = generators::ring(n, 1);
        let mut t = RouteTable::legitimate(&g, v(0));
        for i in 0..n {
            t.insert(v(i), RouteEntry::new(Distance::Finite(1), v((i + 1) % n)));
        }
        // Destination outside the table's reach: every start loops.
        for start in 0..n {
            let fate = forward_packet(&t, &g, v(start), v(99), 4 * n as usize);
            assert_eq!(fate, PacketFate::Looped { cycle_len: 7 }, "start {start}");
        }
    }

    #[test]
    fn budget_overflow_is_distinct_from_a_proven_cycle() {
        // A long-but-finite path with a budget too small to finish: the
        // old conflated `Looped` would have cried loop here.
        let g = generators::path(12, 1);
        let t = RouteTable::legitimate(&g, v(0));
        assert_eq!(
            forward_packet(&t, &g, v(11), v(0), 4),
            PacketFate::HopBudgetExceeded
        );
        assert_eq!(
            forward_packet(&t, &g, v(11), v(0), 11),
            PacketFate::Delivered { hops: 11 }
        );
    }

    #[test]
    fn availability_of_legitimate_table_is_one() {
        let g = generators::grid(4, 4, 1);
        let t = RouteTable::legitimate(&g, v(0));
        assert_eq!(availability(&t, &g, v(0)), 1.0);
    }

    #[test]
    fn availability_dips_and_recovers_through_a_fault() {
        let mut sim = LsrpSimulation::builder(generators::grid(5, 5, 1), v(0)).build();
        sim.corrupt_parent(v(12), v(12)); // black-hole the center
        let trace = measure_availability(&mut sim as &mut dyn RoutingSimulation, 100_000.0, 1.0);
        assert!(trace.min < 1.0, "the corruption must be visible");
        assert_eq!(
            trace.samples.last().unwrap().1,
            1.0,
            "full availability restored"
        );
        assert!(trace.degraded_time > 0.0);
        assert!(trace.mean > trace.min);
    }
}
