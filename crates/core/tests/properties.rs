//! Property-based tests of LSRP's theorems.
//!
//! * Theorem 1 (self-stabilization): from fully arbitrary states —
//!   including corrupted mirrors and timestamps — every computation
//!   reaches a legitimate state (requires the periodic `SYN` refresh).
//! * Theorem 3 (loop freedom): starting from loop-free states whose
//!   mirrors are consistent, no routing loop appears at *any* state along
//!   the computation (checked after every single event).
//! * Theorem 4 (1-round loop breakage): starting with a corrupted-in loop,
//!   the loop disappears within `O(hd_S + d)` time regardless of length.
//! * The one-pass guard summary ([`Guards`]) decides every guard, and
//!   `LsrpNode` enables every action with the same hold and fingerprint,
//!   exactly as the literal per-neighbor definitions in [`oracle`] do, on
//!   arbitrary (corrupted) states.

use proptest::prelude::*;

use lsrp_core::predicates::Guards;
use lsrp_core::{
    InitialState, LsrpNode, LsrpSimulation, LsrpSimulationExt, LsrpState, Mirror, TimingConfig,
};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::ProtocolNode;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A random connected test graph: tree plus extra edge probability.
fn test_graph(n: u32, extra: f64, seed: u64) -> lsrp_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_erdos_renyi(n, extra, 3, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: LSRP self-stabilizes from arbitrary states.
    #[test]
    fn lsrp_self_stabilizes_from_arbitrary_state(
        n in 4u32..20,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..1_000,
        state_seed in 0u64..1_000,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(graph_seed as u32 % n);
        let timing = TimingConfig::paper_example(1.0).with_syn_period(5.0);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .timing(timing)
            .initial_state(InitialState::Arbitrary { seed: state_seed })
            .seed(state_seed ^ 0xABCD)
            .build();
        let report = sim.run_to_quiescence(1_000_000.0);
        prop_assert!(report.quiescent, "did not settle: {report:?}");
        prop_assert!(sim.routes_correct(), "wrong routes: {:?}", sim.route_table());
        prop_assert!(sim.is_legitimate());
    }

    /// Theorem 3 on the paper's worked fault class: a *single node's
    /// distance* corrupted to an arbitrary value on a legitimate state,
    /// with the neighborhood having learned it (exactly the Figure 2/5/6
    /// setup), optionally preceded by a topology fault. No routing loop
    /// appears at any intermediate state — verified after every single
    /// event.
    ///
    /// Why single-node (DESIGN.md §5): with several corrupted values
    /// arranged along one subtree chain, `C2`'s parent substitute can be
    /// a deep descendant whose minimality is manufactured by the *other*
    /// corrupted values — locally indistinguishable from a valid
    /// substitute, so no local rule can exclude it. Single-node
    /// corruption provably cannot do this (a descendant's offer always
    /// exceeds the still-legitimate parent's). Multi-node corruption gets
    /// the transient guarantee below.
    #[test]
    fn lsrp_never_forms_loops(
        n in 4u32..16,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..500,
        state_seed in 0u64..500,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(0);
        // Strict loop freedom needs the anti-race C2 hold (see
        // TimingConfig::hd_c2 and DESIGN.md §5). The SYN refresh is on:
        // pre-fault broadcasts still in flight can overwrite the poisoned
        // mirrors with stale values, and only the periodic refresh repairs
        // that (the paper's model includes SYN for exactly this reason).
        let timing = TimingConfig::paper_example(1.0)
            .with_strict_loop_freedom(1.0, 1.0)
            .with_syn_period(5.0);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .timing(timing)
            .seed(state_seed)
            .build();
        let mut rng = StdRng::seed_from_u64(state_seed);
        use rand::Rng;
        // Optional topology fault first (loop freedom must also hold
        // through churn).
        match rng.gen_range(0..3) {
            0 => {
                let nodes: Vec<NodeId> = graph.nodes().filter(|&x| x != dest).collect();
                let dead = nodes[rng.gen_range(0..nodes.len())];
                let mut after = graph;
                after.remove_node(dead).unwrap();
                if after.is_connected() {
                    sim.fail_node(dead).unwrap();
                }
            }
            1 => {
                let edges: Vec<_> = graph.edges().collect();
                let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                sim.set_weight(a, b, rng.gen_range(1..5)).unwrap();
            }
            _ => {}
        }
        // One corrupted distance, learned by the whole neighborhood.
        let nodes: Vec<NodeId> = sim.graph().nodes().filter(|&x| x != dest).collect();
        let victim = nodes[rng.gen_range(0..nodes.len())];
        let d = if rng.gen_bool(0.1) {
            Distance::Infinite
        } else {
            Distance::Finite(rng.gen_range(0..2 * u64::from(n)))
        };
        sim.with_state_mut(victim, |s| {
            s.d = d;
            if d.is_infinite() {
                s.p = victim; // the protocol's d = ∞ ⟹ p = self invariant
            }
        });
        let m = {
            let s = sim.engine().node(victim).unwrap().state();
            lsrp_core::Mirror { d: s.d, p: s.p, ghost: s.ghost }
        };
        let neighbors: Vec<NodeId> = sim.graph().neighbors(victim).map(|(k, _)| k).collect();
        for k in neighbors {
            sim.corrupt_mirror(k, victim, m);
        }
        prop_assert!(!sim.route_table().has_routing_loop(dest));

        // Step with per-event loop checks until the protocol variables
        // have been quiet for a long window (the SYN refresh keeps the
        // event queue non-empty forever).
        let mut steps = 0u64;
        let mut last_change = 0.0f64;
        while let Some(t) = sim.engine_mut().step() {
            let loops = sim.route_table().find_routing_loops(dest);
            prop_assert!(
                loops.is_empty(),
                "loop {loops:?} formed at {t} (step {steps})"
            );
            if let Some(c) = sim
                .engine()
                .trace()
                .last_var_change_since(lsrp_sim::SimTime::ZERO)
            {
                last_change = c.seconds();
            }
            if t.seconds() > last_change + 500.0 {
                break;
            }
            steps += 1;
            prop_assert!(steps < 5_000_000, "runaway computation");
        }
        prop_assert!(sim.routes_correct());
    }

    /// Beyond Theorem 3's literal claim: under *adversarial* corruption of
    /// parent pointers and containment flags across many nodes (states the
    /// protocol itself can never produce), transient loops can appear —
    /// but every loop episode dies within the Theorem-4 bound
    /// `O(hd_S + d)` and the system still converges to correct routes.
    /// See DESIGN.md §5 for why the literal every-instant claim is not
    /// locally enforceable on this class.
    #[test]
    fn adversarial_loops_are_transient(
        n in 4u32..16,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..500,
        state_seed in 0u64..500,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(0);
        let mut table = lsrp_graph::RouteTable::legitimate(&graph, dest);
        let mut rng = StdRng::seed_from_u64(state_seed);
        use rand::Rng;
        let mut ghosted: Vec<NodeId> = Vec::new();
        for node in graph.nodes() {
            if rng.gen_bool(0.5) {
                let neighbors: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
                let p = neighbors[rng.gen_range(0..neighbors.len())];
                let d = if rng.gen_bool(0.1) {
                    Distance::Infinite
                } else {
                    Distance::Finite(rng.gen_range(0..2 * u64::from(n)))
                };
                table.insert(node, lsrp_graph::RouteEntry::new(d, p));
            }
            if node != dest && rng.gen_bool(0.2) {
                ghosted.push(node);
            }
        }
        let timing = TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0);
        // O(hd_S + d): what matters is that the bound is a *constant* —
        // independent of network size and loop length — not its exact
        // value. Empirically episodes reach hd_S + hd_C + hd_c2 + 2d
        // (a ghost-corrupted C2 chain followed by one stabilization hold);
        // double that for margin.
        let loop_bound = 2.0 * (timing.hd_s + timing.hd_c);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .initial_state(InitialState::Table(table))
            .timing(timing)
            .seed(state_seed)
            .build();
        for node in ghosted {
            sim.corrupt_ghost(node, true);
        }

        let mut loop_since: Option<f64> = None;
        let mut steps = 0u64;
        while let Some(t) = sim.engine_mut().step() {
            let looped = sim.route_table().has_routing_loop(dest);
            match (looped, loop_since) {
                (true, None) => loop_since = Some(t.seconds()),
                (true, Some(since)) => {
                    prop_assert!(
                        t.seconds() - since <= loop_bound,
                        "loop persisted {}s (> {loop_bound}) from {since}",
                        t.seconds() - since
                    );
                }
                (false, _) => loop_since = None,
            }
            steps += 1;
            prop_assert!(steps < 2_000_000, "runaway computation");
        }
        prop_assert!(!sim.route_table().has_routing_loop(dest));
        prop_assert!(sim.routes_correct());
    }

    /// Theorem 4 + Corollary 3: a corrupted-in loop is broken within
    /// `O(hd_S + d)` time — independent of loop length.
    #[test]
    fn corrupted_loops_break_in_constant_time(
        tail in 1u32..4,
        loop_len in 3u32..24,
        seed in 0u64..500,
    ) {
        let graph = generators::lollipop(tail, loop_len, 1);
        let ring = generators::lollipop_ring(tail, loop_len);
        let dest = v(0);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .seed(seed)
            .build();
        // Corrupt the ring into a consistent directed cycle: each ring
        // node parents its successor with distances increasing by 1.
        for (i, &node) in ring.iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            sim.with_state_mut(node, |s| {
                s.p = next;
                s.d = Distance::Finite(100 + i as u64);
            });
        }
        // Let the ring nodes' neighbors see the corrupted values
        // (consistent mirrors), matching Theorem 4's "arbitrary state".
        let snapshot: Vec<(NodeId, Distance, NodeId)> = ring
            .iter()
            .map(|&r| {
                let s = sim.engine().node(r).unwrap().state();
                (r, s.d, s.p)
            })
            .collect();
        for &(r, d, p) in &snapshot {
            let neighbors: Vec<NodeId> =
                sim.graph().neighbors(r).map(|(k, _)| k).collect();
            for k in neighbors {
                sim.corrupt_mirror(k, r, lsrp_core::Mirror { d, p, ghost: false });
            }
        }
        prop_assert!(sim.route_table().has_routing_loop(dest));

        let timing = *sim.timing();
        let breakage_bound = timing.hd_s + 1.0 /* d_max */ + 0.001;
        let start = sim.now().seconds();
        let mut broken_at = None;
        while let Some(t) = sim.engine_mut().step() {
            if !sim.route_table().has_routing_loop(dest) {
                broken_at = Some(t.seconds() - start);
                break;
            }
            prop_assert!(
                t.seconds() - start <= breakage_bound,
                "loop survived past hd_S + d at t={t}"
            );
        }
        prop_assert!(broken_at.is_some(), "loop never broke");
        // And the system still converges to correct routes afterwards.
        let report = sim.run_to_quiescence(1_000_000.0);
        prop_assert!(report.quiescent);
        prop_assert!(sim.routes_correct());
    }
}

/// The guard predicates and `LsrpNode::enabled_actions` spelled out
/// literally from their prose definitions: every per-neighbor minimality
/// test rescans all neighbors, O(deg²) per evaluation. Too slow for the
/// engine, but each line reads directly against DESIGN.md, so it is the
/// reference the one-pass [`Guards`] summary must agree with.
mod oracle {
    use std::hash::{Hash, Hasher};

    use lsrp_core::{actions, LsrpState, TimingConfig};
    use lsrp_graph::{Distance, NodeId};
    use lsrp_sim::{ActionId, EnabledSet};

    pub fn sp(s: &LsrpState) -> bool {
        if s.id == s.dest {
            return s.d != Distance::ZERO;
        }
        let no_better = !s.neighbors.keys().any(|&k| {
            let m = s.mirror(k);
            let offer = s.offer(k);
            !m.ghost && m.p != s.id && !offer.is_infinite() && offer <= s.d
        });
        let unjustified = s.d != Distance::Infinite && s.d != s.offer(s.p);
        no_better && unjustified
    }

    pub fn mp(s: &LsrpState) -> bool {
        (s.id == s.dest && s.d == Distance::ZERO) || (s.ghost && sp(s))
    }

    pub fn sw(s: &LsrpState, k: NodeId) -> bool {
        if s.id == s.dest || !s.is_neighbor(k) || s.mirror(k).p == s.id {
            return false;
        }
        if s.d.is_infinite()
            && s.neighbors.keys().any(|&i| {
                let m = s.mirror(i);
                m.p == s.id && !m.d.is_infinite()
            })
        {
            return false;
        }
        let offer_k = s.offer(k);
        if offer_k.is_infinite() || offer_k > s.d {
            return false;
        }
        if s.neighbors.keys().any(|&i| {
            let m = s.mirror(i);
            !m.ghost && m.p != s.id && s.offer(i) < offer_k
        }) {
            return false;
        }
        if k == s.p {
            s.d != offer_k
        } else {
            let parent_unusable = !s.is_neighbor(s.p) || s.mirror(s.p).ghost;
            parent_unusable || offer_k < s.offer(s.p)
        }
    }

    pub fn cw(s: &LsrpState) -> bool {
        s.is_neighbor(s.p)
            && s.mirror(s.p).ghost
            && s.d == s.offer(s.p)
            && !s.neighbors.keys().any(|&k| {
                let m = s.mirror(k);
                !m.ghost && m.p != s.id && s.offer(k) < s.d
            })
    }

    pub fn ps(s: &LsrpState, k: NodeId) -> bool {
        if !s.is_neighbor(k) {
            return false;
        }
        let mk = s.mirror(k);
        if mk.ghost || mk.p == s.id {
            return false;
        }
        if s.neighbors.contains_key(&mk.p) && s.mirror(mk.p).p == s.id {
            return false;
        }
        let offer_k = s.offer(k);
        if offer_k.is_infinite() || offer_k < s.d {
            return false;
        }
        !s.neighbors.keys().any(|&i| {
            let m = s.mirror(i);
            !m.ghost && m.p != s.id && s.offer(i) < offer_k
        })
    }

    pub fn best_parent_substitute(s: &LsrpState) -> Option<NodeId> {
        s.neighbors
            .keys()
            .copied()
            .filter(|&k| ps(s, k))
            .min_by_key(|&k| (s.offer(k), k))
    }

    pub fn scw(s: &LsrpState) -> bool {
        if s.id == s.dest {
            s.d == Distance::ZERO
        } else {
            !sp(s) && (s.p == s.id || !s.mirror(s.p).ghost)
        }
    }

    /// The neighbors with `S2(k)` enabled, ascending.
    pub fn s2_set(s: &LsrpState) -> Vec<NodeId> {
        s.neighbors
            .keys()
            .copied()
            .filter(|&k| !s.mirror(k).ghost && sw(s, k))
            .collect()
    }

    fn witness_fingerprint(s: &LsrpState, neighbors: &[NodeId]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.d.hash(&mut h);
        s.p.hash(&mut h);
        s.ghost.hash(&mut h);
        for &k in neighbors {
            k.hash(&mut h);
            s.mirror(k).hash(&mut h);
        }
        h.finish()
    }

    pub fn enabled_actions(s: &LsrpState, timing: &TimingConfig, now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        if mp(s) && s.p != s.id {
            set.enable(ActionId::plain(actions::S1), 0.0);
        }
        for k in s2_set(s) {
            set.enable_with_fingerprint(
                ActionId::with_param(actions::S2, k),
                timing.hd_s,
                witness_fingerprint(s, &[k, s.p]),
            );
        }
        if !s.ghost && (sp(s) || cw(s)) {
            set.enable(ActionId::plain(actions::C1), timing.hd_c);
        }
        let ks: Vec<NodeId> = s.neighbors.keys().copied().collect();
        // `C2`'s guard has no minimality scan; the production one is used.
        if lsrp_core::predicates::c2_ready(s) {
            set.enable_with_fingerprint(
                ActionId::plain(actions::C2),
                timing.hd_c2,
                witness_fingerprint(s, &ks),
            );
        }
        if s.ghost && scw(s) {
            set.enable_with_fingerprint(
                ActionId::plain(actions::SC),
                timing.hd_sc,
                witness_fingerprint(s, &ks),
            );
        }
        if let Some(period) = timing.syn_period {
            if s.t_last + period <= now_local || s.t_last > now_local {
                set.enable(ActionId::plain(actions::SYN1), 0.0);
            } else {
                set.wake_at(s.t_last + period);
            }
        }
        set
    }
}

/// Node ids the generated states draw from; the node under test is `v0`.
const POOL: u32 = 16;

/// An arbitrary state of `v0`, drawn from `seed`: degree 0 to 12 with
/// weights 1 to 3, each neighbor heard from or not, ghosted and child
/// mirrors, infinite distances, a parent anywhere in the pool (a neighbor
/// or not, `v0` itself included), any destination (`v0` included), and
/// poisoned mirrors of non-neighbors — the parent's among them.
fn arbitrary_state(seed: u64) -> LsrpState {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    // Biased toward v0, so children (`p.k.v = v`), self parents and the
    // node being the destination all come up often.
    let id = |rng: &mut StdRng| {
        if rng.gen_bool(0.25) {
            v(0)
        } else {
            v(rng.gen_range(0..POOL))
        }
    };
    // A small range, so equal offers and ties are common.
    let distance = |rng: &mut StdRng| {
        if rng.gen_bool(0.2) {
            Distance::Infinite
        } else {
            Distance::Finite(rng.gen_range(0..8))
        }
    };
    let mirror = |rng: &mut StdRng| Mirror {
        d: distance(rng),
        p: id(rng),
        ghost: rng.gen_bool(0.3),
    };
    let degree = rng.gen_range(0..=12);
    let mut neighbors = std::collections::BTreeMap::new();
    while neighbors.len() < degree {
        neighbors.insert(v(rng.gen_range(1..POOL)), rng.gen_range(1..4));
    }
    let mut s = LsrpState::fresh(v(0), id(&mut rng), neighbors);
    s.d = distance(&mut rng);
    s.p = id(&mut rng);
    s.ghost = rng.gen_bool(0.5);
    for k in 0..POOL {
        let k = v(k);
        let heard = if s.is_neighbor(k) {
            0.8
        } else if k == s.p {
            0.5
        } else {
            0.1
        };
        if rng.gen_bool(heard) {
            s.mirrors.insert(k, mirror(&mut rng));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// Every guard read off the one-pass summary equals its literal
    /// quadratic definition.
    #[test]
    fn one_pass_guards_match_the_literal_definitions(seed in 0u64..u64::MAX) {
        let s = arbitrary_state(seed);
        let g = Guards::new(&s);
        prop_assert_eq!(g.sp(), oracle::sp(&s), "SP, seed {}", seed);
        prop_assert_eq!(g.mp(), oracle::mp(&s), "MP, seed {}", seed);
        prop_assert_eq!(g.cw(), oracle::cw(&s), "CW, seed {}", seed);
        prop_assert_eq!(g.scw(), oracle::scw(&s), "SCW, seed {}", seed);
        prop_assert_eq!(
            g.best_parent_substitute(),
            oracle::best_parent_substitute(&s),
            "best PS, seed {}",
            seed
        );
        for k in (0..POOL).map(v) {
            prop_assert_eq!(g.sw(k), oracle::sw(&s, k), "SW.v.{}, seed {}", k, seed);
            prop_assert_eq!(g.ps(k), oracle::ps(&s, k), "PS.v.{}, seed {}", k, seed);
        }
        let targets: Vec<(NodeId, Mirror)> = g.s2_targets().collect();
        let expected: Vec<(NodeId, Mirror)> =
            oracle::s2_set(&s).into_iter().map(|k| (k, s.mirror(k))).collect();
        prop_assert_eq!(targets, expected, "S2 set, seed {}", seed);
    }

    /// `LsrpNode` enables the same actions, with the same holds,
    /// fingerprints and wakeup, as the literal definitions.
    #[test]
    fn enabled_actions_match_the_literal_definitions(
        seed in 0u64..u64::MAX,
        t_last in 0.0f64..20.0,
        now_local in 0.0f64..20.0,
    ) {
        let timing = TimingConfig::paper_example(1.0)
            .with_strict_loop_freedom(1.0, 1.0)
            .with_syn_period(5.0);
        let mut s = arbitrary_state(seed);
        s.t_last = t_last;
        let expected = oracle::enabled_actions(&s, &timing, now_local);
        let node = LsrpNode::new(s, timing);
        prop_assert_eq!(node.enabled_actions(now_local), expected, "seed {}", seed);
    }
}
