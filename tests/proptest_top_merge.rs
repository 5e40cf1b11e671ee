//! The §4.1 merge per boundary. A vertex that the every-tier rule keeps,
//! because a budgeted middle tier could charge it, may still share its
//! consumer's *top* indicator `y^{k−2}` when the root cannot charge it
//! (`wishbone::core::TopClasses`). These cases hold that rule to the
//! problems it replaces, on random k = 3 and k = 4 chains and two-leaf
//! forests whose middle tiers are budgeted:
//!
//! * the optimum with the top classes equals the optimum with them
//!   cleared and the unmerged optimum (objective to 1e-9, same verdict);
//! * every placement holds its budget rows, recomputed from the merged
//!   graph rather than read off the encoding;
//! * the merge equals the oracle's reference bit for bit, top classes
//!   included;
//! * on a chain, `encode_deployment` of the merged graph is bit for bit
//!   the oracle's independent chain encoder (`encode_multitier`);
//! * a fleet batch over such deployments equals serial one-shot solves
//!   bit for bit.

use std::sync::Arc;

use proptest::prelude::*;

use wishbone::core::{
    build_tiered_graph, encode_deployment, preprocess_tiered, DeploymentObjective, LeafChain, Mode,
    Pin, TEdge, TVertex, TierObjective, TieredGraph,
};
use wishbone::dataflow::{EdgeId, OperatorId};
use wishbone::ilp::{solve_ilp, IlpOptions};
use wishbone::prelude::*;
use wishbone_oracle::{encode_multitier, preprocess_tiered_reference};

#[path = "common/fleet.rs"]
#[allow(dead_code)] // the load generators are `fleet_parity.rs`'s
mod fleet;
use fleet::Lcg;
#[path = "common/identity.rs"]
mod identity;
use identity::problems_identical;

/// Uniform draws in `[0, 1)`, consumed in order.
struct Draws(std::vec::IntoIter<f64>);

impl Draws {
    fn u(&mut self) -> f64 {
        self.0.next().expect("a case draws enough values")
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.u()
    }

    fn pick(&mut self, n: usize) -> usize {
        ((self.u() * n as f64) as usize).min(n - 1)
    }

    /// A CPU cost: zero a quarter of the time.
    fn cpu(&mut self) -> f64 {
        if self.u() < 0.25 {
            0.0
        } else {
            self.range(0.01, 0.3)
        }
    }
}

/// Values one case can consume: at most 12 vertices × (4 costs + an
/// output factor + 4 link framings + 2 extra edges) per leaf, two leaves,
/// plus the sites.
const DRAWS: usize = 2 * 12 * 16 + 64;

/// One leaf of a case: its unmerged chain graph, its root path (site
/// indices, leaf first) and the chain view of its objective.
struct Leaf {
    graph: TieredGraph,
    path: Vec<usize>,
    tier_obj: TierObjective,
}

/// A deployment drawn at the level of chain graphs.
struct Case {
    leaves: Vec<Leaf>,
    obj: DeploymentObjective,
    counts: Vec<f64>,
}

/// A random DAG program on `k` tiers: a Node-pinned source, a
/// Server-pinned sink, a backbone with a few forward edges. Each vertex
/// emits its summed input scaled by ×½, ×1 or ×2, framed per link by a
/// factor near 1 (now and then far from it, so a vertex can expand on one
/// link and reduce on another).
fn draw_graph(d: &mut Draws, k: usize) -> TieredGraph {
    let n = 4 + d.pick(9);
    let mut in_rate = vec![0.0f64; n];
    in_rate[0] = 64.0;
    let mut vertices = Vec::with_capacity(n);
    let mut edges: Vec<TEdge> = Vec::new();
    for v in 0..n {
        let mut cpu_cost: Vec<f64> = (0..k).map(|_| d.cpu()).collect();
        if d.u() < 0.5 {
            cpu_cost[k - 1] = 0.0;
        }
        vertices.push(TVertex {
            ops: vec![OperatorId(v)],
            cpu_cost,
            pin: match v {
                0 => Pin::Node,
                _ if v == n - 1 => Pin::Server,
                _ => Pin::Movable,
            },
        });
        if v == n - 1 {
            break;
        }
        let out = in_rate[v] * [0.5, 1.0, 1.0, 2.0][d.pick(4)];
        let mut targets = vec![v + 1];
        for _ in 0..2 {
            if d.u() < 0.15 && v + 2 < n {
                targets.push(v + 2 + d.pick(n - v - 2));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        let share = out / targets.len() as f64;
        for dst in targets {
            in_rate[dst] += share;
            let bandwidth = (0..k - 1)
                .map(|_| {
                    let framing = if d.u() < 0.1 { d.range(0.3, 3.0) } else { 1.0 };
                    share * framing
                })
                .collect();
            edges.push(TEdge {
                src: v,
                dst,
                bandwidth,
                graph_edges: vec![EdgeId(edges.len())],
            });
        }
    }
    TieredGraph {
        tiers: k,
        vertices,
        edges,
        top: Default::default(),
    }
}

impl Case {
    /// Shape 0: a k = 3 chain; 1: a k = 4 chain; 2: two leaves under one
    /// shared gateway; 3: two leaves under two gateways. Every middle tier
    /// has a finite CPU budget; the root is free three times in four, and
    /// otherwise budgeted (then only a vertex costing nothing there may
    /// share its top indicator).
    fn draw(d: &mut Draws) -> Case {
        let shape = d.pick(4);
        // (parent, is_leaf) per site; site 0 is the root.
        let sites: Vec<(Option<usize>, bool)> = match shape {
            0 => vec![(None, false), (Some(0), false), (Some(1), true)],
            1 => vec![
                (None, false),
                (Some(0), false),
                (Some(1), false),
                (Some(2), true),
            ],
            2 => vec![
                (None, false),
                (Some(0), false),
                (Some(1), true),
                (Some(1), true),
            ],
            _ => vec![
                (None, false),
                (Some(0), false),
                (Some(0), false),
                (Some(1), true),
                (Some(2), true),
            ],
        };
        let n = sites.len();
        let root_free = d.u() < 0.75;
        let mut obj = DeploymentObjective {
            alpha: vec![0.0; n],
            cpu_budget: vec![f64::INFINITY; n],
            count: vec![1.0; n],
            beta: vec![0.0; n],
            net_budget: vec![f64::INFINITY; n],
            row_order: Vec::new(),
        };
        for (s, &(parent, leaf)) in sites.iter().enumerate() {
            if d.u() < 0.25 {
                obj.alpha[s] = d.range(0.1, 1.0);
            }
            if parent.is_none() {
                if root_free {
                    obj.alpha[s] = 0.0;
                } else {
                    obj.cpu_budget[s] = d.range(0.2, 2.0);
                }
                continue;
            }
            obj.cpu_budget[s] = if leaf {
                d.range(0.2, 1.5)
            } else {
                d.range(0.05, 0.8)
            };
            obj.beta[s] = d.range(0.5, 2.0);
            if d.u() < 0.7 {
                obj.net_budget[s] = d.range(40.0, 400.0);
            }
            if leaf {
                obj.count[s] = (1 + d.pick(3)) as f64;
            }
        }
        let depth = |mut s: usize| {
            let mut depth = 0;
            while let Some(p) = sites[s].0 {
                s = p;
                depth += 1;
            }
            depth
        };
        obj.row_order = (0..n).collect();
        obj.row_order
            .sort_by_key(|&s| (std::cmp::Reverse(depth(s)), s));
        let leaves = (0..n)
            .filter(|&s| sites[s].1)
            .map(|leaf| {
                let mut path = vec![leaf];
                while let Some(p) = sites[*path.last().expect("non-empty")].0 {
                    path.push(p);
                }
                let hops = &path[..path.len() - 1];
                let tier_obj = TierObjective {
                    alpha: path.iter().map(|&s| obj.alpha[s]).collect(),
                    cpu_budget: path.iter().map(|&s| obj.cpu_budget[s]).collect(),
                    beta: hops.iter().map(|&s| obj.beta[s]).collect(),
                    net_budget: hops.iter().map(|&s| obj.net_budget[s]).collect(),
                };
                Leaf {
                    graph: draw_graph(d, path.len()),
                    path,
                    tier_obj,
                }
            })
            .collect::<Vec<_>>();
        let counts = leaves.iter().map(|l| obj.count[l.path[0]]).collect();
        Case {
            leaves,
            obj,
            counts,
        }
    }

    /// Encode and solve the case over `graphs` (one per leaf): the
    /// objective with the encoding's constant, and each leaf's vertex
    /// positions.
    fn solve(&self, graphs: &[&TieredGraph]) -> Result<(f64, Vec<Vec<usize>>, usize), String> {
        let chains: Vec<LeafChain<'_>> = graphs
            .iter()
            .zip(&self.leaves)
            .zip(&self.counts)
            .map(|((&graph, leaf), &count)| LeafChain {
                graph,
                path: leaf.path.clone(),
                count,
            })
            .collect();
        let ep = encode_deployment(&chains, &self.obj);
        let vars = ep.problem.num_vars();
        solve_ilp(&ep.problem, &IlpOptions::default())
            .map(|sol| {
                (
                    sol.objective + ep.objective_offset,
                    ep.decode(&sol.values),
                    vars,
                )
            })
            .map_err(|e| format!("{e:?}"))
    }
}

/// Every finite CPU and uplink budget of `case` holds when leaf `l`'s
/// vertex `v` of `graphs[l]` sits at path position `tiers[l][v]` —
/// computed from the graphs, not from the encoding's rows.
fn assert_budgets_hold(
    case: &Case,
    graphs: &[&TieredGraph],
    tiers: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let n = case.obj.alpha.len();
    let (mut cpu, mut net) = (vec![0.0f64; n], vec![0.0f64; n]);
    for (((g, leaf), t), &count) in graphs.iter().zip(&case.leaves).zip(tiers).zip(&case.counts) {
        for (v, vert) in g.vertices.iter().enumerate() {
            let s = leaf.path[t[v]];
            cpu[s] += count / case.obj.count[s] * vert.cpu_cost[t[v]];
        }
        for e in &g.edges {
            prop_assert!(t[e.src] <= t[e.dst], "an edge runs backwards");
            for b in t[e.src]..t[e.dst] {
                net[leaf.path[b]] += count * e.bandwidth[b];
            }
        }
    }
    for s in 0..n {
        let tol = 1e-6 * (1.0 + case.obj.cpu_budget[s].abs().min(1e6));
        prop_assert!(
            cpu[s] <= case.obj.cpu_budget[s] + tol,
            "site {} CPU {} over {}",
            s,
            cpu[s],
            case.obj.cpu_budget[s]
        );
        prop_assert!(
            net[s] <= case.obj.net_budget[s] + 1e-6 * (1.0 + net[s]),
            "site {} uplink {} over {}",
            s,
            net[s],
            case.obj.net_budget[s]
        );
    }
    Ok(())
}

/// A chain case's merged graph, encoded by `encode_deployment`, is bit
/// for bit `encode_multitier`'s problem. The oracle knows no device
/// counts, so both sides encode one device per site.
fn assert_chain_is_the_multitier_encoding(
    case: &Case,
    merged: &TieredGraph,
) -> Result<(), TestCaseError> {
    let leaf = &case.leaves[0];
    let obj = DeploymentObjective {
        count: vec![1.0; case.obj.count.len()],
        ..case.obj.clone()
    };
    let chain = [LeafChain {
        graph: merged,
        path: leaf.path.clone(),
        count: 1.0,
    }];
    let ep = encode_deployment(&chain, &obj);
    let oracle = encode_multitier(merged, &leaf.tier_obj);
    problems_identical(&oracle.problem, &ep.problem)
        .map_err(|e| TestCaseError::fail(format!("k = {}: {e}", leaf.path.len())))
}

/// One case: merge each leaf, hold the merge to the reference (and a
/// chain's encoding to the oracle's), and hold the three encodings'
/// optima to each other and their placements to the budgets.
fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let mut merged = Vec::new();
    for leaf in &case.leaves {
        let shipped =
            preprocess_tiered(&leaf.graph, &leaf.tier_obj).expect("a DAG has no conflict");
        let reference = preprocess_tiered_reference(&leaf.graph, &leaf.tier_obj)
            .expect("a DAG has no conflict");
        let top = |g: &TieredGraph| (g.top.of.clone(), g.top.pin.clone(), g.top.edges.clone());
        prop_assert_eq!(top(&shipped.graph), top(&reference.graph));
        prop_assert_eq!(shipped.vertices_after, reference.vertices_after);
        merged.push(shipped.graph);
    }
    if let [chain] = &merged[..] {
        assert_chain_is_the_multitier_encoding(case, chain)?;
    }
    let cleared: Vec<TieredGraph> = merged
        .iter()
        .map(|g| TieredGraph {
            top: Default::default(),
            ..g.clone()
        })
        .collect();
    let unmerged: Vec<&TieredGraph> = case.leaves.iter().map(|l| &l.graph).collect();
    let with_top: Vec<&TieredGraph> = merged.iter().collect();
    let without: Vec<&TieredGraph> = cleared.iter().collect();

    let a = case.solve(&with_top);
    let b = case.solve(&without);
    let c = case.solve(&unmerged);
    match (&a, &b, &c) {
        (Ok(a), Ok(b), Ok(c)) => {
            for (other, name) in [(b.0, "the top classes cleared"), (c.0, "no merge")] {
                prop_assert!(
                    (a.0 - other).abs() <= 1e-9 * (1.0 + other.abs()),
                    "objective {} with the top classes vs {} with {}",
                    a.0,
                    other,
                    name
                );
            }
            assert_budgets_hold(case, &with_top, &a.1)?;
            assert_budgets_hold(case, &without, &b.1)?;
            let shared = merged.iter().any(|g| !g.top.of.is_empty());
            prop_assert_eq!(
                shared,
                a.2 < b.2,
                "a shared top boundary has fewer variables"
            );
        }
        (Err(a), Err(b), Err(c)) => {
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, c);
        }
        _ => prop_assert!(
            false,
            "verdicts diverged: top {:?}, cleared {:?}, unmerged {:?}",
            a.is_ok(),
            b.is_ok(),
            c.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-boundary merge keeps the optimum and the budgets, and is
    /// the reference merge.
    #[test]
    fn the_top_classes_keep_the_optimum_and_the_budgets(
        draws in prop::collection::vec(0.0f64..1.0, DRAWS)
    ) {
        check_case(&Case::draw(&mut Draws(draws.into_iter())))?;
    }
}

/// The generator reaches what the rule branches on: every shape, shared
/// top classes under a free and under a budgeted root, and infeasible
/// cases.
#[test]
fn the_generator_shares_top_classes_on_every_shape() {
    let strategy = prop::collection::vec(0.0f64..1.0, DRAWS);
    let (mut shared_free, mut shared_budgeted, mut infeasible) = (0, 0, 0);
    let mut shapes = std::collections::HashSet::new();
    for i in 0..256 {
        let mut rng = proptest::test_runner::TestRng::for_case("top merge coverage", i);
        let case = Case::draw(&mut Draws(strategy.gen_value(&mut rng).into_iter()));
        let paths: Vec<usize> = case.leaves.iter().map(|l| l.path.len()).collect();
        let root_free = case.obj.cpu_budget[0].is_infinite();
        let mut graphs = Vec::new();
        for leaf in &case.leaves {
            let merged = preprocess_tiered(&leaf.graph, &leaf.tier_obj).expect("no conflict");
            if !merged.graph.top.of.is_empty() {
                shapes.insert(paths.clone());
                if root_free {
                    shared_free += 1;
                } else {
                    shared_budgeted += 1;
                }
            }
            graphs.push(merged.graph);
        }
        let refs: Vec<&TieredGraph> = graphs.iter().collect();
        infeasible += usize::from(case.solve(&refs).is_err());
    }
    assert!(
        shared_free >= 40 && shared_budgeted >= 5 && infeasible >= 5,
        "shared under a free root {shared_free}, under a budgeted root \
         {shared_budgeted}, infeasible {infeasible}"
    );
    assert!(
        [vec![3], vec![4], vec![3, 3]]
            .iter()
            .all(|p| shapes.contains(p)),
        "shapes with shared top classes: {shapes:?}"
    );
}

/// A profiled data-neutral pipeline: every stage keeps its whole window,
/// so every stage expands-or-holds on every link and only the budgeted
/// middle tiers stop the every-tier merge.
fn neutral_pipeline(variant: u64) -> (Arc<Graph>, Arc<GraphProfile>) {
    let stage = move |s: usize| {
        let cost = 300 + 200 * variant + 90 * (s as u64 % 5);
        (cost, if s % 4 == 3 { 2 } else { 1 })
    };
    fleet::pipeline(10, stage, 8, 64)
}

/// Shape 0: server ← phone gateway ← motes; 1: with a budgeted phone
/// relay above the gateway; 2: two wards, each behind its own budgeted
/// gateway. Middle tiers are budgeted at `gw_budget`; the server is free.
fn deployment(shape: usize, gw_budget: f64, count: usize, uplink: f64) -> Deployment {
    let (phone, mote) = (Platform::nokia_n80(), Platform::tmote_sky());
    let link = |net_budget: f64| LinkSpec {
        beta: 1.0,
        net_budget,
    };
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let wards = if shape == 2 { 2 } else { 1 };
    for w in 0..wards {
        let mut parent = root;
        if shape == 1 {
            let relay = Site::new("relay", &phone).with_cpu_budget(gw_budget * 2.0);
            parent = dep.attach(parent, relay, link(f64::INFINITY));
        }
        let gw = Site::new(format!("gw{w}"), &phone).with_cpu_budget(gw_budget);
        let gw = dep.attach(parent, gw, link(uplink));
        let motes = Site::new(format!("motes{w}"), &mote).with_count(count + w);
        dep.attach(gw, motes, link(f64::INFINITY));
    }
    dep
}

/// A fleet batch over budgeted-gateway deployments — whose encodings
/// share top indicators — is bit for bit the serial one-shot answers,
/// and every answer holds its budgets.
#[test]
fn fleet_equals_serial_with_shared_top_indicators() {
    let apps = [neutral_pipeline(0), neutral_pipeline(1)];
    let mut rng = Lcg(0x70b_c1a5);
    let params: Vec<(usize, usize, f64, usize, f64, f64)> = (0..48)
        .map(|_| {
            let app = rng.pick(2);
            let shape = rng.pick(3);
            let gw_budget = [0.02, 0.05, 0.1, 0.3][rng.pick(4)];
            let count = 1 + rng.pick(3);
            let uplink = [600.0, 2000.0, 8000.0][rng.pick(3)];
            let rate = [0.1, 0.25, 0.5, 1.0][rng.pick(4)];
            (app, shape, gw_budget, count, uplink, rate)
        })
        .collect();
    let cfg = DeploymentConfig::default();
    let mut shared = 0;
    let serial: Vec<_> = params
        .iter()
        .map(|&(app, shape, gw, count, uplink, rate)| {
            let (graph, prof) = &apps[app];
            let dep = deployment(shape, gw, count, uplink);
            let part = partition_deployment(graph, prof, &dep, &cfg.clone().at_rate(rate));
            if let Ok(p) = &part {
                for s in dep.site_ids() {
                    let site = dep.site(s);
                    assert!(p.site_cpu[s.0] <= site.cpu_budget + 1e-6, "{}", site.name);
                    if let Some(l) = dep.uplink(s) {
                        assert!(p.link_net[s.0] <= l.net_budget + 1e-6, "{}", site.name);
                    }
                }
                // Per-vertex indicators would be (k − 1) per merged vertex.
                let k = dep.path(dep.leaves()[0]).len();
                shared += usize::from(p.problem_size.0 < (k - 1) * p.merge_stats.1);
            }
            part
        })
        .collect();
    assert!(
        shared >= 16,
        "{shared} answers solved a shared top boundary"
    );

    let requests = params
        .iter()
        .enumerate()
        .map(
            |(id, &(app, shape, gw, count, uplink, rate))| FleetRequest {
                id: id as u64,
                graph: Arc::clone(&apps[app].0),
                profile: Arc::clone(&apps[app].1),
                deployment: deployment(shape, gw, count, uplink),
                config: cfg.clone(),
                rate,
            },
        )
        .collect();
    let (responses, _) = run_batch(2, requests);
    for (resp, oracle) in responses.iter().zip(&serial) {
        match (&resp.result, oracle) {
            (Ok(a), Ok(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "request {}",
                    resp.id
                );
                assert_eq!(bits(&a.site_cpu), bits(&b.site_cpu), "request {}", resp.id);
                assert_eq!(bits(&a.link_net), bits(&b.link_net), "request {}", resp.id);
                for (la, lb) in a.leaves.iter().zip(&b.leaves) {
                    assert_eq!(la.site_ops, lb.site_ops, "request {}", resp.id);
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "request {}", resp.id),
            (a, b) => panic!(
                "request {}: fleet {:?} vs serial {:?}",
                resp.id,
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

/// The public build → merge path shares top indicators on a profiled
/// program too: the neutral pipeline under a budgeted phone keeps every
/// vertex at the lower boundary and one per class at the top.
#[test]
fn a_budgeted_gateway_shares_the_top_boundary_of_a_profiled_chain() {
    let (graph, prof) = neutral_pipeline(0);
    let platforms = [
        Platform::tmote_sky(),
        Platform::nokia_n80(),
        Platform::server(),
    ];
    let tg = build_tiered_graph(&graph, &prof, &platforms, Mode::Permissive, 1.0)
        .expect("no pin conflict");
    let obj = TierObjective {
        alpha: vec![0.0; 3],
        cpu_budget: vec![1.0, 0.2, f64::INFINITY],
        beta: vec![1.0; 2],
        net_budget: vec![f64::INFINITY; 2],
    };
    let merged = preprocess_tiered(&tg, &obj).expect("no pin conflict").graph;
    assert_eq!(
        merged.vertices.len(),
        tg.vertices.len(),
        "the gateway charges"
    );
    let classes = merged.top.pin.len();
    assert!(
        classes > 0 && classes < merged.vertices.len(),
        "{classes} top classes of {} vertices",
        merged.vertices.len()
    );
}
