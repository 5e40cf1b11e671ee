//! Property tests for the k-way monotone-cut encoding over random
//! weighted DAGs: k = 2 must be *identical* to the binary restricted
//! encoding (assignment, objective, and verdict, on both simplex
//! backends), and k = 3 solutions must satisfy the chain invariants. The
//! §4.1 merge that feeds it must equal the oracle's reference merge bit
//! for bit on random chain graphs.

use proptest::prelude::*;
use std::collections::HashSet;

use wishbone::core::{
    preprocess_tiered, Pin, PinError, TEdge, TVertex, TierObjective, TieredGraph,
    TieredPreprocessResult,
};
use wishbone::dataflow::{EdgeId, OperatorId};
use wishbone::ilp::{solve_ilp, IlpOptions, SolverBackend};
use wishbone_oracle::{
    encode, encode_multitier, preprocess_tiered_reference, tiered_from_binary, Encoding,
    ObjectiveConfig, PEdge, PVertex, PartitionGraph,
};

/// Random layered DAG: vertex 0 pinned Node, last pinned Server, edges only
/// forward (guaranteeing acyclicity and source/sink reachability).
fn pg_strategy() -> impl Strategy<Value = PartitionGraph> {
    (3usize..9).prop_flat_map(|n| {
        let cpus = prop::collection::vec(0.0f64..0.4, n);
        let edge_picks = prop::collection::vec(prop::bool::ANY, n * (n - 1) / 2);
        let bws = prop::collection::vec(1.0f64..100.0, n * (n - 1) / 2);
        (cpus, edge_picks, bws).prop_map(move |(cpus, picks, bws)| {
            let vertices: Vec<PVertex> = (0..n)
                .map(|i| PVertex {
                    ops: vec![OperatorId(i)],
                    cpu_cost: cpus[i],
                    pin: if i == 0 {
                        Pin::Node
                    } else if i == n - 1 {
                        Pin::Server
                    } else {
                        Pin::Movable
                    },
                })
                .collect();
            let mut edges = Vec::new();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if j == i + 1 || picks[k] {
                        edges.push(PEdge {
                            src: i,
                            dst: j,
                            bandwidth: bws[k],
                            graph_edges: vec![],
                        });
                    }
                    k += 1;
                }
            }
            PartitionGraph { vertices, edges }
        })
    })
}

fn opts(backend: SolverBackend) -> IlpOptions {
    IlpOptions {
        backend,
        ..Default::default()
    }
}

/// Lift a binary graph into a 3-tier one: the gateway runs the same ops at
/// an eighth of the CPU cost, both hops see the same bandwidth.
fn lift_k3(pg: &PartitionGraph) -> TieredGraph {
    let mut tg = tiered_from_binary(pg);
    tg.tiers = 3;
    for v in &mut tg.vertices {
        let mote = v.cpu_cost[0];
        v.cpu_cost = vec![mote, mote / 8.0, 0.0];
    }
    for e in &mut tg.edges {
        let bw = e.bandwidth[0];
        e.bandwidth = vec![bw, bw];
    }
    tg
}

/// A random chain graph and objective for the §4.1 merge: 2–4 tiers, all
/// three pin kinds, fan-in and fan-out, parallel edges, vertices with
/// zero to two operators and edges with zero to two dataflow edges;
/// bandwidths drawn from a few exact values (so expanding, neutral and
/// reducing vertices all occur, per link) and CPU costs often exactly
/// zero (free to glue); each tier charging or free. When `cyclic`, back
/// edges too: the merge accepts any graph, and only a cycle through two
/// classes reaches its SCC collapse.
fn merge_case_strategy() -> impl Strategy<Value = (TieredGraph, TierObjective)> {
    (2usize..13, 2usize..5, prop::bool::ANY).prop_flat_map(|(n, k, cyclic)| {
        let vertices = prop::collection::vec(
            (
                0u8..6,
                0usize..3,
                prop::collection::vec((0u8..3, 0.0f64..1.0), k),
            ),
            n,
        );
        let bandwidths = prop::collection::vec((0u8..5, 1.0f64..64.0), k - 1);
        let pairs = prop::collection::vec((0u8..12, 0u8..12, 0usize..3, bandwidths), n * (n - 1));
        let tiers = prop::collection::vec((prop::bool::ANY, prop::bool::ANY), k);
        let links = prop::collection::vec(prop::bool::ANY, k - 1);
        (vertices, pairs, tiers, links).prop_map(move |(vs, pairs, tiers, links)| {
            let mut next_op = 1000;
            let vertices = vs
                .into_iter()
                .map(|(pin, n_ops, cpus)| TVertex {
                    // Descending ids, so a class's operator list needs its sort.
                    ops: (0..n_ops)
                        .map(|_| {
                            next_op -= 1;
                            OperatorId(next_op)
                        })
                        .collect(),
                    cpu_cost: cpus
                        .into_iter()
                        .map(|(zero, c)| if zero < 2 { 0.0 } else { c })
                        .collect(),
                    pin: match pin {
                        0 => Pin::Node,
                        1 => Pin::Server,
                        _ => Pin::Movable,
                    },
                })
                .collect();
            let mut edges = Vec::new();
            let mut next_edge = 0;
            let mut pairs = pairs.into_iter();
            for i in 0..n {
                for j in (i + 1)..n {
                    for (src, dst) in [(i, j), (j, i)] {
                        let (pick, parallel, n_graph_edges, bws) =
                            pairs.next().expect("n·(n−1) draws");
                        // A backbone edge i → i+1 most of the time, other
                        // forward edges rarely, back edges only if cyclic.
                        let present = match (src < dst, dst == src + 1) {
                            (true, true) => pick < 8,
                            (true, false) => pick < 2,
                            (false, _) => cyclic && pick < 1,
                        };
                        let copies = if !present {
                            0
                        } else if parallel < 2 {
                            1
                        } else {
                            2
                        };
                        for _ in 0..copies {
                            edges.push(TEdge {
                                src,
                                dst,
                                bandwidth: bws
                                    .iter()
                                    .map(|&(class, x)| match class {
                                        0 => 0.0,
                                        1 => 8.0,
                                        2 => 16.0,
                                        3 => 32.0,
                                        _ => x,
                                    })
                                    .collect(),
                                graph_edges: (0..n_graph_edges)
                                    .map(|_| {
                                        next_edge += 1;
                                        EdgeId(next_edge)
                                    })
                                    .collect(),
                            });
                        }
                    }
                }
            }
            let obj = TierObjective {
                alpha: tiers
                    .iter()
                    .map(|&(a, _)| if a { 0.5 } else { 0.0 })
                    .collect(),
                cpu_budget: tiers
                    .iter()
                    .map(|&(_, b)| if b { 1.0 } else { f64::INFINITY })
                    .collect(),
                beta: vec![1.0; k - 1],
                net_budget: links
                    .iter()
                    .map(|&b| if b { 100.0 } else { f64::INFINITY })
                    .collect(),
            };
            (
                TieredGraph {
                    tiers: k,
                    vertices,
                    edges,
                    top: Default::default(),
                },
                obj,
            )
        })
    })
}

/// One merged vertex with its CPU costs as bits.
type VertexBits = (Vec<OperatorId>, Vec<u64>, Pin);
/// One merged edge with its bandwidths as bits.
type EdgeBits = (usize, usize, Vec<u64>, Vec<EdgeId>);

/// A merged graph's top classes: the class map, the class pins and the
/// representative edges.
type TopBits = (Vec<usize>, Vec<Pin>, Vec<usize>);
/// A merge result with every float as its bits, so `==` is bit equality.
type MergeBits = (usize, usize, Vec<VertexBits>, Vec<EdgeBits>, TopBits);

/// A merge result with every float as its bits, so `==` is bit equality.
fn merge_bits(r: Result<TieredPreprocessResult, PinError>) -> Result<MergeBits, PinError> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    r.map(|r| {
        let top = &r.graph.top;
        (
            r.vertices_before,
            r.vertices_after,
            r.graph
                .vertices
                .iter()
                .map(|v| (v.ops.clone(), bits(&v.cpu_cost), v.pin))
                .collect(),
            r.graph
                .edges
                .iter()
                .map(|e| (e.src, e.dst, bits(&e.bandwidth), e.graph_edges.clone()))
                .collect(),
            (top.of.clone(), top.pin.clone(), top.edges.clone()),
        )
    })
}

/// The generator reaches what the merge branches on: merges, pin
/// conflicts, cycles, and every tier count.
#[test]
fn the_merge_generator_covers_merges_conflicts_and_cycles() {
    let strategy = merge_case_strategy();
    let (mut merged, mut conflicts, mut cyclic_merged) = (0, 0, 0);
    let mut tier_counts = HashSet::new();
    for case in 0..512 {
        let mut rng = proptest::test_runner::TestRng::for_case("merge coverage", case);
        let (tg, obj) = strategy.gen_value(&mut rng);
        tier_counts.insert(tg.tiers);
        let back_edge = tg.edges.iter().any(|e| e.src > e.dst);
        match preprocess_tiered_reference(&tg, &obj) {
            Ok(r) if r.vertices_after < r.vertices_before => {
                merged += 1;
                cyclic_merged += usize::from(back_edge);
            }
            Ok(_) => {}
            Err(_) => conflicts += 1,
        }
    }
    assert!(
        merged >= 50 && conflicts >= 20 && cyclic_merged >= 20,
        "merged {merged}, conflicts {conflicts}, cyclic merged {cyclic_merged}"
    );
    assert_eq!(tier_counts, HashSet::from([2, 3, 4]));
}

/// Per-tier CPU loads of a decoded assignment.
fn tier_cpu(tg: &TieredGraph, tiers: &[usize]) -> Vec<f64> {
    let mut cpu = vec![0.0; tg.tiers];
    for (v, vert) in tg.vertices.iter().enumerate() {
        cpu[tiers[v]] += vert.cpu_cost[tiers[v]];
    }
    cpu
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The linear-time merge is the reference merge: same classes, same
    /// operator lists, same CPU and bandwidth bits, same edge order, same
    /// counts, same top classes — or the same pin conflict, naming the
    /// same operator.
    #[test]
    fn merge_matches_the_reference_bit_for_bit((tg, obj) in merge_case_strategy()) {
        prop_assert_eq!(
            merge_bits(preprocess_tiered(&tg, &obj)),
            merge_bits(preprocess_tiered_reference(&tg, &obj))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance anchor: for k = 2 the multitier encoding is the
    /// binary restricted encoding — same verdict, same objective, same
    /// assignment — under both simplex backends.
    #[test]
    fn k2_parity_with_binary_encoding(
        pg in pg_strategy(),
        budget in 0.1f64..1.0,
        sparse in prop::bool::ANY,
    ) {
        let backend = if sparse { SolverBackend::Sparse } else { SolverBackend::Dense };
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let bep = encode(&pg, Encoding::Restricted, &obj);
        let tg = tiered_from_binary(&pg);
        let tobj = TierObjective {
            alpha: vec![0.0, 0.0],
            cpu_budget: vec![budget, f64::INFINITY],
            beta: vec![1.0],
            net_budget: vec![1e9],
        };
        let tep = encode_multitier(&tg, &tobj);
        prop_assert_eq!(bep.problem.num_vars(), tep.problem.num_vars());
        prop_assert_eq!(bep.problem.num_constraints(), tep.problem.num_constraints());

        let b = solve_ilp(&bep.problem, &opts(backend));
        let t = solve_ilp(&tep.problem, &opts(backend));
        match (b, t) {
            (Ok(b), Ok(t)) => {
                prop_assert!((b.objective - t.objective).abs()
                    < 1e-9 * (1.0 + b.objective.abs()),
                    "objective {} vs {}", b.objective, t.objective);
                let bset = bep.decode(&b.values);
                let tset: HashSet<usize> = tep.decode(&t.values)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t == 0)
                    .map(|(v, _)| v)
                    .collect();
                prop_assert_eq!(bset, tset, "assignments diverged");
            }
            (Err(b), Err(t)) => prop_assert_eq!(b, t, "verdicts diverged"),
            (b, t) => prop_assert!(false, "verdict mismatch: binary {:?} vs k2 {:?}",
                b.is_ok(), t.is_ok()),
        }
    }

    /// A free middle tier (no CPU bill, no uplink bill) changes nothing:
    /// the k = 3 optimum equals the binary optimum.
    #[test]
    fn free_middle_tier_preserves_the_optimum(pg in pg_strategy(), budget in 0.1f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let binary = solve_ilp(&encode(&pg, Encoding::Restricted, &obj).problem, &IlpOptions::default())
            .ok()
            .map(|s| s.objective);

        let mut tg = tiered_from_binary(&pg);
        tg.tiers = 3;
        for v in &mut tg.vertices {
            let mote = v.cpu_cost[0];
            v.cpu_cost = vec![mote, 0.0, 0.0];
        }
        for e in &mut tg.edges {
            let bw = e.bandwidth[0];
            e.bandwidth = vec![bw, bw];
        }
        let tobj = TierObjective {
            alpha: vec![0.0; 3],
            cpu_budget: vec![budget, f64::INFINITY, f64::INFINITY],
            beta: vec![1.0, 0.0],
            net_budget: vec![1e9, f64::INFINITY],
        };
        let k3 = solve_ilp(&encode_multitier(&tg, &tobj).problem, &IlpOptions::default())
            .ok()
            .map(|s| s.objective);
        match (binary, k3) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6,
                "free relay changed the optimum: {} -> {}", a, b),
            (None, None) => {}
            (a, b) => prop_assert!(false, "feasibility flipped: {:?} vs {:?}", a, b),
        }
    }

    /// k = 3 solutions respect the chain: tiers are monotone along edges,
    /// pinned endpoints land on their tiers, and every finite CPU budget
    /// holds.
    #[test]
    fn k3_solutions_respect_chain_invariants(
        pg in pg_strategy(),
        mote_budget in 0.05f64..0.8,
        relay_budget in 0.01f64..0.2,
    ) {
        let tg = lift_k3(&pg);
        let tobj = TierObjective::bandwidth_only(
            vec![mote_budget, relay_budget, f64::INFINITY],
            vec![1e9, 1e9],
        );
        let ep = encode_multitier(&tg, &tobj);
        if let Ok(sol) = solve_ilp(&ep.problem, &IlpOptions::default()) {
            let tiers = ep.decode(&sol.values);
            for e in &tg.edges {
                prop_assert!(tiers[e.src] <= tiers[e.dst],
                    "edge {}->{} goes backwards: {} -> {}",
                    e.src, e.dst, tiers[e.src], tiers[e.dst]);
            }
            prop_assert_eq!(tiers[0], 0, "pinned source tier");
            prop_assert_eq!(tiers[tg.vertices.len() - 1], 2, "pinned sink tier");
            let cpu = tier_cpu(&tg, &tiers);
            prop_assert!(cpu[0] <= mote_budget + 1e-6,
                "mote cpu {} over {}", cpu[0], mote_budget);
            prop_assert!(cpu[1] <= relay_budget + 1e-6,
                "relay cpu {} over {}", cpu[1], relay_budget);
        }
    }

    /// Loosening the relay budget never hurts the objective (more room in
    /// the middle tier only widens the feasible set).
    #[test]
    fn looser_relay_budget_never_hurts(pg in pg_strategy(), budget in 0.05f64..0.5) {
        let tg = lift_k3(&pg);
        let solve = |relay_budget: f64| {
            let tobj = TierObjective::bandwidth_only(
                vec![budget, relay_budget, f64::INFINITY],
                vec![1e9, 1e9],
            );
            solve_ilp(&encode_multitier(&tg, &tobj).problem, &IlpOptions::default())
                .ok()
                .map(|s| s.objective)
        };
        let tight = solve(0.02);
        let loose = solve(1.0);
        match (tight, loose) {
            (Some(a), Some(b)) => prop_assert!(b <= a + 1e-6,
                "loosening the relay made it worse: {} -> {}", a, b),
            (Some(_), None) => prop_assert!(false, "loosening lost feasibility"),
            _ => {}
        }
    }
}
