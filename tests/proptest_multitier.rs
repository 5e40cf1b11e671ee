//! Property tests for the k-way monotone-cut encoding over random
//! weighted DAGs: k = 2 must be *identical* to the binary restricted
//! encoding (assignment, objective, and verdict, on both simplex
//! backends), and k = 3 solutions must satisfy the chain invariants.

use proptest::prelude::*;
use std::collections::HashSet;

use wishbone::core::{Pin, TierObjective, TieredGraph};
use wishbone::dataflow::OperatorId;
use wishbone::ilp::{IlpOptions, SolverBackend};
use wishbone_oracle::{
    encode, encode_multitier, tiered_from_binary, Encoding, ObjectiveConfig, PEdge, PVertex,
    PartitionGraph,
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

/// Per-tier CPU loads of a decoded assignment.
fn tier_cpu(tg: &TieredGraph, tiers: &[usize]) -> Vec<f64> {
    let mut cpu = vec![0.0; tg.tiers];
    for (v, vert) in tg.vertices.iter().enumerate() {
        cpu[tiers[v]] += vert.cpu_cost[tiers[v]];
    }
    cpu
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

        let b = bep.problem.solve_ilp(&opts(backend));
        let t = tep.problem.solve_ilp(&opts(backend));
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
        let binary = encode(&pg, Encoding::Restricted, &obj)
            .problem
            .solve_ilp(&IlpOptions::default())
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
        let k3 = encode_multitier(&tg, &tobj)
            .problem
            .solve_ilp(&IlpOptions::default())
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
        if let Ok(sol) = ep.problem.solve_ilp(&IlpOptions::default()) {
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
            encode_multitier(&tg, &tobj)
                .problem
                .solve_ilp(&IlpOptions::default())
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
