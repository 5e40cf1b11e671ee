//! Figure 3: the motivating example. A tiny graph where the optimal mote
//! partition flips shape under small CPU-budget changes, with cut
//! bandwidth 8 → 6 → 5 as the budget goes 2 → 3 → 4.
//!
//! Our instance realizes the same numbers: a source (cpu 1, pinned) feeding
//! two branches a (cpu 2, reduces 4→2) and b (cpu 3, reduces 4→1). Budget 2
//! fits neither branch (cut 8); budget 3 fits only a (cut 6); budget 4
//! flips to b (cut 5) — "the partitioning can change unpredictably ...
//! with only a small change in the CPU budget".

use std::collections::HashSet;

use wishbone_core::Pin;
use wishbone_dataflow::OperatorId;
use wishbone_ilp::IlpOptions;
use wishbone_oracle::{
    encode, evaluate, exhaustive, Encoding, ObjectiveConfig, PEdge, PVertex, PartitionGraph,
};

fn example() -> PartitionGraph {
    let v = |cpu: f64, pin: Pin, i: usize| PVertex {
        ops: vec![OperatorId(i)],
        cpu_cost: cpu,
        pin,
    };
    let e = |src: usize, dst: usize, bw: f64| PEdge {
        src,
        dst,
        bandwidth: bw,
        graph_edges: vec![],
    };
    PartitionGraph {
        vertices: vec![
            v(1.0, Pin::Node, 0),    // source
            v(2.0, Pin::Movable, 1), // a
            v(3.0, Pin::Movable, 2), // b
            v(0.0, Pin::Server, 3),  // sink
        ],
        edges: vec![
            e(0, 1, 4.0), // s -> a
            e(0, 2, 4.0), // s -> b
            e(1, 3, 2.0), // a -> sink
            e(2, 3, 1.0), // b -> sink
        ],
    }
}

fn main() {
    let pg = example();
    wishbone_bench::header(
        "Figure 3: optimal partition vs CPU budget",
        &["budget", "cut bw", "node set", "brute force"],
    );

    let mut last_set: Option<HashSet<usize>> = None;
    let mut flipped = false;
    let expected_bw = [8.0, 6.0, 5.0];
    for (i, budget) in [2.0, 3.0, 4.0].into_iter().enumerate() {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let ep = encode(&pg, Encoding::Restricted, &obj);
        let sol = ep
            .problem
            .solve_ilp(&IlpOptions::default())
            .expect("solvable");
        let set = ep.decode(&sol.values);
        let m = evaluate(&pg, &set, &obj);
        let (bset, bm) = exhaustive(&pg, &obj, 8).expect("feasible");
        assert!(
            (m.objective - bm.objective).abs() < 1e-9,
            "ILP must match brute force"
        );
        assert_eq!(set, bset);
        assert!(
            (m.net - expected_bw[i]).abs() < 1e-9,
            "budget {budget}: expected cut {} got {}",
            expected_bw[i],
            m.net
        );
        if let Some(prev) = &last_set {
            if *prev != set && prev.len() == set.len() {
                flipped = true; // same size, different members: a shape flip
            }
        }
        let mut members: Vec<usize> = set.iter().copied().collect();
        members.sort_unstable();
        wishbone_bench::row(&[
            wishbone_bench::f(budget),
            wishbone_bench::f(m.net),
            format!("{members:?}"),
            wishbone_bench::f(bm.net),
        ]);
        last_set = Some(set);
    }
    assert!(
        flipped,
        "budget 3 -> 4 must flip the partition shape (a -> b)"
    );
    println!("\npartition flips shape between budget 3 and 4, as in the paper's example");
}
