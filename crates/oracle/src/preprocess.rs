//! §4.1 preprocessing: merge data-expanding / data-neutral operators with
//! their downstream operators.
//!
//! "Consider an operator u that feeds another operator v such that the
//! bandwidth from v is the same or higher than the bandwidth on the output
//! stream from u. A partition with a cut-point on v's output stream can
//! always be improved by moving the cut-point to the stream u → v ...
//! Thus, any operator that is data-expanding or data-neutral may be merged
//! with its downstream operator(s), reducing the search space without
//! eliminating optimal solutions."
//!
//! The binary graph *is* the 2-tier chain whose downstream side has
//! "infinite computational power", so the binary merge is the k-tier one
//! under a free server tier ([`tiered_from_binary`] in, [`PartitionGraph`]
//! out). The k-tier merge here, [`preprocess_tiered_reference`], is the
//! one `wishbone-core` shipped before its flat, linear-time rewrite — its
//! own union-find, hashed quotient and SCC collapse, sharing no code with
//! [`wishbone_core::preprocess_tiered`], which `tests/proptest_multitier.rs`
//! pins to it bit for bit.

use std::collections::{BTreeMap, HashMap, HashSet};

use wishbone_core::{
    Pin, PinError, TEdge, TVertex, TierObjective, TieredGraph, TieredPreprocessResult, TopClasses,
};
use wishbone_dataflow::OperatorId;
use wishbone_ilp::is_exact_zero;

use crate::cost_graph::{PEdge, PVertex, PartitionGraph};

/// Lift a binary [`PartitionGraph`] into a 2-tier graph (tier-1 CPU
/// costs are zero: the paper's infinitely powerful server).
pub fn tiered_from_binary(pg: &PartitionGraph) -> TieredGraph {
    TieredGraph {
        tiers: 2,
        vertices: pg
            .vertices
            .iter()
            .map(|v| TVertex {
                ops: v.ops.clone(),
                cpu_cost: vec![v.cpu_cost, 0.0],
                pin: v.pin,
            })
            .collect(),
        edges: pg
            .edges
            .iter()
            .map(|e| TEdge {
                src: e.src,
                dst: e.dst,
                bandwidth: vec![e.bandwidth],
                graph_edges: e.graph_edges.clone(),
            })
            .collect(),
        top: TopClasses::default(),
    }
}

/// Result of preprocessing, with bookkeeping for reporting.
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The merged graph.
    pub graph: PartitionGraph,
    /// Vertices before / after, for ablation reporting.
    pub vertices_before: usize,
    /// Vertex count after merging.
    pub vertices_after: usize,
}

/// Apply the §4.1 merge to `pg`.
///
/// Delegates to the k-way generalization
/// ([`preprocess_tiered_reference`]) with a free server tier — exactly
/// the regime where the paper's dominance argument holds.
pub fn preprocess(pg: &PartitionGraph) -> Result<PreprocessResult, PinError> {
    let tg = tiered_from_binary(pg);
    // A free final tier (α = 0, infinite budget): every bandwidth-safe
    // merge is also CPU-safe, matching the binary rule exactly.
    let obj = TierObjective {
        alpha: vec![0.0, 0.0],
        cpu_budget: vec![f64::INFINITY, f64::INFINITY],
        beta: vec![1.0],
        net_budget: vec![f64::INFINITY],
    };
    let r = preprocess_tiered_reference(&tg, &obj)?;
    Ok(PreprocessResult {
        graph: PartitionGraph {
            vertices: r
                .graph
                .vertices
                .into_iter()
                .map(|v| PVertex {
                    ops: v.ops,
                    cpu_cost: v.cpu_cost[0],
                    pin: v.pin,
                })
                .collect(),
            edges: r
                .graph
                .edges
                .into_iter()
                .map(|e| PEdge {
                    src: e.src,
                    dst: e.dst,
                    bandwidth: e.bandwidth[0],
                    graph_edges: e.graph_edges,
                })
                .collect(),
        },
        vertices_before: r.vertices_before,
        vertices_after: r.vertices_after,
    })
}

/// The reference k-tier §4.1 merge: the rule of
/// [`wishbone_core::preprocess_tiered`], computed the way `wishbone-core`
/// did before its flat rewrite — a scan of every edge per mergeable
/// vertex, hashed class lookups, a hashed edge aggregation sorted
/// afterwards — and the per-boundary rule's top classes by label
/// propagation over the merged classes.
/// O(V·E); what it returns is the specification.
pub fn preprocess_tiered_reference(
    tg: &TieredGraph,
    obj: &TierObjective,
) -> Result<TieredPreprocessResult, PinError> {
    assert_eq!(obj.tiers(), tg.tiers, "objective tier count mismatch");
    let n = tg.vertices.len();
    let links = tg.tiers - 1;
    let mut dsu = Dsu::new(n);

    // Per-link per-vertex input/output bandwidth sums.
    let mut in_bw = vec![vec![0.0f64; n]; links];
    let mut out_bw = vec![vec![0.0f64; n]; links];
    for e in &tg.edges {
        for (b, &r) in e.bandwidth.iter().enumerate() {
            out_bw[b][e.src] += r;
            in_bw[b][e.dst] += r;
        }
    }

    // Tiers that may charge `v` for being moved onto them.
    let charging_tiers: Vec<usize> = (1..tg.tiers)
        .filter(|&t| !is_exact_zero(obj.alpha[t]) || obj.cpu_budget[t].is_finite())
        .collect();

    // The top boundary alone (k ≥ 3) asks only that the root cannot
    // charge the vertex.
    let root = tg.tiers - 1;
    let root_free = is_exact_zero(obj.alpha[root]) && obj.cpu_budget[root].is_infinite();
    let mut top_joins: Vec<(usize, usize)> = Vec::new();

    let mut out_deg = vec![0usize; n];
    for e in &tg.edges {
        out_deg[e.src] += 1;
    }
    for (v, vert) in tg.vertices.iter().enumerate() {
        if vert.pin != Pin::Movable || out_deg[v] != 1 {
            continue;
        }
        let safe_on_every_link =
            (0..links).all(|b| out_bw[b][v] + 1e-12 >= in_bw[b][v] && out_bw[b][v] > 0.0);
        let free_on_every_charging_tier = charging_tiers
            .iter()
            .all(|&t| is_exact_zero(vert.cpu_cost[t]));
        let root_cannot_charge = root_free || is_exact_zero(vert.cpu_cost[root]);
        for e in tg.edges.iter().filter(|e| e.src == v) {
            if safe_on_every_link && free_on_every_charging_tier {
                dsu.union(v, e.dst);
            } else if safe_on_every_link && root_cannot_charge && tg.tiers >= 3 {
                top_joins.push((v, e.dst));
            }
        }
    }

    // Collapse every strongly connected component of the quotient, then
    // rebuild it once.
    let (mut class_of, mut classes) = quotient(&mut dsu, n);
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); classes.len()];
    for e in &tg.edges {
        let (cs, cd) = (class_of[&dsu.find(e.src)], class_of[&dsu.find(e.dst)]);
        if cs != cd {
            adj[cs].insert(cd);
        }
    }
    let cycles = cyclic_sccs(&adj);
    if !cycles.is_empty() {
        for scc in &cycles {
            let mut members = scc.iter().flat_map(|&c| classes[c].iter().copied());
            let first = members.next().expect("SCC is non-empty");
            for v in members {
                dsu.union(first, v);
            }
        }
        (class_of, classes) = quotient(&mut dsu, n);
    }

    let m = classes.len();
    let mut vertices: Vec<TVertex> = Vec::with_capacity(m);
    for members in &classes {
        let mut ops = Vec::new();
        let mut cpu = vec![0.0f64; tg.tiers];
        let mut pin = Pin::Movable;
        for &v in members {
            let vert = &tg.vertices[v];
            ops.extend(vert.ops.iter().copied());
            for (acc, &c) in cpu.iter_mut().zip(&vert.cpu_cost) {
                *acc += c;
            }
            pin = combine_pins(
                pin,
                vert.pin,
                vert.ops.first().copied().unwrap_or(OperatorId(0)),
            )?;
        }
        ops.sort_unstable();
        vertices.push(TVertex {
            ops,
            cpu_cost: cpu,
            pin,
        });
    }
    let mut agg: HashMap<(usize, usize), TEdge> = HashMap::new();
    for e in &tg.edges {
        let (cs, cd) = (class_of[&dsu.find(e.src)], class_of[&dsu.find(e.dst)]);
        if cs == cd {
            continue;
        }
        let entry = agg.entry((cs, cd)).or_insert(TEdge {
            src: cs,
            dst: cd,
            bandwidth: vec![0.0; links],
            graph_edges: Vec::new(),
        });
        for (acc, &r) in entry.bandwidth.iter_mut().zip(&e.bandwidth) {
            *acc += r;
        }
        entry.graph_edges.extend(e.graph_edges.iter().copied());
    }
    let mut edges: Vec<TEdge> = agg.into_values().collect();
    edges.sort_by_key(|e| (e.src, e.dst));
    let joins: Vec<(usize, usize)> = top_joins
        .iter()
        .map(|&(v, w)| (class_of[&dsu.find(v)], class_of[&dsu.find(w)]))
        .collect();
    let top = top_classes_reference(&vertices, &edges, &joins)?;
    Ok(TieredPreprocessResult {
        graph: TieredGraph {
            tiers: tg.tiers,
            vertices,
            edges,
            top,
        },
        vertices_before: n,
        vertices_after: m,
    })
}

/// The top boundary's classes of a merged graph, the merged vertices
/// `joins` pairs up: labels propagated to a fixed point (each vertex
/// takes the least label of any vertex it is joined to), classes
/// numbered by their first vertex, pins combined member by member (the
/// lowest class's first conflict wins), and per distinct pair of classes
/// the lowest-index edge joining them, in pair order. Empty when every
/// class is one vertex.
fn top_classes_reference(
    vertices: &[TVertex],
    edges: &[TEdge],
    joins: &[(usize, usize)],
) -> Result<TopClasses, PinError> {
    let mut label: Vec<usize> = (0..vertices.len()).collect();
    loop {
        let mut changed = false;
        for &(a, b) in joins {
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                let least = la.min(lb);
                for l in label.iter_mut().filter(|l| **l == la || **l == lb) {
                    *l = least;
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut number: HashMap<usize, usize> = HashMap::new();
    let of: Vec<usize> = label
        .iter()
        .map(|l| {
            let next = number.len();
            *number.entry(*l).or_insert(next)
        })
        .collect();
    if number.len() == vertices.len() {
        return Ok(TopClasses::default());
    }
    let mut pin = Vec::with_capacity(number.len());
    for class in 0..number.len() {
        let mut p = Pin::Movable;
        for (vert, _) in vertices.iter().zip(&of).filter(|&(_, &c)| c == class) {
            let witness = vert.ops.first().copied().unwrap_or(OperatorId(0));
            p = combine_pins(p, vert.pin, witness)?;
        }
        pin.push(p);
    }
    let mut pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        if of[e.src] != of[e.dst] {
            pairs.entry((of[e.src], of[e.dst])).or_insert(i);
        }
    }
    Ok(TopClasses {
        of,
        pin,
        edges: pairs.into_values().collect(),
    })
}

/// Union-find over vertex indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Combine two pin states; `Err` names `witness` on node/server conflict.
fn combine_pins(a: Pin, b: Pin, witness: OperatorId) -> Result<Pin, PinError> {
    match (a, b) {
        (Pin::Movable, p) | (p, Pin::Movable) => Ok(p),
        (x, y) if x == y => Ok(x),
        _ => Err(PinError::Conflict(witness)),
    }
}

/// The classes of `dsu` over vertices `0..n`, numbered by their first
/// vertex with members in vertex order (so every sum over a class runs
/// in vertex order), and the class of each root.
fn quotient(dsu: &mut Dsu, n: usize) -> (HashMap<usize, usize>, Vec<Vec<usize>>) {
    let mut class_of: HashMap<usize, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        let root = dsu.find(v);
        let c = *class_of.entry(root).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[c].push(v);
    }
    (class_of, classes)
}

/// Every non-trivial strongly connected component of the quotient graph
/// (iterative Tarjan, one pass); empty when the graph is a DAG.
fn cyclic_sccs(adj: &[HashSet<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Iterative DFS state: a vertex and its unvisited neighbours.
        let mut call = vec![(start, adj[start].iter())];
        while let Some((v, neighbours)) = call.last_mut() {
            let v = *v;
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = neighbours.next() {
                if index[w] == usize::MAX {
                    call.push((w, adj[w].iter()));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v finished.
            call.pop();
            if low[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("stack non-empty");
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                if scc.len() > 1 {
                    sccs.push(scc);
                }
            }
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_core::Pin;
    use wishbone_dataflow::OperatorId;

    fn v(cpu: f64, pin: Pin) -> PVertex {
        PVertex {
            ops: vec![],
            cpu_cost: cpu,
            pin,
        }
    }

    fn e(src: usize, dst: usize, bw: f64) -> PEdge {
        PEdge {
            src,
            dst,
            bandwidth: bw,
            graph_edges: vec![],
        }
    }

    /// Give each vertex a distinct op id so conflict errors are traceable.
    fn tag(mut pg: PartitionGraph) -> PartitionGraph {
        for (i, vert) in pg.vertices.iter_mut().enumerate() {
            vert.ops = vec![OperatorId(i)];
        }
        pg
    }

    #[test]
    fn expanding_op_merges_downstream() {
        // src(Node) --100--> expander --150--> reducer --10--> sink(Server)
        // The expander (out 150 >= in 100) merges with the reducer.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.1, Pin::Node),
                v(0.2, Pin::Movable),
                v(0.3, Pin::Movable),
                v(0.0, Pin::Server),
            ],
            edges: vec![e(0, 1, 100.0), e(1, 2, 150.0), e(2, 3, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 3);
        let merged = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.len() == 2)
            .expect("one merged vertex");
        assert!((merged.cpu_cost - 0.5).abs() < 1e-12);
        // Remaining cut candidates: the 100 edge and the 10 edge.
        let bws: Vec<f64> = r.graph.edges.iter().map(|e| e.bandwidth).collect();
        assert!(bws.contains(&100.0) && bws.contains(&10.0));
    }

    #[test]
    fn reducing_ops_are_not_merged() {
        // Strictly reducing chain: no merges possible.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.1, Pin::Node),
                v(0.2, Pin::Movable),
                v(0.3, Pin::Movable),
                v(0.0, Pin::Server),
            ],
            edges: vec![e(0, 1, 100.0), e(1, 2, 50.0), e(2, 3, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 4);
    }

    #[test]
    fn neutral_op_merges() {
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.2, Pin::Movable), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 64.0), e(1, 2, 64.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(
            r.vertices_after, 2,
            "data-neutral op merges with the sink side"
        );
    }

    #[test]
    fn pinned_expanding_op_does_not_merge() {
        // Node-pinned expander must not be glued into the server sink.
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 100.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 2);
    }

    #[test]
    fn fan_out_vertices_never_merge() {
        // w -> a, w -> b with w "expanding" in aggregate: the optimal cut
        // may separate a from b, so w must stay mergeable-free (this exact
        // shape broke the naive all-successors rule; found by proptest).
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.0, Pin::Node),    // 0 = src
                v(0.1, Pin::Movable), // 1 = w (fan-out 2, out 40 >= in 10)
                v(0.1, Pin::Movable), // 2 = a
                v(0.1, Pin::Movable), // 3 = b
                v(0.0, Pin::Server),  // 4 = sink
            ],
            edges: vec![
                e(0, 1, 10.0),
                e(1, 2, 20.0), // w -> a
                e(1, 3, 20.0), // w -> b
                e(2, 3, 30.0), // a -> b (reconvergence)
                e(3, 4, 1.0),  // b -> sink
            ],
        });
        let r = preprocess(&pg).unwrap();
        // w keeps its own vertex; only single-output chains merge (here: a
        // is expanding with one out-edge, so {a, b} may merge).
        let w_class = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.contains(&OperatorId(1)))
            .unwrap();
        assert_eq!(
            w_class.ops,
            vec![OperatorId(1)],
            "fan-out vertex must stay alone"
        );
    }

    #[test]
    fn merge_into_pinned_consumer_inherits_pin() {
        // Movable neutral op feeding a node-pinned actuator: the merged
        // class is node-pinned; feeding a server-pinned sink: server.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.0, Pin::Node),
                v(0.1, Pin::Movable), // neutral, single out
                v(0.0, Pin::Node),    // actuator
            ],
            edges: vec![e(0, 1, 10.0), e(1, 2, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        let class = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.contains(&OperatorId(1)))
            .unwrap();
        assert_eq!(class.pin, Pin::Node);
        assert_eq!(class.ops.len(), 2);
    }

    #[test]
    fn idempotent_on_fixed_point() {
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.2, Pin::Movable), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 100.0), e(1, 2, 10.0)],
        });
        let once = preprocess(&pg).unwrap();
        let twice = preprocess(&once.graph).unwrap();
        assert_eq!(once.vertices_after, twice.vertices_after);
    }
}
