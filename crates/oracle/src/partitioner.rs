//! The binary node/server cut, end to end.
//!
//! The partitioner itself is `wishbone_core`'s one
//! [`partition_deployment`](wishbone_core::partition_deployment) path,
//! where the paper's node/server split is the 2-site star
//! ([`Deployment::star`](wishbone_core::Deployment::star)). The unit tests
//! below exercise that special case and check it against the standalone
//! general (edge-variable) encoder; the module holds nothing else.

#[cfg(test)]
mod tests {
    use crate::cost_graph::build_partition_graph;
    use crate::encodings::{encode, Encoding, ObjectiveConfig};
    use crate::preprocess::preprocess;
    use wishbone_core::{
        partition_deployment, Deployment, DeploymentConfig, LinkSpec, Mode, PartitionError, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
    use wishbone_ilp::IlpOptions;
    use wishbone_profile::{profile as run_profile, GraphProfile, Platform, SourceTrace};

    /// A 4-stage reducing pipeline with controllable per-stage cost:
    /// src -> a(cheap, 402B->102B) -> c(expensive, 102B->22B) -> sink.
    fn reducing_app() -> (Graph, OperatorId, Vec<OperatorId>) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let a = b.transform(
            "cheap_reduce",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.int(w.len() as u64));
                cx.emit(Value::VecI16(w.iter().step_by(4).copied().collect()));
            })),
            src,
        );
        let c = b.transform(
            "pricey_reduce",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(1000, |m| {
                    m.fmul(4000);
                    m.fadd(4000);
                });
                cx.emit(Value::VecI16(w.iter().step_by(5).copied().collect()));
            })),
            a,
        );
        b.exit_namespace();
        let sink = b.sink("out", c);
        let _ = sink;
        let g = b.finish().unwrap();
        (g, src.0, vec![src.0, a.0, c.0])
    }

    fn profiled() -> (Graph, OperatorId, Vec<OperatorId>, GraphProfile) {
        let (g, src, ops) = reducing_app();
        let trace = SourceTrace {
            source: src,
            elements: (0..40)
                .map(|i| Value::VecI16(vec![i as i16; 200]))
                .collect(),
            rate_hz: 10.0,
        };
        let p = run_profile(&g, &[trace]).unwrap();
        (g, src, ops, p)
    }

    /// The binary node/server shape: one `platform` leaf under the server.
    fn two_site(node: Site, net_budget: f64) -> Deployment {
        Deployment::star([(
            node,
            LinkSpec {
                beta: 1.0,
                net_budget,
            },
        )])
    }

    #[test]
    fn fast_platform_takes_everything() {
        let (g, _src, ops, prof) = profiled();
        let platform = Platform::gumstix();
        let dep = Deployment::star([(
            Site::new("node", &platform),
            LinkSpec::for_platform(&platform),
        )]);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();
        let leaf = &part.leaves[0];
        // All three node-side ops fit easily: minimum-bandwidth cut.
        let mut node_side = ops.clone();
        node_side.sort_unstable();
        assert_eq!(leaf.site_ops[0], node_side);
        assert_eq!(leaf.link_cut_edges[0].len(), 1);
        assert!(leaf.predicted_cpu[0] < 0.1);
        assert!(part.ilp_stats.proved);
    }

    #[test]
    fn tight_cpu_budget_moves_expensive_stage_off() {
        let (g, _src, ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        // Find the expensive stage's cost and budget just below it.
        let pricey = prof.cpu_fraction(ops[2], &platform);
        let cpu_budget = prof.cpu_fraction(ops[0], &platform)
            + prof.cpu_fraction(ops[1], &platform)
            + pricey * 0.5;
        let dep = two_site(
            Site::new("node", &platform).with_cpu_budget(cpu_budget),
            1e9,
        );
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();
        let leaf = &part.leaves[0];
        assert!(leaf.site_ops[0].contains(&ops[1]), "cheap stage stays");
        assert!(
            !leaf.site_ops[0].contains(&ops[2]),
            "pricey stage moves to server"
        );
        assert!(leaf.predicted_cpu[0] <= cpu_budget + 1e-9);
    }

    #[test]
    fn infeasible_when_budgets_are_zero() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        // Even the pinned source exceeds this CPU budget, and the raw
        // stream exceeds this uplink.
        let dep = two_site(Site::new("node", &platform).with_cpu_budget(1e-12), 1.0);
        assert_eq!(
            partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap_err(),
            PartitionError::Infeasible
        );
    }

    #[test]
    fn encodings_agree() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        let dep = two_site(Site::new("node", &platform), 1e9);
        let a = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();

        // The general (edge-variable) formulation of §4.2.1 eq. 3–5,
        // straight through the standalone encoder.
        let pg = build_partition_graph(&g, &prof, &platform, Mode::Permissive, 1.0).unwrap();
        let pg = preprocess(&pg).unwrap().graph;
        let obj = ObjectiveConfig {
            alpha: 0.0,
            beta: 1.0,
            cpu_budget: 1.0,
            net_budget: 1e9,
        };
        let ep = encode(&pg, Encoding::General, &obj);
        let sol = ep.problem.solve_ilp(&IlpOptions::default()).unwrap();
        let node_ops = pg.expand(&ep.decode(&sol.values));
        let net: f64 = g
            .edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                node_ops.contains(&edge.src) && !node_ops.contains(&edge.dst)
            })
            .map(|e| prof.edge_on_air_bandwidth(e, &platform))
            .sum();
        let mut node_list: Vec<OperatorId> = node_ops.iter().copied().collect();
        node_list.sort_unstable();
        assert_eq!(a.leaves[0].site_ops[0], node_list);
        assert!((a.leaves[0].predicted_net[0] - net).abs() < 1e-9);
    }

    #[test]
    fn rate_scaling_monotone_in_load() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        let dep = two_site(Site::new("node", &platform), 1e9);
        let cfg = DeploymentConfig::default();
        let slow = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(0.5)).unwrap();
        let fast = partition_deployment(&g, &prof, &dep, &cfg.at_rate(2.0)).unwrap();
        // Fewer (or equal) operators fit within the CPU budget at higher
        // rates (Fig 5a's downward-sloping curves). Note the node CPU
        // *prediction* may fall at higher rates precisely because work
        // moves off the node.
        assert!(fast.leaves[0].site_ops[0].len() <= slow.leaves[0].site_ops[0].len());
        assert!(fast.leaves[0].predicted_cpu[0] <= 1.0 + 1e-9);
    }
}
