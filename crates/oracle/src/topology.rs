//! `Deployment::chain` against the chain oracle, from inside
//! `PreparedDeployment`: the prepared ILP of a k = 3 path is
//! [`encode_multitier`](crate::multitier::encode_multitier)'s, row for
//! row and bit for bit, and solves to the same placements. Lifted from
//! `wishbone_core::topology`'s unit tests; the module holds nothing else.

#[cfg(test)]
mod tests {
    use crate::multitier::{encode_multitier, tests::profiled};
    use wishbone_core::{
        build_tiered_graph, preprocess_tiered, Deployment, DeploymentConfig, Mode, PartitionError,
        PreparedDeployment, TierObjective,
    };
    use wishbone_ilp::{solve_ilp, IlpOptions, SolveError, VarId};
    use wishbone_profile::Platform;

    #[test]
    fn chain_deployment_matches_multitier_row_for_row() {
        let (g, prof) = profiled();
        let chain = [
            Platform::tmote_sky(),
            Platform::iphone(),
            Platform::server(),
        ];
        let dep = Deployment::chain(&chain);
        // The chain view of the one leaf's root path (what the private
        // `Deployment::leaf_objective` hands the per-leaf merge).
        let tobj = TierObjective::bandwidth_only(
            vec![1.0, 1.0, f64::INFINITY],
            chain[..2]
                .iter()
                .map(|p| p.radio.goodput_bytes_per_sec)
                .collect(),
        );
        // The standalone chain pipeline at `rate`: tiered graph → tiered
        // merge → `encode_multitier`.
        let oracle_at = |rate: f64| {
            let tg = build_tiered_graph(&g, &prof, &chain, Mode::Permissive, rate).unwrap();
            let merged = preprocess_tiered(&tg, &tobj).unwrap().graph;
            let ep = encode_multitier(&merged, &tobj);
            (merged, ep)
        };
        let mut prep =
            PreparedDeployment::new(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();

        let (_, oracle) = oracle_at(1.0);
        let (a, b) = (&oracle.problem, prep.problem());
        assert_eq!(
            prep.problem_size(),
            (a.num_vars(), a.num_constraints()),
            "identical ILP shape"
        );
        for j in 0..a.num_vars() {
            let v = VarId(j);
            assert_eq!(
                a.objective_coeff(v).to_bits(),
                b.objective_coeff(v).to_bits()
            );
        }
        for i in 0..a.num_constraints() {
            let (ra, rb) = (a.constraint(i), b.constraint(i));
            assert_eq!(ra.sense, rb.sense, "sense of row {i}");
            assert_eq!(ra.rhs.to_bits(), rb.rhs.to_bits(), "rhs of row {i}");
            assert_eq!(ra.terms.len(), rb.terms.len(), "terms of row {i}");
            for (ta, tb) in ra.terms.iter().zip(&rb.terms) {
                assert_eq!((ta.0, ta.1.to_bits()), (tb.0, tb.1.to_bits()), "row {i}");
            }
        }

        for rate in [0.1, 0.5, 2.0] {
            let (merged, ep) = oracle_at(rate);
            let m = solve_ilp(&ep.problem, &IlpOptions::default());
            match (prep.solve_at(rate), m) {
                (Ok(d), Ok(m)) => {
                    // Per-operator tiers from the merged vertices' tiers.
                    let mut tiers = vec![merged.tiers - 1; g.operator_count()];
                    for (vert, t) in merged.vertices.iter().zip(ep.decode(&m.values)) {
                        for &op in &vert.ops {
                            tiers[op.0] = t;
                        }
                    }
                    for id in g.operator_ids() {
                        assert_eq!(
                            d.leaves[0].position_of(id),
                            Some(tiers[id.0]),
                            "rate {rate}"
                        );
                    }
                    let objective = m.objective + ep.objective_offset;
                    assert!((d.objective - objective).abs() < 1e-9 * (1.0 + objective.abs()));
                }
                (Err(PartitionError::Infeasible), Err(SolveError::Infeasible)) => {}
                (d, m) => panic!("rate {rate}: deployment {d:?} vs multitier {m:?}"),
            }
        }
    }
}
