//! §4.3: data rate as a free variable.
//!
//! When no partition fits, Wishbone finds "the maximum data rates for input
//! sources that will support a viable partitioning". Because CPU and
//! network load increase monotonically with input rate, "Wishbone simply
//! does a binary search over data rates to find the maximum rate at which
//! the partitioning algorithm returns a valid partition" — valid as long as
//! the network is not driven past the point where sending more means
//! receiving less, which the §7.3.1 network profile guarantees by keeping
//! the budget below saturation.

/// A probed rate whose branch-and-bound hit its node/time budget before
/// finding any integer point: neither feasible nor infeasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnprovenRate {
    /// The rate multiplier that was probed.
    pub rate: f64,
    /// Lower bound on the probe's optimal objective from the truncated
    /// search tree, if it got far enough to establish one.
    pub best_bound: Option<f64>,
}

/// What one rate probe learned.
pub(crate) enum ProbeOutcome<P> {
    /// A placement exists at this rate (and here it is).
    Feasible(P),
    /// Proven: no placement exists at this rate.
    Infeasible,
    /// The probe's search budget ran out before any integer point was
    /// found — nothing is proven either way.
    Unproven {
        /// Objective lower bound from the truncated tree, if any.
        best_bound: Option<f64>,
    },
}

/// How a [`search_max_rate`] run ended.
pub(crate) enum SearchOutcome<P> {
    /// A feasible rate was found (and possibly an unproven probe above
    /// it).
    Found {
        /// Highest proven-feasible rate.
        rate: f64,
        /// The placement at that rate.
        best: P,
        /// Probes consumed.
        evaluations: u32,
        /// Lowest unproven probe above `rate`, if any probe timed out.
        unproven: Option<UnprovenRate>,
    },
    /// Proven infeasible even at the vanishing floor rate.
    Infeasible,
    /// The floor probe itself was unproven: the search learned nothing.
    FloorUnproven(UnprovenRate),
}

/// The §4.3 search skeleton behind
/// [`max_sustainable_rate_deployment`](crate::topology::max_sustainable_rate_deployment):
/// establish a feasible lower bound at a
/// vanishing rate, double until infeasible (or the cap is hit), then
/// bisect to relative precision `tol`. An
/// [`ProbeOutcome::Unproven`] probe is treated as an upper bound for the
/// bisection (conservative) but recorded and reported, so callers can
/// tell a proven ceiling from a search that merely ran out of budget —
/// the range above the result is *unproven*, not infeasible.
pub(crate) fn search_max_rate<P, E>(
    mut probe: impl FnMut(f64) -> Result<ProbeOutcome<P>, E>,
    hi_limit: f64,
    tol: f64,
) -> Result<SearchOutcome<P>, E> {
    assert!(hi_limit > 0.0 && tol > 0.0);
    let mut evals = 0u32;
    let mut unproven: Option<UnprovenRate> = None;
    let note_unproven = |u: &mut Option<UnprovenRate>, rate: f64, best_bound| {
        if u.is_none_or(|prev| rate < prev.rate) {
            *u = Some(UnprovenRate { rate, best_bound });
        }
    };

    // Establish a feasible lower bound.
    let mut lo = hi_limit * 2f64.powi(-24);
    evals += 1;
    let mut best = match probe(lo)? {
        ProbeOutcome::Feasible(p) => p,
        ProbeOutcome::Infeasible => return Ok(SearchOutcome::Infeasible),
        ProbeOutcome::Unproven { best_bound } => {
            return Ok(SearchOutcome::FloorUnproven(UnprovenRate {
                rate: lo,
                best_bound,
            }))
        }
    };

    // Grow until infeasible/unproven or the cap is hit.
    let mut hi = lo;
    loop {
        let next = (hi * 2.0).min(hi_limit);
        evals += 1;
        match probe(next)? {
            ProbeOutcome::Feasible(p) => {
                lo = next;
                best = p;
                hi = next;
                if (next - hi_limit).abs() < f64::EPSILON * hi_limit {
                    return Ok(SearchOutcome::Found {
                        rate: lo,
                        best,
                        evaluations: evals,
                        unproven,
                    });
                }
            }
            ProbeOutcome::Infeasible => {
                hi = next;
                break;
            }
            ProbeOutcome::Unproven { best_bound } => {
                note_unproven(&mut unproven, next, best_bound);
                hi = next;
                break;
            }
        }
    }

    // Bisect (lo feasible; hi infeasible or unproven).
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        evals += 1;
        match probe(mid)? {
            ProbeOutcome::Feasible(p) => {
                lo = mid;
                best = p;
            }
            ProbeOutcome::Infeasible => hi = mid,
            ProbeOutcome::Unproven { best_bound } => {
                note_unproven(&mut unproven, mid, best_bound);
                hi = mid;
            }
        }
    }
    Ok(SearchOutcome::Found {
        rate: lo,
        best,
        evaluations: evals,
        unproven,
    })
}

#[cfg(test)]
mod tests {
    use crate::multitier::LinkSpec;
    use crate::partitioner::PartitionError;
    use crate::topology::{
        max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
        PreparedDeployment, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
    use wishbone_ilp::SolverBackend;
    use wishbone_profile::{profile as run_profile, GraphProfile, Platform, SourceTrace};

    /// src -> crunch(compute-heavy 10x reducer) -> sink.
    fn app() -> (Graph, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let crunch = b.transform(
            "crunch",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(w.len() as u64, |m| {
                    m.fmul(10 * w.len() as u64);
                    m.fadd(10 * w.len() as u64);
                });
                cx.emit(Value::VecI16(w.iter().step_by(10).copied().collect()));
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", crunch);
        (b.finish().unwrap(), src.0)
    }

    fn profiled() -> (Graph, GraphProfile) {
        let (mut g, src) = app();
        let t = SourceTrace {
            source: src,
            elements: (0..20)
                .map(|i| Value::VecI16(vec![i as i16; 200]))
                .collect(),
            rate_hz: 40.0,
        };
        let p = run_profile(&mut g, &[t]).unwrap();
        (g, p)
    }

    /// The binary node/server shape at the paper's evaluation defaults.
    fn two_site(platform: &Platform) -> Deployment {
        Deployment::star([(
            Site::new("node", platform),
            LinkSpec::for_platform(platform),
        )])
    }

    #[test]
    fn finds_a_boundary_rate() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, 0.01)
            .unwrap()
            .expect("feasible at low rates");
        assert!(r.rate > 0.0 && r.rate < 64.0, "rate {}", r.rate);
        // Just above the found rate must be infeasible.
        let above = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(r.rate * 1.05));
        assert_eq!(above.unwrap_err(), PartitionError::Infeasible);
        // At the found rate, feasible.
        let at = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(r.rate));
        assert!(at.is_ok());
    }

    #[test]
    fn powerful_platform_hits_the_cap() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::gumstix());
        let r = max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            8.0,
            0.01,
        )
        .unwrap()
        .expect("feasible");
        assert!(
            (r.rate - 8.0).abs() < 1e-9,
            "cap should be reached, got {}",
            r.rate
        );
    }

    #[test]
    fn whole_search_encodes_exactly_once() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let r = max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            64.0,
            0.01,
        )
        .unwrap()
        .expect("feasible at low rates");
        assert_eq!(
            r.encodes, 1,
            "one graph build + preprocess + encode for the whole search"
        );
        assert!(
            r.evaluations > r.encodes,
            "many probes ({}) must reuse the single prepared encoding",
            r.evaluations
        );
    }

    #[test]
    fn prepared_partition_matches_one_shot() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        for rate in [0.02, 0.05, 0.25, 1.0] {
            let a = prep.solve_at(rate);
            let b = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(rate));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.leaves[0].site_ops[0], b.leaves[0].site_ops[0],
                        "rate {rate}"
                    );
                    assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                        "rate {rate}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "rate {rate}"),
                (a, b) => panic!("rate {rate}: prepared {a:?} vs one-shot {b:?}"),
            }
        }
        assert_eq!(prep.encodes(), 1);
        assert_eq!(prep.solves(), 4);
    }

    #[test]
    fn backends_agree_on_the_rate_search() {
        // The §4.3 search must land on the same rate whichever simplex
        // backend runs the probes, and report the backend it used.
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let mut rates = Vec::new();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, 0.01)
                .unwrap()
                .expect("feasible at low rates");
            assert_eq!(r.backend, backend, "forced backend must be reported");
            rates.push(r.rate);
        }
        assert!(
            (rates[0] - rates[1]).abs() <= 0.02 * rates[0],
            "dense rate {} vs sparse rate {}",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn hopeless_program_returns_none() {
        let (g, prof) = profiled();
        let dep = Deployment::star([(
            Site::new("node", &Platform::tmote_sky()).with_cpu_budget(0.0),
            LinkSpec {
                beta: 1.0,
                net_budget: 0.0,
            },
        )]);
        assert!(max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            8.0,
            0.01
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn result_rate_is_nearly_maximal() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::nokia_n80());
        let cfg = DeploymentConfig::default();
        let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 1024.0, 0.005)
            .unwrap()
            .expect("feasible");
        if r.rate < 1023.0 {
            // Tolerance respected: 1.5% above must fail.
            let above = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(r.rate * 1.015));
            assert_eq!(above.unwrap_err(), PartitionError::Infeasible);
        }
    }
}
