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
//!
//! The same monotonicity makes the probes past the cliff free. Every
//! budget right-hand side only shrinks as the rate grows, so a
//! combination of rows that refutes the problem at one rate refutes every
//! rate at which it still clears them, with no branch-and-bound run. The
//! prepared instance settles every rate it is asked this way, the
//! search's probes and `PreparedDeployment::solve_at` alike, through one
//! settle-or-search step, and searches every other rate. Below the cliff
//! a search's first step answers most probes by itself: the closure
//! relaxation's optimum, one min-cut per objective and kept across rates,
//! is the answer at every rate where it fits every budget row. Just past
//! the cliff, a refutation is one more min-cut: a budget row the closure
//! breaks whose floor over the closure is above its budget. That floor
//! is the only refutation there is, so which probes are refuted does not
//! depend on the simplex backend; a probe no floor refutes is searched.
//! Only the fleet's `solve_at_in` never takes the kept refutation and
//! never tries a floor.

use crate::topology::{check_rate, PartitionError};

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

/// A completed [`search_max_rate`] run that found a feasible rate.
pub(crate) struct FoundRate {
    /// Highest proven-feasible rate.
    pub(crate) rate: f64,
    /// Probes consumed.
    pub(crate) evaluations: u32,
    /// Lowest unproven probe above `rate`, if any probe timed out.
    pub(crate) unproven: Option<UnprovenRate>,
}

/// The §4.3 search skeleton behind
/// [`max_sustainable_rate_deployment`](crate::topology::max_sustainable_rate_deployment):
/// establish a feasible lower bound at a
/// vanishing rate, double until infeasible (or the cap is hit), then
/// bisect to relative precision `tol`. `probe` is one verdict: `Ok` (a
/// placement fits), [`PartitionError::Infeasible`] (proven), or
/// [`PartitionError::Unproven`] (the probe's search budget ran out before
/// any integer point was found). An unproven probe is treated as an upper
/// bound for the bisection (conservative) but recorded and reported, so
/// callers can tell a proven ceiling from a search that merely ran out of
/// budget — the range above the result is *unproven*, not infeasible.
///
/// Every probe after the first lies above the highest feasible one so
/// far, so the last feasible probe is the returned rate's.
///
/// `Ok(None)` means proven infeasible even at the vanishing floor rate;
/// a floor probe that was itself unproven — the search learned nothing —
/// any other solver error, and a `hi_limit` or `tol` that is not finite
/// and positive come back as `Err`. Bisection also stops once the
/// midpoint rounds onto an end, however small `tol` is.
pub(crate) fn search_max_rate(
    mut probe: impl FnMut(f64) -> Result<(), PartitionError>,
    hi_limit: f64,
    tol: f64,
) -> Result<Option<FoundRate>, PartitionError> {
    check_rate(hi_limit)?;
    if !(tol.is_finite() && tol > 0.0) {
        return Err(PartitionError::InvalidTolerance { tol });
    }
    let mut evals = 0u32;
    let mut unproven: Option<UnprovenRate> = None;
    // `false`: nothing fits at this rate, as far as this probe could tell.
    let mut fits = |rate: f64| -> Result<bool, PartitionError> {
        evals += 1;
        match probe(rate) {
            Ok(()) => Ok(true),
            Err(PartitionError::Infeasible) => Ok(false),
            Err(PartitionError::Unproven { best_bound }) => {
                if unproven.is_none_or(|prev| rate < prev.rate) {
                    unproven = Some(UnprovenRate { rate, best_bound });
                }
                Ok(false)
            }
            Err(e) => Err(e),
        }
    };

    // Establish a feasible lower bound.
    let mut lo = hi_limit * 2f64.powi(-24);
    if !fits(lo)? {
        return match unproven {
            Some(u) => Err(PartitionError::Unproven {
                best_bound: u.best_bound,
            }),
            None => Ok(None),
        };
    }

    // Grow until infeasible/unproven or the cap is hit.
    let mut hi = lo;
    loop {
        hi = (hi * 2.0).min(hi_limit);
        if !fits(hi)? {
            break;
        }
        lo = hi;
        if (hi - hi_limit).abs() < f64::EPSILON * hi_limit {
            break;
        }
    }

    // Bisect (lo feasible; hi infeasible or unproven — or lo == hi, the
    // cap itself).
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            break; // `lo` and `hi` are adjacent floats
        }
        if fits(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(FoundRate {
        rate: lo,
        evaluations: evals,
        unproven,
    }))
}

#[cfg(test)]
mod tests {
    use crate::multitier::LinkSpec;
    use crate::topology::{
        max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
        PartitionError, PreparedDeployment, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
    use wishbone_ilp::{solve_ilp_in, SimplexWorkspace, SolverBackend};
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
        let (g, src) = app();
        let t = SourceTrace {
            source: src,
            elements: (0..20)
                .map(|i| Value::VecI16(vec![i as i16; 200]))
                .collect(),
            rate_hz: 40.0,
        };
        let p = run_profile(&g, &[t]).unwrap();
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
        let mut searched = Vec::new();
        for rate in [0.02, 0.05, 0.25, 1.0] {
            let solves = prep.solves();
            let a = prep.solve_at(rate);
            searched.push(prep.solves() > solves);
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
        // Every feasible rate searches. The infeasible ×1 is past the
        // closure ceiling, and the floor of a budget row the closure breaks
        // refutes it with no search.
        assert_eq!(searched, [true, true, true, false]);
        assert_eq!(prep.solves(), 3);
    }

    #[test]
    fn backends_agree_on_the_rate_search() {
        // The §4.3 search must land on the same rate whichever simplex
        // backend runs the probes, and its counters must show that backend
        // ran: only the sparse method factorizes a basis or re-enters
        // warm. The closure answers the found rate here, so its problem is
        // searched again directly, on the same backend. A floor over the
        // closure is min-cuts alone, so both searches refute the same
        // probes.
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let (mut rates, mut refuted) = (Vec::new(), Vec::new());
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, 0.01)
                .unwrap()
                .expect("feasible at low rates");
            let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
            prep.solve_at(r.rate).expect("the found rate is feasible");
            let mut ws = SimplexWorkspace::new();
            let (sol, stats) = solve_ilp_in(prep.problem(), &cfg.ilp, &mut ws);
            let offset = prep.encoded().objective_offset * r.rate;
            let searched = sol.expect("the found rate's problem solves").objective + offset;
            let found = r.partition.objective;
            assert!(
                (searched - found).abs() <= 1e-9 * found.abs(),
                "{searched} vs {found}"
            );
            let stats = &stats;
            assert!(stats.nodes > 0, "the proving solve ran an LP");
            match backend {
                SolverBackend::Dense => {
                    assert_eq!((stats.refactorizations, stats.warm_starts), (0, 0));
                }
                SolverBackend::Sparse => assert!(stats.refactorizations > 0, "{stats:?}"),
            }
            rates.push(r.rate);
            refuted.push(r.refuted);
        }
        assert!(!refuted[0].is_empty(), "a floor refutes past the cliff");
        assert_eq!(refuted[0], refuted[1], "dense vs sparse");
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
    fn a_bad_cap_or_tolerance_is_a_typed_error() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let search = |hi_limit, tol| {
            max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, hi_limit, tol).map(|_| ())
        };
        for hi_limit in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    search(hi_limit, 0.01),
                    Err(PartitionError::InvalidRate { .. })
                ),
                "hi_limit {hi_limit}"
            );
        }
        for tol in [0.0, -0.01, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    search(64.0, tol),
                    Err(PartitionError::InvalidTolerance { .. })
                ),
                "tol {tol}"
            );
        }
    }

    #[test]
    fn a_tolerance_below_float_resolution_ends_the_bisection() {
        let (g, prof) = profiled();
        let dep = two_site(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let search = |tol| {
            max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, tol)
                .unwrap()
                .expect("feasible at low rates")
        };
        let fine = search(1e-18);
        // Doubling from 2⁻²⁴ of the cap, then one probe per significand
        // bit at most before the midpoint stops moving.
        assert!(fine.evaluations <= 26 + 53, "{} probes", fine.evaluations);
        let coarse = search(1e-12);
        assert!(fine.rate >= coarse.rate && fine.rate <= coarse.rate * (1.0 + 1e-12));
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
