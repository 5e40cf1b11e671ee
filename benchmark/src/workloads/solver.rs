//! Workloads 1–3: the solver stack on fixed instances.

use std::time::Instant;

use wishbone::core::{
    approx_cut, encode_deployment, max_sustainable_rate_deployment, partition_deployment,
    Deployment, DeploymentConfig, DeploymentPartition, PartitionError, PreparedDeployment,
};
use wishbone::ilp::{presolve, solve_ilp_in, solve_lp, PresolveOutcome, SimplexWorkspace};
use wishbone::prelude::SolverBackend;

use super::{Expected, Metrics, OpLog, SetupLayers, Workload, REL_TOL};
use crate::fixtures::{self, ProfiledApp, RATE_HI_LIMIT, RATE_TOL, SWEEP_RATES};
use crate::layers;
use crate::span::{Tracer, OP};
use crate::stats::median;

fn setup_layers(app: &ProfiledApp) -> SetupLayers {
    SetupLayers {
        build_s: app.build_s,
        profile_s: app.profile_s,
        ops_profiled: app.graph.operator_count(),
    }
}

/// Every budget row of `dep` holds in `part` (the answer is feasible, not
/// just cheap).
pub fn within_budgets(dep: &Deployment, part: &DeploymentPartition) -> bool {
    dep.site_ids().all(|s| {
        let cpu_ok = part.site_cpu[s.0] <= dep.site(s).cpu_budget * (1.0 + REL_TOL) + 1e-9;
        let net_ok = dep
            .uplink(s)
            .is_none_or(|l| part.link_net[s.0] <= l.net_budget * (1.0 + REL_TOL) + 1e-9);
        cpu_ok && net_ok
    })
}

/// Branch-and-bound counters read off the public `IlpStats` of the solves
/// of `ops` ops.
pub fn bb_counts(m: &mut Metrics, parts: &[&DeploymentPartition], ops: f64) {
    let sum = |f: &dyn Fn(&DeploymentPartition) -> f64| parts.iter().map(|p| f(p)).sum::<f64>();
    let nodes = sum(&|p| p.ilp_stats.nodes as f64);
    let iters = sum(&|p| p.ilp_stats.simplex_iterations as f64);
    let warm = sum(&|p| p.ilp_stats.warm_starts as f64);
    let cold = sum(&|p| p.ilp_stats.cold_starts as f64);
    let seeded = sum(&|p| p.ilp_stats.seeded as u8 as f64);
    let nodes_s = sum(&|p| p.ilp_stats.phase_times.nodes_s);
    m.insert("ilp.bb.nodes_per_op", nodes / ops);
    m.insert("ilp.bb.simplex_iters_per_op", iters / ops);
    m.insert("ilp.bb.warm_share", warm / (warm + cold).max(1.0));
    m.insert("ilp.bb.seeded_share", seeded / parts.len().max(1) as f64);
    m.insert("ilp.bb.us_per_iter", nodes_s * 1e6 / iters.max(1.0));
    m.insert("ilp.bb.nodes_ms", nodes_s * 1e3 / ops);
}

// ------------------------------------------------------------ workload 1

/// `chain_eeg22_cold`: > 90% of the op is one cold root LP.
pub struct ChainCold {
    app: ProfiledApp,
    dep: Deployment,
    cfg: DeploymentConfig,
    expected: f64,
    /// The first traced op's answer, for the count metrics.
    first: Option<DeploymentPartition>,
}

impl ChainCold {
    pub fn new() -> Self {
        ChainCold {
            app: fixtures::eeg_app(22),
            dep: fixtures::eeg_chain(),
            cfg: DeploymentConfig::default(),
            expected: Expected::load().chain_objective,
            first: None,
        }
    }

    fn check(&self, part: &Result<DeploymentPartition, PartitionError>, log: &mut OpLog) {
        match part {
            Ok(p) => {
                log.check_objective(p.objective, self.expected, REL_TOL);
                log.fail_unless(within_budgets(&self.dep, p));
            }
            Err(_) => log.failed += 1,
        }
    }
}

impl Workload for ChainCold {
    fn setup_layers(&self) -> SetupLayers {
        setup_layers(&self.app)
    }

    fn run_chunk(&mut self, log: &mut OpLog) {
        let t = Instant::now();
        let part = partition_deployment(&self.app.graph, &self.app.profile, &self.dep, &self.cfg);
        log.raw_ns.push(t.elapsed().as_nanos() as f64);
        self.check(&part, log);
    }

    fn verify(&mut self, _log: &mut OpLog) -> String {
        "every op's objective against expected.json (dense backend) and its budget rows".into()
    }

    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog) {
        let (graph, profile) = (&self.app.graph, &self.app.profile);
        let op = tr.enter(OP);
        let merged = layers::build_and_merge(graph, profile, &self.dep, &self.cfg, tr, false);
        let chains = layers::chains(&merged, &self.dep);
        let objective = layers::deployment_objective(&self.dep);

        let s = tr.enter("core.encode");
        let ep = encode_deployment(&chains, &objective);
        tr.exit(s);
        tr.count(s, "vars", ep.problem.num_vars() as f64);
        tr.count(s, "rows", ep.problem.num_constraints() as f64);

        let s = tr.enter("core.multilevel.cut");
        let seed = approx_cut(&chains, &objective, 1.0).map(|c| layers::y_values(&ep, &c.tiers));
        tr.exit(s);

        let mut opts = self.cfg.ilp.clone();
        opts.warm_solution = seed;
        let mut ws = SimplexWorkspace::new();
        let s = tr.enter("ilp.bb");
        let (solved, stats) = solve_ilp_in(&ep.problem, &opts, &mut ws);
        tr.exit(s);
        tr.count(s, "nodes", stats.nodes as f64);
        tr.count(s, "iters", stats.simplex_iterations as f64);
        match solved {
            Ok(sol) => {
                log.check_objective(sol.objective + ep.objective_offset, self.expected, REL_TOL)
            }
            Err(_) => log.failed += 1,
        }

        // Probes: the root LP alone, and the library's own two calls
        // whole (prepare; solve, which adds the decode the replay above
        // cannot reach from outside).
        let s = tr.enter_probe("ilp.root_lp");
        let lp = solve_lp(&ep.problem);
        tr.exit(s);
        tr.count(s, "iters", lp.map_or(0.0, |l| l.iterations as f64));

        let s = tr.enter_probe("core.prepare");
        let prep = PreparedDeployment::new(graph, profile, &self.dep, &self.cfg);
        tr.exit(s);
        if let Ok(mut prep) = prep {
            let s = tr.enter_probe("core.solve");
            let part = prep.solve_at(1.0);
            tr.exit(s);
            self.check(&part, log);
            if self.first.is_none() {
                self.first = part.ok();
            }
        } else {
            log.failed += 1;
        }
        tr.exit(op);
    }

    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics) {
        if let Some(p) = &self.first {
            bb_counts(m, &[p], 1.0);
        }
        let solve = median(&tr.per_op_ms("core.solve"));
        let inner = median(&tr.per_op_ms("core.multilevel.cut")) + median(&tr.per_op_ms("ilp.bb"));
        m.insert("core.decode.ms", (solve - inner).max(0.0));
    }
}

// ------------------------------------------------------------ workload 2

/// `forest_eeg4_rate_search`: ~28 short probes on one encode.
pub struct RateSearch {
    app: ProfiledApp,
    dep: Deployment,
    cfg: DeploymentConfig,
    expected: Expected,
    /// Per traced op: (probes, infeasible probes, presolve fast-fails).
    probe_counts: Vec<(u32, u32, u32)>,
    /// The first traced op's feasible probes, for the count metrics.
    first: Vec<DeploymentPartition>,
}

impl RateSearch {
    pub fn new() -> Self {
        RateSearch {
            app: fixtures::eeg_app(4),
            dep: fixtures::eeg_forest(),
            cfg: DeploymentConfig::default(),
            expected: Expected::load(),
            probe_counts: Vec::new(),
            first: Vec::new(),
        }
    }
}

impl Workload for RateSearch {
    fn setup_layers(&self) -> SetupLayers {
        setup_layers(&self.app)
    }

    fn run_chunk(&mut self, log: &mut OpLog) {
        let t = Instant::now();
        let found = max_sustainable_rate_deployment(
            &self.app.graph,
            &self.app.profile,
            &self.dep,
            &self.cfg,
            RATE_HI_LIMIT,
            RATE_TOL,
        );
        log.raw_ns.push(t.elapsed().as_nanos() as f64);
        match found {
            Ok(Some(r)) => {
                log.fail_unless((r.rate / self.expected.rate - 1.0).abs() <= REL_TOL);
                log.fail_unless(r.evaluations == self.expected.rate_evaluations);
                log.fail_unless(r.encodes == self.expected.rate_encodes);
                log.fail_unless(r.unproven.is_none());
                log.check_objective(r.partition.objective, self.expected.rate_objective, REL_TOL);
                log.fail_unless(within_budgets(&self.dep, &r.partition));
            }
            _ => log.failed += 1,
        }
    }

    fn verify(&mut self, _log: &mut OpLog) -> String {
        "every op's rate, evaluations, encodes and objective against expected.json (dense backend)"
            .into()
    }

    /// The §4.3 schedule (floor probe, doubling, bisection) replayed over
    /// one prepared instance, one `core.rate_search.probe` span per
    /// probe. After each probe, in place: presolve alone on the problem
    /// as retargeted, and — for an infeasible probe, whose statistics
    /// `solve_at` does not return — the solver alone, to see whether
    /// presolve refused it without a node.
    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog) {
        let op = tr.enter(OP);
        let s = tr.enter("core.prepare");
        let prep =
            PreparedDeployment::new(&self.app.graph, &self.app.profile, &self.dep, &self.cfg);
        tr.exit(s);
        let Ok(mut prep) = prep else {
            log.failed += 1;
            tr.exit(op);
            return;
        };
        let ilp = self.cfg.ilp.clone();
        let keep_first = self.first.is_empty();
        let (mut probes, mut infeasible, mut fastfail) = (0u32, 0u32, 0u32);
        let mut probe = |rate: f64, tr: &mut Tracer, first: &mut Vec<DeploymentPartition>| {
            let s = tr.enter("core.rate_search.probe");
            let part = prep.solve_at(rate);
            tr.exit(s);
            probes += 1;
            tr.count(s, "rate", rate);

            let problem = prep.problem();
            let (mut lower, mut upper) = (
                problem.lower_bounds().to_vec(),
                problem.upper_bounds().to_vec(),
            );
            let s = tr.enter_probe("ilp.presolve");
            let outcome = presolve(problem, &mut lower, &mut upper);
            tr.exit(s);
            let refused = outcome == PresolveOutcome::Infeasible;
            match part {
                Ok(p) => {
                    if keep_first {
                        first.push(p.clone());
                    }
                    Some(p)
                }
                Err(PartitionError::Infeasible) => {
                    infeasible += 1;
                    let s = tr.enter_probe("ilp.bb");
                    let (_, stats) = solve_ilp_in(problem, &ilp, &mut SimplexWorkspace::new());
                    tr.exit(s);
                    if stats.nodes == 0 {
                        fastfail += 1;
                        debug_assert!(refused);
                    }
                    None
                }
                Err(_) => None,
            }
        };

        let mut lo = RATE_HI_LIMIT * 2f64.powi(-24);
        let mut best = probe(lo, tr, &mut self.first);
        let mut hi = lo;
        if best.is_some() {
            loop {
                let next = (hi * 2.0).min(RATE_HI_LIMIT);
                hi = next;
                match probe(next, tr, &mut self.first) {
                    Some(p) => {
                        lo = next;
                        best = Some(p);
                        if next >= RATE_HI_LIMIT {
                            break;
                        }
                    }
                    None => break,
                }
            }
            while (hi - lo) / lo > RATE_TOL {
                let mid = 0.5 * (lo + hi);
                match probe(mid, tr, &mut self.first) {
                    Some(p) => {
                        lo = mid;
                        best = Some(p);
                    }
                    None => hi = mid,
                }
            }
        }
        let encodes = prep.encodes();
        tr.exit(op);

        self.probe_counts.push((probes, infeasible, fastfail));
        log.fail_unless((lo / self.expected.rate - 1.0).abs() <= REL_TOL);
        log.fail_unless(probes == self.expected.rate_evaluations);
        log.fail_unless(encodes == self.expected.rate_encodes);
        match best {
            Some(p) => log.check_objective(p.objective, self.expected.rate_objective, REL_TOL),
            None => log.failed += 1,
        }
    }

    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics) {
        let Some(&(probes, infeasible, fastfail)) = self.probe_counts.first() else {
            return;
        };
        m.insert("core.rate_search.probes", probes as f64);
        m.insert(
            "core.rate_search.encodes",
            self.expected.rate_encodes as f64,
        );
        m.insert("core.rate_search.infeasible_probes", infeasible as f64);
        m.insert(
            "core.rate_search.probe_ms_p50",
            median(&tr.each_ms("core.rate_search.probe")),
        );
        m.insert("ilp.presolve.ms", median(&tr.each_ms("ilp.presolve")));
        m.insert(
            "ilp.presolve.fastfail_share",
            fastfail as f64 / probes.max(1) as f64,
        );
        let parts: Vec<&DeploymentPartition> = self.first.iter().collect();
        bb_counts(m, &parts, 1.0);
    }
}

// ------------------------------------------------------------ workload 3

/// `forest_eeg4_approx_sweep`: the only workload whose answers may be
/// worse than optimal.
pub struct ApproxSweep {
    app: ProfiledApp,
    dep: Deployment,
    cfg: DeploymentConfig,
    optima: Vec<f64>,
    /// Harness-side merged graphs, for probing `approx_cut` alone.
    merged: Option<layers::Merged>,
    cut_gap_max: f64,
    certified_gap_max: f64,
}

impl ApproxSweep {
    pub fn new() -> Self {
        ApproxSweep {
            app: fixtures::eeg_app(4),
            dep: fixtures::eeg_forest(),
            cfg: DeploymentConfig::default().approx(),
            optima: Expected::load().sweep_optima,
            merged: None,
            cut_gap_max: 0.0,
            certified_gap_max: 0.0,
        }
    }

    /// An approximate answer is right when it is feasible, no better than
    /// the proven optimum, and no further from it than its own certified
    /// gap says. One op fails once, however many of its eight answers are
    /// wrong.
    fn check(&mut self, parts: Vec<Result<DeploymentPartition, PartitionError>>, log: &mut OpLog) {
        let mut inner = OpLog::default();
        inner.fail_unless(parts.len() == SWEEP_RATES.len());
        for (i, part) in parts.into_iter().enumerate() {
            match part {
                Ok(p) => {
                    let certified = p.certified_gap.unwrap_or(0.0);
                    self.certified_gap_max = self.certified_gap_max.max(certified);
                    // certified = (obj − bound)/obj ≥ (obj − opt)/obj, so
                    // obj/opt ≤ 1/(1 − certified).
                    let slack = 1.0 / (1.0 - certified).max(f64::EPSILON) - 1.0 + REL_TOL;
                    inner.check_objective(p.objective, self.optima[i], slack);
                    inner.fail_unless(p.certified_gap.is_some());
                    inner.fail_unless(within_budgets(&self.dep, &p));
                }
                Err(_) => inner.failed += 1,
            }
        }
        log.ratio_max = log.ratio_max.max(inner.ratio_max);
        log.fail_unless(inner.failed == 0);
    }
}

impl Workload for ApproxSweep {
    fn setup_layers(&self) -> SetupLayers {
        setup_layers(&self.app)
    }

    fn run_chunk(&mut self, log: &mut OpLog) {
        let t = Instant::now();
        let mut parts = Vec::with_capacity(SWEEP_RATES.len());
        if let Ok(mut prep) =
            PreparedDeployment::new(&self.app.graph, &self.app.profile, &self.dep, &self.cfg)
        {
            for rate in SWEEP_RATES {
                parts.push(prep.solve_at(rate));
            }
        }
        log.raw_ns.push(t.elapsed().as_nanos() as f64);
        self.check(parts, log);
    }

    fn verify(&mut self, _log: &mut OpLog) -> String {
        "all eight answers of every op: feasible, not below the exact optimum of expected.json \
         (dense backend), within their own certified gap"
            .into()
    }

    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog) {
        if self.merged.is_none() {
            // Untimed: outside any op, so these spans form a group of
            // their own and the op ledger never sees them.
            let (graph, profile) = (&self.app.graph, &self.app.profile);
            let group = tr.enter_probe("harness.merged_graphs");
            self.merged = Some(layers::build_and_merge(
                graph, profile, &self.dep, &self.cfg, tr, true,
            ));
            tr.exit(group);
        }
        let op = tr.enter(OP);
        let s = tr.enter("core.prepare");
        let prep =
            PreparedDeployment::new(&self.app.graph, &self.app.profile, &self.dep, &self.cfg);
        tr.exit(s);
        let Ok(mut prep) = prep else {
            log.failed += 1;
            tr.exit(op);
            return;
        };
        tr.count(s, "vars", prep.problem_size().0 as f64);
        tr.count(s, "rows", prep.problem_size().1 as f64);
        let objective = layers::deployment_objective(&self.dep);
        let mut parts = Vec::with_capacity(SWEEP_RATES.len());
        for (i, rate) in SWEEP_RATES.into_iter().enumerate() {
            let s = tr.enter("core.solve");
            let part = prep.solve_at(rate);
            tr.exit(s);

            // The two halves of an approximate solve, alone: the
            // multilevel cut, and the root LP that certifies it.
            let merged = self.merged.as_ref().expect("merged above");
            let chains = layers::chains(merged, &self.dep);
            let s = tr.enter_probe("core.multilevel.cut");
            let cut = approx_cut(&chains, &objective, rate);
            tr.exit(s);
            if let Some(cut) = cut {
                self.cut_gap_max = self.cut_gap_max.max(cut.objective / self.optima[i] - 1.0);
            }
            let s = tr.enter_probe("ilp.root_lp");
            let lp = solve_lp(prep.problem());
            tr.exit(s);
            tr.count(s, "iters", lp.map_or(0.0, |l| l.iterations as f64));
            parts.push(part);
        }
        tr.exit(op);
        drop(prep);
        self.check(parts, log);
    }

    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics) {
        m.insert("core.multilevel.cut_gap", self.cut_gap_max);
        m.insert("core.multilevel.certified_gap_max", self.certified_gap_max);
        let solve = median(&tr.per_op_ms("core.solve"));
        let inner =
            median(&tr.per_op_ms("core.multilevel.cut")) + median(&tr.per_op_ms("ilp.root_lp"));
        m.insert("core.decode.ms", (solve - inner).max(0.0));
    }
}

// ------------------------------------------------------------- reference

/// The reference answers of workloads 1–3, dense backend forced.
pub fn write_expected(out: &mut String) {
    let mut dense = DeploymentConfig::default();
    dense.ilp.backend = SolverBackend::Dense;

    let app = fixtures::eeg_app(22);
    let part = partition_deployment(&app.graph, &app.profile, &fixtures::eeg_chain(), &dense)
        .expect("the 22-channel chain is feasible");
    out.push_str(&format!(
        "  \"chain_eeg22.objective\": {},\n",
        part.objective
    ));

    let app = fixtures::eeg_app(4);
    let forest = fixtures::eeg_forest();
    let r = max_sustainable_rate_deployment(
        &app.graph,
        &app.profile,
        &forest,
        &dense,
        RATE_HI_LIMIT,
        RATE_TOL,
    )
    .expect("the rate search runs")
    .expect("the forest is feasible at low rates");
    out.push_str(&format!("  \"rate_search.rate\": {},\n", r.rate));
    out.push_str(&format!(
        "  \"rate_search.evaluations\": {},\n",
        r.evaluations
    ));
    out.push_str(&format!("  \"rate_search.encodes\": {},\n", r.encodes));
    out.push_str(&format!(
        "  \"rate_search.objective\": {},\n",
        r.partition.objective
    ));

    let mut prep = PreparedDeployment::new(&app.graph, &app.profile, &forest, &dense)
        .expect("the forest prepares");
    let optima: Vec<String> = SWEEP_RATES
        .iter()
        .map(|&rate| {
            // Cold each time: no incumbent carried from the last rate.
            prep.reset_warm_start();
            let p = prep
                .solve_at(rate)
                .expect("every sweep rate is below the cliff");
            format!("{}", p.objective)
        })
        .collect();
    out.push_str(&format!(
        "  \"approx_sweep.optima\": [{}],\n",
        optima.join(", ")
    ));
}
