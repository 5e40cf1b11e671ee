//! Workloads 4–5: the fleet worker's request path — `shape_key` +
//! `ShapeCache::serve` on one long-lived `SimplexWorkspace` — driven on
//! the harness thread. The threaded `FleetServer` burst is a layer
//! metric, not an end-to-end one: on two shared vCPUs the cross-thread
//! wake-up measures the scheduler.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use wishbone::core::{
    approx_cut, deltas_between, encode_deployment, partition_deployment, shape_key,
    DeploymentConfig, PartitionError, PreparedDeployment, ShapeKey,
};
use wishbone::fleet::{FleetRequest, FleetServer, ShapeCache};
use wishbone::ilp::{solve_ilp_in, SimplexWorkspace};
use wishbone::prelude::{DeploymentPartition, SolverBackend};

use super::solver::{bb_counts, within_budgets};
use super::{Metrics, OpLog, SetupLayers, Workload, REL_TOL};
use crate::fixtures::{self, FleetApp};
use crate::layers;
use crate::span::{Tracer, OP};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two uplink weights in all: 8 shapes, every measured request a hit.
    Hits,
    /// An uplink weight of its own per request: every request a miss.
    Misses,
}

/// Requests in the list (one round), and in one timed chunk.
const HITS_ROUND: usize = 10_000;
const HITS_CHUNK: usize = 2_000;
const MISSES_ROUND: usize = 1_000;
const MISSES_CHUNK: usize = 250;
/// Every how many requests the dense cold re-solve / the in-place layer
/// probes run.
const RESOLVE_EVERY: usize = 50;
const PROBE_EVERY: usize = 16;

pub struct Fleet {
    mode: Mode,
    apps: [FleetApp; 2],
    requests: Vec<FleetRequest>,
    chunk: usize,
    cursor: usize,
    cache: ShapeCache,
    ws: SimplexWorkspace,
    /// Objective of every request's latest answer, for the dense check.
    objectives: Vec<f64>,
    /// Index of the first request of every shape (`Hits` only): serving
    /// these warms a cache, so that all eight encodes happen in set-up
    /// and none in a measured round.
    warmup: Vec<usize>,

    // Traced replay: the harness's own stand-in for the cache.
    prepared: HashMap<ShapeKey, PreparedDeployment<'static>>,
    traced_cursor: usize,
    replayed_a_chunk: bool,
    // Counts over the first traced chunk only — a fixed list of requests,
    // so they repeat exactly from run to run: hits, the deltas they
    // applied, and every answer.
    first_chunk_hits: u64,
    first_chunk_deltas: u64,
    first_chunk: Vec<DeploymentPartition>,
}

impl Fleet {
    pub fn new(seed: u64, mode: Mode) -> Self {
        let apps = [fixtures::fleet_app(0), fixtures::fleet_app(1)];
        let (round, chunk) = match mode {
            Mode::Hits => (HITS_ROUND, HITS_CHUNK),
            Mode::Misses => (MISSES_ROUND, MISSES_CHUNK),
        };
        let specs = fixtures::request_specs(seed, round, mode == Mode::Misses);
        let requests = fixtures::fleet_requests(&specs, &apps, &DeploymentConfig::default());
        let mut warmup = Vec::new();
        if mode == Mode::Hits {
            let mut seen = [false; fixtures::FLEET_SHAPES];
            for (idx, spec) in specs.iter().enumerate() {
                if !std::mem::replace(&mut seen[spec.shape], true) {
                    warmup.push(idx);
                }
            }
        }
        let mut fleet = Fleet {
            mode,
            apps,
            objectives: vec![f64::NAN; requests.len()],
            requests,
            chunk,
            cursor: 0,
            cache: ShapeCache::new(),
            ws: SimplexWorkspace::new(),
            warmup,
            prepared: HashMap::new(),
            traced_cursor: 0,
            replayed_a_chunk: false,
            first_chunk_hits: 0,
            first_chunk_deltas: 0,
            first_chunk: Vec::new(),
        };
        let mut cache = ShapeCache::new();
        fleet.warm(&mut cache);
        fleet.cache = cache;
        fleet
    }

    /// Serve the first request of every shape (nothing on `Misses`).
    fn warm(&mut self, cache: &mut ShapeCache) {
        for &idx in &self.warmup {
            let req = &self.requests[idx];
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            let _ = cache.serve(req, key, &mut self.ws, true);
        }
    }

    fn check(
        &mut self,
        idx: usize,
        hit: bool,
        result: &Result<DeploymentPartition, PartitionError>,
        log: &mut OpLog,
    ) {
        log.fail_unless(hit == (self.mode == Mode::Hits));
        match result {
            Ok(p) => {
                log.fail_unless(within_budgets(&self.requests[idx].deployment, p));
                self.objectives[idx] = p.objective;
            }
            Err(_) => log.failed += 1,
        }
    }

    /// Advance a cursor by one request, wrapping at the end of the round.
    fn advance(cursor: &mut usize, len: usize) -> bool {
        *cursor = (*cursor + 1) % len;
        *cursor == 0
    }
}

impl Workload for Fleet {
    fn setup_layers(&self) -> SetupLayers {
        SetupLayers {
            build_s: self.apps.iter().map(|a| a.build_s).sum(),
            profile_s: self.apps.iter().map(|a| a.profile_s).sum(),
            ops_profiled: self.apps.iter().map(|a| a.graph.operator_count()).sum(),
        }
    }

    fn run_chunk(&mut self, log: &mut OpLog) {
        for _ in 0..self.chunk {
            let idx = self.cursor;
            let req = &self.requests[idx];
            let t = Instant::now();
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            let (hit, result) = self.cache.serve(req, key, &mut self.ws, true);
            log.raw_ns.push(t.elapsed().as_nanos() as f64);
            self.check(idx, hit, &result, log);
            if Self::advance(&mut self.cursor, self.requests.len()) && self.mode == Mode::Misses {
                // A fresh cache per round, dropped off the clock.
                log.fail_unless(self.cache.len() == self.requests.len());
                self.cache = ShapeCache::new();
            }
        }
    }

    fn verify(&mut self, log: &mut OpLog) -> String {
        if self.mode == Mode::Hits {
            // Every encode happened in the warm-up.
            log.fail_unless(self.cache.len() == self.warmup.len());
        }
        let mut dense = DeploymentConfig::default();
        dense.ilp.backend = SolverBackend::Dense;
        let mut checked = 0;
        for idx in (0..self.requests.len()).step_by(RESOLVE_EVERY) {
            let objective = self.objectives[idx];
            if objective.is_nan() {
                continue; // not reached in a short run
            }
            let req = &self.requests[idx];
            let cfg = dense.clone().at_rate(req.rate);
            match partition_deployment(&req.graph, &req.profile, &req.deployment, &cfg) {
                Ok(cold) => log.check_objective(objective, cold.objective, REL_TOL),
                Err(_) => log.failed += 1,
            }
            checked += 1;
        }
        format!(
            "every response's site_cpu/link_net against its request's budgets; {checked} requests \
             (every {RESOLVE_EVERY}th) re-solved cold on the dense backend"
        )
    }

    /// The worker's request path as layer calls against a harness-owned
    /// map of prepared instances. A hit is `shape_key` → `deltas_between`
    /// → `apply_delta` → `reset_warm_start` + `solve_at_in`; a miss is
    /// `shape_key` → `PreparedDeployment::new_shared` → `solve_at_in` →
    /// insert. Every [`PROBE_EVERY`]th request the finer layers run once
    /// more, in place, as probes.
    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog) {
        let first_chunk = !std::mem::replace(&mut self.replayed_a_chunk, true);
        if first_chunk {
            // Warm the stand-in cache as set-up warms the real one.
            for &idx in &self.warmup {
                let req = &self.requests[idx];
                let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
                if let Ok(prep) = PreparedDeployment::new_shared(
                    Arc::clone(&req.graph),
                    Arc::clone(&req.profile),
                    &req.deployment,
                    &req.config,
                ) {
                    self.prepared.insert(key, prep);
                }
            }
        }
        for _ in 0..self.chunk {
            let idx = self.traced_cursor;
            let req = &self.requests[idx];
            let probing = idx.is_multiple_of(PROBE_EVERY);

            let op = tr.enter(OP);
            let s = tr.enter("core.shape.key");
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            tr.exit(s);

            let s = tr.enter("fleet.cache.lookup");
            let cached = self.prepared.get_mut(&key);
            tr.exit(s);
            let hit = cached.is_some();
            let result = match cached {
                Some(prep) => {
                    let s = tr.enter("core.shape.deltas");
                    let deltas = deltas_between(prep.deployment(), &req.deployment);
                    tr.exit(s);
                    tr.count(s, "deltas", deltas.len() as f64);
                    if first_chunk {
                        self.first_chunk_deltas += deltas.len() as u64;
                    }
                    if !deltas.is_empty() {
                        let s = tr.enter("core.delta.apply");
                        prep.apply_delta(&deltas);
                        tr.exit(s);
                    }
                    let s = tr.enter("core.solve");
                    prep.reset_warm_start();
                    let result = prep.solve_at_in(req.rate, &mut self.ws);
                    tr.exit(s);
                    result
                }
                None => {
                    let s = tr.enter("core.prepare");
                    let prep = PreparedDeployment::new_shared(
                        Arc::clone(&req.graph),
                        Arc::clone(&req.profile),
                        &req.deployment,
                        &req.config,
                    );
                    tr.exit(s);
                    match prep {
                        Ok(mut prep) => {
                            tr.count(s, "vars", prep.problem_size().0 as f64);
                            tr.count(s, "rows", prep.problem_size().1 as f64);
                            let s = tr.enter("core.solve");
                            let result = prep.solve_at_in(req.rate, &mut self.ws);
                            tr.exit(s);
                            let s = tr.enter("fleet.cache.insert");
                            self.prepared.insert(key.clone(), prep);
                            tr.exit(s);
                            result
                        }
                        Err(e) => Err(e),
                    }
                }
            };

            if probing {
                // build → merge → encode, alone (what a miss's prepare
                // is made of) …
                let merged = layers::build_and_merge(
                    &req.graph,
                    &req.profile,
                    &req.deployment,
                    &req.config,
                    tr,
                    true,
                );
                let chains = layers::chains(&merged, &req.deployment);
                let objective = layers::deployment_objective(&req.deployment);
                let s = tr.enter_probe("core.encode");
                let ep = encode_deployment(&chains, &objective);
                tr.exit(s);
                tr.count(s, "vars", ep.problem.num_vars() as f64);
                tr.count(s, "rows", ep.problem.num_constraints() as f64);
                // … and cut + branch-and-bound, alone (what a solve is
                // made of besides the decode), on the cached instance's
                // own problem as just retargeted.
                let s = tr.enter_probe("core.multilevel.cut");
                let cut = approx_cut(&chains, &objective, req.rate);
                tr.exit(s);
                if let Some(prep) = self.prepared.get(&key) {
                    let mut opts = req.config.ilp.clone();
                    opts.warm_solution = cut.map(|c| layers::y_values(prep.encoded(), &c.tiers));
                    let s = tr.enter_probe("ilp.bb");
                    let (_, stats) = solve_ilp_in(prep.problem(), &opts, &mut self.ws);
                    tr.exit(s);
                    tr.count(s, "nodes", stats.nodes as f64);
                }
            }
            tr.exit(op);

            if first_chunk {
                self.first_chunk_hits += hit as u64;
                if let Ok(p) = &result {
                    self.first_chunk.push(p.clone());
                }
            }
            self.check(idx, hit, &result, log);
            if Self::advance(&mut self.traced_cursor, self.requests.len())
                && self.mode == Mode::Misses
            {
                self.prepared = HashMap::new();
            }
        }
    }

    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics) {
        let us = |name: &str| median(&tr.per_op_ms(name)) * 1e3;
        m.insert("core.shape.key_us", us("core.shape.key"));
        m.insert("core.shape.deltas_us", us("core.shape.deltas"));
        m.insert("core.delta.apply_us", us("core.delta.apply"));
        m.insert(
            "core.shape.deltas_per_req",
            self.first_chunk_deltas as f64 / self.first_chunk_hits.max(1) as f64,
        );
        let solve = median(&tr.per_op_ms("core.solve"));
        let inner = median(&tr.per_op_ms("core.multilevel.cut")) + median(&tr.per_op_ms("ilp.bb"));
        m.insert("core.decode.ms", (solve - inner).max(0.0));

        let parts: Vec<&DeploymentPartition> = self.first_chunk.iter().collect();
        bb_counts(m, &parts, parts.len().max(1) as f64);

        // The real cache, one round: hit share, encodes, and what a hit
        // and a miss cost through `ShapeCache::serve` itself.
        let mut cache = ShapeCache::new();
        self.warm(&mut cache);
        let (mut hit_us, mut miss_us, mut errors) = (Vec::new(), Vec::new(), 0u64);
        for req in &self.requests {
            let t = Instant::now();
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            let (hit, result) = cache.serve(req, key, &mut self.ws, true);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            (if hit { &mut hit_us } else { &mut miss_us }).push(us);
            errors += result.is_err() as u64;
        }
        let served = self.requests.len() as f64;
        m.insert("fleet.encodes", cache.len() as f64);
        m.insert("fleet.errors", errors as f64);
        m.insert("fleet.hit_share", hit_us.len() as f64 / served);
        m.insert("fleet.serve_hit_us_p50", median(&hit_us));
        m.insert("fleet.serve_miss_us_p50", median(&miss_us));
        drop(cache);

        // The threaded server, one burst of the same round: 1 worker +
        // this submitting thread. Informational — see the module docs.
        let cpu_before = process_cpu_ns();
        let t = Instant::now();
        let mut server = FleetServer::new(1);
        for req in &self.requests {
            server.submit(req.clone());
        }
        let responses = server.drain();
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
        server.shutdown();
        let service_us: Vec<f64> = responses.iter().map(|r| r.latency_s * 1e6).collect();
        let mean_service_us = service_us.iter().sum::<f64>() / served;
        m.insert("fleet.server_burst_rps", served / wall_s);
        m.insert("fleet.server_service_us_p50", median(&service_us));
        m.insert(
            "fleet.transport_us_per_req",
            wall_s * 1e6 / served - mean_service_us,
        );
        m.insert("fleet.server_cpu_us_per_req", cpu_ns as f64 / 1e3 / served);
    }
}

/// On-CPU nanoseconds of every thread of this process, from
/// `/proc/self/task/*/schedstat` (0 where that is not readable).
fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
