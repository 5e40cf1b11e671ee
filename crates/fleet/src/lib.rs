//! # wishbone-fleet
//!
//! A sharded, cache-deduplicated fleet partitioning service: the
//! ROADMAP's "partitioning as a fleet-scale service" built over the
//! solver stack — PR 2's warm-started prepared instances, PR 7's
//! in-place delta rescales, PR 8's seeded incumbents — with the
//! structure the paper itself predicts (§7, and Wiselib in PAPERS.md):
//! a fleet runs a *small set of program shapes* at many different
//! counts, budgets, and rates.
//!
//! ## Architecture
//!
//! [`FleetServer`] owns N plain `std::thread` workers (no async
//! runtime; the vendored-deps constraint forbids tokio) connected by
//! `std::sync::mpsc` channels. The queue is **sharded, not
//! work-stealing**: every request's [`ShapeKey`] hashes to one worker,
//! so all requests of one shape land on the same worker's
//! [`ShapeCache`] — cache hits are maximized, no cache state is ever
//! shared or locked across threads, and each worker keeps exactly one
//! long-lived [`SimplexWorkspace`] arena that every cached instance
//! solves in ([`PreparedDeployment::solve_at_in`]) — on the sparse
//! revised simplex however small the encoding (a fleet shape is a few
//! dozen rows); the reference tableau runs only for a request whose
//! `cfg.ilp.backend` names it, and solves every LP cold.
//!
//! ## Cache semantics
//!
//! A [`ShapeCache`] maps [`ShapeKey`]s (the graph's and the profile's
//! content fingerprints + platform cost models + link kinds + solver
//! knobs — everything the encoding bakes in, *excluding* leaf counts,
//! finite budget values, and rates) to prepared instances, and an entry
//! is the prepared instance alone. The key names what an app is, not
//! where it lives, so two tenants that load one app into two allocations
//! share an entry, and no entry keeps a request's inputs alive. A hit
//! morphs the cached encoding to the request's counts and budgets with
//! [`deltas_between`]-derived [`apply_delta`] row surgery instead of
//! re-encoding — `encodes()` stays at one per shape, not one per
//! request.
//!
//! A miss encodes, but it prices and merges only what no earlier miss
//! has: the cache also owns one [`LeafGraphs`] memo, keyed like a shape
//! by content, from each leaf's program, platform chain, rate factor and
//! charging tiers to its priced, merged chain graph
//! ([`PreparedDeployment::new_in`]). Requests that differ only in what
//! the §4.1 merge does not read — uplink weights and budgets, CPU weight
//! and budget values, counts, robustness, solver options — are distinct
//! shapes that share their leaf graphs, so such a miss only encodes,
//! solves and inserts. The memo, like the entries, holds content and no
//! request's inputs, and neither map is bounded yet.
//!
//! Determinism: every response is **bit-identical** to a serial one-shot
//! [`partition_deployment`](wishbone_core::partition_deployment) call,
//! and there is no mode in which it is not (pinned by
//! `tests/fleet_parity.rs`). The worker resets a cached instance's
//! warm-start state before each solve, so a hit cannot leak one
//! request's tie-breaking into another's placement, and the shared arena
//! carries no simplex basis from one request to the next:
//! [`solve_at_in`](PreparedDeployment::solve_at_in) invalidates it on
//! entry, so every root LP starts cold.
//!
//! A hit's cost is that cold solve and little else. The delta rewrites the
//! cached encoding's rows in their own storage; the cold root LP factors
//! its slack basis directly; the arena lends the search its node bound
//! vectors; and no fleet search asks for the multilevel seed, which a
//! search does only once it is stuck (three node LPs with no incumbent),
//! so no cached instance ever builds its coarsening (pinned by
//! `tests/fleet_parity.rs`'s
//! `no_fleet_search_is_stuck_so_none_asks_for_the_seed`).
//!
//! ## Worker sizing
//!
//! Shapes are the parallelism unit: with S distinct shapes, more than S
//! workers idle (a shape never spans two workers), and the speedup cap
//! is `min(workers, S, cores)`. Size the pool to physical cores when
//! shapes are plentiful, to the shape count when they are few.
//!
//! [`apply_delta`]: PreparedDeployment::apply_delta

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use wishbone_core::topology::{
    Deployment, DeploymentConfig, DeploymentPartition, LeafGraphs, PreparedDeployment,
};
use wishbone_core::{deltas_between, shape_key, PartitionError, ShapeKey};
use wishbone_dataflow::Graph;
use wishbone_ilp::SimplexWorkspace;
use wishbone_profile::GraphProfile;

/// One deployment request: which profiled graph, over which topology,
/// under which config, at which rate. Graph and profile ride `Arc`s so
/// that many requests share one app cheaply; the cache keys them by
/// content (see [`shape_key`]) and keeps neither once the request is
/// answered.
#[derive(Clone)]
pub struct FleetRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The profiled operator graph.
    pub graph: Arc<Graph>,
    /// The profile the partition is priced on.
    pub profile: Arc<GraphProfile>,
    /// The deployment topology to partition.
    pub deployment: Deployment,
    /// Solver configuration (`rate_multiplier` is ignored; use `rate`).
    pub config: DeploymentConfig,
    /// Input-rate multiplier for this solve, composed with each leaf's
    /// `rate_factor`.
    pub rate: f64,
}

/// One answered request.
#[derive(Debug)]
pub struct FleetResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Which worker answered (== the shape's shard).
    pub worker: usize,
    /// Whether a cached prepared instance served the request.
    pub cache_hit: bool,
    /// Wall-clock latency of the request inside its worker, seconds
    /// (queueing excluded).
    pub latency_s: f64,
    /// The placement, or why there is none.
    pub result: Result<DeploymentPartition, PartitionError>,
}

/// Aggregated service statistics, assembled at
/// [`FleetServer::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Requests answered.
    pub requests: u64,
    /// Requests served by a cached prepared instance.
    pub cache_hits: u64,
    /// Requests that had to prepare: encode, plus price and merge for
    /// each leaf whose key the worker's [`LeafGraphs`] did not hold.
    pub cache_misses: u64,
    /// Distinct shapes seen, summed over workers (shapes never span
    /// workers, so this is a true fleet-wide count).
    pub distinct_shapes: u64,
    /// Requests that returned an error (infeasible, unproven, solver).
    pub errors: u64,
    /// Solve count per worker, index = worker id — the shard balance
    /// view.
    pub per_worker_solves: Vec<u64>,
}

impl FleetStats {
    /// The totals of one answered request: hit or miss, and whether it
    /// failed.
    fn of_request(
        cache_hit: bool,
        result: &Result<DeploymentPartition, PartitionError>,
    ) -> FleetStats {
        let hit = u64::from(cache_hit);
        FleetStats {
            requests: 1,
            cache_hits: hit,
            cache_misses: 1 - hit,
            errors: u64::from(result.is_err()),
            ..FleetStats::default()
        }
    }

    /// Sum `other`'s counters into `self` — a request into its worker's
    /// totals, a worker's into the fleet's. The per-worker view is the
    /// server's to fill.
    fn absorb(&mut self, other: &FleetStats) {
        self.requests += other.requests;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.distinct_shapes += other.distinct_shapes;
        self.errors += other.errors;
    }
}

/// One worker's shape-keyed cache of prepared instances.
///
/// Owned by exactly one worker thread — sharding by shape means no
/// entry is ever contended, so there are no locks anywhere in the
/// service. An entry is its prepared instance and nothing else: the key
/// holds content, not addresses, so dropping an entry is a plain map
/// removal. Beside the entries the cache keeps the merged leaf graphs its
/// misses prepared from (see the crate docs), shared by the entries that
/// use them.
#[derive(Default)]
pub struct ShapeCache {
    entries: HashMap<ShapeKey, PreparedDeployment<'static>>,
    /// The merged leaf graphs every miss prepares from.
    leaves: LeafGraphs,
}

impl ShapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct shapes currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The priced, merged leaf graphs the cache's misses have prepared
    /// from, shared by content across its entries.
    pub fn leaf_graphs(&self) -> &LeafGraphs {
        &self.leaves
    }

    /// Serve one request out of the cache, preparing on miss. Returns
    /// `(hit, solve result)`; a request whose counts, budgets, rate
    /// factors or weights
    /// [`Deployment::check_sites`](wishbone_core::Deployment::check_sites)
    /// refuses is answered with that error before the lookup, as a miss.
    ///
    /// On a hit the cached encoding is morphed to the request's counts
    /// and budgets via [`deltas_between`] + `apply_delta` — index-stable
    /// row surgery, no re-encode. On a miss the request is prepared with
    /// [`PreparedDeployment::new_in`] over the cache's leaf graphs, then
    /// solved and inserted. `deterministic` resets warm-start
    /// state first so the solve is bit-identical to a serial one-shot
    /// (see the crate docs). The service always passes `true`; the
    /// parameter stays because `benchmark/` calls `serve` with it.
    pub fn serve(
        &mut self,
        req: &FleetRequest,
        key: ShapeKey,
        ws: &mut SimplexWorkspace,
        deterministic: bool,
    ) -> (bool, Result<DeploymentPartition, PartitionError>) {
        // A NaN budget keys like `+∞` (`shape_key` reads finiteness), and
        // leaf counts are not shape: on a hit either would otherwise
        // become a delta.
        if let Err(e) = req.deployment.check_sites() {
            return (false, Err(e));
        }
        if let Some(prep) = self.entries.get_mut(&key) {
            let deltas = deltas_between(prep.deployment(), &req.deployment);
            if !deltas.is_empty() {
                prep.apply_delta(&deltas);
            }
            if deterministic {
                prep.reset_warm_start();
            }
            return (true, prep.solve_at_in(req.rate, ws));
        }
        let prepared = PreparedDeployment::new_in(
            &req.graph,
            &req.profile,
            &req.deployment,
            &req.config,
            &mut self.leaves,
        );
        match prepared {
            Ok(mut prep) => {
                let result = prep.solve_at_in(req.rate, ws);
                self.entries.insert(key, prep);
                (false, result)
            }
            Err(e) => (false, Err(e)),
        }
    }
}

/// One worker thread: serve its shard's requests until the server hangs
/// up, then report this worker's totals. Each response carries its own
/// latency.
fn worker_loop(
    worker: usize,
    rx: mpsc::Receiver<(ShapeKey, FleetRequest)>,
    tx: mpsc::Sender<FleetResponse>,
) -> FleetStats {
    let mut cache = ShapeCache::new();
    let mut arena = SimplexWorkspace::new();
    let mut report = FleetStats::default();
    while let Ok((key, req)) = rx.recv() {
        let t = Instant::now();
        let (cache_hit, result) = cache.serve(&req, key, &mut arena, true);
        report.absorb(&FleetStats::of_request(cache_hit, &result));
        let resp = FleetResponse {
            id: req.id,
            worker,
            cache_hit,
            latency_s: t.elapsed().as_secs_f64(),
            result,
        };
        if tx.send(resp).is_err() {
            break; // server dropped its receiver: shutting down
        }
    }
    report.distinct_shapes = cache.len() as u64;
    report
}

/// The fleet partitioning service: a sharded pool of worker threads,
/// each owning one [`ShapeCache`] and one [`SimplexWorkspace`] arena.
///
/// ```
/// # use std::sync::Arc;
/// # use wishbone_apps::build_speech_app;
/// # use wishbone_core::topology::{Deployment, DeploymentConfig, Site};
/// # use wishbone_core::LinkSpec;
/// # use wishbone_fleet::{FleetRequest, FleetServer};
/// # use wishbone_profile::{profile, Platform, SourceTrace};
/// let app = build_speech_app();
/// let trace = app.trace(10, 1);
/// let prof = profile(&app.graph, &[trace]).unwrap();
/// let (graph, profile) = (Arc::new(app.graph), Arc::new(prof));
///
/// // One shape at three different device counts: one encode, two
/// // in-place rescales.
/// let deploy_at = |count: usize| {
///     let mut dep = Deployment::new(Site::server("srv", &Platform::server()));
///     let root = dep.root();
///     dep.attach(
///         root,
///         Site::new("motes", &Platform::tmote_sky())
///             .with_cpu_budget(1.0)
///             .with_count(count),
///         LinkSpec { beta: 1.0, net_budget: f64::INFINITY },
///     );
///     dep
/// };
///
/// let mut server = FleetServer::new(2);
/// for (i, count) in [4usize, 8, 16].iter().enumerate() {
///     server.submit(FleetRequest {
///         id: i as u64,
///         graph: Arc::clone(&graph),
///         profile: Arc::clone(&profile),
///         deployment: deploy_at(*count),
///         config: DeploymentConfig::default(),
///         rate: 0.5,
///     });
/// }
/// let responses = server.drain();
/// let stats = server.shutdown();
/// assert_eq!(responses.len(), 3);
/// assert_eq!(stats.cache_misses, 1, "one shape, one encode");
/// assert_eq!(stats.cache_hits, 2);
/// ```
pub struct FleetServer {
    txs: Vec<mpsc::Sender<(ShapeKey, FleetRequest)>>,
    rx: mpsc::Receiver<FleetResponse>,
    handles: Vec<JoinHandle<FleetStats>>,
    outstanding: u64,
}

impl FleetServer {
    /// Spawn a server with `workers` threads (≥ 1; see the crate docs
    /// on worker sizing).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a fleet needs at least one worker");
        let (resp_tx, resp_rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::channel();
            let resp_tx = resp_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(worker, rx, resp_tx)));
            txs.push(tx);
        }
        FleetServer {
            txs,
            rx: resp_rx,
            handles,
            outstanding: 0,
        }
    }

    /// Which worker a shape is sharded to.
    fn shard(&self, key: &ShapeKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.txs.len() as u64) as usize
    }

    /// Enqueue one request on its shape's shard. Responses arrive via
    /// [`recv`](Self::recv) / [`drain`](Self::drain), unordered across
    /// shards.
    pub fn submit(&mut self, req: FleetRequest) {
        let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
        let shard = self.shard(&key);
        self.outstanding += 1;
        self.txs[shard]
            .send((key, req))
            .expect("fleet worker hung up with requests outstanding");
    }

    /// Block for the next response; `None` when nothing is outstanding.
    pub fn recv(&mut self) -> Option<FleetResponse> {
        if self.outstanding == 0 {
            return None;
        }
        let resp = self
            .rx
            .recv()
            .expect("fleet workers hung up with requests outstanding");
        self.outstanding -= 1;
        Some(resp)
    }

    /// Collect every outstanding response (blocking), unordered.
    pub fn drain(&mut self) -> Vec<FleetResponse> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while let Some(resp) = self.recv() {
            out.push(resp);
        }
        out
    }

    /// Shut the pool down: close the request channels, join every
    /// worker, and aggregate [`FleetStats`]. Call after
    /// [`drain`](Self::drain); any still-outstanding responses are
    /// discarded.
    pub fn shutdown(self) -> FleetStats {
        drop(self.txs); // workers' recv() errors out: clean exit
        let mut stats = FleetStats::default();
        for handle in self.handles {
            let worker = handle
                .join()
                .expect("fleet worker panicked; its shard's requests are lost");
            stats.per_worker_solves.push(worker.requests);
            stats.absorb(&worker);
        }
        stats
    }
}

/// Convenience: spawn a server of `workers` threads, run one batch
/// through it, and shut it down. Responses come back **sorted by request
/// id**, so callers compare against serial baselines without tracking
/// arrival order.
pub fn run_batch(workers: usize, requests: Vec<FleetRequest>) -> (Vec<FleetResponse>, FleetStats) {
    let mut server = FleetServer::new(workers);
    for req in requests {
        server.submit(req);
    }
    let mut responses = server.drain();
    responses.sort_by_key(|r| r.id);
    let stats = server.shutdown();
    (responses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_apps::build_speech_app;
    use wishbone_core::topology::Site;
    use wishbone_core::LinkSpec;
    use wishbone_profile::{profile, Platform};

    /// The speech app, built and profiled afresh: a new allocation of
    /// one app every call.
    fn speech() -> (Arc<Graph>, Arc<GraphProfile>) {
        let app = build_speech_app();
        let trace = app.trace(10, 1);
        let prof = profile(&app.graph, &[trace]).unwrap();
        (Arc::new(app.graph), Arc::new(prof))
    }

    fn request(app: &(Arc<Graph>, Arc<GraphProfile>), count: usize) -> FleetRequest {
        let mote = Platform::tmote_sky();
        FleetRequest {
            id: count as u64,
            graph: Arc::clone(&app.0),
            profile: Arc::clone(&app.1),
            deployment: Deployment::star([(
                Site::new("motes", &mote).with_count(count),
                LinkSpec::for_platform(&mote),
            )]),
            config: DeploymentConfig::default(),
            rate: 0.1,
        }
    }

    /// A [`ShapeKey`] names graph and profile by content: a second build
    /// of one app hits the first build's entry, which keeps nothing of
    /// the first build and answers bit for bit like a serial solve.
    #[test]
    fn two_allocations_of_one_app_share_one_entry() {
        let (first, second) = (speech(), speech());
        assert!(!Arc::ptr_eq(&first.0, &second.0));
        let mut cache = ShapeCache::new();
        let mut ws = SimplexWorkspace::new();
        let req = request(&first, 2);
        let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
        let (hit, result) = cache.serve(&req, key, &mut ws, true);
        assert!(!hit && result.is_ok());
        drop((req, first));

        let req = request(&second, 5);
        let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
        let (hit, fleet) = cache.serve(&req, key, &mut ws, true);
        assert!(hit, "a second allocation of one app is the same shape");
        assert_eq!(cache.len(), 1);
        let fleet = fleet.expect("the star fits");
        let serial = wishbone_core::partition_deployment(
            &req.graph,
            &req.profile,
            &req.deployment,
            &req.config.clone().at_rate(req.rate),
        )
        .expect("the star fits");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(fleet.objective.to_bits(), serial.objective.to_bits());
        assert_eq!(bits(&fleet.site_cpu), bits(&serial.site_cpu));
        assert_eq!(bits(&fleet.link_net), bits(&serial.link_net));
        for (a, b) in fleet.leaves.iter().zip(&serial.leaves) {
            assert_eq!(a.site_ops, b.site_ops);
            assert_eq!(a.link_cut_edges, b.link_cut_edges);
            assert_eq!(bits(&a.predicted_cpu), bits(&b.predicted_cpu));
            assert_eq!(bits(&a.predicted_net), bits(&b.predicted_net));
        }
        // This test's handles are the only ones left: the entry holds none.
        assert_eq!(Arc::strong_count(&second.0), 2);
        drop(req);
        assert_eq!(Arc::strong_count(&second.0), 1);
    }
}
