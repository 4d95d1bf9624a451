//! The two service workloads: `fleet-hit` (the cache-hit path alone) and
//! `fleet-miss` (every request runs a DP).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ckpt_bench::testgen;
use ckpt_core::chain_dp::{optimal_chain_schedule, ResumableDp};
use ckpt_core::evaluate::segment_cost_table;
use ckpt_dag::properties;
use ckpt_failure::{Pcg64, RandomSource};
use ckpt_service::{
    PlanInstance, PlanRequest, PlanResponse, Planner, RateBucketing, ResponseSource,
};

use crate::harness::{quantile, ratio, Checked, Counters, Workload};
use crate::trace::Tracer;
use crate::Scale;

/// e14's fleet: 48 chain shapes with Zipf(1.1) popularity.
const SHAPES: usize = 48;
const HOT_SHAPES: usize = 4;
const ZIPF_EXPONENT: f64 = 1.1;
/// Telemetry rate centres; each request jitters its rate by ±5 %.
const RATE_CENTRES: [f64; 3] = [3e-5, 1e-4, 3e-4];
const RATE_JITTER: f64 = 0.05;
/// Requests per `fleet-hit` batch.
pub const HIT_BATCH: usize = 256;
/// Distinct request batches `fleet-hit` cycles through.
const HIT_POOL_BATCHES: usize = 64;
/// Requests per `fleet-miss` batch, and how many of them are suffix
/// re-plans of recently admitted orders.
pub const MISS_BATCH: usize = 64;
const MISS_REPLANS: usize = 16;
/// Recently admitted orders that re-plans pick from.
const REPLAN_WINDOW: usize = 256;
/// Orders admitted during `fleet-miss` set-up.
const MISS_SETUP_ORDERS: usize = 48;

/// A served plan: the value's bit pattern and the checkpoint positions.
type Plan = (u64, Arc<Vec<usize>>);

/// The planner's rate grid: 13 log-spaced buckets over [1e-6, 1e-3].
fn bucketing() -> RateBucketing {
    RateBucketing::log_grid(1e-6, 1e-3, 13).expect("valid grid")
}

/// A jittered rate around a random telemetry centre.
fn jittered_rate(rng: &mut Pcg64) -> f64 {
    let centre = RATE_CENTRES[rng.next_bounded(RATE_CENTRES.len() as u64) as usize];
    centre * rng.next_range(1.0 - RATE_JITTER, 1.0 + RATE_JITTER)
}

/// One chain workload: regenerable from `(seed, n)` at any rate.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    seed: u64,
    n: usize,
}

/// A chain's raw cost vectors in [`PlanInstance::new`]'s positional form.
pub struct ChainData {
    weights: Vec<f64>,
    checkpoints: Vec<f64>,
    recoveries: Vec<f64>,
}

impl Chain {
    /// The raw vectors, drawn exactly as
    /// [`testgen::heterogeneous_chain_instance`] draws them, so a cold
    /// solve of [`Chain::at`] is a reference for the served plan.
    fn data(self) -> ChainData {
        let mut rng = Pcg64::seed_from_u64(self.seed);
        let weights: Vec<f64> = (0..self.n).map(|_| 100.0 + rng.next_f64() * 3_900.0).collect();
        let checkpoints: Vec<f64> = (0..self.n).map(|_| 10.0 + rng.next_f64() * 290.0).collect();
        let task_recoveries: Vec<f64> =
            (0..self.n).map(|_| 10.0 + rng.next_f64() * 590.0).collect();
        // Position x is protected by the initial recovery (x = 0) or by the
        // recovery of the task before it.
        let mut recoveries = Vec::with_capacity(self.n);
        recoveries.push(20.0);
        recoveries.extend_from_slice(&task_recoveries[..self.n - 1]);
        ChainData { weights, checkpoints, recoveries }
    }

    /// The program's own view of the chain: a validated, fingerprinted
    /// instance (the sweep build).
    fn plan_instance(data: &ChainData) -> PlanInstance {
        PlanInstance::new(30.0, &data.weights, &data.checkpoints, &data.recoveries)
            .expect("generated chains are valid")
    }

    /// The chain as a problem instance at `lambda`, for cold references.
    fn at(self, lambda: f64) -> ckpt_core::ProblemInstance {
        testgen::heterogeneous_chain_instance(self.seed, self.n, lambda)
    }

    /// A cold reference for `response`: a one-shot solve for a full plan, a
    /// fresh table and a fresh suffix solve for a re-plan. Returns whether
    /// the response is bitwise equal to it.
    fn matches_cold(self, response: &PlanResponse) -> bool {
        let instance = self.at(response.effective_lambda);
        let (value, positions) = if response.resume_from == 0 {
            let solution = optimal_chain_schedule(&instance).expect("chain instance");
            (solution.expected_makespan, solution.checkpoint_positions)
        } else {
            let order = properties::as_chain(instance.graph()).expect("chain graph");
            let table = segment_cost_table(&instance, &order).expect("valid chain");
            let mut dp = ResumableDp::new();
            let value = dp.solve_suffix(&table, response.resume_from);
            (value, dp.suffix_positions(response.resume_from))
        };
        value.to_bits() == response.expected_makespan.to_bits()
            && *response.checkpoint_positions == positions
    }
}

/// e14's shape sizes: mid-sized hot pipelines, a tail from tiny to large.
fn fleet_shapes(seed: u64) -> Vec<Chain> {
    let root = Pcg64::seed_from_u64(seed);
    (0..SHAPES)
        .map(|rank| {
            let n = if rank < HOT_SHAPES { 192 + 32 * rank } else { 24 + (rank * 13) % 240 };
            Chain { seed: root.derive(rank as u64).next_u64(), n }
        })
        .collect()
}

/// The planner's counters when set-up ended, so that per-layer ratios
/// cover the timed calls only.
#[derive(Debug, Default)]
struct SetupCounters(Vec<(&'static str, u64)>);

impl SetupCounters {
    const NAMES: [&'static str; 4] = [
        "service_requests_total",
        "service_suffix_replans_total",
        "service_cache_hits_total",
        "service_work_items_total",
    ];

    fn read(planner: &Planner) -> Self {
        SetupCounters(Self::NAMES.iter().map(|&n| (n, planner.metrics().counter(n))).collect())
    }

    fn get(&self, name: &str) -> u64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }
}

/// The service-layer metrics every fleet workload reports, over the timed
/// calls (the phase-time histograms also hold the set-up batches).
fn service_layers(
    planner: &Planner,
    tracer: &Tracer,
    after_setup: &SetupCounters,
) -> Vec<(&'static str, f64)> {
    let metrics = planner.metrics();
    let since_setup = |name: &str| metrics.counter(name) - after_setup.get(name);
    let requests = since_setup("service_requests_total");
    let plan_requests = requests - since_setup("service_suffix_replans_total");
    let hits = since_setup("service_cache_hits_total");
    let work_items = since_setup("service_work_items_total");
    let histogram_p50 =
        |name: &str| metrics.histogram(name).and_then(|h| h.quantile(0.5)).unwrap_or(0.0);
    vec![
        ("service.batch_us", quantile(&tracer.durations("service.serve_batch"), 0.5) * 1e6),
        ("service.admission_us", histogram_p50("service_admission_us")),
        ("service.solve_us", histogram_p50("service_solve_us")),
        ("service.commit_us", histogram_p50("service_commit_us")),
        ("service.hit_ratio", ratio(hits as f64, plan_requests as f64)),
        ("service.work_items_per_request", ratio(work_items as f64, requests as f64)),
        ("service.cached_plans", planner.cached_plans() as f64),
    ]
}

/// `fleet-hit`: Zipf traffic over the 48 shapes after a warm-up pass, so
/// every timed request is a cache hit and no DP runs.
pub struct FleetHit {
    shapes: Vec<Chain>,
    data: Vec<ChainData>,
    /// `(shape rank, rate)` of every pooled request, batch by batch.
    traffic: Vec<Vec<(usize, f64)>>,
    instances: Vec<PlanInstance>,
    planner: Planner,
    warmup: Vec<(usize, PlanResponse)>,
    pool: Vec<Vec<PlanRequest>>,
    /// The set-up plan each pooled request must be answered with.
    expected: Vec<Vec<Option<Plan>>>,
    after_setup: SetupCounters,
}

impl FleetHit {
    /// The fleet and its traffic, generated from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let pool_batches = if scale == Scale::Tiny { 2 } else { HIT_POOL_BATCHES };
        let shapes = fleet_shapes(seed);
        let data = shapes.iter().map(|shape| shape.data()).collect();
        let requests = pool_batches * HIT_BATCH;
        let ranks = testgen::zipf_ranks(seed ^ 0xF1EE, SHAPES, ZIPF_EXPONENT, requests);
        let mut rng = Pcg64::seed_from_u64(seed ^ 0x4A17);
        let traffic = ranks
            .chunks(HIT_BATCH)
            .map(|batch| batch.iter().map(|&rank| (rank, jittered_rate(&mut rng))).collect())
            .collect();
        FleetHit {
            shapes,
            data,
            traffic,
            instances: Vec::new(),
            planner: Planner::new(bucketing()),
            warmup: Vec::new(),
            pool: Vec::new(),
            expected: Vec::new(),
            after_setup: SetupCounters::default(),
        }
    }
}

impl Workload for FleetHit {
    type Input = usize;
    type Output = Vec<PlanResponse>;

    fn retire(&mut self) {
        self.planner = Planner::new(bucketing());
        self.pool.clear();
    }

    fn setup(&mut self) {
        self.instances = self.data.iter().map(Chain::plan_instance).collect();
        self.planner = Planner::new(bucketing()).with_threads(1);
        // Warm-up pass: every shape at every rate centre, so every jittered
        // rate lands in a warmed bucket.
        let warmup: Vec<(usize, PlanRequest)> = (0..SHAPES)
            .flat_map(|rank| RATE_CENTRES.iter().map(move |&rate| (rank, rate)))
            .enumerate()
            .map(|(id, (rank, rate))| {
                let request = PlanRequest::plan(id as u64, self.instances[rank].clone(), rate)
                    .expect("valid request");
                (rank, request)
            })
            .collect();
        self.warmup.clear();
        for chunk in warmup.chunks(HIT_BATCH) {
            let requests: Vec<PlanRequest> = chunk.iter().map(|(_, r)| r.clone()).collect();
            let responses = self.planner.serve_batch(&requests);
            self.warmup.extend(chunk.iter().map(|(rank, _)| *rank).zip(responses));
        }
    }

    fn check_setup(&mut self) -> u64 {
        let mut failed = 0;
        let mut plans: HashMap<(usize, u64), Plan> = HashMap::new();
        let grid = bucketing();
        for (rank, response) in &self.warmup {
            if !self.shapes[*rank].matches_cold(response) {
                failed += 1;
            }
            let (bucket, _) = grid.bucket(response.lambda);
            plans.insert(
                (*rank, bucket),
                (response.expected_makespan.to_bits(), Arc::clone(&response.checkpoint_positions)),
            );
        }
        // The request pool is input; it is built from the set-up instances.
        let mut next_id = 0u64;
        self.pool.clear();
        self.expected.clear();
        for batch in &self.traffic {
            let mut requests = Vec::with_capacity(batch.len());
            let mut expected = Vec::with_capacity(batch.len());
            for &(rank, rate) in batch {
                requests.push(
                    PlanRequest::plan(next_id, self.instances[rank].clone(), rate)
                        .expect("valid request"),
                );
                next_id += 1;
                expected.push(plans.get(&(rank, grid.bucket(rate).0)).cloned());
            }
            self.pool.push(requests);
            self.expected.push(expected);
        }
        self.after_setup = SetupCounters::read(&self.planner);
        failed
    }

    fn input(&mut self, index: usize) -> usize {
        index % self.pool.len()
    }

    fn call(&mut self, input: &usize, tracer: &mut Tracer) -> Vec<PlanResponse> {
        let (planner, batch) = (&mut self.planner, &self.pool[*input]);
        tracer.span("service.serve_batch", |_| planner.serve_batch(batch))
    }

    fn check(&mut self, input: usize, output: Vec<PlanResponse>) -> Checked {
        let failed = output
            .iter()
            .zip(&self.expected[input])
            .filter(|(response, expected)| {
                let Some((bits, positions)) = expected else { return true };
                response.source != ResponseSource::CacheHit
                    || response.expected_makespan.to_bits() != *bits
                    || response.checkpoint_positions != *positions
            })
            .count() as u64;
        let missing = self.pool[input].len().saturating_sub(output.len()) as u64;
        Checked { ops: self.pool[input].len() as u64, failed: failed + missing }
    }

    fn layers(&mut self, tracer: &Tracer, _counters: &Counters) -> Vec<(&'static str, f64)> {
        service_layers(&self.planner, tracer, &self.after_setup)
    }
}

/// One `fleet-miss` request slot.
pub enum MissSlot {
    /// A plan request for a never-seen order, built from raw vectors inside
    /// the call.
    New { chain: Chain, data: ChainData, rate: f64 },
    /// A suffix re-plan of a recently admitted order.
    Replan { chain: Chain, instance: PlanInstance, from: usize, rate: f64 },
}

/// `fleet-miss`: batches of never-seen orders (sizes 64–757) and suffix
/// re-plans of recent ones, so every request runs a DP.
pub struct FleetMiss {
    rng: Pcg64,
    root: Pcg64,
    next_order: u64,
    sizes: Vec<usize>,
    size_cursor: usize,
    setup_orders: Vec<(Chain, ChainData)>,
    planner: Planner,
    setup_responses: Vec<PlanResponse>,
    window: VecDeque<(Chain, PlanInstance)>,
    next_id: u64,
    after_setup: SetupCounters,
}

/// The order sizes: a stratified grid over [64, 757], visited in a seeded
/// order, so every run plans the same mix of sizes.
fn size_grid() -> Vec<usize> {
    (0..64).map(|k| 64 + 11 * k).collect()
}

impl FleetMiss {
    /// The order stream, generated from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let max_n = if scale == Scale::Tiny { 48 } else { usize::MAX };
        let root = Pcg64::seed_from_u64(seed ^ 0x3155);
        let sizes: Vec<usize> = size_grid().into_iter().map(|n| n.min(max_n)).collect();
        let mut miss = FleetMiss {
            rng: Pcg64::seed_from_u64(seed ^ 0x5EED_3155),
            root,
            next_order: 0,
            sizes,
            size_cursor: 0,
            setup_orders: Vec::new(),
            planner: Planner::new(bucketing()),
            setup_responses: Vec::new(),
            window: VecDeque::new(),
            next_id: 0,
            after_setup: SetupCounters::default(),
        };
        miss.setup_orders = (0..MISS_SETUP_ORDERS)
            .map(|_| {
                let chain = miss.next_chain();
                (chain, chain.data())
            })
            .collect();
        miss
    }

    /// The next never-seen order: a fresh seed and the next grid size (the
    /// grid is reshuffled every time it is used up).
    fn next_chain(&mut self) -> Chain {
        if self.size_cursor == 0 {
            for i in (1..self.sizes.len()).rev() {
                let j = self.rng.next_bounded(i as u64 + 1) as usize;
                self.sizes.swap(i, j);
            }
        }
        let n = self.sizes[self.size_cursor];
        self.size_cursor = (self.size_cursor + 1) % self.sizes.len();
        let seed = self.root.derive(self.next_order).next_u64();
        self.next_order += 1;
        Chain { seed, n }
    }

    fn remember(&mut self, chain: Chain, instance: PlanInstance) {
        if self.window.len() == REPLAN_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back((chain, instance));
    }
}

impl Workload for FleetMiss {
    type Input = Vec<MissSlot>;
    type Output = (Vec<PlanResponse>, Vec<PlanInstance>);

    fn retire(&mut self) {
        self.planner = Planner::new(bucketing());
        self.window.clear();
    }

    fn setup(&mut self) {
        self.planner = Planner::new(bucketing()).with_threads(1);
        let requests: Vec<PlanRequest> = self
            .setup_orders
            .iter()
            .enumerate()
            .map(|(id, (_, data))| {
                PlanRequest::plan(id as u64, Chain::plan_instance(data), RATE_CENTRES[id % 3])
                    .expect("valid request")
            })
            .collect();
        self.setup_responses = self.planner.serve_batch(&requests);
        self.window.clear();
        for ((chain, _), request) in self.setup_orders.iter().zip(&requests) {
            self.window.push_back((*chain, request.instance().clone()));
        }
        self.next_id = requests.len() as u64;
    }

    fn check_setup(&mut self) -> u64 {
        self.after_setup = SetupCounters::read(&self.planner);
        self.setup_orders
            .iter()
            .zip(&self.setup_responses)
            .filter(|((chain, _), response)| {
                response.source != ResponseSource::ColdSolve || !chain.matches_cold(response)
            })
            .count() as u64
    }

    fn input(&mut self, _index: usize) -> Vec<MissSlot> {
        // Which slots of the batch are re-plans: a seeded partial shuffle.
        let mut is_replan = vec![false; MISS_BATCH];
        is_replan[..MISS_REPLANS].fill(true);
        for i in (1..MISS_BATCH).rev() {
            let j = self.rng.next_bounded(i as u64 + 1) as usize;
            is_replan.swap(i, j);
        }
        is_replan
            .into_iter()
            .map(|replan| {
                let rate = jittered_rate(&mut self.rng);
                if replan {
                    let pick = self.rng.next_bounded(self.window.len() as u64) as usize;
                    let (chain, instance) = self.window[pick].clone();
                    let from = 1 + self.rng.next_bounded(chain.n as u64 - 1) as usize;
                    MissSlot::Replan { chain, instance, from, rate }
                } else {
                    let chain = self.next_chain();
                    MissSlot::New { chain, data: chain.data(), rate }
                }
            })
            .collect()
    }

    fn call(&mut self, input: &Vec<MissSlot>, tracer: &mut Tracer) -> Self::Output {
        let mut admitted = Vec::new();
        let mut requests = Vec::with_capacity(input.len());
        for slot in input {
            let id = self.next_id;
            self.next_id += 1;
            let request = match slot {
                MissSlot::New { data, rate, .. } => {
                    let instance =
                        tracer.span("expectation.plan_instance", |_| Chain::plan_instance(data));
                    admitted.push(instance.clone());
                    PlanRequest::plan(id, instance, *rate)
                }
                MissSlot::Replan { instance, from, rate, .. } => {
                    PlanRequest::replan(id, instance.clone(), *rate, *from)
                }
            };
            requests.push(request.expect("valid request"));
        }
        let planner = &mut self.planner;
        let responses = tracer.span("service.serve_batch", |_| planner.serve_batch(&requests));
        (responses, admitted)
    }

    fn check(&mut self, input: Vec<MissSlot>, output: Self::Output) -> Checked {
        let (responses, admitted) = output;
        let mut admitted = admitted.into_iter();
        let mut failed = input.len().saturating_sub(responses.len()) as u64;
        for (slot, response) in input.into_iter().zip(&responses) {
            let (chain, source) = match slot {
                MissSlot::New { chain, .. } => {
                    let instance = admitted.next().expect("one instance per new order");
                    self.remember(chain, instance);
                    (chain, ResponseSource::ColdSolve)
                }
                MissSlot::Replan { chain, .. } => (chain, ResponseSource::SuffixReplan),
            };
            if response.source != source || !chain.matches_cold(response) {
                failed += 1;
            }
        }
        Checked { ops: MISS_BATCH as u64, failed }
    }

    fn layers(&mut self, tracer: &Tracer, _counters: &Counters) -> Vec<(&'static str, f64)> {
        let mut layers = service_layers(&self.planner, tracer, &self.after_setup);
        layers.push((
            "expectation.instance_us",
            quantile(&tracer.durations("expectation.plan_instance"), 0.5) * 1e6,
        ));
        layers
    }
}
