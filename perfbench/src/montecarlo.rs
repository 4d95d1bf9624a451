//! `montecarlo`: the execution engines and their aggregation — the fixed
//! engine, the policy engine with a static and an adaptive policy, and the
//! cluster engine — with no DP on the static paths.

use std::sync::Arc;
use std::time::Instant;

use ckpt_adaptive::{optimal_static_plan, AdaptiveResolve, ChainSpec, StaticPlan};
use ckpt_cluster::{
    run_cluster_monte_carlo, BaselinePolicy, ClusterConfig, ClusterMonteCarloOutcome,
    ClusterPolicy, ClusterRepair, ClusterScenario,
};
use ckpt_failure::{Exponential, FailureDistribution, Pcg64, RandomSource, ShockConfig};
use ckpt_simulator::{MonteCarloOutcome, PolicyMonteCarloOutcome, Segment, SimulationScenario};

use crate::harness::{close, ratio, Checked, Counters, Workload};
use crate::trace::Tracer;
use crate::Scale;

/// b7's planning rate and the 10× wrong true rate the chain runs under.
const PLANNING_RATE: f64 = 1.0 / 40_000.0;
const TRUE_RATE: f64 = 10.0 / 40_000.0;
/// b7's chain length.
const CHAIN_TASKS: usize = 40;
/// b9's shock scenario on four machines.
const MACHINES: usize = 4;
const CLUSTER_JOBS: usize = 8;
const MTBF: f64 = 4_000.0;
/// The fixed-engine mean must lie within this many standard errors of the
/// Proposition 1 expectation.
const MEAN_SIGMAS: f64 = 4.0;
/// Calls rerun at one and at two workers in the traced run.
const SCALING_CALLS: usize = 8;

/// Trials per call of each engine.
#[derive(Debug, Clone, Copy)]
struct Trials {
    fixed: usize,
    policy_static: usize,
    adaptive: usize,
    cluster: usize,
}

impl Trials {
    /// Each engine takes about a quarter of a call.
    const STANDARD: Trials =
        Trials { fixed: 24_000, policy_static: 10_000, adaptive: 360, cluster: 1_200 };

    /// Enough for the benchmark's own tests.
    const TINY: Trials = Trials { fixed: 400, policy_static: 200, adaptive: 20, cluster: 20 };

    fn total(&self) -> u64 {
        (self.fixed + self.policy_static + self.adaptive + self.cluster) as u64
    }
}

/// One call's outcomes.
pub struct Outcomes {
    fixed: MonteCarloOutcome,
    policy_static: Option<PolicyMonteCarloOutcome>,
    adaptive: Option<PolicyMonteCarloOutcome>,
    cluster: Option<ClusterMonteCarloOutcome>,
}

/// `montecarlo`: one bundle of the four engines per call, on b7's 40-task
/// chain and b9's four-machine shock scenario.
pub struct MonteCarlo {
    trials: Trials,
    root: Pcg64,
    chain: [Vec<f64>; 3],
    jobs: Vec<Vec<f64>>,
    spec: Option<ChainSpec>,
    segments: Vec<Segment>,
    static_policy: Option<StaticPlan>,
    adaptive: Option<AdaptiveResolve>,
    cluster: Option<ClusterScenario>,
    /// Proposition 1 expectation of the static plan at the true rate.
    expectation: f64,
    /// Pooled fixed-engine makespans: count, sum, sum of squares.
    pooled: (f64, f64, f64),
    failures: f64,
    /// Trials whose two-worker rerun differed from the one-worker run.
    rerun_failed: u64,
}

/// The work, checkpoint and recovery vectors of b7's chain and the work
/// vectors of b9's job mix, drawn from `seed`.
fn generate(seed: u64) -> ([Vec<f64>; 3], Vec<Vec<f64>>) {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0xB7);
    let weights = (0..CHAIN_TASKS).map(|_| 200.0 + rng.next_f64() * 600.0).collect();
    let ckpt = (0..CHAIN_TASKS).map(|_| 20.0 + rng.next_f64() * 40.0).collect();
    let rec = (0..CHAIN_TASKS).map(|_| 30.0 + rng.next_f64() * 60.0).collect();
    let mut rng = Pcg64::seed_from_u64(seed ^ 0xB9);
    let jobs = (0..CLUSTER_JOBS)
        .map(|_| {
            let tasks = 6 + (rng.next_u64() % 5) as usize;
            (0..tasks).map(|_| 100.0 + rng.next_f64() * 100.0).collect()
        })
        .collect();
    ([weights, ckpt, rec], jobs)
}

impl MonteCarlo {
    /// The chain and job mix, generated from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let trials = if scale == Scale::Tiny { Trials::TINY } else { Trials::STANDARD };
        let (chain, jobs) = generate(seed);
        MonteCarlo {
            trials,
            root: Pcg64::seed_from_u64(seed ^ 0x3C),
            chain,
            jobs,
            spec: None,
            segments: Vec::new(),
            static_policy: None,
            adaptive: None,
            cluster: None,
            expectation: 0.0,
            pooled: (0.0, 0.0, 0.0),
            failures: 0.0,
            rerun_failed: 0,
        }
    }

    fn spec(&self) -> &ChainSpec {
        self.spec.as_ref().expect("set up before the first call")
    }

    /// Runs the bundle at `seed` on `workers` threads.
    fn bundle(&self, seed: u64, workers: usize, tracer: &mut Tracer) -> Outcomes {
        let spec = self.spec();
        let scenario = |trials| {
            SimulationScenario::exponential(TRUE_RATE)
                .with_downtime(spec.downtime())
                .with_trials(trials)
                .with_seed(seed)
                .with_threads(workers)
        };
        let fixed =
            tracer.span("simulator.run", |_| scenario(self.trials.fixed).run(&self.segments));
        let static_policy = self.static_policy.as_ref().expect("set up");
        let policy_static = tracer
            .span("simulator.run_policy", |_| {
                scenario(self.trials.policy_static).run_policy(
                    spec.tasks(),
                    spec.initial_recovery(),
                    |_| static_policy.clone(),
                )
            })
            .ok();
        let adaptive_policy = self.adaptive.as_ref().expect("set up");
        let adaptive = tracer
            .span("adaptive.run_policy", |_| {
                scenario(self.trials.adaptive).run_policy(
                    spec.tasks(),
                    spec.initial_recovery(),
                    |_| adaptive_policy.clone(),
                )
            })
            .ok();
        let cluster_scenario = self
            .cluster
            .clone()
            .expect("set up")
            .with_trials(self.trials.cluster)
            .with_seed(seed)
            .with_threads(workers);
        let cluster = tracer
            .span("cluster.monte_carlo", |_| {
                run_cluster_monte_carlo(&cluster_scenario, || {
                    Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>
                })
            })
            .ok();
        Outcomes { fixed, policy_static, adaptive, cluster }
    }
}

/// The static plan as fixed-engine segments: each segment's recovery is
/// the previous checkpoint's (the initial recovery for the first).
fn plan_segments(spec: &ChainSpec, checkpoint_after: &[bool]) -> Vec<Segment> {
    let mut segments = Vec::new();
    let (mut start, mut recovery) = (0usize, spec.initial_recovery());
    for (j, &checkpoint) in checkpoint_after.iter().enumerate() {
        if checkpoint {
            let work: f64 = (start..=j).map(|p| spec.tasks()[p].work()).sum();
            segments.push(
                Segment::new(work, spec.tasks()[j].checkpoint(), recovery).expect("valid segment"),
            );
            recovery = spec.tasks()[j].recovery();
            start = j + 1;
        }
    }
    segments
}

/// The b9 cluster scenario over `jobs`.
fn cluster_scenario(jobs: &[Vec<f64>]) -> ClusterScenario {
    let specs = jobs
        .iter()
        .map(|works| {
            ChainSpec::new(works, &vec![12.0; works.len()], &vec![18.0; works.len()], 20.0, 5.0)
                .expect("valid chain")
        })
        .collect();
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(MTBF).expect("valid MTBF"));
    ClusterScenario::new(MACHINES, law, 1.0 / MTBF, specs)
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 2_000.0, 0.5, 60.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(500.0))
        .expect("valid repair")
        .with_config(
            ClusterConfig::default()
                .with_migration_overhead(60.0)
                .expect("valid overhead")
                .with_replication_checkpoint_factor(1.3)
                .expect("valid factor"),
        )
}

impl Workload for MonteCarlo {
    type Input = u64;
    type Output = Outcomes;

    fn setup(&mut self) {
        let [weights, ckpt, rec] = &self.chain;
        let spec = ChainSpec::new(weights, ckpt, rec, 30.0, 10.0).expect("valid chain");
        let placement = optimal_static_plan(&spec, PLANNING_RATE).expect("valid rate");
        self.segments = plan_segments(&spec, &placement.checkpoint_after());
        self.static_policy = Some(StaticPlan::from_placement(&placement));
        self.adaptive = Some(AdaptiveResolve::new(&spec, PLANNING_RATE).expect("valid rate"));
        self.cluster = Some(cluster_scenario(&self.jobs));
        self.spec = Some(spec);
    }

    fn check_setup(&mut self) -> u64 {
        let spec = self.spec();
        let placement = optimal_static_plan(spec, PLANNING_RATE).expect("valid rate");
        let table = spec.sweep().table_for(TRUE_RATE).expect("valid rate");
        self.expectation = table.total_cost(&placement.checkpoint_after());
        u64::from(!(self.expectation.is_finite() && self.expectation > 0.0))
    }

    fn input(&mut self, index: usize) -> u64 {
        self.root.derive(index as u64).next_u64()
    }

    fn call(&mut self, seed: &u64, tracer: &mut Tracer) -> Outcomes {
        self.bundle(*seed, 1, tracer)
    }

    fn check(&mut self, seed: u64, output: Outcomes) -> Checked {
        let mut failed = 0u64;
        // Static policy ≡ fixed engine, trial for trial: the fixed engine
        // rerun at the static policy's trial count and seed.
        let spec = self.spec();
        let reference = SimulationScenario::exponential(TRUE_RATE)
            .with_downtime(spec.downtime())
            .with_trials(self.trials.policy_static)
            .with_seed(seed)
            .with_threads(1)
            .run(&self.segments);
        let same_trials = output.policy_static.as_ref().is_some_and(|policy| {
            reference.failures == policy.failures
                && reference.samples.len() == policy.samples.len()
                && reference.samples.iter().zip(&policy.samples).all(|(a, b)| close(*b, *a, 1e-9))
        });
        if !same_trials {
            failed += self.trials.policy_static as u64;
        }
        let fixed = &output.fixed;
        if fixed.samples.len() != self.trials.fixed {
            failed += self.trials.fixed as u64;
        }
        for &makespan in &fixed.samples {
            self.pooled.0 += 1.0;
            self.pooled.1 += makespan;
            self.pooled.2 += makespan * makespan;
        }
        self.failures += fixed.failures.mean * fixed.samples.len() as f64;
        let adaptive_ok = output.adaptive.as_ref().is_some_and(|o| {
            o.samples.len() == self.trials.adaptive && o.makespan.mean.is_finite()
        });
        if !adaptive_ok {
            failed += self.trials.adaptive as u64;
        }
        let cluster_ok = output
            .cluster
            .as_ref()
            .is_some_and(|o| o.trials == self.trials.cluster && o.makespan.mean.is_finite());
        if !cluster_ok {
            failed += self.trials.cluster as u64;
        }
        Checked { ops: self.trials.total(), failed }
    }

    /// The pooled fixed-engine mean lies within four standard errors of the
    /// Proposition 1 expectation; otherwise every fixed trial fails.
    fn check_run(&mut self) -> u64 {
        let (count, sum, squares) = self.pooled;
        let mean = sum / count;
        let variance = (squares - count * mean * mean) / (count - 1.0);
        let std_error = (variance.max(0.0) / count).sqrt();
        let mean_failed = if (mean - self.expectation).abs() <= MEAN_SIGMAS * std_error {
            0
        } else {
            count as u64
        };
        mean_failed + self.rerun_failed
    }

    fn layers(&mut self, tracer: &Tracer, counters: &Counters) -> Vec<(&'static str, f64)> {
        let calls = tracer.durations("simulator.run").len() as f64;
        let per_trial =
            |name: &str, trials: usize| ratio(tracer.total(name) * 1e6, calls * trials as f64);
        let fixed = per_trial("simulator.run", self.trials.fixed);
        let policy = per_trial("simulator.run_policy", self.trials.policy_static);
        vec![
            ("simulator.fixed_us_per_trial", fixed),
            ("simulator.policy_us_per_trial", policy),
            ("simulator.policy_overhead", ratio(policy, fixed)),
            ("simulator.failures_per_trial", ratio(self.failures, self.pooled.0)),
            (
                "adaptive.resolve_us_per_trial",
                per_trial("adaptive.run_policy", self.trials.adaptive),
            ),
            (
                "adaptive.replans_per_trial",
                ratio(counters.adaptive_replans as f64, calls * self.trials.adaptive as f64),
            ),
            ("simulator.speedup_2w", self.speedup_2w()),
            ("cluster.us_per_trial", per_trial("cluster.monte_carlo", self.trials.cluster)),
            (
                "failure.shocks_per_trial",
                ratio(counters.shocks as f64, calls * self.trials.cluster as f64),
            ),
        ]
    }
}

impl MonteCarlo {
    /// Reruns a few calls at one and at two workers, alternating, and
    /// returns the wall-time speed-up. Engines promise bit-identical
    /// outcomes at any worker count; trials that differ count as failed.
    fn speedup_2w(&mut self) -> f64 {
        let mut tracer = Tracer::new(false);
        let (mut one, mut two) = (0.0, 0.0);
        for index in 0..SCALING_CALLS {
            let seed = self.root.derive((1 << 32) + index as u64).next_u64();
            let started = Instant::now();
            let serial = self.bundle(seed, 1, &mut tracer);
            one += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let parallel = self.bundle(seed, 2, &mut tracer);
            two += started.elapsed().as_secs_f64();
            let same = serial.fixed == parallel.fixed
                && serial.policy_static == parallel.policy_static
                && serial.adaptive == parallel.adaptive
                && serial.cluster.as_ref().map(|o| &o.samples)
                    == parallel.cluster.as_ref().map(|o| &o.samples);
            if !same {
                self.rerun_failed += self.trials.total();
            }
        }
        ratio(one, two)
    }
}
