//! Cross-crate integration tests for Proposition 3 / Algorithm 1: the chain
//! dynamic program is optimal, its analytical value is confirmed by
//! simulation, it dominates the periodic baselines, and every kernel matches
//! the reference at the numeric edges of the failure rate.

use ckpt_bench::testgen::heterogeneous_chain_instance as random_chain_instance;
use ckpt_workflows::core::chain_dp::ResumableDp;
use ckpt_workflows::core::{
    brute_force, chain_dp, evaluate, heuristics, ProblemInstance, Schedule, ScheduleError,
};
use ckpt_workflows::dag::{generators, properties};
use ckpt_workflows::expectation::segment_cost::SegmentCostTable;
use ckpt_workflows::expectation::sweep::LambdaSweep;
use ckpt_workflows::expectation::{ExpectationError, StorageLevels};
use ckpt_workflows::service::{PlanInstance, PlanRequest, Planner, RateBucketing, ServiceError};
use ckpt_workflows::simulator::SimulationScenario;

#[test]
fn dp_matches_exhaustive_search_on_random_chains() {
    for seed in 0..10 {
        let inst = random_chain_instance(seed, 7, 1.0 / 3_000.0);
        let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
        let brute = brute_force::optimal_schedule(&inst).unwrap();
        assert!(
            (dp.expected_makespan - brute.expected_makespan).abs() / brute.expected_makespan
                < 1e-10,
            "seed {seed}: dp {} vs brute {}",
            dp.expected_makespan,
            brute.expected_makespan
        );
    }
}

#[test]
fn dp_dominates_periodic_and_trivial_baselines() {
    for seed in 0..5 {
        for &lambda in &[1e-5, 1e-4, 1e-3] {
            let inst = random_chain_instance(100 + seed, 30, lambda);
            let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
            let order = properties::as_chain(inst.graph()).unwrap();

            let everywhere = Schedule::checkpoint_everywhere(&inst, order.clone()).unwrap();
            let final_only = Schedule::checkpoint_final_only(&inst, order.clone()).unwrap();
            let young = heuristics::young_periodic_schedule(&inst, order.clone()).unwrap();
            let every3 = heuristics::checkpoint_every_k(&inst, order, 3).unwrap();

            for (name, schedule) in [
                ("everywhere", &everywhere),
                ("final-only", &final_only),
                ("young-periodic", &young),
                ("every-3", &every3),
            ] {
                let value = evaluate::expected_makespan(&inst, schedule).unwrap();
                assert!(
                    dp.expected_makespan <= value + 1e-9,
                    "seed {seed}, lambda {lambda}: DP {} beaten by {name} {value}",
                    dp.expected_makespan
                );
            }
        }
    }
}

#[test]
fn dp_value_is_confirmed_by_simulation() {
    let inst = random_chain_instance(4242, 12, 1.0 / 6_000.0);
    let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
    let segments = dp.schedule.to_segments(&inst).unwrap();
    let outcome = SimulationScenario::exponential(inst.lambda())
        .with_downtime(inst.downtime())
        .with_trials(20_000)
        .with_seed(9)
        .run(&segments);
    let rel = outcome.makespan.relative_error(dp.expected_makespan);
    assert!(rel < 0.03, "relative error {rel:.4}");
}

#[test]
fn simulated_ranking_agrees_with_analytical_ranking() {
    // The analytical evaluator and the simulator must rank schedules the same
    // way when the gap is meaningful: the DP optimum must simulate at least as
    // fast as the single-final-checkpoint baseline under a harsh failure rate.
    // (Kept small: a no-checkpoint schedule needs e^{λW} attempts on average,
    // so the total work is chosen to keep that factor moderate.)
    let inst = random_chain_instance(777, 5, 1.0 / 2_500.0);
    let order = properties::as_chain(inst.graph()).unwrap();
    let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
    let final_only = Schedule::checkpoint_final_only(&inst, order).unwrap();

    let simulate = |schedule: &Schedule, seed: u64| {
        let segments = schedule.to_segments(&inst).unwrap();
        SimulationScenario::exponential(inst.lambda())
            .with_downtime(inst.downtime())
            .with_trials(4_000)
            .with_seed(seed)
            .run(&segments)
            .makespan
            .mean
    };
    let sim_dp = simulate(&dp.schedule, 1);
    let sim_final = simulate(&final_only, 1);
    assert!(sim_dp < sim_final, "DP simulated at {sim_dp:.1}, final-only at {sim_final:.1}");
}

#[test]
fn scaling_solvers_agree_on_multi_block_chains() {
    // 5 000 tasks spans several of the blocked solver's cache-sized blocks;
    // the blocked kernel and the pruned quadratic must agree in both a
    // rare-failure and a frequent-failure regime.
    for lambda in [1e-7, 1e-4] {
        let inst = random_chain_instance(7, 5_000, lambda);
        let pruned = chain_dp::optimal_chain_schedule(&inst).unwrap();
        let blocked = chain_dp::optimal_chain_schedule_blocked(&inst).unwrap();
        let gap =
            (blocked.expected_makespan - pruned.expected_makespan).abs() / pruned.expected_makespan;
        assert!(
            gap < 1e-10,
            "λ {lambda}: blocked {} vs pruned {}",
            blocked.expected_makespan,
            pruned.expected_makespan
        );
    }
}

/// The uniform chain of the numeric-edge wall: `n` tasks of 100 s,
/// checkpoints of 10 s, recoveries of 5 s, a 1 s downtime.
fn uniform_chain_instance(n: usize, lambda: f64) -> ProblemInstance {
    ProblemInstance::builder(generators::uniform_chain(n, 100.0).unwrap())
        .uniform_checkpoint_cost(10.0)
        .uniform_recovery_cost(5.0)
        .downtime(1.0)
        .platform_lambda(lambda)
        .build()
        .unwrap()
}

/// `value` matches `reference` to 1e-10 relative error (or both overflow).
fn assert_matches(name: &str, value: f64, reference: f64) {
    let gap = (value - reference).abs() / reference;
    assert!(value == reference || gap < 1e-10, "{name}: {value} vs reference {reference}");
}

/// The instances of the numeric-edge wall: uniform and heterogeneous chains
/// of 1, 2, 50 and 1 500 tasks at λ·W from 1e-16 (where the table's product
/// forms are `1 + O(ε)`) to 100, plus a saturated table (λ·W = 2 000) on
/// the chains long enough for its expectation to stay inside `f64`.
fn numeric_edge_instances() -> Vec<(String, ProblemInstance)> {
    let mut instances = Vec::new();
    for n in [1usize, 2, 50, 1_500] {
        let mut lambda_work = vec![1e-16, 1e-15, 1e-13, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 100.0];
        if n >= 50 {
            lambda_work.push(2_000.0);
        }
        for lw in lambda_work {
            let uniform = uniform_chain_instance(n, 1.0);
            let heterogeneous = random_chain_instance(n as u64, n, 1.0);
            for (kind, base) in [("uniform", uniform), ("heterogeneous", heterogeneous)] {
                let inst = base.with_lambda(lw / base.total_weight()).unwrap();
                instances.push((format!("{kind} n={n} λ·W={lw:e}"), inst));
            }
        }
    }
    instances
}

/// The suffix `from..n` of a chain instance as a chain of its own, protected
/// by the recovery of position `from − 1`'s checkpoint.
fn suffix_instance(inst: &ProblemInstance, from: usize) -> ProblemInstance {
    let order = properties::as_chain(inst.graph()).unwrap();
    let rest = &order[from..];
    let weights: Vec<f64> = rest.iter().map(|&t| inst.weight(t)).collect();
    ProblemInstance::builder(generators::chain(&weights).unwrap())
        .checkpoint_costs(rest.iter().map(|&t| inst.checkpoint_cost(t)).collect())
        .recovery_costs(rest.iter().map(|&t| inst.recovery_cost(t)).collect())
        .initial_recovery(inst.recovery_cost(order[from - 1]))
        .downtime(inst.downtime())
        .platform_lambda(inst.lambda())
        .build()
        .unwrap()
}

#[test]
fn every_kernel_matches_the_reference_at_numeric_edges() {
    for (name, inst) in numeric_edge_instances() {
        let order = properties::as_chain(inst.graph()).unwrap();
        let n = order.len();
        let reference = chain_dp::optimal_chain_schedule_reference(&inst).unwrap();
        let base = reference.expected_makespan;
        let pruned = chain_dp::optimal_chain_schedule(&inst).unwrap();
        assert_matches(&format!("{name}: pruned"), pruned.expected_makespan, base);
        let blocked = chain_dp::optimal_chain_schedule_blocked(&inst).unwrap();
        assert_matches(&format!("{name}: blocked"), blocked.expected_makespan, base);

        let table = evaluate::segment_cost_table(&inst, &order).unwrap();
        let scalable = chain_dp::scalable_placement_on_table(&table);
        assert_matches(&format!("{name}: scalable"), scalable.expected_makespan, base);
        let mut dp = ResumableDp::new();
        assert_matches(&format!("{name}: ResumableDp::solve"), dp.solve(&table), base);
        let mut suffix_dp = ResumableDp::new();
        assert_matches(
            &format!("{name}: solve_suffix(0)"),
            suffix_dp.solve_suffix(&table, 0),
            base,
        );
        if n >= 2 {
            let from = n / 2;
            let suffix = chain_dp::optimal_chain_schedule_reference(&suffix_instance(&inst, from))
                .unwrap()
                .expected_makespan;
            let value = suffix_dp.solve_suffix(&table, from);
            assert_matches(&format!("{name}: solve_suffix({from})"), value, suffix);
        }

        // The levelled kernel on one unit level replays the pruned kernel
        // bitwise.
        let levelled =
            chain_dp::optimal_levelled_schedule(&inst, &StorageLevels::single()).unwrap();
        assert_eq!(
            levelled.expected_makespan.to_bits(),
            pruned.expected_makespan.to_bits(),
            "{name}: levelled {} vs pruned {}",
            levelled.expected_makespan,
            pruned.expected_makespan
        );
        assert_eq!(levelled.schedule, pruned.schedule, "{name}");

        if n <= 12 {
            let brute = brute_force::optimal_checkpoints_for_order(&inst, order).unwrap();
            assert_matches(&format!("{name}: brute force"), brute.expected_makespan, base);
        }
    }
}

#[test]
fn tiny_rates_keep_the_single_final_checkpoint() {
    // At λ·W = 1e-15 a checkpoint only adds its cost: the reference, the
    // pruned and blocked kernels and the service all keep just the final one.
    let inst = uniform_chain_instance(50, 2e-19);
    let reference = chain_dp::optimal_chain_schedule_reference(&inst).unwrap();
    assert_eq!(reference.checkpoint_positions, vec![49]);
    assert_eq!(chain_dp::optimal_chain_schedule(&inst).unwrap().checkpoint_positions, vec![49]);
    let plan = PlanInstance::from_chain_instance(&inst).unwrap();
    let mut planner = Planner::new(RateBucketing::Exact);
    let response = &planner.serve_batch(&[PlanRequest::plan(0, plan, 2e-19).unwrap()])[0];
    assert_eq!(*response.checkpoint_positions, [49]);
    assert_matches("service", response.expected_makespan, reference.expected_makespan);

    // The blocked kernel on a 2 000-task chain, where its line form used to
    // cancel below λ ≈ 1e-18.
    for lambda in [1e-18, 1e-19, 1e-21] {
        let inst = uniform_chain_instance(2_000, lambda);
        let blocked = chain_dp::optimal_chain_schedule_blocked(&inst).unwrap();
        assert_eq!(blocked.checkpoint_positions, vec![1_999], "λ {lambda}");
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = evaluate::segment_cost_table(&inst, &order).unwrap();
        let pruned = chain_dp::optimal_placement_on_table(&table);
        assert_matches("blocked", blocked.expected_makespan, pruned.expected_makespan);
        assert_eq!(chain_dp::scalable_placement_on_table(&table), pruned);
    }
}

#[test]
fn subnormal_rates_are_rejected_with_a_typed_error() {
    // Below 1/f64::MAX the reciprocal 1/λ overflows and every closed form
    // would report an infinite makespan.
    let plan = PlanInstance::new(1.0, &[100.0, 100.0], &[10.0; 2], &[5.0; 2]).unwrap();
    let sweep = LambdaSweep::new(1.0, &[100.0, 100.0], &[10.0; 2], &[5.0; 2]).unwrap();
    for lambda in [5e-309, 1e-310, 1e-320, 5e-324] {
        let expected = ExpectationError::RateTooSmall { value: lambda };
        assert_eq!(
            SegmentCostTable::new(lambda, 1.0, &[100.0], &[10.0], &[5.0]).unwrap_err(),
            expected
        );
        assert_eq!(sweep.table_for(lambda).unwrap_err(), expected);
        let built = ProblemInstance::builder(generators::uniform_chain(2, 100.0).unwrap())
            .uniform_checkpoint_cost(10.0)
            .platform_lambda(lambda)
            .build();
        assert_eq!(built.unwrap_err(), ScheduleError::RateTooSmall { value: lambda });
        let inst = uniform_chain_instance(2, 1e-4);
        assert_eq!(
            inst.with_lambda(lambda).unwrap_err(),
            ScheduleError::RateTooSmall { value: lambda }
        );
        assert!(matches!(
            PlanRequest::plan(0, plan.clone(), lambda),
            Err(ServiceError::Invalid(err)) if err == expected
        ));
        assert!(matches!(
            PlanRequest::replan(0, plan.clone(), lambda, 1),
            Err(ServiceError::Invalid(err)) if err == expected
        ));
    }
    // A rate just above the limit still plans to a finite makespan, on one
    // block and across the blocked solver's cross-range envelopes.
    for n in [50, 2_000] {
        let smallest = uniform_chain_instance(n, 1e-308);
        let reference = chain_dp::optimal_chain_schedule_reference(&smallest).unwrap();
        assert!(reference.expected_makespan.is_finite());
        assert_eq!(reference.checkpoint_positions, vec![n - 1]);
        let pruned = chain_dp::optimal_chain_schedule(&smallest).unwrap();
        assert_matches("pruned at 1e-308", pruned.expected_makespan, reference.expected_makespan);
        let blocked = chain_dp::optimal_chain_schedule_blocked(&smallest).unwrap();
        assert_matches("blocked at 1e-308", blocked.expected_makespan, reference.expected_makespan);
    }
}

#[test]
fn batched_lambda_sweep_agrees_with_per_rate_planning() {
    use ckpt_workflows::core::analysis;

    let inst = random_chain_instance(11, 40, 1e-4);
    let sweep = analysis::lambda_sweep(&inst, 1e-6, 1e-3, 6).unwrap();
    for point in &sweep {
        let solo = chain_dp::optimal_chain_schedule(&inst.with_lambda(point.lambda).unwrap())
            .unwrap()
            .expected_makespan;
        assert!((point.expected_makespan - solo).abs() / solo < 1e-12, "λ {}", point.lambda);
    }
    // Evaluating the optimal schedule of each grid rate at its own rate
    // through the batched fixed-schedule sweep reproduces the optimum.
    let mid = &sweep[3];
    let schedule =
        chain_dp::optimal_chain_schedule(&inst.with_lambda(mid.lambda).unwrap()).unwrap().schedule;
    let fixed = analysis::schedule_lambda_sweep(&inst, &schedule, &[mid.lambda]).unwrap();
    assert!((fixed[0] - mid.expected_makespan).abs() / mid.expected_makespan < 1e-12);
}
