//! B1 — scaling of the Algorithm 1 chain DP kernels.
//!
//! The headline comparison of the fast-path overhaul: the naive `O(n²)` DP
//! (`reference`, two `exp` calls per cell) against the precomputed-cost
//! pruned DP (`pruned`, the production path for small and medium chains)
//! and the blocked index-space divide and conquer (`blocked`, the
//! large-chain kernel). The 4096-task configuration is the acceptance
//! benchmark: the pruned DP must beat the reference by ≥ 5×.
//!
//! The `chain_dp_large` group is the `n ≫ 10⁵` scaling acceptance of the
//! blocked solver: only the envelope kernel runs there (the quadratic ones
//! would take hours at `n = 10⁶`), on a λ chosen so the table stays out of
//! its saturated fallback (`λ·total work ≈ 10` at `n = 10⁵`, `≈ 105` at
//! `n = 10⁶`).

use ckpt_bench::random_chain_instance;
use ckpt_core::chain_dp;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_chain_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_dp");
    group.sample_size(10);
    for &n in &[32usize, 128, 512, 1024, 4096] {
        let instance =
            random_chain_instance(7, n, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1.0 / 10_000.0);
        group.bench_with_input(BenchmarkId::new("reference", n), &instance, |b, inst| {
            b.iter(|| chain_dp::optimal_chain_schedule_reference(black_box(inst)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &instance, |b, inst| {
            b.iter(|| chain_dp::optimal_chain_schedule(black_box(inst)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &instance, |b, inst| {
            b.iter(|| chain_dp::optimal_chain_schedule_blocked(black_box(inst)).unwrap())
        });
    }

    // A failure-heavy regime: many checkpoints in the optimum, so the pruning
    // bound truncates the inner loop aggressively.
    let frequent = random_chain_instance(11, 4096, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1.0 / 1_000.0);
    group.bench_with_input(
        BenchmarkId::new("pruned_frequent_failures", 4096),
        &frequent,
        |b, inst| b.iter(|| chain_dp::optimal_chain_schedule(black_box(inst)).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("blocked_frequent_failures", 4096),
        &frequent,
        |b, inst| b.iter(|| chain_dp::optimal_chain_schedule_blocked(black_box(inst)).unwrap()),
    );
    group.finish();
}

fn bench_chain_dp_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_dp_large");
    group.sample_size(3);
    // λ = 1e-7 keeps λ·total work ≈ 10 (n = 10⁵) / 105 (n = 10⁶): far from
    // the table's saturated fallback, with a non-trivial optimum (the
    // optimal placement checkpoints every few dozen tasks).
    for &n in &[100_000usize, 1_000_000] {
        let instance = random_chain_instance(7, n, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1e-7);
        group.bench_with_input(BenchmarkId::new("blocked", n), &instance, |b, inst| {
            b.iter(|| chain_dp::optimal_chain_schedule_blocked(black_box(inst)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_dp, bench_chain_dp_large);
criterion_main!(benches);
