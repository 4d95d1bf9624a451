//! The closed-loop harness shared by every workload: set-up once per epoch,
//! a fixed number of timed calls, output checks between calls, the per-call
//! deltas of the counters the program exports, and probe readings between
//! calls that scale the timings to the machine's nominal speed.

use std::time::Instant;

use ckpt_core::solver_stats::{self, SolverStatsSnapshot};

use crate::probe::Probe;
use crate::trace::Tracer;

/// Outcome of the checks on one call's output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Operations the call attempted (requests, chains or trials).
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

/// The process-global counters the program exports, read around each call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Solver census (`ckpt_core::solver_stats`).
    pub solver: SolverStatsSnapshot,
    /// `ckpt_adaptive::stats` re-plans by `AdaptiveResolve`.
    pub adaptive_replans: u64,
    /// `ckpt_failure::stats` shocks materialised by the cluster injector.
    pub shocks: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn read() -> Self {
        Counters {
            solver: solver_stats::snapshot(),
            adaptive_replans: ckpt_adaptive::stats::snapshot().adaptive_resolve_replans,
            shocks: ckpt_failure::stats::snapshot().shocks,
        }
    }

    /// Adds the increments from `before` to `after` into `self`.
    fn accumulate(&mut self, before: &Counters, after: &Counters) {
        let solver = after.solver.since(&before.solver);
        let total = &mut self.solver;
        total.dp_positions += solver.dp_positions;
        total.dp_candidates += solver.dp_candidates;
        total.dp_prune_breaks += solver.dp_prune_breaks;
        total.full_solves += solver.full_solves;
        total.prefix_trials += solver.prefix_trials;
        total.suffix_solves += solver.suffix_solves;
        total.suffix_reused_positions += solver.suffix_reused_positions;
        total.li_chao_inserts += solver.li_chao_inserts;
        total.li_chao_node_visits += solver.li_chao_node_visits;
        self.adaptive_replans += after.adaptive_replans.saturating_sub(before.adaptive_replans);
        self.shocks += after.shocks.saturating_sub(before.shocks);
    }
}

/// One benchmark workload, driven by a [`Runner`]: each epoch starts with
/// [`setup`](Workload::setup) (timed as set-up) and then makes its share of
/// a fixed number of calls, each generating its input first and checking
/// its output after; only [`call`](Workload::call) is timed, and the
/// machine-speed probe reads between calls.
pub trait Workload {
    /// One call's input, generated from the seed.
    type Input;
    /// One call's output, handed to the checks.
    type Output;

    /// The one-time program work a user pays before the first call:
    /// building instances and plans, and warming caches. Starts the
    /// program state afresh; the input stream carries on across epochs.
    fn setup(&mut self);

    /// Releases the last epoch's program state before the next set-up
    /// (untimed), so set-up time excludes freeing it.
    fn retire(&mut self) {}

    /// Checks what [`setup`](Workload::setup) built; returns the number of
    /// failed checks.
    fn check_setup(&mut self) -> u64;

    /// Generates call `index`'s input (untimed).
    fn input(&mut self, index: usize) -> Self::Input;

    /// The timed call, closed loop: the next call starts when it returns.
    fn call(&mut self, input: &Self::Input, tracer: &mut Tracer) -> Self::Output;

    /// Checks one call's output (untimed).
    fn check(&mut self, input: Self::Input, output: Self::Output) -> Checked;

    /// Checks that span the whole run (e.g. a Monte-Carlo mean against its
    /// expectation); returns the number of failed operations.
    fn check_run(&mut self) -> u64 {
        0
    }

    /// The workload's own per-layer metrics after a traced pass (called
    /// before [`check_run`](Workload::check_run)).
    fn layers(&mut self, tracer: &Tracer, counters: &Counters) -> Vec<(&'static str, f64)>;
}

/// Everything one pass over a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds of each epoch's set-up, scaled to the probe's nominal speed.
    pub setup_s: Vec<f64>,
    /// Microseconds of each timed call, scaled to the probe's nominal speed.
    pub call_us: Vec<f64>,
    /// Unscaled wall seconds of all timed calls together.
    pub call_wall_s: f64,
    /// The probe's mean reading over its nominal one: how much slower than
    /// nominal the machine ran during the pass.
    pub slowdown: f64,
    /// Operations attempted and failed over the calls (set-up and run-level
    /// checks included in `failed`).
    pub checked: Checked,
    /// Counter increments over the timed calls only.
    pub counters: Counters,
    /// Peak resident set (VmHWM) in MiB right after the last call.
    pub peak_rss_mb: f64,
    /// The workload's per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Completed operations per second of timed wall time, scaled to the
    /// probe's nominal speed.
    pub fn ops_per_s(&self) -> f64 {
        let timed_s: f64 = self.call_us.iter().sum::<f64>() * 1e-6;
        self.completed() / timed_s
    }

    /// Completed operations per second of unscaled timed wall time.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.completed() / self.call_wall_s
    }

    fn completed(&self) -> f64 {
        (self.checked.ops - self.checked.failed) as f64
    }
}

/// One pass over a workload, advanced an epoch at a time. Each epoch sets
/// the program up afresh and then makes its share of the calls, so the
/// set-up samples are spread over the run; two passes can alternate epochs
/// so that both see the same machine conditions.
pub struct Runner<W> {
    workload: W,
    epochs: usize,
    calls: usize,
    epoch: usize,
    tracer: Tracer,
    probe: Probe,
    /// Unscaled wall time of each set-up and call, with the index of the
    /// probe reading taken just before it; the next reading follows it.
    setups: Vec<(f64, usize)>,
    timed_calls: Vec<(f64, usize)>,
    pass: Pass,
}

impl<W: Workload> Runner<W> {
    /// A pass of `calls` calls over `epochs` epochs, traced iff `traced`.
    pub fn new(workload: W, epochs: usize, calls: usize, traced: bool) -> Self {
        let epochs = epochs.clamp(1, calls.max(1));
        Runner {
            workload,
            epochs,
            calls,
            epoch: 0,
            tracer: Tracer::new(traced),
            probe: Probe::new(),
            setups: Vec::with_capacity(epochs),
            timed_calls: Vec::with_capacity(calls),
            pass: Pass::default(),
        }
    }

    /// Whether every epoch has run.
    pub fn is_done(&self) -> bool {
        self.epoch == self.epochs
    }

    /// Runs the next epoch: set-up, then its calls. The probe reads just
    /// before and just after set-up, at most every 40 ms between calls, and
    /// once after the last call.
    pub fn run_epoch(&mut self) {
        let (workload, pass, tracer) = (&mut self.workload, &mut self.pass, &mut self.tracer);
        let probe = &mut self.probe;
        if self.epoch > 0 {
            workload.retire();
        }
        let reading = probe.read();
        let started = Instant::now();
        workload.setup();
        self.setups.push((started.elapsed().as_secs_f64(), reading));
        probe.read();
        pass.checked.failed += workload.check_setup();

        let (epoch, epochs, calls) = (self.epoch, self.epochs, self.calls);
        for index in epoch * calls / epochs..(epoch + 1) * calls / epochs {
            let input = workload.input(index);
            tracer.set_call(index);
            let reading = probe.latest();
            let before = Counters::read();
            let started = Instant::now();
            let output = tracer.span("harness.call", |tracer| workload.call(&input, tracer));
            let elapsed = started.elapsed();
            let after = Counters::read();
            self.timed_calls.push((elapsed.as_secs_f64() * 1e6, reading));
            pass.counters.accumulate(&before, &after);
            let checked = workload.check(input, output);
            pass.checked.ops += checked.ops;
            pass.checked.failed += checked.failed;
            probe.read_if_due();
        }
        probe.read();
        self.epoch += 1;
    }

    /// Runs the remaining epochs and the run-level checks; returns what the
    /// pass measured and its spans.
    pub fn finish(mut self) -> (Pass, Tracer) {
        while !self.is_done() {
            self.run_epoch();
        }
        let (pass, probe) = (&mut self.pass, &self.probe);
        pass.peak_rss_mb = peak_rss_mb();
        pass.setup_s = self.setups.iter().map(|&(s, r)| s / probe.slowdown(r)).collect();
        pass.call_us = self.timed_calls.iter().map(|&(us, r)| us / probe.slowdown(r)).collect();
        pass.call_wall_s = self.timed_calls.iter().map(|(us, _)| us).sum::<f64>() * 1e-6;
        pass.slowdown = probe.mean_slowdown();
        if self.tracer.enabled() {
            pass.layers = self.workload.layers(&self.tracer, &pass.counters);
        }
        pass.checked.failed += self.workload.check_run();
        pass.checked.failed = pass.checked.failed.min(pass.checked.ops);
        (self.pass, self.tracer)
    }
}

/// The nearest-rank quantile at rank `round((n − 1)·q)` — the convention
/// of ckpt-telemetry's histograms and the simulator's quantiles. Returns 0
/// for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

/// The median (nearest-rank, see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `numerator / denominator`, or 0 when the denominator is 0 (an idle
/// layer reads 0 rather than NaN).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `true` iff `a` and `b` agree to `tolerance` relative to `|b|` (absolute
/// below 1).
pub fn close(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * b.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 6.0);
        assert_eq!(quantile(&values, 0.9), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
