//! The checkpoint planner's benchmark: four closed-loop workloads, each
//! run single-threaded for a fixed number of calls, with every output
//! checked between calls and each layer timed from outside by spans around
//! the benchmark's own calls into the layers' public functions. End-to-end
//! times are scaled to the machine's nominal speed by a probe kernel timed
//! between calls (see [`probe`]).
//!
//! See `README.md` next to this crate for why each workload exists and
//! which per-layer metric should move which end-to-end metric.

pub mod fleet;
pub mod harness;
pub mod montecarlo;
pub mod offline;
pub mod probe;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ckpt_telemetry::json::{json_number, json_string};

use crate::harness::{median, quantile, ratio, Counters, Pass, Runner, Workload};
use crate::trace::Tracer;

/// The tail percentile reported per call: p90, so that a run of at least
/// 100 calls has at least ten samples beyond it.
pub const TAIL: f64 = 0.9;
/// The fewest calls a run makes.
pub const MIN_CALLS: usize = 100;

/// The end-to-end metrics, with their units, reported by untraced runs.
/// Times and rates are scaled to the probe's nominal machine speed. The
/// median call latency is not among them: even scaled it is the least
/// steady timing (see `README.md`); it is printed, and traced runs report
/// it as `harness.call_p50_us`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ops_per_s", "1/s"), ("call_p90_us", "us")];

/// The per-layer metrics, with their units, reported by traced runs. A
/// layer idle on the traced workload reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("harness.call_p50_us", "us"),
    ("harness.machine_slowdown", "ratio"),
    ("service.batch_us", "us"),
    ("service.admission_us", "us"),
    ("service.solve_us", "us"),
    ("service.commit_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.work_items_per_request", "ratio"),
    ("service.cached_plans", "count"),
    ("expectation.instance_us", "us"),
    ("expectation.table_ms.rare", "ms"),
    ("expectation.table_ms.frequent", "ms"),
    ("expectation.table_ms.levelled", "ms"),
    ("core.dp_ms.rare", "ms"),
    ("core.dp_ms.frequent", "ms"),
    ("core.dp_ms.levelled", "ms"),
    ("core.candidates_per_position", "ratio"),
    ("core.prune_break_ratio", "ratio"),
    ("core.lichao_visits_per_insert", "ratio"),
    ("core.suffix_reuse_ratio", "ratio"),
    ("simulator.fixed_us_per_trial", "us"),
    ("simulator.policy_us_per_trial", "us"),
    ("simulator.policy_overhead", "ratio"),
    ("simulator.failures_per_trial", "count"),
    ("simulator.speedup_2w", "ratio"),
    ("adaptive.resolve_us_per_trial", "us"),
    ("adaptive.replans_per_trial", "count"),
    ("cluster.us_per_trial", "us"),
    ("failure.shocks_per_trial", "count"),
    ("trace.overhead", "ratio"),
    ("trace.self_us.harness", "us"),
    ("trace.self_us.service", "us"),
    ("trace.self_us.expectation", "us"),
    ("trace.self_us.core", "us"),
    ("trace.self_us.simulator", "us"),
    ("trace.self_us.adaptive", "us"),
    ("trace.self_us.cluster", "us"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FleetHit,
    FleetMiss,
    OfflinePlan,
    MonteCarlo,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 4] =
        [Kind::FleetHit, Kind::FleetMiss, Kind::OfflinePlan, Kind::MonteCarlo];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetHit => "fleet-hit",
            Kind::FleetMiss => "fleet-miss",
            Kind::OfflinePlan => "offline-plan",
            Kind::MonteCarlo => "montecarlo",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// What one operation is.
    pub fn operation(self) -> &'static str {
        match self {
            Kind::FleetHit | Kind::FleetMiss => "plan request",
            Kind::OfflinePlan => "planned chain",
            Kind::MonteCarlo => "simulated trial",
        }
    }

    /// Calls per second of `--seconds`: the call count is fixed by the
    /// arguments, never by the clock, and these rates make a run last
    /// about `--seconds` on a 2-core x86-64 container.
    fn calls_per_second(self) -> f64 {
        match self {
            Kind::FleetHit => 28_000.0,
            Kind::FleetMiss => 30.0,
            Kind::OfflinePlan => 5.0,
            Kind::MonteCarlo => 21.0,
        }
    }

    /// Epochs per run: each sets the program up afresh, and the median
    /// set-up time is reported. For `fleet-miss` they also bound the
    /// planner's cache, which never evicts; `montecarlo`'s set-up takes
    /// about 60 µs, so it sets up more often for a steadier median.
    pub fn epochs(self) -> usize {
        match self {
            Kind::FleetHit => 15,
            Kind::FleetMiss => 40,
            Kind::OfflinePlan => 7,
            Kind::MonteCarlo => 84,
        }
    }

    /// The calls a run of `seconds` makes (at least [`MIN_CALLS`]).
    pub fn calls(self, seconds: u64) -> usize {
        ((seconds as f64 * self.calls_per_second()).round() as usize).max(MIN_CALLS)
    }

    /// Requests per call for the service workloads (0 otherwise).
    pub fn batch(self) -> usize {
        match self {
            Kind::FleetHit => fleet::HIT_BATCH,
            Kind::FleetMiss => fleet::MISS_BATCH,
            _ => 0,
        }
    }
}

/// Problem sizes: the benchmark's own, or tiny ones for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Standard,
    Tiny,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    pub calls: usize,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The untraced pass's median call latency, µs, scaled.
    pub call_p50_us: f64,
    /// The untraced pass's operations per second of unscaled wall time.
    pub wall_ops_per_s: f64,
    /// The untraced pass's mean probe reading over the nominal one.
    pub slowdown: f64,
    /// The traced pass's spans (empty for an untraced run).
    pub spans: Tracer,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|(_, v, _)| *v)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(name),
                json_number(*value),
                json_string(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The untraced pass of a run and, if `traced`, a traced pass on a fresh
/// workload whose epochs alternate with the untraced pass's, so that the
/// tracing overhead is not confounded with machine drift.
fn measure<W: Workload>(
    make: impl Fn() -> W,
    epochs: usize,
    calls: usize,
    traced: bool,
) -> (Pass, Option<(Pass, Tracer)>) {
    let mut plain = Runner::new(make(), epochs, calls, false);
    if !traced {
        return (plain.finish().0, None);
    }
    let mut with_spans = Runner::new(make(), epochs, calls, true);
    while !plain.is_done() {
        plain.run_epoch();
        with_spans.run_epoch();
    }
    (plain.finish().0, Some(with_spans.finish()))
}

/// [`measure`] for `kind`.
fn measure_kind(
    kind: Kind,
    seed: u64,
    calls: usize,
    traced: bool,
    scale: Scale,
) -> (Pass, Option<(Pass, Tracer)>) {
    let epochs = if scale == Scale::Tiny { 2 } else { kind.epochs() };
    match kind {
        Kind::FleetHit => measure(|| fleet::FleetHit::new(seed, scale), epochs, calls, traced),
        Kind::FleetMiss => measure(|| fleet::FleetMiss::new(seed, scale), epochs, calls, traced),
        Kind::OfflinePlan => {
            measure(|| offline::OfflinePlan::new(seed, scale), epochs, calls, traced)
        }
        Kind::MonteCarlo => {
            measure(|| montecarlo::MonteCarlo::new(seed, scale), epochs, calls, traced)
        }
    }
}

/// The solver census ratios over the timed calls.
fn core_layers(counters: &Counters) -> Vec<(&'static str, f64)> {
    let s = &counters.solver;
    vec![
        ("core.candidates_per_position", ratio(s.dp_candidates as f64, s.dp_positions as f64)),
        ("core.prune_break_ratio", ratio(s.dp_prune_breaks as f64, s.dp_positions as f64)),
        (
            "core.lichao_visits_per_insert",
            ratio(s.li_chao_node_visits as f64, s.li_chao_inserts as f64),
        ),
        (
            "core.suffix_reuse_ratio",
            ratio(
                s.suffix_reused_positions as f64,
                (s.suffix_reused_positions + s.dp_positions) as f64,
            ),
        ),
    ]
}

/// Runs `kind` at `seed` for `calls` calls. An untraced run reports the
/// end-to-end metrics; a traced run reports the per-layer metrics and the
/// tracing overhead between its untraced and traced passes.
pub fn run(kind: Kind, seed: u64, calls: usize, traced: bool, scale: Scale) -> Report {
    let (plain, traced_pass) = measure_kind(kind, seed, calls, traced, scale);
    let mut report = Report {
        kind,
        seed,
        calls,
        traced,
        attempted: plain.checked.ops,
        failed: plain.checked.failed,
        metrics: Vec::new(),
        call_p50_us: median(&plain.call_us),
        wall_ops_per_s: plain.wall_ops_per_s(),
        slowdown: plain.slowdown,
        spans: Tracer::new(false),
    };
    let Some((traced_pass, tracer)) = traced_pass else {
        let values = [
            median(&plain.setup_s),
            plain.peak_rss_mb,
            plain.ops_per_s(),
            quantile(&plain.call_us, TAIL),
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        return report;
    };
    report.attempted += traced_pass.checked.ops;
    report.failed += traced_pass.checked.failed;

    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
    values.extend(core_layers(&traced_pass.counters));
    values.extend(traced_pass.layers.iter().copied());
    values.insert("harness.call_p50_us", report.call_p50_us);
    values.insert("harness.machine_slowdown", report.slowdown);
    values.insert("trace.overhead", plain.ops_per_s() / traced_pass.ops_per_s() - 1.0);
    for (layer, seconds) in tracer.self_time_by_layer() {
        if let Some((name, _)) =
            PER_LAYER.iter().find(|(name, _)| name.strip_prefix("trace.self_us.") == Some(&layer))
        {
            values.insert(name, seconds * 1e6 / calls as f64);
        }
    }
    report.metrics = PER_LAYER.iter().map(|(name, unit)| (*name, values[name], *unit)).collect();
    report.spans = tracer;
    report
}

/// The machine and run settings a result depends on, as one JSON object.
pub fn provenance(report: &Report, seconds: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"calls\": {}, \"workers\": 1, \
         \"batch\": {}, \"operation\": {}, \"tail_percentile\": {}, \"epochs\": {}, \
         \"traced\": {}, \"probe_nominal_us\": {}, \"machine_slowdown\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"commit\": {}}}",
        json_string(report.kind.name()),
        report.seed,
        seconds,
        report.calls,
        report.kind.batch(),
        json_string(report.kind.operation()),
        TAIL * 100.0,
        report.kind.epochs(),
        report.traced,
        probe::NOMINAL_US,
        report.slowdown,
        nproc,
        json_string(&cpu),
        json_string(&git_commit()),
    )
}

/// The commit the benchmark was built from, read from `.git` next to this
/// crate's directory without running git; "unknown" outside a repository.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}
