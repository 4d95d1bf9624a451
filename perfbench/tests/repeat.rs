//! The benchmark's own checks at a tiny size: every workload passes its
//! output checks, counter-derived metrics repeat exactly at the same seed,
//! idle layers read zero, and `BENCHMARK.json` names exactly the metrics
//! the benchmark prints.

use std::sync::Mutex;

use ckpt_perfbench::{run, Kind, Report, Scale, END_TO_END, PER_LAYER};

/// The solver, adaptive and failure counters are process-global, so runs
/// that read them must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Per-layer metrics derived from counts alone: they must repeat exactly.
const COUNTER_DERIVED: [&str; 10] = [
    "service.hit_ratio",
    "service.work_items_per_request",
    "service.cached_plans",
    "core.candidates_per_position",
    "core.prune_break_ratio",
    "core.lichao_visits_per_insert",
    "core.suffix_reuse_ratio",
    "simulator.failures_per_trial",
    "adaptive.replans_per_trial",
    "failure.shocks_per_trial",
];

fn tiny(kind: Kind, seed: u64, traced: bool) -> Report {
    run(kind, seed, 6, traced, Scale::Tiny)
}

fn value(report: &Report, name: &str) -> f64 {
    report.metric(name).unwrap_or_else(|| panic!("{} lacks {name}", report.kind.name()))
}

#[test]
fn traced_runs_pass_their_checks_and_repeat_their_counts() {
    let _serial = SERIAL.lock().expect("no test panicked while holding the lock");
    for kind in Kind::ALL {
        let first = tiny(kind, 7, true);
        let second = tiny(kind, 7, true);
        assert!(first.correct(), "{}: {} of {} failed", kind.name(), first.failed, first.attempted);
        assert_eq!(first.attempted, second.attempted);
        let names: Vec<&str> = first.metrics.iter().map(|(name, _, _)| *name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected, "{}: traced runs report the per-layer metrics", kind.name());
        for name in COUNTER_DERIVED {
            assert_eq!(
                value(&first, name).to_bits(),
                value(&second, name).to_bits(),
                "{}: {name} differs between two runs at one seed",
                kind.name()
            );
        }
        assert!(first.metrics.iter().all(|(_, v, _)| v.is_finite()));
    }
}

#[test]
fn idle_layers_read_zero() {
    let _serial = SERIAL.lock().expect("no test panicked while holding the lock");
    let hit = tiny(Kind::FleetHit, 3, true);
    assert_eq!(value(&hit, "service.hit_ratio"), 1.0);
    for (name, _) in PER_LAYER.iter().filter(|(name, _)| name.starts_with("core.")) {
        assert_eq!(value(&hit, name), 0.0, "fleet-hit runs no DP, yet {name} moved");
    }
    let miss = tiny(Kind::FleetMiss, 3, true);
    assert_eq!(value(&miss, "service.hit_ratio"), 0.0);
    assert!(value(&miss, "core.candidates_per_position") > 0.0);
    let offline = tiny(Kind::OfflinePlan, 3, true);
    assert_eq!(value(&offline, "service.batch_us"), 0.0);
    assert_eq!(value(&offline, "simulator.fixed_us_per_trial"), 0.0);
    let montecarlo = tiny(Kind::MonteCarlo, 3, true);
    assert_eq!(value(&montecarlo, "service.batch_us"), 0.0);
    assert!(value(&montecarlo, "simulator.speedup_2w") > 0.0);
}

#[test]
fn untraced_runs_report_the_end_to_end_metrics() {
    let _serial = SERIAL.lock().expect("no test panicked while holding the lock");
    for kind in Kind::ALL {
        let report = tiny(kind, 5, false);
        assert!(report.correct(), "{}: {} failed", kind.name(), report.failed);
        let names: Vec<(&str, &str)> = report.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
        assert_eq!(names, END_TO_END.to_vec());
        assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0));
        let line = report.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let end = spec[start..].find(']').expect("array closes") + start;
    spec[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names_in(&spec, "workloads"), kinds);
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&spec, "end_to_end"), end_to_end);
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&spec, "per_layer"), per_layer);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
