//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-hit --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A traced
//! run (`--trace 1`) also writes its spans (those of the first 10 000 calls)
//! as JSONL under `perfbench/out/`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use ckpt_perfbench::{provenance, run, Kind, Scale};

const USAGE: &str =
    "usage: ckpt-perfbench --workload <fleet-hit|fleet-miss|offline-plan|montecarlo> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The trace file holds the spans of this many calls; the per-layer
/// metrics use every span.
const TRACE_FILE_CALLS: usize = 10_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => traced = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Writes the provenance line and every span as JSONL; returns the path.
fn write_trace(report: &ckpt_perfbench::Report, provenance: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", report.kind.name(), report.seed));
    let mut out = BufWriter::new(File::create(&path)?);
    writeln!(out, "{{\"provenance\": {provenance}}}")?;
    report.spans.write_jsonl(&mut out, TRACE_FILE_CALLS)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calls = args.kind.calls(args.seconds);
    let report = run(args.kind, args.seed, calls, args.traced, Scale::Standard);
    let provenance = provenance(&report, args.seconds);

    println!("provenance {provenance}");
    println!(
        "{} seed {}: {} calls, {} {}s attempted, {} failed",
        args.kind.name(),
        args.seed,
        calls,
        report.attempted,
        args.kind.operation(),
        report.failed
    );
    println!("ops_attempted = {}", report.attempted);
    println!("ops_failed = {}", report.failed);
    if !args.traced {
        println!("call_p50_us = {} us (no bound)", report.call_p50_us);
        println!("unscaled ops_per_s = {} 1/s (wall clock)", report.wall_ops_per_s);
        println!("machine_slowdown = {} (probe reading over nominal)", report.slowdown);
    }
    for (name, value, unit) in &report.metrics {
        let name = match *name {
            "trace.overhead" => format!("trace.overhead.{}", args.kind.name()),
            _ => name.to_string(),
        };
        println!("{name} = {value} {unit}");
    }
    if args.traced {
        match write_trace(&report, &provenance) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(error) => {
                eprintln!("cannot write the trace: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
