//! Pinned-output wall for the §2 engines: the fixed-schedule engine
//! (`simulate`, `simulate_with_log`) and the chain policy engine
//! (`simulate_policy`, `simulate_policy_with_log`).
//!
//! Every record field and every logged event of a grid of runs is folded
//! into an FNV-1a digest over the raw `f64` bits, and the digests are pinned
//! to constants. A refactor of an engine loop that changes a single bit of a
//! single run — one rounding, one stream query, one event — fails here, even
//! if the refactored engines still agree with each other.
//!
//! The grid covers:
//! * parameters `R₀`, `D`, `C` and `R` each zero and positive (16 corners);
//! * 50 Exponential seeds per corner;
//! * scripted failures placed exactly at phase ends and inside downtimes;
//! * four policies: never, always, fixed flags, and a stateful policy that
//!   reads the clock, the last checkpoint and the failure times.

use ckpt_simulator::stream::ScriptedStream;
use ckpt_simulator::{
    simulate, simulate_policy, simulate_policy_with_log, simulate_with_log, ChainTask,
    DecisionContext, ExecutionEvent, ExecutionRecord, ExponentialStream, FailureStream, Policy,
    PolicyExecutionRecord, Segment,
};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn record(&mut self, record: &ExecutionRecord) {
        self.float(record.makespan);
        self.word(record.failures);
        self.float(record.breakdown.useful);
        self.float(record.breakdown.lost);
        self.float(record.breakdown.downtime);
        self.float(record.breakdown.recovery);
    }

    fn policy_record(&mut self, outcome: &PolicyExecutionRecord) {
        self.record(&outcome.record);
        self.word(outcome.checkpoints);
        self.word(outcome.decisions);
    }

    fn events(&mut self, events: &[ExecutionEvent]) {
        self.word(events.len() as u64);
        for event in events {
            let (tag, segment) = match *event {
                ExecutionEvent::AttemptStarted { segment, .. } => (0, segment),
                ExecutionEvent::Failure { segment, wasted, .. } => {
                    self.float(wasted);
                    (1, segment)
                }
                ExecutionEvent::DowntimeCompleted { segment, .. } => (2, segment),
                ExecutionEvent::RecoveryCompleted { segment, .. } => (3, segment),
                ExecutionEvent::SegmentCompleted { segment, .. } => (4, segment),
                ExecutionEvent::PolicyDecision { segment, checkpoint, .. } => {
                    self.word(u64::from(checkpoint));
                    (5, segment)
                }
            };
            self.word(tag);
            self.word(segment as u64);
            self.float(event.time());
        }
    }
}

/// One corner of the parameter grid.
#[derive(Clone, Copy)]
struct Corner {
    initial_recovery: f64,
    downtime: f64,
    checkpoint: f64,
    recovery: f64,
}

/// The 16 corners: `R₀`, `D`, `C` and `R` each zero and positive.
fn corners() -> Vec<Corner> {
    (0..16u32)
        .map(|bits| Corner {
            initial_recovery: if bits & 1 != 0 { 35.0 } else { 0.0 },
            downtime: if bits & 2 != 0 { 20.0 } else { 0.0 },
            checkpoint: if bits & 4 != 0 { 1.0 } else { 0.0 },
            recovery: if bits & 8 != 0 { 1.0 } else { 0.0 },
        })
        .collect()
}

const WORKS: [f64; 5] = [310.0, 170.0, 455.0, 90.0, 260.0];
const CKPT_SCALE: [f64; 5] = [30.0, 12.5, 41.0, 8.0, 22.0];
const REC_SCALE: [f64; 5] = [45.0, 18.0, 60.0, 11.5, 27.0];
/// The plan the fixed-flags policy replays and the fixed engine executes.
const PLAN: [bool; 5] = [true, false, true, false, true];

fn chain(corner: Corner) -> Vec<ChainTask> {
    (0..WORKS.len())
        .map(|i| {
            ChainTask::new(
                WORKS[i],
                CKPT_SCALE[i] * corner.checkpoint,
                REC_SCALE[i] * corner.recovery,
            )
            .unwrap()
        })
        .collect()
}

/// `PLAN` as fixed-engine segments: each segment is protected by the
/// recovery of the previous checkpoint (`R₀` for the first).
fn segments(corner: Corner) -> Vec<Segment> {
    let tasks = chain(corner);
    let mut segments = Vec::new();
    let (mut work, mut protecting) = (0.0, corner.initial_recovery);
    for (task, &checkpoint) in tasks.iter().zip(PLAN.iter()) {
        work += task.work();
        if checkpoint {
            segments.push(Segment::new(work, task.checkpoint(), protecting).unwrap());
            protecting = task.recovery();
            work = 0.0;
        }
    }
    segments
}

/// Scripted failure times for `corner`:
/// 0. exactly at the attempt ends of the `PLAN` segments (which must not
///    interrupt the fixed engine or the fixed-flags policy);
/// 1. exactly at every phase end of the "always" timeline (which must not
///    interrupt the always-checkpoint policy);
/// 2. bursts that strike inside a phase, again inside the following
///    downtime, exactly at the downtime's end, inside the recovery and
///    exactly at the recovery's end;
/// 3. a dense train of failures.
fn scripts(corner: Corner) -> Vec<Vec<f64>> {
    let mut segment_ends = Vec::new();
    let mut planned = 0.0;
    for segment in segments(corner) {
        planned += segment.attempt_duration();
        segment_ends.push(planned);
    }
    let mut phase_ends = Vec::new();
    let mut always = 0.0;
    for task in chain(corner) {
        always += task.work();
        phase_ends.push(always);
        always += task.checkpoint();
        phase_ends.push(always);
    }
    let (d, r0) = (corner.downtime, corner.initial_recovery);
    let burst = |at: f64, recovery: f64| {
        vec![at, at + 0.5 * d, at + d, at + d + 0.5 * recovery, at + 2.0 * d + 1.5 * recovery]
    };
    let mut scripts = vec![segment_ends, phase_ends];
    for at in [100.0, WORKS[0] + 0.5 * CKPT_SCALE[0] * corner.checkpoint, 600.0, 1_000.0] {
        scripts.push(burst(at, r0.max(REC_SCALE[0] * corner.recovery)));
    }
    let mut clustered: Vec<f64> = (1..40).map(|k| 37.0 * f64::from(k)).collect();
    clustered.extend([WORKS[0], WORKS[0] + WORKS[1], 900.0 + d]);
    scripts.push(clustered);
    for script in &mut scripts {
        script.sort_by(f64::total_cmp);
    }
    scripts
}

/// Every stream of the grid for `corner`: 50 Exponential seeds, then the
/// scripts.
fn streams(corner: Corner) -> Vec<Box<dyn FailureStream>> {
    let mut streams: Vec<Box<dyn FailureStream>> = (0..50u64)
        .map(|seed| Box::new(ExponentialStream::new(1.0 / 700.0, seed)) as Box<dyn FailureStream>)
        .collect();
    for script in scripts(corner) {
        streams.push(Box::new(ScriptedStream::new(script)));
    }
    streams
}

struct Never;
impl Policy for Never {
    fn decide(&mut self, _ctx: &DecisionContext<'_>) -> bool {
        false
    }
}

struct Always;
impl Policy for Always {
    fn decide(&mut self, _ctx: &DecisionContext<'_>) -> bool {
        true
    }
}

struct Flags;
impl Policy for Flags {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> bool {
        PLAN[ctx.position]
    }
}

/// Checkpoints once the work exposed since the last checkpoint (measured on
/// the clock) exceeds a budget that shrinks with every observed failure, and
/// always right after a failure younger than 200 s.
struct Stateful {
    calls: u64,
}
impl Policy for Stateful {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> bool {
        self.calls += 1;
        let exposed = ctx.resume_position().abs_diff(ctx.position + 1) as f64;
        let budget = 2.5 / (1.0 + ctx.failures_observed() as f64);
        let recent = ctx.failure_times.last().is_some_and(|&f| ctx.clock - f < 200.0);
        let parity = (ctx.clock.to_bits() >> 7) & 1 == 1 && ctx.last_checkpoint.is_none();
        exposed > budget || recent || (parity && self.calls.is_multiple_of(3))
    }
}

/// Builds a fresh policy for one run.
type MakePolicy = fn() -> Box<dyn Policy>;

fn policies() -> Vec<(&'static str, MakePolicy)> {
    vec![
        ("never", || Box::new(Never)),
        ("always", || Box::new(Always)),
        ("flags", || Box::new(Flags)),
        ("stateful", || Box::new(Stateful { calls: 0 })),
    ]
}

fn fixed_digests() -> (u64, u64) {
    let (mut plain, mut logged) = (Digest::new(), Digest::new());
    for corner in corners() {
        let segments = segments(corner);
        for (mut a, mut b) in streams(corner).into_iter().zip(streams(corner)) {
            plain.record(&simulate(&segments, corner.downtime, a.as_mut()).unwrap());
            let log = simulate_with_log(&segments, corner.downtime, b.as_mut()).unwrap();
            logged.float(log.makespan);
            logged.word(log.failures);
            logged.events(&log.events);
        }
    }
    (plain.0, logged.0)
}

fn policy_digests(make: MakePolicy) -> (u64, u64) {
    let (mut plain, mut logged) = (Digest::new(), Digest::new());
    for corner in corners() {
        let tasks = chain(corner);
        let (r0, d) = (corner.initial_recovery, corner.downtime);
        for (mut a, mut b) in streams(corner).into_iter().zip(streams(corner)) {
            let out = simulate_policy(&tasks, r0, d, &mut make(), a.as_mut()).unwrap();
            plain.policy_record(&out);
            let log = simulate_policy_with_log(&tasks, r0, d, &mut make(), b.as_mut()).unwrap();
            logged.policy_record(&log.outcome);
            logged.events(&log.events);
        }
    }
    (plain.0, logged.0)
}

#[test]
fn fixed_schedule_engine_output_is_pinned() {
    let (plain, logged) = fixed_digests();
    assert_eq!(plain, 0xe572_4af6_e256_a6c4, "simulate digest {plain:#018x}");
    assert_eq!(logged, 0x4f8d_55dd_a417_a822, "simulate_with_log digest {logged:#018x}");
}

#[test]
fn chain_policy_engine_output_is_pinned() {
    let expected: [(&str, u64, u64); 4] = [
        ("never", 0x6af5_b304_e3fe_7d8c, 0xefae_62bc_deca_b218),
        ("always", 0x12aa_335c_d9ef_5759, 0xc89e_bd5f_917a_164b),
        ("flags", 0xd3bc_38e7_00c5_cde3, 0xd34e_8595_2d32_c9a0),
        ("stateful", 0x9030_c6c4_ff3e_a3e9, 0x925c_89b4_b00e_23ba),
    ];
    let mut actual = Vec::new();
    for ((name, make), (expected_name, _, _)) in policies().into_iter().zip(expected) {
        assert_eq!(name, expected_name);
        let (plain, logged) = policy_digests(make);
        actual.push((name, plain, logged));
    }
    for ((name, plain, logged), (_, want_plain, want_logged)) in actual.iter().zip(expected) {
        assert_eq!(*plain, want_plain, "{name}: simulate_policy digest {plain:#018x}");
        assert_eq!(*logged, want_logged, "{name}: simulate_policy_with_log digest {logged:#018x}");
    }
}

/// The grid really reaches the edges it claims to: failures during
/// recovery, failures exactly at a phase end that do not interrupt, and
/// every policy both checkpointing and skipping somewhere.
#[test]
fn the_grid_exercises_the_edges() {
    let mut recovery_failures = 0;
    let mut uninterrupted_phase_ends = 0;
    for corner in corners() {
        let segments = segments(corner);
        let scripts = scripts(corner);
        let mut stream = ScriptedStream::new(scripts[0].clone());
        let record = simulate(&segments, corner.downtime, &mut stream).unwrap();
        let mut stream = ScriptedStream::new(scripts[1].clone());
        let always = simulate_policy(
            &chain(corner),
            corner.initial_recovery,
            corner.downtime,
            &mut Always,
            &mut stream,
        )
        .unwrap();
        if record.failures == 0 && always.record.failures == 0 {
            uninterrupted_phase_ends += 1;
        }
        for script in &scripts[2..] {
            let log = simulate_with_log(
                &segments,
                corner.downtime,
                &mut ScriptedStream::new(script.clone()),
            )
            .unwrap();
            let mut in_recovery = false;
            for event in &log.events {
                match event {
                    ExecutionEvent::Failure { .. } if in_recovery => recovery_failures += 1,
                    ExecutionEvent::DowntimeCompleted { .. } => in_recovery = true,
                    _ => in_recovery = false,
                }
            }
        }
    }
    assert_eq!(uninterrupted_phase_ends, 16, "phase-end failures must not interrupt");
    assert!(recovery_failures > 0, "no failure struck during a recovery");
    for (name, make) in policies() {
        let (mut taken, mut skipped) = (0, 0);
        for corner in corners() {
            for mut stream in streams(corner) {
                let log = simulate_policy_with_log(
                    &chain(corner),
                    corner.initial_recovery,
                    corner.downtime,
                    &mut make(),
                    stream.as_mut(),
                )
                .unwrap();
                for event in &log.events {
                    if let ExecutionEvent::PolicyDecision { checkpoint, .. } = event {
                        if *checkpoint {
                            taken += 1;
                        } else {
                            skipped += 1;
                        }
                    }
                }
            }
        }
        match name {
            "never" => assert_eq!(taken, 0),
            "always" => assert_eq!(skipped, 0),
            _ => assert!(taken > 0 && skipped > 0, "{name} must both take and skip"),
        }
    }
}
