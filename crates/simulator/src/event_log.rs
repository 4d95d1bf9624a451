//! Instrumented simulation: [`crate::engine::simulate`]'s loop with logging
//! on, producing a detailed event log.
//!
//! The event log is what an operator (or a debugging session) would want to
//! look at: when each segment started, when failures struck, how long each
//! downtime/recovery took, when checkpoints completed. The engine loops
//! send their events to an `EventSink`: `()` for the plain runs, which
//! therefore compile to no logging code, and a `Vec` for the logged ones.

use crate::engine::simulate_into;
use crate::error::SimulationError;
use crate::segment::Segment;
use crate::stream::FailureStream;

/// One event in the simulated execution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ExecutionEvent {
    /// A segment attempt started (work + checkpoint).
    AttemptStarted {
        /// Index of the segment in the schedule.
        segment: usize,
        /// Simulated time at which the attempt started.
        time: f64,
    },
    /// A failure interrupted the current attempt or recovery.
    Failure {
        /// Index of the segment being executed or recovered.
        segment: usize,
        /// Simulated time of the failure.
        time: f64,
        /// Time wasted since the attempt (or recovery) started.
        wasted: f64,
    },
    /// A downtime completed.
    DowntimeCompleted {
        /// Index of the affected segment.
        segment: usize,
        /// Simulated time at which the platform became available again.
        time: f64,
    },
    /// A recovery completed successfully.
    RecoveryCompleted {
        /// Index of the affected segment.
        segment: usize,
        /// Simulated time at which the recovery finished.
        time: f64,
    },
    /// A segment completed, including its checkpoint.
    SegmentCompleted {
        /// Index of the completed segment.
        segment: usize,
        /// Simulated time at which the segment (and its checkpoint) finished.
        time: f64,
    },
    /// An online policy decided whether to checkpoint after a task
    /// (policy-driven simulations only, see [`crate::policy`]; the fixed
    /// schedule runners never emit it). For these events `segment` is the
    /// **task position** in the chain.
    PolicyDecision {
        /// Position of the just-completed task the decision concerns.
        segment: usize,
        /// Simulated time of the decision.
        time: f64,
        /// Whether the policy chose to checkpoint.
        checkpoint: bool,
    },
}

impl ExecutionEvent {
    /// The simulated time of the event.
    pub fn time(&self) -> f64 {
        match *self {
            ExecutionEvent::AttemptStarted { time, .. }
            | ExecutionEvent::Failure { time, .. }
            | ExecutionEvent::DowntimeCompleted { time, .. }
            | ExecutionEvent::RecoveryCompleted { time, .. }
            | ExecutionEvent::SegmentCompleted { time, .. }
            | ExecutionEvent::PolicyDecision { time, .. } => time,
        }
    }
}

/// The outcome of an instrumented simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedExecution {
    /// Total wall-clock time of the execution.
    pub makespan: f64,
    /// Number of failures observed.
    pub failures: u64,
    /// The chronological event log.
    pub events: Vec<ExecutionEvent>,
}

impl LoggedExecution {
    /// The events concerning a given segment, in order.
    pub fn events_for_segment(&self, segment: usize) -> Vec<ExecutionEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| match *e {
                ExecutionEvent::AttemptStarted { segment: s, .. }
                | ExecutionEvent::Failure { segment: s, .. }
                | ExecutionEvent::DowntimeCompleted { segment: s, .. }
                | ExecutionEvent::RecoveryCompleted { segment: s, .. }
                | ExecutionEvent::SegmentCompleted { segment: s, .. }
                | ExecutionEvent::PolicyDecision { segment: s, .. } => s == segment,
            })
            .collect()
    }

    /// The number of attempts made for a given segment (1 = no failure during
    /// that segment's work or checkpoint).
    pub fn attempts_for_segment(&self, segment: usize) -> usize {
        self.events_for_segment(segment)
            .iter()
            .filter(|e| matches!(e, ExecutionEvent::AttemptStarted { .. }))
            .count()
    }
}

/// Where an engine loop sends its events.
pub(crate) trait EventSink {
    /// Records one event.
    fn record(&mut self, event: ExecutionEvent);
}

/// The plain runs: events are dropped, and so is the code building them.
impl EventSink for () {
    #[inline(always)]
    fn record(&mut self, _event: ExecutionEvent) {}
}

/// The logged runs: events are appended in chronological order.
impl EventSink for Vec<ExecutionEvent> {
    fn record(&mut self, event: ExecutionEvent) {
        self.push(event);
    }
}

/// Simulates `segments` with full event logging.
///
/// # Errors
///
/// Same contract as [`crate::engine::simulate`].
pub fn simulate_with_log<S: FailureStream + ?Sized>(
    segments: &[Segment],
    downtime: f64,
    stream: &mut S,
) -> Result<LoggedExecution, SimulationError> {
    let mut events = Vec::new();
    let record = simulate_into(segments, downtime, stream, &mut events)?;
    Ok(LoggedExecution { makespan: record.makespan, failures: record.failures, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::stream::{ExponentialStream, NoFailureStream, ScriptedStream};

    fn seg(work: f64, ckpt: f64, rec: f64) -> Segment {
        Segment::new(work, ckpt, rec).unwrap()
    }

    #[test]
    fn validation_matches_engine() {
        let mut stream = NoFailureStream;
        assert!(simulate_with_log(&[], 0.0, &mut stream).is_err());
        assert!(simulate_with_log(&[seg(1.0, 0.0, 0.0)], -1.0, &mut stream).is_err());
    }

    #[test]
    fn failure_free_log_has_one_attempt_per_segment() {
        let segments = vec![seg(100.0, 10.0, 5.0), seg(200.0, 20.0, 10.0)];
        let mut stream = NoFailureStream;
        let log = simulate_with_log(&segments, 30.0, &mut stream).unwrap();
        assert_eq!(log.makespan, 330.0);
        assert_eq!(log.failures, 0);
        assert_eq!(log.attempts_for_segment(0), 1);
        assert_eq!(log.attempts_for_segment(1), 1);
        assert_eq!(log.events.len(), 4); // 2 starts + 2 completions
                                         // Events are chronologically ordered.
        assert!(log.events.windows(2).all(|w| w[0].time() <= w[1].time()));
    }

    #[test]
    fn scripted_failure_produces_the_expected_event_sequence() {
        // Same scenario as the engine test: failure at t=30, downtime 5,
        // recovery 20, then a clean re-attempt.
        let mut stream = ScriptedStream::new(vec![30.0]);
        let log = simulate_with_log(&[seg(100.0, 10.0, 20.0)], 5.0, &mut stream).unwrap();
        assert_eq!(log.failures, 1);
        assert!((log.makespan - 165.0).abs() < 1e-12);
        assert_eq!(log.attempts_for_segment(0), 2);
        let kinds: Vec<&'static str> = log
            .events
            .iter()
            .map(|e| match e {
                ExecutionEvent::AttemptStarted { .. } => "start",
                ExecutionEvent::Failure { .. } => "failure",
                ExecutionEvent::DowntimeCompleted { .. } => "downtime",
                ExecutionEvent::RecoveryCompleted { .. } => "recovery",
                ExecutionEvent::SegmentCompleted { .. } => "done",
                ExecutionEvent::PolicyDecision { .. } => "decision",
            })
            .collect();
        assert_eq!(kinds, vec!["start", "failure", "downtime", "recovery", "start", "done"]);
    }

    #[test]
    fn logged_and_plain_simulation_agree_on_random_streams() {
        let segments = vec![seg(500.0, 60.0, 30.0), seg(900.0, 45.0, 60.0), seg(200.0, 20.0, 40.0)];
        for seed in 0..20u64 {
            let mut s1 = ExponentialStream::new(1.0 / 800.0, seed);
            let mut s2 = ExponentialStream::new(1.0 / 800.0, seed);
            let plain = simulate(&segments, 25.0, &mut s1).unwrap();
            let logged = simulate_with_log(&segments, 25.0, &mut s2).unwrap();
            assert_eq!(plain.makespan.to_bits(), logged.makespan.to_bits(), "seed {seed}");
            assert_eq!(plain.failures, logged.failures, "seed {seed}");
        }
    }

    #[test]
    fn failure_count_matches_failure_events() {
        let mut stream = ScriptedStream::new(vec![20.0, 60.0, 400.0]);
        let log = simulate_with_log(&[seg(100.0, 0.0, 50.0)], 10.0, &mut stream).unwrap();
        let failure_events =
            log.events.iter().filter(|e| matches!(e, ExecutionEvent::Failure { .. })).count()
                as u64;
        assert_eq!(log.failures, failure_events);
    }
}
