//! Machine-level failure sources: the engine's view of *when machines fail*.
//!
//! The cluster engine consumes failures one machine at a time through
//! [`MachineFailureSource`] — the multi-machine generalisation of the
//! simulator's [`FailureStream`]. The production implementation is
//! [`ClusterFailureInjector`] (correlated shocks, repair intervals); the
//! [`ExponentialMachineSource`] wraps one independent [`ExponentialStream`]
//! per machine with instantaneous repair, reproducing the exact stream
//! semantics of the simulator's single-machine policy engine — it exists so
//! the degenerate single-machine cluster run can be compared **bitwise**
//! against [`simulate_policy`](ckpt_simulator::simulate_policy).

use ckpt_failure::ClusterFailureInjector;
use ckpt_simulator::{ExponentialStream, FailureStream};

/// Per-machine failure streams plus the repair protocol.
///
/// Queries per machine must use non-decreasing `after` values; candidates
/// beyond `after` may be re-returned (the [`FailureStream`] discipline,
/// machine by machine). [`begin_repair`](Self::begin_repair) tells the source
/// a machine failed at `at` and is being repaired; the returned instant is
/// when the machine can run jobs again, and no failure may be reported inside
/// the repair interval afterwards.
pub trait MachineFailureSource {
    /// Number of machines the source covers.
    fn machine_count(&self) -> usize;

    /// First failure of `machine` strictly after `after`.
    fn next_failure_after(&mut self, machine: usize, after: f64) -> f64;

    /// Machine `machine` failed at `at`; returns the repair-completion time
    /// (`at` itself when repair is instantaneous).
    fn begin_repair(&mut self, machine: usize, at: f64) -> f64;
}

impl MachineFailureSource for ClusterFailureInjector {
    fn machine_count(&self) -> usize {
        ClusterFailureInjector::machine_count(self)
    }

    fn next_failure_after(&mut self, machine: usize, after: f64) -> f64 {
        ClusterFailureInjector::next_failure_after(self, machine, after)
    }

    fn begin_repair(&mut self, machine: usize, at: f64) -> f64 {
        ClusterFailureInjector::begin_repair(self, machine, at)
    }
}

/// Independent per-machine Exponential streams with instantaneous repair.
///
/// Machine `m`'s stream is `ExponentialStream::new(lambda, seeds[m])` — the
/// exact stream the chain Monte-Carlo driver builds per trial. A
/// single-machine pool over this source makes the cluster engine degenerate
/// to [`simulate_policy`](ckpt_simulator::simulate_policy) seed for seed.
#[derive(Debug)]
pub struct ExponentialMachineSource {
    streams: Vec<ExponentialStream>,
}

impl ExponentialMachineSource {
    /// One stream per entry of `seeds`, all with platform rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite (the
    /// [`ExponentialStream`] contract).
    pub fn new(lambda: f64, seeds: &[u64]) -> Self {
        ExponentialMachineSource {
            streams: seeds.iter().map(|&s| ExponentialStream::new(lambda, s)).collect(),
        }
    }
}

impl MachineFailureSource for ExponentialMachineSource {
    fn machine_count(&self) -> usize {
        self.streams.len()
    }

    fn next_failure_after(&mut self, machine: usize, after: f64) -> f64 {
        self.streams[machine].next_failure_after(after).expect("exponential streams never exhaust")
    }

    fn begin_repair(&mut self, _machine: usize, at: f64) -> f64 {
        at
    }
}

/// A single machine of a [`MachineFailureSource`] viewed as a
/// [`FailureStream`], so the engine can drive the shared rollback helpers
/// (`run_phase` and friends) unchanged.
pub(crate) struct MachineStream<'a, S: MachineFailureSource + ?Sized> {
    source: &'a mut S,
    machine: usize,
}

impl<'a, S: MachineFailureSource + ?Sized> MachineStream<'a, S> {
    pub(crate) fn new(source: &'a mut S, machine: usize) -> Self {
        MachineStream { source, machine }
    }
}

impl<S: MachineFailureSource + ?Sized> FailureStream for MachineStream<'_, S> {
    fn next_failure_after(&mut self, after: f64) -> Option<f64> {
        Some(self.source.next_failure_after(self.machine, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_failure::Exponential;

    #[test]
    fn exponential_source_matches_plain_streams() {
        let lambda = 1.0 / 500.0;
        let seeds = [7u64, 8, 9];
        let mut source = ExponentialMachineSource::new(lambda, &seeds);
        assert_eq!(source.machine_count(), 3);
        for (m, &seed) in seeds.iter().enumerate() {
            let mut reference = ExponentialStream::new(lambda, seed);
            let mut after = 0.0;
            for _ in 0..50 {
                let f = source.next_failure_after(m, after);
                assert_eq!(f, reference.next_failure_after(after).unwrap());
                after = f;
            }
        }
    }

    #[test]
    fn exponential_source_repair_is_instantaneous() {
        let mut source = ExponentialMachineSource::new(0.001, &[1]);
        assert_eq!(source.begin_repair(0, 123.5), 123.5);
    }

    #[test]
    fn injector_implements_the_trait() {
        let law = Exponential::from_mtbf(100.0).unwrap();
        let mut injector = ClusterFailureInjector::homogeneous(2, law, 3).unwrap();
        let src: &mut dyn MachineFailureSource = &mut injector;
        assert_eq!(src.machine_count(), 2);
        let f = src.next_failure_after(0, 0.0);
        assert!(f > 0.0);
        assert_eq!(src.begin_repair(0, f), f);
    }

    #[test]
    fn machine_stream_adapts_one_machine() {
        let mut source = ExponentialMachineSource::new(1.0 / 200.0, &[4, 5]);
        let expect = {
            let mut reference = ExponentialStream::new(1.0 / 200.0, 5);
            reference.next_failure_after(10.0).unwrap()
        };
        let mut view = MachineStream::new(&mut source, 1);
        assert_eq!(view.next_failure_after(10.0), Some(expect));
    }
}
