//! The machine-speed probe: a fixed kernel, independent of the program,
//! timed between calls so that wall times can be scaled to one reference
//! speed of the machine.
//!
//! On a shared 2-vCPU host the same code runs up to 45 % slower in
//! episodes that last from seconds to minutes (see `README.md`), and a run
//! of fixed length cannot average minute-long episodes away. The probe is
//! slowed by the same episodes, so each call's wall time is multiplied by
//! [`NOMINAL_US`] over the probe readings taken just before and just after
//! it. The kernel mixes what the engines, the DP and the service do — a
//! random stream, `ln`, `exp`, an unpredictable branch and stores — over a
//! buffer that stays in the per-core L2 cache. It warms its buffer before
//! each timed reading, so a program that leaves the caches cold does not
//! slow the probe and read as faster.

use std::time::{Duration, Instant};

/// The probe's reading on an idle vCPU of the reference machine (2-vCPU
/// Intel Xeon VM): the speed every scaled time refers to.
pub const NOMINAL_US: f64 = 1_000.0;

/// The least wall time between two readings during calls.
const PERIOD: Duration = Duration::from_millis(40);

/// Entries of the probe's buffer: 128 KiB, within the per-core L2 cache.
const BUFFER: usize = 16_384;

/// Timed passes over the buffer per reading.
const PASSES: usize = 2;

/// Probe readings over one pass of a workload.
pub struct Probe {
    buffer: Vec<f64>,
    readings: Vec<f64>,
    last: Instant,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with no readings yet.
    pub fn new() -> Self {
        Probe { buffer: vec![0.0; BUFFER], readings: Vec::new(), last: Instant::now() }
    }

    /// Takes a reading now: one untimed pass to warm the buffer, then
    /// [`PASSES`] timed passes. Returns the reading's index.
    pub fn read(&mut self) -> usize {
        std::hint::black_box(kernel(&mut self.buffer, 1));
        let started = Instant::now();
        std::hint::black_box(kernel(&mut self.buffer, PASSES));
        self.readings.push(started.elapsed().as_secs_f64() * 1e6);
        self.last = Instant::now();
        self.readings.len() - 1
    }

    /// Takes a reading if [`PERIOD`] has passed since the last one.
    pub fn read_if_due(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.read();
        }
    }

    /// The index of the latest reading.
    pub fn latest(&self) -> usize {
        self.readings.len() - 1
    }

    /// How much slower than nominal the machine ran between readings
    /// `before` and `before + 1`: their mean over [`NOMINAL_US`].
    pub fn slowdown(&self, before: usize) -> f64 {
        (self.readings[before] + self.readings[before + 1]) / (2.0 * NOMINAL_US)
    }

    /// The mean of every reading over [`NOMINAL_US`].
    pub fn mean_slowdown(&self) -> f64 {
        self.readings.iter().sum::<f64>() / (self.readings.len().max(1) as f64 * NOMINAL_US)
    }
}

/// `passes` passes of a xorshift stream over `buffer`: each entry takes an
/// exponential draw or, about half the time, an `exp` of itself.
fn kernel(buffer: &mut [f64], passes: usize) -> f64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0.0;
    for pass in 0..passes {
        for (i, slot) in buffer.iter_mut().enumerate() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
            let uniform = (bits as f64 + 0.5) / (1u64 << 53) as f64;
            let draw = -uniform.ln() * 400.0;
            *slot = if draw < 300.0 {
                *slot * 0.5 + draw
            } else {
                (*slot * 1e-3).exp().min(1e6) + (i + pass) as f64
            };
            sum += *slot;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_indexed_in_order() {
        let mut probe = Probe::new();
        assert_eq!(probe.read(), 0);
        assert_eq!(probe.latest(), 0);
        assert_eq!(probe.read(), 1);
        assert!(probe.slowdown(0) > 0.0 && probe.slowdown(0).is_finite());
        assert!(probe.mean_slowdown() > 0.0);
    }

    #[test]
    fn kernel_stays_finite() {
        let mut buffer = vec![0.0; BUFFER];
        for _ in 0..4 {
            assert!(kernel(&mut buffer, PASSES).is_finite());
        }
    }
}
