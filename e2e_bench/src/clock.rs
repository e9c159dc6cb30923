//! Timing on a shared host.
//!
//! On a machine shared with other tenants, the CPU speed this process gets
//! moves by tens of percent within seconds. A fixed calibration kernel run
//! right before each measured call, on as many threads as the call uses,
//! measures the speed of that moment. The call's wall time, scaled by
//! [`REFERENCE_S`] over the kernel's time, is its time at the reference
//! speed. A change to the engine moves that normalized time as much as the
//! raw time; a change in the host's speed moves only the raw time.
//!
//! The kernel uses only the standard library, so no change to the engine
//! can change it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel time, in seconds, that defines the reference speed:
/// normalized seconds are wall seconds on a host where one kernel run
/// takes this long.
pub const REFERENCE_S: f64 = 0.002;

/// Keys sorted and counted per kernel round.
const KERNEL_KEYS: u64 = 20_000;
/// Rounds per kernel run.
const KERNEL_ROUNDS: usize = 3;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time, seconds.
    pub raw: f64,
    /// Wall time at the reference speed, seconds.
    pub norm: f64,
}

impl Sample {
    /// `norm ÷ raw`: what scales this call's other times to the
    /// reference speed.
    pub fn speed_factor(&self) -> f64 {
        if self.raw > 0.0 {
            self.norm / self.raw
        } else {
            1.0
        }
    }
}

/// Integer arithmetic, a sort and hash-map updates: the mix of work the
/// engine's SAT, BDD and netlist code does.
fn kernel() -> u64 {
    let mut total = 0u64;
    for round in 0..KERNEL_ROUNDS as u64 {
        let mut keys: Vec<u64> = (0..KERNEL_KEYS)
            .map(|i| (i ^ round).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
            .collect();
        keys.sort_unstable();
        let mut counts: HashMap<u64, u64> = HashMap::with_capacity(4096);
        for (i, key) in keys.iter().enumerate() {
            *counts.entry(key % 4096).or_insert(0) += i as u64;
        }
        total = total.wrapping_add(counts.values().sum::<u64>());
    }
    total
}

/// Wall time, seconds, of the kernel run on `threads` threads at once.
pub fn calibrate(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| black_box(kernel()));
        }
        black_box(kernel());
    });
    t0.elapsed().as_secs_f64()
}

/// Times `f` right after a calibration on `threads` threads.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (Sample, T) {
    let kernel_s = calibrate(threads);
    let t0 = Instant::now();
    let out = f();
    let raw = t0.elapsed().as_secs_f64();
    let norm = raw * REFERENCE_S / kernel_s;
    (Sample { raw, norm }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn timed_scales_by_the_calibration() {
        let (sample, value) = timed(1, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(value, 7);
        assert!(sample.raw >= 0.005);
        assert!(sample.norm > 0.0);
        let factor = sample.speed_factor();
        assert!((sample.raw * factor - sample.norm).abs() < 1e-12);
        assert!(calibrate(2) > 0.0);
    }
}
