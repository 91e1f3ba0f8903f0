//! The one sanctioned wall-clock site in the workspace.
//!
//! Simulation results must be a pure function of seed + configuration,
//! so `std::time` is banned (lint D1) everywhere except this module:
//! benches and harness binaries measure how long the *simulator* takes,
//! never what the simulated hardware does, and they all time through
//! the helpers here so the lint has exactly one justified allow site.

// lint:allow-file(D1): this module is the single sanctioned wall-clock
// site; every bench and harness binary times through it, keeping
// `std::time` out of simulation code.

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    #[must_use]
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Elapsed time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// Runs `f` for `iters / 10` warm-up iterations (at least one), then
/// `iters` timed iterations, returning the timed total.
pub fn warmed<F: FnMut()>(iters: u64, mut f: F) -> Duration {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let sw = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    sw.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed_ms() >= 0.0);
    }

    #[test]
    fn warmed_runs_warmup_then_timed() {
        let mut n = 0u64;
        let _ = warmed(100, || n += 1);
        assert_eq!(n, 110);
    }
}
