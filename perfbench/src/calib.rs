//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared. Over minutes, the same
//! code runs up to a third slower or faster as other tenants load the
//! machine, and every operation slows down together (a pure-ALU loop
//! drifts as much as the extractor does). A fixed kernel timed next to
//! each measured operation drifts with it, so each end-to-end timing
//! is reported as its ratio to the kernel time measured beside it,
//! scaled by the kernel's time on a quiet host of the kind the
//! benchmark was written on ([`REFERENCE_S`]). The raw medians are
//! printed beside the adjusted ones.

use std::time::Instant;

use crate::stats;

/// The kernel's time on a quiet 2-core Xeon host, in seconds: adjusted
/// timings read as what the operation takes on that host.
pub const REFERENCE_S: f64 = 0.005;

/// Elements the kernel generates and sorts.
const KERNEL_LEN: u64 = 1 << 18;

/// Runs the calibration kernel once (generate and sort a fixed
/// pseudo-random vector) and returns its wall time in seconds.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut v: Vec<u64> = (0..KERNEL_LEN)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    t.elapsed().as_secs_f64()
}

/// A timing paired with the kernel time measured beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    pub time: f64,
    pub kernel: f64,
}

/// Runs the kernel on `threads` threads at once and returns the
/// slowest one's time: the calibration for an operation that keeps
/// that many cores busy, whose time the slowest core sets. One thread
/// runs it on the calling thread.
pub fn kernel_on(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..threads).map(|_| scope.spawn(kernel)).collect();
        runs.into_iter()
            .map(|run| run.join().expect("the calibration kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Runs the kernel, then `f`, and pairs `f`'s time with the kernel's.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Paired, T) {
    timed_on(1, f)
}

/// [`timed`] for an operation that runs on `threads` threads.
pub fn timed_on<T>(threads: usize, f: impl FnOnce() -> T) -> (Paired, T) {
    let kernel = kernel_on(threads);
    let t = Instant::now();
    let out = f();
    let time = t.elapsed().as_secs_f64();
    (Paired { time, kernel }, out)
}

/// Median of the raw timings.
pub fn raw_median(samples: &[Paired]) -> Option<f64> {
    stats::median(&samples.iter().map(|p| p.time).collect::<Vec<_>>())
}

/// One timing scaled to the reference host: what it takes where the
/// kernel takes [`REFERENCE_S`].
pub fn adjusted(sample: &Paired) -> f64 {
    sample.time / sample.kernel * REFERENCE_S
}

/// Median of the [`adjusted`] timings.
pub fn adjusted_median(samples: &[Paired]) -> Option<f64> {
    stats::median(&samples.iter().map(adjusted).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniform_slowdown_cancels_out() {
        let quiet: Vec<Paired> = [0.10, 0.11, 0.12]
            .iter()
            .map(|&t| Paired {
                time: t,
                kernel: REFERENCE_S,
            })
            .collect();
        let loaded: Vec<Paired> = quiet
            .iter()
            .map(|p| Paired {
                time: p.time * 1.4,
                kernel: p.kernel * 1.4,
            })
            .collect();
        let a = adjusted_median(&quiet).unwrap();
        let b = adjusted_median(&loaded).unwrap();
        assert!((a - 0.11).abs() < 1e-12 && (b - 0.11).abs() < 1e-12);
        assert!((raw_median(&loaded).unwrap() - 0.154).abs() < 1e-12);
    }
}
