//! Shared host-driver machinery: run records, verification, and repeated-run
//! sampling.

use crate::real::Real;
use gpu_sim::timing::JitterModel;
use gpu_sim::{ExecutionProfile, IStr, KernelCost, LaunchTiming};
use hpc_metrics::RunStats;
use serde::{Deserialize, Serialize};

/// Outcome of comparing a simulated kernel's output with the CPU reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verification {
    /// Output matched the reference within tolerance.
    Passed {
        /// Largest absolute element-wise error observed.
        max_abs_error: f64,
    },
    /// Functional execution was skipped (problem too large to run on the
    /// host within the experiment budget); the cost model is still exact.
    Skipped {
        /// Why functional execution was skipped. Interned: skip reasons are
        /// drawn from a small fixed set, so repeated runs re-use one string.
        reason: IStr,
    },
}

impl Verification {
    /// Whether the run either verified or was deliberately skipped
    /// (i.e. not a failure).
    pub fn is_ok(&self) -> bool {
        true
    }

    /// Whether the run was actually verified against the reference.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verification::Passed { .. })
    }
}

/// The complete record of one kernel execution on one platform: what ran,
/// what it cost, how long the model says it took, and whether the numerics
/// were checked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Backend label ("Mojo", "CUDA", "CUDA fast-math", "HIP", …). Interned
    /// so that building and cloning run records never allocates once warm.
    pub backend: IStr,
    /// Device name (e.g. "NVIDIA H100 NVL - 94 GB"). Interned.
    pub device: IStr,
    /// Kernel name. Interned.
    pub kernel: IStr,
    /// Analytic launch cost.
    pub cost: KernelCost,
    /// Backend execution profile used for timing.
    pub profile: ExecutionProfile,
    /// Simulated kernel timing.
    pub timing: LaunchTiming,
    /// Verification outcome.
    pub verification: Verification,
}

impl WorkloadRun {
    /// Kernel duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.timing.seconds
    }

    /// Kernel duration in milliseconds.
    pub fn millis(&self) -> f64 {
        self.timing.millis()
    }

    /// Draws `iterations` jittered per-run durations (seconds), discarding a
    /// warm-up iteration first, the way the paper's methodology prescribes
    /// ("we discarded the first step in our measurements").
    pub fn sample_durations(&self, iterations: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let mut jitter = JitterModel::new(sigma, seed ^ fxhash(&self.backend, &self.kernel));
        // Warm-up draw, discarded.
        let _ = jitter.sample();
        (0..iterations)
            .map(|_| jitter.jitter_seconds(self.timing.seconds))
            .collect()
    }

    /// Summary statistics of `iterations` jittered runs.
    pub fn duration_stats(&self, iterations: usize, sigma: f64, seed: u64) -> RunStats {
        RunStats::from_samples(&self.sample_durations(iterations, sigma, seed))
    }
}

/// Small deterministic string hash so different backend/kernel combinations
/// get decorrelated jitter streams from the same user seed.
fn fxhash(a: &str, b: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in a.bytes().chain(b.bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Compares a kernel output against a reference, element by element, and
/// returns the maximum absolute error, or an error message naming the first
/// element whose relative error (scaled by `max(|expected|, 1)`) exceeds
/// `tolerance` or is NaN.
///
/// Both sides are widened to `f64` per element, so `actual` can be a device
/// view ([`gpu_sim::DeviceBuffer::as_slice`]) checked in place, with no
/// staged copy of either side. Only a failing output pays a second pass, to
/// find the element to name.
pub fn compare_with_reference<T: Real, E: Real>(
    actual: &[T],
    expected: &[E],
    tolerance: f64,
) -> Result<f64, String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    let check = |i: usize| {
        let (a, e) = (actual[i].to_f64(), expected[i].to_f64());
        let err = (a - e).abs();
        let rel = err / e.abs().max(1.0);
        (err, rel, rel > tolerance || rel.is_nan())
    };
    let (max_err, failed) = max_and_any(actual.len(), |i| {
        let (err, _, fails) = check(i);
        (err, fails)
    });
    if !failed {
        return Ok(max_err);
    }
    let i = (0..actual.len())
        .find(|&i| check(i).2)
        .expect("a failed scan has a failing element");
    let (a, e, rel) = (actual[i].to_f64(), expected[i].to_f64(), check(i).1);
    Err(format!(
        "element {i} differs: got {a}, expected {e} (relative error {rel:.3e})"
    ))
}

/// Checks that every element of `actual` equals the constant `expected`
/// within the relative `tolerance` (scaled by `max(|expected|, 1)`), and
/// returns the maximum relative error, or an error message naming the first
/// element that exceeds `tolerance` or is NaN.
///
/// Scans a slice (typically a device view checked in place). Dividing by the
/// fixed scale is monotone, so the largest deviation divided once equals the
/// largest per-element relative error bit for bit.
pub fn verify_constant<T: Real>(
    actual: &[T],
    expected: f64,
    tolerance: f64,
) -> Result<f64, String> {
    let scale = expected.abs().max(1.0);
    let deviation = |i: usize| (actual[i].to_f64() - expected).abs();
    let (max_dev, nan) = max_and_any(actual.len(), |i| {
        let dev = deviation(i);
        (dev, dev.is_nan())
    });
    let rel = max_dev / scale;
    if rel <= tolerance && !nan {
        return Ok(rel);
    }
    let fails = |i: usize| {
        let rel = deviation(i) / scale;
        rel > tolerance || rel.is_nan()
    };
    let i = (0..actual.len())
        .find(|&i| fails(i))
        .expect("a failed scan has a failing element");
    Err(format!(
        "element {i} differs: got {}, expected {expected} (relative error {:.3e})",
        actual[i].to_f64(),
        deviation(i) / scale
    ))
}

/// Folds `item(i)` for `i in 0..len` into the maximum of its first half
/// (NaN ignored, as [`f64::max`] ignores it; `0.0` when empty) and whether
/// any second half was `true`.
///
/// Eight independent accumulators break the dependency chain of a serial
/// max, which otherwise bounds a verification scan at one element per
/// `max` latency. Max is exact and order-independent, so the result equals
/// the serial fold bit for bit.
#[inline]
fn max_and_any(len: usize, item: impl Fn(usize) -> (f64, bool)) -> (f64, bool) {
    const LANES: usize = 8;
    let mut max = [0.0f64; LANES];
    let mut any = [false; LANES];
    let body = len - len % LANES;
    for base in (0..body).step_by(LANES) {
        for lane in 0..LANES {
            let (value, flag) = item(base + lane);
            max[lane] = max[lane].max(value);
            any[lane] |= flag;
        }
    }
    for i in body..len {
        let (value, flag) = item(i);
        max[0] = max[0].max(value);
        any[0] |= flag;
    }
    (max.into_iter().fold(0.0, f64::max), any.contains(&true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stats::AccessPattern;
    use gpu_sim::{LaunchConfig, TimingModel};
    use gpu_spec::{presets, Precision};

    fn dummy_run() -> WorkloadRun {
        let cost = KernelCost::builder(
            "copy",
            Precision::Fp64,
            LaunchConfig::cover_1d(1024, 256),
            AccessPattern::Stream,
        )
        .dram_traffic(8192, 8192)
        .build();
        let profile = ExecutionProfile::ideal("Mojo");
        let timing = TimingModel::new(presets::test_device()).estimate(&cost, &profile);
        WorkloadRun {
            backend: gpu_sim::istr("Mojo"),
            device: gpu_sim::istr("test"),
            kernel: gpu_sim::istr("copy"),
            cost,
            profile,
            timing,
            verification: Verification::Passed { max_abs_error: 0.0 },
        }
    }

    #[test]
    fn sampled_durations_are_deterministic_and_near_the_estimate() {
        let run = dummy_run();
        let a = run.sample_durations(50, 0.02, 7);
        let b = run.sample_durations(50, 0.02, 7);
        assert_eq!(a, b);
        for d in &a {
            assert!((d / run.seconds() - 1.0).abs() < 0.2);
        }
        let stats = run.duration_stats(50, 0.02, 7);
        assert_eq!(stats.count, 50);
        assert!(stats.min > 0.0);
    }

    #[test]
    fn different_kernels_get_different_jitter_streams() {
        let run = dummy_run();
        let mut other = dummy_run();
        other.kernel = gpu_sim::istr("add");
        assert_ne!(
            run.sample_durations(10, 0.02, 7),
            other.sample_durations(10, 0.02, 7)
        );
    }

    #[test]
    fn compare_slices_accepts_within_tolerance() {
        let max = compare_with_reference(&[1.0, 2.0, 3.0], &[1.0, 2.0 + 1e-12, 3.0], 1e-9).unwrap();
        assert!(max <= 1e-11);
        let max = compare_with_reference(&[1.0f32, 2.5], &[1.0f32, 2.5], 1e-6).unwrap();
        assert_eq!(max, 0.0);
    }

    #[test]
    fn compare_slices_rejects_large_errors_and_length_mismatch() {
        assert!(compare_with_reference(&[1.0], &[2.0], 1e-6).is_err());
        assert!(compare_with_reference(&[1.0, 2.0], &[1.0], 1e-6).is_err());
        assert!(compare_with_reference(&[1.0f32], &[1.5f32], 1e-3).is_err());
        assert!(compare_with_reference(&[f64::NAN], &[1.0], 1e-3).is_err());
    }

    fn device() -> gpu_sim::Device {
        gpu_sim::Device::new(presets::test_device())
    }

    #[test]
    fn in_place_comparison_names_the_one_corrupted_element() {
        let expected: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.25).collect();
        let buf = device().alloc_from_host(&expected).unwrap();
        assert_eq!(
            compare_with_reference(buf.as_slice(), &expected, 1e-12),
            Ok(0.0)
        );
        buf.write(613, expected[613] + 1.0);
        let msg = compare_with_reference(buf.as_slice(), &expected, 1e-12).unwrap_err();
        assert!(msg.starts_with("element 613 differs"), "{msg}");
    }

    #[test]
    fn constant_check_names_the_one_corrupted_element() {
        let buf = device().alloc::<f32>(4096).unwrap();
        buf.fill(0.3);
        assert!(verify_constant(buf.as_slice(), 0.3f32.to_f64(), 0.0).is_ok());
        buf.write(2049, 0.31);
        let msg = verify_constant(buf.as_slice(), 0.3f32.to_f64(), 5e-4).unwrap_err();
        assert!(msg.starts_with("element 2049 differs"), "{msg}");
        buf.write(7, f32::NAN);
        let msg = verify_constant(buf.as_slice(), 0.3f32.to_f64(), 5e-4).unwrap_err();
        assert!(msg.starts_with("element 7 differs"), "{msg}");
    }

    #[test]
    fn verification_helpers() {
        assert!(Verification::Passed { max_abs_error: 0.0 }.is_verified());
        assert!(!Verification::Skipped {
            reason: gpu_sim::istr("too large")
        }
        .is_verified());
        assert!(Verification::Skipped {
            reason: gpu_sim::istr("x")
        }
        .is_ok());
    }
}
