//! Vendor-baseline (CUDA/HIP style) BabelStream implementation.
//!
//! Mirrors the structure of the optimised CUDA/HIP BabelStream codes the
//! paper compares against: raw device buffers, the vendor's block-count
//! heuristic for the Dot reduction (4 blocks per SM/CU), and kernels launched
//! directly on the simulator rather than through the portable `DeviceContext`.

use super::config::{BabelStreamConfig, INIT_A, INIT_B, INIT_C, SCALAR};
use super::cost::stream_cost;
use super::reference::expected_values;
use crate::cache;
use crate::common::{verify_constant, Verification, WorkloadRun};
use crate::real::Real;
use gpu_sim::memory::DeviceBuffer;
use gpu_sim::{istr, launch_flat, CoopKernel, CoopLaunch, Dim3, PhaseOutcome, SimError, ThreadCtx};
use rayon::prelude::*;
use vendor_models::kernel_class::StreamOp;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs one BabelStream operation with the vendor baseline.
pub fn run_vendor(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
) -> Result<WorkloadRun, SimError> {
    let cost = stream_cost(platform, op, config);
    let class = KernelClass::Stream {
        op,
        precision: config.precision,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.validate {
        match config.precision {
            gpu_spec::Precision::Fp32 => execute::<f32>(platform, op, config)?,
            gpu_spec::Precision::Fp64 => execute::<f64>(platform, op, config)?,
        }
    } else {
        Verification::Skipped {
            reason: istr("functional execution disabled for this configuration"),
        }
    };

    Ok(WorkloadRun {
        backend: profile.backend.clone(),
        device: istr(&platform.spec.name),
        kernel: istr(op.label()),
        cost,
        profile,
        timing,
        verification,
    })
}

/// CUDA-style Dot kernel on raw buffers with the vendor grid heuristic.
struct VendorDotKernel<T: Real> {
    a: DeviceBuffer<T>,
    b: DeviceBuffer<T>,
    sums: DeviceBuffer<T>,
    n: usize,
}

impl<T: Real> CoopKernel for VendorDotKernel<T> {
    type Shared = T;
    type ThreadState = ();

    fn shared_len(&self, block_dim: Dim3) -> usize {
        block_dim.total() as usize
    }

    #[inline(always)]
    fn phase(
        &self,
        phase: usize,
        ctx: ThreadCtx,
        _state: &mut (),
        shared: &mut [T],
    ) -> PhaseOutcome {
        let tid = ctx.thread_idx.x as usize;
        let block_size = ctx.block_dim.x as usize;
        if phase == 0 {
            let mut acc = T::from_f64(0.0);
            let mut i = ctx.global_x() as usize;
            let stride = ctx.threads_in_grid_x() as usize;
            while i < self.n {
                acc += self.a.read(i) * self.b.read(i);
                i += stride;
            }
            shared[tid] = acc;
            return PhaseOutcome::Continue;
        }
        let offset = block_size >> phase;
        if offset == 0 {
            if tid == 0 {
                self.sums.write(ctx.block_idx.x as usize, shared[0]);
            }
            return PhaseOutcome::Done;
        }
        if tid < offset {
            let other = shared[tid + offset];
            shared[tid] += other;
        }
        PhaseOutcome::Continue
    }
}

fn execute<T: Real>(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
) -> Result<Verification, SimError> {
    let n = config.n;
    let device = cache::device(platform);
    let a = device.alloc_filled(n, T::from_f64(INIT_A))?;
    let b = device.alloc_filled(n, T::from_f64(INIT_B))?;
    let c = device.alloc_filled(n, T::from_f64(INIT_C))?;
    let scalar = T::from_f64(SCALAR);

    let launch = heuristics::stream_launch(n as u64);
    launch.validate(&platform.spec)?;
    let expected = expected_values(op, config);
    let tolerance = T::tolerance();

    // Output pre-fills are sentinels: a skipped element keeps its INIT value.
    let observed = match op {
        StreamOp::Copy => {
            let (ak, ck) = (a.clone(), c.clone());
            launch_flat(&launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.write(i, ak.read(i));
                }
            });
            verify_constant(c.as_slice(), expected, tolerance)
        }
        StreamOp::Mul => {
            let (bk, ck) = (b.clone(), c.clone());
            launch_flat(&launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    bk.write(i, scalar * ck.read(i));
                }
            });
            verify_constant(b.as_slice(), expected, tolerance)
        }
        StreamOp::Add => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            launch_flat(&launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.write(i, ak.read(i) + bk.read(i));
                }
            });
            verify_constant(c.as_slice(), expected, tolerance)
        }
        StreamOp::Triad => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            launch_flat(&launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ak.write(i, bk.read(i) + scalar * ck.read(i));
                }
            });
            verify_constant(a.as_slice(), expected, tolerance)
        }
        StreamOp::Dot => {
            let dot_launch = heuristics::dot_launch(platform.backend, &platform.spec, n as u64);
            dot_launch.validate(&platform.spec)?;
            let sums = device.alloc::<T>(dot_launch.num_blocks() as usize)?;
            let kernel = VendorDotKernel {
                a: a.clone(),
                b: b.clone(),
                sums: sums.clone(),
                n,
            };
            CoopLaunch::run(&dot_launch, &kernel);
            // Deterministic host-side reduction of the per-block partials,
            // reading the device buffer in place.
            let total: f64 = sums.as_slice().par_iter().map(|p| p.to_f64()).sum();
            let rel = (total - expected).abs() / expected.abs().max(1.0);
            if rel <= tolerance {
                Ok(rel)
            } else {
                Err(format!("relative error {rel:.3e}"))
            }
        }
    };

    match observed {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "vendor BabelStream {op} verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn cuda_baseline_verifies_all_ops() {
        let config = BabelStreamConfig::validation(1 << 13, Precision::Fp64);
        for op in StreamOp::ALL {
            let run = run_vendor(&Platform::cuda_h100(false), op, &config).unwrap();
            assert!(run.verification.is_verified(), "{op}");
            assert_eq!(run.backend, "CUDA");
        }
    }

    #[test]
    fn hip_baseline_verifies_dot_with_vendor_grid() {
        let config = BabelStreamConfig::validation(1 << 14, Precision::Fp32);
        let run = run_vendor(&Platform::hip_mi300a(false), StreamOp::Dot, &config).unwrap();
        assert!(run.verification.is_verified());
        // The vendor heuristic sizes the grid from the CU count.
        let cus = gpu_spec::presets::mi300a().topology.num_compute_units;
        assert_eq!(run.cost.launch.num_blocks(), u64::from(cus * 4));
    }

    #[test]
    fn a_triad_that_skips_an_element_fails_naming_it() {
        let n = 1 << 12;
        let device = cache::device(&Platform::cuda_h100(false));
        let a = device.alloc_filled(n, INIT_A as f32).unwrap();
        let b = device.alloc_filled(n, INIT_B as f32).unwrap();
        let c = device.alloc_filled(n, INIT_C as f32).unwrap();
        let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
        launch_flat(&heuristics::stream_launch(n as u64), move |t| {
            let i = t.global_x() as usize;
            if i < n && i != 4000 {
                ak.write(i, bk.read(i) + SCALAR as f32 * ck.read(i));
            }
        });
        let config = BabelStreamConfig::validation(n, Precision::Fp32);
        let expected = expected_values(StreamOp::Triad, &config);
        let msg = verify_constant(a.as_slice(), expected, f32::tolerance()).unwrap_err();
        assert!(msg.starts_with("element 4000 differs"), "{msg}");
    }

    #[test]
    fn dot_duration_gap_matches_table3() {
        // Table 3: Dot takes 0.215 ms (Mojo) vs 0.168 ms (CUDA).
        let config = BabelStreamConfig::paper(Precision::Fp64);
        let cuda = run_vendor(&Platform::cuda_h100(false), StreamOp::Dot, &config).unwrap();
        let mojo =
            super::super::run_portable(&Platform::portable_h100(), StreamOp::Dot, &config).unwrap();
        assert!(
            (cuda.millis() - 0.168).abs() < 0.03,
            "CUDA dot {}",
            cuda.millis()
        );
        assert!(
            (mojo.millis() - 0.215).abs() < 0.03,
            "Mojo dot {}",
            mojo.millis()
        );
    }
}
