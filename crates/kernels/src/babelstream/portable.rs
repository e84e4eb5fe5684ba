//! Portable (Mojo-style) BabelStream implementation — paper Listing 3.
//!
//! Copy, Mul, Add and Triad are one-line flat kernels over `LayoutTensor`s;
//! Dot accumulates grid-strided partial products into block shared memory and
//! tree-reduces them with barriers (expressed through the bulk-synchronous
//! [`CoopKernel`] phases), then the host sums the per-block partials.

use super::config::{BabelStreamConfig, INIT_A, INIT_B, INIT_C, SCALAR};
use super::cost::stream_cost;
use super::reference::expected_values;
use crate::cache;
use crate::common::{verify_constant, Verification, WorkloadRun};
use crate::real::Real;
use crate::simd::{self, Lane, LanePolicy};
use gpu_sim::{istr, Dim3, SimError};
use portable_kernel::prelude::*;
use rayon::prelude::*;
use vendor_models::kernel_class::StreamOp;
use vendor_models::{heuristics, KernelClass, Platform};

/// The crossover-table key of one stream operation. Only Dot has a SIMD
/// lane; the element-wise keys name no table entry, so `auto` resolves them
/// deterministic.
pub fn lane_kernel_key(op: StreamOp) -> &'static str {
    match op {
        StreamOp::Copy => simd::KERNEL_COPY,
        StreamOp::Mul => simd::KERNEL_MUL,
        StreamOp::Add => simd::KERNEL_ADD,
        StreamOp::Triad => simd::KERNEL_TRIAD,
        StreamOp::Dot => simd::KERNEL_DOT,
    }
}

/// Runs one BabelStream operation with the portable backend under the
/// process-wide lane policy.
pub fn run_portable(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
) -> Result<WorkloadRun, SimError> {
    run_portable_lane(platform, op, config, simd::process_policy())
}

/// Runs one BabelStream operation with the portable backend under an explicit
/// lane policy. The lane only affects the host-side Dot partial-sum
/// reduction; the element-wise operations run the same code on every lane.
pub fn run_portable_lane(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
    policy: LanePolicy,
) -> Result<WorkloadRun, SimError> {
    let cost = stream_cost(platform, op, config);
    let class = KernelClass::Stream {
        op,
        precision: config.precision,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);
    let lane = simd::resolve(policy, lane_kernel_key(op), config.n as u64);

    let verification = if config.validate {
        match config.precision {
            gpu_spec::Precision::Fp32 => execute::<f32>(platform, op, config, lane)?,
            gpu_spec::Precision::Fp64 => execute::<f64>(platform, op, config, lane)?,
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

/// The Dot kernel expressed as bulk-synchronous phases (each phase boundary is
/// a `barrier()` in the paper's Listing 3).
struct DotKernel<T: Real> {
    a: LayoutTensor<T>,
    b: LayoutTensor<T>,
    sums: LayoutTensor<T>,
    n: usize,
}

impl<T: Real> CoopKernel for DotKernel<T> {
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
            // Grid-stride accumulation into the shared tile.
            let mut acc = T::from_f64(0.0);
            let mut i = ctx.global_x() as usize;
            let stride = ctx.threads_in_grid_x() as usize;
            while i < self.n {
                acc += self.a.get(i) * self.b.get(i);
                i += stride;
            }
            shared[tid] = acc;
            return PhaseOutcome::Continue;
        }
        // Tree reduction: offset halves every phase (barrier between steps).
        let offset = block_size >> phase;
        if offset == 0 {
            if tid == 0 {
                self.sums.set(ctx.block_idx.x as usize, shared[0]);
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
    lane: Lane,
) -> Result<Verification, SimError> {
    let n = config.n;
    let ctx = DeviceContext::from_device(cache::device(platform));
    let layout = Layout::row_major_1d(n);
    let filled = |value: f64| -> Result<LayoutTensor<T>, SimError> {
        let buffer = ctx.enqueue_create_buffer_filled(n, T::from_f64(value))?;
        LayoutTensor::new(buffer, layout)
    };
    let (a, b, c) = (filled(INIT_A)?, filled(INIT_B)?, filled(INIT_C)?);
    let scalar = T::from_f64(SCALAR);

    let launch = heuristics::stream_launch(n as u64);
    let expected = expected_values(op, config);
    let tolerance = T::tolerance();

    // Every output array keeps its pre-fill until the kernel overwrites it,
    // so the in-place check below catches any element a kernel skipped.
    let observed = match op {
        StreamOp::Copy => {
            let (ak, ck) = (a.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.set(i, ak.get(i));
                }
            })?;
            verify_constant(c.as_slice(), expected, tolerance)
        }
        StreamOp::Mul => {
            let (bk, ck) = (b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    bk.set(i, scalar * ck.get(i));
                }
            })?;
            verify_constant(b.as_slice(), expected, tolerance)
        }
        StreamOp::Add => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.set(i, ak.get(i) + bk.get(i));
                }
            })?;
            verify_constant(c.as_slice(), expected, tolerance)
        }
        StreamOp::Triad => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ak.set(i, bk.get(i) + scalar * ck.get(i));
                }
            })?;
            verify_constant(a.as_slice(), expected, tolerance)
        }
        StreamOp::Dot => {
            let dot_launch = heuristics::dot_launch(platform.backend, &platform.spec, n as u64);
            let num_blocks = dot_launch.num_blocks() as usize;
            let sums = LayoutTensor::new(
                ctx.enqueue_create_buffer::<T>(num_blocks)?,
                Layout::row_major_1d(num_blocks),
            )?;
            let kernel = DotKernel {
                a: a.clone(),
                b: b.clone(),
                sums: sums.clone(),
                n,
            };
            ctx.enqueue_cooperative(dot_launch, &kernel)?;
            // Host-side reduction of the per-block partials, reading the
            // device buffer in place. Both lanes are bitwise-stable across
            // thread counts; the SIMD lane folds each chunk with four
            // independent accumulators (a fixed reassociation within the
            // documented 1e-12 relative bound) before the same pairwise tree.
            let partials = sums.as_slice().par_iter().map(|p| p.to_f64());
            let total: f64 = match lane {
                Lane::Deterministic => partials.sum(),
                Lane::Simd => partials.sum_unrolled(),
            };
            let rel = (total - expected).abs() / expected.abs().max(1.0);
            if rel <= tolerance {
                Ok(rel)
            } else {
                Err(format!("relative error {rel:.3e}"))
            }
        }
    };

    ctx.synchronize();
    match observed {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "BabelStream {op} verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn every_op_verifies_in_both_precisions() {
        for precision in [Precision::Fp32, Precision::Fp64] {
            let config = BabelStreamConfig::validation(1 << 13, precision);
            for op in StreamOp::ALL {
                let run = run_portable(&Platform::portable_h100(), op, &config).unwrap();
                assert!(run.verification.is_verified(), "{op} {precision}");
            }
        }
    }

    #[test]
    fn dot_reduction_is_numerically_exact_for_uniform_data() {
        let config = BabelStreamConfig::validation(10_000, Precision::Fp64);
        let run = run_portable(&Platform::portable_mi300a(), StreamOp::Dot, &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert!(max_abs_error < 1e-10),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    /// Runs the Dot kernel over non-uniform data and returns its per-block
    /// partials and the host sum, as `execute` computes them.
    fn dot_partials_and_sum(platform: &Platform, n: usize) -> (Vec<f64>, f64) {
        let ctx = DeviceContext::from_device(cache::device(platform));
        let layout = Layout::row_major_1d(n);
        let host: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let a = LayoutTensor::new(ctx.enqueue_create_buffer_from(&host).unwrap(), layout).unwrap();
        let launch = heuristics::dot_launch(platform.backend, &platform.spec, n as u64);
        let blocks = launch.num_blocks() as usize;
        let sums = ctx.enqueue_create_buffer::<f64>(blocks).unwrap();
        let kernel = DotKernel {
            a: a.clone(),
            b: a,
            sums: LayoutTensor::new(sums.clone(), Layout::row_major_1d(blocks)).unwrap(),
            n,
        };
        ctx.enqueue_cooperative(launch, &kernel).unwrap();
        let total = sums.as_slice().par_iter().map(|&p| p).sum();
        (sums.as_slice().to_vec(), total)
    }

    #[test]
    fn dot_partials_and_sum_are_bitwise_equal_on_one_thread_and_the_wide_pool() {
        for platform in [Platform::portable_h100(), Platform::portable_mi300a()] {
            let n = 300_001;
            let wide = dot_partials_and_sum(&platform, n);
            let serial = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| dot_partials_and_sum(&platform, n));
            let bits = |(partials, total): &(Vec<f64>, f64)| {
                let mut bits: Vec<u64> = partials.iter().map(|p| p.to_bits()).collect();
                bits.push(total.to_bits());
                bits
            };
            assert_eq!(bits(&wide), bits(&serial));
        }
    }

    #[test]
    fn a_mul_that_skips_an_element_fails_on_its_init_b_sentinel() {
        // Mul writes b = SCALAR * c = 0: an element left at its INIT_B
        // pre-fill is the only trace of a skipped thread.
        let config = BabelStreamConfig::validation(1 << 12, Precision::Fp64);
        let n = config.n;
        let ctx = DeviceContext::from_device(cache::device(&Platform::portable_h100()));
        let layout = Layout::row_major_1d(n);
        let b = LayoutTensor::new(ctx.enqueue_create_buffer_filled(n, INIT_B).unwrap(), layout);
        let c = LayoutTensor::new(ctx.enqueue_create_buffer_filled(n, INIT_C).unwrap(), layout);
        let (b, c) = (b.unwrap(), c.unwrap());
        let (bk, ck) = (b.clone(), c.clone());
        ctx.enqueue_function(heuristics::stream_launch(n as u64), move |t| {
            let i = t.global_x() as usize;
            if i < n && i != 1234 {
                bk.set(i, SCALAR * ck.get(i));
            }
        })
        .unwrap();
        let expected = expected_values(StreamOp::Mul, &config);
        let msg = verify_constant(b.as_slice(), expected, f64::tolerance()).unwrap_err();
        assert!(msg.starts_with("element 1234 differs: got 0.2"), "{msg}");
    }

    #[test]
    fn skipping_validation_still_times_the_kernel() {
        let config = BabelStreamConfig::paper(Precision::Fp64);
        let run = run_portable(&Platform::portable_h100(), StreamOp::Triad, &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.millis() > 0.1 && run.millis() < 1.0);
    }
}
