//! Portable (Mojo-style) streaming-dataset engine.
//!
//! One launch per frame: the accumulator tensor stays resident on the device
//! while a single frame buffer is refilled with each arriving frame's data
//! and folded in — the frames are streamed, never resident, which is what
//! makes the batch deliberately larger than any cache could memoize. Both
//! buffers come from the §11 pool, so a steady-state run allocates nothing.

use super::config::{frame_value, FrameStreamConfig, ACC_INIT, ALPHA, BETA};
use super::cost::framestream_cost;
use super::reference::expected_final;
use crate::cache;
use crate::common::{verify_constant, Verification, WorkloadRun};
use gpu_sim::{istr, istr_fmt, SimError};
use portable_kernel::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the portable frame stream on `platform`.
pub fn run_portable(
    platform: &Platform,
    config: &FrameStreamConfig,
) -> Result<WorkloadRun, SimError> {
    let cost = framestream_cost(config);
    let class = KernelClass::Stream {
        op: vendor_models::kernel_class::StreamOp::Triad,
        precision: gpu_spec::Precision::Fp64,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.should_execute() {
        execute(platform, config)?
    } else {
        Verification::Skipped {
            reason: istr_fmt(format_args!(
                "{} streamed elements exceed the functional-execution budget; cost model only",
                config.streamed_elements()
            )),
        }
    };

    Ok(WorkloadRun {
        backend: profile.backend.clone(),
        device: istr(&platform.spec.name),
        kernel: istr("framestream"),
        cost,
        profile,
        timing,
        verification,
    })
}

fn execute(platform: &Platform, config: &FrameStreamConfig) -> Result<Verification, SimError> {
    let n = config.n;
    let ctx = DeviceContext::from_device(cache::device(platform));
    let layout = Layout::row_major_1d(n);
    let acc = LayoutTensor::new(ctx.enqueue_create_buffer_filled(n, ACC_INIT)?, layout)?;
    let frame = LayoutTensor::new(ctx.enqueue_create_buffer::<f64>(n)?, layout)?;

    let launch = heuristics::stream_launch(n as u64);
    for f in 0..config.frames {
        // The frame buffer is REUSED: refill stands in for the next frame of
        // a dataset arriving from storage.
        frame.fill(frame_value(f as u64));
        let (acc_k, frame_k) = (acc.clone(), frame.clone());
        ctx.enqueue_function(launch, move |t| {
            let i = t.global_x() as usize;
            if i < n {
                // The same expression, in the same association, as the host
                // fold: acc·BETA + ALPHA·value.
                acc_k.set(i, acc_k.get(i) * BETA + ALPHA * frame_k.get(i));
            }
        })?;
    }
    ctx.synchronize();

    // Every element saw the identical frame sequence, so the whole
    // accumulator must equal the closed-form serial fold exactly.
    let expected = expected_final(config.frames);
    match verify_constant(acc.as_slice(), expected, 0.0) {
        Ok(_) => Ok(Verification::Passed { max_abs_error: 0.0 }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "framestream verification failed: accumulator diverged from the closed form: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_stream_matches_the_closed_form_bitwise() {
        let config = FrameStreamConfig::validation(4096, 48);
        let run = run_portable(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert_eq!(max_abs_error, 0.0),
            other => panic!("expected verification, got {other:?}"),
        }
    }

    #[test]
    fn simd_lane_verifies_too() {
        // The frame stream has no SIMD lane: a forced `simd` policy runs the
        // default code and produces the default rows.
        use crate::simd::LanePolicy;
        use crate::workload::Workload;
        let workload = crate::framestream::workload::FrameStreamWorkload;
        let mut params = workload.default_params();
        params.apply_encoding("n=5000,frames=17").unwrap();
        let simd = workload.run_lane(&params, LanePolicy::Simd).unwrap();
        let det = workload
            .run_lane(&params, LanePolicy::Deterministic)
            .unwrap();
        assert!(simd
            .measurements
            .iter()
            .all(|m| m.verification.starts_with("passed(")));
        assert_eq!(simd.measurements.as_slice(), det.measurements.as_slice());
    }

    #[test]
    fn oversized_batches_skip_functional_execution_but_still_time() {
        let config = FrameStreamConfig::paper(1 << 22, 1 << 10);
        let run = run_portable(&Platform::portable_h100(), &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.seconds() > 0.0);
    }
}
