//! Vendor-baseline (CUDA/HIP style) streaming-dataset engine.
//!
//! The same launch sequence as the portable engine — accumulator resident,
//! one reused frame buffer refilled per frame — written against the raw
//! device-buffer API with `launch_flat`.

use super::config::{frame_value, FrameStreamConfig, ACC_INIT, ALPHA, BETA};
use super::cost::framestream_cost;
use super::reference::expected_final;
use crate::cache;
use crate::common::{Verification, WorkloadRun};
use gpu_sim::{istr, istr_fmt, launch_flat, SimError};
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the vendor-baseline frame stream on `platform` (CUDA on NVIDIA, HIP
/// on AMD).
pub fn run_vendor(
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
    let device = cache::device(platform);
    let d_acc = device.alloc::<f64>(n)?;
    let d_frame = device.alloc::<f64>(n)?;

    let launch = heuristics::stream_launch(n as u64);
    launch.validate(&platform.spec)?;

    let fill = d_acc.clone();
    launch_flat(&launch, move |t| {
        let i = t.global_x() as usize;
        if i < n {
            fill.write(i, ACC_INIT);
        }
    });

    for f in 0..config.frames {
        let v = frame_value(f as u64);
        let frame_fill = d_frame.clone();
        launch_flat(&launch, move |t| {
            let i = t.global_x() as usize;
            if i < n {
                frame_fill.write(i, v);
            }
        });
        let (acc, frame) = (d_acc.clone(), d_frame.clone());
        launch_flat(&launch, move |t| {
            let i = t.global_x() as usize;
            if i < n {
                acc.write(i, acc.read(i) * BETA + ALPHA * frame.read(i));
            }
        });
    }

    let expected = expected_final(config.frames);
    for (i, &v) in d_acc.as_slice().iter().enumerate() {
        if v.to_bits() != expected.to_bits() {
            return Err(SimError::InvalidParameter(format!(
                "vendor framestream verification failed at element {i}: {v:.17e} vs \
                 closed form {expected:.17e}"
            )));
        }
    }

    Ok(Verification::Passed { max_abs_error: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_framestream_matches_the_closed_form() {
        let config = FrameStreamConfig::validation(2048, 32);
        let run = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "CUDA");
    }

    #[test]
    fn hip_framestream_matches_the_closed_form() {
        let config = FrameStreamConfig::validation(3000, 19);
        let run = run_vendor(&Platform::hip_mi300a(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "HIP");
    }
}
