//! Streaming-dataset engine workload — the batch-streaming composite pattern
//! of DESIGN.md §15.
//!
//! A batch of synthetic data frames streams through a resident accumulator:
//! each frame is materialised into a single reused device buffer and folded
//! in element-wise as an exponential moving average. The batch is
//! deliberately sized past anything the memo cache could hold resident —
//! frames exist only while they are being folded — which exercises the
//! steady-state pool reuse path rather than the memoization path. The
//! element-wise fold has no reduction, so every lane and every thread count
//! produces bitwise-identical accumulators; the property tests pin that the
//! result is also invariant under any partitioning of the frame range.

mod config;
mod cost;
mod portable;
mod reference;
mod vendor;
pub mod workload;

pub use config::{
    frame_value, FrameStreamConfig, ACC_INIT, ALPHA, BETA, FRAME_PERIOD, MAX_FUNCTIONAL_ELEMENTS,
};
pub use cost::framestream_cost;
pub use portable::run_portable;
pub use reference::{accumulate_frames, expected_final};
pub use vendor::run_vendor;

use crate::common::WorkloadRun;
use gpu_sim::SimError;
use vendor_models::Platform;

/// Runs the frame-stream workload on a platform, dispatching to the portable
/// or vendor implementation according to the platform's backend.
pub fn run(platform: &Platform, config: &FrameStreamConfig) -> Result<WorkloadRun, SimError> {
    if platform.backend.is_portable() {
        run_portable(platform, config)
    } else {
        run_vendor(platform, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_paper_platforms_run_and_verify() {
        let config = FrameStreamConfig::validation(4096, 24);
        for platform in [
            Platform::portable_h100(),
            Platform::cuda_h100(false),
            Platform::portable_mi300a(),
            Platform::hip_mi300a(false),
        ] {
            let run = run(&platform, &config).unwrap();
            assert!(
                run.verification.is_verified(),
                "{} should verify",
                platform.label()
            );
            assert!(run.seconds() > 0.0);
        }
    }

    #[test]
    fn batch_time_scales_with_the_frame_count() {
        let short = run(
            &Platform::portable_h100(),
            &FrameStreamConfig::paper(1 << 22, 16),
        )
        .unwrap();
        let long = run(
            &Platform::portable_h100(),
            &FrameStreamConfig::paper(1 << 22, 160),
        )
        .unwrap();
        let ratio = long.seconds() / short.seconds();
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "10× the frames should cost ≈10× the time, got {ratio}"
        );
    }
}
