//! Seven-point stencil (Laplacian) workload — paper Listing 2, Figure 3,
//! Table 2.
//!
//! The kernel applies the standard seven-point Laplacian to a cubic grid of
//! side `L`: every interior cell reads itself and its six face neighbours and
//! writes one output cell. It is the paper's canonical memory-bandwidth-bound
//! workload; its figure of merit is the effective bandwidth of Eq. (1).

mod config;
mod cost;
mod portable;
mod reference;
mod vendor;
pub mod workload;

pub use config::{functional_limit, StencilConfig, MAX_FUNCTIONAL_L, MAX_FUNCTIONAL_L_FP32};
pub use cost::stencil_cost;
pub use portable::run_portable;
pub use reference::{initialize_grid, reference_laplacian};
pub use vendor::run_vendor;

use crate::common::WorkloadRun;
use gpu_sim::SimError;
use vendor_models::Platform;

/// Runs the stencil workload on a platform, dispatching to the portable or
/// vendor implementation according to the platform's backend.
pub fn run(platform: &Platform, config: &StencilConfig) -> Result<WorkloadRun, SimError> {
    if platform.backend.is_portable() {
        run_portable(platform, config)
    } else {
        run_vendor(platform, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;
    use vendor_models::Backend;

    #[test]
    fn portable_and_vendor_paths_both_run_and_verify() {
        let config = StencilConfig::validation(24, Precision::Fp64);
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
    fn portable_is_slower_than_cuda_on_h100_and_matches_hip_on_mi300a() {
        // The headline result of Fig. 3: ~87 % of CUDA on the H100, parity
        // with HIP on the MI300A.
        let config = StencilConfig::paper(512, Precision::Fp64);
        let mojo_h100 = run(&Platform::portable_h100(), &config).unwrap();
        let cuda = run(&Platform::cuda_h100(false), &config).unwrap();
        let ratio = cuda.seconds() / mojo_h100.seconds();
        assert!(
            (ratio - 0.87).abs() < 0.03,
            "Mojo/CUDA bandwidth ratio should be ≈0.87, got {ratio}"
        );

        let mojo_mi = run(&Platform::portable_mi300a(), &config).unwrap();
        let hip = run(&Platform::hip_mi300a(false), &config).unwrap();
        let parity = hip.seconds() / mojo_mi.seconds();
        assert!(
            (parity - 1.0).abs() < 0.01,
            "Mojo/HIP should be at parity, got {parity}"
        );
    }

    #[test]
    fn fast_math_flag_does_not_change_a_memory_bound_kernel() {
        let config = StencilConfig::paper(512, Precision::Fp32);
        let plain = run(&Platform::cuda_h100(false), &config).unwrap();
        let ff = run(&Platform::cuda_h100(true), &config).unwrap();
        assert!((plain.seconds() - ff.seconds()).abs() / plain.seconds() < 1e-9);
    }

    #[test]
    fn backend_labels_flow_through() {
        let config = StencilConfig::validation(16, Precision::Fp32);
        let run = run(
            &Platform::new(gpu_spec::presets::mi300a(), Backend::HIP).unwrap(),
            &config,
        )
        .unwrap();
        assert_eq!(run.backend, "HIP");
        assert!(run.device.contains("MI300A"));
    }
}
