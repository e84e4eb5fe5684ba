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
pub use reference::{
    check_forward_error, initialize_grid, reference_laplacian, FORWARD_ERROR_ROUNDINGS,
};
pub use vendor::run_vendor;

use crate::cache::{self, StencilGridCache};
use crate::common::WorkloadRun;
use crate::real::Real;
use gpu_sim::SimError;
use gpu_spec::Precision;
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

/// Verifies a stencil output (a device view, checked in place) and returns
/// the largest absolute error against the f64 reference.
///
/// Two gates. First, bitwise equality with the reference evaluated in the
/// working precision in the kernels' operation order: the device computes
/// the same rounded operations, so any difference is a kernel bug. Second,
/// for FP32, the per-cell forward-error bound of [`check_forward_error`]
/// against the f64 reference, which bounds what the working precision
/// itself may cost. In FP64 the same-precision reference *is* the f64
/// reference, so the first gate leaves no error to bound.
fn verify<T: Real + StencilGridCache>(config: &StencilConfig, actual: &[T]) -> Result<f64, String> {
    let same_precision = T::cached_stencil_reference(config);
    if actual.len() != same_precision.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            same_precision.len()
        ));
    }
    let bits = |v: T| v.to_f64().to_bits();
    if let Some(i) = (0..actual.len()).find(|&i| bits(actual[i]) != bits(same_precision[i])) {
        return Err(format!(
            "element {i} differs from the {} reference in the kernel's operation order: \
             got {}, expected {}",
            T::PRECISION,
            actual[i].to_f64(),
            same_precision[i].to_f64()
        ));
    }
    match T::PRECISION {
        Precision::Fp64 => Ok(0.0),
        Precision::Fp32 => check_forward_error(
            config,
            actual,
            &cache::stencil_reference(config),
            &cache::stencil_grid(config),
        ),
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
    fn fp32_verifies_at_l39_and_l40_on_every_platform() {
        // L = 39 used to fail a result-relative 5e-4 bound on three cells
        // whose correctly rounded FP32 values sit 6.8e-3 from the f64 ones.
        for l in [39, 40] {
            let config = StencilConfig::paper(l, Precision::Fp32);
            assert!(config.should_execute());
            for platform in [
                Platform::portable_h100(),
                Platform::cuda_h100(false),
                Platform::portable_mi300a(),
                Platform::hip_mi300a(false),
            ] {
                let run = run(&platform, &config).unwrap();
                assert!(
                    run.verification.is_verified(),
                    "L = {l} {}",
                    platform.label()
                );
            }
        }
    }

    #[test]
    fn verify_rejects_a_one_ulp_fp32_change_naming_the_cell() {
        let config = StencilConfig::paper(39, Precision::Fp32);
        let mut output = f32::cached_stencil_reference(&config).to_vec();
        assert!(verify(&config, &output).is_ok());
        let cell = (17 * 39 + 32) * 39 + 34;
        output[cell] = f32::from_bits(output[cell].to_bits() + 1);
        let msg = verify(&config, &output).unwrap_err();
        assert!(
            msg.starts_with("element 27139 differs from the FP32 reference"),
            "{msg}"
        );
    }

    #[test]
    fn forward_error_gate_rejects_errors_beyond_the_bound() {
        let config = StencilConfig::paper(12, Precision::Fp32);
        let expected = cache::stencil_reference(&config);
        let grid = cache::stencil_grid(&config);
        let mut output: Vec<f32> = expected.iter().map(|&v| v as f32).collect();
        assert!(check_forward_error(&config, &output, &expected, &grid).is_ok());
        // An interior cell 1 % off is far outside 8u·Σ|terms|.
        let cell = (5 * 12 + 6) * 12 + 7;
        output[cell] *= 1.01;
        let msg = check_forward_error(&config, &output, &expected, &grid).unwrap_err();
        assert!(msg.starts_with(&format!("element {cell} differs")), "{msg}");
        // A boundary cell carries no terms: any change there fails.
        output[cell] = expected[cell] as f32;
        output[0] = 1e-30;
        let msg = check_forward_error(&config, &output, &expected, &grid).unwrap_err();
        assert!(msg.starts_with("element 0 differs"), "{msg}");
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
