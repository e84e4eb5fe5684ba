//! Vendor-baseline (CUDA/HIP style) seven-point stencil.
//!
//! The paper's baselines come from AMD's lab-notes HIP code, with the CUDA
//! version "translated … using the same structure as AMD's HIP code". They do
//! not use a layout-tensor abstraction: the kernel receives raw device
//! pointers and does its own index arithmetic. This implementation mirrors
//! that structure — raw `DeviceBuffer`s, manual `(i*ny + j)*nz + k` indexing,
//! and the simulator's launch API used directly rather than through the
//! portable `DeviceContext`.

use super::config::StencilConfig;
use super::cost::stencil_cost;
use crate::cache;
use crate::common::{Verification, WorkloadRun};
use crate::real::Real;
use gpu_sim::{istr, istr_fmt, launch_flat, SimError};
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the vendor-baseline stencil on `platform` (CUDA on NVIDIA, HIP on AMD).
pub fn run_vendor(platform: &Platform, config: &StencilConfig) -> Result<WorkloadRun, SimError> {
    let cost = stencil_cost(config);
    let class = KernelClass::Stencil7 {
        precision: config.precision,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.should_execute() {
        match config.precision {
            gpu_spec::Precision::Fp32 => execute::<f32>(platform, config)?,
            gpu_spec::Precision::Fp64 => execute::<f64>(platform, config)?,
        }
    } else {
        Verification::Skipped {
            reason: istr_fmt(format_args!(
                "L = {} exceeds the functional-execution limit; cost model only",
                config.l
            )),
        }
    };

    Ok(WorkloadRun {
        backend: profile.backend.clone(),
        device: istr(&platform.spec.name),
        kernel: istr("laplacian"),
        cost,
        profile,
        timing,
        verification,
    })
}

fn execute<T: Real + cache::StencilGridCache>(
    platform: &Platform,
    config: &StencilConfig,
) -> Result<Verification, SimError> {
    let l = config.l;
    let (invhx2, invhy2, invhz2, invhxyz2) = config.coefficients();
    let u_host = T::cached_stencil_grid(config);

    let device = cache::device(platform);
    let d_u = device.alloc_from_host(&u_host)?;
    let d_f = device.alloc::<T>(l * l * l)?;

    let launch = heuristics::stencil_launch(l as u32, config.block_x);
    launch.validate(&platform.spec)?;

    let (cx, cy, cz, cc) = (
        T::from_f64(invhx2),
        T::from_f64(invhy2),
        T::from_f64(invhz2),
        T::from_f64(invhxyz2),
    );
    let (u, f) = (d_u.clone(), d_f.clone());
    // CUDA/HIP-style kernel body: raw pointers, manual linearisation.
    launch_flat(&launch, move |t| {
        let k = t.global_x() as usize;
        let j = t.global_y() as usize;
        let i = t.global_z() as usize;
        if i > 0 && i < l - 1 && j > 0 && j < l - 1 && k > 0 && k < l - 1 {
            let at = |ii: usize, jj: usize, kk: usize| (ii * l + jj) * l + kk;
            let value = u.read(at(i, j, k)) * cc
                + (u.read(at(i - 1, j, k)) + u.read(at(i + 1, j, k))) * cx
                + (u.read(at(i, j - 1, k)) + u.read(at(i, j + 1, k))) * cy
                + (u.read(at(i, j, k - 1)) + u.read(at(i, j, k + 1))) * cz;
            f.write(at(i, j, k), value);
        }
    });

    match super::verify(config, d_f.as_slice()) {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "vendor stencil verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn cuda_stencil_matches_reference() {
        let config = StencilConfig::validation(32, Precision::Fp64);
        let run = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "CUDA");
    }

    #[test]
    fn hip_stencil_matches_reference_fp32() {
        let config = StencilConfig::validation(24, Precision::Fp32);
        let run = run_vendor(&Platform::hip_mi300a(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "HIP");
    }

    #[test]
    fn cuda_duration_is_close_to_table2() {
        // Table 2: CUDA FP64 L=512 duration 0.96 ms; FP32 L=1024 7.21 ms.
        let run = run_vendor(
            &Platform::cuda_h100(false),
            &StencilConfig::paper(512, Precision::Fp64),
        )
        .unwrap();
        assert!(
            (run.millis() - 0.96).abs() < 0.2,
            "expected ≈0.96 ms, got {:.3}",
            run.millis()
        );
        let run32 = run_vendor(
            &Platform::cuda_h100(false),
            &StencilConfig::paper(1024, Precision::Fp32),
        )
        .unwrap();
        assert!(
            (run32.millis() - 7.21).abs() < 1.0,
            "expected ≈7.21 ms, got {:.3}",
            run32.millis()
        );
    }

    #[test]
    fn portable_and_vendor_produce_identical_numerics() {
        let config = StencilConfig::validation(20, Precision::Fp64);
        let a = super::super::run_portable(&Platform::portable_h100(), &config).unwrap();
        let b = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        // Both verified against the same reference; the outputs are therefore
        // identical up to the verification tolerance.
        assert!(a.verification.is_verified());
        assert!(b.verification.is_verified());
    }
}
