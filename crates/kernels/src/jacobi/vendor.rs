//! Vendor-baseline (CUDA/HIP style) Jacobi solver.
//!
//! Mirrors the structure of the vendor stencil baseline: raw `DeviceBuffer`s,
//! manual `(i·L + j)·L + k` linearisation, and the simulator's launch API used
//! directly. The sweep count comes from the same memoized deterministic
//! reference solve as the portable driver, so the baselines execute the
//! identical launch sequence.

use super::config::{JacobiConfig, SIXTH};
use super::cost::jacobi_cost;
use super::reference::residual_rms;
use crate::cache;
use crate::common::{compare_with_reference, Verification, WorkloadRun};
use gpu_sim::{istr, istr_fmt, launch_flat, SimError};
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the vendor-baseline Jacobi solve on `platform` (CUDA on NVIDIA, HIP
/// on AMD).
pub fn run_vendor(platform: &Platform, config: &JacobiConfig) -> Result<WorkloadRun, SimError> {
    let iters = super::planned_iters(config);
    let cost = jacobi_cost(config, iters);
    let class = KernelClass::Stencil7 {
        precision: gpu_spec::Precision::Fp64,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.should_execute() {
        execute(platform, config)?
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
        kernel: istr("jacobi"),
        cost,
        profile,
        timing,
        verification,
    })
}

fn execute(platform: &Platform, config: &JacobiConfig) -> Result<Verification, SimError> {
    let l = config.l;
    let seed = cache::stencil_grid(&super::reference::seed_config(config));
    let reference = cache::jacobi_reference(config);

    let device = cache::device(platform);
    let mut d_u = device.alloc_from_host(&seed)?;
    let mut d_f = device.alloc_from_host(&seed)?;

    let launch = heuristics::stencil_launch(l as u32, config.block_x);
    launch.validate(&platform.spec)?;

    for _ in 0..reference.iters_run {
        let (u, f) = (d_u.clone(), d_f.clone());
        // CUDA/HIP-style kernel body: raw pointers, manual linearisation.
        launch_flat(&launch, move |t| {
            let k = t.global_x() as usize;
            let j = t.global_y() as usize;
            let i = t.global_z() as usize;
            if i > 0 && i < l - 1 && j > 0 && j < l - 1 && k > 0 && k < l - 1 {
                let at = |ii: usize, jj: usize, kk: usize| (ii * l + jj) * l + kk;
                let value = (((u.read(at(i - 1, j, k)) + u.read(at(i + 1, j, k)))
                    + (u.read(at(i, j - 1, k)) + u.read(at(i, j + 1, k))))
                    + (u.read(at(i, j, k - 1)) + u.read(at(i, j, k + 1))))
                    * SIXTH;
                f.write(at(i, j, k), value);
            }
        });
        std::mem::swap(&mut d_u, &mut d_f);
    }

    let (actual, previous) = (d_u.as_slice(), d_f.as_slice());

    let tolerance = <f64 as crate::real::Real>::tolerance();
    let max_abs_error =
        compare_with_reference(actual, &reference.grid, tolerance).map_err(|msg| {
            SimError::InvalidParameter(format!("vendor jacobi verification failed: {msg}"))
        })?;

    let residual = residual_rms(actual, previous, config.interior_cells() as f64);
    let golden = reference.residuals[reference.iters_run - 1];
    let rel = (residual - golden).abs() / golden.abs().max(1e-300);
    if rel > 1e-12 {
        return Err(SimError::InvalidParameter(format!(
            "vendor jacobi residual mismatch: {residual:.17e} vs {golden:.17e}"
        )));
    }

    Ok(Verification::Passed { max_abs_error })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_jacobi_matches_the_reference() {
        let config = JacobiConfig::validation(12, 200);
        let run = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "CUDA");
    }

    #[test]
    fn hip_jacobi_matches_the_reference() {
        let config = JacobiConfig::validation(10, 150);
        let run = run_vendor(&Platform::hip_mi300a(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "HIP");
    }

    #[test]
    fn portable_and_vendor_solves_are_numerically_identical() {
        let config = JacobiConfig::validation(8, 100);
        let a = super::super::run_portable(&Platform::portable_h100(), &config).unwrap();
        let b = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        assert!(a.verification.is_verified());
        assert!(b.verification.is_verified());
    }
}
