//! Vendor-baseline (CUDA/HIP style) fasten implementation.
//!
//! Mirrors the original miniBUDE CUDA/HIP kernels: raw device pointers, a
//! runtime PPWI loop over a register array of partial energies, and the
//! original `Atom`-struct layout (the baselines do not need the flattening
//! workaround the portable port uses). Launched directly on the simulator.

use super::config::MiniBudeConfig;
use super::cost::fasten_cost;
use super::reference::{pair_energy, transform_point, HALF};
use crate::cache;
use crate::common::{compare_with_reference, Verification, WorkloadRun};
use gpu_sim::memory::DeviceBuffer;
use gpu_sim::{istr, launch_flat, SimError};
use vendor_models::{heuristics, KernelClass, Platform};

/// Upper bound on PPWI supported by the baseline's register array.
const MAX_PPWI: usize = 128;

/// Runs the vendor-baseline fasten kernel on `platform`.
pub fn run_vendor(platform: &Platform, config: &MiniBudeConfig) -> Result<WorkloadRun, SimError> {
    let cost = fasten_cost(config);
    let class = KernelClass::BudeFasten {
        ppwi: config.ppwi,
        wg: config.wg,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.should_execute() {
        execute(platform, config)?
    } else {
        Verification::Skipped {
            reason: istr("functional execution disabled (executed_poses = 0)"),
        }
    };

    Ok(WorkloadRun {
        backend: profile.backend.clone(),
        device: istr(&platform.spec.name),
        kernel: istr("fasten"),
        cost,
        profile,
        timing,
        verification,
    })
}

#[allow(clippy::too_many_arguments)]
fn execute(platform: &Platform, config: &MiniBudeConfig) -> Result<Verification, SimError> {
    if config.ppwi as usize > MAX_PPWI {
        return Err(SimError::InvalidParameter(format!(
            "PPWI {} exceeds the baseline's register array of {MAX_PPWI}",
            config.ppwi
        )));
    }
    let deck = cache::minibude_deck(config);
    let flats = cache::minibude_flats(config);
    let nposes = config.executed_poses;
    let device = cache::device(platform);

    let protein: DeviceBuffer<f32> = device.alloc_from_host(&flats.protein)?;
    let ligand: DeviceBuffer<f32> = device.alloc_from_host(&flats.ligand)?;
    let forcefield: DeviceBuffer<f32> = device.alloc_from_host(&flats.forcefield)?;
    let transforms: [DeviceBuffer<f32>; 6] = [
        device.alloc_from_host(&deck.transforms[0][..nposes])?,
        device.alloc_from_host(&deck.transforms[1][..nposes])?,
        device.alloc_from_host(&deck.transforms[2][..nposes])?,
        device.alloc_from_host(&deck.transforms[3][..nposes])?,
        device.alloc_from_host(&deck.transforms[4][..nposes])?,
        device.alloc_from_host(&deck.transforms[5][..nposes])?,
    ];
    let etotals: DeviceBuffer<f32> = device.alloc::<f32>(nposes)?;

    let launch = heuristics::bude_launch(nposes as u64, config.ppwi, config.wg);
    launch.validate(&platform.spec)?;

    let ppwi = config.ppwi as usize;
    let natlig = config.natlig;
    let natpro = config.natpro;
    let (t0, t1, t2, t3, t4, t5) = (
        transforms[0].clone(),
        transforms[1].clone(),
        transforms[2].clone(),
        transforms[3].clone(),
        transforms[4].clone(),
        transforms[5].clone(),
    );
    let (pro, lig, ff, out) = (
        protein.clone(),
        ligand.clone(),
        forcefield.clone(),
        etotals.clone(),
    );

    launch_flat(&launch, move |t| {
        let lsz = t.block_dim.x as usize;
        let mut ix = (t.block_idx.x as usize) * lsz * ppwi + t.thread_idx.x as usize;
        if ix >= nposes {
            ix = nposes - ppwi;
        }

        let mut etot = [0.0f32; MAX_PPWI];
        for (lane, lane_slot) in etot.iter_mut().enumerate().take(ppwi) {
            let pose_index = ix + lane * lsz;
            if pose_index >= nposes {
                continue;
            }
            let pose = [
                t0.read(pose_index),
                t1.read(pose_index),
                t2.read(pose_index),
                t3.read(pose_index),
                t4.read(pose_index),
                t5.read(pose_index),
            ];
            let mut lane_energy = 0.0f32;
            for l in 0..natlig {
                let lx = lig.read(l * 4);
                let ly = lig.read(l * 4 + 1);
                let lz = lig.read(l * 4 + 2);
                let ltype = lig.read(l * 4 + 3) as usize;
                let l_ff = (
                    ff.read(ltype * 3),
                    ff.read(ltype * 3 + 1),
                    ff.read(ltype * 3 + 2),
                );
                let (tx, ty, tz) = transform_point(pose, lx, ly, lz);
                for p in 0..natpro {
                    let px = pro.read(p * 4);
                    let py = pro.read(p * 4 + 1);
                    let pz = pro.read(p * 4 + 2);
                    let ptype = pro.read(p * 4 + 3) as usize;
                    let p_ff = (
                        ff.read(ptype * 3),
                        ff.read(ptype * 3 + 1),
                        ff.read(ptype * 3 + 2),
                    );
                    lane_energy += pair_energy(tx, ty, tz, l_ff, px, py, pz, p_ff);
                }
            }
            *lane_slot = lane_energy;
        }

        let td_base = (t.block_idx.x as usize) * lsz * ppwi + t.thread_idx.x as usize;
        if td_base < nposes {
            for (lane, lane_energy) in etot.iter().enumerate().take(ppwi) {
                let out_index = td_base + lane * lsz;
                if out_index < nposes {
                    out.write(out_index, lane_energy * HALF);
                }
            }
        }
    });

    let expected = cache::minibude_reference(config);
    match compare_with_reference(etotals.as_slice(), &expected, super::portable::TOLERANCE) {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "vendor fasten verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_fasten_matches_the_reference() {
        let config = MiniBudeConfig::validation(4, 8);
        let run = run_vendor(&Platform::cuda_h100(true), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "CUDA fast-math");
    }

    #[test]
    fn hip_fasten_matches_the_reference_at_wg64() {
        let config = MiniBudeConfig::validation(8, 64);
        let run = run_vendor(&Platform::hip_mi300a(false), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.backend, "HIP");
    }

    #[test]
    fn fast_math_changes_speed_but_not_results() {
        let config = MiniBudeConfig::validation(4, 8);
        let plain = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        let ff = run_vendor(&Platform::cuda_h100(true), &config).unwrap();
        assert!(plain.verification.is_verified());
        assert!(ff.verification.is_verified());
        assert!(ff.seconds() < plain.seconds());
    }

    #[test]
    fn portable_and_vendor_agree_bitwise_on_the_same_deck() {
        // Both implementations run the same f32 expression sequence, so their
        // energies agree to the verification tolerance on the same deck.
        let config = MiniBudeConfig::validation(2, 8);
        let a = super::super::run_portable(&Platform::portable_h100(), &config).unwrap();
        let b = run_vendor(&Platform::cuda_h100(false), &config).unwrap();
        assert!(a.verification.is_verified());
        assert!(b.verification.is_verified());
    }
}
