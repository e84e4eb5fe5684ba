//! Lane-parity suite (DESIGN.md §14).
//!
//! The SIMD fast lane may reassociate reductions, but never beyond each
//! kernel's documented tolerance — and the deterministic lane must stay
//! byte-identical to the goldens no matter which lane flags or thread counts
//! are in play. Four layers are pinned here:
//!
//! 1. every registered lane kernel agrees between lanes at every ladder size
//!    within its documented tolerance;
//! 2. every workload runs identically under the default policy and an
//!    explicit `--lane deterministic`, and still verifies under `simd` and
//!    `auto`;
//! 3. the workload paths without a lane kernel (stencil, Jacobi, frame
//!    stream, miniBUDE and the element-wise BabelStream ops) produce
//!    byte-identical rows under every policy;
//! 4. the real binary emits byte-identical output for `--lane deterministic`
//!    across thread counts, and exits clean on the other lanes.

use science_kernels::simd::{lane_kernels, Lane, LanePolicy};
use science_kernels::workload;
use std::process::{Command, Output};

fn mojo_hpc(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("run mojo-hpc")
}

#[test]
fn lane_kernels_agree_within_their_documented_tolerances() {
    for kernel in lane_kernels() {
        for &size in kernel.sizes {
            let deterministic = (kernel.run)(Lane::Deterministic, size);
            let simd = (kernel.run)(Lane::Simd, size);
            if kernel.tolerance == 0.0 {
                assert_eq!(
                    deterministic.to_bits(),
                    simd.to_bits(),
                    "{} (size {size}): lanes must be bitwise identical, got {} vs {}",
                    kernel.name,
                    deterministic,
                    simd
                );
            } else {
                let rel = (deterministic - simd).abs() / deterministic.abs().max(1.0);
                assert!(
                    rel <= kernel.tolerance,
                    "{} (size {size}): relative lane divergence {rel:.3e} exceeds the \
                     documented {:.1e} (deterministic {deterministic} vs simd {simd})",
                    kernel.name,
                    kernel.tolerance
                );
            }
        }
    }
}

#[test]
fn workloads_run_identically_on_the_deterministic_lane_and_verify_on_the_rest() {
    for engine in workload::all() {
        let params = engine.default_params();
        let base = engine.run(&params).expect("default-policy run succeeds");
        let deterministic = engine
            .run_lane(&params, LanePolicy::Deterministic)
            .expect("deterministic-lane run succeeds");
        assert_eq!(
            base.measurements.as_slice(),
            deterministic.measurements.as_slice(),
            "{}: explicit --lane deterministic must reproduce the default rows",
            engine.name()
        );
        for policy in [LanePolicy::Simd, LanePolicy::Auto] {
            let lane = engine
                .run_lane(&params, policy)
                .expect("non-default lane run succeeds");
            assert_eq!(
                lane.measurements.len(),
                deterministic.measurements.len(),
                "{} ({policy}): lane changes the measurement shape",
                engine.name()
            );
            for (base_row, lane_row) in deterministic
                .measurements
                .iter()
                .zip(lane.measurements.iter())
            {
                assert_eq!(base_row.kernel, lane_row.kernel);
                // The verification class (passed/skipped) must not change
                // with the lane; the max-error detail inside may.
                assert_eq!(
                    base_row.verification.as_str().split('(').next(),
                    lane_row.verification.as_str().split('(').next(),
                    "{} ({policy}, kernel {}): lane changed the verification outcome",
                    engine.name(),
                    base_row.kernel
                );
            }
        }
    }
}

#[test]
fn laneless_workloads_are_byte_identical_on_every_lane() {
    // Hartree–Fock is left out: its device scatter uses floating-point
    // atomics, so the max-error detail of its rows varies with the
    // thread interleaving on any lane.
    for (name, ops) in [
        ("stencil", &[""][..]),
        ("jacobi", &[""]),
        ("framestream", &[""]),
        ("minibude", &[""]),
        ("babelstream", &["copy", "mul", "add", "triad"]),
    ] {
        let engine = workload::find(name).expect("registered workload");
        for op in ops {
            let mut params = engine.default_params();
            let size = engine.bench_sizes()[0];
            params
                .apply_encoding(&format!("{}={size}", engine.size_param()))
                .unwrap();
            if !op.is_empty() {
                params.apply_encoding(&format!("op={op}")).unwrap();
            }
            let base = engine
                .run_lane(&params, LanePolicy::Deterministic)
                .expect("deterministic-lane run succeeds");
            for policy in [LanePolicy::Simd, LanePolicy::Auto] {
                let lane = engine
                    .run_lane(&params, policy)
                    .expect("non-default lane run succeeds");
                assert_eq!(
                    base.measurements.as_slice(),
                    lane.measurements.as_slice(),
                    "{} {op} ({policy}): a workload without a lane kernel moved bytes",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn composite_cli_sweeps_are_byte_identical_across_thread_counts() {
    for (workload, sizes) in [("jacobi", "8,12"), ("framestream", "4096,16384")] {
        let base = mojo_hpc(&["sweep", workload, "--sizes", sizes], "1");
        assert_eq!(base.status.code(), Some(0), "sweep {workload} failed");
        for threads in ["1", "4"] {
            let lane = mojo_hpc(
                &[
                    "sweep",
                    workload,
                    "--sizes",
                    sizes,
                    "--lane",
                    "deterministic",
                ],
                threads,
            );
            assert_eq!(lane.status.code(), Some(0));
            assert_eq!(
                base.stdout, lane.stdout,
                "{workload}: --lane deterministic at {threads} thread(s) moved bytes"
            );
        }
        for lane in ["simd", "auto"] {
            let output = mojo_hpc(&["sweep", workload, "--sizes", sizes, "--lane", lane], "2");
            assert_eq!(
                output.status.code(),
                Some(0),
                "sweep {workload} --lane {lane} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert_eq!(
                base.stdout, output.stdout,
                "{workload}: --lane {lane} moved bytes, but it has no lane kernel"
            );
        }
    }
}

#[test]
fn cli_lane_deterministic_is_byte_identical_across_thread_counts() {
    // One bandwidth experiment (fig4: BabelStream, includes the Dot
    // reduction) and one reduction-heavy experiment (table4: Hartree–Fock).
    for experiment in ["fig4", "table4"] {
        let base = mojo_hpc(&["run", experiment], "1");
        assert_eq!(base.status.code(), Some(0), "run {experiment} failed");
        for threads in ["1", "4"] {
            let lane = mojo_hpc(&["run", experiment, "--lane", "deterministic"], threads);
            assert_eq!(
                lane.status.code(),
                Some(0),
                "run {experiment} --lane deterministic failed at {threads} thread(s)"
            );
            assert_eq!(
                base.stdout, lane.stdout,
                "{experiment}: --lane deterministic at {threads} thread(s) \
                 moved bytes relative to the default run"
            );
        }
    }
}

#[test]
fn cli_simd_and_auto_lanes_run_clean() {
    for lane in ["simd", "auto"] {
        let output = mojo_hpc(&["run", "fig4", "--lane", lane], "1");
        assert_eq!(
            output.status.code(),
            Some(0),
            "run fig4 --lane {lane} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
