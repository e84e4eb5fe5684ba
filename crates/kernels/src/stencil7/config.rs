//! Stencil run configuration.

use gpu_spec::Precision;
use serde::{Deserialize, Serialize};

/// Grid sizes above which the host driver skips functional execution (the
/// timing model needs no execution, and a 512³ FP64 grid costs > 2 GB and
/// hundreds of milliseconds per simulated launch on the host).
pub const MAX_FUNCTIONAL_L: usize = 192;

/// FP32 functional-execution limit. The kernel's coefficients grow as
/// `(L-1)²`, so the Laplacian is a small difference of terms of magnitude
/// `~6·(L-1)²`, and the single-precision cancellation error grows with it.
/// Verification bounds that error per cell (`8·u·Σ|terms|`, DESIGN.md §7),
/// so this limit no longer guards a tolerance; it keeps FP32 functional runs
/// at the sizes the sweeps and goldens have always executed.
pub const MAX_FUNCTIONAL_L_FP32: usize = 40;

/// The largest grid the driver executes functionally at a given precision.
pub fn functional_limit(precision: Precision) -> usize {
    match precision {
        Precision::Fp32 => MAX_FUNCTIONAL_L_FP32,
        Precision::Fp64 => MAX_FUNCTIONAL_L,
    }
}

/// Configuration of one seven-point-stencil experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StencilConfig {
    /// Cubic grid side length `L` (the paper uses 512 and 1024).
    pub l: usize,
    /// Arithmetic precision (the paper runs both FP32 and FP64).
    pub precision: Precision,
    /// Threads per block along x (the paper uses 512 or 1024; y and z are 1).
    pub block_x: u32,
    /// Grid spacing used for the inverse-square coefficients (the baseline
    /// uses a unit cube, so `h = 1 / (L - 1)`).
    pub spacing: f64,
    /// Whether to execute the kernel functionally and validate against the
    /// CPU reference (automatically skipped above the precision's
    /// [`functional_limit`]: [`MAX_FUNCTIONAL_L`] for FP64,
    /// [`MAX_FUNCTIONAL_L_FP32`] for FP32).
    pub validate: bool,
}

impl StencilConfig {
    /// The paper's configuration for a given `L` and precision:
    /// thread blocks of `min(L, 1024)` threads in x.
    pub fn paper(l: usize, precision: Precision) -> Self {
        StencilConfig {
            l,
            precision,
            block_x: (l as u32).min(1024),
            spacing: 1.0 / (l as f64 - 1.0),
            validate: l <= functional_limit(precision),
        }
    }

    /// A small configuration that always executes functionally; used by tests.
    pub fn validation(l: usize, precision: Precision) -> Self {
        StencilConfig {
            l,
            precision,
            block_x: (l as u32).min(64),
            spacing: 1.0 / (l as f64 - 1.0),
            validate: true,
        }
    }

    /// Whether the driver should run the kernel functionally.
    pub fn should_execute(&self) -> bool {
        self.validate && self.l <= functional_limit(self.precision)
    }

    /// Inverse-square coefficients `(invhx2, invhy2, invhz2, invhxyz2)` used
    /// by the kernel; the grid is isotropic so the first three are equal and
    /// the centre coefficient is `-2 (invhx2 + invhy2 + invhz2)`.
    pub fn coefficients(&self) -> (f64, f64, f64, f64) {
        let invh2 = 1.0 / (self.spacing * self.spacing);
        (invh2, invh2, invh2, -6.0 * invh2)
    }

    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        (self.l as u64).pow(3)
    }

    /// Number of interior (updated) cells.
    pub fn interior_cells(&self) -> u64 {
        (self.l as u64 - 2).pow(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_artifact_parameters() {
        let c = StencilConfig::paper(512, Precision::Fp64);
        assert_eq!(c.l, 512);
        assert_eq!(c.block_x, 512);
        assert!(!c.should_execute());
        let c = StencilConfig::paper(1024, Precision::Fp32);
        assert_eq!(c.block_x, 1024);
        assert_eq!(c.cells(), 1 << 30);
    }

    #[test]
    fn validation_configs_execute() {
        let c = StencilConfig::validation(32, Precision::Fp64);
        assert!(c.should_execute());
        assert_eq!(c.interior_cells(), 30u64.pow(3));
    }

    #[test]
    fn coefficients_sum_to_zero_for_constant_fields() {
        // The Laplacian of a constant field is zero: centre + 6 neighbours.
        let c = StencilConfig::validation(16, Precision::Fp64);
        let (ix, iy, iz, ic) = c.coefficients();
        assert!((2.0 * ix + 2.0 * iy + 2.0 * iz + ic).abs() < 1e-9);
    }
}
