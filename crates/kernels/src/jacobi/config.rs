//! Jacobi solver run configuration.

use serde::{Deserialize, Serialize};

/// Grid sides above which the host driver skips functional execution: a
/// Jacobi solve runs hundreds of sweeps, so the functional budget is far
/// tighter than the single-sweep stencil's.
pub const MAX_FUNCTIONAL_L_JACOBI: usize = 32;

/// The documented convergence criterion: the solve stops once the RMS
/// iterate-difference norm has dropped below this fraction of its
/// first-iteration value (DESIGN.md §15).
pub const RESIDUAL_REDUCTION: f64 = 1e-3;

/// Ceiling on the iteration-cap parameter: keeps `iters × bytes-per-sweep`
/// far inside `u64` for every admissible grid.
pub const MAX_JACOBI_ITERS: usize = 100_000;

/// Six-neighbour average coefficient; shared by the device kernels and the
/// CPU reference so every path computes bitwise-identical sweeps.
pub const SIXTH: f64 = 1.0 / 6.0;

/// Configuration of one Jacobi-solver experiment. The solver runs in FP64
/// only — the convergence criterion is a property of the arithmetic, and the
/// paper's composite patterns are not precision-swept.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JacobiConfig {
    /// Cubic grid side length `L`.
    pub l: usize,
    /// Iteration cap: the solve stops here even if the residual target of
    /// [`RESIDUAL_REDUCTION`] has not been reached.
    pub iters: usize,
    /// Threads per block along x (same heuristic as the stencil).
    pub block_x: u32,
    /// Whether to execute the solve functionally and validate against the
    /// CPU reference (automatically disabled above
    /// [`MAX_FUNCTIONAL_L_JACOBI`]).
    pub validate: bool,
}

impl JacobiConfig {
    /// The standard configuration for a grid side: the stencil's block
    /// heuristic and functional validation below the Jacobi limit.
    pub fn paper(l: usize, iters: usize) -> Self {
        JacobiConfig {
            l,
            iters,
            block_x: (l as u32).min(1024),
            validate: l <= MAX_FUNCTIONAL_L_JACOBI,
        }
    }

    /// A small configuration that always executes functionally; used by
    /// tests.
    pub fn validation(l: usize, iters: usize) -> Self {
        JacobiConfig {
            l,
            iters,
            block_x: (l as u32).min(64),
            validate: true,
        }
    }

    /// Whether the driver should run the solve functionally.
    pub fn should_execute(&self) -> bool {
        self.validate && self.l <= MAX_FUNCTIONAL_L_JACOBI
    }

    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        (self.l as u64).pow(3)
    }

    /// Number of interior (relaxed) cells.
    pub fn interior_cells(&self) -> u64 {
        (self.l as u64 - 2).pow(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_gate_functional_execution_on_the_jacobi_limit() {
        let small = JacobiConfig::paper(16, 400);
        assert!(small.should_execute());
        assert_eq!(small.block_x, 16);
        let large = JacobiConfig::paper(128, 400);
        assert!(!large.should_execute());
        assert_eq!(large.cells(), 1 << 21);
        assert_eq!(large.interior_cells(), 126u64.pow(3));
    }

    #[test]
    fn validation_configs_execute() {
        let c = JacobiConfig::validation(12, 100);
        assert!(c.should_execute());
        assert_eq!(c.interior_cells(), 1000);
    }

    #[test]
    fn convergence_target_is_the_documented_constant() {
        assert_eq!(RESIDUAL_REDUCTION, 1e-3);
        assert_eq!(MAX_JACOBI_ITERS, 100_000);
    }
}
