//! CPU golden reference for the seven-point stencil.

use super::config::StencilConfig;
use crate::real::Real;
use rayon::prelude::*;

/// Fills the input grid with a smooth, reproducible field:
/// `u(i, j, k) = sin-free polynomial of the normalised coordinates`, matching
/// what the baseline codes use to initialise their grids (any smooth field
/// works because validation is bitwise against the same initialisation).
pub fn initialize_grid(config: &StencilConfig) -> Vec<f64> {
    let l = config.l;
    let mut u = vec![0.0f64; l * l * l];
    let denom = (l - 1) as f64;
    u.par_chunks_mut(l * l).enumerate().for_each(|(i, plane)| {
        let x = i as f64 / denom;
        for j in 0..l {
            let y = j as f64 / denom;
            for k in 0..l {
                let z = k as f64 / denom;
                plane[j * l + k] = x * x + 2.0 * y * y + 3.0 * z * z + 0.5 * x * y * z;
            }
        }
    });
    u
}

/// Sequentially applies the seven-point Laplacian to interior cells in the
/// working precision `T`, leaving the boundary untouched (zero), exactly as
/// the GPU kernels do: the same expression, in the same order, with the
/// coefficients rounded to `T` the way the drivers round them. In f64 from
/// the f64 grid it is the reference every precision is judged against; in
/// f32 from the narrowed grid it must match an FP32 device run bit for bit.
pub fn reference_laplacian<T: Real>(config: &StencilConfig, u: &[T]) -> Vec<T> {
    let l = config.l;
    let (invhx2, invhy2, invhz2, invhxyz2) = config.coefficients();
    let (cx, cy, cz, cc) = (
        T::from_f64(invhx2),
        T::from_f64(invhy2),
        T::from_f64(invhz2),
        T::from_f64(invhxyz2),
    );
    let idx = |i: usize, j: usize, k: usize| (i * l + j) * l + k;
    let mut f = vec![T::default(); l * l * l];
    for i in 1..l - 1 {
        for j in 1..l - 1 {
            for k in 1..l - 1 {
                f[idx(i, j, k)] = u[idx(i, j, k)] * cc
                    + (u[idx(i - 1, j, k)] + u[idx(i + 1, j, k)]) * cx
                    + (u[idx(i, j - 1, k)] + u[idx(i, j + 1, k)]) * cy
                    + (u[idx(i, j, k - 1)] + u[idx(i, j, k + 1)]) * cz;
            }
        }
    }
    f
}

/// The forward-error bound's multiple of the working precision's unit
/// roundoff `u`. A neighbour term of a cell is rounded on input (the f64
/// grid narrowed to the working precision), in its coefficient, its pair
/// sum, its product and at most three accumulating additions: seven
/// roundings, so the computed cell is within `γ₇·Σ|terms|` of the exact
/// value, with `γ₇ = 7u/(1−7u) < 8u`. The f64 reference's own error is
/// far inside the remaining slack.
pub const FORWARD_ERROR_ROUNDINGS: f64 = 8.0;

/// Checks a working-precision stencil output against the f64 reference
/// with a per-cell forward-error bound, and returns the largest absolute
/// error, or names the first cell outside its bound.
///
/// Cell `c` passes when `|actual − expected| ≤ 8·u·Σ|terms|`, where
/// `Σ|terms| = |u_c·c_c| + Σ_n |u_n|·|c_n|` is evaluated from the f64
/// `grid`. The bound scales with the terms, not with the result: the
/// Laplacian of a smooth field is a small difference of terms of size
/// `~6·(L−1)²·|u|`, so a bound relative to the result alone rejects
/// correctly rounded FP32 output at large `L`. Boundary cells carry no
/// terms and must match exactly.
pub fn check_forward_error<T: Real>(
    config: &StencilConfig,
    actual: &[T],
    expected: &[f64],
    grid: &[f64],
) -> Result<f64, String> {
    let l = config.l;
    let (cx, cy, cz, cc) = config.coefficients();
    let (cx, cy, cz, cc) = (cx.abs(), cy.abs(), cz.abs(), cc.abs());
    let scale = FORWARD_ERROR_ROUNDINGS * T::UNIT_ROUNDOFF;
    let idx = |i: usize, j: usize, k: usize| (i * l + j) * l + k;
    let interior = |n: usize| n > 0 && n < l - 1;
    let mut max_err = 0.0f64;
    for i in 0..l {
        for j in 0..l {
            for k in 0..l {
                let at = idx(i, j, k);
                let terms = if interior(i) && interior(j) && interior(k) {
                    let u = |at: usize| grid[at].abs();
                    u(at) * cc
                        + (u(idx(i - 1, j, k)) + u(idx(i + 1, j, k))) * cx
                        + (u(idx(i, j - 1, k)) + u(idx(i, j + 1, k))) * cy
                        + (u(idx(i, j, k - 1)) + u(idx(i, j, k + 1))) * cz
                } else {
                    0.0
                };
                let (a, e) = (actual[at].to_f64(), expected[at]);
                let (err, bound) = ((a - e).abs(), scale * terms);
                if err > bound || err.is_nan() {
                    return Err(format!(
                        "element {at} differs: got {a}, expected {e} (error {err:.3e} exceeds \
                         the forward-error bound {bound:.3e})"
                    ));
                }
                max_err = max_err.max(err);
            }
        }
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn constant_field_has_zero_laplacian() {
        let config = StencilConfig::validation(12, Precision::Fp64);
        let u = vec![5.0f64; 12 * 12 * 12];
        let f = reference_laplacian(&config, &u);
        for v in f {
            assert!(
                v.abs() < 1e-6,
                "Laplacian of a constant must vanish, got {v}"
            );
        }
    }

    #[test]
    fn linear_field_has_zero_laplacian() {
        // u = x + 2y + 3z is harmonic; its Laplacian must vanish on interior cells.
        let config = StencilConfig::validation(16, Precision::Fp64);
        let l = config.l;
        let mut u = vec![0.0; l * l * l];
        for i in 0..l {
            for j in 0..l {
                for k in 0..l {
                    u[(i * l + j) * l + k] = i as f64 + 2.0 * j as f64 + 3.0 * k as f64;
                }
            }
        }
        let f = reference_laplacian(&config, &u);
        for v in f {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn quadratic_field_has_constant_laplacian() {
        // u = x² (in index space with h = 1) has ∇²u = 2 / h² at every interior cell.
        let config = StencilConfig {
            l: 10,
            precision: Precision::Fp64,
            block_x: 8,
            spacing: 1.0,
            validate: true,
        };
        let l = config.l;
        let mut u = vec![0.0; l * l * l];
        for i in 0..l {
            for j in 0..l {
                for k in 0..l {
                    u[(i * l + j) * l + k] = (i as f64) * (i as f64);
                }
            }
        }
        let f = reference_laplacian(&config, &u);
        let idx = |i: usize, j: usize, k: usize| (i * l + j) * l + k;
        for i in 1..l - 1 {
            for j in 1..l - 1 {
                for k in 1..l - 1 {
                    assert!((f[idx(i, j, k)] - 2.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn boundary_cells_are_untouched() {
        let config = StencilConfig::validation(8, Precision::Fp64);
        let u = initialize_grid(&config);
        let f = reference_laplacian(&config, &u);
        let l = config.l;
        assert_eq!(f[0], 0.0);
        assert_eq!(f[(l * l * l) - 1], 0.0);
    }

    #[test]
    fn initialization_is_deterministic_and_smooth() {
        let config = StencilConfig::validation(16, Precision::Fp64);
        let a = initialize_grid(&config);
        let b = initialize_grid(&config);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
        assert!(a.iter().any(|&v| v != 0.0));
    }
}
