//! A minimal real-number abstraction so kernels that the paper runs in both
//! FP32 and FP64 (stencil, BabelStream) can share one generic implementation.

use gpu_sim::memory::DeviceScalar;
use gpu_spec::Precision;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Floating-point element types usable in the generic kernels.
pub trait Real:
    DeviceScalar
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + PartialOrd
{
    /// The precision descriptor for this type.
    const PRECISION: Precision;
    /// Unit roundoff `u` of this type (half the machine epsilon): the
    /// largest relative error of one correctly rounded operation.
    const UNIT_ROUNDOFF: f64;
    /// Converts from `f64` (used for initialisation data and coefficients).
    fn from_f64(x: f64) -> Self;
    /// Converts to `f64` (used for validation against references).
    fn to_f64(self) -> f64;
    /// Relative tolerance appropriate for validating results of this type.
    fn tolerance() -> f64;
}

impl Real for f32 {
    const PRECISION: Precision = Precision::Fp32;
    const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn tolerance() -> f64 {
        5e-4
    }
}

impl Real for f64 {
    const PRECISION: Precision = Precision::Fp64;
    const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    fn tolerance() -> f64 {
        1e-10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<T: Real>(values: &[f64]) -> f64 {
        let mut acc = T::from_f64(0.0);
        for &v in values {
            acc += T::from_f64(v);
        }
        acc.to_f64()
    }

    #[test]
    fn both_precisions_round_trip() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f32::PRECISION, Precision::Fp32);
        assert_eq!(f64::PRECISION, Precision::Fp64);
        assert!(f32::tolerance() > f64::tolerance());
    }

    #[test]
    fn generic_arithmetic_works_for_both() {
        let values = [0.25, 0.5, 0.125];
        assert!((generic_sum::<f32>(&values) - 0.875).abs() < 1e-6);
        assert!((generic_sum::<f64>(&values) - 0.875).abs() < 1e-12);
    }
}
