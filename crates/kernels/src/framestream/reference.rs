//! Host frame accumulator and closed-form expected value.
//!
//! Each frame folds into the running accumulator as an exponential moving
//! average, `acc ← acc·BETA + ALPHA·value(f)`, applied element-wise. The
//! per-element update chain is strictly sequential in the frame index and
//! touches each element independently, so the result is bitwise-identical no
//! matter how the frame range is partitioned — the property the proptests
//! pin.

use super::config::{frame_value, ACC_INIT, ALPHA, BETA};
use rayon::prelude::*;
use std::ops::Range;

/// Folds frames `range` into `acc`, in frame order, element-wise on the
/// worker pool, applying `acc·BETA + ALPHA·v` to every element.
pub fn accumulate_frames(acc: &mut [f64], range: Range<usize>) {
    for f in range {
        let v = frame_value(f as u64);
        acc.par_chunks_mut(rayon::REDUCE_CHUNK).for_each(|chunk| {
            for x in chunk {
                *x = *x * BETA + ALPHA * v;
            }
        });
    }
}

/// The closed-form expected accumulator after `frames` frames: every element
/// starts at [`ACC_INIT`] and sees the same frame values, so one serial
/// scalar fold reproduces the exact f64 every element must hold.
pub fn expected_final(frames: usize) -> f64 {
    let mut acc = ACC_INIT;
    for f in 0..frames {
        acc = acc * BETA + ALPHA * frame_value(f as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::PooledVec;

    fn fresh(n: usize) -> PooledVec<f64> {
        let mut acc: PooledVec<f64> = PooledVec::new();
        acc.resize(n, ACC_INIT);
        acc
    }

    #[test]
    fn host_fold_matches_the_closed_form_bitwise() {
        let mut acc = fresh(4096);
        accumulate_frames(acc.as_mut_slice(), 0..48);
        let expected = expected_final(48);
        for &x in acc.iter() {
            assert_eq!(x.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn partitioned_accumulation_is_bitwise_identical_to_one_batch() {
        let mut whole = fresh(1000);
        accumulate_frames(whole.as_mut_slice(), 0..40);
        let mut split = fresh(1000);
        accumulate_frames(split.as_mut_slice(), 0..7);
        accumulate_frames(split.as_mut_slice(), 7..29);
        accumulate_frames(split.as_mut_slice(), 29..40);
        assert_eq!(whole.as_slice(), split.as_slice());
    }

    #[test]
    fn the_accumulator_stays_bounded() {
        // ALPHA + BETA = 1 with frame values in [0.1, 0.85] keeps the EMA in
        // that hull (plus the initial value) forever.
        let expected = expected_final(65_536);
        assert!((0.1..=0.85).contains(&expected), "{expected}");
    }
}
