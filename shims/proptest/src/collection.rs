//! Collection strategies (the subset used: `vec`).

use std::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Acceptable size arguments for [`vec()`]: an exact length or a range.
pub trait IntoSizeRange {
    /// Draws a concrete length.
    fn pick_len(&self, rng: &mut TestRng) -> usize;
}

impl IntoSizeRange for usize {
    fn pick_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl IntoSizeRange for Range<usize> {
    fn pick_len(&self, rng: &mut TestRng) -> usize {
        if self.start >= self.end {
            self.start
        } else {
            rng.gen_range(self.clone())
        }
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn pick_len(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// A `Vec` strategy: each element drawn independently from `element`.
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.len.pick_len(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A vector of values from `element` with length given by `len`.
pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn exact_and_ranged_lengths() {
        let mut r = TestRng::for_case("collection", 0);
        for _ in 0..100 {
            assert_eq!(vec(0i64..5, 9usize).generate(&mut r).len(), 9);
            let l = vec(0i64..5, 2..5usize).generate(&mut r).len();
            assert!((2..5).contains(&l));
            let li = vec(0i64..5, 0..=3usize).generate(&mut r).len();
            assert!(li <= 3);
        }
    }
}
