//! Parallel ALU operations.
//!
//! Each method issues exactly one SIMD controller step (one `alu`
//! instruction) and computes elementwise across all PEs — the activity mask
//! only gates *assignments* ([`Ppa::assign`]), never computation, faithful
//! to SIMD hardware.
//!
//! Arithmetic is the paper's: weights and path costs are `h`-bit unsigned
//! integers with `MAXINT = 2^h - 1` playing "infinity"; [`Ppa::sat_add`]
//! keeps `MAXINT` absorbing so a missing edge never becomes a finite cost
//! by overflow.

use crate::ppa::{Parallel, Ppa};
use crate::Result;
use ppa_machine::Executor;

impl<E: Executor> Ppa<E> {
    /// Elementwise wrapping addition (one step). Prefer [`Ppa::sat_add`]
    /// for path costs.
    pub fn add(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<i64>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x + y)?)
    }

    /// Elementwise saturating addition over the `h`-bit word: any sum that
    /// reaches or exceeds `MAXINT` — in particular any sum involving
    /// `MAXINT` itself — yields `MAXINT` (one step).
    pub fn sat_add(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<i64>> {
        let max = self.maxint();
        Ok(self
            .machine_mut()
            .zip(a, b, move |&x, &y| (x + y).min(max))?)
    }

    /// Elementwise subtraction (one step).
    pub fn sub(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<i64>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x - y)?)
    }

    /// Elementwise two-input minimum (one step). This is the PE-local
    /// word minimum; the *bus* minimum across a cluster is [`Ppa::min`].
    pub fn min2(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<i64>> {
        Ok(self.machine_mut().zip(a, b, |&x, &y| x.min(y))?)
    }

    /// Elementwise two-input maximum (one step).
    pub fn max2(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<i64>> {
        Ok(self.machine_mut().zip(a, b, |&x, &y| x.max(y))?)
    }

    /// Elementwise equality (one step).
    pub fn eq<T: PartialEq + Sync>(
        &mut self,
        a: &Parallel<T>,
        b: &Parallel<T>,
    ) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x == y)?)
    }

    /// Elementwise inequality (one step).
    pub fn ne<T: PartialEq + Sync>(
        &mut self,
        a: &Parallel<T>,
        b: &Parallel<T>,
    ) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x != y)?)
    }

    /// Elementwise `<` (one step).
    pub fn lt(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x < y)?)
    }

    /// Elementwise `<=` (one step).
    pub fn le(&mut self, a: &Parallel<i64>, b: &Parallel<i64>) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |x, y| x <= y)?)
    }

    /// Elementwise logical AND (one step).
    pub fn and(&mut self, a: &Parallel<bool>, b: &Parallel<bool>) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |&x, &y| x && y)?)
    }

    /// Elementwise logical OR (one step).
    pub fn or(&mut self, a: &Parallel<bool>, b: &Parallel<bool>) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().zip(a, b, |&x, &y| x || y)?)
    }

    /// Elementwise logical NOT (one step).
    pub fn not(&mut self, a: &Parallel<bool>) -> Result<Parallel<bool>> {
        Ok(self.machine_mut().map(a, |&x| !x)?)
    }

    /// The paper's `bit(x, i)` parallel function: the `i`-th bit plane of a
    /// parallel integer (one step). Values must be non-negative.
    pub fn bit(&mut self, a: &Parallel<i64>, i: u32) -> Result<Parallel<bool>> {
        debug_assert!(i < 63);
        Ok(self.machine_mut().map(a, move |&x| {
            debug_assert!(x >= 0, "bit() requires non-negative values");
            (x >> i) & 1 == 1
        })?)
    }

    /// Elementwise select `if m { a } else { b }` (one step).
    pub fn select<T: Copy>(
        &mut self,
        m: &Parallel<bool>,
        a: &Parallel<T>,
        b: &Parallel<T>,
    ) -> Result<Parallel<T>> {
        Ok(self
            .machine_mut()
            .zip3(m, a, b, |&k, &x, &y| if k { x } else { y })?)
    }

    /// Elementwise conversion from logical to integer (one step).
    pub fn to_int(&mut self, a: &Parallel<bool>) -> Result<Parallel<i64>> {
        Ok(self.machine_mut().map(a, |&b| i64::from(b))?)
    }

    /// Checks (without issuing controller steps — this is a simulator
    /// guardrail, not a machine instruction) that every element of `a` fits
    /// the `h`-bit unsigned word scanned by the bit-serial routines.
    pub fn check_representable(&self, a: &Parallel<i64>) -> Result<()> {
        let max = self.maxint();
        for &v in a.iter() {
            if v < 0 || v > max {
                return Err(crate::PpcError::ValueOutOfRange(v));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PpcError;

    fn fixture() -> (Ppa, Parallel<i64>, Parallel<i64>) {
        let ppa = Ppa::square(3).with_word_bits(8);
        let a = Parallel::from_fn(ppa.dim(), |c| (c.row * 3 + c.col) as i64);
        let b = Parallel::from_fn(ppa.dim(), |c| (c.col * 2) as i64);
        (ppa, a, b)
    }

    #[test]
    fn arithmetic_elementwise() {
        let (mut ppa, a, b) = fixture();
        let s = ppa.add(&a, &b).unwrap();
        assert_eq!(*s.at(2, 2), 8 + 4);
        let d = ppa.sub(&a, &b).unwrap();
        assert_eq!(*d.at(0, 2), 2 - 4);
        let m = ppa.min2(&a, &b).unwrap();
        assert_eq!(*m.at(0, 2), 2);
        let x = ppa.max2(&a, &b).unwrap();
        assert_eq!(*x.at(0, 2), 4);
    }

    #[test]
    fn sat_add_keeps_maxint_absorbing() {
        let (mut ppa, _, _) = fixture();
        let max = ppa.maxint();
        let inf = ppa.constant(max);
        let one = ppa.constant(1i64);
        let s = ppa.sat_add(&inf, &one).unwrap();
        assert!(s.iter().all(|&v| v == max));
        // Near-saturation also clamps.
        let big = ppa.constant(max - 1);
        let three = ppa.constant(3i64);
        let s = ppa.sat_add(&big, &three).unwrap();
        assert!(s.iter().all(|&v| v == max));
    }

    #[test]
    fn comparisons() {
        let (mut ppa, a, b) = fixture();
        let lt = ppa.lt(&a, &b).unwrap();
        assert!(*lt.at(0, 1)); // 1 < 2
        assert!(!*lt.at(1, 0)); // 3 < 0 is false
        let eq = ppa.eq(&a, &b).unwrap();
        assert!(*eq.at(0, 0)); // 0 == 0
        let ne = ppa.ne(&a, &b).unwrap();
        assert!(!*ne.at(0, 0));
        let le = ppa.le(&a, &b).unwrap();
        assert!(*le.at(0, 0));
    }

    #[test]
    fn boolean_algebra() {
        let mut ppa = Ppa::square(2);
        let t = ppa.constant(true);
        let f = ppa.constant(false);
        assert!(ppa.and(&t, &f).unwrap().iter().all(|&b| !b));
        assert!(ppa.or(&t, &f).unwrap().iter().all(|&b| b));
        assert!(ppa.not(&f).unwrap().iter().all(|&b| b));
    }

    #[test]
    fn bit_planes_decompose_values() {
        let mut ppa = Ppa::square(2).with_word_bits(4);
        let v = Parallel::from_fn(ppa.dim(), |c| (c.row * 2 + c.col) as i64 + 5); // 5,6,7,8
        for i in 0..4 {
            let plane = ppa.bit(&v, i).unwrap();
            for (c, &bit) in plane.enumerate() {
                let x = (c.row * 2 + c.col) as i64 + 5;
                assert_eq!(bit, (x >> i) & 1 == 1);
            }
        }
    }

    #[test]
    fn select_merges() {
        let (mut ppa, a, b) = fixture();
        let m = Parallel::from_fn(ppa.dim(), |c| c.row == 0);
        let s = ppa.select(&m, &a, &b).unwrap();
        assert_eq!(*s.at(0, 1), *a.at(0, 1));
        assert_eq!(*s.at(1, 1), *b.at(1, 1));
    }

    #[test]
    fn representability_guardrail() {
        let ppa = Ppa::square(2).with_word_bits(4);
        let ok = Parallel::filled(ppa.dim(), 15i64);
        assert!(ppa.check_representable(&ok).is_ok());
        let bad = Parallel::filled(ppa.dim(), 16i64);
        assert!(matches!(
            ppa.check_representable(&bad),
            Err(PpcError::ValueOutOfRange(16))
        ));
        let neg = Parallel::filled(ppa.dim(), -1i64);
        assert!(ppa.check_representable(&neg).is_err());
    }

    #[test]
    fn each_op_costs_one_step() {
        let (mut ppa, a, b) = fixture();
        let before = ppa.steps().total();
        let _ = ppa.add(&a, &b).unwrap();
        let _ = ppa.lt(&a, &b).unwrap();
        let _ = ppa.bit(&a, 0).unwrap();
        assert_eq!(ppa.steps().total(), before + 3);
    }

    #[test]
    fn to_int_converts() {
        let mut ppa = Ppa::square(2);
        let m = Parallel::from_fn(ppa.dim(), |c| c.col == 1);
        let v = ppa.to_int(&m).unwrap();
        assert_eq!(v.row(0), &[0, 1]);
    }
}
