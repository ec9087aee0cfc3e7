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
    /// the `h`-bit unsigned word of a register: the validation of
    /// [`Ppa::load`].
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`](crate::PpcError::ValueOutOfRange)
    /// naming the first offending value in row-major order.
    pub fn check_representable(&self, a: &Parallel<i64>) -> Result<()> {
        // One branch-free OR-fold: any value with a bit at or above `h` —
        // a negative `i64` sets bit 63 — leaves one in the fold. Only a
        // failing plane is walked again to name its first offender.
        let folded = a.iter().fold(0u64, |acc, &v| acc | v as u64);
        if folded >> self.word_bits() == 0 {
            return Ok(());
        }
        let max = self.maxint();
        match a.iter().find(|&&v| v < 0 || v > max) {
            Some(&v) => Err(crate::PpcError::ValueOutOfRange(v)),
            None => Ok(()),
        }
    }

    // ----- integer registers and masks ----------------------------------------
    //
    // The closed register opcode set the MCP driver issues for shortest and
    // widest paths and their ablations. Each costs one ALU step, exactly
    // like its plane twin above.

    /// Elementwise saturating `h`-bit addition of two registers (one step):
    /// a sum that reaches `MAXINT` yields `MAXINT`.
    pub fn int_sat_add(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Int> {
        let h = self.word_bits();
        Ok(self.machine_mut().int_sat_add(a, b, h)?)
    }

    /// Elementwise register equality into a mask (one step).
    pub fn int_eq(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Mask> {
        Ok(self.machine_mut().int_eq(a, b, true)?)
    }

    /// Elementwise register inequality into a mask (one step).
    pub fn int_ne(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Mask> {
        Ok(self.machine_mut().int_eq(a, b, false)?)
    }

    /// Elementwise register `<` into a mask (one step).
    pub fn int_lt(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Mask> {
        Ok(self.machine_mut().int_lt(a, b)?)
    }

    /// Elementwise two-input minimum of two registers (one step); the
    /// *bus* minimum across a cluster is [`Ppa::int_min`].
    pub fn int_min2(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Int> {
        Ok(self.machine_mut().int_min2(a, b)?)
    }

    /// The paper's `bit(x, i)` on a register: bit-plane `i` as a mask
    /// (one step).
    pub fn int_bit(&mut self, a: &E::Int, i: u32) -> Result<E::Mask> {
        Ok(self.machine_mut().int_bit(a, i)?)
    }

    /// Elementwise logical AND of two mask registers (one step).
    pub fn mask_and(&mut self, a: &E::Mask, b: &E::Mask) -> Result<E::Mask> {
        Ok(self.machine_mut().mask_and(a, b)?)
    }

    /// Elementwise logical OR of two mask registers (one step).
    pub fn mask_or(&mut self, a: &E::Mask, b: &E::Mask) -> Result<E::Mask> {
        Ok(self.machine_mut().mask_or(a, b)?)
    }

    /// Elementwise logical NOT of a mask register (one step).
    pub fn mask_not(&mut self, a: &E::Mask) -> Result<E::Mask> {
        Ok(self.machine_mut().mask_not(a)?)
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
    fn representability_names_the_first_offender_at_every_width() {
        for h in [1u32, 11, 62] {
            let ppa = Ppa::square(3).with_word_bits(h);
            let max = ppa.maxint();
            let last = ppa.dim().len() - 1;
            // Exactly MAXINT everywhere is accepted.
            let full = Parallel::filled(ppa.dim(), max);
            assert_eq!(ppa.check_representable(&full), Ok(()), "h={h}");
            for bad in [-1, i64::MIN, max + 1] {
                for at in [0, last] {
                    // A second, different offender later in row-major
                    // order must not be the one reported.
                    let v = Parallel::from_vec(
                        ppa.dim(),
                        (0..=last)
                            .map(|i| match i {
                                i if i == at => bad,
                                i if i == last => -7,
                                _ => max,
                            })
                            .collect(),
                    );
                    assert_eq!(
                        ppa.check_representable(&v),
                        Err(PpcError::ValueOutOfRange(bad)),
                        "h={h} value {bad} at PE {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn register_ops_match_their_plane_twins() {
        let (mut ppa, a, b) = fixture();
        let (ra, rb) = (ppa.load(&a).unwrap(), ppa.load(&b).unwrap());
        let before = ppa.steps();
        let sum = ppa.int_sat_add(&ra, &rb).unwrap();
        let eq = ppa.int_eq(&ra, &rb).unwrap();
        let ne = ppa.int_ne(&ra, &rb).unwrap();
        let lt = ppa.int_lt(&ra, &rb).unwrap();
        let min = ppa.int_min2(&ra, &rb).unwrap();
        let bit = ppa.int_bit(&ra, 1).unwrap();
        let and = ppa.mask_and(&eq, &bit).unwrap();
        let or = ppa.mask_or(&eq, &bit).unwrap();
        let not = ppa.mask_not(&eq).unwrap();
        let reg_steps = ppa.steps().since(&before);
        let before = ppa.steps();
        assert_eq!(ppa.read(&sum), ppa.sat_add(&a, &b).unwrap());
        let peq = ppa.eq(&a, &b).unwrap();
        assert_eq!(eq, peq);
        assert_eq!(ne, ppa.ne(&a, &b).unwrap());
        assert_eq!(lt, ppa.lt(&a, &b).unwrap());
        assert_eq!(ppa.read(&min), ppa.min2(&a, &b).unwrap());
        let pbit = ppa.bit(&a, 1).unwrap();
        assert_eq!(bit, pbit);
        assert_eq!(and, ppa.and(&peq, &pbit).unwrap());
        assert_eq!(or, ppa.or(&peq, &pbit).unwrap());
        assert_eq!(not, ppa.not(&peq).unwrap());
        assert_eq!(reg_steps, ppa.steps().since(&before), "same ALU steps");
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
