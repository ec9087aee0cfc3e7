//! The machine-word seam behind the packed backends.
//!
//! The paper's bit-plane layout packs one boolean per PE into machine
//! words; nothing about the kernels cares *how wide* those words are, only
//! that they support the handful of bitset operations below. [`Word`]
//! captures that contract so [`PackedBackend`](crate::PackedBackend) and
//! [`ThreadedBackend`](crate::ThreadedBackend) can be generic over width:
//!
//! * [`W64`] — plain `u64`, the historical word and the default type
//!   parameter everywhere, so existing call sites are unchanged.
//! * [`W256`] — a 4x`u64` SWAR struct. Every operation is a fixed-length
//!   limb loop over `[u64; 4]`, which the compiler auto-vectorises on
//!   targets with 128/256-bit vector units; no `std::simd` or intrinsics
//!   are involved, so `#![forbid(unsafe_code)]` holds.
//!
//! The trait is deliberately limb-oriented (`limb`/`set_limb` over 64-bit
//! halves) rather than bit-oriented: the hot kernels in
//! [`packed`](crate::packed) build each 64-bit limb branchlessly exactly as
//! the pre-seam `u64` code did, so `PackedBackend<W64>` compiles to the
//! same inner loops as the historical backend and stays bit-identical to
//! it by construction.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};
use std::str::FromStr;

/// A machine word for packed bit-plane masks.
///
/// Implementations must behave as a `Self::BITS`-wide bitset addressed in
/// little-endian bit order (bit `b` lives in limb `b / 64` at in-limb
/// position `b % 64`). All default methods are derived from
/// [`limb`](Word::limb)/[`set_limb`](Word::set_limb) plus the bitwise
/// operator supertraits, so a new width only has to supply storage.
pub trait Word:
    Copy
    + fmt::Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + BitXorAssign
    + Not<Output = Self>
{
    /// Width of the word in bits (`64 * LIMBS`).
    const BITS: usize;
    /// Number of 64-bit limbs backing the word.
    const LIMBS: usize;
    /// `Executor::NAME` of `PackedBackend<Self>` — keys the
    /// `exec.<backend>.<class>.ns` metric namespace and bench baselines.
    const PACKED_NAME: &'static str;
    /// `Executor::NAME` of `ThreadedBackend<Self>`.
    const THREADED_NAME: &'static str;

    /// The all-zeros word.
    fn zero() -> Self;
    /// Limb `i` (little-endian: limb 0 holds bits `0..64`).
    fn limb(self, i: usize) -> u64;
    /// Overwrites limb `i`.
    fn set_limb(&mut self, i: usize, v: u64);

    /// The all-ones word.
    fn ones() -> Self {
        let mut w = Self::zero();
        for i in 0..Self::LIMBS {
            w.set_limb(i, !0u64);
        }
        w
    }

    /// Whether bit `b` is set.
    #[inline]
    fn bit(self, b: usize) -> bool {
        (self.limb(b / 64) >> (b % 64)) & 1 == 1
    }

    /// `self` with bit `b` set.
    #[inline]
    fn with_bit(mut self, b: usize) -> Self {
        let li = b / 64;
        self.set_limb(li, self.limb(li) | 1u64 << (b % 64));
        self
    }

    /// Number of set bits.
    #[inline]
    fn count_ones(self) -> usize {
        let mut n = 0;
        for i in 0..Self::LIMBS {
            n += self.limb(i).count_ones() as usize;
        }
        n
    }

    /// Whether no bit is set.
    #[inline]
    fn is_zero(self) -> bool {
        for i in 0..Self::LIMBS {
            if self.limb(i) != 0 {
                return false;
            }
        }
        true
    }

    /// Bits `0..n` set (`n <= BITS`; `n == BITS` gives [`ones`](Word::ones)).
    fn low_mask(n: usize) -> Self {
        debug_assert!(n <= Self::BITS);
        let mut w = Self::zero();
        for i in 0..Self::LIMBS {
            let base = i * 64;
            if n >= base + 64 {
                w.set_limb(i, !0u64);
            } else if n > base {
                w.set_limb(i, (1u64 << (n - base)) - 1);
            }
        }
        w
    }

    /// Bits `start..end` set.
    fn range_mask(start: usize, end: usize) -> Self {
        Self::low_mask(end) & !Self::low_mask(start)
    }

    /// Calls `f` with each set bit position, in ascending order.
    #[inline]
    fn for_each_set_bit(self, mut f: impl FnMut(usize)) {
        for i in 0..Self::LIMBS {
            let mut bits = self.limb(i);
            while bits != 0 {
                f(i * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Folds the word's limbs into an FNV-1a accumulator — the bus-plan
    /// fingerprint primitive, width-stable per limb.
    #[inline]
    fn fold_fnv(self, mut h: u64) -> u64 {
        for i in 0..Self::LIMBS {
            h ^= self.limb(i);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// The historical 64-bit machine word — an alias so width-generic code can
/// name it symmetrically with [`W256`].
pub type W64 = u64;

impl Word for u64 {
    const BITS: usize = 64;
    const LIMBS: usize = 1;
    const PACKED_NAME: &'static str = "packed";
    const THREADED_NAME: &'static str = "threaded";

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn limb(self, _i: usize) -> u64 {
        self
    }

    #[inline]
    fn set_limb(&mut self, _i: usize, v: u64) {
        *self = v;
    }
}

/// A 256-bit SWAR word: four `u64` limbs, little-endian bit order.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct W256(pub [u64; 4]);

impl Word for W256 {
    const BITS: usize = 256;
    const LIMBS: usize = 4;
    const PACKED_NAME: &'static str = "packed256";
    const THREADED_NAME: &'static str = "threaded256";

    #[inline]
    fn zero() -> Self {
        W256([0; 4])
    }

    #[inline]
    fn limb(self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline]
    fn set_limb(&mut self, i: usize, v: u64) {
        self.0[i] = v;
    }
}

impl BitAnd for W256 {
    type Output = W256;
    #[inline]
    fn bitand(self, rhs: W256) -> W256 {
        let (a, b) = (self.0, rhs.0);
        W256([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }
}

impl BitOr for W256 {
    type Output = W256;
    #[inline]
    fn bitor(self, rhs: W256) -> W256 {
        let (a, b) = (self.0, rhs.0);
        W256([a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]])
    }
}

impl BitXor for W256 {
    type Output = W256;
    #[inline]
    fn bitxor(self, rhs: W256) -> W256 {
        let (a, b) = (self.0, rhs.0);
        W256([a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]])
    }
}

impl BitAndAssign for W256 {
    #[inline]
    fn bitand_assign(&mut self, rhs: W256) {
        for (l, r) in self.0.iter_mut().zip(rhs.0) {
            *l &= r;
        }
    }
}

impl BitOrAssign for W256 {
    #[inline]
    fn bitor_assign(&mut self, rhs: W256) {
        for (l, r) in self.0.iter_mut().zip(rhs.0) {
            *l |= r;
        }
    }
}

impl BitXorAssign for W256 {
    #[inline]
    fn bitxor_assign(&mut self, rhs: W256) {
        for (l, r) in self.0.iter_mut().zip(rhs.0) {
            *l ^= r;
        }
    }
}

impl Not for W256 {
    type Output = W256;
    #[inline]
    fn not(self) -> W256 {
        let a = self.0;
        W256([!a[0], !a[1], !a[2], !a[3]])
    }
}

impl fmt::Debug for W256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Most-significant limb first, so the printout reads as one
        // 256-bit number.
        write!(
            f,
            "W256({:#018x}_{:016x}_{:016x}_{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

/// Runtime selection of a packed-backend word width — the `word` of a
/// [`BackendSpec`](crate::BackendSpec), parsed from `solve --word`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum WordWidth {
    /// 64-bit words ([`W64`], the default).
    #[default]
    W64,
    /// 256-bit SWAR words ([`W256`]).
    W256,
}

impl WordWidth {
    /// The width in bits.
    pub fn bits(self) -> usize {
        match self {
            WordWidth::W64 => 64,
            WordWidth::W256 => 256,
        }
    }
}

impl fmt::Display for WordWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

impl FromStr for WordWidth {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "64" => Ok(WordWidth::W64),
            "256" => Ok(WordWidth::W256),
            other => Err(format!("unknown word width '{other}' (expected 64 or 256)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bitset over `Vec<bool>` that any `Word` must agree with.
    fn check_word_semantics<W: Word>() {
        assert_eq!(W::BITS, W::LIMBS * 64);
        assert!(W::zero().is_zero());
        assert_eq!(W::zero().count_ones(), 0);
        assert_eq!(W::ones().count_ones(), W::BITS);
        assert!(!W::ones().is_zero());

        // Single-bit walk: set/test/count each position independently.
        for b in 0..W::BITS {
            let w = W::zero().with_bit(b);
            assert!(w.bit(b), "bit {b}");
            assert_eq!(w.count_ones(), 1);
            for other in 0..W::BITS {
                assert_eq!(w.bit(other), other == b);
            }
            let mut seen = Vec::new();
            w.for_each_set_bit(|i| seen.push(i));
            assert_eq!(seen, vec![b]);
        }

        // low_mask at every cut point, including 0 and BITS.
        for n in 0..=W::BITS {
            let m = W::low_mask(n);
            assert_eq!(m.count_ones(), n, "low_mask({n})");
            for b in 0..W::BITS {
                assert_eq!(m.bit(b), b < n);
            }
        }
    }

    #[test]
    fn w64_matches_reference_bitset_semantics() {
        check_word_semantics::<W64>();
    }

    #[test]
    fn w256_matches_reference_bitset_semantics() {
        check_word_semantics::<W256>();
    }

    #[test]
    fn w256_bitwise_ops_match_per_limb_u64() {
        let a = W256([0xDEAD_BEEF, !0, 0, 0x0123_4567_89AB_CDEF]);
        let b = W256([0xFFFF_0000, 0x5555_5555_5555_5555, 7, !0]);
        for i in 0..4 {
            assert_eq!((a & b).0[i], a.0[i] & b.0[i]);
            assert_eq!((a | b).0[i], a.0[i] | b.0[i]);
            assert_eq!((a ^ b).0[i], a.0[i] ^ b.0[i]);
            assert_eq!((!a).0[i], !a.0[i]);
        }
        let mut c = a;
        c &= b;
        assert_eq!(c, a & b);
        let mut d = a;
        d |= b;
        assert_eq!(d, a | b);
    }

    #[test]
    fn w256_range_mask_straddles_limb_boundaries() {
        // Ranges chosen to start/end at each of the four sub-word (limb)
        // offsets: 0, 64, 128, 192 — plus interior straddles.
        for (s, e) in [
            (0, 64),
            (64, 128),
            (128, 192),
            (192, 256),
            (0, 256),
            (63, 65),
            (127, 130),
            (190, 200),
            (1, 255),
            (200, 200),
        ] {
            let m = W256::range_mask(s, e);
            assert_eq!(m.count_ones(), e - s, "range {s}..{e}");
            for b in 0..256 {
                assert_eq!(m.bit(b), (s..e).contains(&b), "range {s}..{e} bit {b}");
            }
        }
    }

    #[test]
    fn w256_set_bit_iteration_is_ascending_across_limbs() {
        let w = W256::zero()
            .with_bit(0)
            .with_bit(63)
            .with_bit(64)
            .with_bit(130)
            .with_bit(255);
        let mut seen = Vec::new();
        w.for_each_set_bit(|b| seen.push(b));
        assert_eq!(seen, vec![0, 63, 64, 130, 255]);
    }

    #[test]
    fn fnv_fold_distinguishes_widths_and_limbs() {
        // A W256 word and a W64 word with equal limb 0 must not collide
        // once the remaining limbs differ.
        let seed = 0xcbf2_9ce4_8422_2325u64;
        let narrow = 0xABCDu64.fold_fnv(seed);
        let wide_same = W256([0xABCD, 0, 0, 0]).fold_fnv(seed);
        let wide_diff = W256([0xABCD, 1, 0, 0]).fold_fnv(seed);
        assert_ne!(wide_same, wide_diff);
        // Limb-count asymmetry: folding 4 limbs is not folding 1.
        assert_ne!(narrow, wide_same);
    }

    #[test]
    fn word_width_parses_and_prints() {
        assert_eq!("64".parse::<WordWidth>().unwrap(), WordWidth::W64);
        assert_eq!("256".parse::<WordWidth>().unwrap(), WordWidth::W256);
        assert!("128".parse::<WordWidth>().is_err());
        assert_eq!(WordWidth::W256.to_string(), "256");
        assert_eq!(WordWidth::default(), WordWidth::W64);
        assert_eq!(WordWidth::W64.bits(), 64);
        assert_eq!(WordWidth::W256.bits(), 256);
    }
}
