//! Exact rational arithmetic on `i128` numerators and denominators.
//!
//! The LP machinery must never round: a dual bound certified by a
//! floating-point solve is no certificate at all. [`Rational`] keeps
//! every value as a normalised fraction (gcd-reduced, denominator
//! positive) and every operation is **checked** — on `i128` overflow the
//! operation returns `None` and the caller abandons the solve instead of
//! emitting a wrong bound. The container is offline, so this is a
//! self-contained implementation rather than a `num-rational`
//! dependency; the coefficient universe of the covering LPs (0/1
//! constraint matrices, unit right-hand sides) keeps the fractions far
//! from the `i128` range in practice.
//!
//! # The word-size path
//!
//! Simplex tableau entries are overwhelmingly small fractions (a
//! 111-edge EDS dual ends at `934/89`). [`Rational::checked_add`],
//! [`Rational::checked_mul`] (and through them `checked_sub` and
//! `checked_div`) and `cmp` therefore first test whether all four
//! components — both numerators, both denominators — fit in `i64`. If
//! they do, every product the general path forms is a product of two
//! `i64` magnitudes, below 2¹²⁶, and the one sum it forms is below
//! 2¹²⁷: **the general path cannot overflow in that range**. The word
//! path computes the same normalised fraction with `u64` gcds, and
//! without `i128` division unless an intermediate sum outgrows 64 bits:
//!
//! * a sum `a/b + c/d` with `g = gcd(b, d)` is `t / ((b/g)·d)` for
//!   `t = a·(d/g) + c·(b/g)`, and only `gcd(t, g)` can still divide it
//!   (Henrici; `g = 1` needs no reduction at all);
//! * a product of two lowest-terms fractions, cross-reduced by
//!   `gcd(a, d)` and `gcd(c, b)`, is already in lowest terms, so
//!   neither path reduces it again.
//!
//! Outside the word range the general path runs with the same checked
//! steps as always, so both paths return the same `Some` value or both
//! `None`; the tests keep the original arithmetic as an oracle. Every
//! gcd is binary (Stein's algorithm): shifts and subtractions instead
//! of the remainders Euclid's algorithm needs.

use std::cmp::Ordering;
use std::fmt;

/// A normalised exact fraction: `num / den` with `den > 0` and
/// `gcd(|num|, den) = 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Binary greatest common divisor; `gcd(0, b) = b`.
fn gcd_u64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 1 {
        return b;
    }
    if b == 0 || a == 1 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    while a != b {
        if a > b {
            (a, b) = (b, a);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a << shift
}

/// [`gcd_u64`] on 128-bit operands.
fn gcd(a: u128, b: u128) -> u128 {
    if (a | b) >> 64 == 0 {
        return u128::from(gcd_u64(a as u64, b as u64));
    }
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    while a != b {
        if a > b {
            (a, b) = (b, a);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a << shift
}

/// `x` as an `i64`, when it fits.
fn word(x: i128) -> Option<i64> {
    let w = x as i64;
    (i128::from(w) == x).then_some(w)
}

/// `a / g` for `g ≥ 1` dividing `a`, skipping the division when `g = 1`.
fn div_by(a: i64, g: u64) -> i64 {
    // Every caller's g also divides a denominator, so g ≤ i64::MAX.
    if g == 1 {
        a
    } else {
        a / g as i64
    }
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// The fraction `num / den`, normalised.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "zero denominator");
        Rational::normalised(num as i128, den as i128).expect("i64 inputs cannot overflow i128")
    }

    /// An integer as a rational.
    pub fn integer(n: i64) -> Rational {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Normalises `num / den` (reduce by the gcd, make `den` positive).
    /// `None` when `den == 0` or negation overflows.
    fn normalised(num: i128, den: i128) -> Option<Rational> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rational::ZERO);
        }
        if num == i128::MIN || den == i128::MIN {
            // |i128::MIN| is not representable; treat as overflow.
            return None;
        }
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = num.checked_neg()?;
            den = den.checked_neg()?;
        }
        Some(Rational { num, den })
    }

    /// The four components as words, when all of them fit in `i64`.
    fn words(self, rhs: Rational) -> Option<(i64, i64, i64, i64)> {
        Some((
            word(self.num)?,
            word(self.den)?,
            word(rhs.num)?,
            word(rhs.den)?,
        ))
    }

    /// The numerator (sign carrier).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Checked addition.
    #[must_use]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if let Some((a, b, c, d)) = self.words(rhs) {
            return Some(add_words(a, b, c, d));
        }
        // a/b + c/d = (a·(l/b) + c·(l/d)) / l with l = lcm(b, d): keeps
        // intermediates as small as the result allows.
        let g = gcd(self.den as u128, rhs.den as u128) as i128;
        let l = self.den.checked_mul(rhs.den / g)?;
        let left = self.num.checked_mul(l / self.den)?;
        let right = rhs.num.checked_mul(l / rhs.den)?;
        Rational::normalised(left.checked_add(right)?, l)
    }

    /// Checked subtraction.
    #[must_use]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Checked multiplication.
    #[must_use]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        if self.num == 0 || rhs.num == 0 {
            return Some(Rational::ZERO);
        }
        if let Some((a, b, c, d)) = self.words(rhs) {
            return Some(mul_words(a, b, c, d));
        }
        // Cross-reduce before multiplying to keep intermediates small;
        // the product of cross-reduced lowest-terms fractions is itself
        // in lowest terms, with a positive denominator.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den as u128) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den as u128) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        // |i128::MIN| is not representable; treat as overflow.
        (num != i128::MIN).then_some(Rational { num, den })
    }

    /// Checked division. `None` when `rhs` is zero or on overflow.
    #[must_use]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        if rhs.num == 0 {
            return None;
        }
        // The reciprocal, sign moved to the numerator. Components never
        // hold i128::MIN, so the negations cannot overflow.
        let reciprocal = if rhs.num < 0 {
            Rational {
                num: -rhs.den,
                den: -rhs.num,
            }
        } else {
            Rational {
                num: rhs.den,
                den: rhs.num,
            }
        };
        self.checked_mul(reciprocal)
    }

    /// Checked negation.
    #[must_use]
    pub fn checked_neg(self) -> Option<Rational> {
        Some(Rational {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }

    /// `true` when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` when the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// `true` when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// The ceiling as a non-negative integer, for turning a dual
    /// objective value into an integral lower bound. `None` when the
    /// value is negative or the ceiling exceeds `usize`.
    pub fn ceil_to_usize(&self) -> Option<usize> {
        if self.num < 0 {
            return None;
        }
        let q = self.num / self.den;
        let ceil = if self.num % self.den == 0 { q } else { q + 1 };
        usize::try_from(ceil).ok()
    }

    /// The value as an `f64`, for display only — never for decisions.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

/// `a/b + c/d` for lowest-terms word fractions (`b, d > 0`), by
/// Henrici's method (see the module docs). Every intermediate is a
/// product of two `i64` magnitudes or the sum of two, so nothing
/// overflows.
fn add_words(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if a == 0 {
        return Rational {
            num: c.into(),
            den: d.into(),
        };
    }
    if c == 0 {
        return Rational {
            num: a.into(),
            den: b.into(),
        };
    }
    let g = gcd_u64(b as u64, d as u64);
    let (b_g, d_g) = (div_by(b, g), div_by(d, g));
    let t = i128::from(a) * i128::from(d_g) + i128::from(c) * i128::from(b_g);
    if t == 0 {
        return Rational::ZERO;
    }
    if g == 1 {
        return Rational {
            num: t,
            den: i128::from(b) * i128::from(d),
        };
    }
    let magnitude = t.unsigned_abs();
    let rem = match u64::try_from(magnitude) {
        Ok(m) => m % g,
        Err(_) => (magnitude % u128::from(g)) as u64,
    };
    let g2 = gcd_u64(rem, g);
    let num = match word(t) {
        Some(t) => i128::from(div_by(t, g2)),
        None => t / g2 as i128,
    };
    Rational {
        num,
        den: i128::from(b_g) * i128::from(div_by(d, g2)),
    }
}

/// `a/b · c/d` for non-zero lowest-terms word fractions (`b, d > 0`):
/// cross-reduced, the product is already in lowest terms.
fn mul_words(a: i64, b: i64, c: i64, d: i64) -> Rational {
    let g1 = gcd_u64(a.unsigned_abs(), d as u64);
    let g2 = gcd_u64(c.unsigned_abs(), b as u64);
    Rational {
        num: i128::from(div_by(a, g1)) * i128::from(div_by(c, g2)),
        den: i128::from(div_by(b, g2)) * i128::from(div_by(d, g1)),
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Sign classes first: they decide most comparisons without any
        // multiplication.
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => return a.cmp(&b),
            (0, 0) => return Ordering::Equal,
            _ => {}
        }
        // Word components: the plain cross products stay below 2^126.
        if let Some((a, b, c, d)) = self.words(*other) {
            return (i128::from(a) * i128::from(d)).cmp(&(i128::from(c) * i128::from(b)));
        }
        // Compare a/b vs c/d via a·(d/g) vs c·(b/g), exactly: the fast
        // path uses checked products; if either overflows i128, fall
        // back to the continued-fraction comparison, which is exact for
        // arbitrary components. `cmp` is total and never lies — the
        // simplex ratio test rides on it.
        let g = gcd(self.den as u128, other.den as u128) as i128;
        match (
            self.num.checked_mul(other.den / g),
            other.num.checked_mul(self.den / g),
        ) {
            (Some(left), Some(right)) => left.cmp(&right),
            _ if self.num > 0 => cmp_positive(self.num, self.den, other.num, other.den),
            // Both negative: |a| vs |c| reversed. Components exclude
            // i128::MIN (normalisation rejects it), so negation is safe.
            _ => cmp_positive(-other.num, other.den, -self.num, self.den),
        }
    }
}

/// Exact comparison of two positive fractions by continued-fraction
/// descent (Stein/Euclid style): compare integer parts; on a tie,
/// compare the fractional parts by comparing their reciprocals with the
/// order flipped. Terminates like the Euclidean algorithm and performs
/// no multiplications, so it cannot overflow.
fn cmp_positive(mut an: i128, mut ad: i128, mut bn: i128, mut bd: i128) -> Ordering {
    debug_assert!(an > 0 && ad > 0 && bn > 0 && bd > 0);
    let mut flipped = false;
    loop {
        let (qa, ra) = (an / ad, an % ad);
        let (qb, rb) = (bn / bd, bn % bd);
        if qa != qb {
            let ord = qa.cmp(&qb);
            return if flipped { ord.reverse() } else { ord };
        }
        match (ra == 0, rb == 0) {
            (true, true) => return Ordering::Equal,
            // a has no fractional part left: a < b (before flipping).
            (true, false) => {
                return if flipped {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, true) => {
                return if flipped {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, false) => {}
        }
        // a = q + ra/ad, b = q + rb/bd: compare ra/ad vs rb/bd, i.e.
        // ad/ra vs bd/rb with the order reversed.
        (an, ad, bn, bd) = (ad, ra, bd, rb);
        flipped = !flipped;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Sums a slice of rationals with checked arithmetic.
pub fn checked_sum<'a, I: IntoIterator<Item = &'a Rational>>(values: I) -> Option<Rational> {
    values
        .into_iter()
        .try_fold(Rational::ZERO, |acc, &v| acc.checked_add(v))
}

/// The arithmetic before the word-size path — Euclid's gcd and the
/// all-`i128` bodies, verbatim — kept as the oracle the fast path must
/// match exactly (same `Some` value, or both `None`).
#[cfg(test)]
pub(crate) mod reference {
    use super::{cmp_positive, Rational};
    use std::cmp::Ordering;

    /// Greatest common divisor of two non-negative numbers.
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    fn normalised(num: i128, den: i128) -> Option<Rational> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rational::ZERO);
        }
        if num == i128::MIN || den == i128::MIN {
            return None;
        }
        let g = gcd(num.unsigned_abs() as i128, den.unsigned_abs() as i128);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = num.checked_neg()?;
            den = den.checked_neg()?;
        }
        Some(Rational { num, den })
    }

    pub(crate) fn add(x: Rational, y: Rational) -> Option<Rational> {
        let g = gcd(x.den, y.den);
        let l = x.den.checked_mul(y.den / g)?;
        let left = x.num.checked_mul(l / x.den)?;
        let right = y.num.checked_mul(l / y.den)?;
        normalised(left.checked_add(right)?, l)
    }

    pub(crate) fn sub(x: Rational, y: Rational) -> Option<Rational> {
        add(x, y.checked_neg()?)
    }

    pub(crate) fn mul(x: Rational, y: Rational) -> Option<Rational> {
        let g1 = gcd(x.num.unsigned_abs() as i128, y.den);
        let g2 = gcd(y.num.unsigned_abs() as i128, x.den);
        let num = (x.num / g1).checked_mul(y.num / g2)?;
        let den = (x.den / g2).checked_mul(y.den / g1)?;
        normalised(num, den)
    }

    pub(crate) fn div(x: Rational, y: Rational) -> Option<Rational> {
        if y.num == 0 {
            return None;
        }
        mul(
            x,
            Rational {
                num: y.den,
                den: y.num,
            },
        )
    }

    pub(crate) fn cmp(x: Rational, y: Rational) -> Ordering {
        match (x.num.signum(), y.num.signum()) {
            (a, b) if a != b => return a.cmp(&b),
            (0, 0) => return Ordering::Equal,
            _ => {}
        }
        let g = gcd(x.den, y.den);
        match (x.num.checked_mul(y.den / g), y.num.checked_mul(x.den / g)) {
            (Some(left), Some(right)) => left.cmp(&right),
            _ if x.num > 0 => cmp_positive(x.num, x.den, y.num, y.den),
            _ => cmp_positive(-y.num, y.den, -x.num, x.den),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalisation_and_display() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::integer(-3).to_string(), "-3");
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half.checked_add(third), Some(Rational::new(5, 6)));
        assert_eq!(half.checked_sub(third), Some(Rational::new(1, 6)));
        assert_eq!(half.checked_mul(third), Some(Rational::new(1, 6)));
        assert_eq!(half.checked_div(third), Some(Rational::new(3, 2)));
        assert_eq!(half.checked_div(Rational::ZERO), None);
        assert_eq!(half.checked_neg(), Some(Rational::new(-1, 2)));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(
            Rational::new(2, 6).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn ordering_survives_cross_product_overflow() {
        // Components near 2^100: the cross products exceed i128, so cmp
        // must take the continued-fraction path — and still be exact.
        let p = 1i128 << 100;
        let r = |n, d| Rational::normalised(n, d).unwrap();
        // 1 + 2^-100  >  1 + 1/(2^100 + 2)
        assert_eq!(r(p + 1, p).cmp(&r(p + 3, p + 2)), Ordering::Greater);
        assert_eq!(r(p + 3, p + 2).cmp(&r(p + 1, p)), Ordering::Less);
        // Negative mirror: ordering reverses.
        assert_eq!(r(-(p + 1), p).cmp(&r(-(p + 3), p + 2)), Ordering::Less);
        // Equal values with huge coprime-free components normalise, so
        // build an equality through distinct representations instead:
        // (2p)/(2p+2) == p/(p+1).
        assert_eq!(r(2 * p, 2 * p + 2).cmp(&r(p, p + 1)), Ordering::Equal);
        // Deep continued-fraction descent (Fibonacci-adjacent ratios
        // are the worst case for Euclid) stays exact.
        assert!(r(p + 1, p) > r(p, p + 1));
        // Mixed signs decide without any multiplication.
        assert!(r(-(p + 1), p) < r(p + 1, p + 2));
    }

    #[test]
    fn ceiling() {
        assert_eq!(Rational::ZERO.ceil_to_usize(), Some(0));
        assert_eq!(Rational::new(5, 2).ceil_to_usize(), Some(3));
        assert_eq!(Rational::new(6, 2).ceil_to_usize(), Some(3));
        assert_eq!(Rational::new(-1, 2).ceil_to_usize(), None);
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let huge = Rational::normalised(i128::MAX, 1).unwrap();
        assert_eq!(huge.checked_add(Rational::ONE), None);
        assert_eq!(huge.checked_mul(Rational::integer(2)), None);
    }

    #[test]
    fn sum_helper() {
        let v = [
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(1, 6),
        ];
        assert_eq!(checked_sum(&v), Some(Rational::ONE));
    }

    #[test]
    fn binary_gcd_agrees_with_euclid() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let samples = [
            0u128,
            1,
            2,
            3,
            12,
            18,
            89,
            1 << 40,
            (1 << 62) * 3,
            u64::MAX as u128,
            i64::MAX as u128,
            (1u128 << 64) + 6,
            1 << 100,
            (1u128 << 120) - 1,
            i128::MAX as u128,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gcd(a, b), euclid(a, b), "gcd({a}, {b})");
                if let (Ok(x), Ok(y)) = (u64::try_from(a), u64::try_from(b)) {
                    assert_eq!(u128::from(gcd_u64(x, y)), euclid(a, b), "gcd_u64({a}, {b})");
                }
            }
        }
    }

    /// One operand component drawn from a band: 0 = small (|x| ≤ 2^10),
    /// 1 = the `i64` boundary, 2 = beyond a word (|x| ≤ 2^120).
    /// `positive` draws a denominator.
    fn component(band: u64, bits: u64, spread: u64, positive: bool) -> i128 {
        let magnitude: i128 = match band {
            0 => (bits % (1 << 10)) as i128 + 1,
            1 => {
                // 2^62, i64::MAX and |i64::MIN| = 2^63 (the sign below
                // makes it i64::MIN), each with a neighbour.
                const EDGES: [i128; 6] = [
                    1 << 62,
                    (1 << 62) + 1,
                    i64::MAX as i128 - 1,
                    i64::MAX as i128,
                    1 << 63,
                    (1 << 63) + 1,
                ];
                match spread % 4 {
                    // Exactly on an edge, or a few steps either side.
                    0 => EDGES[(bits % 6) as usize],
                    1 => EDGES[(bits % 6) as usize] - (bits >> 60) as i128,
                    2 => EDGES[(bits % 6) as usize] + (bits >> 61) as i128,
                    // Anywhere in the word range.
                    _ => (bits >> 1) as i128 + 1,
                }
            }
            _ => {
                let wide = (i128::from(bits) << 56) ^ i128::from(spread >> 8);
                wide % (1 << 120) + 1
            }
        };
        if positive || spread & 1 == 0 {
            magnitude
        } else {
            -magnitude
        }
    }

    /// A normalised operand, or `None` when the drawn components are not
    /// representable (`i128::MIN`).
    fn operand(band: u64, n_bits: u64, d_bits: u64, spread: u64) -> Option<Rational> {
        let num = if spread.is_multiple_of(11) {
            0
        } else {
            component(band, n_bits, spread, false)
        };
        let den = component(band, d_bits, spread.rotate_left(17), true);
        Rational::normalised(num, den)
    }

    /// Every operation on `(x, y)` gives the reference's result: the
    /// same `Some` value, or `None` on both sides.
    fn assert_matches_reference(x: Rational, y: Rational) {
        assert_eq!(x.checked_add(y), reference::add(x, y), "{x} + {y}");
        assert_eq!(x.checked_sub(y), reference::sub(x, y), "{x} - {y}");
        assert_eq!(x.checked_mul(y), reference::mul(x, y), "{x} * {y}");
        assert_eq!(x.checked_div(y), reference::div(x, y), "{x} / {y}");
        assert_eq!(x.cmp(&y), reference::cmp(x, y), "{x} vs {y}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn word_path_matches_the_i128_reference(
            bands in (0u64..3, 0u64..3),
            x in (proptest::num::u64::ANY, proptest::num::u64::ANY, proptest::num::u64::ANY),
            y in (proptest::num::u64::ANY, proptest::num::u64::ANY, proptest::num::u64::ANY),
        ) {
            let (Some(x), Some(y)) = (
                operand(bands.0, x.0, x.1, x.2),
                operand(bands.1, y.0, y.1, y.2),
            ) else {
                return Err(TestCaseError::Reject);
            };
            assert_matches_reference(x, y);
        }
    }

    #[test]
    fn word_boundary_corners_match_the_reference() {
        // Every pair drawn from the boundary values themselves, so the
        // exact edges are covered whatever the random draw does.
        let edges = [
            0i128,
            1,
            -1,
            1 << 62,
            -(1 << 62),
            i64::MAX as i128,
            i64::MIN as i128,
            i64::MAX as i128 + 1,
            i64::MIN as i128 - 1,
            // i64::MIN · 2^64 = i128::MIN: representable, yet rejected.
            1 << 64,
            1 << 120,
            -(1 << 120),
        ];
        let dens = [1i128, 2, 3, 1 << 62, i64::MAX as i128, i64::MAX as i128 + 1];
        let values: Vec<Rational> = edges
            .iter()
            .flat_map(|&n| dens.iter().filter_map(move |&d| Rational::normalised(n, d)))
            .collect();
        for &x in &values {
            for &y in &values {
                assert_matches_reference(x, y);
            }
        }
    }
}
