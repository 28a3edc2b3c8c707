//! Exact rational arithmetic.
//!
//! LPV certificates ("this deadlock marking is unreachable") are only worth
//! anything if the arithmetic backing them is exact, so the simplex solver
//! runs on `i128` rationals, normalized after every operation.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A rational number `num/den` with `den > 0`, always in lowest terms.
///
/// # Panics
///
/// Arithmetic panics on `i128` overflow (beyond any size reached by the LPs
/// in this reproduction) and on division by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates the integer `n`.
    pub fn integer(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Numerator (sign carrier).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Approximate `f64` value (for reporting only — never for pivoting).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    fn checked(num: i128, den: i128) -> Self {
        Rational::new(num, den)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Fast paths: both return what the general formula returns.
        if self.num == 0 {
            return rhs;
        }
        if rhs.num == 0 {
            return self;
        }
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_add(rhs.num)
                .expect("rational addition overflow");
            return Rational::integer(num);
        }
        let g = gcd(self.den, rhs.den).max(1);
        let lcm_part = rhs.den / g;
        let num = self
            .num
            .checked_mul(lcm_part)
            .and_then(|a| rhs.num.checked_mul(self.den / g).map(|b| (a, b)))
            .and_then(|(a, b)| a.checked_add(b))
            .expect("rational addition overflow");
        let den = self
            .den
            .checked_mul(lcm_part)
            .expect("rational addition overflow");
        Rational::checked(num, den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Fast paths: both return what the general formula returns.
        if self.num == 0 || rhs.num == 0 {
            return Rational::ZERO;
        }
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_mul(rhs.num)
                .expect("rational multiplication overflow");
            return Rational::integer(num);
        }
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect("rational multiplication overflow");
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect("rational multiplication overflow");
        Rational::checked(num, den)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  ⟺  a*d vs c*b  (b,d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
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

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::integer(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::integer(n as i128)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::integer(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::integer(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::ZERO);
        assert_eq!(r(0, 5).denom(), 1);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn fast_paths_match_the_general_formula() {
        let values: Vec<Rational> = (-6..=6)
            .flat_map(|n| (1..=4).map(move |d| r(n, d)))
            .collect();
        for &a in &values {
            for &b in &values {
                let sum = r(a.num * b.den + b.num * a.den, a.den * b.den);
                let product = r(a.num * b.num, a.den * b.den);
                assert_eq!((a + b, a - b, a * b), (sum, a + -b, product), "{a}, {b}");
                assert_eq!((a + b).den, sum.den, "{a} + {b} stays in lowest terms");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rational addition overflow")]
    fn integer_addition_overflow_panics() {
        let _ = Rational::integer(i128::MAX) + Rational::ONE;
    }

    #[test]
    #[should_panic(expected = "rational multiplication overflow")]
    fn integer_multiplication_overflow_panics() {
        let _ = Rational::integer(i128::MAX) * Rational::integer(2);
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < Rational::ZERO);
        assert_eq!(r(3, 6).cmp(&r(1, 2)), Ordering::Equal);
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn predicates_and_recip() {
        assert!(r(3, 4).is_positive());
        assert!(r(-3, 4).is_negative());
        assert!(Rational::ZERO.is_zero());
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_recip_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn f64_projection() {
        assert!((r(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }
}
