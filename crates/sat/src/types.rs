//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, indexed from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from a raw index.
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// Raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2*var + sign` (sign bit 1 = negated), the conventional
/// packed representation that makes watch lists index directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// A literal of `var` with the given polarity (`true` = positive).
    #[inline]
    pub fn with_polarity(var: Var, positive: bool) -> Self {
        if positive {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Packed code (`2*var + sign`), used as a watch-list index and to
    /// order gate operands for structural hashing.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "¬{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrips() {
        let v = Var::from_index(5);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(p.code(), 10);
        assert_eq!(n.code(), 11);
    }

    #[test]
    fn polarity_constructor_matches() {
        let v = Var::from_index(3);
        assert_eq!(Lit::with_polarity(v, true), Lit::pos(v));
        assert_eq!(Lit::with_polarity(v, false), Lit::neg(v));
    }

    #[test]
    fn display_formats() {
        let v = Var::from_index(2);
        assert_eq!(Lit::pos(v).to_string(), "x2");
        assert_eq!(Lit::neg(v).to_string(), "¬x2");
    }
}
