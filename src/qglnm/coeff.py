"""Exact and numeric coefficient arithmetic for q-deformed algebra.

Exact scalars live in the fraction field of Laurent polynomials in the
deformation parameter q, extended by a formal unit P standing for q**p
(p a free parameter that is never specialized) and by polynomial powers
of p itself.  Rational coefficients are exact ``fractions.Fraction``
values.  Numeric scalars are plain Python floats obtained by
specializing q and p to real numbers.

The central quantity is the q-bracket

    [x] = (q**x - q**(-x)) / (q - q**(-1))

which reduces to x in the limit q -> 1.  ``bracket_int`` expands [k] for
integer k directly as a Laurent polynomial, so no division is ever
performed for integer arguments.  ``bracket_affine`` handles arguments
of the form c + p, producing P and P**(-1) monomials over the
denominator q - q**(-1).
"""

from __future__ import annotations

from fractions import Fraction

# A monomial is keyed by (exponent of q, exponent of P, power of p).
# P = q**p is a unit (its inverse is P**-1); p itself only ever enters
# polynomially, through eigenvalues of diagonal operators such as p - N.
Monomial = tuple[int, int, int]

_ZERO = Fraction(0)
_ONE_KEY: Monomial = (0, 0, 0)


class LaurentPoly:
    """Laurent polynomial in q and P = q**p with polynomial powers of p.

    ``terms`` maps (q_exp, P_exp, p_pow) -> Fraction.  Zero coefficients
    are never stored; the zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v for k, v in terms.items() if v != 0}

    @classmethod
    def from_rational(cls, value) -> "LaurentPoly":
        value = Fraction(value)
        return cls({_ONE_KEY: value} if value else {})

    @classmethod
    def monomial(cls, q_exp: int = 0, P_exp: int = 0, p_pow: int = 0, coeff=1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        return cls({(q_exp, P_exp, p_pow): coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {_ONE_KEY: Fraction(1)}

    def single_term(self) -> tuple[Monomial, Fraction] | None:
        """The (key, coeff) pair if this is a monomial, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, _ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly()
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly()
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, Fraction] = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(k, _ZERO) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = LaurentPoly()
        res.terms = out
        return res

    def scaled(self, value) -> "LaurentPoly":
        value = Fraction(value)
        res = LaurentPoly()
        if value:
            res.terms = {k: v * value for k, v in self.terms.items()}
        return res

    def shifted(self, q_exp: int, P_exp: int, p_pow: int) -> "LaurentPoly":
        """Multiply by the monomial q**q_exp * P**P_exp * p**p_pow."""
        res = LaurentPoly()
        res.terms = {(a + q_exp, b + P_exp, c + p_pow): v for (a, b, c), v in self.terms.items()}
        return res

    def eval(self, q: float, p: float) -> float:
        """Specialize q and p to real numbers (P becomes q**p)."""
        total = 0.0
        for (a, b, c), v in self.terms.items():
            total += float(v) * q ** (a + p * b) * p**c
        return total

    def subst_q1(self) -> "LaurentPoly":
        """Set q = 1 (hence P = 1), keeping p formal."""
        out: dict[Monomial, Fraction] = {}
        for (_, _, c), v in self.terms.items():
            k = (0, 0, c)
            s = out.get(k, _ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly()
        res.terms = out
        return res

    def subst_p_int(self, p: int) -> "LaurentPoly":
        """Substitute an integer value for p (P becomes q**p)."""
        out: dict[Monomial, Fraction] = {}
        for (a, b, c), v in self.terms.items():
            k = (a + p * b, 0, 0)
            s = out.get(k, _ZERO) + v * p**c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly()
        res.terms = out
        return res

    def canonical_str(self) -> str:
        """Render terms as ``c*q^a`` (with ``*P^b``, ``*p^c`` when nonzero),
        joined by " + ", exponents ascending."""
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c) in sorted(self.terms):
            v = self.terms[(a, b, c)]
            s = f"{v}*q^{a}"
            if b:
                s += f"*P^{b}"
            if c:
                s += f"*p^{c}"
            parts.append(s)
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.canonical_str()})"


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly.from_rational(1)


class CoeffExact:
    """Quotient num/den of two Laurent polynomials.

    Equality is decided by cross-multiplication (num1*den2 == num2*den1),
    so no multivariate gcd machinery is needed.  Construction folds
    monomial denominators into the numerator (monomials are units in a
    Laurent ring), which keeps e.g. integer q-brackets at denominator 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = _LP_ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in exact coefficient")
        single = den.single_term()
        if single is not None and not (single[0] == _ONE_KEY and single[1] == 1):
            (a, b, c), v = single
            if c:
                # p is not invertible; only q/P monomial factors can be folded.
                pass
            else:
                num = num.shifted(-a, -b, 0).scaled(Fraction(1) / v)
                den = _LP_ONE
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, k) -> "CoeffExact":
        return cls(LaurentPoly.from_rational(k))

    @classmethod
    def zero(cls) -> "CoeffExact":
        return cls(_LP_ZERO)

    @classmethod
    def one(cls) -> "CoeffExact":
        return cls(_LP_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CoeffExact.from_int(other)
        if not isinstance(other, CoeffExact):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("CoeffExact is not hashable (equality is by cross-multiplication)")

    def __add__(self, other: "CoeffExact") -> "CoeffExact":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return CoeffExact(self.num + other.num, self.den)
        return CoeffExact(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "CoeffExact":
        return CoeffExact(-self.num, self.den)

    def __sub__(self, other: "CoeffExact") -> "CoeffExact":
        return self + (-other)

    def __mul__(self, other) -> "CoeffExact":
        if isinstance(other, int):
            return CoeffExact(self.num.scaled(other), self.den)
        if self.num.is_zero() or other.num.is_zero():
            return CoeffExact.zero()
        return CoeffExact(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "CoeffExact") -> "CoeffExact":
        if isinstance(other, int):
            return CoeffExact(self.num, self.den.scaled(other))
        if other.num.is_zero():
            raise ZeroDivisionError("division by exact zero")
        return CoeffExact(self.num * other.den, self.den * other.num)

    def eval_numeric(self, q: float, p: float = 0.0) -> float:
        """Evaluate at real q and p.  Raises ZeroDivisionError when the
        denominator vanishes at the sample point (caller resamples q)."""
        d = self.den.eval(q, p)
        if d == 0.0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}, p={p}")
        return self.num.eval(q, p) / d

    def subst_q1(self) -> "CoeffExact":
        """Specialize q = 1 exactly, keeping p formal."""
        return CoeffExact(self.num.subst_q1(), self.den.subst_q1())

    def subst_p_int(self, p: int) -> "CoeffExact":
        return CoeffExact(self.num.subst_p_int(p), self.den.subst_p_int(p))

    def canonical_str(self) -> str:
        if self.den.is_one():
            return self.num.canonical_str()
        return f"({self.num.canonical_str()})/({self.den.canonical_str()})"

    def __repr__(self):
        return f"CoeffExact({self.canonical_str()})"


def bracket_int(k: int) -> CoeffExact:
    """The q-bracket [k] for integer k, expanded as a Laurent polynomial.

    [k] = q**(k-1) + q**(k-3) + ... + q**(1-k) for k > 0, [0] = 0, and
    [-k] = -[k].  The denominator is 1 by construction.
    """
    if k == 0:
        return CoeffExact.zero()
    sign = 1 if k > 0 else -1
    k = abs(k)
    terms = {(k - 1 - 2 * j, 0, 0): Fraction(sign) for j in range(k)}
    return CoeffExact(LaurentPoly(terms))


_Q_MINUS_QBAR = LaurentPoly({(1, 0, 0): Fraction(1), (-1, 0, 0): Fraction(-1)})


def bracket_affine(c0: int, cp: int, shift_by_state: int = 0, p_value: int | None = None) -> CoeffExact:
    """The q-bracket [c0 + cp*p + shift_by_state].

    With cp = 0 this is an integer bracket.  With cp = 1 and formal p the
    result is (P*q**x - P**(-1)*q**(-x)) / (q - q**(-1)) where
    x = c0 + shift_by_state.  Passing an integer ``p_value`` substitutes
    it and reduces to an integer bracket.
    """
    if cp not in (0, 1):
        raise ValueError("p coefficient must be 0 or 1")
    x = c0 + shift_by_state
    if cp == 0:
        return bracket_int(x)
    if p_value is not None:
        return bracket_int(x + p_value)
    num = LaurentPoly({(x, 1, 0): Fraction(1), (-x, -1, 0): Fraction(-1)})
    return CoeffExact(num, _Q_MINUS_QBAR)


def bracket_value(x: float, q: float) -> float:
    """Numeric q-bracket [x].  At q = 1 the 0/0 form is replaced by its
    limit, which is x itself."""
    if q == 1.0:
        return float(x)
    return (q**x - q ** (-x)) / (q - 1.0 / q)


def eval_numeric(c: CoeffExact, q: float, p: float = 0.0) -> float:
    """Specialize an exact coefficient at real q > 0 and real p (P := q**p)."""
    if q <= 0:
        raise ValueError("q must be positive")
    return c.eval_numeric(q, p)


def bracket_recurrence_check(x: int) -> bool:
    """Exact check of [x+1] - (q + q**-1)[x] + [x-1] = 0."""
    lhs = bracket_int(x + 1) - bracket_int(2) * bracket_int(x) + bracket_int(x - 1)
    return lhs.is_zero()


def numeric_str(value) -> str:
    """Shortest round-trip decimal for a numeric coefficient.  Complex
    values with exactly zero imaginary part print as plain reals."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return repr(float(value.real))
        return repr(complex(value))
    return repr(float(value))


def scalar_str(value) -> str:
    """Canonical string of an exact coefficient, shortest round-trip
    decimal of a numeric one."""
    return value.canonical_str() if isinstance(value, CoeffExact) else numeric_str(value)
