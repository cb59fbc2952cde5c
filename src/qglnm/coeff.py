"""Exact and numeric coefficient arithmetic for q-deformed algebra.

Exact scalars live in the fraction field of Laurent polynomials in the
deformation parameter q, extended by a formal unit P standing for q**p
(p a free parameter that is never specialized) and by polynomial powers
of p itself.  A Laurent polynomial holds plain integer coefficients over
one positive integer denominator, kept in lowest terms, so its arithmetic
is integer arithmetic with a single gcd per result.  Numeric scalars are
plain Python floats obtained by specializing q and p to real numbers.

The central quantity is the q-bracket

    [x] = (q**x - q**(-x)) / (q - q**(-1))

which reduces to x in the limit q -> 1.  ``bracket_int`` expands [k] for
integer k directly as a Laurent polynomial, so no division is ever
performed for integer arguments.  ``bracket_affine`` handles arguments
of the form c + p, producing P and P**(-1) monomials over the
denominator q - q**(-1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

# A monomial is keyed by (exponent of q, exponent of P, power of p).
# P = q**p is a unit (its inverse is P**-1); p itself only ever enters
# polynomially, through eigenvalues of diagonal operators such as p - N.
Monomial = tuple[int, int, int]

_ONE_KEY: Monomial = (0, 0, 0)


class _Terms(Mapping):
    """Read-only {monomial: Fraction} view of a LaurentPoly."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "LaurentPoly"):
        self._poly = poly

    def __getitem__(self, key: Monomial) -> Fraction:
        return Fraction(self._poly.coeffs[key], self._poly.denom)

    def __iter__(self):
        return iter(self._poly.coeffs)

    def __len__(self) -> int:
        return len(self._poly.coeffs)


def _poly(coeffs: dict[Monomial, int], denom: int) -> "LaurentPoly":
    """The polynomial coeffs/denom from a pair already in lowest terms."""
    res = object.__new__(LaurentPoly)
    res.coeffs = coeffs
    res.denom = denom
    return res


def _lowest(coeffs: dict[Monomial, int], denom: int) -> "LaurentPoly":
    """The polynomial coeffs/denom (denom > 0, no zero coefficient stored)
    with the common factor of coefficients and denominator divided out."""
    if denom != 1:
        g = math.gcd(denom, *coeffs.values())
        if g != 1:
            coeffs = {k: v // g for k, v in coeffs.items()}
            denom //= g
    return _poly(coeffs, denom)


class LaurentPoly:
    """Laurent polynomial in q and P = q**p with polynomial powers of p.

    ``coeffs`` maps (q_exp, P_exp, p_pow) -> int and ``denom`` is one
    positive int; the polynomial is coeffs/denom.  Zero coefficients are
    never stored, the pair is in lowest terms (no prime divides the
    denominator and every coefficient), and the zero polynomial is the
    empty map over 1.  So equal polynomials have equal representations.
    Values are immutable once built.  ``terms`` is the same polynomial
    as a read-only {monomial: Fraction} map.
    """

    __slots__ = ("coeffs", "denom")

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        fracs = {k: Fraction(v) for k, v in (terms or {}).items() if v}
        denom = math.lcm(*(v.denominator for v in fracs.values()))
        # over the lcm of reduced denominators the pair is already lowest
        self.coeffs = {k: v.numerator * (denom // v.denominator) for k, v in fracs.items()}
        self.denom = denom

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return _Terms(self)

    @classmethod
    def from_rational(cls, value) -> "LaurentPoly":
        return cls.monomial(coeff=value)

    @classmethod
    def monomial(cls, q_exp: int = 0, P_exp: int = 0, p_pow: int = 0, coeff=1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        key = (q_exp, P_exp, p_pow)
        return _poly({key: coeff.numerator} if coeff else {}, coeff.denominator)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.denom == 1 and self.coeffs == {_ONE_KEY: 1}

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.denom == other.denom and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.denom))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d1, d2 = self.denom, other.denom
        if d1 == d2:
            out = dict(self.coeffs)
            m2 = 1
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            out = {k: v * m1 for k, v in self.coeffs.items()}
            d1 *= m1
        for k, v in other.coeffs.items():
            s = out.get(k, 0) + v * m2
            if s:
                out[k] = s
            else:
                del out[k]
        return _lowest(out, d1)

    def __neg__(self) -> "LaurentPoly":
        return _poly({k: -v for k, v in self.coeffs.items()}, self.denom)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, int] = {}
        get = out.get
        terms2 = other.coeffs.items()
        for (a1, b1, c1), v1 in self.coeffs.items():
            for (a2, b2, c2), v2 in terms2:
                k = (a1 + a2, b1 + b2, c1 + c2)
                s = get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _lowest(out, self.denom * other.denom)

    def scaled(self, value) -> "LaurentPoly":
        if not isinstance(value, int):
            value = Fraction(value)
        if not value:
            return _LP_ZERO
        n = value.numerator
        return _lowest({k: v * n for k, v in self.coeffs.items()}, self.denom * value.denominator)

    def shifted(self, q_exp: int, P_exp: int, p_pow: int) -> "LaurentPoly":
        """Multiply by the monomial q**q_exp * P**P_exp * p**p_pow."""
        coeffs = {(a + q_exp, b + P_exp, c + p_pow): v for (a, b, c), v in self.coeffs.items()}
        return _poly(coeffs, self.denom)

    def eval(self, q: float, p: float) -> float:
        """Specialize q and p to real numbers (P becomes q**p).  Each
        coefficient is the correctly rounded quotient v / denom."""
        d = self.denom
        total = 0.0
        for (a, b, c), v in self.coeffs.items():
            total += v / d * q ** (a + p * b) * p**c
        return total

    def subst_q1(self) -> "LaurentPoly":
        """Set q = 1 (hence P = 1), keeping p formal."""
        out: dict[Monomial, int] = {}
        for (_, _, c), v in self.coeffs.items():
            k = (0, 0, c)
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return _lowest(out, self.denom)

    def subst_p_int(self, p: int) -> "LaurentPoly":
        """Substitute an integer value for p (P becomes q**p)."""
        out: dict[Monomial, int] = {}
        for (a, b, c), v in self.coeffs.items():
            k = (a + p * b, 0, 0)
            s = out.get(k, 0) + v * p**c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _lowest(out, self.denom)

    def canonical_str(self) -> str:
        """Render terms as ``c*q^a`` (with ``*P^b``, ``*p^c`` when nonzero),
        joined by " + ", exponents ascending."""
        if not self.coeffs:
            return "0"
        parts = []
        for (a, b, c) in sorted(self.coeffs):
            s = f"{Fraction(self.coeffs[(a, b, c)], self.denom)}*q^{a}"
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


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, without a product when either factor is the shared one."""
    if a is _LP_ONE:
        return b
    if b is _LP_ONE:
        return a
    return a * b


class CoeffExact:
    """Quotient num/den of two Laurent polynomials.

    Equality is decided by cross-multiplication (num1*den2 == num2*den1),
    so no multivariate gcd machinery is needed.  Construction folds
    monomial denominators into the numerator (monomials are units in a
    Laurent ring, and so are nonzero rationals), which keeps e.g. integer
    q-brackets at denominator 1.  Every denominator 1 is the one shared
    ``_LP_ONE``, so sums, products and equality tests skip it by identity.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = _LP_ONE
        elif den is not _LP_ONE:
            if den.is_zero():
                raise ZeroDivisionError("zero denominator in exact coefficient")
            if len(den.coeffs) == 1:
                ((a, b, c), v), = den.coeffs.items()
                # p is not invertible; only q/P monomial factors can be folded.
                if not c:
                    num = num.shifted(-a, -b, 0).scaled(Fraction(den.denom, v))
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
        return _times(self.num, other.den) == _times(other.num, self.den)

    def __hash__(self):
        raise TypeError("CoeffExact is not hashable (equality is by cross-multiplication)")

    def __add__(self, other: "CoeffExact") -> "CoeffExact":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1 is d2 or d1 == d2:
            return CoeffExact(self.num + other.num, d1)
        return CoeffExact(_times(self.num, d2) + _times(other.num, d1), _times(d1, d2))

    def __neg__(self) -> "CoeffExact":
        return CoeffExact(-self.num, self.den)

    def __sub__(self, other: "CoeffExact") -> "CoeffExact":
        return self + (-other)

    def __mul__(self, other) -> "CoeffExact":
        if isinstance(other, int):
            return CoeffExact(self.num.scaled(other), self.den)
        if self.num.is_zero() or other.num.is_zero():
            return CoeffExact.zero()
        return CoeffExact(self.num * other.num, _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other: "CoeffExact") -> "CoeffExact":
        if isinstance(other, int):
            return CoeffExact(self.num, self.den.scaled(other))
        if other.num.is_zero():
            raise ZeroDivisionError("division by exact zero")
        return CoeffExact(_times(self.num, other.den), _times(self.den, other.num))

    def mentions_p(self) -> bool:
        """Whether the value depends on p, through P = q**p or a power of p."""
        return any(b or c for (_, b, c) in [*self.num.coeffs, *self.den.coeffs])

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it is written as a rational
        constant (no q, P or p, denominator 1), else None."""
        coeffs = self.num.coeffs
        if self.den is not _LP_ONE or coeffs.keys() - {_ONE_KEY}:
            return None
        return Fraction(coeffs.get(_ONE_KEY, 0), self.num.denom)

    def eval_numeric(self, q: float, p: float = 0.0) -> float:
        """Evaluate at real q and p.  An integral p is substituted exactly
        first, so a coefficient that vanishes at that p evaluates to 0.
        Raises ZeroDivisionError when the denominator vanishes at the
        sample point (caller resamples q)."""
        c = self
        if float(p).is_integer() and self.mentions_p():
            c = self.subst_p_int(int(p))
        d = c.den.eval(q, p)
        if d == 0.0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}, p={p}")
        return c.num.eval(q, p) / d

    def subst_q1(self) -> "CoeffExact":
        """Specialize q = 1 exactly, keeping p formal."""
        den = self.den
        return CoeffExact(self.num.subst_q1(), den if den is _LP_ONE else den.subst_q1())

    def subst_p_int(self, p: int) -> "CoeffExact":
        den = self.den
        return CoeffExact(self.num.subst_p_int(p), den if den is _LP_ONE else den.subst_p_int(p))

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
    return CoeffExact(_poly({(k - 1 - 2 * j, 0, 0): sign for j in range(k)}, 1))


_Q_MINUS_QBAR = _poly({(1, 0, 0): 1, (-1, 0, 0): -1}, 1)


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
    num = _poly({(x, 1, 0): 1, (-x, -1, 0): -1}, 1)
    return CoeffExact(num, _Q_MINUS_QBAR)


def bracket_value(x: float, q: float) -> float:
    """Numeric q-bracket [x] to a few ulps for every q > 0.

    The difference form (q**x - q**-x) / (q - 1/q) cancels as q approaches
    1, and sinh(x ln q) / sinh(ln q) amplifies the rounding of x ln q when
    that is large.  For x > 0 and h = ln q > 0 this evaluates
    q**(x-1) * (1 - q**-2x) / (1 - q**-2) with expm1, which has neither
    problem; q < 1 uses the same form in 1/q, and [-x] = -[x].  At q = 1
    the 0/0 form is replaced by its limit, which is x itself."""
    if q == 1.0:
        return float(x)
    a = abs(x)
    h = abs(math.log(q))
    s = 1 if q > 1.0 else -1
    value = q ** (s * (a - 1)) * (math.expm1(-2 * h * a) / math.expm1(-2 * h))
    return value if x >= 0 else -value


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
