"""Exact and numeric coefficient arithmetic for q-deformed algebra, on one
sparse polynomial kernel.

``Poly`` is a sparse polynomial over exponent tuples of a fixed ``Shape``,
whose positions may be declared Laurent (negative exponents allowed) or
idempotent (x**2 = x).  It holds plain integer coefficients over one
positive integer denominator, kept in lowest terms, so its arithmetic is
integer arithmetic with a single gcd per result.  Normal order
(``weyl``) and its ring stage (``ring``) use it with shapes of their own.

Exact scalars live in the ring of Laurent polynomials in the deformation
parameter q and a formal unit P standing for q**p (p a free parameter that
is never specialized), extended by polynomial powers of p itself and
localized at q - q**(-1), each held in one canonical form.  Their
numerators are ``LaurentPoly``, the ``Poly`` over (q, P, p).  Numeric
scalars are plain Python floats obtained by specializing q and p to real
numbers.

The central quantity is the q-bracket

    [x] = (q**x - q**(-x)) / (q - q**(-1))

which reduces to x in the limit q -> 1.  ``bracket_int`` expands [k] for
integer k directly as a Laurent polynomial, so no division is ever
performed for integer arguments.  ``bracket_affine`` handles arguments
of the form c + p, producing P and P**(-1) monomials over the first
power of q - q**(-1), the only denominator exact scalars ever get.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple

# A Laurent monomial is keyed by (exponent of q, exponent of P, power of p).
# P = q**p is a unit (its inverse is P**-1); p itself only ever enters
# polynomially, through eigenvalues of diagonal operators such as p - N.
Monomial = tuple[int, int, int]

_ONE_KEY: Monomial = (0, 0, 0)


class Shape(NamedTuple):
    """The exponent positions of a polynomial: ``size`` of them, where those
    in ``laurent`` may hold negative exponents and those in ``idempotent``
    name symbols x with x**2 = x, so hold 0 or 1."""

    size: int
    laurent: frozenset = frozenset()
    idempotent: tuple = ()


class _Terms(Mapping):
    """Read-only {exponents: Fraction} view of a Poly."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Poly"):
        self._poly = poly

    def __getitem__(self, key: tuple) -> Fraction:
        return Fraction(self._poly.coeffs[key], self._poly.denom)

    def __iter__(self):
        return iter(self._poly.coeffs)

    def __len__(self) -> int:
        return len(self._poly.coeffs)


class Poly:
    """A sparse polynomial over the exponent tuples of its ``shape``.

    ``coeffs`` maps exponent tuples to ints and ``denom`` is one positive
    int; the polynomial is coeffs/denom.  Zero coefficients are never
    stored, the pair is in lowest terms (no prime divides the denominator
    and every coefficient), and the zero polynomial is the empty map over
    1.  So equal polynomials have equal representations.  A product adds
    exponents and keeps every idempotent exponent at most 1.  Values are
    immutable once built.  ``terms`` is the same polynomial as a read-only
    {exponents: Fraction} map.
    """

    __slots__ = ("shape", "coeffs", "denom")

    def __init__(self, shape: Shape, coeffs: dict, denom: int = 1):
        """The polynomial coeffs/denom from a pair already in lowest terms."""
        self.shape = shape
        self.coeffs = coeffs
        self.denom = denom

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        return _Terms(self)

    @staticmethod
    def product(shape: Shape, factors) -> "Poly":
        """The product of an iterable of polynomials, 1 when it is empty."""
        out = None
        for f in factors:
            out = f if out is None else out * f
        return Poly.monomial(shape, {}) if out is None else out

    @staticmethod
    def monomial(shape: Shape, exponents: dict) -> "Poly":
        """The product of x_j**exponents[j]."""
        key = [0] * shape.size
        for j, e in exponents.items():
            if e < 0 and j not in shape.laurent or e > 1 and j in shape.idempotent:
                raise ValueError(f"exponent {e} at position {j} of {shape}")
            key[j] = e
        return Poly(shape, {tuple(key): 1})

    @staticmethod
    def linear(shape: Shape, const: int, coeffs: dict) -> "Poly":
        """const + sum_j coeffs[j] * x_j."""
        zero = (0,) * shape.size
        terms = {zero: const} if const else {}
        for j, c in coeffs.items():
            if c:
                terms[zero[:j] + (1,) + zero[j + 1:]] = c
        return Poly(shape, terms)

    def _make(self, coeffs: dict, denom: int) -> "Poly":
        """A polynomial of this class and shape from a pair already in lowest terms."""
        return Poly(self.shape, coeffs, denom)

    def _lowest(self, coeffs: dict, denom: int) -> "Poly":
        """The polynomial coeffs/denom (denom > 0, no zero coefficient stored)
        with the common factor of coefficients and denominator divided out."""
        if denom != 1:
            g = math.gcd(denom, *coeffs.values())
            if g != 1:
                coeffs = {k: v // g for k, v in coeffs.items()}
                denom //= g
        return self._make(coeffs, denom)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
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
        return self._lowest(out, d1)

    def __neg__(self) -> "Poly":
        return self._make({k: -v for k, v in self.coeffs.items()}, self.denom)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scaled(self, value) -> "Poly":
        if not isinstance(value, int):
            value = Fraction(value)
        if not value:
            return self._make({}, 1)
        n = value.numerator
        return self._lowest({k: v * n for k, v in self.coeffs.items()},
                            self.denom * value.denominator)

    def __mul__(self, other: "Poly") -> "Poly":
        # self's terms on the outer loop and other's on the inner one, and a
        # key whose sum cancels is deleted, so it comes back at the end: the
        # order of the result's terms is the float summation order of
        # LaurentPoly.eval
        idempotent = self.shape.idempotent
        out: dict = {}
        get = out.get
        terms2 = other.coeffs.items()
        for k1, v1 in self.coeffs.items():
            for k2, v2 in terms2:
                k = tuple(map(operator.add, k1, k2))
                for j in idempotent:
                    if k[j] > 1:
                        k = k[:j] + (1,) + k[j + 1:]
                s = get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._lowest(out, self.denom * other.denom)


_LAURENT = Shape(3, frozenset({0, 1}))


def _poly(coeffs: dict[Monomial, int], denom: int) -> "LaurentPoly":
    """The Laurent polynomial coeffs/denom from a pair already in lowest
    terms, 1 and -1 shared."""
    if denom == 1 and len(coeffs) == 1 and coeffs.get(_ONE_KEY) in (1, -1):
        return _UNITS[coeffs[_ONE_KEY]]
    res = object.__new__(LaurentPoly)
    res.shape = _LAURENT
    res.coeffs = coeffs
    res.denom = denom
    return res


class LaurentPoly(Poly):
    """Laurent polynomial in q and P = q**p with polynomial powers of p: the
    ``Poly`` whose exponent tuples are Monomial keys (q_exp, P_exp, p_pow).
    A constant compares equal to its int or Fraction and hashes like it."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        fracs = {k: Fraction(v) for k, v in (terms or {}).items() if v}
        denom = math.lcm(*(v.denominator for v in fracs.values()))
        # over the lcm of reduced denominators the pair is already lowest
        super().__init__(_LAURENT, {k: v.numerator * (denom // v.denominator)
                                    for k, v in fracs.items()}, denom)

    @classmethod
    def monomial(cls, q_exp: int = 0, P_exp: int = 0, p_pow: int = 0, coeff=1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        key = (q_exp, P_exp, p_pow)
        return _poly({key: coeff.numerator} if coeff else {}, coeff.denominator)

    def _make(self, coeffs: dict[Monomial, int], denom: int) -> "LaurentPoly":
        return _poly(coeffs, denom)

    # perfbench/tracing.py counts Laurent products by wrapping this class's own __mul__
    __mul__ = Poly.__mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.denom == other.denom and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.monomial(coeff=other)
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its int or Fraction, so hashes like it
        if self.coeffs.keys() <= {_ONE_KEY}:
            return hash(Fraction(self.coeffs.get(_ONE_KEY, 0), self.denom))
        return hash((frozenset(self.coeffs.items()), self.denom))

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
        return self._lowest(out, self.denom)

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
        return self._lowest(out, self.denom)

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
_UNITS = {v: LaurentPoly({_ONE_KEY: v}) for v in (1, -1)}


@functools.cache
def q_minus_qbar_power(k: int) -> LaurentPoly:
    """(q - q**-1)**k = sum over i of (-1)**i * binomial(k, i) * q**(k - 2i)."""
    return _poly({(k - 2 * i, 0, 0): (-1) ** i * math.comb(k, i) for i in range(k + 1)}, 1)


def _divided(num: LaurentPoly) -> LaurentPoly | None:
    """num / (q - q**-1) when that is a Laurent polynomial, else None: when
    every (P, p) column of num vanishes at q = 1 and at q = -1.  The column
    of the first term is summed at q = 1 first, which rejects almost every
    candidate.  Each column is then divided from its top exponent down; the
    quotient's content is num's, so it stays in lowest terms."""
    coeffs = num.coeffs
    if not coeffs:
        return num
    _, b0, c0 = next(iter(coeffs))
    if sum(v for (_, b, c), v in coeffs.items() if b == b0 and c == c0):
        return None
    columns: dict = {}
    for (a, b, c), v in coeffs.items():
        columns.setdefault((b, c), {})[a] = v
    for col in columns.values():
        if sum(col.values()) or sum(-v if a & 1 else v for a, v in col.items()):
            return None
    out: dict[Monomial, int] = {}
    for (b, c), col in columns.items():
        d_a = d_up = 0  # d_a and d_(a+1) at the top exponent a
        for a in range(max(col), min(col) + 1, -1):
            d_a, d_up = col.get(a, 0) + d_up, d_a  # now d_(a-1) and d_a
            if d_a:
                out[a - 1, b, c] = d_a
    return _poly(out, num.denom)


def _coeff(num: LaurentPoly, k: int) -> "CoeffExact":
    """The value num / (q - q**-1)**k from a pair already canonical."""
    res = object.__new__(CoeffExact)
    res.num = num
    res.k = k
    return res


class CoeffExact:
    """The value num / (q - q**-1)**k, q - q**-1 being the only denominator
    the formal-p bracket [p - N + c] brings in.  The pair is canonical: when
    k > 0, q - q**-1 does not divide num, and zero has k = 0.  So equal
    values have equal fields (``LaurentPoly`` is canonical too), equality is
    a field compare and the pair hashes; a rational constant compares equal
    to its int or Fraction and hashes like it.  Construction divides out
    every factor q - q**-1 that num carries."""

    __slots__ = ("num", "k")

    def __init__(self, num: LaurentPoly, k: int = 0):
        if k < 0:
            raise ValueError("the power of q - q**-1 must not be negative")
        while k and (quotient := _divided(num)) is not None:
            num, k = quotient, k - 1
        self.num = num
        self.k = k

    @classmethod
    def from_int(cls, value) -> "CoeffExact":
        return _coeff(LaurentPoly.monomial(coeff=value), 0)

    @classmethod
    def zero(cls) -> "CoeffExact":
        return _coeff(_LP_ZERO, 0)

    @classmethod
    def one(cls) -> "CoeffExact":
        return cls.from_int(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return not self.k and self.num == other
        if not isinstance(other, CoeffExact):
            return NotImplemented
        return self.k == other.k and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.k)) if self.k else hash(self.num)

    def __add__(self, other: "CoeffExact") -> "CoeffExact":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        k1, k2 = self.k, other.k
        if k1 == k2:
            return CoeffExact(self.num + other.num, k1)
        # q - q**-1 divides the numerator brought up to the larger power, not the other
        if k1 < k2:
            return _coeff(self.num * q_minus_qbar_power(k2 - k1) + other.num, k2)
        return _coeff(self.num + other.num * q_minus_qbar_power(k1 - k2), k1)

    def __neg__(self) -> "CoeffExact":
        return _coeff(-self.num, self.k)

    def __sub__(self, other: "CoeffExact") -> "CoeffExact":
        return self + (-other)

    def __mul__(self, other) -> "CoeffExact":
        if isinstance(other, int):
            return _coeff(self.num.scaled(other), self.k if other else 0)
        n1, n2 = self.num, other.num
        if n1.is_zero() or n2.is_zero():
            return CoeffExact.zero()
        k1, k2 = self.k, other.k
        # a monomial is prime to q - q**-1: times a reduced numerator it stays reduced
        if (k2 and len(n1.coeffs) == 1) or (k1 and len(n2.coeffs) == 1):
            return _coeff(n1 * n2, k1 + k2)
        return CoeffExact(n1 * n2, k1 + k2)

    __rmul__ = __mul__

    def __truediv__(self, other: int) -> "CoeffExact":
        return _coeff(self.num.scaled(Fraction(1, other)), self.k)

    def mentions_p(self) -> bool:
        """Whether the value depends on p, through P = q**p or a power of p."""
        return any(b or c for (_, b, c) in self.num.coeffs)

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it is a rational constant, else None."""
        coeffs = self.num.coeffs
        if self.k or coeffs.keys() - {_ONE_KEY}:
            return None
        return Fraction(coeffs.get(_ONE_KEY, 0), self.num.denom)

    def eval_numeric(self, q: float, p: float = 0.0) -> float:
        """Evaluate at real q > 0 and real p (P becomes q**p).  An integral
        p is substituted exactly first, so a value that vanishes or is finite
        at q = 1 for that p evaluates as such.  Raises ZeroDivisionError when
        q - q**-1 vanishes under a remaining power (caller resamples q)."""
        if q <= 0:
            raise ValueError("q must be positive")
        c = self
        if float(p).is_integer() and self.mentions_p():
            c = self.subst_p_int(int(p))
        d = (q - q**-1) ** c.k
        if d == 0.0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}, p={p}")
        return c.num.eval(q, p) / d

    def subst_q1(self) -> "CoeffExact":
        """Specialize q = 1 exactly, keeping p formal."""
        if self.k:
            raise ZeroDivisionError("q - q**-1 vanishes at q = 1")
        return _coeff(self.num.subst_q1(), 0)

    def subst_p_int(self, p: int) -> "CoeffExact":
        return CoeffExact(self.num.subst_p_int(p), self.k)

    def canonical_str(self) -> str:
        if not self.k:
            return self.num.canonical_str()
        return f"({self.num.canonical_str()})/({q_minus_qbar_power(self.k).canonical_str()})"

    def __repr__(self):
        return f"CoeffExact({self.canonical_str()})"


def bracket_int(k: int) -> CoeffExact:
    """The q-bracket [k] for integer k, expanded as a Laurent polynomial.

    [k] = q**(k-1) + q**(k-3) + ... + q**(1-k) for k > 0, [0] = 0, and
    [-k] = -[k].
    """
    sign = 1 if k > 0 else -1
    k = abs(k)
    return _coeff(_poly({(k - 1 - 2 * j, 0, 0): sign for j in range(k)}, 1), 0)


def bracket_affine(c0: int, cp: int, p_value: int | None = None) -> CoeffExact:
    """The q-bracket [c0 + cp*p].

    With cp = 0 this is an integer bracket.  Passing an integer
    ``p_value`` substitutes it, for any cp, and reduces to the integer
    bracket [c0 + cp*p_value].  With formal p, cp must be 1, and the result
    is (P*q**c0 - P**(-1)*q**(-c0)) / (q - q**(-1)), already reduced.
    """
    if cp == 0:
        return bracket_int(c0)
    if p_value is not None:
        return bracket_int(c0 + cp * p_value)
    if cp != 1:
        raise ValueError("p coefficient must be 0 or 1 for a formal p")
    return _coeff(_poly({(c0, 1, 0): 1, (-c0, -1, 0): -1}, 1), 1)


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
