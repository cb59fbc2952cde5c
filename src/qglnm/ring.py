"""Normal order's one sparse polynomial, and its ring stage.

``Poly`` is a sparse integer polynomial over exponent tuples of a fixed
``Shape``, whose positions may be declared Laurent (negative exponents
allowed) or idempotent (x**2 = x).  The affine stage of
``weyl.normal_ordered`` expands its ``affine`` factors as a ``Poly`` in p
and the occupations, and the ring stage below evaluates what the affine
stage leaves open as a ``Poly`` in

    Z[q**+-1, P**+-1, Q_i**+-1][p, N_i],

with P = q**p and Q_i = q**N_i on every bosonic mode i.  A fermionic
occupation N_f stays a symbol with N_f**2 = N_f, and q**(a*N_f) is written
1 + (q**a - 1)*N_f, which holds at N_f = 0 and 1, so no case split over
the fermionic occupations is needed.

``ring_closes`` decides a Dyson relation from ``weyl.normal_ordered``'s
output, {(change, opaque factors, exponents of N_1..N_b): scalar}.  Terms
with different changes send a state to different states, so each change
is decided alone; the terms of one change share their fermionic sign.  It
strips the opaque factors that every term shares, since they multiply the
whole sum.  It then writes each term over
(q - q**-1)**K * prod(x), where

    [y] = (q**c * P**pc * Q**a - its inverse) / (q - q**-1)

for a bracket of argument y = c + pc*p + a.N, a ``qpow`` is a monomial,
a bracket ratio [x]/x also brings its argument x into the denominator,
K is the largest power of q - q**-1 among the terms and the product runs
over the multiset lcm of the ratio arguments.  If the numerators sum to
zero, the relation holds for formal p and q.

Why a zero sum is a proof:

* Q_i and N_i are independent symbols in the ring, so the zero sum is an
  identity for every value of them, in particular Q_i = q**N_i for real
  N_i, every P, p and q; it then holds at P = q**p for every integer or
  real p and every q > 0 wherever q != 1 and no ratio argument is 0, and
  by continuity at q = 1.  A nonzero sum proves nothing (the symbols are
  not independent in the operator algebra): the relation stays open and
  falls back to probing.
* [x]/x extends continuously to x = 0 for q > 0 (its limit is
  2*ln(q)/(q - q**-1), and 1 at q = 1).  So an identity that holds off the
  hyperplanes x = 0 holds on them by continuity in the real bosonic
  occupations, provided each ratio argument moves with some bosonic
  occupation or is a nonzero constant; a relation with any other ratio
  argument is left open.  The realizations place bracket ratios on
  bosonic modes only.
* On a start state where a term's word dies, one of its ladder factors is
  0 (``weyl.normal_form``), so the term's continuous extension is 0 there,
  as the word's image is.  What the extension can hide is a ratio at
  argument 0 on a live word, where ``weyl.Engine`` raises instead; no
  realization has one, and the tests look for one.

Only the Dyson kinds enter the ring (``bracket``, ``bracket_ratio``,
``qpow``; ``affine`` is expanded before); a relation that keeps an
``angle`` or ``sqrt_bracket`` factor is left open.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import NamedTuple

from .fock import Signature


class Shape(NamedTuple):
    """The exponent positions of a polynomial: ``size`` of them, where those
    in ``laurent`` may hold negative exponents and those in ``idempotent``
    name symbols x with x**2 = x, so hold 0 or 1."""

    size: int
    laurent: frozenset = frozenset()
    idempotent: tuple = ()


class Poly:
    """A sparse integer polynomial: ``terms`` maps exponent tuples of the
    ``shape`` to nonzero ints.  A product adds exponents and keeps every
    idempotent exponent at most 1.  Values are not changed once built."""

    __slots__ = ("shape", "terms", "_moves")

    def __init__(self, shape: Shape, terms: dict):
        self.shape = shape
        self.terms = terms
        self._moves = None

    def moves(self) -> list:
        """Per term, (exponents, coefficient, the positions of its nonzero
        exponents), built on first use: what a product reads of its right
        factor."""
        if self._moves is None:
            self._moves = [(k, v, [j for j, e in enumerate(k) if e]) for k, v in self.terms.items()]
        return self._moves

    @classmethod
    def product(cls, shape: Shape, factors) -> "Poly":
        """The product of an iterable of polynomials, 1 when it is empty."""
        out = None
        for f in factors:
            out = f if out is None else out * f
        return cls.monomial(shape, {}) if out is None else out

    @classmethod
    def monomial(cls, shape: Shape, exponents: dict) -> "Poly":
        """The product of x_j**exponents[j]."""
        key = [0] * shape.size
        for j, e in exponents.items():
            if e < 0 and j not in shape.laurent or e > 1 and j in shape.idempotent:
                raise ValueError(f"exponent {e} at position {j} of {shape}")
            key[j] = e
        return cls(shape, {tuple(key): 1})

    @classmethod
    def linear(cls, shape: Shape, const: int, coeffs: dict) -> "Poly":
        """const + sum_j coeffs[j] * x_j."""
        zero = (0,) * shape.size
        terms = {zero: const} if const else {}
        for j, c in coeffs.items():
            if c:
                terms[zero[:j] + (1,) + zero[j + 1:]] = c
        return cls(shape, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return Poly(self.shape, out)

    def __neg__(self) -> "Poly":
        return self.scaled(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scaled(self, value: int) -> "Poly":
        return Poly(self.shape, {k: v * value for k, v in self.terms.items()} if value else {})

    def __mul__(self, other: "Poly") -> "Poly":
        idempotent = self.shape.idempotent
        out: dict = {}
        get = out.get
        items = self.terms.items()
        # per term of other, the cheapest way to add its exponents: none to
        # add, one position to bump, or the whole tuple
        for k2, v2, moved in other.moves():
            if not moved:
                for k1, v1 in items:
                    out[k1] = get(k1, 0) + v1 * v2
            elif len(moved) == 1:
                j = moved[0]
                e, capped = k2[j], j in idempotent
                for k1, v1 in items:
                    k = k1 if capped and k1[j] else k1[:j] + (k1[j] + e,) + k1[j + 1:]
                    out[k] = get(k, 0) + v1 * v2
            else:
                ones = [j for j in idempotent if k2[j]]
                for k1, v1 in items:
                    k = tuple(map(operator.add, k1, k2))
                    for j in ones:
                        if k1[j]:
                            k = k[:j] + (1,) + k[j + 1:]
                    out[k] = get(k, 0) + v1 * v2
        return Poly(self.shape, {k: v for k, v in out.items() if v})


class _Ring:
    """The ring stage's shape on a signature with b modes, of which the
    first nb are bosonic: positions q, P, p, then N_1..N_b, then
    Q_1..Q_nb."""

    def __init__(self, sig: Signature):
        b = sig.num_modes
        self.sig = sig
        self.fermionic = [i for i in range(1, b + 1) if sig.is_fermionic(i)]
        self.bosonic = [i for i in range(1, b + 1) if not sig.is_fermionic(i)]
        self.q_of = {i: 3 + b + k for k, i in enumerate(self.bosonic)}
        self.shape = Shape(3 + b + len(self.bosonic),
                           frozenset((0, 1, *self.q_of.values())),
                           tuple(self.n_at(f) for f in self.fermionic))
        self.one = Poly.monomial(self.shape, {})
        self._q_minus_qbar = [self.one, (Poly.monomial(self.shape, {0: 1})
                                         - Poly.monomial(self.shape, {0: -1}))]

    @staticmethod
    def n_at(i: int) -> int:
        """The position of N_i."""
        return 2 + i

    def q_minus_qbar(self, k: int) -> Poly:
        """(q - q**-1)**k."""
        powers = self._q_minus_qbar
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def _coeffs(self, aff) -> tuple:
        """An argument's occupation coefficients over all b modes."""
        return (*aff.mode_coeffs, *[0] * (self.sig.num_modes - len(aff.mode_coeffs)))

    def q_power(self, c: int, pc: int, coeffs: tuple) -> Poly:
        """q**(c + pc*p + sum_i coeffs[i-1]*N_i): a monomial in q, P and the
        bosonic Q_i, times 1 + (q**a - 1)*N_f per fermionic mode f that
        the argument meets with coefficient a != 0."""
        out = Poly.monomial(self.shape, {0: c, 1: pc, **{
            self.q_of[i]: coeffs[i - 1] for i in self.bosonic}})
        for f in self.fermionic:
            if a := coeffs[f - 1]:
                n_f = Poly.monomial(self.shape, {self.n_at(f): 1})
                out = out * (self.one + Poly.monomial(self.shape, {0: a, self.n_at(f): 1}) - n_f)
        return out

    def numerator(self, d) -> tuple[Poly, int] | None:
        """A diagonal factor as (numerator, power of q - q**-1 under it), or
        None for a kind the ring does not take."""
        aff = d.affine
        coeffs = self._coeffs(aff)
        up = self.q_power(aff.const, aff.p_coeff, coeffs)
        if d.kind == "qpow":
            return up, 0
        if d.kind in ("bracket", "bracket_ratio"):
            return up - self.q_power(-aff.const, -aff.p_coeff, tuple(-a for a in coeffs)), 1
        return None

    def argument(self, aff) -> Poly | None:
        """A bracket ratio's argument as a polynomial in the N_i, or None
        when it may vanish on a whole fermionic slice: it meets no bosonic
        mode and is not a nonzero constant."""
        coeffs = self._coeffs(aff)
        if not any(coeffs[i - 1] for i in self.bosonic) and (any(coeffs) or not aff.const):
            return None
        return Poly.linear(self.shape, aff.const,
                           {self.n_at(i): a for i, a in enumerate(coeffs, 1)})

    def scalar(self, c, exponents) -> Poly:
        """A normal-ordered term's exact scalar num / (q - q**-1)**k times its
        occupation monomial N**exponents, as num * N**exponents without the
        integer denominator of num: the caller brings every term over one."""
        tail = (*exponents, *[0] * len(self.bosonic))
        return Poly(self.shape, {(a, b, pp, *tail): v for (a, b, pp), v in c.num.coeffs.items()})


def ring_closes(sig: Signature, ordered: dict) -> bool:
    """Whether the normal-ordered expression ``ordered`` (the output of
    ``weyl.normal_ordered``, nonempty) is the zero operator by the ring
    stage: see the module docstring for the evaluation and why a True is a
    proof."""
    by_change: dict = {}
    for key, c in ordered.items():
        by_change.setdefault(key[0], {})[key] = c
    if len(by_change) > 1:
        return all(ring_closes(sig, part) for part in by_change.values())
    ring = _Ring(sig)
    shared = None
    for _, opaque, _ in ordered:
        shared = Counter(opaque) if shared is None else shared & Counter(opaque)
    # per opaque multiset, with the shared factors stripped: its terms
    groups: dict = {}
    for (_, opaque, exponents), c in ordered.items():
        own = Counter(opaque)
        own.subtract(shared)
        groups.setdefault(tuple(own.elements()), []).append((c, exponents))
    numerators = {d: ring.numerator(d) for factors in groups for d in factors}
    # the multiset lcm of the ratio arguments, and each argument's polynomial
    ratios = {factors: Counter(d.affine for d in factors if d.kind == "bracket_ratio")
              for factors in groups}
    lcm: Counter = Counter()
    for counts in ratios.values():
        lcm |= counts
    arguments = {aff: ring.argument(aff) for aff in lcm}
    if None in numerators.values() or None in arguments.values():
        return False
    scale = math.lcm(*(c.num.denom for terms in groups.values() for c, _ in terms))
    # the power of q - q**-1 under each group's terms, and the largest
    depth = {factors: max(c.k for c, _ in terms) + sum(numerators[d][1] for d in factors)
             for factors, terms in groups.items()}
    top = max(depth.values())
    total = Poly(ring.shape, {})
    for factors, terms in groups.items():
        kmax = max(c.k for c, _ in terms)
        coeff = Poly(ring.shape, {})
        for c, exponents in terms:
            num = ring.scalar(c, exponents).scaled(scale // c.num.denom)
            coeff = coeff + (num * ring.q_minus_qbar(kmax - c.k) if c.k < kmax else num)
        cofactor = Poly.product(ring.shape, [
            *(numerators[d][0] for d in factors),
            *(arguments[aff] for aff in (lcm - ratios[factors]).elements()),
            ring.q_minus_qbar(top - depth[factors])])
        total = total + coeff * cofactor
    return not total
