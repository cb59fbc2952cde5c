"""The ring stage of normal order.

What the affine stage (``weyl._expanded``) leaves open is evaluated here
as a ``coeff.Poly`` in

    Q[q**+-1, P**+-1, Q_i**+-1][p, N_i],

with P = q**p and Q_i = q**N_i on every bosonic mode i.  A fermionic
occupation N_f stays a symbol with N_f**2 = N_f, and q**(a*N_f) is written
1 + (q**a - 1)*N_f, which holds at N_f = 0 and 1, so no case split over
the fermionic occupations is needed.

``ring_closes`` decides a Dyson relation from the affine stage's output,
{(change, opaque factors, exponents of N_1..N_b): scalar}.  Terms with
different changes send a state to different states, so each change is
decided alone; the terms of one change share their fermionic sign.  It
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

from collections import Counter

from .coeff import Poly, Shape, q_minus_qbar_power
from .fock import Signature


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

    @staticmethod
    def n_at(i: int) -> int:
        """The position of N_i."""
        return 2 + i

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

    def lift(self, num, exponents: tuple = ()) -> Poly:
        """A Laurent polynomial in q, P and p (a ``coeff.LaurentPoly``) times
        the occupation monomial N**exponents."""
        tail = (*exponents, *[0] * (self.shape.size - 3 - len(exponents)))
        return Poly(self.shape, {(*k, *tail): v for k, v in num.coeffs.items()}, num.denom)


def ring_closes(sig: Signature, ordered: dict) -> bool:
    """Whether the normal-ordered expression ``ordered`` (the affine
    stage's output, ``weyl._expanded``, nonempty) is the zero operator by
    the ring stage: see the module docstring for the evaluation and why a
    True is a proof."""
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
    # the power of q - q**-1 under each group's terms, and the largest
    depth = {factors: max(c.k for c, _ in terms) + sum(numerators[d][1] for d in factors)
             for factors, terms in groups.items()}
    top = max(depth.values())
    total = Poly(ring.shape, {})
    for factors, terms in groups.items():
        kmax = max(c.k for c, _ in terms)
        coeff = Poly(ring.shape, {})
        for c, exponents in terms:
            # num / (q - q**-1)**k as a numerator over (q - q**-1)**kmax
            num = ring.lift(c.num, exponents)
            coeff = coeff + (num * ring.lift(q_minus_qbar_power(kmax - c.k)) if c.k < kmax else num)
        cofactor = Poly.product(ring.shape, [
            *(numerators[d][0] for d in factors),
            *(arguments[aff] for aff in (lcm - ratios[factors]).elements()),
            ring.lift(q_minus_qbar_power(top - depth[factors]))])
        total = total + coeff * cofactor
    return total.is_zero()
