"""Tests for the sparse polynomial kernel and the ring stage of normal order."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qglnm.coeff import CoeffExact, LaurentPoly, Poly, Shape
from qglnm.fock import Signature
from qglnm.ring import _Ring
from qglnm.weyl import (Affine, Diag, ExactScalars, OperatorExpr, Raise, _expand_affine,
                        _expanded, _merged, affine_mode, closing_stage)

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)
SIGS = [Signature(2, 0), SIG21, SIG22, Signature(3, 2)]

# -- the kernel -----------------------------------------------------------

SHAPE = Shape(3, laurent=frozenset({0}), idempotent=(2,))
poly = st.builds(
    lambda terms, d: Poly(SHAPE, terms).scaled(Fraction(1, d)),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)),
                    st.integers(-3, 3).filter(bool), max_size=5),
    st.integers(1, 6))
point = st.tuples(st.sampled_from([Fraction(-2), Fraction(1, 2), Fraction(3)]),
                  st.integers(-2, 3), st.integers(0, 1))


def value(f: Poly, x) -> Fraction:
    return sum((v * math.prod(xj**e for xj, e in zip(x, k)) for k, v in f.terms.items()),
               Fraction(0))


@settings(max_examples=80, deadline=None)
@given(poly, poly, point)
def test_poly_arithmetic_matches_evaluation(a, b, x):
    # with the idempotent symbol at 0 or 1, every product and sum is the
    # value's product and sum
    assert value(a * b, x) == value(a, x) * value(b, x)
    assert value(a + b, x) == value(a, x) + value(b, x)
    assert value(a - b, x) == value(a, x) - value(b, x)
    assert all(k[2] in (0, 1) and v for k, v in (a * b).terms.items())
    # every result is in lowest terms, and zero is over 1
    for f in (a, b, a * b, a + b, a - b, a - a):
        assert f.denom > 0 and math.gcd(f.denom, *f.coeffs.values()) == 1
        assert f.denom == 1 or not f.is_zero()


def test_poly_product_keeps_idempotent_exponents():
    n_f = Poly.linear(SHAPE, 0, {2: 1})
    assert (n_f * n_f).terms == n_f.terms
    x = Poly.linear(SHAPE, 0, {1: 1})
    assert (x * x).terms == {(0, 2, 0): 1}
    assert (n_f * n_f - n_f).is_zero()


def test_monomial_rejects_exponents_outside_its_positions():
    assert Poly.monomial(SHAPE, {0: -2}).terms == {(-2, 0, 0): 1}
    with pytest.raises(ValueError):
        Poly.monomial(SHAPE, {1: -1})
    with pytest.raises(ValueError):
        Poly.monomial(SHAPE, {2: 2})


@pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
def test_expand_affine_matches_evaluation(sig):
    # the affine stage's expansion, at every small state and p, is the
    # product of the factors' values
    factors = [Diag("affine", Affine(1, 1, (1,) * sig.num_modes)),
               Diag("affine", Affine(-2, 0, tuple(range(sig.num_modes)))),
               Diag("affine", affine_mode(sig, sig.num_modes)),
               Diag("affine", affine_mode(sig, sig.num_modes, 2).shift(-1))]
    expanded = _expand_affine(sig, factors)
    ranges = [range(2) if sig.is_fermionic(i) else range(3)
              for i in range(1, sig.num_modes + 1)]
    for state in itertools.product(*ranges):
        for p in (-1, 0, 3):
            want = math.prod(d.affine.const + d.affine.p_coeff * p
                             + sum(map(int.__mul__, d.affine.mode_coeffs, state))
                             for d in factors)
            got = sum(v * p**k[0] * math.prod(n**e for n, e in zip(state, k[1:]))
                      for k, v in expanded.items())
            assert got == want, (state, p)


# -- the ring encoding ------------------------------------------------------

def specialized(ring: _Ring, f: Poly, state, p=None) -> LaurentPoly:
    """A ring polynomial at an occupation state, Q_i = q**N_i, as a Laurent
    polynomial in q, P and p; an integer p is substituted too."""
    b = ring.sig.num_modes
    out: dict = {}
    for k, v in f.terms.items():
        q_exp, P_exp, p_pow = k[:3]
        v *= math.prod(n**e for n, e in zip(state, k[3 : 3 + b]))
        q_exp += sum(e * state[i - 1] for i, e in zip(ring.bosonic, k[3 + b :]))
        if p is not None:
            q_exp, P_exp, v, p_pow = q_exp + P_exp * p, 0, v * p**p_pow, 0
        out[q_exp, P_exp, p_pow] = out.get((q_exp, P_exp, p_pow), 0) + v
    return LaurentPoly(out)


@st.composite
def ring_cases(draw):
    """(signature, kind, affine argument, state, p): a small argument and
    state, fermionic occupations 0 or 1, p formal or an integer."""
    sig = draw(st.sampled_from(SIGS))
    kind = draw(st.sampled_from(["bracket", "bracket_ratio", "qpow"]))
    b = sig.num_modes
    coeffs = tuple(draw(st.lists(st.integers(-2, 2), min_size=b, max_size=b)))
    p = draw(st.none() | st.integers(-3, 4))
    pc = 0 if kind == "bracket_ratio" else draw(
        st.integers(0, 1) if p is None and kind == "bracket" else st.integers(-2, 2))
    state = tuple(draw(st.integers(0, 1 if sig.is_fermionic(i) else 4))
                  for i in range(1, b + 1))
    return sig, kind, Affine(draw(st.integers(-4, 4)), pc, coeffs), state, p


@settings(max_examples=300, deadline=None)
@given(ring_cases())
def test_ring_value_is_the_exact_scalar(case):
    # a factor's ring numerator over its power of q - q**-1 (and, for a
    # bracket ratio, its argument) is ExactScalars' value at the state
    sig, kind, aff, state, p = case
    v, pc = aff.eval_parts(state)
    assume(kind != "bracket_ratio" or v)
    ring = _Ring(sig)
    num, k = ring.numerator(Diag(kind, aff))
    got = CoeffExact(specialized(ring, num, state, p), k)
    if kind == "bracket_ratio":
        argument = ring.argument(aff)
        if argument is not None:
            assert specialized(ring, argument, state, p) == v
        got = got / v
    assert got == getattr(ExactScalars(p, False), kind)(v, pc), case


def test_ring_takes_no_numeric_only_kind():
    ring = _Ring(SIG21)
    for kind in ("angle", "sqrt_bracket"):
        assert ring.numerator(Diag(kind, affine_mode(SIG21, 1))) is None


def test_fermion_only_ratio_argument_is_not_taken():
    # [N_f - 1]/(N_f - 1) may vanish on the whole slice N_f = 1, where
    # continuity in the bosonic occupations says nothing
    ring = _Ring(SIG21)
    assert ring.argument(affine_mode(SIG21, 2).shift(-1)) is None
    assert ring.argument(Affine(0, 0, (0, 0))) is None
    assert ring.argument(Affine(3, 0, (0, 0))) is not None
    assert ring.argument(Affine(0, 0, (1, 1))) is not None


# -- the ring stage ----------------------------------------------------------

def bracket(aff):
    return OperatorExpr.from_word(Diag("bracket", aff))


Q = CoeffExact(LaurentPoly.monomial(q_exp=1))


@pytest.mark.parametrize("mode", [1, 2])
def test_bracket_shift_identity_closes_in_the_ring(mode):
    # [N + 1] = q [N] + q**-N, on a boson and on a fermion; the affine
    # stage keeps brackets opaque, so only the ring closes it
    n = affine_mode(SIG21, mode)
    expr = (bracket(n.shift(1)) - bracket(n).scaled(Q)
            - OperatorExpr.from_word(Diag("qpow", affine_mode(SIG21, mode, -1))))
    assert _expanded(SIG21, _merged(SIG21, expr))
    assert closing_stage(SIG21, expr) == "ring"
    assert closing_stage(SIG21, expr - bracket(n)) is None


def shift_identity(mode: int, qpow: bool = True) -> OperatorExpr:
    """[N + 1] - q [N] - q**-N on a mode, without its q**-N term when not qpow."""
    n = affine_mode(SIG21, mode)
    expr = bracket(n.shift(1)) - bracket(n).scaled(Q)
    if qpow:
        expr = expr - OperatorExpr.from_word(Diag("qpow", affine_mode(SIG21, mode, -1)))
    return expr


def test_mixed_denominators_close_in_the_ring():
    # terms over 2 and over 3 meet in one ring sum
    half, third = CoeffExact.one() / 2, CoeffExact.one() / 3
    expr = shift_identity(1).scaled(half) + shift_identity(2).scaled(third)
    assert closing_stage(SIG21, expr) == "ring"
    wrong = shift_identity(1).scaled(half) + shift_identity(2, qpow=False).scaled(third)
    assert closing_stage(SIG21, wrong) is None
    # 1/2 [N_1 + 1] + 1/3 [N_1 + 1]/(N_1 + 1) * (N_1 + 1) = 5/6 (q [N_1] + q**-N_1):
    # three keys whose scalars cancel only over their common denominator 6
    n1 = affine_mode(SIG21, 1)
    rest = shift_identity(1) - bracket(n1.shift(1))
    mixed = (bracket(n1.shift(1)).scaled(half)
             + OperatorExpr.from_word(Diag("bracket_ratio", n1.shift(1)),
                                      Diag("affine", n1.shift(1)), scalar=third)
             + rest.scaled(CoeffExact.from_int(5) / 6))
    assert closing_stage(SIG21, mixed) == "ring"
    assert closing_stage(SIG21, mixed + rest.scaled(CoeffExact.one() / 6)) is None


def test_fermionic_occupation_is_idempotent_in_the_ring():
    # [2 N_f] = [2] N_f holds at N_f = 0 and 1 only; on a boson it is false
    two = CoeffExact(LaurentPoly({(1, 0, 0): 1, (-1, 0, 0): 1}))
    for mode, closes in ((2, True), (1, False)):
        expr = (bracket(affine_mode(SIG21, mode, 2))
                - OperatorExpr.from_word(Diag("affine", affine_mode(SIG21, mode)), scalar=two))
        assert (closing_stage(SIG21, expr) == "ring") is closes, mode


def test_ratio_denominators_and_shared_factors():
    # [N_1 + 1]/(N_1 + 1) * (N_1 + 1) = [N_1 + 1], times a shared bracket
    # of p - N that the ring strips
    n1 = affine_mode(SIG21, 1)
    shared = Diag("bracket", Affine(0, 1, (-1, -1)))
    ratio = Diag("bracket_ratio", n1.shift(1))
    expr = (OperatorExpr.from_word(shared, ratio, Diag("affine", n1.shift(1)))
            - OperatorExpr.from_word(shared, Diag("bracket", n1.shift(1))))
    assert closing_stage(SIG21, expr) == "ring"
    wrong = (OperatorExpr.from_word(shared, ratio, Diag("affine", n1))
             - OperatorExpr.from_word(shared, Diag("bracket", n1.shift(1))))
    assert closing_stage(SIG21, wrong) is None


def test_stages_in_order():
    # N_1 A_1^+ = A_1^+ (N_1 + 1) by key; N_1 A_1^+ - A_1^+ N_1 = A_1^+ once
    # the affine factors expand
    n1 = Diag("affine", affine_mode(SIG21, 1))
    word = OperatorExpr.from_word
    assert closing_stage(SIG21, word(n1, Raise(1)) - word(
        Raise(1), Diag("affine", affine_mode(SIG21, 1).shift(1)))) == "merge"
    assert closing_stage(SIG21, word(n1, Raise(1)) - word(Raise(1), n1)
                         - word(Raise(1))) == "affine"
    assert closing_stage(SIG21, word(Raise(1))) is None


def test_each_change_is_decided_alone():
    # A_1^+ - A_2^+ has two terms of scalar 1 and -1 and no factor: summed
    # across their changes they would cancel, but they land on different
    # states
    sig = Signature(3, 0)
    expr = OperatorExpr.from_word(Raise(1)) - OperatorExpr.from_word(Raise(2))
    assert closing_stage(sig, expr) is None
    assert closing_stage(sig, expr - expr) == "merge"
