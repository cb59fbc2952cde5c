"""Tests for exact and numeric coefficient arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglnm.coeff import (
    CoeffExact,
    LaurentPoly,
    bracket_affine,
    bracket_int,
    bracket_recurrence_check,
    bracket_value,
    eval_numeric,
    numeric_str,
)
from qglnm.fock import Signature
from qglnm.presentation import GenSymbol
from qglnm.realize import dyson
from qglnm.weyl import Engine


def poly_div_bracket(k: int) -> dict:
    """Independent oracle: long division of q**k - q**(-k) by q - q**(-1),
    working on plain exponent->coefficient dicts in q alone."""
    num = {k: 1, -k: -1}
    den = {1: 1, -1: -1}
    quot = {}
    while any(num.values()):
        top = max(e for e, c in num.items() if c)
        lead = num[top]
        shift = top - 1
        quot[shift] = quot.get(shift, 0) + lead
        for e, c in den.items():
            num[e + shift] = num.get(e + shift, 0) - lead * c
    return {e: c for e, c in quot.items() if c}


def as_q_dict(c: CoeffExact) -> dict:
    assert c.den.is_one()
    return {a: v for (a, b, p), v in c.num.terms.items() if v}


class TestBracketInt:
    def test_zero(self):
        assert bracket_int(0).is_zero()

    def test_one(self):
        assert bracket_int(1) == CoeffExact.one()

    def test_two_matches_division_oracle(self):
        # [2] = q + q^-1
        assert as_q_dict(bracket_int(2)) == {1: 1, -1: 1}
        assert as_q_dict(bracket_int(2)) == poly_div_bracket(2)

    def test_minus_three(self):
        # [-3] = -(q^2 + 1 + q^-2)
        assert as_q_dict(bracket_int(-3)) == {2: -1, 0: -1, -2: -1}

    @pytest.mark.parametrize("k", range(2, 9))
    def test_division_oracle(self, k):
        assert as_q_dict(bracket_int(k)) == poly_div_bracket(k)

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_antisymmetry(self, k):
        assert (bracket_int(-k) + bracket_int(k)).is_zero()

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_denominator_one(self, k):
        assert bracket_int(k).den.is_one()


class TestBracketAffine:
    def test_formal_p_structure(self):
        # [p - d] = (P q^-d - P^-1 q^d) / (q - q^-1)
        c = bracket_affine(0, 1, -3)
        assert c.num.terms == {(-3, 1, 0): Fraction(1), (3, -1, 0): Fraction(-1)}
        assert c.den.terms == {(1, 0, 0): Fraction(1), (-1, 0, 0): Fraction(-1)}

    def test_numeric_specialization(self):
        # [p] with p=2 at q=2 is [2] = 2.5
        assert eval_numeric(bracket_affine(0, 1, 0), 2.0, 2.0) == pytest.approx(2.5)

    def test_p_value_substitution(self):
        assert bracket_affine(0, 1, -1, p_value=1).is_zero()
        assert bracket_affine(0, 1, 0, p_value=2) == bracket_int(2)

    def test_constant_case(self):
        assert bracket_affine(0, 0, 0).is_zero()
        assert bracket_affine(3, 0, -1) == bracket_int(2)

    def test_rejects_bad_p_coefficient(self):
        with pytest.raises(ValueError):
            bracket_affine(0, 2)

    @pytest.mark.parametrize("q,p,d", [(2.0, 3.0, 1), (1.3, 2.0, 4), (0.5, 1.0, 0)])
    def test_matches_direct_formula(self, q, p, d):
        # oracle: direct numeric evaluation of (q^x - q^-x)/(q - 1/q)
        x = p - d
        direct = (q**x - q ** (-x)) / (q - 1 / q)
        assert eval_numeric(bracket_affine(0, 1, -d), q, p) == pytest.approx(direct, rel=1e-13)


class TestEvalNumeric:
    def test_bracket_two_at_q_two(self):
        assert eval_numeric(bracket_int(2), 2.0) == pytest.approx(2.5)

    def test_bracket_one_anywhere(self):
        for q in (0.5, 0.9, 1.3, 2.0):
            assert eval_numeric(bracket_int(1), q) == 1.0

    def test_q1_limit_of_integer_brackets(self):
        # polynomial form evaluates through q = 1 with no special casing
        for k in range(-20, 21):
            assert eval_numeric(bracket_int(k), 1.0) == pytest.approx(float(k))

    def test_bracket_value_q1_special_case(self):
        assert bracket_value(2.5, 1.0) == 2.5
        assert bracket_value(-3.0, 1.0) == -3.0

    def test_integer_p_gives_exact_zero(self):
        # the Dyson e1 image of (4,0,0,0) on (3,2) is 4 * [p - 3] * [4] / 4
        sig = Signature(3, 2)
        (coeff,) = Engine(sig).apply(dyson(sig).image(GenSymbol("e", 1)), (4, 0, 0, 0)).values()
        assert coeff.eval_numeric(0.7, 3) == 0.0
        assert coeff.eval_numeric(0.7, 3.0) == 0.0
        assert coeff.eval_numeric(0.7, 4) == pytest.approx(bracket_value(4, 0.7))

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 1 - 1e-9, 1 + 1e-9, 1.0001, 1.3, 2.0, 5.0])
    def test_bracket_value_within_a_few_ulps(self, q):
        qf = Fraction(q)
        for x in range(-24, 25):
            exact = sum(qf ** (abs(x) - 1 - 2 * j) for j in range(abs(x))) * (1 if x > 0 else -1)
            err = abs(Fraction(bracket_value(x, q)) - exact)
            assert err <= 4 * 2.0**-53 * abs(exact), (x, q)

    def test_division_by_zero_signal(self):
        c = bracket_affine(0, 1, 0)  # denominator q - 1/q vanishes at q = 1
        with pytest.raises(ZeroDivisionError):
            c.eval_numeric(1.0, 2.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            eval_numeric(bracket_int(2), -1.0)


@pytest.mark.parametrize("x", range(-10, 11))
def test_bracket_recurrence(x):
    assert bracket_recurrence_check(x)


# -- field axioms on random small Laurent polynomials --------------------

small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
monomial_key = st.tuples(
    st.integers(-3, 3), st.integers(-1, 1), st.integers(0, 1)
)
laurent = st.dictionaries(monomial_key, small_fraction, max_size=4).map(LaurentPoly)
coeff = st.builds(
    lambda n, d: CoeffExact(n, d),
    laurent,
    laurent.filter(lambda lp: not lp.is_zero()),
)


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff)
def test_field_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(coeff, coeff)
def test_field_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(coeff)
def test_field_inverses(a):
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert a / a == CoeffExact.one()


@settings(max_examples=40, deadline=None)
@given(coeff, coeff, st.sampled_from([0.5, 0.9, 1.3, 2.0]), st.floats(0.5, 3.0))
def test_eval_is_homomorphism(a, b, q, p):
    try:
        va, vb = a.eval_numeric(q, p), b.eval_numeric(q, p)
        vsum = (a + b).eval_numeric(q, p)
        vprod = (a * b).eval_numeric(q, p)
    except ZeroDivisionError:
        return
    scale = max(1.0, abs(va), abs(vb))
    assert abs(vsum - (va + vb)) <= 1e-12 * scale * scale
    assert abs(vprod - va * vb) <= 1e-12 * scale * scale


# -- equality and serialization ------------------------------------------


def test_equality_by_cross_multiplication():
    # (q + q^-1) == (q^2 + 1) / q without any canonical reduction
    lhs = bracket_int(2)
    num = LaurentPoly({(2, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)})
    den = LaurentPoly({(1, 0, 0): Fraction(1)})
    assert lhs == CoeffExact(num, den)


def test_monomial_denominator_folds():
    num = LaurentPoly({(2, 0, 0): Fraction(1)})
    den = LaurentPoly({(1, 0, 0): Fraction(2)})
    c = CoeffExact(num, den)
    assert c.den.is_one()
    assert c.num.terms == {(1, 0, 0): Fraction(1, 2)}


def test_canonical_string():
    assert bracket_int(2).canonical_str() == "1*q^-1 + 1*q^1"
    assert bracket_int(0).canonical_str() == "0"
    assert bracket_affine(0, 1).canonical_str() == "(-1*q^0*P^-1 + 1*q^0*P^1)/(-1*q^-1 + 1*q^1)"


def test_numeric_str_round_trip():
    assert numeric_str(2.5) == "2.5"
    assert float(numeric_str(1 / 3)) == 1 / 3
    assert numeric_str(complex(1.5, 0.0)) == "1.5"
    assert numeric_str(complex(0.0, 2.0)) == "2j"
