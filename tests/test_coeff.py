"""Tests for exact and numeric coefficient arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglnm.coeff import (
    CoeffExact,
    LaurentPoly,
    bracket_affine,
    bracket_int,
    bracket_value,
    numeric_str,
    q_minus_qbar_power,
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
    assert c.k == 0
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
        assert bracket_int(k).k == 0


class TestBracketAffine:
    def test_formal_p_structure(self):
        # [p - d] = (P q^-d - P^-1 q^d) / (q - q^-1)
        c = bracket_affine(-3, 1)
        assert c.num.terms == {(-3, 1, 0): Fraction(1), (3, -1, 0): Fraction(-1)}
        assert c.k == 1

    def test_numeric_specialization(self):
        # [p] with p=2 at q=2 is [2] = 2.5
        assert bracket_affine(0, 1).eval_numeric(2.0, 2.0) == pytest.approx(2.5)

    def test_p_value_substitution(self):
        assert bracket_affine(-1, 1, p_value=1).is_zero()
        assert bracket_affine(0, 1, p_value=2) == bracket_int(2)

    def test_constant_case(self):
        assert bracket_affine(0, 0).is_zero()
        assert bracket_affine(2, 0) == bracket_int(2)

    def test_rejects_bad_p_coefficient(self):
        # only a formal p needs its coefficient to be 0 or 1
        for cp in (2, -1):
            with pytest.raises(ValueError, match="formal p"):
                bracket_affine(0, cp)

    @pytest.mark.parametrize("c0, cp, p", [(1, 2, 3), (0, -1, 3), (5, -2, 2), (-4, 3, 0)])
    def test_integer_p_takes_any_coefficient(self, c0, cp, p):
        assert bracket_affine(c0, cp, p_value=p) == bracket_int(c0 + cp * p)

    @pytest.mark.parametrize("q,p,d", [(2.0, 3.0, 1), (1.3, 2.0, 4), (0.5, 1.0, 0)])
    def test_matches_direct_formula(self, q, p, d):
        # oracle: direct numeric evaluation of (q^x - q^-x)/(q - 1/q)
        x = p - d
        direct = (q**x - q ** (-x)) / (q - 1 / q)
        assert bracket_affine(-d, 1).eval_numeric(q, p) == pytest.approx(direct, rel=1e-13)


class TestEvalNumeric:
    def test_bracket_two_at_q_two(self):
        assert bracket_int(2).eval_numeric(2.0) == pytest.approx(2.5)

    def test_bracket_one_anywhere(self):
        for q in (0.5, 0.9, 1.3, 2.0):
            assert bracket_int(1).eval_numeric(q) == 1.0

    def test_q1_limit_of_integer_brackets(self):
        # polynomial form evaluates through q = 1 with no special casing
        for k in range(-20, 21):
            assert bracket_int(k).eval_numeric(1.0) == pytest.approx(float(k))

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
        c = bracket_affine(0, 1)  # denominator q - 1/q vanishes at q = 1
        with pytest.raises(ZeroDivisionError):
            c.eval_numeric(1.0, 2.5)

    @pytest.mark.parametrize("p", [-2, 0, 1, 2, 5])
    def test_integral_p_gives_q1_limit(self, p):
        # [p] at an integral p reduces to a Laurent polynomial, whose value
        # at q = 1 is the classical limit p
        assert bracket_affine(0, 1).eval_numeric(1.0, p) == p
        assert bracket_affine(0, 1).eval_numeric(1.0, float(p)) == p

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            bracket_int(2).eval_numeric(-1.0)
        with pytest.raises(ValueError):
            bracket_affine(0, 1).eval_numeric(0.0, 2.5)


@pytest.mark.parametrize("x", range(-10, 11))
def test_bracket_recurrence(x):
    # [x+1] - (q + q^-1)[x] + [x-1] = 0
    assert (bracket_int(x + 1) - bracket_int(2) * bracket_int(x) + bracket_int(x - 1)).is_zero()


# -- ring axioms on random values num / (q - q^-1)^k ----------------------

small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
monomial_key = st.tuples(
    st.integers(-3, 3), st.integers(-1, 1), st.integers(0, 1)
)
laurent = st.dictionaries(monomial_key, small_fraction, max_size=4).map(LaurentPoly)
# num * (q - q^-1)^j over (q - q^-1)^k, so construction has factors to divide out
coeff = st.builds(
    lambda num, j, k: CoeffExact(num * q_minus_qbar_power(j), k),
    laurent,
    st.integers(0, 2),
    st.integers(0, 3),
)


def divisible_by_q_minus_qbar(num: LaurentPoly) -> bool:
    """Whether q - q^-1 = q^-1 (q - 1)(q + 1) divides num: every (P, p)
    column vanishes at q = 1 and at q = -1."""
    sums: dict = {}
    for (a, b, c), v in num.terms.items():
        for q in (1, -1):
            sums[b, c, q] = sums.get((b, c, q), 0) + v * q**a
    return not any(sums.values())


def fields(c: CoeffExact):
    return c.num.coeffs, c.num.denom, c.k


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff)
def test_field_associativity_and_distributivity(a, b, c):
    for x in (a, b, c, a + b, a * b):
        assert x.k == 0 or not divisible_by_q_minus_qbar(x.num)
        assert x.k == 0 or not x.is_zero()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(coeff, coeff)
def test_field_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(coeff, st.integers(-5, 5).filter(bool))
def test_field_inverses(a, n):
    assert (a + (-a)).is_zero()
    assert (a + (-a)).k == 0
    assert (a * n) / n == a


@settings(max_examples=100, deadline=None)
@given(coeff, coeff)
def test_equal_values_have_equal_fields(a, b):
    c = (a + b) - b
    assert c == a
    assert fields(c) == fields(a)
    assert hash(c) == hash(a)


@settings(max_examples=100, deadline=None)
@given(coeff, coeff, small_fraction, st.integers(0, 2))
def test_equal_values_hash_equal(a, b, r, j):
    # exact scalars, their numerators and rationals, a constant also built
    # over (q - q^-1)^j: whatever compares equal hashes equal
    constant = CoeffExact(LaurentPoly.monomial(coeff=r) * q_minus_qbar_power(j), j)
    values = [a, b, a.num, (a + b) - b, r, constant, constant.num, LaurentPoly.monomial(coeff=r)]
    if r.denominator == 1:
        values.append(int(r))
    for x in values:
        for y in values:
            assert (x == y) == (y == x), (x, y)
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert constant == r and hash(constant) == hash(r)


class TestHashing:
    def test_constants_hash_like_their_rationals(self):
        assert len({CoeffExact.one(), 1}) == 1
        assert len({LaurentPoly.monomial(coeff=1), 1}) == 1
        assert len({CoeffExact.zero(), 0, Fraction(0)}) == len({LaurentPoly(), 0}) == 1
        half = Fraction(1, 2)
        for x in (CoeffExact.from_int(half), LaurentPoly.monomial(coeff=half)):
            assert x == half and half == x
            assert hash(x) == hash(half)
        assert {CoeffExact.from_int(half): "x"}[half] == "x"

    def test_exact_scalars_of_both_classes_compare(self):
        assert CoeffExact.zero() == LaurentPoly() and LaurentPoly() == CoeffExact.zero()
        assert len({CoeffExact.zero(), LaurentPoly(), 0}) == 1
        q = LaurentPoly.monomial(q_exp=1)
        assert CoeffExact(q) == q and q == CoeffExact(q) and len({CoeffExact(q), q}) == 1
        assert CoeffExact(q) != LaurentPoly.monomial(q_exp=2)
        # over (q - q^-1)^1 no polynomial is equal
        assert bracket_affine(0, 1) != bracket_affine(0, 1).num

    def test_units_are_shared(self):
        # 1 and -1 scale most words of the realizations and relations,
        # which keep them; every way of forming them gives one object each
        one, minus = CoeffExact.one(), CoeffExact.from_int(-1)
        assert (-one).num is minus.num and (minus * minus).num is one.num
        assert (one * one).num is LaurentPoly.monomial(coeff=1) is (-minus).num
        assert (bracket_int(2) - bracket_affine(2, 0) + one).num is one.num
        assert (one * 2).num is not one.num and (one * 2).num == 2

    def test_non_constants_differ_from_rationals(self):
        for x in (bracket_int(2), bracket_affine(0, 1), CoeffExact(LaurentPoly.monomial(p_pow=1))):
            assert x != 2 and x != Fraction(2) and 2 != x
        assert bracket_int(1) == 1 and bracket_int(-1) == Fraction(-1)


@settings(max_examples=100, deadline=None)
@given(laurent, st.integers(0, 3), st.integers(0, 3))
def test_construction_divides_out_q_minus_qbar(num, j, k):
    a = CoeffExact(num, k)
    b = CoeffExact(num * q_minus_qbar_power(j), k + j)
    assert fields(a) == fields(b)
    assert a.k == 0 or not divisible_by_q_minus_qbar(a.num)
    if not num.is_zero() and not divisible_by_q_minus_qbar(num):
        assert a.k == k and a.num == num


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


# -- integer-content LaurentPoly against plain Fraction dicts -------------
#
# The reference keeps {monomial: Fraction} dicts and drops a coefficient
# the moment it cancels, so its key order is the order every result must
# have: a float sum in ``eval`` is only reproducible in a fixed order.


def _ref_accumulate(pairs) -> dict:
    out = {}
    for k, v in pairs:
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ref_add(x: dict, y: dict) -> dict:
    return _ref_accumulate([*x.items(), *y.items()])


def ref_mul(x: dict, y: dict) -> dict:
    return _ref_accumulate(
        ((a1 + a2, b1 + b2, c1 + c2), v1 * v2)
        for (a1, b1, c1), v1 in x.items() for (a2, b2, c2), v2 in y.items()
    )


def ref_scaled(x: dict, value) -> dict:
    return {k: v * value for k, v in x.items()} if value else {}


def ref_subst_q1(x: dict) -> dict:
    return _ref_accumulate(((0, 0, c), v) for (_, _, c), v in x.items())


def ref_subst_p_int(x: dict, p: int) -> dict:
    return _ref_accumulate(((a + p * b, 0, 0), v * p**c) for (a, b, c), v in x.items())


def ref_eval(x: dict, q: float, p: float) -> float:
    total = 0.0
    for (a, b, c), v in x.items():
        total += float(v) * q ** (a + p * b) * p**c
    return total


def ref_str(x: dict) -> str:
    parts = []
    for a, b, c in sorted(x):
        parts.append(f"{x[(a, b, c)]}*q^{a}" + (f"*P^{b}" if b else "") + (f"*p^{c}" if c else ""))
    return " + ".join(parts) or "0"


def assert_matches(lp: LaurentPoly, ref: dict):
    """Same terms in the same order, and the integer pair in lowest terms."""
    assert list(lp.terms.items()) == list(ref.items())
    assert all(type(v) is Fraction for v in lp.terms.values())
    assert lp.denom > 0
    assert all(type(v) is int and v for v in lp.coeffs.values())
    assert math.gcd(lp.denom, *lp.coeffs.values()) == 1
    if lp.is_zero():
        assert lp.denom == 1
    assert lp == LaurentPoly(ref)


fraction_dict = st.dictionaries(monomial_key, small_fraction, max_size=5).map(
    lambda d: {k: v for k, v in d.items() if v})
scale_value = st.one_of(st.integers(-6, 6), small_fraction)


@settings(max_examples=200, deadline=None)
@given(fraction_dict, fraction_dict)
def test_laurent_ring_ops_match_reference(x, y):
    a, b = LaurentPoly(x), LaurentPoly(y)
    assert_matches(a, x)
    assert_matches(a + b, ref_add(x, y))
    assert_matches(-b, {k: -v for k, v in y.items()})
    assert_matches(a - b, ref_add(x, {k: -v for k, v in y.items()}))
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(a - a, {})


@settings(max_examples=200, deadline=None)
@given(fraction_dict, scale_value, st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 2))
def test_laurent_scaled_and_shifted_match_reference(x, value, da, db, dc):
    a = LaurentPoly(x)
    assert_matches(a.scaled(value), ref_scaled(x, value))
    # a shift is the product with a monomial
    assert_matches(a * LaurentPoly.monomial(da, db, dc),
                   {(k[0] + da, k[1] + db, k[2] + dc): v for k, v in x.items()})


@settings(max_examples=200, deadline=None)
@given(fraction_dict, st.integers(-3, 3))
def test_laurent_substitutions_match_reference(x, p):
    a = LaurentPoly(x)
    assert_matches(a.subst_q1(), ref_subst_q1(x))
    assert_matches(a.subst_p_int(p), ref_subst_p_int(x, p))


@settings(max_examples=200, deadline=None)
@given(fraction_dict, fraction_dict, st.sampled_from([0.1, 0.5, 0.9, 1.0, 1.3, 2.0, 5.0]),
       st.one_of(st.integers(-3, 3), st.floats(0.25, 3.0)))
def test_laurent_eval_and_string_match_reference_to_the_bit(x, y, q, p):
    a, b = LaurentPoly(x), LaurentPoly(y)
    prod = ref_mul(x, y)
    assert (a * b).eval(q, p) == ref_eval(prod, q, p)
    assert a.eval(q, p) == ref_eval(x, q, p)
    assert (a * b).canonical_str() == ref_str(prod)
    assert a.canonical_str() == ref_str(x)


def test_laurent_pinned_order_and_rounding():
    # (-1 - q + q^2)^2: the q^2 coefficient cancels and returns after q^3
    x = {(0, 0, 0): Fraction(-1), (1, 0, 0): Fraction(-1), (2, 0, 0): Fraction(1)}
    square = LaurentPoly(x) * LaurentPoly(x)
    assert list(square.terms) == [(0, 0, 0), (1, 0, 0), (3, 0, 0), (2, 0, 0), (4, 0, 0)]
    assert_matches(square, ref_mul(x, x))
    # a numerator beyond 2**53 is divided once, correctly rounded
    v = Fraction(2**60 + 120, 3**20)
    assert LaurentPoly({(0, 0, 0): v}).eval(1.0, 0.0) == float(v) == 330654658.27947164


def test_laurent_zero_has_denominator_one():
    half_p = LaurentPoly.monomial(p_pow=1, coeff=Fraction(1, 2))
    assert half_p.denom == 2
    for zero in (half_p - half_p, half_p.scaled(0), half_p * LaurentPoly(), LaurentPoly()):
        assert zero.is_zero() and zero.denom == 1
    # a zero product keeps the canonical zero numerator and k = 0
    for c in (CoeffExact.zero() * CoeffExact(half_p, 2), CoeffExact(half_p, 2) * 0):
        assert c.is_zero() and c.num.denom == 1 and c.k == 0
        assert c + CoeffExact.zero() == CoeffExact.zero()


def test_fractional_canonical_string():
    assert (bracket_int(2) / 2).canonical_str() == "1/2*q^-1 + 1/2*q^1"
    assert (bracket_int(2) / 2).num.denom == 2


def test_rational_constant():
    assert CoeffExact.zero().rational() == 0
    assert bracket_int(1).rational() == 1
    assert (CoeffExact.from_int(3) / 2).rational() == Fraction(3, 2)
    assert bracket_int(2).rational() is None
    assert bracket_affine(0, 1).rational() is None
    assert CoeffExact(LaurentPoly.monomial(p_pow=1)).rational() is None


# -- equality and serialization ------------------------------------------


def test_equality_after_reduction():
    # (q^2 - q^-2) / (q - q^-1) is held as q + q^-1 = [2]
    num = LaurentPoly({(2, 0, 0): 1, (-2, 0, 0): -1})
    c = CoeffExact(num, 1)
    assert c == bracket_int(2)
    assert c.k == 0 and c.num == bracket_int(2).num
    assert hash(c) == hash(bracket_int(2))
    # [p] at p = 3 reduces the same way
    assert bracket_affine(0, 1).subst_p_int(3) == bracket_int(3)
    assert bracket_affine(0, 1).subst_p_int(3).k == 0


def test_canonical_string():
    assert bracket_int(2).canonical_str() == "1*q^-1 + 1*q^1"
    assert bracket_int(0).canonical_str() == "0"
    assert bracket_affine(0, 1).canonical_str() == "(-1*q^0*P^-1 + 1*q^0*P^1)/(-1*q^-1 + 1*q^1)"
    square = bracket_affine(0, 1) * bracket_affine(0, 1)
    assert square.canonical_str() == (
        "(1*q^0*P^-2 + -2*q^0 + 1*q^0*P^2)/(1*q^-2 + -2*q^0 + 1*q^2)")


def test_numeric_str_round_trip():
    assert numeric_str(2.5) == "2.5"
    assert float(numeric_str(1 / 3)) == 1 / 3
    assert numeric_str(complex(1.5, 0.0)) == "1.5"
    assert numeric_str(complex(0.0, 2.0)) == "2j"
