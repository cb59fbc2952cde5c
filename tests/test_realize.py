"""Tests for the oscillator realizations and the deformed operators."""

import math

import pytest

from qglnm.coeff import CoeffExact, LaurentPoly
from qglnm.fock import Signature, enumerate_up_to, vacuum
from qglnm.presentation import GenSymbol, generator_parity
from qglnm.realize import (
    MUTATIONS,
    dyson,
    hp,
    hp_deformed,
    realization,
    tilde_minus,
    tilde_number,
    tilde_ops,
    tilde_plus,
)
from qglnm.weyl import Diag, Engine

SIG21 = Signature(2, 1)


def q_bracket(x, q):
    """Direct numeric oracle for [x]."""
    return (q**x - q ** (-x)) / (q - 1 / q)


class TestDyson:
    def test_f1_on_vacuum(self):
        real = dyson(SIG21)
        eng = Engine(SIG21, convention="monomial")
        out = eng.apply(real.image(GenSymbol("f", 1)), (0, 0))
        assert out == {(1, 0): CoeffExact.one()}

    def test_h1_formal_eigenvalue(self):
        real = dyson(SIG21)
        eng = Engine(SIG21, convention="monomial")
        out = eng.apply(real.image(GenSymbol("h", 1)), (1, 1))
        expected = CoeffExact(LaurentPoly.monomial(p_pow=1)) - CoeffExact.from_int(2)
        assert out[(1, 1)] == expected

    def test_e1_produces_boundary_bracket(self):
        # on a single quantum the image reduces to [p] times the vacuum
        real = dyson(SIG21)
        eng = Engine(SIG21, convention="monomial")
        out = eng.apply(real.image(GenSymbol("e", 1)), (1, 0))
        expected = CoeffExact(LaurentPoly({(0, 1, 0): 1, (0, -1, 0): -1}), 1)
        assert out == {(0, 0): expected}
        # numeric cross-check at q=2, p=3: [3] = 5.25
        eng_n = Engine(SIG21, convention="monomial", q=2.0, p=3.0)
        out_n = eng_n.apply(real.image(GenSymbol("e", 1)), (1, 0))
        assert out_n[(0, 0)] == pytest.approx(5.25)
        assert out_n[(0, 0)] == pytest.approx(q_bracket(3, 2.0))

    def test_hop_images_move_one_quantum(self):
        sig = Signature(3, 1)
        real = dyson(sig)
        eng = Engine(sig, convention="monomial", p=4)
        out = eng.apply(real.image(GenSymbol("e", 2)), (0, 1, 0))
        assert set(out) == {(1, 0, 0)}
        out = eng.apply(real.image(GenSymbol("f", 3)), (0, 1, 0))
        assert set(out) == {(0, 0, 1)}

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 0)])
    def test_image_parities(self, n, m):
        sig = Signature(n, m)
        real = dyson(sig)
        for g, expr in real.images.items():
            assert expr.parity(sig) == generator_parity(sig, g)

    def test_all_generators_have_images(self):
        sig = Signature(3, 2)
        real = dyson(sig)
        expected = {GenSymbol("h", i) for i in range(1, 6)}
        expected |= {GenSymbol(k, i) for k in "ef" for i in range(1, 5)}
        assert set(real.images) == expected


class TestHolsteinPrimakoff:
    def test_f1_coefficient(self):
        # sqrt([2]) at q = 1.3 on the vacuum
        real = hp(SIG21)
        eng = Engine(SIG21, convention="orthonormal", q=1.3, p=2)
        out = eng.apply(real.image(GenSymbol("f", 1)), (0, 0))
        expected = math.sqrt(q_bracket(2, 1.3))
        assert out[(1, 0)] == pytest.approx(expected, rel=1e-12)
        assert out[(1, 0)] == pytest.approx(1.438482, abs=1e-6)

    def test_e2_fermionic_hop(self):
        real = hp(SIG21)
        eng = Engine(SIG21, convention="orthonormal", q=1.7, p=2)
        out = eng.apply(real.image(GenSymbol("e", 2)), (0, 1))
        assert out == {(1, 0): pytest.approx(1.0)}

    def test_h1_vacuum_eigenvalue(self):
        real = hp(Signature(3, 2))
        eng = Engine(Signature(3, 2), convention="orthonormal", q=0.9, p=2.5)
        out = eng.apply(real.image(GenSymbol("h", 1)), vacuum(Signature(3, 2)))
        assert out[vacuum(Signature(3, 2))] == pytest.approx(2.5)

    def test_boundary_factor_annihilates_at_threshold(self):
        # raising out of the threshold layer hits sqrt([0]) = 0
        real = hp(SIG21)
        eng = Engine(SIG21, convention="orthonormal", q=1.3, p=1)
        out = eng.apply(real.image(GenSymbol("f", 1)), (1, 0))
        assert out == {}

    def test_negative_radicand_above_threshold_is_imaginary(self):
        # two layers above the threshold the radicand is [-1] < 0
        real = hp(SIG21)
        eng = Engine(SIG21, convention="orthonormal", q=1.3, p=1)
        out = eng.apply(real.image(GenSymbol("f", 1)), (2, 0))
        val = out[(3, 0)]
        assert isinstance(val, complex) and val.imag != 0

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
    def test_image_parities(self, n, m):
        sig = Signature(n, m)
        real = hp(sig)
        for g, expr in real.images.items():
            assert expr.parity(sig) == generator_parity(sig, g)


class TestTildeOps:
    def test_bosonic_matrix_elements(self):
        # deformed raising carries sqrt([l+1]), lowering sqrt([l])
        sig = SIG21
        eng = Engine(sig, convention="orthonormal", q=2.0, p=0)
        up = eng.apply(tilde_plus(sig, 1), (1, 0))
        assert up[(2, 0)] == pytest.approx(math.sqrt(q_bracket(2, 2.0)))
        assert up[(2, 0)] == pytest.approx(math.sqrt(2.5))
        dn = eng.apply(tilde_minus(sig, 1), (1, 0))
        assert dn[(0, 0)] == pytest.approx(math.sqrt(q_bracket(1, 2.0)))

    def test_fermionic_modes_undeformed(self):
        sig = SIG21
        eng = Engine(sig, convention="orthonormal", q=2.0, p=0)
        up = eng.apply(tilde_plus(sig, 2), (0, 0))
        assert up == {(0, 1): pytest.approx(1.0)}

    def test_annihilates_vacuum(self):
        sig = SIG21
        eng = Engine(sig, convention="orthonormal", q=2.0, p=0)
        assert eng.apply(tilde_minus(sig, 1), (0, 0)) == {}

    def test_number_operator(self):
        sig = SIG21
        eng = Engine(sig, convention="orthonormal", q=2.0, p=0)
        assert eng.apply(tilde_number(sig, 1), (3, 1)) == {(3, 1): pytest.approx(3.0)}


class TestDeformedForm:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2)])
    def test_agrees_with_direct_form(self, n, m):
        sig = Signature(n, m)
        a, b = hp(sig), hp_deformed(sig)
        eng = Engine(sig, convention="orthonormal", q=1.3, p=2)
        for s in enumerate_up_to(sig, 4):
            for g in a.images:
                va = eng.apply(a.images[g], s)
                vb = eng.apply(b.images[g], s)
                diff = {k: va.get(k, 0) - vb.get(k, 0) for k in set(va) | set(vb)}
                assert max(map(abs, diff.values()), default=0.0) < 1e-12, (g, s)

    def test_words_are_genuinely_different(self):
        # diagonal factors sit at different positions in the two forms (on
        # (2,1) the only e2 factor the forms place differently is the
        # fermionic angle, which the words leave out)
        sig = Signature(3, 1)
        a, b = hp(sig), hp_deformed(sig)
        g = GenSymbol("e", 2)
        assert a.images[g].terms != b.images[g].terms

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_no_angle_on_fermionic_modes(self, n, m):
        # a fermionic mode's angle is one wherever these words would place
        # it, so they leave it out; bosonic modes keep theirs
        sig = Signature(n, m)
        exprs = [*hp(sig).images.values(), *hp_deformed(sig).images.values(),
                 *tilde_ops(sig).values()]
        angles = {a.affine.mode_coeffs.index(1) + 1 for expr in exprs for _, w in expr.terms
                  for a in w if isinstance(a, Diag) and a.kind == "angle"}
        assert angles == set(range(1, n))


class TestMutations:
    def test_known_names(self):
        assert set(MUTATIONS) == {"drop_bracket_ratio", "flip_fermion_sign", "shift_e1_bracket"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            dyson(SIG21, mutation="nonsense")

    def test_mutations_only_for_dyson(self):
        with pytest.raises(ValueError):
            realization("hp", SIG21, mutation="shift_e1_bracket")

    def test_drop_bracket_ratio_needs_n3(self):
        with pytest.raises(ValueError):
            dyson(SIG21, mutation="drop_bracket_ratio")
        real = dyson(Signature(3, 1), mutation="drop_bracket_ratio")
        clean = dyson(Signature(3, 1))
        g = GenSymbol("e", 2)
        assert len(real.images[g].terms[0][1]) == len(clean.images[g].terms[0][1]) - 1

    def test_flip_fermion_sign_negates_odd_image(self):
        real = dyson(SIG21, mutation="flip_fermion_sign")
        clean = dyson(SIG21)
        g = GenSymbol("e", 2)
        assert real.images[g].terms == (-clean.images[g]).terms

    def test_shift_e1_bracket_changes_boundary(self):
        real = dyson(SIG21, mutation="shift_e1_bracket")
        eng = Engine(SIG21, convention="monomial", p=1)
        # with the shifted bracket, lowering from the threshold layer no
        # longer meets an exact zero
        out = eng.apply(real.image(GenSymbol("e", 1)), (2, 0))
        assert out != {}


class TestClassicalLimit:
    def test_dyson_images_lose_deformation(self):
        # bracket ratios become 1 and [p - N] becomes p - N
        sig = Signature(3, 1)
        real = dyson(sig)
        eng = Engine(sig, convention="monomial", p=5, classical=True)
        out = eng.apply(real.image(GenSymbol("e", 1)), (2, 0, 0))
        # A_1^- contributes the occupation 2, the bracket contributes p - 1 = 4
        assert out == {(1, 0, 0): CoeffExact.from_int(8)}


class TestExactOracle:
    """The exact engine is the reference for the numeric scalar domain:
    every Dyson generator image on every state of degree <= 4 of (3,2)."""

    SIG = Signature(3, 2)

    def assert_agree(self, exact_eng, numeric_eng, q):
        real = dyson(self.SIG)
        for g, expr in real.images.items():
            for s in enumerate_up_to(self.SIG, 4):
                ref = {k: v.eval_numeric(q, 3) for k, v in exact_eng.apply(expr, s).items()}
                got = numeric_eng.apply(expr, s)
                for k in set(ref) | set(got):
                    a, b = ref.get(k, 0.0), got.get(k, 0.0)
                    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (g, s, k, a, b)

    @pytest.mark.parametrize("q", [0.7, 1.3])
    def test_numeric_matches_exact(self, q):
        self.assert_agree(Engine(self.SIG, convention="monomial", p=3),
                          Engine(self.SIG, convention="monomial", q=q, p=3), q)

    def test_classical_matches_numeric_at_q1(self):
        self.assert_agree(Engine(self.SIG, convention="monomial", p=3, classical=True),
                          Engine(self.SIG, convention="monomial", q=1.0, p=3), 1.0)
