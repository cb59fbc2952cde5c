"""Tests for the lazy graded operator engine."""

import copy
import dataclasses
import functools
import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qglnm
from qglnm.coeff import (CoeffExact, LaurentPoly, bracket_affine, bracket_int, bracket_value,
                         scalar_str)
from qglnm.fock import Signature, enumerate_up_to
from qglnm.presentation import build_relations
from qglnm.realize import MUTATIONS, realization
from qglnm.verify import PROBE_PLANS, _probe_plan, default_cap, probe_states, substitute, verify_all
from qglnm.weyl import (
    SCALAR_DOMAINS,
    Affine,
    Diag,
    Engine,
    EngineError,
    Lower,
    OperatorExpr,
    ProbePlan,
    ProbeRows,
    Raise,
    ScalarDomain,
    _expand_affine,
    _key_code,
    _key_of,
    _worst,
    affine_mode,
    float_errors_raise,
    normal_form,
    normal_ordered,
    super_commutator,
    word_change,
)

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)
TOTAL21 = Affine(0, 0, (1, 1))  # N = N_1 + N_2 on (2,1)


def exact_engine(sig, p=None):
    return Engine(sig, convention="monomial", p=p)


def numeric_engine(sig, q=1.3, p=2.0, convention="orthonormal"):
    return Engine(sig, convention=convention, q=q, p=p)


def probe(sig, cap=4):
    return list(enumerate_up_to(sig, cap))


def max_abs(vec: dict) -> float:
    """Largest coefficient magnitude of a numeric state vector."""
    return max((abs(v) for v in vec.values()), default=0.0)


def expect_zero(eng, expr, states):
    compiled = eng.compile(expr)
    for s in states:
        image = eng.apply_compiled(compiled, s)
        if eng.mode == "exact":
            assert not image, (s, image)
        else:
            assert max_abs(image) < 1e-12, (s, image)


def domain_of(*engines) -> ScalarDomain:
    """The scalar domain of the engines' q samples (formal q when they are
    exact), p and classical flag, with neither signature nor convention."""
    first = engines[0].scalars
    if first.mode == "exact":
        return ScalarDomain(None, first.p, first.classical)
    return ScalarDomain([e.q for e in engines], first.p)


def plan_images(eng, states, exprs) -> list:
    """Per expression, its images under one engine on the states, read
    through a probe plan (``ProbePlan.images``)."""
    return ProbePlan(eng.sig, eng.convention, states, exprs).images(domain_of(eng))


def replayed(call, *args):
    """``call(*args)`` with every chunk of a probe plan replayed word by
    word: ``ProbePlan._evaluated`` gives no chunk a fast-path result."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ProbePlan, "_evaluated", lambda self, *a: [None] * len(self._chunks))
        return call(*args)


class TestApplyAtom:
    def test_bosonic_raise_on_vacuum(self):
        for eng in (exact_engine(SIG21), numeric_engine(SIG21)):
            coeff, state = eng.apply_atom(Raise(1), (0, 0))
            assert state == (1, 0)
            assert coeff == eng.one()

    def test_bosonic_lower_monomial(self):
        eng = exact_engine(SIG21)
        coeff, state = eng.apply_atom(Lower(1), (2, 0))
        assert state == (1, 0)
        assert coeff == CoeffExact.from_int(2)

    def test_bosonic_lower_orthonormal(self):
        eng = numeric_engine(SIG21)
        coeff, state = eng.apply_atom(Lower(1), (4, 0))
        assert coeff == pytest.approx(2.0)

    def test_lower_kills_empty_mode(self):
        eng = exact_engine(SIG21)
        assert eng.apply_atom(Lower(1), (0, 1)) is None
        assert eng.apply_atom(Lower(2), (3, 0)) is None

    def test_fermionic_raise_is_nilpotent(self):
        eng = exact_engine(SIG21)
        assert eng.apply_atom(Raise(2), (0, 1)) is None

    def test_fermionic_sign_no_occupied_left(self):
        # lowering mode 2 of (1,1): mode 1 is bosonic, so no sign
        eng = exact_engine(SIG21)
        coeff, state = eng.apply_atom(Lower(2), (1, 1))
        assert state == (1, 0)
        assert coeff == CoeffExact.one()

    def test_fermionic_sign_counts_occupied_left(self):
        # raising mode 3 of (0,1,0) crosses the occupied fermionic mode 2
        eng = exact_engine(SIG22)
        coeff, state = eng.apply_atom(Raise(3), (0, 1, 0))
        assert state == (0, 1, 1)
        assert coeff == CoeffExact.from_int(-1)

    def test_diag_bracket_of_total(self):
        eng = exact_engine(SIG21)
        d = Diag("bracket", affine=TOTAL21)
        coeff, state = eng.apply_atom(d, (1, 1))
        assert state == (1, 1)
        assert coeff == bracket_int(2)

    def test_diag_zero_shortcircuits(self):
        eng = exact_engine(SIG21, p=1)
        d = Diag("bracket", affine=Affine(0, 1, (-1, -1)))  # [p - N]
        assert eng.apply_atom(d, (1, 0)) is None  # [0]


class TestApply:
    def test_identity(self):
        eng = exact_engine(SIG21)
        assert eng.apply(OperatorExpr.identity(), (2, 1)) == {(2, 1): CoeffExact.one()}

    def test_number_operator_word(self):
        # raise-after-lower acts as multiplication by the occupation
        eng = exact_engine(SIG21)
        expr = OperatorExpr.from_word(Raise(1), Lower(1))
        assert eng.apply(expr, (2, 0)) == {(2, 0): CoeffExact.from_int(2)}

    def test_right_to_left_evaluation(self):
        # diagonal right of Lower sees the state before lowering,
        # diagonal left of Lower sees the lowered state
        eng = exact_engine(SIG21)
        n1 = Diag("affine", affine=affine_mode(SIG21, 1))
        before = OperatorExpr.from_word(Lower(1), n1)
        after = OperatorExpr.from_word(n1, Lower(1))
        assert eng.apply(before, (3, 0)) == {(2, 0): CoeffExact.from_int(9)}
        assert eng.apply(after, (3, 0)) == {(2, 0): CoeffExact.from_int(6)}

    def test_linearity(self):
        # the image of a combination is the combination of the term images
        eng = exact_engine(SIG21)
        number = OperatorExpr.from_word(Raise(1), Lower(1))
        hop = OperatorExpr.from_word(Raise(2), Lower(1))
        out = eng.apply(number.scaled(3) - hop, (2, 0))
        assert out == {(2, 0): CoeffExact.from_int(6), (1, 1): CoeffExact.from_int(-2)}

    def test_formal_p_affine_eigenvalue(self):
        eng = exact_engine(SIG21)
        h1 = OperatorExpr.from_word(Diag("affine", affine=Affine(0, 1, (-1, -1))))
        out = eng.apply(h1, (1, 1))
        coeff = out[(1, 1)]
        # p - 2 as an exact scalar
        assert coeff - CoeffExact.from_int(-2) == CoeffExact(LaurentPoly.monomial(p_pow=1))


class TestOscillatorRelations:
    """The graded canonical (anti)commutation relations on probe states."""

    @pytest.mark.parametrize("sig", [SIG21, SIG22, Signature(3, 2)])
    def test_lower_raise_bracket_is_identity(self, sig):
        states = probe(sig)
        for eng in (exact_engine(sig), numeric_engine(sig)):
            for i in range(1, sig.num_modes + 1):
                for j in range(1, sig.num_modes + 1):
                    br = super_commutator(
                        sig,
                        OperatorExpr.from_word(Lower(i)),
                        OperatorExpr.from_word(Raise(j)),
                    )
                    delta = OperatorExpr.identity() if i == j else OperatorExpr.zero()
                    expect_zero(eng, br - delta, states)

    @pytest.mark.parametrize("sig", [SIG21, SIG22])
    def test_same_sign_brackets_vanish(self, sig):
        states = probe(sig)
        for eng in (exact_engine(sig), numeric_engine(sig)):
            for mk in (Raise, Lower):
                for i in range(1, sig.num_modes + 1):
                    for j in range(1, sig.num_modes + 1):
                        br = super_commutator(
                            sig,
                            OperatorExpr.from_word(mk(i)),
                            OperatorExpr.from_word(mk(j)),
                        )
                        expect_zero(eng, br, states)

    def test_fermi_anticommutator_on_vacuum(self):
        # two fermionic raises anticommute to zero
        eng = exact_engine(SIG22)
        br = super_commutator(
            SIG22, OperatorExpr.from_word(Raise(2)), OperatorExpr.from_word(Raise(3))
        )
        expect_zero(eng, br, [(0, 0, 0)])

    def test_boson_commutes_with_fermion(self):
        eng = exact_engine(SIG21)
        br = super_commutator(
            SIG21, OperatorExpr.from_word(Raise(1)), OperatorExpr.from_word(Raise(2))
        )
        expect_zero(eng, br, probe(SIG21))


class TestNumberAndShiftIdentities:
    def test_number_commutators(self):
        # [N_i, A_i^pm] = pm A_i^pm and [N, A_i^+ A_j^-] = 0
        sig = SIG22
        states = probe(sig)
        eng = exact_engine(sig)
        for i in range(1, sig.num_modes + 1):
            ni = OperatorExpr.from_word(Diag("affine", affine=affine_mode(sig, i)))
            up = OperatorExpr.from_word(Raise(i))
            dn = OperatorExpr.from_word(Lower(i))
            expect_zero(eng, ni * up - up * ni - up, states)
            expect_zero(eng, ni * dn - dn * ni + dn, states)
        n_tot = OperatorExpr.from_word(Diag("affine", affine=Affine(0, 0, (1,) * sig.num_modes)))
        for i in range(1, sig.num_modes + 1):
            for j in range(1, sig.num_modes + 1):
                hop = OperatorExpr.from_word(Raise(i), Lower(j))
                expect_zero(eng, n_tot * hop - hop * n_tot, states)

    @pytest.mark.parametrize("kind", ["bracket", "bracket_ratio", "qpow"])
    def test_diagonal_shift_across_ladder(self, kind):
        # F(N_i) A_i^+ = A_i^+ F(N_i + 1) and F(N_i) A_i^- = A_i^- F(N_i - 1)
        sig = SIG21
        states = [s for s in probe(sig) if s[0] >= 1]
        eng = exact_engine(sig)

        def factor(shift):
            # keep the bracket ratio's argument positive on the probed states
            shift += 2 * (kind == "bracket_ratio")
            return Diag(kind, affine=affine_mode(sig, 1).shift(shift))

        up, dn = Raise(1), Lower(1)
        lhs_up = OperatorExpr.from_word(factor(0), up)
        rhs_up = OperatorExpr.from_word(up, factor(1))
        expect_zero(eng, lhs_up - rhs_up, states)
        lhs_dn = OperatorExpr.from_word(factor(0), dn)
        rhs_dn = OperatorExpr.from_word(dn, factor(-1))
        expect_zero(eng, lhs_dn - rhs_dn, states)

    def test_fermionic_qpow_is_affine(self):
        # q**(N_i) = 1 + (q - 1) N_i on a fermionic mode, exactly
        sig = SIG21
        eng = exact_engine(sig)
        qpow = OperatorExpr.from_word(Diag("qpow", affine=affine_mode(sig, 2)))
        n2 = OperatorExpr.from_word(Diag("affine", affine=affine_mode(sig, 2)))
        q_coeff = CoeffExact(LaurentPoly.monomial(q_exp=1))
        rhs = OperatorExpr.identity() - n2 + n2.scaled(q_coeff)
        expect_zero(eng, qpow - rhs, probe(sig))


class TestSuperCommutator:
    def test_requires_homogeneous(self):
        mixed = OperatorExpr.from_word(Raise(1)) + OperatorExpr.from_word(Raise(2))
        with pytest.raises(ValueError):
            super_commutator(SIG21, mixed, OperatorExpr.from_word(Raise(1)))

    def test_q_factor_inserted(self):
        x = OperatorExpr.from_word(Lower(1))
        y = OperatorExpr.from_word(Raise(1))
        qfac = CoeffExact(LaurentPoly.monomial(q_exp=1))
        br = super_commutator(SIG21, x, y, qfactor=qfac)
        eng = numeric_engine(SIG21, q=2.0)
        out = eng.apply(br, (1, 0))
        # A^- A^+ - q A^+ A^- on |1>: 2 - 2*1 ... orthonormal: (sqrt2)^2 - 2*1 = 0
        assert max_abs(out) == pytest.approx(0.0, abs=1e-14)


class TestEngineValidation:
    def test_orthonormal_requires_numeric(self):
        with pytest.raises(EngineError, match="square roots; give a numeric q$"):
            Engine(SIG21, convention="orthonormal")

    def test_numeric_rejects_negative_q(self):
        with pytest.raises(EngineError):
            Engine(SIG21, q=-2.0)

    @pytest.mark.parametrize("q", [0.0, math.nan, math.inf, -math.inf])
    def test_numeric_rejects_q_not_finite_positive(self, q):
        with pytest.raises(EngineError, match="^q must be a finite positive number"):
            Engine(SIG21, convention="orthonormal", q=q, p=2)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_numeric_rejects_p_not_finite(self, p):
        with pytest.raises(EngineError, match="^p must be a finite number"):
            Engine(SIG21, convention="orthonormal", q=1.3, p=p)

    def test_exact_rejects_float_p(self):
        with pytest.raises(EngineError, match="^a formal q takes only a formal or integer p$"):
            Engine(SIG21, p=1.5)

    def test_sqrt_is_numeric_only(self):
        eng = exact_engine(SIG21, p=2)
        d = Diag("sqrt_bracket", affine=Affine(0, 1, (-1, -1)))
        with pytest.raises(EngineError):
            eng.eval_diag(d, (0, 0))

    def test_numeric_p_required_when_p_appears(self):
        eng = Engine(SIG21, convention="orthonormal", q=1.3)
        with_p = Diag("bracket", affine=Affine(0, 1, (-1, -1)))
        with pytest.raises(EngineError):
            eng.eval_diag(with_p, (0, 0))
        without_p = Diag("bracket", affine=affine_mode(SIG21, 1))
        assert eng.eval_diag(without_p, (1, 0)) == pytest.approx(1.0)

    def test_classical_brackets_become_affine(self):
        eng = Engine(SIG21, convention="monomial", p=3, classical=True)
        d = Diag("bracket", affine=Affine(0, 1, (-1, -1)))
        assert eng.eval_diag(d, (1, 0)) == CoeffExact.from_int(2)
        ratio = Diag("bracket_ratio", affine=affine_mode(SIG21, 1).shift(1))
        assert eng.eval_diag(ratio, (1, 0)) == CoeffExact.one()

    def test_bracket_of_any_p_coefficient_at_integer_p(self):
        # [2p + N_1] at p = 3 on (1, 0) is [7]; a formal p takes only 0 or 1
        d = Diag("bracket", Affine(0, 2, (1, 0)))
        assert Engine(SIG21, p=3).eval_diag(d, (1, 0)) == bracket_int(7)
        with pytest.raises(ValueError, match="formal p"):
            Engine(SIG21).eval_diag(d, (1, 0))

    def test_diag_kind_and_argument_checked_when_built(self):
        with pytest.raises(EngineError, match="unknown diagonal kind 'sqrt'"):
            Diag("sqrt", affine=affine_mode(SIG21, 1))
        for kind in ("bracket_ratio", "angle"):
            with pytest.raises(EngineError, match="must not depend on p"):
                Diag(kind, affine=Affine(1, 1, (-1, 0)))


def fold_atoms(eng, word, state):
    """Reference word action: apply_atom folded right to left, one
    domain-scalar product per atom."""
    scalar = eng.one()
    for atom in reversed(word):
        res = eng.apply_atom(atom, state)
        if res is None:
            return None
        a, state = res
        scalar = scalar * a
    return scalar, state


def close_rel(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestWordReference:
    """apply_word (plain ladder numbers, diagonal values multiplied in key
    order) against the atom-by-atom fold on every term of every
    substituted relation."""

    @staticmethod
    def _check(sig, kind, eng, same):
        real = realization(kind, sig)
        states = probe(sig, 4)
        checked = 0
        for rel in build_relations(sig):
            for _, word in substitute(rel, real).terms:
                for s in states:
                    got, want = eng.apply_word(word, s), fold_atoms(eng, word, s)
                    assert (got is None) == (want is None), (rel.name, word, s)
                    if got is not None:
                        assert got[1] == want[1], (rel.name, word, s)
                        assert same(got[0], want[0]), (rel.name, word, s, got, want)
                        checked += 1
        assert checked

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    @pytest.mark.parametrize("p, classical", [(None, False), (3, False), (None, True)])
    def test_exact_dyson(self, sig, p, classical):
        eng = Engine(sig, convention="monomial", p=p, classical=classical)
        self._check(sig, "dyson", eng, lambda a, b: a == b)

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    @pytest.mark.parametrize("q", [0.7, 1.0, 1.3])
    def test_numeric_hp(self, sig, q):
        eng = Engine(sig, convention="orthonormal", q=q, p=3)
        self._check(sig, "hp", eng, close_rel)


def eval_normal_form(eng, nf, state):
    """A normal form at a start state, as (scalar, image) or None when
    zero.  The affine factors, which hold every ladder number, are read
    first: a zero among them is a dead term, whose other factors may be
    singular there and are not read."""
    affine = [d for d in nf.factors if d.kind == "affine"]
    others = [d for d in nf.factors if d.kind != "affine"]
    values = []
    for d in affine + others:
        values.append(eng.eval_diag(d, state))
        if eng.scalars.is_zero(values[-1]):
            return None
    scalar = math.prod(values, start=eng.one())
    image = tuple(map(sum, zip(state, nf.change)))
    return (scalar if nf.sign == (-1) ** masked_parity(nf, state) else -scalar), image


def masked_parity(nf, state) -> int:
    """The parity of the occupations under a normal form's sign mask."""
    return sum(state[j] for j in range(len(state)) if nf.mask >> j & 1) % 2


class TestNormalForm:
    """Every relation word in normal form, evaluated at the start state,
    against the per-state engine on every probe state of cap 4."""

    @staticmethod
    def _engine(sig, kind):
        if kind == "dyson":
            return Engine(sig, convention="monomial")
        return Engine(sig, convention="monomial", q=1.3, p=3)

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2), Signature(4, 3)], ids=str)
    @pytest.mark.parametrize("kind", ["dyson", "hp", "hp-deformed"])
    def test_matches_engine(self, sig, kind):
        eng = self._engine(sig, kind)
        real = realization(kind, sig)
        words = {w for rel in build_relations(sig) for _, w in substitute(rel, real).terms}
        live = negated = singular = 0
        for word in words:
            nf = normal_form(sig, word)
            assert nf.change == word_change(sig, word)
            for s in probe_states(sig, 4):
                got, want = eval_normal_form(eng, nf, s), eng.apply_word(word, s)
                assert (got is None) == (want is None), (word, s)
                if got is None:
                    # a dead term whose ratio or angle factor is singular here
                    singular += any(d.kind in ("bracket_ratio", "angle")
                                    and d.affine.eval_parts(s)[0] == 0 for d in nf.factors)
                    continue
                assert got[1] == want[1], (word, s)
                same = got[0] == want[0] if kind == "dyson" else close_rel(got[0], want[0])
                assert same, (word, s, got, want)
                live += 1
                negated += masked_parity(nf, s)
        assert live and singular and (negated or sig.m < 2)

    def test_fermionic_sign(self):
        # A_3^+ A_2^+ on (2,2): the raising of mode 3 sees mode 2 filled
        nf = normal_form(SIG22, (Raise(3), Raise(2)))
        assert nf.mask == 0b10 and nf.sign == -1 and nf.change == (0, 1, 1)
        assert [d.affine for d in nf.factors] == [Affine(1, 0, (0, -1, 0)),
                                                  Affine(1, 0, (0, 0, -1))]
        eng = exact_engine(SIG22)
        assert eval_normal_form(eng, nf, (0, 0, 0)) == eng.apply_word((Raise(3), Raise(2)),
                                                                      (0, 0, 0))
        assert eval_normal_form(eng, nf, (0, 1, 0)) is None

    def test_dead_term_is_not_evaluated(self):
        # [N_1] / N_1 after lowering an empty mode 1: the ratio's argument is
        # 0 on the vacuum, where the ladder factor N_1 is 0 too
        word = (Diag("bracket_ratio", affine_mode(SIG21, 1).shift(1)), Lower(1))
        nf = normal_form(SIG21, word)
        assert nf.factors == (Diag("affine", affine_mode(SIG21, 1)),
                              Diag("bracket_ratio", affine_mode(SIG21, 1)))
        eng = exact_engine(SIG21)
        with pytest.raises(ZeroDivisionError):
            eng.eval_diag(nf.factors[1], (0, 0))
        assert eval_normal_form(eng, nf, (0, 0)) is None is eng.apply_word(word, (0, 0))

    def test_merge_cancels_by_key(self):
        # N_1 A_1^+ and A_1^+ (N_1 + 1) are one operator; A_1^+ N_1 is another
        n1 = Diag("affine", affine_mode(SIG21, 1))
        same = OperatorExpr.from_word(n1, Raise(1)) - OperatorExpr.from_word(
            Raise(1), Diag("affine", affine_mode(SIG21, 1).shift(1)))
        assert normal_ordered(SIG21, same) == {}
        # N_1 A_1^+ - A_1^+ N_1 has two keys, and the affine stage takes
        # (N_1 + 1) - N_1 to the single term A_1^+
        differ = OperatorExpr.from_word(n1, Raise(1)) - OperatorExpr.from_word(Raise(1), n1)
        assert normal_ordered(SIG21, differ) == {((1, 0), (), (0, 0)): CoeffExact.one()}
        assert normal_ordered(SIG21, differ - OperatorExpr.from_word(Raise(1))) == {}
        # the fermionic sign merges in: A_3^+ and A_2^+ anticommute
        swap = (OperatorExpr.from_word(Raise(3), Raise(2))
                + OperatorExpr.from_word(Raise(2), Raise(3)))
        assert normal_ordered(SIG22, swap) == {}

    def test_fermionic_square_is_the_number(self):
        # N_f N_f - N_f closes on a fermionic mode, not on a bosonic one
        for mode, closes in ((2, True), (1, False)):
            n = Diag("affine", affine_mode(SIG21, mode))
            expr = OperatorExpr.from_word(n, n) - OperatorExpr.from_word(n)
            assert (normal_ordered(SIG21, expr) == {}) == closes, mode

    def test_p_folds_into_the_scalar(self):
        # (p - N_1) A_1^- cancels against its parts p A_1^- and N_1 A_1^-
        n1 = Diag("affine", affine_mode(SIG21, 1))
        p_minus = OperatorExpr.from_word(Diag("affine", Affine(0, 1, (-1, 0))), Lower(1))
        parts = (OperatorExpr.from_word(Diag("affine", Affine(0, 1)), Lower(1))
                 - OperatorExpr.from_word(n1, Lower(1)))
        assert normal_ordered(SIG21, p_minus - parts) == {}
        # (p - N_1) A_1^- + N_1 A_1^- is N_1 (p - N_1 + 1) + N_1 (N_1 - 1) = p N_1
        # at the start state, with p in the scalar
        assert normal_ordered(SIG21, p_minus + OperatorExpr.from_word(n1, Lower(1))) == {
            ((-1, 0), (), (1, 0)): CoeffExact(LaurentPoly.monomial(p_pow=1))}

    def test_opaque_bracket_identity_stays_open(self):
        # [N_1 + 1] = q [N_1] + q**-N_1 holds, but brackets are opaque to
        # the affine stage: it is sound, not complete
        q = CoeffExact(LaurentPoly.monomial(q_exp=1))
        expr = (OperatorExpr.from_word(Diag("bracket", affine_mode(SIG21, 1).shift(1)))
                - OperatorExpr.from_word(Diag("bracket", affine_mode(SIG21, 1)), scalar=q)
                - OperatorExpr.from_word(Diag("qpow", affine_mode(SIG21, 1, -1))))
        assert len(normal_ordered(SIG21, expr)) == 3
        expect_zero(exact_engine(SIG21), expr, probe(SIG21))

    def test_singular_ratio_on_a_dead_term_closes(self):
        # ratio(N_1 + 1) A_1^- (N_1 + 1) - ratio(N_1 + 1) A_1^- N_1 - ratio(N_1 + 1) A_1^-
        # expands to N_1 (N_1 + 1 - N_1 - 1) [N_1] / N_1: it closes with no
        # value formed, though on the vacuum the ratio's argument is 0
        ratio = Diag("bracket_ratio", affine_mode(SIG21, 1).shift(1))
        n1 = affine_mode(SIG21, 1)
        expr = (OperatorExpr.from_word(ratio, Lower(1), Diag("affine", n1.shift(1)))
                - OperatorExpr.from_word(ratio, Lower(1), Diag("affine", n1))
                - OperatorExpr.from_word(ratio, Lower(1)))
        assert normal_ordered(SIG21, expr) == {}
        eng = exact_engine(SIG21)
        with pytest.raises(ZeroDivisionError):
            eng.eval_diag(Diag("bracket_ratio", n1), (0, 0))
        expect_zero(eng, expr, probe(SIG21))

    def test_expansion_order_does_not_matter(self):
        # the affine factors of every Dyson (3,2) relation term, and a set
        # mixing p, a boson and a fermion, expand alike in every order
        sig = Signature(3, 2)
        real = realization("dyson", sig)
        sets = {tuple(d for d in normal_form(sig, w).factors if d.kind == "affine")
                for rel in build_relations(sig) for _, w in substitute(rel, real).terms}
        sets.add((Diag("affine", Affine(1, 1, (0, -1, 1, 0))),
                  Diag("affine", Affine(0, 0, (2, 0, 1, -1))),
                  Diag("affine", affine_mode(sig, 3)), Diag("affine", affine_mode(sig, 4))))
        for factors in sets:
            want = _expand_affine(sig, factors)
            for order in itertools.islice(itertools.permutations(factors), 1, 24):
                assert _expand_affine(sig, order) == want, factors
        assert max(map(len, sets)) >= 4

    def test_mask_follows_from_change(self):
        # every fermionic step flips the mask over the fermionic modes left
        # of it, and a mode's steps have the parity of its change, so the
        # step-by-step mask is the one that normal_form reads off the change
        words = [(sig, w) for sig in (SIG21, Signature(3, 2), Signature(4, 3), Signature(2, 3))
                 for kind in ("dyson", "hp", "hp-deformed")
                 for rel in build_relations(sig)
                 for _, w in substitute(rel, realization(kind, sig)).terms]
        for sig, word in words:
            flips = 0
            for atom in word:
                if not isinstance(atom, Diag) and sig.is_fermionic(atom.mode):
                    flips ^= sum(1 << j for j in range(sig.n - 1, atom.mode - 1))
            assert normal_form(sig, word).mask == flips, (sig, word)
        assert len(words) == 2340


class TestWordCaches:
    """Repeated application on engines that differ in p or q, zero images,
    zero arguments and fermionic angles."""

    # e1-like word [p - N] a_1 (the bracket is read on the lowered state)
    WORD = (Diag("bracket", affine=Affine(0, 1, (-1, -1))), Lower(1))

    def test_engines_differing_in_p_keep_their_values(self):
        e3, e4 = exact_engine(SIG21, p=3), exact_engine(SIG21, p=4)
        for _ in range(2):
            assert e3.apply_word(self.WORD, (2, 0)) == (bracket_int(2) * 2, (1, 0))
            assert e4.apply_word(self.WORD, (2, 0)) == (bracket_int(3) * 2, (1, 0))

    def test_engines_differing_in_q_keep_their_values(self):
        word = (Diag("bracket", affine=TOTAL21),
                Diag("qpow", affine=affine_mode(SIG21, 1)), Raise(1))
        engines = {q: numeric_engine(SIG21, q=q, convention="monomial") for q in (0.7, 1.3)}
        for _ in range(2):
            for q, eng in engines.items():
                coeff, state = eng.apply_word(word, (1, 1))
                assert state == (2, 1)
                assert close_rel(coeff, bracket_value(3, q) * q**2)

    def test_zero_image_is_cached_as_zero(self):
        eng = exact_engine(SIG21, p=1)
        assert eng.apply_word(self.WORD, (1, 0)) == (CoeffExact.one(), (0, 0))  # [1 - 0]
        for _ in range(2):
            assert eng.apply_word(self.WORD, (2, 0)) is None  # [1 - 1] = 0

    def test_bracket_ratio_at_zero_raises_every_time(self):
        eng = exact_engine(SIG21)
        ratio = (Diag("bracket_ratio", affine=affine_mode(SIG21, 1)),)
        assert eng.apply_word(ratio, (1, 0)) == (CoeffExact.one(), (1, 0))
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="argument 0"):
                eng.apply_word(ratio, (0, 0))

    def test_angle_is_evaluated_on_every_mode(self):
        # the engine treats the angle of mode 2, fermionic on (2,1), like any
        # other: the realizations leave it out of their words instead
        angle = (Diag("angle", affine=affine_mode(SIG21, 2).shift(1)),)
        eng = numeric_engine(SIG21, q=2.0)
        assert eng.apply_word(angle, (0, 0)) == (1.0, (0, 0))  # <1> = 1
        assert eng.apply_word(angle, (0, 1)) == (math.sqrt(bracket_value(2, 2.0) / 2), (0, 1))
        (_, _, coeffs), = plan_images(eng, [(0, 0), (0, 1)], [OperatorExpr.from_word(*angle)])
        assert coeffs == [1.0, math.sqrt(bracket_value(2, 2.0) / 2)]


class TestProbeBatch:
    """The multi-state path, a probe plan (``ProbePlan``), against the
    per-state engine as the oracle: every numeric term image and relation
    image bit for bit, every summed relation residual, and every exact
    image and zero verdict."""

    QS = (0.7, 1.0, 1.3)

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2), Signature(4, 2)], ids=str)
    @pytest.mark.parametrize("kind", ["hp", "dyson"])
    def test_relations_match_engine(self, sig, kind):
        convention = "orthonormal" if kind == "hp" else "monomial"
        engines = [Engine(sig, convention=convention, q=q, p=3) for q in self.QS]
        for eng in engines:
            # the passes below apply the same words again
            eng.apply_word = functools.cache(eng.apply_word)
        states = probe_states(sig, default_cap(3))
        rels = build_relations(sig)
        real = realization(kind, sig)
        diffs = [substitute(rel, real) for rel in rels]
        # every term on its own, then every relation; one plan serves every q
        terms = [term for diff in diffs for term in diff.terms]
        plan = ProbePlan(sig, convention, states, [OperatorExpr([t]) for t in terms] + diffs)
        for eng in engines:
            images = plan.images(domain_of(eng))
            for (c, word), (rows, image_states, coeffs) in zip(terms, images):
                got = dict(zip(rows.tolist(), zip(map(tuple, image_states.tolist()), coeffs)))
                c = eng.scalars.from_coeff(c)
                for r, s in enumerate(states):
                    want = eng.apply_word(word, s)
                    if want is None or c == 0:
                        assert r not in got, (word, s)
                        continue
                    v = c * want[0]
                    assert got[r][0] == want[1], (word, s)
                    assert got[r][1] == v and scalar_str(got[r][1]) == scalar_str(v), (word, s)
            self._check_images(eng, states, [(rel.name, diff) for rel, diff in zip(rels, diffs)],
                               images[len(terms):])
        # the replay's image magnitudes and term scales against the engine's,
        # and the plan's residuals against the replay's, bit for bit
        domain = domain_of(*engines)
        replay = [w for chunk in plan._chunks
                  for w in plan._replayed(chunk, domain, images=False)][-len(diffs):]
        for rel, diff, (peak, scale) in zip(rels, diffs, replay):
            for qi, eng in enumerate(engines):
                compiled = eng.compile(diff)
                for r, s in enumerate(states):
                    want = max_abs(eng.apply_compiled(compiled, s))
                    want_scale = max((abs(c * res[0]) for c, w in compiled
                                      if (res := eng.apply_word(w, s)) is not None), default=0.0)
                    assert abs(scale[qi, r] - want_scale) <= 1e-14 * want_scale, (
                        rel.name, s, scale[qi, r], want_scale)
                    bound = 1e-12 * max(1.0, scale[qi, r])
                    assert abs(peak[qi, r] - want) <= bound, (rel.name, s, peak[qi, r], want)
        for tolerance in TestNumericPlan.TOLERANCES:
            TestNumericPlan._check_residuals(plan, domain, tolerance)

    def test_zero_argument_raises_only_on_live_rows(self):
        eng = numeric_engine(SIG21)
        states = [(0, 0), (2, 0), (3, 1)]
        ratio = Diag("bracket_ratio", affine=affine_mode(SIG21, 1))
        with pytest.raises(ZeroDivisionError, match="bracket ratio evaluated at argument 0"):
            plan_images(eng, states, [OperatorExpr.from_word(ratio)])
        with pytest.raises(ZeroDivisionError, match="angle bracket evaluated at argument 0"):
            plan_images(eng, states, [OperatorExpr.from_word(Diag("angle", affine_mode(SIG21, 1)))])
        # (0, 0) dies at the lowering, then at the zero value of N_1
        for killer in (Lower(1), Diag("affine", affine=affine_mode(SIG21, 1))):
            (rows, _, _), = plan_images(eng, states, [OperatorExpr.from_word(ratio, killer)])
            assert rows.tolist() == [1, 2]
            assert eng.apply_word((ratio, killer), (0, 0)) is None

    @pytest.mark.parametrize("convention", ["monomial", "orthonormal"])
    def test_ladder_words_match_engine(self, convention):
        # three fermionic modes, so a sign can count an occupied mode that
        # the word does not touch
        sig = Signature(2, 3)
        ladders = [a(i) for i in range(1, sig.num_modes + 1) for a in (Raise, Lower)]
        words = [(a,) for a in ladders] + [(a, b) for a in ladders for b in ladders]
        self._check_images(numeric_engine(sig, convention=convention), probe(sig, 4),
                           [(word, OperatorExpr.from_word(*word)) for word in words])

    @pytest.mark.parametrize("sig, cap", [(SIG21, 6), (Signature(3, 2), 5)], ids=str)
    @pytest.mark.parametrize("p, classical", [(None, False), (3, False), (None, True)])
    def test_exact_verdicts_match_engine(self, sig, cap, p, classical):
        self._check_exact_verdicts(sig, cap, p, classical, None)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("p, classical", [(None, False), (3, False), (None, True)])
    def test_exact_mutation_verdicts_match_engine(self, mutation, p, classical):
        failing = self._check_exact_verdicts(Signature(3, 2), 4, p, classical, mutation)
        # the bracket ratio is 1 at q = 1, so that mutation changes nothing there
        assert failing == (mutation != "drop_bracket_ratio" or not classical)

    def _check_exact_verdicts(self, sig, cap, p, classical, mutation):
        """Assert that the exact image of every relation, coefficients
        included, is the per-state engine's; returns whether any relation
        failed."""
        real = realization("dyson", sig, mutation)
        rels = build_relations(sig)
        states = probe_states(sig, cap)
        empty = self._check_images(Engine(sig, p=p, classical=classical), states,
                                   [(rel.name, substitute(rel, real)) for rel in rels])
        return empty < len(states) * len(rels)

    @pytest.mark.parametrize("other, zero", [(-1, True), (-2, False)])
    def test_exact_terms_over_different_denominators(self, other, zero):
        # [p] over (q - 1/q), [p]**2 over its square and [2] over 1 meet
        # only over the largest power, where the last term cancels them
        # when other = -1
        bp = bracket_affine(0, 1)
        terms = [bp, bp * bp, bracket_int(2)]
        eng = exact_engine(SIG21)
        word = (Raise(1),)
        expr = OperatorExpr([(c, word) for c in terms]
                            + [(sum(terms, CoeffExact.zero()) * other, word)])
        assert [c.k for c, _ in eng.compile(expr)] == [1, 2, 0, 2]
        assert (self._check_images(eng, [(0, 0), (3, 1)], [("sum", expr)]) == 2) == zero

    def test_exact_python_int_fallback(self):
        # four lowerings from an occupation of 10**5 multiply past 2**63,
        # so int64 would wrap; the Python-int ladder numbers hold the exact
        # number
        top = 10**5
        eng = Engine(SIG21)
        states = [(top, 0), (top, 1), (2, 0)]
        word = (Lower(1),) * 4
        (rows, _, coeffs), = plan_images(eng, states, [OperatorExpr.from_word(*word)])
        want = top * (top - 1) * (top - 2) * (top - 3)
        assert want > 2**63
        assert rows.tolist() == [0, 1] and coeffs == [want, want]
        numeric = Engine(SIG21, convention="monomial", q=1.3, p=3)
        (_, _, values), = plan_images(numeric, [(top, 0)], [OperatorExpr.from_word(*word)])
        assert values[0] == numeric.apply_word(word, (top, 0))[0]
        # two words share the suffix of three lowerings, which stays below
        # the bound in int64; only the word with a fourth lowering passes it
        suffix = (Lower(1),) * 3
        exprs = [OperatorExpr.from_word(*w) for w in [(Lower(1),) + suffix, (Raise(1),) + suffix]]
        images = plan_images(eng, states, exprs)
        assert [(rows.tolist(), coeffs) for rows, _, coeffs in images] == [
            ([0, 1], [want, want]), ([0, 1], [top * (top - 1) * (top - 2)] * 2)]
        for expr, (_, _, values) in zip(exprs, plan_images(numeric, [(top, 0)], exprs)):
            assert values[0] == numeric.apply_word(expr.terms[0][1], (top, 0))[0]
        # the Serre relations of (3,2) at two bosonic occupations near
        # 10**5 sum terms past 2**63 to an exact zero
        sig = Signature(3, 2)
        states = [(top, top, 0, 0), (top, top - 7, 1, 0), (top - 3, 5, 1, 1)]
        for mutation in (None, "shift_e1_bracket"):
            real = realization("dyson", sig, mutation)
            eng = Engine(sig, p=3, classical=True)
            exprs = [(rel.name, substitute(rel, real)) for rel in build_relations(sig)]
            self._check_images(eng, states, exprs)
            assert any(not eng.apply(expr, s) and any(
                abs(v) >= 2**63 for c, w in eng.compile(expr) if (image := eng.apply_word(w, s))
                for v in (c * image[0]).num.coeffs.values()) for _, expr in exprs for s in states)

    # at q = 1 a bracket of N_1 = 2**20 would take the bracket_ratio kind rank;
    # the exact check uses the affine kind, whose value stays small to build
    @pytest.mark.parametrize("engine, kind", [(Engine(SIG21, q=1.0, p=3), "bracket"),
                                              (Engine(SIG21), "affine")], ids=["numeric", "exact"])
    def test_key_code_bound(self, engine, kind):
        word = (Diag(kind, affine=affine_mode(SIG21, 1)),)
        expr = OperatorExpr.from_word(*word)
        (_, _, coeffs), = plan_images(engine, [(2**20 - 1, 0)], [expr])
        assert coeffs == [engine.apply_word(word, (2**20 - 1, 0))[0]]
        assert engine.mode == "numeric" or coeffs == [2**20 - 1]
        with pytest.raises(EngineError, match="code range"):
            plan_images(engine, [(1, 0), (2**20, 0)], [expr])

    @pytest.mark.parametrize("eng", [exact_engine(SIG21),
                                     numeric_engine(SIG21, convention="monomial")],
                             ids=["exact", "numeric"])
    def test_diag_table_grows_both_ways(self, eng):
        # N_1 + shift over N_1 in 2..4: the arguments 2..4, then -3..-1 below
        # them, 5..7 above them and 1..3 across the low end, each plan read
        # through one scalar domain
        domain = domain_of(eng)
        states = [(2, 0), (3, 1), (4, 0)]
        for shift in (0, -5, 3, -1):
            word = (Diag("bracket", affine=affine_mode(SIG21, 1).shift(shift)),)
            (rows, _, coeffs), = ProbePlan(SIG21, eng.convention, states, [
                OperatorExpr.from_word(*word)]).images(domain)
            assert rows.tolist() == [0, 1, 2]
            for s, v in zip(states, coeffs):
                want = eng.apply_word(word, s)[0]
                assert v == want and scalar_str(v) == scalar_str(want), (shift, s)
        # one kept value per argument met
        assert set(domain._values) == {_key_code("bracket", v, 0) for v in range(-3, 8) if v}

    @pytest.mark.parametrize("eng", [exact_engine(SIG21), numeric_engine(SIG21)],
                             ids=["exact", "numeric"])
    def test_zero_division_leaves_table_usable(self, eng):
        # N_1 - 2 over N_1 in {0, 2, 3}: the keys are read whole, so -2 and 1
        # are kept before 0 raises, and the failing 0 never is
        domain = domain_of(eng)
        states = [(0, 0), (2, 0), (3, 1)]
        ratio = Diag("bracket_ratio", affine=affine_mode(SIG21, 1).shift(-2))
        plan = ProbePlan(SIG21, eng.convention, states, [OperatorExpr.from_word(ratio)])

        def kept():
            return [_key_code("bracket_ratio", v, 0) in domain._values for v in (-2, 0, 1)]

        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="bracket ratio evaluated at argument 0"):
                plan.images(domain)
            assert kept() == [True, False, True]
        word = (ratio, Raise(1))  # the arguments -1, 1 and 2
        (rows, _, coeffs), = ProbePlan(SIG21, eng.convention, states, [
            OperatorExpr.from_word(*word)]).images(domain)
        assert rows.tolist() == [0, 1, 2]
        for s, v in zip(states, coeffs):
            want = eng.apply_word(word, s)[0]
            assert v == want and scalar_str(v) == scalar_str(want), s
        assert kept() == [True, False, True]

    @pytest.mark.parametrize("eng", [Engine(SIG21),
                                     Engine(SIG21, convention="monomial", q=10.0, p=3)],
                             ids=["exact", "numeric"])
    def test_columns_raise_only_on_live_rows(self, eng):
        # A factor's keys span rows that a word killed before the factor,
        # where the per-state engine never evaluates it: q**400 overflows a
        # float on (1, 0), and 2**21 + 1 leaves the code range there, but
        # Lower(2) has killed (1, 0) first
        states = [(1, 0), (0, 1)]
        for d in (Diag("qpow", Affine(0, 0, (400, 0))), Diag("affine", Affine(1, 0, (2**21, 0)))):
            word = (d, Lower(2))
            for images in (plan_images, functools.partial(replayed, plan_images)):
                (rows, images, coeffs), = images(eng, states, [OperatorExpr.from_word(*word)])
                assert rows.tolist() == [1] and images.tolist() == [[0, 0]]
                assert coeffs == [eng.apply_word(word, (0, 1))[0]]
            assert eng.apply_word(word, (1, 0)) is None
        # the ratio is applied first, on the state (0, 0) that it sees
        word = (Lower(1), Diag("bracket_ratio", affine_mode(SIG21, 1)))
        for apply in (lambda: plan_images(eng, [(2, 0), (0, 0)], [OperatorExpr.from_word(*word)]),
                      lambda: eng.apply_word(word, (0, 0))):
            with pytest.raises(ZeroDivisionError, match="^bracket ratio evaluated at argument 0$"):
                apply()
        # among live failing rows, an argument out of the code range raises
        # first (2**20 over the singular 0), else the smallest failing one
        for ratio, states, error, match in [
                (Affine(0, 0, (2**20, 0)), [(0, 0), (1, 0)], EngineError, "code range"),
                (affine_mode(SIG21, 1).shift(-2), [(0, 0), (2, 0), (3, 1)], ZeroDivisionError,
                 "^bracket ratio evaluated at argument 0$")]:
            with pytest.raises(error, match=match):
                plan_images(eng, states, [OperatorExpr.from_word(Diag("bracket_ratio", ratio))])

    def test_bracket_of_any_p_coefficient(self):
        # [2p + N_1 - 7] read after raising N_1 in 0..2: at p = 3 the exact
        # plan gives the engine's [0] = 0, [1] and [2]; with formal p every
        # live row raises
        word = (Diag("bracket", Affine(-7, 2, (1, 0))), Raise(1))
        states = [(0, 0), (1, 0), (2, 1)]
        eng = Engine(SIG21, p=3)
        (rows, _, coeffs), = plan_images(eng, states, [OperatorExpr.from_word(*word)])
        assert rows.tolist() == [1, 2]
        assert coeffs == [eng.apply_word(word, s)[0] for s in states[1:]] == [bracket_int(1),
                                                                              bracket_int(2)]
        assert eng.apply_word(word, (0, 0)) is None
        with pytest.raises(ValueError, match="formal p"):
            plan_images(Engine(SIG21), states, [OperatorExpr.from_word(*word)])

    @pytest.mark.parametrize("eng", [Engine(SIG21), numeric_engine(SIG21)],
                             ids=["exact", "numeric"])
    def test_returned_arrays_are_copies(self, eng):
        # mutating what a call returns reaches neither the plan nor its
        # replay, also where a word is one factor live on every row
        for word in [(Diag("qpow", TOTAL21),),
                     (Diag("bracket", affine=TOTAL21), Raise(1), Lower(2), Diag("qpow", TOTAL21))]:
            plan = ProbePlan(SIG21, eng.convention, probe(SIG21), [OperatorExpr.from_word(*word)])
            domain = domain_of(eng)
            for call in (lambda: plan.images(domain), lambda: replayed(plan.images, domain)):
                (first,) = call()
                want = [copy.deepcopy(a) for a in first]
                for a in first:
                    if isinstance(a, np.ndarray) and a.size:
                        a[...] = a.flat[-1] + 7
                assert all(np.array_equal(a, b) for a, b in zip(call()[0], want)), word

    def test_second_pass_builds_no_column(self, monkeypatch):
        # a plan reads every factor's keys when it is built: applying every
        # relation again builds none, also where a factor fails on a row
        # its word has killed (2**21 + 1 leaves the code range on (1, 0));
        # a chunk replayed word by word reads each factor's keys once per
        # call (q**400 overflows at q = 10 on (1, 0))
        calls = 0
        keys = ProbeRows._keys

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return keys(*args, **kwargs)

        monkeypatch.setattr(ProbeRows, "_keys", counted)
        sig = Signature(3, 2)
        states = probe_states(sig, 5)
        hp = [Engine(sig, convention="orthonormal", q=q, p=3) for q in self.QS]
        hp_real, dyson_real = realization("hp", sig), realization("dyson", sig)
        diffs = [substitute(rel, dyson_real) for rel in build_relations(sig)]
        dead = [OperatorExpr.from_word(Diag("qpow", Affine(0, 0, (400, 0))), Lower(2)),
                OperatorExpr.from_word(Diag("affine", Affine(1, 0, (2**21, 0))), Lower(2))]
        hp_plan = ProbePlan(sig, "orthonormal", states,
                            [substitute(rel, hp_real) for rel in build_relations(sig)])
        runs = [(functools.partial(hp_plan.worst, tolerance=1e-10), hp, 0),
                (ProbePlan(sig, "monomial", states, [diff for diff in diffs
                                                     if normal_ordered(sig, diff)]).images,
                 [Engine(sig, p=3)], 0),
                (ProbePlan(SIG21, "monomial", [(1, 0), (0, 1)], dead).images,
                 [Engine(SIG21, convention="monomial", q=10.0, p=3)], 2),
                (ProbePlan(SIG21, "monomial", [(1, 0), (0, 1)], dead[1:]).images,
                 [Engine(SIG21)], 0)]
        for method, engines, replayed_keys in runs:
            passes, counts = [], []
            for _ in range(2):
                before = calls
                passes.append(method(domain_of(*engines)))
                counts.append(calls - before)
            assert counts == [replayed_keys] * 2
            for first, second in zip(*passes):
                assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    def test_generator_images_on_no_states(self, sig):
        # every plan method on zero probe states returns empty results
        modes = sig.num_modes
        names, exprs = zip(*self._generator_images(sig, ["dyson"]))
        for images in (plan_images(Engine(sig, p=3), [], exprs),
                       replayed(plan_images, Engine(sig, p=3), [], exprs)):
            for name, (rows, images, coeffs) in zip(names, images):
                assert rows.shape == (0,) and images.shape == (0, modes) and coeffs == [], name
        engines = [Engine(sig, convention="orthonormal", q=q, p=3) for q in self.QS]
        names, exprs = zip(*self._generator_images(sig, ["dyson", "hp", "hp-deformed"]))
        plan = ProbePlan(sig, "orthonormal", [], exprs)
        assert plan.worst(domain_of(*engines), 1e-10) == [(0.0, 0.0, 0)] * len(exprs)
        for images in (plan.images(domain_of(engines[0])),
                       replayed(plan.images, domain_of(engines[0]))):
            for name, (rows, images, coeffs) in zip(names, images):
                assert rows.shape == (0,) and images.shape == (0, modes) and coeffs == [], name

    @staticmethod
    def _check_images(eng, states, exprs, images=None) -> int:
        """Assert that ``ProbePlan.images`` equals the per-state engine's
        image of every (name, expression) on every state, with equal
        printed coefficients (for floats, equal bits); returns the number
        of zero images.  ``images``, if given, are the expressions' images
        read from a larger plan."""
        names, exprs = zip(*exprs)
        if images is None:
            images = ProbePlan(eng.sig, eng.convention, states, exprs).images(domain_of(eng))
        empty = 0
        for name, expr, (rows, image_states, coeffs) in zip(names, exprs, images):
            compiled = eng.compile(expr)
            assert (np.diff(rows) > 0).all(), name
            got = {r: {tuple(s): v}
                   for r, s, v in zip(rows.tolist(), image_states.tolist(), coeffs)}
            for r, s in enumerate(states):
                image, want = got.get(r, {}), eng.apply_compiled(compiled, s)
                assert list(image) == list(want), (name, s)
                for v, w in zip(image.values(), want.values()):
                    assert v == w and scalar_str(v) == scalar_str(w), (name, s, v, w)
                empty += not image
        return empty

    @staticmethod
    def _generator_images(sig, kinds):
        for kind in kinds:
            for mutation in (None, *MUTATIONS) if kind == "dyson" else (None,):
                if mutation != "drop_bracket_ratio" or sig.n >= 3:
                    for g, expr in realization(kind, sig, mutation).images.items():
                        yield f"{kind} {mutation} {g}", expr

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    @pytest.mark.parametrize("p, classical", [(None, False), (3, False), (None, True)])
    def test_images_match_engine_exact(self, sig, p, classical):
        self._check_images(Engine(sig, p=p, classical=classical), probe(sig, 7),
                           self._generator_images(sig, ["dyson"]))

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    @pytest.mark.parametrize("q", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("convention", ["monomial", "orthonormal"])
    def test_images_match_engine_bits(self, sig, q, convention):
        self._check_images(Engine(sig, convention=convention, q=q, p=3), probe(sig, 7),
                           self._generator_images(sig, ["dyson", "hp", "hp-deformed"]))

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=str)
    @pytest.mark.parametrize("q", [None, 0.7], ids=["exact", "numeric"])
    def test_relation_images_match_engine(self, sig, q):
        # relation residuals sum many terms, cancel to zero on most states
        # and carry words with several diagonal factors
        if q is None:
            eng, real = Engine(sig), realization("dyson", sig, "shift_e1_bracket")
        else:
            eng, real = Engine(sig, convention="orthonormal", q=q, p=3), realization("hp", sig)
        rels = build_relations(sig)
        states = probe(sig, 4)
        empty = self._check_images(eng, states, [(r.name, substitute(r, real)) for r in rels])
        assert 0 < empty < len(states) * len(rels)

    def test_refuses_two_net_occupation_changes(self):
        # both words keep the total occupation but move different modes; at
        # (1, 1) their images (2, 0) and (0, 2) must not sum to a false zero
        sig = Signature(3, 0)
        hops = (OperatorExpr.from_word(Raise(1), Lower(2))
                - OperatorExpr.from_word(Raise(2), Lower(1)))
        eng = exact_engine(sig)
        assert eng.apply(hops, (1, 1)) == {(2, 0): CoeffExact.one(),
                                           (0, 2): CoeffExact.from_int(-1)}
        for convention in ("monomial", "orthonormal"):
            with pytest.raises(EngineError, match="one net occupation change"):
                ProbePlan(sig, convention, [(1, 1)], [hops])

    @pytest.mark.parametrize("eng", [exact_engine(SIG21), numeric_engine(SIG21)],
                             ids=["exact", "numeric"])
    def test_images_of_nothing(self, eng):
        for images in (plan_images, functools.partial(replayed, plan_images)):
            (rows, images, coeffs), = images(eng, [(0, 0), (1, 1)], [OperatorExpr.zero()])
            assert rows.shape == (0,) and images.shape == (0, 2) and coeffs == []

    @pytest.mark.parametrize("eng", [exact_engine(SIG21),
                                     numeric_engine(SIG21, convention="monomial")],
                             ids=["exact", "numeric"])
    def test_image_rows_increase(self, eng):
        # N_1 + N_2: the first term lives on rows 1 and 3, the second on rows
        # 0 and 3, and on row 2 neither
        states = [(0, 1), (2, 0), (0, 0), (1, 1)]
        expr = OperatorExpr.from_word(Raise(1), Lower(1)) + OperatorExpr.from_word(Raise(2), Lower(2))
        for images in (plan_images, functools.partial(replayed, plan_images)):
            (rows, images, coeffs), = images(eng, states, [expr])
            assert rows.tolist() == [0, 1, 3] and images.tolist() == [[0, 1], [2, 0], [1, 1]]
            assert [c == k for c, k in zip(coeffs, [1, 2, 2])] == [True] * 3

    def test_exact_rows_apart_by_ladder_number(self):
        # a lowering on (2, 0) and (3, 0): both rows have the one tuple of
        # the empty code tuple, and their ladder numbers differ
        eng = exact_engine(SIG21)
        expr = OperatorExpr([(bracket_affine(0, 1), (Lower(1),)), (CoeffExact.one(), (Lower(1),))])
        (rows, _, coeffs), = plan_images(eng, [(2, 0), (3, 0)], [expr])
        assert rows.tolist() == [0, 1]
        assert coeffs == [next(iter(eng.apply(expr, s).values())) for s in [(2, 0), (3, 0)]]
        assert coeffs[0] != coeffs[1]

    def test_exact_shared_sum_formed_once(self, monkeypatch):
        # a plan forms one sum per distinct triple sequence on its first
        # call in a scalar domain, and none on a warm one.  [p] and 2 times a
        # raising: every state has the same sequence, so one sum serves them
        # all.  [p] and 1 times a lowering: (0, 0) and (0, 1) die, and the
        # other states differ in their ladder number but (2, 1) and (2, 0),
        # so they need three sums
        eng = exact_engine(SIG21)
        terms = [bracket_affine(0, 1), bracket_int(2)]
        raising = OperatorExpr([(c, (Raise(1),)) for c in terms])
        lowering = OperatorExpr([(bracket_affine(0, 1), (Lower(1),)),
                                 (CoeffExact.one(), (Lower(1),))])
        states = [(0, 0), (1, 0), (2, 1), (0, 1), (2, 0), (3, 0)]
        plan = ProbePlan(SIG21, "monomial", states, [raising, lowering])
        domain = domain_of(eng)
        calls = 0
        add = CoeffExact.__add__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return add(self, other)

        monkeypatch.setattr(CoeffExact, "__add__", counted)
        cold = plan.images(domain)
        assert calls == 1 + 3
        (rows, _, coeffs), (low_rows, _, low_coeffs) = plan.images(domain)
        assert calls == 1 + 3
        monkeypatch.undo()
        assert rows.tolist() == list(range(6)) and coeffs == [terms[0] + terms[1]] * 6
        assert low_rows.tolist() == [1, 2, 4, 5] and low_coeffs == [
            next(iter(eng.apply(lowering, states[r]).values())) for r in (1, 2, 4, 5)]
        assert [(r.tolist(), c) for r, _, c in cold] == [(rows.tolist(), coeffs),
                                                         (low_rows.tolist(), low_coeffs)]

    def test_images_need_a_single_q_sample(self):
        plan = ProbePlan(SIG21, "orthonormal", [(0, 0)], [OperatorExpr.from_word(Raise(1))])
        with pytest.raises(EngineError, match="single q sample"):
            plan.images(ScalarDomain((0.7, 1.3), 2.0))

    def test_domain_has_no_signature_or_convention(self):
        # a domain is its q samples (or formal q), p and classical flag
        for domain in (ScalarDomain(), ScalarDomain(None, 3, classical=True),
                       ScalarDomain(1.3, 3), ScalarDomain([0.7, 1.3], 3)):
            assert not {"sig", "convention", "engines"} & set(vars(domain))
            assert not any(isinstance(v, (Signature, Engine)) for v in vars(domain).values())
        assert ScalarDomain(1.3, 3).domain == ScalarDomain([1.3], 3).domain == (
            ("numeric", 1.3, 3),)
        assert ScalarDomain(None, 3, classical=True).domain == (("exact", 3, True),)

    def test_plan_evaluates_in_its_own_convention(self):
        # a monomial plan at q = 1.3 gives the monomial engine's ladder
        # numbers 2 and 3, never the orthonormal sqrt(2) and sqrt(3), on the
        # fast path and on the forced replay alike
        states = [(2, 0), (3, 1)]
        exprs = [OperatorExpr.from_word(Lower(1))]
        eng = Engine(SIG21, convention="monomial", q=1.3, p=3)
        plan = ProbePlan(SIG21, "monomial", states, exprs)
        domain = ScalarDomain(1.3, 3)
        for images in (plan.images(domain), replayed(plan.images, domain)):
            (rows, _, coeffs), = images
            assert rows.tolist() == [0, 1] and coeffs == [2, 3]
            self._check_images(eng, states, [("lower", exprs[0])], images)

    def test_plan_checks_its_convention(self):
        with pytest.raises(EngineError, match="^unknown convention 'unitary'$"):
            ProbePlan(SIG21, "unitary", [(0, 0)], [OperatorExpr.from_word(Raise(1))])
        plan = ProbePlan(SIG21, "orthonormal", [(0, 0)], [OperatorExpr.from_word(Raise(1))])
        with pytest.raises(EngineError, match="square roots; give a numeric q$"):
            plan.images(ScalarDomain())


class TestDomainValues:
    """What depends only on the scalar domain a call forms once, and a
    probe plan keeps it per domain: a second call on a kept plan forms
    nothing, domains stay apart, a plan keeps a bounded number of them, and
    none of it shows in a report."""

    N1 = affine_mode(SIG21, 1)
    # words in mode 1 only, which read the same on every signature
    WORDS = [(Diag("bracket", N1), Diag("bracket", N1.shift(1)), Raise(1)),
             (Diag("qpow", N1), Lower(1), Diag("bracket", N1.shift(-1))),
             (Diag("bracket", Affine(0, 1, (-1,))), Diag("affine", N1.shift(2)), Lower(1))]

    @pytest.mark.parametrize("numeric", [False, True], ids=["exact", "numeric"])
    def test_second_call_on_a_kept_plan_forms_nothing(self, monkeypatch, numeric):
        counts = {"values": 0, "scalars": 0, "muls": 0}

        def counted(method, name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ScalarDomain, "_value", counted(ScalarDomain._value, "values"))
        monkeypatch.setattr(ScalarDomain, "_scalar", counted(ScalarDomain._scalar, "scalars"))
        monkeypatch.setattr(LaurentPoly, "__mul__", counted(LaurentPoly.__mul__, "muls"))
        exprs = [OperatorExpr.from_word(*w, scalar=k) for k, w in enumerate(self.WORDS, 1)]
        plan = ProbePlan(SIG21, "monomial", probe(SIG21, 5), exprs)
        formed, results = [], []
        for _ in range(2):
            before = dict(counts)
            if numeric:
                results.append(plan.worst(ScalarDomain((0.7, 1.3), 3), 1e-10))
            else:
                results.append([(rows.tolist(), states.tolist(), coeffs) for rows, states, coeffs
                                in plan.images(ScalarDomain())])
            formed.append({name: counts[name] - before[name] for name in counts})
        assert formed[0]["values"] and formed[0]["scalars"], formed
        assert numeric or formed[0]["muls"], formed
        assert formed[1] == {"values": 0, "scalars": 0, "muls": 0}, formed
        assert results[1] == results[0]

    def test_domains_stay_apart(self):
        # each domain holds its own engines' values, exactly or over q in
        # engine order, and the plan reads them: every word's value on
        # every row and q sample is its engine's, bit for bit
        states = probe(SIG21, 5)
        exact = [[Engine(SIG21)], [Engine(SIG21, p=3)], [Engine(SIG21, classical=True)]]
        numeric = [[Engine(SIG21, convention="monomial", q=q, p=p) for q in qs]
                   for qs, p in [((0.7, 1.3), 3), ((1.3, 0.7), 3), ((0.7, 1.3), 4)]]
        exprs = [OperatorExpr.from_word(*word) for word in self.WORDS]
        plan = ProbePlan(SIG21, "monomial", states, exprs)
        for engines in exact + numeric:
            domain = domain_of(*engines)
            if domain.exact:
                values = [np.zeros((1, len(states)), dtype=object) for _ in exprs]
                for image, (rows, _, coeffs) in zip(values, plan.images(domain)):
                    image[0, rows] = coeffs
            else:
                values = []
                for chunk, sums in zip(plan._chunks, plan._evaluated(
                        domain, lambda k, table, part: plan._sums(k, table, part, signed=True))):
                    assert sums is not None, chunk.exprs
                    starts = chunk.expr_starts
                    for lo, hi in zip(starts[:-1], starts[1:]):
                        image = np.zeros((len(engines), len(states)), dtype=complex)
                        image[:, chunk.slot_rows[lo:hi]] = sums[0][:, chunk.slot_patterns[lo:hi]]
                        values.append(image)
            for word, image in zip(self.WORDS, values):
                for eng, row in zip(engines, image.tolist()):
                    for s, v in zip(states, row):
                        want = eng.apply_word(word, s)
                        if want is None:
                            assert v == 0, (eng.scalars.domain, word, s)
                            continue
                        assert v == want[0] and scalar_str(v) == scalar_str(want[0]), (
                            eng.scalars.domain, word, s)
            if domain.exact:
                continue
            for code in plan.codes:
                kind, v, pc = _key_of(code)
                want = [getattr(e.scalars, kind)(v, pc) for e in engines]
                assert domain._values[code].tolist() == want, (domain.domain, kind, v)

    def test_kept_domains_are_bounded(self):
        # the first domain is evicted, and a call there prepares it again
        plan = ProbePlan(SIG21, "monomial", probe(SIG21), [
            OperatorExpr.from_word(*word) for word in self.WORDS])

        def domain(k):
            return ScalarDomain(1.0 + k / 8, 3)

        first = [plan.worst(domain(k), 1e-10) for k in range(SCALAR_DOMAINS + 1)]
        assert len(plan._prepared) == SCALAR_DOMAINS
        assert domain(0).domain not in plan._prepared
        assert plan.worst(domain(0), 1e-10) == first[0]
        assert domain(0).domain in plan._prepared and len(plan._prepared) == SCALAR_DOMAINS

    def test_shared_numeric_arrays_are_read_only(self):
        domain = ScalarDomain((0.7, 1.3), 2.0)
        ProbePlan(SIG21, "monomial", probe(SIG21), [
            OperatorExpr.from_word(*word, scalar=bracket_affine(0, 1)) for word in self.WORDS
        ]).worst(domain, 1e-10)
        arrays = [*domain._values.values(), *(v for v in domain._scalars.values() if v is not None)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0] = 0

    def test_reports_equal_cold_and_warm(self):
        sig = Signature(3, 2)
        calls = [*(dict(sig=sig, cap=4, mutation=m) for m in (None, *MUTATIONS)),
                 dict(sig=sig, cap=4, classical=True), dict(sig=sig, cap=4, p=2),
                 dict(sig=sig, kind="hp", p=3, q=[0.7, 1.3], cap=4)]
        cold = []
        for kwargs in calls:
            _probe_plan.cache_clear()
            cold.append(verify_all(**kwargs).format_machine())
        # other signatures over the same domains, and other domains, first
        for other in (Signature(3, 1), Signature(4, 2)):
            for kwargs in calls:
                verify_all(**dict(kwargs, sig=other))
        verify_all(sig, cap=4, p=3)
        verify_all(sig, kind="hp", p=3, q=[1.3, 0.7], cap=4)
        assert [verify_all(**kwargs).format_machine() for kwargs in calls] == cold


class TestNumericPlan:
    """The probe plan of numeric verification against its word-by-word
    replay (``ProbePlan._replayed``), bit for bit: the residual per (q
    sample, probe state) and each expression's largest image magnitude,
    worst residual and its position, over the realizations, mutations,
    conventions and a grid of q and p, at a tolerance of 0, where every
    expression forms its term scale, and at one where few do; and every
    error the per-word path raises, in its order and with its text."""

    QS = (0.1, 0.2, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 5.0)
    PS = (0, 2, 3, 8)
    TOLERANCES = (0.0, 1e-10)
    # (signature, realization, mutation, convention); the bracket ratio
    # that drop_bracket_ratio drops needs n >= 3.  HP on (4,3) is the
    # benchmark's other signature
    CONFIGS = [(sig, kind, mutation, convention)
               for sig in (SIG21, Signature(3, 2), Signature(4, 2))
               for kind, mutation, convention in [
                   ("hp", None, "orthonormal"), ("hp-deformed", None, "orthonormal"),
                   *(("dyson", m, c) for m in (None, *MUTATIONS) for c in ("monomial", "orthonormal"))]
               if mutation != "drop_bracket_ratio" or sig.n >= 3] + [
        (Signature(4, 3), "hp", None, "orthonormal")]

    @staticmethod
    def _check_residuals(plan, domain, tolerance):
        """Assert that no chunk is replayed, and that per expression the
        plan's largest image magnitude and its residuals, (q, states) with 0
        where no entry reaches, are the replay's; and so is ``worst``."""
        want = [w for chunk in plan._chunks for w in plan._replayed(chunk, domain, images=False)]
        got = []
        evaluate = functools.partial(plan._residuals, tolerance=tolerance)
        for chunk, residuals in zip(plan._chunks, plan._evaluated(domain, evaluate)):
            assert residuals is not None, chunk.exprs
            largest, residual = residuals
            starts = chunk.expr_starts
            for j, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
                dense = np.zeros((len(domain.scalars), plan.size))
                dense[:, chunk.slot_rows[lo:hi]] = residual[:, chunk.slot_patterns[lo:hi]]
                got.append((largest[j], dense))
        assert len(got) == len(want)
        for (largest, residual), (peak, scale) in zip(got, want):
            assert largest == peak.max(initial=0.0)
            ref = peak / np.maximum(1.0, scale) if largest > tolerance else peak
            assert residual.tobytes() == ref.tobytes()
        assert plan.worst(domain, tolerance) == [_worst(*w, tolerance) for w in want]

    @staticmethod
    def _plan(sig, exprs, states):
        return ProbePlan(sig, "orthonormal", states, exprs)

    @pytest.mark.parametrize("sig, kind, mutation, convention", CONFIGS,
                             ids=["-".join(map(str, c)) for c in CONFIGS])
    def test_matches_per_word_path(self, sig, kind, mutation, convention):
        real = realization(kind, sig, mutation)
        exprs = [substitute(rel, real) for rel in build_relations(sig)]
        # one plan serves every q, p and tolerance
        plan = ProbePlan(sig, convention, probe_states(sig, 4), exprs)
        for p in self.PS:
            domain = ScalarDomain(self.QS, p)
            with float_errors_raise():
                for tolerance in self.TOLERANCES:
                    self._check_residuals(plan, domain, tolerance)

    @pytest.mark.parametrize("sig, kind, mutation, convention", CONFIGS,
                             ids=["-".join(map(str, c)) for c in CONFIGS])
    def test_forced_replay_matches_fast_path(self, sig, kind, mutation, convention):
        # every chunk forced through the replay gives the fast path's
        # largest magnitudes, worst residuals and positions
        real = realization(kind, sig, mutation)
        exprs = [substitute(rel, real) for rel in build_relations(sig)]
        plan = ProbePlan(sig, convention, probe_states(sig, 4), exprs)
        for p in self.PS:
            domain = ScalarDomain(self.QS, p)
            with float_errors_raise():
                for tolerance in self.TOLERANCES:
                    assert (replayed(plan.worst, domain, tolerance)
                            == plan.worst(domain, tolerance))

    def test_failing_key_on_a_row_a_later_step_kills_raises(self):
        # the ratio is read first, at N_1 = 0 on (0, 0), which the lowering
        # kills only after it; the relation after it would raise otherwise
        ratio = Diag("bracket_ratio", affine_mode(SIG21, 1))
        exprs = [OperatorExpr.from_word(Raise(1)), OperatorExpr.from_word(Lower(1), ratio),
                 OperatorExpr.from_word(Diag("angle", affine_mode(SIG21, 1)))]
        states = [(2, 0), (0, 0)]
        batch = ScalarDomain(1.3, 2.0)
        plan = self._plan(SIG21, exprs, states)
        for evaluate in (plan.worst, functools.partial(replayed, plan.worst)):
            with pytest.raises(ZeroDivisionError, match="^bracket ratio evaluated at argument 0$"):
                evaluate(batch, 1e-10)
        # a failing key read only after the lowering killed the row does not
        word = (Diag("bracket_ratio", affine_mode(SIG21, 1).shift(1)), Lower(1))
        plan = self._plan(SIG21, [OperatorExpr.from_word(*word)], states)
        assert plan.worst(batch, 1e-10) == replayed(plan.worst, batch, 1e-10)

    def test_zero_scalar_term_never_raises(self):
        # [2] - 2 is 0 at q = 1, so its term drops and its failing word is
        # never read; at q = 1.3 it is read and raises
        zero_at_1 = bracket_int(2) - CoeffExact.from_int(2)
        ratio = Diag("bracket_ratio", affine_mode(SIG21, 1))
        expr = OperatorExpr([(CoeffExact.one(), (Diag("qpow", affine_mode(SIG21, 1)),)),
                             (zero_at_1, (ratio,))])
        states = [(0, 0), (1, 0)]
        plan = self._plan(SIG21, [expr], states)
        batch = ScalarDomain(1.0, 2)
        with float_errors_raise():
            assert plan.worst(batch, 1e-10) == [(1.0, 1.0, 0)] == replayed(plan.worst, batch, 1e-10)
        batch = ScalarDomain(1.3, 2)
        with pytest.raises(ZeroDivisionError, match="bracket ratio"):
            plan.worst(batch, 1e-10)

    def test_product_overflow_raises_the_per_word_error(self):
        # every factor is finite at q = 1e20, their product is not
        with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
            verify_all(SIG21, "hp", 3, q=1e20)
        exprs = [substitute(rel, realization("hp", SIG21)) for rel in build_relations(SIG21)]
        states = probe_states(SIG21, default_cap(3))
        batch = ScalarDomain(1e20, 3)
        reference = self._plan(SIG21, exprs, states)
        with float_errors_raise(), pytest.raises(FloatingPointError) as per_word:
            replayed(reference.worst, batch, 1e-10)
        plan = self._plan(SIG21, exprs, states)
        with float_errors_raise(), pytest.raises(FloatingPointError) as planned:
            plan.worst(batch, 1e-10)
        assert str(planned.value) == str(per_word.value)

    def test_sum_overflow_raises_the_per_word_error(self):
        # two finite terms of 1e308 sum past the largest float: the per-word
        # path raises in its numpy sum, where np.bincount gives inf
        expr = OperatorExpr.from_word(Diag("qpow", Affine(308)))
        states = [(0, 0), (1, 0)]
        batch = ScalarDomain(10.0, 2)
        plan = self._plan(SIG21, [expr + expr], states)
        for evaluate in (plan.worst, functools.partial(replayed, plan.worst)):
            with float_errors_raise(), pytest.raises(FloatingPointError,
                                                     match="^overflow encountered in add$"):
                evaluate(batch, 1e-10)

    def test_refuses_an_exact_batch(self):
        plan = self._plan(SIG21, [OperatorExpr.from_word(Raise(1))], [(0, 0)])
        with pytest.raises(EngineError, match="numeric batch"):
            plan.worst(ScalarDomain(), 1e-10)

    def test_reports_equal_cold_and_warm(self, monkeypatch):
        calls = [dict(kind="hp", p=2, q=[0.5, 1.3]), dict(kind="hp-deformed", p=3, q=0.9),
                 dict(kind="dyson", p=3, q=[0.7, 1.3], mutation="shift_e1_bracket")]
        sig = Signature(3, 2)
        _probe_plan.cache_clear()
        cold = [verify_all(sig, cap=4, **kwargs).format_machine() for kwargs in calls]
        builds = []
        monkeypatch.setattr(ProbePlan, "__init__", lambda *a: builds.append(a))
        assert [verify_all(sig, cap=4, **kwargs).format_machine() for kwargs in calls] == cold
        assert not builds

    def test_warm_call_builds_no_batch_and_reads_no_term_scalar(self, monkeypatch):
        # the plan reads the engines' domain; its term scalars and key
        # values are kept per domain after the first call there
        sig = Signature(3, 2)
        cold = verify_all(sig, "hp", 3, q=[0.7, 1.3], cap=4).format_machine()
        calls = []
        monkeypatch.setattr(ProbePlan, "_replayed", lambda *a: calls.append("replay"))
        for name in ("_scalar", "_key_value"):
            monkeypatch.setattr(ScalarDomain, name, lambda *a, name=name: calls.append(name))
        assert verify_all(sig, "hp", 3, q=[0.7, 1.3], cap=4).format_machine() == cold
        assert not calls

    def test_kept_plans_are_bounded(self):
        _probe_plan.cache_clear()
        for cap in range(4, 5 + PROBE_PLANS):
            verify_all(SIG21, "hp", 2, q=1.3, cap=cap)
        info = _probe_plan.cache_info()
        assert info.misses == PROBE_PLANS + 1
        assert info.currsize == info.maxsize == PROBE_PLANS


class TestPatternLayout:
    """A probe plan's patterns, the distinct sequences of triples on its
    image slots, against the per-word read (``ProbePlan._read``): each
    slot's sequence rebuilt from its pattern is the read's, an
    expression's patterns are consecutive and numbered by their first
    slot, and no chunk has more patterns than slots."""

    CONFIGS = [(SIG21, "hp", None, "orthonormal"),
               (Signature(3, 2), "dyson", None, "monomial"),
               (Signature(3, 2), "dyson", "shift_e1_bracket", "orthonormal"),
               (Signature(4, 3), "hp", None, "orthonormal")]

    @staticmethod
    def _read_sequences(plan, chunk, rows, columns) -> dict:
        """Per (expression in the chunk, row) the (term, ascending plan key
        indices, ladder number) of each term live there, in term order, by
        the per-word read."""
        sequences, t = {}, 0
        for r, e in enumerate(chunk.exprs):
            for _, word in plan.exprs[e].terms:
                read = ProbePlan._read(rows, columns, word)
                keys = [np.searchsorted(plan.codes, columns[d].codes[columns[d].entry[read.rows]])
                        for d in read.factors]
                ladder = [1] * len(read.rows) if read.ladder is None else read.ladder.tolist()
                for i, row in enumerate(read.rows.tolist()):
                    key = tuple(sorted(int(k[i]) for k in keys))
                    sequences.setdefault((r, row), []).append((t, key, ladder[i]))
                t += 1
        return sequences

    @pytest.mark.parametrize("sig, kind, mutation, convention", CONFIGS,
                             ids=["-".join(map(str, c)) for c in CONFIGS])
    def test_patterns_rebuild_the_read(self, sig, kind, mutation, convention):
        exprs = [substitute(rel, realization(kind, sig, mutation)) for rel in build_relations(sig)]
        states = probe_states(sig, 4)
        plan = ProbePlan(sig, convention, states, exprs)
        rows, columns = ProbeRows(sig, convention, states), {}
        slots = patterns = 0
        for chunk in plan._chunks:
            tuples = [tuple(row) for _, m in chunk.tuples for row in m.tolist()]
            numbers = ([1] * len(chunk.triple_terms) if chunk.triple_numbers is None
                       else chunk.triple_numbers.tolist())
            sequences = [[] for _ in chunk.pattern_rows]
            for p, t in zip(chunk.entry_patterns.tolist(), chunk.entry_triples.tolist()):
                sequences[p].append((int(chunk.triple_terms[t]),
                                     tuples[chunk.triple_tuples[t]], numbers[t]))
            starts, pattern_starts = chunk.expr_starts, chunk.pattern_starts
            rebuilt = {(r, int(chunk.slot_rows[j])): sequences[chunk.slot_patterns[j]]
                       for r in range(len(chunk.exprs)) for j in range(starts[r], starts[r + 1])}
            assert rebuilt == self._read_sequences(plan, chunk, rows, columns)
            for r in range(len(chunk.exprs)):
                # an expression's slots take exactly its patterns
                assert (set(chunk.slot_patterns[starts[r] : starts[r + 1]].tolist())
                        == set(range(pattern_starts[r], pattern_starts[r + 1])))
            # numbered by their first slot, each pattern's row that slot's
            _, first = np.unique(chunk.slot_patterns, return_index=True)
            assert (np.diff(first) > 0).all()
            assert (chunk.pattern_rows == chunk.slot_rows[first]).all()
            assert pattern_starts[-1] == len(chunk.pattern_rows) <= len(chunk.slot_rows)
            slots += len(chunk.slot_rows)
            patterns += len(chunk.pattern_rows)
        if sig.num_modes > 3:
            # past (2,1) most slots share their sequence with another
            assert patterns < slots / 2, (patterns, slots)

    def test_sequence_apart_from_its_prefix(self):
        # (1, 0) reads only the qpow term, (1, 1) the qpow term and then the
        # ladder-only term, whose one triple the plan numbers 0: the longer
        # sequence is its prefix and triple 0, and still its own pattern
        expr = OperatorExpr([(CoeffExact.one(), (Diag("qpow", affine_mode(SIG21, 1)),)),
                             (CoeffExact.one(), (Raise(2), Lower(2)))])
        states = [(1, 0), (1, 1)]
        plan = ProbePlan(SIG21, "monomial", states, [expr])
        (chunk,) = plan._chunks
        assert chunk.triple_terms.tolist()[0] == 1
        assert chunk.slot_patterns.tolist() == [0, 1]
        eng = exact_engine(SIG21)
        ((rows, _, coeffs),) = plan.images(domain_of(eng))
        assert rows.tolist() == [0, 1]
        assert coeffs == [next(iter(eng.apply(expr, s).values())) for s in states]


class TestAtomHashing:
    """Words are dictionary keys, so atoms hash once and by value."""

    ATOMS = [
        lambda: Raise(2),
        lambda: Lower(2),
        lambda: Diag("bracket", affine=Affine(1, -1, (-1, -1))),
        lambda: Diag("bracket_ratio", affine=affine_mode(SIG21, 1).shift(1)),
    ]

    @pytest.mark.parametrize("make", ATOMS)
    def test_equal_atoms_built_apart_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({(a, b), (b, a), (make(), make())}) == 1

    def test_raise_and_lower_differ(self):
        assert Raise(1) != Lower(1) and Lower(1) != Raise(1)
        assert len({Raise(1), Lower(1), Raise(1)}) == 2
        assert Diag("affine", affine=TOTAL21) != Diag("bracket", affine=TOTAL21)
        assert Diag("affine", affine=TOTAL21) != Diag("affine", affine=TOTAL21.shift(1))

    @pytest.mark.parametrize("make", ATOMS)
    def test_copies_keep_hash_and_equality(self, make):
        atom = make()
        for other in (copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom)),
                      dataclasses.replace(atom)):
            assert other == atom and hash(other) == hash(atom)
            assert {atom: 1}[other] == 1

    def test_replaced_field_rehashes(self):
        d = Diag("bracket", affine=TOTAL21)
        shifted = dataclasses.replace(d, affine=TOTAL21.shift(1))
        assert shifted == Diag("bracket", affine=TOTAL21.shift(1))
        assert hash(shifted) == hash(Diag("bracket", affine=TOTAL21.shift(1)))
        assert dataclasses.replace(Lower(1), mode=2) == Lower(2)
        assert hash(dataclasses.replace(Lower(1), mode=2)) == hash(Lower(2))

    def test_hash_is_the_same_in_every_process(self):
        # a pickled atom keeps its hash, so the hash must not depend on
        # the process's string hashing
        code = ("from qglnm.weyl import Affine, Diag\n"
                "print(hash(Diag('sqrt_bracket', affine=Affine(1, 1, (-1, -1)))))")
        src = str(Path(qglnm.__file__).parents[1])
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=60,
                               env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
                for seed in ("1", "2")}
        assert len(outs) == 1


def test_word_change():
    diag = Diag("bracket", affine=TOTAL21)
    assert word_change(SIG21, (Raise(1), diag, Lower(2), Lower(1))) == (0, -1)
    assert word_change(SIG21, (diag,)) == word_change(SIG21, ()) == (0, 0)


def test_parity_homogeneity_enforced():
    mixed = OperatorExpr.from_word(Raise(1)) + OperatorExpr.from_word(Raise(2))
    with pytest.raises(ValueError):
        mixed.parity(SIG21)

