"""Tests for the lazy graded operator engine."""

import pytest

from qglnm.coeff import CoeffExact, LaurentPoly, bracket_int, bracket_value
from qglnm.fock import Signature, enumerate_up_to
from qglnm.presentation import build_relations
from qglnm.realize import realization
from qglnm.verify import default_cap, probe_states, substitute
from qglnm.weyl import (
    Affine,
    Diag,
    Engine,
    EngineError,
    Lower,
    OperatorExpr,
    ProbeBatch,
    Raise,
    affine_mode,
    affine_total,
    super_commutator,
    word_degree_shift,
)

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)


def exact_engine(sig, p=None):
    return Engine(sig, convention="monomial", p=p)


def numeric_engine(sig, q=1.3, p=2.0, convention="orthonormal"):
    return Engine(sig, convention=convention, q=q, p=p)


def probe(sig, cap=4):
    return list(enumerate_up_to(sig, cap))


def expect_zero(eng, expr, states):
    compiled = eng.compile(expr)
    for s in states:
        image = eng.apply_compiled(compiled, s)
        if eng.mode == "exact":
            assert not image, (s, image)
        else:
            assert eng.max_abs(image) < 1e-12, (s, image)


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
        d = Diag("bracket", affine=affine_total(SIG21))
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
        eng = exact_engine(SIG21)
        expr = OperatorExpr.from_word(Raise(1), Lower(1))
        vec = {(1, 0): CoeffExact.from_int(3), (2, 0): CoeffExact.from_int(-1)}
        out = eng.apply(expr, vec)
        assert out == {(1, 0): CoeffExact.from_int(3), (2, 0): CoeffExact.from_int(-2)}

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
        n_tot = OperatorExpr.from_word(Diag("affine", affine=affine_total(sig)))
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
            if kind == "bracket_ratio":
                # keep the argument positive on the probed states
                return Diag("bracket_ratio", mode=1, shift=shift + 2)
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
        assert eng.max_abs(out) == pytest.approx(0.0, abs=1e-14)


class TestEngineValidation:
    def test_orthonormal_requires_numeric(self):
        with pytest.raises(EngineError, match="square roots; give a numeric q$"):
            Engine(SIG21, convention="orthonormal")

    def test_numeric_rejects_negative_q(self):
        with pytest.raises(EngineError):
            Engine(SIG21, q=-2.0)

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
        ratio = Diag("bracket_ratio", mode=1, shift=1)
        assert eng.eval_diag(ratio, (1, 0)) == CoeffExact.one()


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
    """apply_word (plain ladder numbers, cached diagonal values and
    products) against the atom-by-atom fold on every term of every
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


class TestWordCaches:
    # e1-like word [p - N] a_1 (the bracket is read on the lowered state)
    WORD = (Diag("bracket", affine=Affine(0, 1, (-1, -1))), Lower(1))

    def test_engines_differing_in_p_keep_their_values(self):
        e3, e4 = exact_engine(SIG21, p=3), exact_engine(SIG21, p=4)
        for _ in range(2):
            assert e3.apply_word(self.WORD, (2, 0)) == (bracket_int(2) * 2, (1, 0))
            assert e4.apply_word(self.WORD, (2, 0)) == (bracket_int(3) * 2, (1, 0))

    def test_engines_differing_in_q_keep_their_values(self):
        word = (Diag("bracket", affine=affine_total(SIG21)),
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
        ratio = (Diag("bracket_ratio", mode=1),)
        assert eng.apply_word(ratio, (1, 0)) == (CoeffExact.one(), (1, 0))
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="argument 0"):
                eng.apply_word(ratio, (0, 0))

    def test_fermionic_angle_is_one(self):
        angle = Diag("angle", mode=2)  # mode 2 of (2,1) is fermionic
        bracket = Diag("bracket", affine=affine_total(SIG21))
        for eng in (exact_engine(SIG21), numeric_engine(SIG21)):
            assert eng.apply_word((angle,), (0, 1)) == (eng.one(), (0, 1))
            assert eng.apply_word((angle, bracket), (1, 1)) == eng.apply_word((bracket,), (1, 1))


class TestProbeBatch:
    """The batched numeric path against the per-state engine as the
    oracle: every term image, and every summed relation residual."""

    QS = (0.7, 1.0, 1.3)

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2), Signature(4, 2)], ids=str)
    @pytest.mark.parametrize("kind", ["hp", "dyson"])
    def test_relations_match_engine(self, sig, kind):
        convention = "orthonormal" if kind == "hp" else "monomial"
        engines = [Engine(sig, convention=convention, q=q, p=3) for q in self.QS]
        states = probe_states(sig, default_cap(3))
        batch = ProbeBatch(engines, states)
        real = realization(kind, sig)
        for rel in build_relations(sig):
            compiled = batch.compile(substitute(rel, real))
            for c, word in compiled:
                rows, images, values = batch.apply_word(word)
                got = {r: (tuple(img), v) for r, img, v in zip(rows.tolist(), images.tolist(),
                                                              c * values)}
                for qi, eng in enumerate(engines):
                    for r, s in enumerate(states):
                        want = eng.apply_word(word, s)
                        if want is None:
                            assert r not in got or got[r][1][qi] == 0, (rel.name, word, s)
                            continue
                        image, v = got[r]
                        assert image == want[1], (rel.name, word, s)
                        ref = c[qi] * want[0]
                        assert abs(v[qi] - ref) <= 1e-14 * abs(ref), (rel.name, word, s, v, ref)
            peak, scale = batch.max_abs_images(compiled)
            for qi, eng in enumerate(engines):
                single = [(c[qi], w) for c, w in compiled if c[qi] != 0]
                for r, s in enumerate(states):
                    want = eng.max_abs(eng.apply_compiled(single, s))
                    bound = 1e-12 * max(1.0, scale[qi, r])
                    assert abs(peak[qi, r] - want) <= bound, (rel.name, s, peak[qi, r], want)

    def test_zero_argument_raises_only_on_live_rows(self):
        eng = numeric_engine(SIG21)
        batch = ProbeBatch([eng], [(0, 0), (2, 0), (3, 1)])
        ratio = Diag("bracket_ratio", mode=1)
        with pytest.raises(ZeroDivisionError, match="bracket ratio evaluated at argument 0"):
            batch.apply_word((ratio,))
        with pytest.raises(ZeroDivisionError, match="angle bracket evaluated at argument 0"):
            batch.apply_word((Diag("angle", mode=1),))
        # (0, 0) dies at the lowering, then at the zero value of N_1
        for killer in (Lower(1), Diag("affine", affine=affine_mode(SIG21, 1))):
            rows, _, _ = batch.apply_word((ratio, killer))
            assert rows.tolist() == [1, 2]
            assert eng.apply_word((ratio, killer), (0, 0)) is None

    @pytest.mark.parametrize("convention", ["monomial", "orthonormal"])
    def test_ladder_words_match_engine(self, convention):
        # three fermionic modes, so a sign can count an occupied mode that
        # the word does not touch
        sig = Signature(2, 3)
        eng = numeric_engine(sig, convention=convention)
        states = probe(sig, 4)
        batch = ProbeBatch([eng], states)
        ladders = [a(i) for i in range(1, sig.num_modes + 1) for a in (Raise, Lower)]
        for word in [(a,) for a in ladders] + [(a, b) for a in ladders for b in ladders]:
            rows, images, values = batch.apply_word(word)
            got = dict(zip(rows.tolist(), zip(map(tuple, images.tolist()), values[:, 0])))
            for r, s in enumerate(states):
                want = eng.apply_word(word, s)
                assert got.get(r) == (None if want is None else (want[1], want[0])), (word, s)

    def test_requires_numeric_engines(self):
        with pytest.raises(EngineError, match="numeric q"):
            ProbeBatch([exact_engine(SIG21)], [(0, 0)])


def test_word_degree_shift():
    assert word_degree_shift((Raise(1), Lower(2), Lower(1))) == -1
    assert word_degree_shift(()) == 0


def test_parity_homogeneity_enforced():
    mixed = OperatorExpr.from_word(Raise(1)) + OperatorExpr.from_word(Raise(2))
    with pytest.raises(ValueError):
        mixed.parity(SIG21)


def test_collect_merges_words():
    expr = OperatorExpr.from_word(Raise(1)) + OperatorExpr.from_word(Raise(1))
    collected = expr.collect()
    assert len(collected.terms) == 1
    assert collected.terms[0][0] == CoeffExact.from_int(2)
    cancel = OperatorExpr.from_word(Raise(1)) - OperatorExpr.from_word(Raise(1))
    assert cancel.collect().terms == ()
