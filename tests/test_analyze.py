"""Tests for representation-level analysis of the Fock modules."""

import numpy as np
import pytest

from qglnm import analyze, weyl
from qglnm.analyze import (
    IMAGE_PLANS,
    _image_plan,
    _images,
    _quotient_failures,
    _quotient_plan,
    _reachability,
    check_invariance,
    check_unitarity,
    cyclicity,
    deformed_ops_check,
    essentially_typical,
    highest_weight,
    inequivalence,
    materialize,
    quotient_relations_check,
)
from qglnm.cli import run
from qglnm.coeff import (CoeffExact, LaurentPoly, bracket_affine, bracket_int, numeric_str,
                         scalar_str)
from qglnm.fock import Signature, dim_F0, enumerate_up_to, split_F0_F1, total, vacuum
from qglnm.presentation import GenSymbol, HBracket, build_relations
from qglnm.realize import MUTATIONS, h_affine, realization
from qglnm.weyl import (Affine, Diag, Engine, Lower, OperatorExpr, ProbePlan, Raise,
                        ScalarDomain, affine_mode, float_errors_raise)

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)
SIGS = [SIG21, SIG22, Signature(3, 2)]
Q_SAMPLES = [0.5, 0.9, 1.3, 2.0]


def dense(gm) -> np.ndarray:
    """The generator matrix as a dense complex array."""
    mat = np.zeros((len(gm.basis), len(gm.basis)), dtype=complex)
    for (r, c), v in gm.entries.items():
        mat[r, c] = v
    return mat


class TestMaterialize:
    def test_hp_h1_diagonal(self):
        mats = materialize(SIG21, "hp", p=1, q=1.3, subspace="F0")
        h1 = dense(mats[GenSymbol("h", 1)])
        basis = mats[GenSymbol("h", 1)].basis
        assert np.allclose(h1, np.diag([1 - total(s) for s in basis.states]))
        assert sorted(np.diag(h1).real) == [0.0, 0.0, 1.0]

    def test_dyson_quotient_projects_leak(self):
        mats = materialize(SIG21, "dyson", p=1, subspace="quotient-F0", convention="monomial")
        f1 = mats[GenSymbol("f", 1)]
        basis = f1.basis
        col_vacuum = basis.index[(0, 0)]
        col_top = basis.index[(1, 0)]
        by_col = {}
        for (r, c), v in f1.entries.items():
            by_col.setdefault(c, []).append((r, v))
        assert by_col[col_vacuum] == [(basis.index[(1, 0)], CoeffExact.one())]
        assert col_top not in by_col  # raised out of the subspace, projected away

    def test_dyson_plain_restriction_rejected(self):
        with pytest.raises(ValueError, match="quotient-F0"):
            materialize(SIG21, "dyson", p=1, subspace="F0", convention="monomial")

    def test_hp_quotient_equals_restriction(self):
        a = materialize(SIG21, "hp", p=2, q=1.3, subspace="F0")
        b = materialize(SIG21, "hp", p=2, q=1.3, subspace="quotient-F0")
        for g in a:
            assert np.allclose(dense(a[g]), dense(b[g]))

    def test_h_matrices_nonneg_integer_diagonal(self):
        mats = materialize(SIG22, "hp", p=2, q=0.9, subspace="F0")
        for i in range(2, SIG22.r + 1):
            hm = dense(mats[GenSymbol("h", i)])
            diag = np.diag(hm).real
            assert np.allclose(hm, np.diag(diag))
            assert (diag >= 0).all()
            assert np.allclose(diag, np.round(diag))

    def test_degree_block_structure(self):
        # e_1 strictly lowers the degree block, f_1 raises it, others stay
        mats = materialize(SIG22, "hp", p=2, q=1.3, subspace="F0")
        basis = mats[GenSymbol("e", 1)].basis
        deg = [total(s) for s in basis.states]
        for g, gm in mats.items():
            for (r, c), v in gm.entries.items():
                if abs(v) < 1e-14:
                    continue
                if g.kind == "e" and g.index == 1:
                    assert deg[r] == deg[c] - 1
                elif g.kind == "f" and g.index == 1:
                    assert deg[r] == deg[c] + 1
                else:
                    assert deg[r] == deg[c]

    def test_dim_matches_closed_form(self):
        mats = materialize(SIG22, "hp", p=3, q=1.3, subspace="F0")
        assert len(next(iter(mats.values())).basis) == dim_F0(SIG22, 3)

    def test_f1_slice_subspace(self):
        mats = materialize(SIG21, "hp", p=1, q=1.3, subspace="F1-slice", cap=3)
        basis = next(iter(mats.values())).basis
        assert all(1 < total(s) <= 3 for s in basis.states)

    def test_needs_integer_p(self):
        with pytest.raises(ValueError):
            materialize(SIG21, "hp", p=1.5, q=1.3)


class TestInvariance:
    @pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 1, 2), (2, 2, 2)])
    def test_dyson_structure(self, n, m, p):
        rep = check_invariance(Signature(n, m), "dyson", p)
        assert rep.f1_invariant
        assert not rep.f0_invariant
        assert "f1" in rep.f0_witness  # the first raising image leaks upward

    @pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 1, 2), (2, 2, 2)])
    def test_hp_both_invariant(self, n, m, p):
        rep = check_invariance(Signature(n, m), "hp", p, q=1.3)
        assert rep.f1_invariant and rep.f0_invariant

    def test_hp_requires_q(self):
        with pytest.raises(ValueError):
            check_invariance(SIG21, "hp", 1)

    def test_cap_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="cap must be at least p \\+ 1"):
            check_invariance(SIG21, "dyson", 2, cap=2)

    @pytest.mark.parametrize("kind", ["dyson", "hp"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.n}-{s.m}")
    def test_matches_two_pass_reference(self, sig, p, kind):
        q = None if kind == "dyson" else 1.3
        for cap in range(p + 1, p + 5):
            rep = check_invariance(sig, kind, p, cap=cap, q=q)
            assert (rep.f0_witness, rep.f1_witness) == two_pass_witnesses(sig, kind, p, cap, q)
            assert (rep.f0_invariant, rep.f1_invariant) == (not rep.f0_witness, not rep.f1_witness)

    def test_first_escape_from_each_side(self, monkeypatch):
        # p = 1: (1, 0) is low, (2, 0) and (3, 0) are high
        window = enumerate_up_to(SIG21, 5).states
        stream = [
            ("e1", (2, 0), (3, 0), 1.0),
            ("f1", (1, 0), (2, 0), 2.0),
            ("e1", (3, 0), (1, 0), 3.0),
            ("f1", (0, 0), (2, 0), 4.0),
            ("e1", (2, 0), (0, 0), 5.0),
        ]
        # one image per generator block, as (generator, rows, image states,
        # coefficients) over the window
        monkeypatch.setattr(analyze, "_images", lambda *args: iter([
            (g, np.array([window.index(state)]), np.array([s]), [v])
            for g, state, s, v in stream]))
        rep = check_invariance(SIG21, "dyson", 1)
        assert rep.f0_witness == "f1 maps (1, 0) to (2, 0) with coefficient 2.0"
        assert rep.f1_witness == "e1 maps (3, 0) to (1, 0) with coefficient 3.0"


def two_pass_witnesses(sig, kind, p, cap, q):
    """The escape witnesses by definition: the first image, in realization
    order then state order, that leaves the low half of the window, and
    likewise for the high half, each half probed on its own."""
    low, high = split_F0_F1(sig, p, cap)
    convention = "monomial" if q is None else "orthonormal"

    def escape(states, keep) -> str:
        return next((f"{g} maps {states[r]} to {tuple(s)} with coefficient {scalar_str(v)}"
                     for g, rows, images, coeffs in _images(sig, kind, p, q, convention, states)
                     for r, s, v in zip(rows.tolist(), images.tolist(), coeffs)
                     if not keep(s)), "")

    return escape(low.states, lambda s: total(s) <= p), escape(high.states, lambda s: total(s) > p)


class TestUnitarity:
    @pytest.mark.parametrize("q", [0.9, 1.3])
    def test_hp_passes_dyson_fails(self, q):
        rep = check_unitarity(SIG21, p=2, q=q)
        assert rep.hp_pass and rep.h_diagonal_real
        assert rep.dyson_fails
        assert "entry" in rep.dyson_witness

    @pytest.mark.parametrize("q", Q_SAMPLES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.n}-{s.m}")
    def test_matches_dense_reference(self, sig, p, q):
        rep = check_unitarity(sig, p, q)
        hp_mats = materialize(sig, "hp", p, q=q, subspace="F0")
        dy_mats = materialize(sig, "dyson", p, q=q, subspace="quotient-F0")
        hp_res, _ = dense_transpose_residual(sig, hp_mats)
        dy_res, dy_wit = dense_transpose_residual(sig, dy_mats)
        assert rep.hp_max_residual.hex() == hp_res.hex()
        assert rep.dyson_max_residual.hex() == dy_res.hex()
        assert rep.dyson_witness == dy_wit
        assert rep.h_diagonal_real == dense_h_diagonal_real(sig, hp_mats, 1e-10)

    @pytest.mark.parametrize("entry,value,real", [
        ((0, 1), 2e-10, False), ((1, 1), 1 + 2e-10j, False),
        ((1, 1), 1 + 1e-11j, True), ((1, 0), 1e-11, True),
    ])
    def test_h_diagonal_verdict_matches_dense_reference(self, monkeypatch, entry, value, real):
        built = materialize

        def bent(sig, kind, p, **kw):
            mats = built(sig, kind, p, **kw)
            if kind == "hp":
                mats[GenSymbol("h", 2)].entries[entry] = value
            return mats

        monkeypatch.setattr(analyze, "materialize", bent)
        assert check_unitarity(SIG21, 2, 1.3).h_diagonal_real is real
        assert dense_h_diagonal_real(SIG21, bent(SIG21, "hp", 2, q=1.3), 1e-10) is real

    def test_witness_is_first_largest_entry(self, monkeypatch):
        # ties within a pair and across pairs: the first pair wins, and in
        # it the first entry in row-major order
        fake = {("e", 1): {(0, 1): 2.0, (2, 2): 2.0, (1, 0): 1.0},
                ("f", 1): {(0, 0): 1.0, (0, 2): -1.0},
                ("e", 2): {(0, 0): 2.0}, ("f", 2): {}}
        built = materialize

        def bent(sig, kind, p, **kw):
            mats = built(sig, kind, p, **kw)
            if kind == "dyson":
                for g, entries in fake.items():
                    mats[GenSymbol(*g)].entries = dict(entries)
            return mats

        monkeypatch.setattr(analyze, "materialize", bent)
        rep = check_unitarity(SIG21, 2, 1.3)
        dense_ref = dense_transpose_residual(SIG21, bent(SIG21, "dyson", 2, q=1.3,
                                                         subspace="quotient-F0"))
        assert (rep.dyson_max_residual, rep.dyson_witness) == dense_ref == (
            2.0, "generator pair index 1: entry (1,0): e^T=2.0 f=0.0")

    def test_transpose_entries_match_sqrt_pattern(self):
        mats = materialize(SIG21, "hp", p=2, q=1.3, subspace="F0")
        e1 = dense(mats[GenSymbol("e", 1)])
        f1 = dense(mats[GenSymbol("f", 1)])
        assert np.abs(e1.T - f1).max() < 1e-12


def dense_transpose_residual(sig, mats):
    """The largest |e_i^T - f_i| over the pairs i, from dense matrices, and
    the witness entry where it first occurs: the reference for the sparse
    entry walk of ``check_unitarity``."""
    worst, wit = 0.0, ""
    for i in range(1, sig.r):
        em = dense(mats[GenSymbol("e", i)])
        fm = dense(mats[GenSymbol("f", i)])
        diff = np.abs(em.T - fm)
        r = float(diff.max()) if diff.size else 0.0
        if r > worst:
            worst = r
            a, b = np.unravel_index(np.argmax(diff), diff.shape)
            wit = (f"generator pair index {i}: entry ({a},{b}): "
                   f"e^T={numeric_str(em.T[a, b])} f={numeric_str(fm[a, b])}")
    return worst, wit


def dense_h_diagonal_real(sig, mats, tolerance) -> bool:
    """Whether every h matrix is real diagonal within the tolerance, from
    dense matrices."""
    h_mats = (dense(mats[GenSymbol("h", i)]) for i in range(1, sig.r + 1))
    return not any(np.abs(hm - np.diag(np.diag(hm).real)).max() > tolerance for hm in h_mats)


class TestWeights:
    def test_vacuum_weight(self):
        assert highest_weight(SIG21, 2) == (2, 0, 0)
        assert highest_weight(Signature(3, 2), 4) == (4, 0, 0, 0, 0)

    def test_zero_threshold(self):
        assert highest_weight(SIG21, 0) == (0, 0, 0)

    def test_large_threshold(self):
        assert highest_weight(SIG21, 10001) == (10001, 0, 0)

    def test_e_image_of_vacuum_raises(self, monkeypatch):
        images = analyze._images
        monkeypatch.setattr(analyze, "_images", lambda *args: [
            *images(*args), (GenSymbol("e", 2), np.array([0]), np.array([(0, 1)]),
                             [CoeffExact.one()])])
        with pytest.raises(AssertionError, match="e_2 does not annihilate the vacuum"):
            highest_weight(SIG21, 2)


class TestTypicality:
    def test_fock_weight_fails_criterion(self):
        rep = essentially_typical(SIG21, (2, 0, 0))
        assert rep.left_set == (4, 1)
        assert rep.right_set == (1,)
        assert rep.intersection == (1,)
        assert not rep.essentially_typical

    def test_disjoint_sets_pass(self):
        rep = essentially_typical(SIG21, (0, 0, 5))
        assert rep.essentially_typical
        assert not rep.intersection

    def test_interval_right_set(self):
        rep = essentially_typical(SIG22, (3, 0, 0, 0))
        assert rep.right_set == (1, 2)
        assert not rep.essentially_typical

    def test_m0_degenerates_to_typical(self):
        rep = essentially_typical(Signature(3, 0), (2, 0, 0))
        assert rep.right_set == ()
        assert rep.essentially_typical

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            essentially_typical(SIG21, (1, 0))


class TestInequivalence:
    def test_dimensions_and_spectra(self):
        rep = inequivalence(SIG21, 1, 2)
        assert (rep.dim1, rep.dim2) == (3, 5)
        assert rep.spectrum1 == (0, 0, 1)
        assert rep.spectrum2 == (0, 0, 1, 1, 2)
        assert rep.inequivalent

    def test_pairwise_thresholds(self):
        for p1, p2 in [(1, 2), (1, 3), (2, 3)]:
            assert inequivalence(SIG21, p1, p2).inequivalent

    def test_equal_thresholds_rejected(self):
        with pytest.raises(ValueError):
            inequivalence(SIG21, 2, 2)


class TestCyclicity:
    def test_full_rank_from_vacuum_21(self):
        rep = cyclicity(SIG21, 1, 1.3)
        assert rep.dim == 3
        assert rep.ranks[0] == 3

    def test_full_rank_everywhere_22(self):
        rep = cyclicity(SIG22, 2, 0.9)
        assert rep.full_from_all

    def test_trivial_module(self):
        rep = cyclicity(SIG21, 0, 1.3)
        assert rep.dim == 1 and rep.full_from_all

    @pytest.mark.parametrize("q", [0.9, 1.3])
    @pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 2, 2), (3, 2, 3)])
    def test_ranks_match_krylov_oracle(self, n, m, p, q):
        mats = materialize(Signature(n, m), "hp", p, q=q, subspace="F0")
        assert cyclicity(Signature(n, m), p, q).ranks == krylov_ranks(mats)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2)])
    def test_one_image_state_per_column(self, n, m):
        # the premise of counting reachable states: every generator maps a
        # basis state to a multiple of at most one basis state
        for p in range(4):
            for g, gm in materialize(Signature(n, m), "hp", p, q=1.3, subspace="F0").items():
                cols = [c for _, c in gm.entries]
                assert len(cols) == len(set(cols)), (g, p)

    @pytest.mark.parametrize("n,m,p", [(2, 1, 1), (3, 2, 2)])
    def test_reducible_control_not_full(self, n, m, p):
        # Dyson images on degree <= p + 2, components above dropped: the
        # states of degree > p span an invariant subspace
        sig = Signature(n, m)
        basis = enumerate_up_to(sig, p + 2)
        edges = [(r, basis.index[tuple(s)])
                 for _, rows, images, _ in _images(sig, "dyson", p, None, "monomial", basis.states)
                 for r, s in zip(rows.tolist(), images.tolist()) if total(s) <= p + 2]
        rep = _reachability(len(basis), edges)
        assert "NOT full" in rep.summary()
        assert rep.ranks[basis.index[(0,) * sig.num_modes]] == len(basis)
        high = next(s for s in basis.states if total(s) == p + 1)
        assert rep.ranks[basis.index[high]] < len(basis)


def krylov_ranks(mats, threshold=1e-8):
    """Numeric span rank of repeated generator images from every basis
    vector, by SVD with max-norm column scaling and QR re-orthonormalization:
    the independent reference for the reachability count."""
    gens = [dense(m) for m in mats.values()]
    dim = len(next(iter(mats.values())).basis)

    def scaled_rank(columns):
        cols = [c / np.abs(c).max() for c in columns.T if np.abs(c).max() > 0]
        if not cols:
            return 0
        sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
        return int((sv > threshold * sv[0]).sum())

    ranks = {}
    for start in range(dim):
        span = np.zeros((dim, 1), dtype=complex)
        span[start] = 1.0
        rank = 1
        while True:
            span = np.hstack([span] + [g @ span for g in gens])
            r = scaled_rank(span)
            span = np.linalg.qr(span)[0][:, :r]
            if r == rank or r == dim:
                break
            rank = r
        ranks[start] = r
    return ranks


class TestQuotientConsistency:
    @pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 1, 0),
                                       (3, 2, 0), (3, 2, 3), (4, 3, 2)])
    def test_quotient_matrices_satisfy_relations_exactly(self, n, m, p):
        assert quotient_relations_check(Signature(n, m), p) == []

    CASES = [(n, m, p, mutation)
             for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]
             for p in (1, 2, 3)
             for mutation in (None, *MUTATIONS)
             if mutation != "drop_bracket_ratio" or n >= 3]

    @pytest.mark.parametrize("n,m,p,mutation", CASES)
    def test_sparse_check_matches_dense_products(self, n, m, p, mutation):
        sig = Signature(n, m)
        mats = materialize(sig, "dyson", p, subspace="quotient-F0", convention="monomial",
                           mutation=mutation)
        failures = _quotient_failures(sig, p, mutation)
        assert failures == dense_relation_failures(sig, p, mats)
        # the negative controls fail; at p = 1 every bracket ratio the
        # quotient meets is [1]/1, so dropping one changes nothing
        assert bool(failures) == (mutation is not None
                                  and (mutation != "drop_bracket_ratio" or p >= 2))

    def test_case_count(self):
        assert len(self.CASES) == 42

    @pytest.mark.parametrize("sig", [SIG21, Signature(3, 2)], ids=lambda s: f"{s.n}-{s.m}")
    def test_compression_differs_where_the_high_subspace_is_not_invariant(self, sig):
        # at p = 0 shift_e1_bracket's e_1 maps a degree-1 state to the
        # vacuum, so P g1 P g2 P differs from P g1 g2 P: the compressed
        # relation CK4[i=1] fails while the truncated products satisfy it
        mutation = "shift_e1_bracket"
        window = enumerate_up_to(sig, 4).states
        assert any(total(window[r]) > 0 and total(image) == 0
                   for _, rows, images, _ in _images(sig, "dyson", 0, None, "monomial", window,
                                                     mutation)
                   for r, image in zip(rows.tolist(), images.tolist()))
        mats = materialize(sig, "dyson", 0, subspace="quotient-F0", convention="monomial",
                           mutation=mutation)
        assert _quotient_failures(sig, 0, mutation) == ["CK4[i=1]"]
        assert dense_relation_failures(sig, 0, mats) == []

    @pytest.mark.parametrize("p", [-1, 1.5])
    def test_threshold_must_be_a_nonnegative_integer(self, p):
        with pytest.raises(ValueError, match="needs an integer p >= 0"):
            quotient_relations_check(SIG21, p)

    def test_warm_call_forms_nothing(self, monkeypatch):
        sig = Signature(3, 1)
        _quotient_plan.cache_clear()
        cold = quotient_relations_check(sig, 3)
        counts = {"plans": 0, "values": 0, "products": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ProbePlan, "__init__", counted("plans", ProbePlan.__init__))
        monkeypatch.setattr(ScalarDomain, "_value", counted("values", ScalarDomain._value))
        monkeypatch.setattr(LaurentPoly, "__mul__", counted("products", LaurentPoly.__mul__))
        assert quotient_relations_check(sig, 3) == cold == []
        assert counts == {"plans": 0, "values": 0, "products": 0}

    def test_kept_plans_are_bounded(self):
        # IMAGE_PLANS + 1 keys on (2,1), each threshold with three mutations
        sig = SIG21
        keys = [(p, mutation) for p in range(IMAGE_PLANS)
                for mutation in (None, "flip_fermion_sign", "shift_e1_bracket")][:IMAGE_PLANS + 1]
        _quotient_plan.cache_clear()
        first = [_quotient_failures(sig, p, mutation) for p, mutation in keys]
        info = _quotient_plan.cache_info()
        assert info.currsize == IMAGE_PLANS and info.misses == len(keys)
        assert _quotient_failures(sig, *keys[0]) == first[0]
        assert _quotient_plan.cache_info().misses == len(keys) + 1


def dense_relation_failures(sig, p, mats):
    """Names of the relations the exact matrices violate, by dense matrix
    products: the independent reference for the compressed relations
    (``_quotient_failures``), equal to them while the high subspace is
    invariant."""
    basis = next(iter(mats.values())).basis
    size = len(basis)
    zero, one = CoeffExact.zero(), CoeffExact.one()

    def dense(entries):
        out = [[zero] * size for _ in range(size)]
        for (r, c), v in entries.items():
            out[r][c] = v
        return out

    def matmul(a, b):
        out = [[zero] * size for _ in range(size)]
        for i in range(size):
            for k in range(size):
                if not a[i][k].is_zero():
                    for j in range(size):
                        if not b[k][j].is_zero():
                            out[i][j] = out[i][j] + a[i][k] * b[k][j]
        return out

    def h_value(i, state):
        c, pc = h_affine(sig, i).eval_parts(state)
        return c + pc * p

    def hbracket(letter):
        return dense({(k, k): bracket_int(sum(h_value(i, s) for i in letter.plus)
                                          - sum(h_value(j, s) for j in letter.minus))
                      for k, s in enumerate(basis.states)})

    mats = {g: dense(m.entries) for g, m in mats.items()}
    failures = []
    for rel in build_relations(sig):
        acc = [[zero] * size for _ in range(size)]
        for sign, side in ((1, rel.lhs), (-1, rel.rhs)):
            for scalar, word in side:
                term = dense({(k, k): one for k in range(size)})
                for letter in word:
                    term = matmul(term, hbracket(letter) if isinstance(letter, HBracket)
                                  else mats[letter])
                for i in range(size):
                    for j in range(size):
                        acc[i][j] = acc[i][j] + (scalar if sign == 1 else -scalar) * term[i][j]
        if any(not v.is_zero() for row in acc for v in row):
            failures.append(rel.name)
    return failures


class TestDeformedOps:
    @pytest.mark.parametrize("q", [0.9, 1.3, 2.0])
    def test_bosonic_relations(self, q):
        rep = deformed_ops_check(SIG22, p=2, q=q)
        assert rep.bosonic_pass
        assert rep.bosonic_max_residual <= 1e-12

    def test_fermionic_variant_resolution(self):
        rep = deformed_ops_check(SIG21, p=2, q=1.3)
        assert rep.fermionic_exponent == "+"
        assert rep.fermionic_plus_residual <= 1e-12
        assert rep.fermionic_minus_residual > 1e-3

    def test_two_hp_forms_agree(self):
        rep = deformed_ops_check(SIG22, p=3, q=0.9)
        assert rep.agreement_pass
        assert rep.agreement_residual <= 1e-12

    def test_large_q_judged_against_term_scale(self):
        # at q = 5 the bosonic residual, about 3.8e-12, is rounding in terms
        # of size [6] ~ 5**5, not a defect; the -N variant still fails
        rep = deformed_ops_check(SIG21, p=3, q=5.0)
        assert 1e-12 < rep.bosonic_max_residual < 1e-11
        assert rep.bosonic_pass and rep.agreement_pass
        assert rep.fermionic_exponent == "+"
        assert rep.fermionic_plus_residual <= 1e-12
        assert rep.fermionic_minus_residual > 1.0
        # the relative rule still fails a residual above the tolerance
        assert not deformed_ops_check(SIG21, p=3, q=5.0, tolerance=1e-17).bosonic_pass


def domain_of(engine) -> ScalarDomain:
    """The scalar domain of the engine's q (formal when it is exact), p and
    classical flag."""
    scalars = engine.scalars
    if engine.mode == "exact":
        return ScalarDomain(None, scalars.p, scalars.classical)
    return ScalarDomain(engine.q, scalars.p)


def plan_images(engine, states, exprs) -> list:
    with float_errors_raise():
        return ProbePlan(engine.sig, engine.convention, states, exprs).images(domain_of(engine))


def fast_images(plan, engine) -> list:
    """``plan.images`` of one engine with float errors raising, on the fast
    path alone: a replayed chunk fails the test."""
    def no_replay(plan, chunk, *args):
        raise AssertionError(f"chunk {chunk.exprs} replayed")

    with pytest.MonkeyPatch.context() as m, float_errors_raise():
        m.setattr(ProbePlan, "_replayed", no_replay)
        return plan.images(domain_of(engine))


def forced_replay(plan, engine) -> list:
    """``plan.images`` of one engine with float errors raising, every chunk
    forced through the word-by-word replay (``ProbePlan._replayed``): the
    path whose results and errors the fast path keeps."""
    with pytest.MonkeyPatch.context() as m, float_errors_raise():
        m.setattr(ProbePlan, "_evaluated", lambda self, *a: [None] * len(self._chunks))
        return plan.images(domain_of(engine))


def replayed_images(engine, states, exprs) -> list:
    return forced_replay(ProbePlan(engine.sig, engine.convention, states, exprs), engine)


def assert_same_images(got, want, text):
    """Rows, image states and coefficients equal, the coefficients by
    ``text``: repr tells every double apart, and the sign of a zero."""
    assert len(got) == len(want)
    for (rows, images, coeffs), (ref_rows, ref_images, ref_coeffs) in zip(got, want):
        assert rows.dtype == ref_rows.dtype and rows.tolist() == ref_rows.tolist()
        assert images.tolist() == ref_images.tolist()
        assert [text(v) for v in coeffs] == [text(v) for v in ref_coeffs]


class TestImagePlan:
    """The generator images of module analysis read through a probe plan
    (``weyl.ProbePlan.images``) against the same plan forced through its
    word-by-word replay: numeric coefficients bit for bit, exact ones by canonical
    string, on every state list the analysis reads; and the plans kept per
    process (``analyze._image_plan``)."""

    SIGS = [SIG21, Signature(3, 2), SIG22]
    QS = (0.5, 1.3, 2.0, 1 - 1e-9, 1 + 1e-9)

    @staticmethod
    def state_lists(sig, p) -> list:
        """Every state list module analysis reads at threshold p: the F0
        basis, the F1 slice, the invariance window and the vacuum."""
        low, high = split_F0_F1(sig, p, p + 4)
        return [low.states, high.states, low.states + high.states, [vacuum(sig)]]

    @pytest.mark.parametrize("kind, convention", [
        ("hp", "orthonormal"), ("hp-deformed", "orthonormal"), ("dyson", "orthonormal"),
        ("dyson", "monomial")])
    @pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.n}-{s.m}")
    def test_numeric_images_match_one_batch(self, sig, kind, convention):
        exprs = list(realization(kind, sig).images.values())
        for p in (2, 3):
            for states in self.state_lists(sig, p):
                plan = ProbePlan(sig, convention, states, exprs)
                for q in self.QS:
                    engine = Engine(sig, convention=convention, q=q, p=p)
                    got = fast_images(plan, engine)
                    assert_same_images(got, forced_replay(plan, engine), repr)
                    assert all(type(v) is complex for _, _, coeffs in got for v in coeffs)

    # the bracket ratio that drop_bracket_ratio drops needs n >= 3
    EXACT = [(sig, mutation) for sig in (*SIGS, Signature(3, 1)) for mutation in (None, *MUTATIONS)
             if mutation != "drop_bracket_ratio" or sig.n >= 3]

    @pytest.mark.parametrize("sig, mutation", EXACT,
                             ids=[f"{s.n}-{s.m}-{m}" for s, m in EXACT])
    def test_exact_images_match_one_batch(self, sig, mutation):
        exprs = list(realization("dyson", sig, mutation).images.values())
        for p in (2, 3):
            for states in self.state_lists(sig, p):
                plan = ProbePlan(sig, "monomial", states, exprs)
                for engine in (Engine(sig), Engine(sig, p=p), Engine(sig, p=p, classical=True)):
                    assert_same_images(fast_images(plan, engine), forced_replay(plan, engine),
                                       CoeffExact.canonical_str)

    @pytest.mark.parametrize("engine", [Engine(SIG22), Engine(SIG22, convention="orthonormal",
                                                               q=0.9, p=3)], ids=["exact", "numeric"])
    def test_images_match_across_chunks(self, engine, monkeypatch):
        monkeypatch.setattr(weyl, "PLAN_ENTRIES", 40)
        states = enumerate_up_to(SIG22, 6).states
        exprs = list(realization("dyson", SIG22).images.values())
        plan = ProbePlan(SIG22, engine.convention, states, exprs)
        assert len(plan._chunks) > 3
        text = repr if engine.mode == "numeric" else CoeffExact.canonical_str
        assert_same_images(fast_images(plan, engine), forced_replay(plan, engine), text)

    @pytest.mark.parametrize("q", [10.0, 1.0, 0.5])
    @pytest.mark.parametrize("convention", ["orthonormal", "monomial"])
    def test_signs_of_zero_match_one_batch(self, convention, q):
        # the replay sums a row's terms from its first, so a zero part is
        # -0.0 where every term's is; it skips terms with a zero scalar (at
        # q = 1, [2] - 2) and rows a zero factor kills (q**-160 * sqrt([0]))
        n1, one = affine_mode(SIG21, 1), CoeffExact.one()

        def term(scalar, *word):
            return (scalar if isinstance(scalar, CoeffExact) else CoeffExact.from_int(scalar), word)

        root = term(-1, Diag("sqrt_bracket", Affine(-2)))
        exprs = [OperatorExpr([root]),
                 OperatorExpr([root, term(bracket_int(2) - 2 * one, Diag("qpow", n1))]),
                 OperatorExpr([term(-1, Diag("affine", Affine(-1)), Raise(1), Lower(1)),
                               term(1, Lower(2), Raise(2), Diag("affine", Affine(-1)))]),
                 OperatorExpr([term(-1, Lower(1), Raise(1), Diag("affine", n1.shift(-1))),
                               term(-1, Diag("qpow", Affine(-160)), Diag("affine", Affine(2)),
                                    Diag("sqrt_bracket", -n1))])]
        states = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        engine = Engine(SIG21, convention=convention, q=q, p=2)
        assert_same_images(plan_images(engine, states, exprs),
                           replayed_images(engine, states, exprs), repr)

    def test_warm_plans_build_nothing_at_new_q_or_p(self, monkeypatch):
        sig = Signature(3, 2)

        def reports(q, p):
            return [cyclicity(sig, 3, q).summary(), check_unitarity(sig, 3, q).summary(),
                    check_invariance(sig, "hp", p, cap=8, q=q).summary(),
                    check_invariance(sig, "dyson", p, cap=8).summary(), highest_weight(sig, p),
                    deformed_ops_check(SIG22, p, q).summary()]

        builds = []
        init = ProbePlan.__init__
        monkeypatch.setattr(ProbePlan, "__init__",
                            lambda self, *args: builds.append(args) or init(self, *args))
        _image_plan.cache_clear()
        analyze._deformed_plans.cache_clear()
        reports(0.7, 3)
        # HP F0 (shared by cyclicity and unitarity), Dyson quotient F0, the
        # two invariance windows, the vacuum and the deformed-ops pair
        assert len(builds) == 7
        warm = [reports(q, p) for q, p in [(1.3, 3), (0.7, 4), (2.0, 5)]]
        assert len(builds) == 7
        cold = []
        for q, p in [(1.3, 3), (0.7, 4), (2.0, 5)]:
            _image_plan.cache_clear()
            analyze._deformed_plans.cache_clear()
            cold.append(reports(q, p))
        assert warm == cold

    def test_kept_plans_hold_a_module_analysis_pass(self):
        def analysis_pass():
            sig = Signature(3, 2)
            for p in (3, 4, 5):
                cyclicity(sig, p, 1.1)
                check_invariance(sig, "dyson", p)
                check_invariance(sig, "hp", p, q=1.1)
                check_unitarity(sig, p, 1.1)
                highest_weight(sig, p)
            quotient_relations_check(Signature(3, 1), 3)

        _image_plan.cache_clear()
        _quotient_plan.cache_clear()
        analysis_pass()
        info = _image_plan.cache_info()
        assert info.currsize == info.misses <= IMAGE_PLANS
        assert _quotient_plan.cache_info().currsize == _quotient_plan.cache_info().misses == 1
        analysis_pass()
        assert _image_plan.cache_info().misses == info.misses
        assert _quotient_plan.cache_info().misses == 1


class TestImagePlanReplay:
    """A chunk of generator images that may raise is replayed word by word
    (``ProbePlan._replayed``), so every error of module analysis is that
    path's, in its order and with its text."""

    STATES = [(2, 0), (0, 0)]

    @pytest.mark.parametrize("engine, kind, message", [
        (Engine(SIG21), "bracket_ratio", "bracket ratio evaluated at argument 0"),
        (Engine(SIG21, convention="orthonormal", q=1.3, p=2), "bracket_ratio",
         "bracket ratio evaluated at argument 0"),
        (Engine(SIG21, convention="orthonormal", q=1.3, p=2), "angle",
         "angle bracket evaluated at argument 0")], ids=["exact-ratio", "ratio", "angle"])
    def test_failing_key_on_a_live_row_raises_the_batch_error(self, engine, kind, message):
        # the factor is read first, at N_1 = 0 on (0, 0), which the lowering
        # kills only after it; the expression before it images fine
        factor = Diag(kind, affine_mode(SIG21, 1))
        exprs = [OperatorExpr.from_word(Raise(1)), OperatorExpr.from_word(Lower(1), factor)]
        for images in (plan_images, replayed_images):
            with pytest.raises(ZeroDivisionError, match=f"^{message}$"):
                images(engine, self.STATES, exprs)
        # read only after the lowering killed the row, it raises nowhere
        exprs = [OperatorExpr.from_word(Diag(kind, affine_mode(SIG21, 1).shift(1)), Lower(1))]
        text = repr if engine.mode == "numeric" else CoeffExact.canonical_str
        assert_same_images(plan_images(engine, self.STATES, exprs),
                           replayed_images(engine, self.STATES, exprs), text)

    def test_errors_keep_the_batch_order(self):
        # the first expression reads a ratio at 0 on a live row; the second
        # has a term scalar in p, which needs a numeric p, and comes later
        exprs = [OperatorExpr.from_word(Lower(1), Diag("bracket_ratio", affine_mode(SIG21, 1))),
                 OperatorExpr.from_word(Raise(1), scalar=bracket_affine(0, 1))]
        engine = Engine(SIG21, convention="orthonormal", q=1.3)
        for images in (plan_images, replayed_images):
            with pytest.raises(ZeroDivisionError, match="^bracket ratio evaluated at argument 0$"):
                images(engine, self.STATES, exprs)
        with pytest.raises(ValueError, match="needs a numeric value for p"):
            plan_images(engine, self.STATES, exprs[1:])

    def test_product_overflow_raises_the_batch_error(self):
        # each factor is finite at q = 1e20, their product is not
        expr = OperatorExpr.from_word(Diag("qpow", Affine(10)), Diag("qpow", Affine(11)))
        engine = Engine(SIG21, convention="orthonormal", q=1e20, p=2)
        errors = []
        for images in (plan_images, replayed_images):
            with pytest.raises(FloatingPointError) as error:
                images(engine, self.STATES, [expr])
            errors.append(str(error.value))
        assert errors == ["overflow encountered in multiply"] * 2

    def test_product_on_a_row_a_zero_factor_kills_raises_nowhere(self):
        # the replay never multiplies on a row sqrt([0]) kills; the fast
        # path forms the overflowing product and replays
        expr = OperatorExpr.from_word(Diag("qpow", Affine(200)), Diag("qpow", Affine(201)),
                                      Diag("sqrt_bracket", Affine(0)))
        engine = Engine(SIG21, convention="orthonormal", q=10.0, p=2)
        got = plan_images(engine, self.STATES, [expr])
        assert_same_images(got, replayed_images(engine, self.STATES, [expr]), repr)
        assert not len(got[0][0])

    def test_sum_past_the_largest_float_matches_the_batch(self):
        # two finite terms of 1e308 sum to inf, which the replay keeps
        expr = OperatorExpr.from_word(Diag("qpow", Affine(308)), scalar=1)
        engine = Engine(SIG21, convention="orthonormal", q=10.0, p=2)
        got = plan_images(engine, self.STATES, [expr + expr])
        assert_same_images(got, replayed_images(engine, self.STATES, [expr + expr]), repr)
        assert repr(got[0][2][0]) == "(inf+0j)"

    @pytest.mark.parametrize("argv, code, out", [
        ("analyze --check deformed-ops --p 2 --q 1e20", 0,
         "bosonic deformed-oscillator relations: max residual 2.8668732699875894e+104 (pass)\n"
         "fermionic exponent variant: q^{+N} holds (+N residual 0.0, -N residual 1e+20)\n"
         "two Holstein-Primakoff forms agree: max residual 0.0 (pass)\n"),
        ("analyze --check deformed-ops --p 5 --q 1e150", 2, ""),
        ("matrices --realization hp --p 5 --q 1e150", 2, ""),
        ("analyze --check cyclicity --p 5 --q 1e150", 2, "")],
        ids=["deformed-ops-1e20", "deformed-ops-1e150", "matrices-hp-1e150", "cyclicity-1e150"])
    def test_overflow_keeps_exit_code_and_stderr(self, argv, code, out, capsys):
        assert run(argv.split() + ["--n", "2", "--m", "1"]) == code
        err = "" if code == 0 else (
            "error: a numeric factor overflows at this q and p: Numerical result out of range\n")
        assert capsys.readouterr() == (out, err)
