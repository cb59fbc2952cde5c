"""Tests for the relation-verification engine."""

import math

import pytest

from qglnm import verify
from qglnm.fock import Signature, enumerate_up_to
from qglnm.presentation import GenSymbol, build_relations
from qglnm.realize import MUTATIONS, dyson, hp
from qglnm.verify import (
    RELATION_SETS,
    _relation_set,
    default_cap,
    extra_probe_states,
    probe_states,
    proof_stages,
    substitute,
    verify_all,
)
from qglnm.weyl import (Diag, Engine, EngineError, Lower, OperatorExpr, ProbePlan, ProbeRows,
                        Raise, ScalarDomain, affine_mode)

SIG21 = Signature(2, 1)


def rel_by_name(sig, name):
    for rel in build_relations(sig):
        if rel.name == name:
            return rel
    raise KeyError(name)


class TestSubstitute:
    def test_mixed_commutator_words(self):
        real = dyson(SIG21)
        rel = rel_by_name(SIG21, "CK3[i=1,j=2]")
        diff = substitute(rel, real)
        # two words: image(e1)image(f2) and -image(f2)image(e1)
        assert len(diff.terms) == 2
        assert diff.changes(SIG21) == {(-2, 1)}

    def test_bracket_right_side_becomes_diagonal(self):
        real = dyson(SIG21)
        rel = rel_by_name(SIG21, "CK5")
        diff = substitute(rel, real)
        assert diff.changes(SIG21) == {(0, 0)}
        # the substituted difference annihilates a probe state
        eng = Engine(SIG21, convention="monomial")
        assert eng.apply(diff, (2, 1)) == {}

    def test_empty_relation_sides(self):
        real = dyson(SIG21)
        rel = rel_by_name(SIG21, "CK1[i=3,j=1]")  # [h3, e1] = 0
        diff = substitute(rel, real)
        eng = Engine(SIG21, convention="monomial")
        for s in enumerate_up_to(SIG21, 3):
            assert eng.apply(diff, s) == {}

    def test_degree_audit_rejects_mixed_shifts(self):
        real = dyson(SIG21)
        rel = rel_by_name(SIG21, "CK4[i=1]")
        # sabotage: replace the image of f1 by a lowering word so the
        # two commutator words shift degree differently
        real.images[GenSymbol("f", 1)] = OperatorExpr.from_word(Lower(1), Lower(1), Raise(1))
        with pytest.raises(AssertionError):
            substitute(rel, real)

    def test_audit_rejects_mixed_mode_changes(self):
        # sabotage: f1 raises the fermionic mode instead of mode 1, so
        # [e1, f1] keeps the total occupation like its Cartan right side
        # but moves a quantum between modes
        real = dyson(SIG21)
        real.images[GenSymbol("f", 1)] = OperatorExpr.from_word(Raise(2))
        mixed = r"mixes occupation changes \[\(-1, 1\), \(0, 0\)\]"
        with pytest.raises(AssertionError, match=mixed):
            substitute(rel_by_name(SIG21, "CK4[i=1]"), real)


class TestProbeStates:
    def test_contains_full_enumeration(self):
        states = probe_states(SIG21, 3)
        assert set(enumerate_up_to(SIG21, 3)) <= set(states)

    def test_extra_states_above_cap(self):
        extras = extra_probe_states(SIG21, 3)
        assert len(extras) == 4
        assert all(3 < sum(s) <= 7 for s in extras)

    def test_deterministic(self):
        assert probe_states(SIG21, 4) == probe_states(SIG21, 4)

    def test_built_as_a_tuple(self):
        sig = Signature(4, 2)
        states = probe_states(sig, 7)
        assert isinstance(states, tuple)
        assert states == tuple(enumerate_up_to(sig, 7)) + tuple(extra_probe_states(sig, 7))

    def test_respects_fermionic_bound(self):
        for s in extra_probe_states(Signature(2, 2), 4):
            assert s[1] <= 1 and s[2] <= 1


class TestDefaultCap:
    def test_small_integer_p(self):
        assert default_cap(2) == 6

    def test_formal_p(self):
        assert default_cap(None) == 6

    def test_real_p(self):
        assert default_cap(2.5) == 6


class TestVerifyAll:
    def test_dyson_exact_formal_p(self):
        report = verify_all(SIG21, kind="dyson", p=None, cap=6)
        assert report.all_pass
        assert all(r.status == "exact-pass" for r in report.results)
        assert len(report.results) == 20

    def test_dyson_exact_integer_p(self):
        report = verify_all(SIG21, kind="dyson", p=3, cap=7)
        assert report.all_pass
        assert report.meta["p"] == 3

    def test_hp_numeric(self):
        report = verify_all(SIG21, kind="hp", p=2, q=[0.9, 1.3])
        assert report.all_pass
        assert all(r.status == "numeric-pass" for r in report.results)
        assert report.max_residual <= 1e-10

    def test_hp_deformed_numeric(self):
        report = verify_all(SIG21, kind="hp-deformed", p=1, q=1.3)
        assert report.all_pass

    def test_hp_requires_numbers(self):
        with pytest.raises(ValueError):
            verify_all(SIG21, kind="hp", p=None, q=1.3)
        with pytest.raises(ValueError):
            verify_all(SIG21, kind="hp", p=2, q=None)

    def test_exact_mode_never_reports_numeric_pass(self):
        report = verify_all(SIG21, kind="dyson", p=None, cap=5)
        assert {r.status for r in report.results} == {"exact-pass"}

    def test_classical_limit(self):
        report = verify_all(SIG21, kind="dyson", p=None, cap=5, classical=True)
        assert report.all_pass
        assert report.meta["mode"] == "classical"

    @pytest.mark.parametrize("q", [[], ()], ids=["list", "tuple"])
    def test_rejects_an_empty_q_sample_list(self, q):
        with pytest.raises(ValueError, match="^q is an empty list of samples; give at least one$"):
            verify_all(SIG21, "hp", 3, q=q)
        with pytest.raises(ValueError, match="empty list of samples"):
            verify_all(SIG21, "dyson", 3, q=q, mutation="shift_e1_bracket")

    def test_every_q_sample_is_checked_in_order(self):
        # the first bad sample raises, with the per-state engine's text
        for q, bad in [([0.5, -1.0, 0.0], "-1.0"), ([math.nan, 0.5], "nan")]:
            with pytest.raises(EngineError, match=rf"^q must be a finite positive number, not {bad}$"):
                verify_all(SIG21, "hp", 3, q=q)

    def test_classical_rejects_numeric_q(self):
        with pytest.raises(EngineError):
            verify_all(SIG21, kind="dyson", p=2, q=1.3, cap=4, classical=True)

    @pytest.mark.parametrize(
        "mutation,sig,expected",
        [
            ("drop_bracket_ratio", Signature(3, 1), "CK4[i=2]"),
            ("flip_fermion_sign", SIG21, "CK5"),
            ("shift_e1_bracket", SIG21, "CK4[i=1]"),
        ],
    )
    def test_mutations_fail_with_witness(self, mutation, sig, expected):
        report = verify_all(sig, kind="dyson", p=None, cap=4, mutation=mutation)
        assert not report.all_pass
        failing = [r.name for r in report.failures]
        assert expected in failing
        for r in report.failures:
            assert r.witness.startswith("state=")

    def test_non_integer_p_numeric_dyson(self):
        report = verify_all(SIG21, kind="dyson", p=0.75, q=1.3, cap=5)
        assert report.all_pass

    def test_dyson_orthonormal_numeric_spot_check(self):
        # operator identities are basis-convention independent
        report = verify_all(SIG21, kind="dyson", p=2, q=1.3, convention="orthonormal", cap=5)
        assert report.all_pass

    @pytest.mark.parametrize("p", range(9))
    def test_hp_passes_next_to_q1(self, p):
        # the bracket's difference form lost about 1e-7 here to cancellation
        report = verify_all(SIG21, kind="hp", p=p, q=[1 - 1e-9, 1 + 1e-9])
        assert report.all_pass, [(r.name, r.residual) for r in report.failures]

    def test_numeric_dyson_rejects_formal_p(self):
        with pytest.raises(EngineError, match="this evaluation needs a numeric value for p"):
            verify_all(Signature(3, 2), kind="dyson", p=None, q=[0.7, 1.3], cap=4)

    def test_cap_minimum_enforced(self):
        with pytest.raises(ValueError):
            verify_all(SIG21, kind="dyson", p=None, cap=3)


class TestReportFormats:
    def test_table_has_one_line_per_relation(self):
        report = verify_all(SIG21, kind="dyson", p=None, cap=4)
        lines = report.format_table().splitlines()
        # metadata line, column header, then one line per relation
        assert len(lines) == len(report.results) + 2
        assert "realization=dyson" in lines[0]

    def test_machine_format_round_trips_fields(self):
        report = verify_all(SIG21, kind="hp", p=1, q=1.3, cap=4)
        text = report.format_machine()
        rows = [ln.split("\t") for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == len(report.results)
        for name, status, residual, witness in rows:
            assert status in ("exact-pass", "numeric-pass", "fail")
            float(residual)
            assert witness == "-"

    def test_deterministic_output(self):
        a = verify_all(SIG21, kind="hp", p=1, q=[0.9, 1.3], cap=4).format_machine()
        b = verify_all(SIG21, kind="hp", p=1, q=[0.9, 1.3], cap=4).format_machine()
        assert a == b

    def test_failure_report_carries_witness(self):
        report = verify_all(SIG21, kind="dyson", p=None, cap=4, mutation="shift_e1_bracket")
        (bad,) = [r for r in report.failures if r.name == "CK4[i=1]"]
        assert "coeff=" in bad.witness
        assert bad.status == "fail"


SIG32 = Signature(3, 2)
SIG43 = Signature(4, 3)


def fresh_rows(**kwargs) -> str:
    """The report of a call made with no substituted relation set and no
    probe plan kept, as in a fresh process."""
    _relation_set.cache_clear()
    verify._probe_plan.cache_clear()
    return verify_all(**kwargs).format_machine()


class TestRelationSets:
    """Each (signature, realization, mutation) is substituted once per
    process; nothing else about a call may leak into the kept set."""

    CALLS = [
        dict(sig=SIG32, kind="dyson", p=None, cap=5),
        dict(sig=SIG32, kind="hp", p=2, q=[0.7, 1.3], cap=5),
        dict(sig=SIG32, kind="hp", p=2, q=[0.5, 0.9, 2.0], cap=5),
        *(dict(sig=SIG32, kind="dyson", p=p, cap=5) for p in (1, 2, 3)),
        *(dict(sig=SIG32, kind="hp", p=p, q=[0.9, 1.3], cap=5) for p in (1, 2, 3)),
    ]

    def test_repeated_calls_identical(self):
        fresh = [fresh_rows(**kwargs) for kwargs in self.CALLS]
        _relation_set.cache_clear()
        for _ in range(2):
            assert [verify_all(**kwargs).format_machine() for kwargs in self.CALLS] == fresh

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("mutated_first", [False, True])
    def test_mutation_and_plain_runs_in_either_order(self, mutation, mutated_first):
        plain = dict(sig=SIG32, kind="dyson", p=None, cap=4)
        mutated = dict(plain, mutation=mutation)
        first, second = (mutated, plain) if mutated_first else (plain, mutated)
        want = fresh_rows(**second)
        _relation_set.cache_clear()
        verify_all(**first)
        assert verify_all(**second).format_machine() == want

    def test_substituted_once_per_key(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "substitute",
                            lambda rel, real: calls.append(rel.name) or substitute(rel, real))
        _relation_set.cache_clear()
        verify_all(SIG21, kind="dyson", p=None, cap=4)
        assert len(calls) == len(build_relations(SIG21))
        verify_all(SIG21, kind="dyson", p=2, cap=4)
        verify_all(SIG21, kind="dyson", p=2, q=[0.7, 1.3], cap=4)
        assert len(calls) == len(build_relations(SIG21))
        verify_all(SIG21, kind="dyson", p=None, cap=4, mutation="shift_e1_bracket")
        assert len(calls) == 2 * len(build_relations(SIG21))

    def test_kept_sets_are_bounded(self):
        _relation_set.cache_clear()
        keys = [(Signature(n, m), kind, None) for n in (2, 3) for m in range(4)
                for kind in ("dyson", "hp", "hp-deformed")]
        assert len(keys) > RELATION_SETS
        for key in keys:
            _relation_set(*key)
        info = _relation_set.cache_info()
        assert info.currsize == info.maxsize == RELATION_SETS
        assert _relation_set(*keys[-1]) is _relation_set(*keys[-1])
        pairs = _relation_set(*keys[-1])
        assert isinstance(pairs, tuple) and all(isinstance(pair, tuple) for pair in pairs)

    def test_failed_build_is_not_kept(self):
        _relation_set.cache_clear()
        with pytest.raises(ValueError, match="unknown mutation"):
            verify_all(SIG21, kind="dyson", p=None, cap=4, mutation="bogus")
        assert _relation_set.cache_info().currsize == 0


def rows_or_error(**kwargs) -> str:
    """The report of a call, or the exception it raises."""
    try:
        return verify_all(**kwargs).format_machine()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestClosedRelations:
    """A relation that a stage of normal order closes is not probed on an
    exact call; probing every relation stays the oracle for that."""

    @pytest.fixture
    def probe_all(self, monkeypatch):
        """Run a call with every stage marked open, so every relation is probed."""
        kept = verify._relation_set

        def all_open(*key):
            return tuple((rel, diff, None) for rel, diff, _ in kept(*key))

        def run(**kwargs):
            with monkeypatch.context() as m:
                m.setattr(verify, "_relation_set", all_open)
                return rows_or_error(**kwargs)

        return run

    @pytest.mark.parametrize("n, m", [(2, 0), (3, 0), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                      (4, 2), (2, 3), (4, 3)])
    def test_reports_match_probing_every_relation(self, n, m, probe_all):
        for p in (None, 0, 1, 2, 5):
            for mutation in (None, *MUTATIONS):
                call = dict(sig=Signature(n, m), kind="dyson", p=p, cap=4, mutation=mutation)
                assert rows_or_error(**call) == probe_all(**call), call

    @pytest.mark.parametrize("n, m", [(2, 0), (2, 1), (3, 1), (2, 2), (3, 2), (4, 3)])
    def test_classical_reports_match_probing_every_relation(self, n, m, probe_all):
        # a closed relation is zero at q = 1 too
        for p in (None, 0, 2, 5):
            for mutation in (None, *MUTATIONS):
                call = dict(sig=Signature(n, m), kind="dyson", p=p, cap=4, mutation=mutation,
                            classical=True)
                assert rows_or_error(**call) == probe_all(**call), call

    # the relations each mutation breaks at some p, on (3,2) and (4,3)
    FAILING = {
        "drop_bracket_ratio": ({"CK3[i=2,j=3]", "CK4[i=2]", "S7e[i=2]", "S9e"},
                               {"CK3[i=2,j=3]", "CK4[i=2]", "S7e[i=2]", "S8e[i=2]"}),
        "flip_fermion_sign": ({"CK5"}, {"CK5"}),
        "shift_e1_bracket": ({"CK4[i=1]"}, {"CK4[i=1]"}),
    }

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_no_failing_relation_is_closed(self, mutation, probe_all):
        # the relations no stage closes are exactly those probing fails
        for sig, want in zip((SIG32, SIG43), self.FAILING[mutation]):
            unproved = {rel.name for rel, _, stage in _relation_set(sig, "dyson", mutation)
                        if stage is None}
            failing = set()
            for p in (None, 0, 1, 2, 5):
                rows = probe_all(sig=sig, kind="dyson", p=p, cap=4, mutation=mutation)
                failing |= {ln.split("\t")[0] for ln in rows.splitlines() if "\tfail\t" in ln}
            assert failing == want == unproved, sig

    def test_closed_counts(self):
        # Dyson relations that cancel in the merge or affine stage, out of all
        # relations
        for sig, want in ((SIG21, (16, 20)), (SIG32, (62, 74)), (SIG43, (142, 160))):
            stages = [stage for *_, stage in _relation_set(sig, "dyson", None)]
            assert (sum(s in ("merge", "affine") for s in stages), len(stages)) == want
        # what those stages leave open on (3,2): the CK4, CK5 and S7-S9 families
        assert [rel.name for rel, _, stage in _relation_set(SIG32, "dyson", None)
                if stage == "ring"] == [
            "CK4[i=1]", "CK4[i=2]", "CK4[i=4]", "CK5", "S7e[i=1]", "S7e[i=2]", "S8e[i=1]", "S9e",
            "S7f[i=1]", "S7f[i=2]", "S8f[i=1]", "S9f"]

    @pytest.mark.parametrize("n, m", [(2, 0), (3, 0), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                      (4, 2), (2, 3), (4, 3)])
    def test_ring_closes_every_remaining_relation(self, n, m):
        # without a mutation every Dyson relation has a stage, and the ring
        # closes every one the merge and affine stages leave
        stages = [stage for *_, stage in _relation_set(Signature(n, m), "dyson", None)]
        assert None not in stages and "ring" in stages

    def test_other_realizations_have_no_stage(self):
        for kind in ("hp", "hp-deformed"):
            assert {stage for *_, stage in _relation_set(SIG32, kind, None)} == {None}

    def test_no_proved_relation_has_a_live_singular_factor(self):
        # a proof covers the continuous extension of [x]/x to x = 0; the
        # engine raises where such a ratio is live, so no proved relation
        # may have one on a probe state (the plan raises only there)
        singular = OperatorExpr.from_word(Diag("bracket_ratio", affine_mode(SIG21, 1)))
        with pytest.raises(ZeroDivisionError):
            ProbePlan(SIG21, "monomial", [(0, 0)], [singular]).images(ScalarDomain())
        for n, m in [(2, 0), (3, 0), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3),
                     (4, 3)]:
            sig = Signature(n, m)
            words = set()
            for mutation in (None, *MUTATIONS):
                try:
                    relations = _relation_set(sig, "dyson", mutation)
                except ValueError:
                    continue  # the mutation does not apply to the signature
                words |= {w for _, diff, stage in relations if stage for _, w in diff.terms}
            ProbePlan(sig, "monomial", probe_states(sig, 4), [
                OperatorExpr.from_word(*w) for w in words]).images(ScalarDomain())

    def test_warm_exact_call_probes_nothing(self, monkeypatch):
        verify_all(SIG43, "dyson", None, cap=6)
        with monkeypatch.context() as m:
            m.setattr(verify, "probe_states", lambda *a: pytest.fail("probe states built"))
            m.setattr(verify, "_probe_plan", lambda *a: pytest.fail("probe plan built"))
            report = verify_all(SIG43, "dyson", None, cap=6)
        assert report.all_pass
        # a mutation's plan holds only the relations no stage closes
        plans = []
        kept = verify._probe_plan
        monkeypatch.setattr(verify, "_probe_plan", lambda *a: plans.append(kept(*a)) or plans[-1])
        report = verify_all(SIG32, "dyson", None, cap=4, mutation="drop_bracket_ratio")
        relations = _relation_set(SIG32, "dyson", "drop_bracket_ratio")
        (plan,) = plans
        assert plan.exprs == tuple(diff for _, diff, stage in relations if stage is None)
        assert len(plan.exprs) == 4 and [r.name for r in report.failures] == [
            rel.name for rel, _, stage in relations if stage is None]

    def test_warm_exact_mutation_call_reads_no_word(self, monkeypatch):
        # the plan read every word on the first call; a warm one builds no
        # probe rows and walks no word
        call = dict(sig=SIG32, kind="dyson", p=None, cap=4, mutation="flip_fermion_sign")
        cold = verify_all(**call).format_machine()
        monkeypatch.setattr(ProbeRows, "__init__", lambda *a: pytest.fail("probe rows built"))
        monkeypatch.setattr(ProbeRows, "_walk", lambda *a: pytest.fail("word walked"))
        assert verify_all(**call).format_machine() == cold

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_exact_and_numeric_calls_keep_separate_plans(self, mutation):
        # an exact call probes the open relations and a numeric Dyson call
        # in the same (monomial) convention every relation: in either order
        # in one process, each report is the one a fresh process gives
        exact = dict(sig=SIG32, kind="dyson", p=None, cap=4, mutation=mutation)
        numeric = dict(exact, p=3, q=[0.7, 1.3])
        fresh = []
        for call in (exact, numeric):
            verify._probe_plan.cache_clear()
            fresh.append(verify_all(**call).format_machine())
        for order in ((0, 1), (1, 0)):
            verify._probe_plan.cache_clear()
            for k in order:
                assert verify_all(**(exact, numeric)[k]).format_machine() == fresh[k], k
            assert verify._probe_plan.cache_info().currsize == 2
            for k in order:
                assert verify_all(**(exact, numeric)[k]).format_machine() == fresh[k], k

    def test_numeric_batch_probes_closed_relations(self):
        # a numeric call reports every relation's probed residual
        report = verify_all(SIG32, kind="dyson", p=3, q=[0.9, 1.3], cap=4)
        closed = {rel.name for rel, _, stage in _relation_set(SIG32, "dyson", None) if stage}
        assert len(closed) == len(report.results) and {r.status for r in report.results} == {
            "numeric-pass"}


class TestExactWitness:
    """An exact failure's witness is the first probe state where the
    per-state reference engine's image is not zero, with that engine's
    coefficient."""

    @pytest.mark.parametrize("sig", [SIG21, SIG32, SIG43], ids=str)
    @pytest.mark.parametrize("p, classical", [(None, False), (2, False), (None, True)])
    def test_witness_is_the_engines_first_nonzero_image(self, sig, p, classical):
        states = probe_states(sig, 4)
        eng = Engine(sig, p=p, classical=classical)
        failures = 0
        for mutation in MUTATIONS:
            if mutation == "drop_bracket_ratio" and sig.n < 3:
                continue  # the mutation needs a third even label
            report = verify_all(sig, "dyson", p, cap=4, mutation=mutation, classical=classical)
            results = {r.name: r for r in report.results}
            for rel, diff, stage in _relation_set(sig, "dyson", mutation):
                if stage:
                    continue  # proved, so never probed
                compiled = eng.compile(diff)
                first = next(((s, image) for s in states
                              if (image := eng.apply_compiled(compiled, s))), None)
                if first is None:
                    assert results[rel.name].status == "exact-pass", rel.name
                    continue
                (coeff,) = first[1].values()
                state_str = ",".join(map(str, first[0]))
                assert results[rel.name].witness == (
                    f"state=({state_str}) coeff={coeff.canonical_str()}"), rel.name
                failures += 1
        assert failures


class TestExtremeQ:
    """Numeric verdicts at q far from 1 and next to it: every residual is
    judged against the term scale of its state, so rounding in large terms
    fails no relation, and a seeded mutation fails on exactly the
    relations that no stage of normal order proves."""

    GRID_Q = (1e-5, 0.05, 0.1, 0.2, 1 - 1e-9, 1 + 1e-9, 5.0, 20.0, 40.0)
    MUTATION_Q = (1e-5, 0.05, 0.1, 0.5, 2.0, 5.0, 20.0, 40.0)
    SIGS = [Signature(2, 1), Signature(3, 2), Signature(4, 3)]

    @pytest.mark.parametrize("kind", ["dyson", "hp"])
    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_no_false_fail_on_the_grid(self, sig, kind):
        for p in range(9):
            report = verify_all(sig, kind, p, q=list(self.GRID_Q), cap=5)
            assert report.all_pass, (p, [(r.name, r.residual) for r in report.failures])

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("sig", SIGS[1:], ids=str)
    def test_mutations_fail_on_exactly_the_unproved_relations(self, sig, mutation):
        unproved = [name for name, stage in proof_stages(sig, mutation) if stage is None]
        assert unproved
        for q in self.MUTATION_Q + (1 - 1e-9, 1 + 1e-9):
            report = verify_all(sig, "dyson", 3, q=q, cap=4, mutation=mutation)
            if mutation == "drop_bracket_ratio" and abs(q - 1) < 1e-6:
                # [x]/x evaluates to exactly 1 there, so dropping it changes
                # nothing, as at the classical limit
                assert report.all_pass, q
                continue
            assert [r.name for r in report.failures] == unproved, q
            # an open relation fails by a wide margin
            assert min(r.residual for r in report.failures) >= 0.1, q
