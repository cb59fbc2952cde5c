"""Tests for the relation-verification engine."""

import pytest

from qglnm.fock import Signature, enumerate_up_to
from qglnm.presentation import GenSymbol, build_relations
from qglnm.realize import dyson, hp
from qglnm.verify import (
    default_cap,
    extra_probe_states,
    probe_states,
    substitute,
    verify_all,
)
from qglnm.weyl import Engine, EngineError, Lower, Raise

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
        assert diff.degree_shifts() == {-1}

    def test_bracket_right_side_becomes_diagonal(self):
        real = dyson(SIG21)
        rel = rel_by_name(SIG21, "CK5")
        diff = substitute(rel, real)
        assert diff.degree_shifts() == {0}
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
        from qglnm.weyl import OperatorExpr

        real.images[GenSymbol("f", 1)] = OperatorExpr.from_word(Lower(1), Lower(1), Raise(1))
        with pytest.raises(AssertionError):
            substitute(rel, real)


class TestProbeStates:
    def test_contains_full_enumeration(self):
        states = probe_states(SIG21, 3)
        assert set(enumerate_up_to(SIG21, 3)) <= set(states)

    def test_extra_states_above_cap(self):
        extras = extra_probe_states(SIG21, 3, extra=4, seed=0)
        assert extras
        assert all(3 < sum(s) <= 7 for s in extras)

    def test_deterministic(self):
        assert probe_states(SIG21, 4) == probe_states(SIG21, 4)

    def test_respects_fermionic_bound(self):
        for s in extra_probe_states(Signature(2, 2), 4, extra=6):
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
