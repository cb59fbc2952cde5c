"""Tests for the command-line surface and the expression parser."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import qglnm
from qglnm.cli import (
    ExprSyntaxError,
    build_parser,
    format_matrix_export,
    parse_expr,
    parse_matrix_export,
    run,
)
from qglnm.analyze import deformed_ops_check, materialize
from qglnm.fock import Signature
from qglnm.presentation import GenSymbol
from qglnm.realize import MUTATIONS, dyson, hp
from qglnm.verify import verify_all
from qglnm.weyl import Engine, OperatorExpr

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)
GOLDEN = Path(__file__).with_name("golden")


class TestParser:
    """The parser builds the operator as it reads: each test compares its
    terms with the same operator built from the direct images."""

    REAL21 = dyson(SIG21)

    @staticmethod
    def gens(real, *names):
        return [real.image(GenSymbol(name[0], int(name[1:]))) for name in names]

    def test_commutator_word(self):
        e1, f1 = self.gens(self.REAL21, "e1", "f1")
        assert parse_expr("e1*f1 - f1*e1", self.REAL21).terms == (e1 * f1 - f1 * e1).terms

    def test_quartic_word(self):
        real = hp(SIG22)
        e1, e2, e3 = self.gens(real, "e1", "e2", "e3")
        # a left-associative chain of products
        assert parse_expr("e2*e1*e2*e3", real).terms == (((e2 * e1) * e2) * e3).terms

    def test_product_binds_tighter_than_sum(self):
        e1, f1, h1 = self.gens(self.REAL21, "e1", "f1", "h1")
        assert parse_expr("e1 + f1*h1", self.REAL21).terms == (e1 + f1 * h1).terms
        assert parse_expr("e1*f1 + h1", self.REAL21).terms == (e1 * f1 + h1).terms

    def test_minus_is_left_associative(self):
        e1, f1, h1 = self.gens(self.REAL21, "e1", "f1", "h1")
        got = parse_expr("e1 - f1 - h1", self.REAL21).terms
        assert got == ((e1 - f1) - h1).terms
        assert got != (e1 - (f1 - h1)).terms

    def test_whitespace_insensitive(self):
        assert (parse_expr(" e1 *\tf1 ", self.REAL21).terms
                == parse_expr("e1*f1", self.REAL21).terms)

    def test_integers_and_parens(self):
        e1, f1 = self.gens(self.REAL21, "e1", "f1")
        want = OperatorExpr.identity().scaled(2) * (e1 + f1)
        assert parse_expr("2*(e1 + f1)", self.REAL21).terms == want.terms

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("g1", self.REAL21)
        assert err.value.offset == 0

    def test_unknown_index(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("e1*e7", self.REAL21)
        assert err.value.offset == 3

    def test_h_index_range_is_wider(self):
        parse_expr("h3", self.REAL21)
        with pytest.raises(ExprSyntaxError):
            parse_expr("e3", self.REAL21)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("e1 e2", self.REAL21)

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(e1", self.REAL21)

    def test_bare_letter(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("e", self.REAL21)

    # an Arabic-Indic one, a superscript two and an Arabic-Indic two
    @pytest.mark.parametrize("src,message", [
        ("e\u0661*f1", "generator letter 'e' needs an index"),
        ("e\u00b2", "generator letter 'e' needs an index"),
        ("\u0662*e1", "unexpected character '\u0662'"),
    ], ids=["arabic-indic-index", "superscript-index", "arabic-indic-integer"])
    def test_only_ascii_digits(self, src, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(src, self.REAL21)
        assert err.value.offset == 0
        assert str(err.value) == f"{message} (at offset 0)"

    def test_deep_nesting_is_syntax_error(self):
        depth = sys.getrecursionlimit()
        src = "(" * depth + "e1" + ")" * depth
        with pytest.raises(ExprSyntaxError, match="nests too deeply") as err:
            parse_expr(src, self.REAL21)
        # where parsing stopped: inside the run of opening parentheses
        assert 0 < err.value.offset < depth

    def test_evaluates_like_direct_image(self):
        real = self.REAL21
        eng = Engine(SIG21, convention="monomial", p=2)
        expr = parse_expr("e1*f1 - f1*e1", real)
        direct = (
            real.image(GenSymbol("e", 1)) * real.image(GenSymbol("f", 1))
            - real.image(GenSymbol("f", 1)) * real.image(GenSymbol("e", 1))
        )
        for s in [(0, 0), (1, 0), (1, 1)]:
            assert eng.apply(expr, s) == eng.apply(direct, s)


class TestMatrixExport:
    def test_round_trip(self):
        mats = materialize(SIG21, "hp", p=1, q=1.3, subspace="F0")
        text = format_matrix_export(SIG21, "hp", 1, 1.3, "orthonormal", "F0", mats)
        parsed = parse_matrix_export(text)
        assert parsed["header"]["realization"] == "hp"
        assert parsed["basis"] == [(0, 0), (0, 1), (1, 0)]
        assert set(parsed["generators"]) == {"h1", "h2", "h3", "e1", "e2", "f1", "f2"}
        # re-rendering the parsed triplets reproduces the file
        again = parse_matrix_export(text)
        assert again == parsed

    def test_exact_coefficients_survive(self):
        mats = materialize(SIG21, "dyson", p=1, subspace="quotient-F0", convention="monomial")
        text = format_matrix_export(SIG21, "dyson", 1, None, "monomial", "quotient-F0", mats)
        parsed = parse_matrix_export(text)
        (row, col, val) = parsed["generators"]["f1"][0]
        assert val == "1*q^0"


# Exact-format outputs pinned byte for byte: the canonical coefficient
# strings of the report witness and of the matrix export must not drift.
GOLDEN_MUTATION_REPORT = (
    "# qglnm verification report v1\n"
    "# realization=dyson n=2 m=1 p=formal q=formal convention=monomial mode=exact cap=4 "
    "tolerance=exact mutation=shift_e1_bracket\n"
    + "".join(f"CK{k}[i={i},j={j}]\texact-pass\t0\t-\n"
              for i in (1, 2, 3) for j in (1, 2) for k in (1, 2))
    + "CK3[i=1,j=2]\texact-pass\t0\t-\n"
    "CK4[i=1]\tfail\t0.0\tstate=(0,0) coeff=(-1*q^-1*P^-1 + 1*q^0*P^-1 + -1*q^0*P^1 "
    "+ 1*q^1*P^1)/(-1*q^-1 + 1*q^1)\n"
    "CK3[i=2,j=1]\texact-pass\t0\t-\n"
    "CK5\texact-pass\t0\t-\n"
    "S6e_sq[i=2]\texact-pass\t0\t-\n"
    "S7e[i=1]\texact-pass\t0\t-\n"
    "S6f_sq[i=2]\texact-pass\t0\t-\n"
    "S7f[i=1]\texact-pass\t0\t-\n"
)

GOLDEN_QUOTIENT_EXPORT = """\
# qglnm matrix export v1
signature n=2 m=1
realization dyson
p 2
q formal
convention monomial
subspace quotient-F0
basis 5
0,0
0,1
1,0
1,1
2,0
generator h1 entries 3
0 0 2*q^0
1 1 1*q^0
2 2 1*q^0
generator h2 entries 3
2 2 1*q^0
3 3 1*q^0
4 4 2*q^0
generator h3 entries 2
1 1 1*q^0
3 3 1*q^0
generator e1 entries 3
0 2 1*q^-1 + 1*q^1
1 3 1*q^0
2 4 1*q^-1 + 1*q^1
generator e2 entries 2
2 1 1*q^0
4 3 1*q^0
generator f1 entries 3
2 0 1*q^0
3 1 1*q^0
4 2 1*q^0
generator f2 entries 2
1 2 1*q^0
3 4 1*q^-1 + 1*q^1
end
"""


class TestGoldenBytes:
    def test_mutation_report(self):
        report = verify_all(SIG21, "dyson", None, cap=4, mutation="shift_e1_bracket")
        assert report.format_machine() == GOLDEN_MUTATION_REPORT

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_witnesses_32(self, mutation):
        report = verify_all(Signature(3, 2), "dyson", None, cap=4, mutation=mutation)
        golden = GOLDEN / f"verify-dyson-3-2-cap4-{mutation}.txt"
        assert report.format_machine() == golden.read_text()

    # (relation, witness state, witness q) of every failing row: the first
    # state of the worst residual relative to the term scale
    NUMERIC_MUTATION_WITNESSES = {
        "drop_bracket_ratio": [("CK3[i=2,j=3]", "(0,4,0,0)", "0.7"), ("CK4[i=2]", "(0,4,0,0)", "0.7"),
                               ("S7e[i=2]", "(0,3,1,0)", "0.7"), ("S9e", "(0,2,1,1)", "0.7")],
        "flip_fermion_sign": [("CK5", "(0,0,1,0)", "0.7")],
        "shift_e1_bracket": [("CK4[i=1]", "(0,1,1,1)", "0.7")],
    }

    # at the extreme samples every mutation fails on the same relations, and
    # no unmutated relation fails; two witnesses move to a lower state
    EXTREME_Q = ("0.1", "0.5", "2", "5")
    EXTREME_Q_STATES = {"S7e[i=2]": "(0,1,1,0)", "S9e": "(0,0,1,1)"}

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_numeric_mutation_witnesses_32(self, mutation, capsys):
        def failing_rows(q):
            code = run(["verify", "--n", "3", "--m", "2", "--p", "3", "--q", q, "--cap", "4",
                        "--mutation", mutation])
            assert code == 1
            rows = [line.split() for line in capsys.readouterr().out.splitlines()]
            return [(r[0], r[3][len("state="):], r[5][len("q="):]) for r in rows if r[1:2] == ["fail"]]

        assert failing_rows("0.7,1.3") == self.NUMERIC_MUTATION_WITNESSES[mutation]
        for q in self.EXTREME_Q:
            want = [(rel, self.EXTREME_Q_STATES.get(rel, state), str(float(q)))
                    for rel, state, _ in self.NUMERIC_MUTATION_WITNESSES[mutation]]
            assert failing_rows(q) == want, q

    def test_exact_quotient_export(self, capsys):
        code = run(["matrices", "--n", "2", "--m", "1", "--realization", "dyson", "--p", "2",
                    "--subspace", "quotient-F0", "--convention", "exact"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_QUOTIENT_EXPORT


class TestGoldenAnalysis:
    """Analysis reports, matrix exports and evaluations pinned byte for
    byte with their exit codes."""

    CASES = [
        (name.format(n=n, m=m, p=p), ["analyze", "--n", str(n), "--m", str(m), "--p", str(p)] + argv)
        for n, m, p in [(2, 1, 2), (3, 2, 3)]
        for name, argv in [
            ("analyze-invariance-dyson-{n}-{m}-p{p}", ["--check", "invariance", "--realization", "dyson"]),
            ("analyze-invariance-hp-{n}-{m}-p{p}-q1.3",
             ["--check", "invariance", "--realization", "hp", "--q", "1.3"]),
            ("analyze-cyclicity-{n}-{m}-p{p}-q1.3", ["--check", "cyclicity", "--q", "1.3"]),
            ("analyze-deformed-ops-{n}-{m}-p{p}-q1.3", ["--check", "deformed-ops", "--q", "1.3"]),
            ("analyze-unitarity-{n}-{m}-p{p}-q1.3", ["--check", "unitarity", "--q", "1.3"]),
        ]
    ] + [
        (name.format(n=n, m=m, p=p), ["matrices", "--n", str(n), "--m", str(m), "--p", str(p),
                                      "--q", "1.3"] + argv)
        for name, n, m, p, argv in [
            ("matrices-hp-{n}-{m}-p{p}-q1.3-F0", 2, 1, 2, ["--realization", "hp"]),
            ("matrices-hp-{n}-{m}-p{p}-q1.3-F0", 3, 2, 2, ["--realization", "hp"]),
            # above the threshold sqrt([p - N]) has negative radicands
            ("matrices-hp-{n}-{m}-p{p}-q1.3-F1-slice", 2, 1, 1,
             ["--realization", "hp", "--subspace", "F1-slice"]),
            ("matrices-dyson-{n}-{m}-p{p}-q1.3-quotient-F0", 2, 1, 2,
             ["--realization", "dyson", "--subspace", "quotient-F0"]),
            ("matrices-dyson-{n}-{m}-p{p}-q1.3-quotient-F0-monomial", 3, 2, 2,
             ["--realization", "dyson", "--subspace", "quotient-F0", "--convention", "monomial"]),
        ]
    ] + [
        ("eval-dyson-3-2-formal", ["eval", "--n", "3", "--m", "2", "--realization", "dyson",
                                   "--p", "formal", "--expr", "e1*e2*f2*f1 - f1*e1 + 2*h1*e2*f2",
                                   "--state", "2,1,1,0"]),
        ("eval-hp-3-2-p3-q1.3", ["eval", "--n", "3", "--m", "2", "--realization", "hp", "--p", "3",
                                 "--q", "1.3", "--expr", "f1*e2*f2 + e1*f1*f3 + f4*e1 - 2*h2*f1",
                                 "--state", "2,1,0,1"]),
    ]

    @pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
    def test_report(self, name, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()

    ANALYZE_CASES = [(name, argv) for name, argv in CASES if argv[0] == "analyze"]

    @pytest.mark.parametrize("name,argv", ANALYZE_CASES, ids=[name for name, _ in ANALYZE_CASES])
    def test_analyze_out_file(self, name, argv, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert run(argv + ["--out", str(out)]) == 0
        golden = (GOLDEN / f"{name}.txt").read_text()
        assert capsys.readouterr().out == golden
        assert out.read_text() == golden


class TestCommands:
    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "4", "--m", "3"],
        ["analyze", "--n", "3", "--m", "2", "--p", "3", "--q", "1.3", "--check", "deformed-ops"],
    ], ids=["verify", "analyze"])
    def test_closed_pipe_ends_silently(self, argv):
        # the reader is gone before the first write, as when `| head -1`
        # has exited: the process ends on SIGPIPE, as cat does, with no
        # traceback and not with the "check failed" code
        src = str(Path(qglnm.__file__).parents[1])
        proc = subprocess.Popen([sys.executable, "-c", "from qglnm.cli import main; main()", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert stderr == b""

    def test_module_runs_the_command_line(self, capsys):
        # `python -m qglnm` from a checkout, with only src on the path,
        # exits and prints as the command line does in process
        src = str(Path(qglnm.__file__).parents[1])
        argv = ["verify", "--n", "2", "--m", "1"]
        proc = subprocess.run([sys.executable, "-m", "qglnm", *argv], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert run(argv) == 0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out

    def test_relations_lists_all(self, capsys):
        assert run(["relations", "--n", "2", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 20
        assert "CK5" in out

    def test_verify_dyson_pass(self, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", "dyson",
                    "--p", "formal", "--cap", "6"])
        assert code == 0
        assert "all relations pass" in capsys.readouterr().out

    def test_verify_mutation_fails(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code = run(["verify", "--n", "2", "--m", "1", "--p", "formal", "--cap", "4",
                    "--mutation", "shift_e1_bracket", "--out", str(out)])
        assert code == 1
        text = out.read_text()
        assert "CK4[i=1]\tfail" in text

    def test_verify_prove_lists_every_stage(self, capsys, tmp_path):
        out = tmp_path / "stages.txt"
        assert run(["verify", "--n", "2", "--m", "1", "--prove", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        assert run(["relations", "--n", "2", "--m", "1"]) == 0
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        rows = [line.split() for line in text.splitlines()]
        assert [name for name, _ in rows] == names
        assert {stage for _, stage in rows} == {"merge", "affine", "ring"}
        assert text.splitlines()[names.index("CK5")] == "CK5".ljust(18) + "ring"

    def test_verify_prove_on_4_3_ignores_p_and_q(self, capsys):
        assert run(["verify", "--n", "4", "--m", "3", "--p", "formal", "--prove"]) == 0
        formal = capsys.readouterr().out
        assert len(formal.splitlines()) == 160 and "unproved" not in formal
        assert run(["verify", "--n", "4", "--m", "3", "--p", "2", "--q", "1.3", "--prove"]) == 0
        assert capsys.readouterr().out == formal

    def test_verify_prove_mutation_leaves_failures_unproved(self, capsys):
        code = run(["verify", "--n", "3", "--m", "2", "--prove", "--mutation",
                    "drop_bracket_ratio"])
        assert code == 1
        unproved = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                    if line.endswith("unproved")]
        assert unproved == ["CK3[i=2,j=3]", "CK4[i=2]", "S7e[i=2]", "S9e"]

    @pytest.mark.parametrize("kind", ["hp", "hp-deformed"])
    def test_verify_prove_is_dyson_only(self, kind, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", kind, "--p", "2",
                    "--prove"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dyson realization only" in captured.err

    def test_verify_prove_rejects_a_bad_p(self, capsys):
        assert run(["verify", "--n", "2", "--m", "1", "--p", "two", "--prove"]) == 2
        assert capsys.readouterr().out == ""

    def test_verify_hp(self, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "1", "--q", "0.9,1.3", "--cap", "4"])
        assert code == 0

    def test_hp_with_formal_p_is_usage_error(self, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "formal", "--q", "1.3"])
        assert code == 2
        assert "formal" in capsys.readouterr().err

    def test_hp_with_explicit_formal_q_is_usage_error(self, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "1", "--q", "formal"])
        assert code == 2

    def test_hp_unset_q_uses_default_samples(self, capsys):
        code = run(["verify", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "1", "--cap", "4"])
        assert code == 0
        assert "0.5,0.9,1.3,2.0" in capsys.readouterr().out

    def test_eval_matches_expected_coefficient(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "2", "--q", "1.3", "--expr", "f1", "--state", "0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("state 1,0: 1.438482")

    def test_eval_exact(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--realization", "dyson",
                    "--p", "formal", "--expr", "f1*f1", "--state", "0,0"])
        assert code == 0
        assert capsys.readouterr().out == "state 2,0: 1*q^0\n"

    def test_eval_zero_result(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--realization", "dyson",
                    "--p", "formal", "--expr", "e2", "--state", "0,0"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_eval_syntax_error_exit_code(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--expr", "g1", "--state", "0,0"])
        assert code == 2

    def test_matrices_export(self, tmp_path, capsys):
        out = tmp_path / "mats.txt"
        code = run(["matrices", "--n", "2", "--m", "1", "--realization", "hp",
                    "--p", "1", "--q", "1.3", "--out", str(out)])
        assert code == 0
        parsed = parse_matrix_export(out.read_text())
        assert parsed["header"]["subspace"] == "F0"

    def test_analyze_invariance(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "invariance",
                    "--realization", "dyson", "--p", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariant: True" in out and "invariant: False" in out

    def test_analyze_unitarity(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "unitarity",
                    "--p", "2", "--q", "1.3"])
        assert code == 0

    def test_analyze_highest_weight(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "highest-weight",
                    "--p", "2"])
        assert code == 0
        assert "(2, 0, 0)" in capsys.readouterr().out

    def test_analyze_typicality(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "typicality",
                    "--p", "2"])
        assert code == 0
        assert "essentially typical: False" in capsys.readouterr().out

    def test_analyze_inequivalence(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "inequivalence",
                    "--p", "1", "--p2", "2"])
        assert code == 0

    def test_analyze_cyclicity(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "cyclicity",
                    "--p", "1", "--q", "1.3"])
        assert code == 0

    def test_analyze_deformed_ops(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "deformed-ops",
                    "--p", "2", "--q", "1.3"])
        assert code == 0
        assert "q^{+N}" in capsys.readouterr().out

    def test_analyze_reimport(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "reimport",
                    "--realization", "hp", "--p", "1", "--q", "1.3"])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--check", "highest-weight", "--p", "2"],
        ["--check", "typicality", "--p", "2"],
        ["--check", "inequivalence", "--p", "1", "--p2", "2"],
    ], ids=["highest-weight", "typicality", "inequivalence"])
    def test_analyze_out_is_the_printed_report(self, argv, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert run(["analyze", "--n", "2", "--m", "1", "--out", str(out)] + argv) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_analyze_reimport_out_is_the_export(self, capsys, tmp_path):
        out = tmp_path / "export.txt"
        argv = ["--n", "2", "--m", "1", "--realization", "hp", "--p", "1", "--q", "1.3"]
        assert run(["analyze", "--check", "reimport", "--out", str(out)] + argv) == 0
        assert capsys.readouterr().out == "round-trip of matrix export: identical\n"
        assert run(["matrices"] + argv) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_deterministic_verify_output(self, capsys):
        argv = ["verify", "--n", "2", "--m", "1", "--realization", "hp",
                "--p", "1", "--q", "1.3", "--cap", "4"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_shared_parser_answers_as_a_fresh_one(self, capsys):
        # the parser is built once per process: a usage error, a help page
        # and a verify run in one process each give what they give alone
        argvs = [["verify", "--n", "2"], ["verify", "--help"],
                 ["verify", "--n", "2", "--m", "1", "--cap", "4", "--mutation",
                  "shift_e1_bracket"]]

        def call(argv):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        alone = []
        for argv in argvs:
            build_parser.cache_clear()
            alone.append(call(argv))
        assert [code for code, *_ in alone] == [2, 0, 1]
        assert build_parser() is build_parser()
        for order in ([0, 1, 2], [2, 1, 0], [0, 1, 2]):
            assert [call(argvs[k]) for k in order] == [alone[k] for k in order]

    def test_subspace_leak_is_analysis_failure(self, capsys):
        code = run(["matrices", "--n", "2", "--m", "1", "--realization", "dyson", "--p", "2",
                    "--subspace", "F0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: image of f1 leaves the F0 subspace at state (1, 1) (reached (2, 1)); "
            "use quotient-F0 for the Dyson realization\n")

    def test_f1_slice_default_cap_is_p_plus_4(self, capsys):
        argv = ["matrices", "--n", "2", "--m", "1", "--realization", "hp", "--p", "1",
                "--q", "1.3", "--subspace", "F1-slice"]
        assert run(argv + ["--cap", "5"]) == 0
        explicit = capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr() == explicit

    def test_eval_real_p_with_formal_q_is_usage_error(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--p", "2.5", "--expr", "f1",
                    "--state", "0,0"])
        assert code == 2
        assert capsys.readouterr().err == "error: a formal q takes only a formal or integer p\n"

    def test_eval_negative_occupation_is_usage_error(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--realization", "hp", "--p", "2",
                    "--q", "1.3", "--expr", "f1", "--state=-1,0"])
        assert code == 2
        assert capsys.readouterr().err == "error: occupation of mode 1 is negative: -1\n"

    @pytest.mark.parametrize("state, field", [
        ("١,0", "1 is not an integer: '١'"),  # an Arabic-Indic one
        ("a,b", "1 is not an integer: 'a'"),
        ("1,,0", "2 is not an integer: ''"),
        ("0,-", "2 is not an integer: '-'"),
        ("0,+1", "2 is not an integer: '+1'"),
    ])
    def test_eval_state_field_must_be_ascii_integer(self, state, field, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--expr", "e1", "--state", state])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --state field {field}\n")

    def test_eval_fermionic_occupation_above_one_is_usage_error(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--realization", "hp", "--p", "2",
                    "--q", "1.3", "--expr", "f1", "--state", "0,5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: fermionic mode 2 holds at most one particle, not 5\n")

    @pytest.mark.parametrize("argv", [
        ["matrices"],
        ["analyze", "--check", "reimport"],
        ["analyze", "--check", "invariance"],
        ["analyze", "--check", "cyclicity"],
        ["analyze", "--check", "unitarity"],
        ["analyze", "--check", "deformed-ops"],
    ], ids=["matrices", "reimport", "invariance", "cyclicity", "unitarity", "deformed-ops"])
    def test_q_list_is_usage_error(self, argv, capsys):
        code = run(argv + ["--n", "2", "--m", "1", "--realization", "hp", "--p", "1",
                           "--q", "0.5,1.3"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {argv[0]} takes a single q value\n"

    def test_formal_q_where_a_number_is_needed(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--p", "1", "--check", "cyclicity"])
        assert code == 2
        assert capsys.readouterr().err == "error: this command needs a single numeric --q\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--expr", "e1", "--state", "0,0", "--cap", "4"],
        ["eval", "--expr", "e1", "--state", "0,0", "--tolerance", "1e-9"],
        ["eval", "--expr", "e1", "--state", "0,0", "--out", "x.txt"],
        ["matrices", "--tolerance", "1e-9"],
    ], ids=["eval-cap", "eval-tolerance", "eval-out", "matrices-tolerance"])
    def test_unread_option_is_usage_error(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--n", "2", "--m", "1", "--p", "2", "--q", "1.3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_deformed_ops_honours_cap_0(self, capsys):
        code = run(["analyze", "--n", "2", "--m", "1", "--check", "deformed-ops", "--p", "2",
                    "--q", "1.3", "--cap", "0"])
        # the vacuum alone tells neither fermionic exponent variant apart
        assert code == 1
        out, err = capsys.readouterr()
        assert out == deformed_ops_check(SIG21, 2, 1.3, cap=0).summary() + "\n"
        assert "NEITHER holds" in out and err == ""

    def test_deformed_ops_honours_tolerance(self, capsys):
        argv = ["analyze", "--n", "2", "--m", "1", "--check", "deformed-ops", "--p", "2",
                "--q", "1.3"]
        assert run(argv) == 0
        assert capsys.readouterr().out == deformed_ops_check(SIG21, 2, 1.3).summary() + "\n"
        # the residuals of about 5e-15 pass the default 1e-12 but not 1e-16
        assert run(argv + ["--tolerance", "1e-16"]) == 1
        out = capsys.readouterr().out
        assert out == deformed_ops_check(SIG21, 2, 1.3, tolerance=1e-16).summary() + "\n"
        assert "(FAIL)" in out

    @pytest.mark.parametrize("argv,message", [
        (["analyze", "--check", "unitarity", "--p", "2", "--q", "nan"],
         "q must be a finite positive number, not nan"),
        (["analyze", "--check", "deformed-ops", "--p", "2", "--q", "inf"],
         "q must be a finite positive number, not inf"),
        (["analyze", "--check", "cyclicity", "--p", "2", "--q", "nan"],
         "q must be a finite positive number, not nan"),
        (["verify", "--realization", "hp", "--p", "2", "--q", "nan"],
         "q must be a finite positive number, not nan"),
        (["verify", "--realization", "hp", "--p", "inf"], "p must be a finite number, not inf"),
        (["eval", "--realization", "hp", "--p", "2", "--q", "nan", "--expr", "e1",
          "--state", "1,0"], "q must be a finite positive number, not nan"),
        (["verify", "--realization", "hp", "--p", "2", "--q", "1e-300"],
         "a numeric factor overflows at this q and p: Numerical result out of range"),
        (["verify", "--realization", "hp", "--p", "2", "--q", "1e300"],
         "a numeric factor overflows at this q and p: Numerical result out of range"),
        # every factor is finite here, but their product overflows in numpy
        (["verify", "--realization", "hp", "--p", "3", "--q", "1e20"],
         "a numeric factor overflows at this q and p: overflow encountered in multiply"),
    ], ids=["unitarity-nan", "deformed-ops-inf", "cyclicity-nan", "verify-q-nan",
            "verify-p-inf", "eval-nan", "verify-tiny-q", "verify-huge-q", "verify-product-overflow"])
    def test_non_finite_or_overflowing_input_is_usage_error(self, argv, message, capsys):
        assert run(argv + ["--n", "2", "--m", "1"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "abc"])
    def test_tolerance_must_be_finite_nonnegative(self, tolerance, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--n", "2", "--m", "1", "--realization", "hp", "--p", "2",
                 "--q", "1.3", "--tolerance", tolerance])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --tolerance: must be a finite number >= 0, not {tolerance!r}\n")

    def test_bad_signature_is_usage_error(self, capsys):
        code = run(["relations", "--n", "1", "--m", "1"])
        assert code == 2
