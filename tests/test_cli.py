"""Tests for the command-line surface and the expression parser."""

from pathlib import Path

import pytest

from qglnm.cli import (
    BinOp,
    ExprSyntaxError,
    Gen,
    Num,
    ast_to_operator,
    format_matrix_export,
    parse_expr,
    parse_matrix_export,
    run,
)
from qglnm.analyze import materialize
from qglnm.fock import Signature
from qglnm.presentation import GenSymbol
from qglnm.realize import MUTATIONS, dyson
from qglnm.verify import verify_all
from qglnm.weyl import Engine

SIG21 = Signature(2, 1)
SIG22 = Signature(2, 2)
GOLDEN = Path(__file__).with_name("golden")


class TestParser:
    def test_commutator_word(self):
        ast = parse_expr("e1*f1 - f1*e1", SIG21)
        assert isinstance(ast, BinOp) and ast.op == "-"
        assert isinstance(ast.left, BinOp) and ast.left.op == "*"
        assert ast.left.left == Gen(GenSymbol("e", 1), 0)

    def test_quartic_word(self):
        ast = parse_expr("e2*e1*e2*e3", SIG22)
        # left-associative chain of products
        assert isinstance(ast, BinOp) and ast.op == "*"
        assert ast.right == Gen(GenSymbol("e", 3), 9)

    def test_whitespace_insensitive(self):
        def shape(node):
            if isinstance(node, BinOp):
                return (node.op, shape(node.left), shape(node.right))
            if isinstance(node, Gen):
                return node.symbol
            return node.value

        assert shape(parse_expr("e1 * f1", SIG21)) == shape(parse_expr("e1*f1", SIG21))

    def test_integers_and_parens(self):
        ast = parse_expr("2*(e1 + f1)", SIG21)
        assert ast.left == Num(2, 0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("g1", SIG21)
        assert err.value.offset == 0

    def test_unknown_index(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("e1*e7", SIG21)
        assert err.value.offset == 3

    def test_h_index_range_is_wider(self):
        parse_expr("h3", SIG21)
        with pytest.raises(ExprSyntaxError):
            parse_expr("e3", SIG21)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("e1 e2", SIG21)

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(e1", SIG21)

    def test_bare_letter(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("e", SIG21)

    def test_evaluates_like_direct_image(self):
        real = dyson(SIG21)
        eng = Engine(SIG21, convention="monomial", p=2)
        expr = ast_to_operator(parse_expr("e1*f1 - f1*e1", SIG21), real)
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

    # (relation, witness state, witness q) of every failing row, captured
    # before verification was batched over states and q samples
    NUMERIC_MUTATION_WITNESSES = {
        "drop_bracket_ratio": [("CK3[i=2,j=3]", "(0,4,0,0)", "0.7"), ("CK4[i=2]", "(0,4,0,0)", "0.7"),
                               ("S7e[i=2]", "(0,3,1,0)", "0.7"), ("S9e", "(0,2,1,1)", "0.7")],
        "flip_fermion_sign": [("CK5", "(0,3,1,0)", "0.7")],
        "shift_e1_bracket": [("CK4[i=1]", "(4,0,0,0)", "0.7")],
    }

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_numeric_mutation_witnesses_32(self, mutation, capsys):
        code = run(["verify", "--n", "3", "--m", "2", "--p", "3", "--q", "0.7,1.3", "--cap", "4",
                    "--mutation", mutation])
        assert code == 1
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        failing = [(r[0], r[3][len("state="):], r[5][len("q="):]) for r in rows if r[1:2] == ["fail"]]
        assert failing == self.NUMERIC_MUTATION_WITNESSES[mutation]

    def test_exact_quotient_export(self, capsys):
        code = run(["matrices", "--n", "2", "--m", "1", "--realization", "dyson", "--p", "2",
                    "--subspace", "quotient-F0", "--convention", "exact"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_QUOTIENT_EXPORT


class TestCommands:
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

    def test_deterministic_verify_output(self, capsys):
        argv = ["verify", "--n", "2", "--m", "1", "--realization", "hp",
                "--p", "1", "--q", "1.3", "--cap", "4"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_subspace_leak_is_analysis_failure(self, capsys):
        code = run(["matrices", "--n", "2", "--m", "1", "--realization", "dyson", "--p", "2",
                    "--subspace", "F0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: image of f1 leaves the F0 subspace at state (1, 1) (reached (2, 1)); "
            "use quotient-F0 for the Dyson realization\n")

    def test_eval_real_p_with_formal_q_is_usage_error(self, capsys):
        code = run(["eval", "--n", "2", "--m", "1", "--p", "2.5", "--expr", "f1",
                    "--state", "0,0"])
        assert code == 2
        assert capsys.readouterr().err == "error: a formal q takes only a formal or integer p\n"

    def test_bad_signature_is_usage_error(self, capsys):
        code = run(["relations", "--n", "1", "--m", "1"])
        assert code == 2
