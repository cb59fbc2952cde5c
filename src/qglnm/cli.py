"""Command-line surface: list relations, verify realizations, export
matrices, run analyses, and evaluate user-entered generator expressions.

Expression grammar (whitespace-insensitive, left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INTEGER | GENERATOR | '(' expr ')'
    GENERATOR := ('e'|'f'|'h') INTEGER
    INTEGER := ('0'..'9')+          (ASCII digits only)

Nesting too deep for the parser is a syntax error like any other.

Exit codes: 0 success / all checks pass, 1 verification or analysis
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import signal
import sys

from .analyze import (
    SubspaceLeakError,
    check_invariance,
    check_unitarity,
    cyclicity,
    deformed_ops_check,
    essentially_typical,
    highest_weight,
    inequivalence,
    materialize,
)
from .coeff import scalar_str
from .fock import Signature
from .presentation import H, GenSymbol, generators, render_relation, build_relations
from .realize import DYSON, HP, HP_DEFORMED, Realization, realization
from .verify import DEFAULT_Q_SAMPLES, proof_stages, verify_all
from .weyl import Engine, OperatorExpr

REALIZATIONS = (DYSON, HP, HP_DEFORMED)


# -- expression parser -------------------------------------------------


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _is_digit(ch: str) -> bool:
    """An ASCII digit: ``str.isdigit`` also accepts other scripts and superscripts."""
    return "0" <= ch <= "9"


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if _is_digit(ch):
            j = i
            while j < len(src) and _is_digit(src[j]):
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch in "efh":
            j = i + 1
            while j < len(src) and _is_digit(src[j]):
                j += 1
            if j == i + 1:
                raise ExprSyntaxError(f"generator letter {ch!r} needs an index", i)
            tokens.append(("gen", (ch, int(src[i + 1 : j])), i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent that combines the generator images as it parses."""

    def __init__(self, tokens, real: Realization, length: int):
        self.tokens = tokens
        self.pos = 0
        self.real = real
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.length)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> OperatorExpr:
        op = self.term()
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "+":
                op = op + self.term()
            else:
                op = op - self.term()
        return op

    def term(self) -> OperatorExpr:
        op = self.factor()
        while self.peek()[0] == "*":
            self.next()
            op = op * self.factor()
        return op

    def factor(self) -> OperatorExpr:
        kind, value, offset = self.next()
        if kind == "int":
            return OperatorExpr.identity().scaled(value)
        if kind == "gen":
            letter, index = value
            top = self.real.sig.r if letter == H else self.real.sig.r - 1
            if not 1 <= index <= top:
                raise ExprSyntaxError(
                    f"generator {letter}{index} out of range (1..{top})", offset
                )
            return self.real.image(GenSymbol(letter, index))
        if kind == "(":
            op = self.expr()
            k, _, off = self.next()
            if k != ")":
                raise ExprSyntaxError("expected ')'", off)
            return op
        raise ExprSyntaxError("expected integer, generator, or '('", offset)


def parse_expr(src: str, real: Realization) -> OperatorExpr:
    """The operator of a generator expression under a realization, with
    indices validated against its signature.  Errors carry the byte offset
    of the offending token; nesting too deep to parse is one of them."""
    parser = _Parser(_tokenize(src), real, len(src))
    try:
        op = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", parser.peek()[2]) from None
    kind, _, offset = parser.peek()
    if kind is not None:
        raise ExprSyntaxError("unexpected trailing input", offset)
    return op


# -- matrix export file ------------------------------------------------


def format_matrix_export(sig: Signature, kind: str, p, q, convention: str,
                         subspace: str, matrices: dict) -> str:
    """Structured text document: header, basis list, then per-generator
    sparse triplets with canonical coefficient strings."""
    some = next(iter(matrices.values()))
    lines = [
        "# qglnm matrix export v1",
        f"signature n={sig.n} m={sig.m}",
        f"realization {kind}",
        f"p {p if p is not None else 'formal'}",
        f"q {q if q is not None else 'formal'}",
        f"convention {convention}",
        f"subspace {subspace}",
        f"basis {len(some.basis)}",
    ]
    for s in some.basis.states:
        lines.append(",".join(map(str, s)))
    for g in generators(sig):
        gm = matrices[g]
        triplets = gm.triplets()
        lines.append(f"generator {g} entries {len(triplets)}")
        for (r, c), v in triplets:
            lines.append(f"{r} {c} {scalar_str(v)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_matrix_export(text: str) -> dict:
    """Inverse of ``format_matrix_export`` up to coefficient strings:
    returns header fields, the basis, and per-generator triplet lists
    with the coefficients kept as canonical strings."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    it = iter(lines)
    head = {}
    sig_line = next(it).split()
    head["n"] = int(sig_line[1].split("=")[1])
    head["m"] = int(sig_line[2].split("=")[1])
    head["realization"] = next(it).split()[1]
    head["p"] = next(it).split()[1]
    head["q"] = next(it).split()[1]
    head["convention"] = next(it).split()[1]
    head["subspace"] = next(it).split()[1]
    count = int(next(it).split()[1])
    basis = [tuple(int(x) for x in next(it).split(",")) for _ in range(count)]
    gens = {}
    for line in it:
        if line == "end":
            break
        _, name, _, num = line.split()
        triplets = []
        for _ in range(int(num)):
            row, col, val = next(it).split(maxsplit=2)
            triplets.append((int(row), int(col), val))
        gens[name] = triplets
    return {"header": head, "basis": basis, "generators": gens}


# -- command implementations --------------------------------------------


def _parse_p(text: str):
    if text == "formal":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_q(text: str | None):
    if text is None or text == "formal":
        return None
    if "," in text:
        return [float(x) for x in text.split(",")]
    return float(text)


def _convention(name: str | None) -> str:
    if name in (None, "exact", "monomial"):
        return "monomial"
    if name == "orthonormal":
        return "orthonormal"
    raise ValueError(f"unknown convention {name!r}")


def _default_convention(args, q) -> str:
    """--convention, else monomial for a formal q and orthonormal for a numeric one."""
    if args.convention:
        return _convention(args.convention)
    return "monomial" if q is None else "orthonormal"


class UsageError(ValueError):
    pass


def _signature(args) -> Signature:
    return Signature(args.n, args.m)


def _validate_realization(kind: str, p, q):
    if kind in (HP, HP_DEFORMED):
        if p is None:
            raise UsageError(f"--p formal is not valid for {kind}: square roots need numbers")
        if q is None:
            raise UsageError(f"--q formal is not valid for {kind}: square roots need numbers")


def _cmd_relations(args) -> int:
    sig = _signature(args)
    text = "\n".join(render_relation(rel) for rel in build_relations(sig)) + "\n"
    _write_out(args, text)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    sig = _signature(args)
    p = _parse_p(args.p)
    if args.q is None:
        # unspecified q: formal for Dyson, the default sample set otherwise
        q = None if args.realization == DYSON else list(DEFAULT_Q_SAMPLES)
    else:
        q = _parse_q(args.q)
    if args.prove:
        return _prove(args, sig)
    _validate_realization(args.realization, p, q)
    report = verify_all(sig, kind=args.realization, p=p, q=q, cap=args.cap,
                        convention=_convention(args.convention) if args.convention else None,
                        mutation=args.mutation, classical=args.classical,
                        **_given(args, "tolerance"))
    print(report.format_table())
    _write_out(args, report.format_machine())
    print(f"{'all relations pass' if report.all_pass else 'FAILURES: ' + str(len(report.failures))}")
    return 0 if report.all_pass else 1


def _prove(args, sig: Signature) -> int:
    """verify --prove: each relation's closing stage, one line each, with
    no probing; 0 when every relation has a stage, else 1."""
    if args.realization != DYSON:
        raise UsageError(f"--prove: stages exist for the {DYSON} realization only, "
                         f"not {args.realization}")
    stages = proof_stages(sig, args.mutation)
    text = "".join(f"{name.ljust(18)}{stage or 'unproved'}\n" for name, stage in stages)
    sys.stdout.write(text)
    _write_out(args, text)
    return 0 if all(stage for _, stage in stages) else 1


def _cmd_matrices(args) -> int:
    sig = _signature(args)
    p, q = _parse_p(args.p), _single_q(args)
    _validate_realization(args.realization, p, q)
    if not isinstance(p, int):
        raise UsageError("matrix export needs an integer --p")
    _, text = _export(args, sig, p, q, args.subspace)
    if not _write_out(args, text):
        sys.stdout.write(text)
    return 0


def _export(args, sig: Signature, p: int, q, subspace: str):
    """The generator matrices on the subspace and their export text."""
    conv = _default_convention(args, q)
    mats = materialize(sig, args.realization, p, q=q, subspace=subspace, cap=args.cap,
                       convention=conv)
    return mats, format_matrix_export(sig, args.realization, p, q, conv, subspace, mats)


def _cmd_analyze(args) -> int:
    sig = _signature(args)
    p = _require_int_p(args)
    if args.check == "reimport":
        return _cmd_reimport(args, sig, p)
    report, ok = _analysis(args, sig, p)
    print(report)
    _write_out(args, report + "\n")
    return 0 if ok else 1


def _analysis(args, sig: Signature, p: int) -> tuple[str, bool]:
    """The report of an analyze check and whether the check passed."""
    check = args.check
    if check == "invariance":
        rep = check_invariance(sig, args.realization, p, cap=args.cap,
                               q=_single_q(args) if args.realization != DYSON else None)
        expected = rep.f1_invariant and (rep.f0_invariant == (args.realization != DYSON))
        return rep.summary(), expected
    if check == "unitarity":
        rep = check_unitarity(sig, p, _require_q(args), **_given(args, "tolerance"))
        return rep.summary(), rep.hp_pass and rep.h_diagonal_real and rep.dyson_fails
    if check == "highest-weight":
        weight = highest_weight(sig, p)
        return f"vacuum weight: {weight}", weight == tuple([p] + [0] * (sig.r - 1))
    if check == "typicality":
        weight = tuple([p] + [0] * (sig.r - 1))
        rep = essentially_typical(sig, weight)
        return (f"weight {weight}: sets {list(rep.left_set)} and {list(rep.right_set)}, "
                f"intersection {list(rep.intersection)}; essentially typical: "
                f"{rep.essentially_typical}"), True
    if check == "inequivalence":
        if args.p2 is None:
            raise UsageError("--p2 required for the inequivalence check")
        rep = inequivalence(sig, p, args.p2)
        return rep.summary(), rep.inequivalent
    if check == "cyclicity":
        rep = cyclicity(sig, p, _require_q(args))
        return rep.summary(), rep.full_from_all
    if check == "deformed-ops":
        rep = deformed_ops_check(sig, p, _require_q(args), **_given(args, "cap", "tolerance"))
        ok = rep.bosonic_pass and rep.agreement_pass and rep.fermionic_exponent != "neither"
        return rep.summary(), ok
    raise UsageError(f"unknown check {check!r}")


def _cmd_reimport(args, sig: Signature, p: int) -> int:
    q = _single_q(args)
    _validate_realization(args.realization, p, q)
    mats, text = _export(args, sig, p, q, args.subspace or "F0")
    parsed = parse_matrix_export(text)
    rendered = {str(g): [(r, c, scalar_str(v)) for (r, c), v in mats[g].triplets()]
                for g in generators(sig)}
    ok = (parsed["generators"] == rendered
          and parsed["basis"] == list(next(iter(mats.values())).basis.states))
    print(f"round-trip of matrix export: {'identical' if ok else 'MISMATCH'}")
    _write_out(args, text)
    return 0 if ok else 1


def _cmd_eval(args) -> int:
    sig = _signature(args)
    p, q = _parse_p(args.p), _single_q(args)
    _validate_realization(args.realization, p, q)
    real = realization(args.realization, sig)
    expr = parse_expr(args.expr, real)
    state = _parse_state(args.state)
    if len(state) != sig.num_modes:
        raise UsageError(f"state needs {sig.num_modes} occupation numbers")
    for i, k in enumerate(state, 1):
        if k < 0:
            raise UsageError(f"occupation of mode {i} is negative: {k}")
        if k > 1 and sig.is_fermionic(i):
            raise UsageError(f"fermionic mode {i} holds at most one particle, not {k}")
    vec = Engine(sig, convention=_default_convention(args, q), q=q, p=p).apply(expr, state)
    if not vec:
        print("0")
        return 0
    for s in sorted(vec, key=lambda t: (sum(t), t)):
        print(f"state {','.join(map(str, s))}: {scalar_str(vec[s])}")
    return 0


# -- argument parsing ---------------------------------------------------


def _parse_state(text: str) -> tuple[int, ...]:
    """--state as occupation numbers: comma-separated ASCII integers.  A
    leading minus parses, so that ``_cmd_eval`` names the mode of a
    negative occupation."""
    state = []
    for i, field in enumerate(text.split(","), 1):
        digits = field[1:] if field.startswith("-") else field
        if not digits or not all(map(_is_digit, digits)):
            raise UsageError(f"--state field {i} is not an integer: {field!r}")
        state.append(int(field))
    return tuple(state)


def _require_int_p(args) -> int:
    p = _parse_p(args.p)
    if not isinstance(p, int):
        raise UsageError("this command needs an integer --p")
    return p


def _single_q(args) -> float | None:
    """--q as one number, or None when formal; a comma list is a usage error."""
    q = _parse_q(args.q)
    if isinstance(q, list):
        raise UsageError(f"{args.command} takes a single q value")
    return q


def _require_q(args) -> float:
    q = _single_q(args)
    if q is None:
        raise UsageError("this command needs a single numeric --q")
    return q


def _given(args, *names) -> dict:
    """The named options that were given, as keywords; an unset one is left
    out, so the called check keeps its own default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _write_out(args, text: str) -> bool:
    """Write text to the --out file when one is given; whether it was."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return bool(args.out)


def _tolerance_arg(text: str) -> float:
    """--tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="qglnm",
        description="Oscillator realizations of the quantum superalgebra "
        "U_q[gl(n/m)]: relation verification and module analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_, *reads):
        """Shared options, and of --cap, --tolerance and --out those in reads."""
        p_.add_argument("--n", type=int, required=True, help="number of even labels (n >= 2)")
        p_.add_argument("--m", type=int, required=True, help="number of odd labels (m >= 0)")
        p_.add_argument("--realization", choices=REALIZATIONS, default=DYSON)
        p_.add_argument("--p", default="formal",
                        help="occupation threshold: integer, real, or 'formal'")
        p_.add_argument("--q", default=None,
                        help="deformation parameter: real, comma list, or 'formal' "
                             "(unset: formal for dyson, default samples for verify hp)")
        if "cap" in reads:
            p_.add_argument("--cap", type=int, default=None, help="probe degree cap")
        p_.add_argument("--convention", choices=("exact", "monomial", "orthonormal"),
                        default=None, help="basis convention ('exact' = monomial)")
        if "tolerance" in reads:
            p_.add_argument("--tolerance", type=_tolerance_arg, default=None)
        if "out" in reads:
            p_.add_argument("--out", default=None, help="write the report/export here")

    p_rel = sub.add_parser("relations", help="print the defining relation list")
    p_rel.add_argument("--n", type=int, required=True)
    p_rel.add_argument("--m", type=int, required=True)
    p_rel.add_argument("--out", default=None)
    p_rel.set_defaults(func=_cmd_relations)

    p_ver = sub.add_parser("verify", help="verify all defining relations under a realization")
    common(p_ver, "cap", "tolerance", "out")
    p_ver.add_argument("--mutation", default=None,
                       help="seeded defect for verifier sensitivity testing")
    p_ver.add_argument("--classical", action="store_true",
                       help="exact q = 1 limit (brackets become their arguments)")
    p_ver.add_argument("--prove", action="store_true",
                       help="print the stage of normal order that proves each Dyson "
                            "relation (merge, affine, ring or unproved), probing nothing")
    p_ver.set_defaults(func=_cmd_verify)

    p_mat = sub.add_parser("matrices", help="export generator matrices on a finite subspace")
    common(p_mat, "cap", "out")
    p_mat.add_argument("--subspace", choices=("F0", "F1-slice", "quotient-F0"), default="F0")
    p_mat.set_defaults(func=_cmd_matrices)

    p_ana = sub.add_parser("analyze", help="run a representation-level check")
    common(p_ana, "cap", "tolerance", "out")
    p_ana.add_argument("--check", required=True,
                       choices=("invariance", "unitarity", "highest-weight", "typicality",
                                "inequivalence", "cyclicity", "deformed-ops", "reimport"))
    p_ana.add_argument("--p2", type=int, default=None, help="second threshold (inequivalence)")
    p_ana.add_argument("--subspace", choices=("F0", "F1-slice", "quotient-F0"), default=None)
    p_ana.set_defaults(func=_cmd_analyze)

    p_ev = sub.add_parser("eval", help="apply a generator expression to a state")
    common(p_ev)
    p_ev.add_argument("--expr", required=True)
    p_ev.add_argument("--state", required=True, help="occupation numbers l1,l2,...")
    p_ev.set_defaults(func=_cmd_eval)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SubspaceLeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ExprSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: a numeric factor overflows at this q and p: {exc.args[-1]}",
              file=sys.stderr)
        return 2


def main():
    # a closed pipe ends the process silently, as it ends cat
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
