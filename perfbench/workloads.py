"""Workload task lists and their known answers.

A task is one call into the library that ends in a verdict.  Its
``verdict`` function reduces the library's result to a small comparable
value, and ``expected`` is the known answer for that value.  A task whose
call raises, or whose verdict differs from the known answer, is an error.

The seed decides the generated inputs (q samples) and the task order; the
library receives only those inputs.  The same seed gives the same tasks.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from qglnm import analyze, cli, verify
from qglnm.fock import Signature
from qglnm.realize import MUTATIONS

HP_TOLERANCE = 1e-10

DYSON_EXACT = "dyson-exact"
HP_NUMERIC = "hp-numeric"
MODULE_ANALYSIS = "module-analysis"
WORKLOADS = (DYSON_EXACT, HP_NUMERIC, MODULE_ANALYSIS)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]
    verdict: Callable[[object], object]
    expected: object


@dataclass(frozen=True)
class Outcome:
    task: str
    verdict: object  # None when the call raised
    error: str  # "" when the verdict equals the known answer

    @property
    def ok(self) -> bool:
        return not self.error


def run_task(task: Task) -> Outcome:
    """Run one task and hold its verdict against the known answer."""
    try:
        got = task.verdict(task.run())
    except Exception as exc:  # a raising task is counted as an error, not fatal
        return Outcome(task.name, None, f"raised {type(exc).__name__}: {exc}")
    if got != task.expected:
        return Outcome(task.name, got, f"verdict {got!r}, expected {task.expected!r}")
    return Outcome(task.name, got, "")


def _relations_verdict(status: str):
    """Relations whose status is not ``status``, and whether the largest
    residual stays within the numeric tolerance."""

    def verdict(report):
        off = tuple(r.name for r in report.results if r.status != status)
        return off, report.max_residual <= HP_TOLERANCE

    return verdict


_RELATIONS_OK = ((), True)


def _cli_verify(argv: list[str]):
    """Run the CLI with its output captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _mutation_verdict(result):
    """Exit code and whether some failing relation row carries a witness state."""
    code, text = result
    rows = [line.split() for line in text.splitlines()]
    witnessed = any(len(r) > 3 and r[1] == "fail" and r[3].startswith("state=(") for r in rows)
    return code, witnessed


def _dyson_exact(rng: random.Random) -> list[Task]:
    exact = _relations_verdict("exact-pass")
    tasks = [
        Task("verify dyson (3,2) cap 8",
             lambda: verify.verify_all(Signature(3, 2), "dyson", None, cap=8), exact, _RELATIONS_OK),
        Task("verify dyson (4,3) cap 6",
             lambda: verify.verify_all(Signature(4, 3), "dyson", None, cap=6), exact, _RELATIONS_OK),
    ]
    for mutation in MUTATIONS:
        argv = ["verify", "--n", "3", "--m", "2", "--p", "formal", "--cap", "4",
                "--mutation", mutation]
        tasks.append(Task(f"cli verify mutation {mutation} (3,2) cap 4",
                          lambda argv=argv: _cli_verify(argv), _mutation_verdict, (1, True)))
    rng.shuffle(tasks)
    return tasks


def _hp_numeric(rng: random.Random) -> list[Task]:
    qs = sorted(rng.uniform(0.5, 2.0) for _ in range(4))
    numeric = _relations_verdict("numeric-pass")
    tasks = [
        Task(f"verify hp (4,2) p=3 q={qs}",
             lambda: verify.verify_all(Signature(4, 2), "hp", 3, q=qs), numeric, _RELATIONS_OK),
        Task(f"verify hp (4,3) p=2 q={qs}",
             lambda: verify.verify_all(Signature(4, 3), "hp", 2, q=qs), numeric, _RELATIONS_OK),
    ]
    rng.shuffle(tasks)
    return tasks


def _module_analysis(rng: random.Random) -> list[Task]:
    q = rng.uniform(0.9, 1.3)
    sig = Signature(3, 2)
    tasks = []
    for p in (3, 4, 5):
        tasks += [
            Task(f"cyclicity (3,2) p={p} q={q}",
                 lambda p=p: analyze.cyclicity(sig, p, q), lambda r: r.full_from_all, True),
            Task(f"invariance dyson (3,2) p={p}",
                 lambda p=p: analyze.check_invariance(sig, "dyson", p),
                 lambda r: (r.f1_invariant, r.f0_invariant, bool(r.f0_witness)),
                 (True, False, True)),
            Task(f"invariance hp (3,2) p={p} q={q}",
                 lambda p=p: analyze.check_invariance(sig, "hp", p, q=q),
                 lambda r: (r.f1_invariant, r.f0_invariant), (True, True)),
            Task(f"unitarity (3,2) p={p} q={q}",
                 lambda p=p: analyze.check_unitarity(sig, p, q),
                 lambda r: (r.hp_pass, r.h_diagonal_real, r.dyson_fails), (True, True, True)),
            Task(f"highest weight (3,2) p={p}",
                 lambda p=p: analyze.highest_weight(sig, p), lambda w: w,
                 (p,) + (0,) * (sig.r - 1)),
        ]
    tasks += [
        Task("quotient relations (3,1) p=3",
             lambda: analyze.quotient_relations_check(Signature(3, 1), 3), lambda r: r, []),
        Task(f"deformed ops (2,2) p=2 q={q}",
             lambda: analyze.deformed_ops_check(Signature(2, 2), 2, q),
             lambda r: (r.bosonic_pass, r.agreement_pass, r.fermionic_exponent),
             (True, True, "+")),
    ]
    rng.shuffle(tasks)
    return tasks


_BUILDERS = {
    DYSON_EXACT: _dyson_exact,
    HP_NUMERIC: _hp_numeric,
    MODULE_ANALYSIS: _module_analysis,
}


def build_tasks(workload: str, seed: int) -> list[Task]:
    """The task list of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
