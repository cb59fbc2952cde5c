"""Relation verification: substitute realized generators into every
defining relation and confirm the difference annihilates a probe basis.

Verification is exact for the Dyson realization (formal or integer p) and
numeric for the Holstein-Primakoff realizations.  Probes are all states
up to a degree cap plus a deterministic sample of higher-degree states.
A pass is evidence on those probes, not a proof for the whole space:
the diagonal coefficients are exponential-polynomial in the occupations,
so agreement on finitely many states does not extend by linearity.
Numeric verification applies each relation to every probe state at every
q sample at once (``weyl.ProbeBatch``).

Each substituted difference is audited for degree homogeneity: all of
its words must shift the total occupation by the same amount, which
catches substitution bugs before any state is probed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .fock import FockState, Signature, enumerate_up_to
from .presentation import HBracket, Relation, build_relations
from .realize import DYSON, Realization, realization
from .weyl import Diag, Engine, OperatorExpr, ProbeBatch

DEFAULT_TOLERANCE = 1e-10
DEFAULT_Q_SAMPLES = (0.5, 0.9, 1.3, 2.0)


def default_cap(p) -> int:
    """Degree cap covering the quartic Serre words and the occupation
    threshold neighborhood: p + 4 for small integer p, else 6."""
    if isinstance(p, int) and 0 <= p <= 6:
        return p + 4
    return 6


def substitute(rel: Relation, real: Realization) -> OperatorExpr:
    """lhs - rhs with every generator replaced by its image.  Bracket-of-h
    atoms become diagonal brackets of the substituted Cartan eigenvalues."""
    diff = _side_image(rel.lhs, real) - _side_image(rel.rhs, real)
    shifts = diff.degree_shifts()
    if len(shifts) > 1:
        raise AssertionError(f"substituted relation {rel.name} mixes degree shifts {shifts}")
    return diff


def _side_image(side, real: Realization) -> OperatorExpr:
    total = OperatorExpr.zero()
    for scalar, word in side:
        expr = OperatorExpr.identity()
        for letter in word:
            if isinstance(letter, HBracket):
                aff = None
                for i in letter.plus:
                    aff = real.h_affines[i] if aff is None else aff + real.h_affines[i]
                for j in letter.minus:
                    aff = (-real.h_affines[j]) if aff is None else aff - real.h_affines[j]
                factor = OperatorExpr.from_word(Diag("bracket", affine=aff))
            else:
                factor = real.image(letter)
            expr = expr * factor
        total = total + expr.scaled(scalar)
    return total


@dataclass
class RelationResult:
    name: str
    status: str  # 'exact-pass' | 'numeric-pass' | 'fail'
    residual: float = 0.0
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass
class VerificationReport:
    results: list[RelationResult]
    meta: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.results), default=0.0)

    @property
    def failures(self) -> list[RelationResult]:
        return [r for r in self.results if not r.passed]

    def format_table(self) -> str:
        meta = " ".join(f"{k}={v}" for k, v in self.meta.items())
        lines = [
            meta,
            "relation".ljust(18) + "status".ljust(14) + "residual".ljust(25) + "witness",
        ]
        for r in self.results:
            lines.append(
                r.name.ljust(18)
                + r.status.ljust(14)
                + (repr(r.residual) if r.status != "exact-pass" else "0").ljust(25)
                + (r.witness or "-")
            )
        return "\n".join(lines)

    def format_machine(self) -> str:
        """Line-oriented export: a comment header with the engine metadata,
        then one tab-separated record per relation."""
        meta = " ".join(f"{k}={v}" for k, v in self.meta.items())
        lines = [f"# qglnm verification report v1", f"# {meta}"]
        for r in self.results:
            res = repr(r.residual) if r.status != "exact-pass" else "0"
            lines.append("\t".join([r.name, r.status, res, r.witness or "-"]))
        return "\n".join(lines) + "\n"


def probe_states(sig: Signature, cap: int, extra: int = 4, seed: int = 0) -> list[FockState]:
    """All states of degree <= cap plus a deterministic random sample of
    states with degree in (cap, cap + 4]."""
    return list(enumerate_up_to(sig, cap)) + extra_probe_states(sig, cap, extra, seed)


def extra_probe_states(sig: Signature, cap: int, extra: int = 4, seed: int = 0) -> list[FockState]:
    """Deterministic random states of degree in (cap, cap + 4], used as a
    belt-and-suspenders sample beyond the systematic probe set."""
    rng = random.Random(seed)
    out: list[FockState] = []
    seen: set[FockState] = set()
    for _ in range(extra * 8):
        if len(out) >= extra:
            break
        d = rng.randint(cap + 1, cap + 4)
        occ = [0] * sig.num_modes
        budget = d
        while budget > 0:
            i = rng.randrange(sig.num_modes)
            if sig.is_fermionic(i + 1) and occ[i] >= 1:
                continue
            occ[i] += 1
            budget -= 1
        s = tuple(occ)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _exact_result(name: str, eng: Engine, diff: OperatorExpr, states: list) -> RelationResult:
    """Exact pass only if every probe coefficient is the exact zero; the
    first probe state with a nonzero image is the witness."""
    compiled = eng.compile(diff)
    for s in states:
        image = eng.apply_compiled(compiled, s)
        if image:
            state_str = ",".join(map(str, s))
            coeff = next(iter(image.values()))
            return RelationResult(name, "fail", 0.0,
                                  f"state=({state_str}) coeff={coeff.canonical_str()}")
    return RelationResult(name, "exact-pass")


def _numeric_result(name: str, batch: ProbeBatch, diff: OperatorExpr, above_cap: np.ndarray,
                    tolerance: float) -> RelationResult:
    """Numeric pass if the largest coefficient magnitude over every
    (q sample, probe state) stays within the tolerance; above the cap the
    magnitude is taken relative to the largest single-term image.  The
    witness is the first worst pair in q-sample, then state order."""
    peak, scale = batch.max_abs_images(batch.compile(diff))
    residual = np.where(above_cap, peak / np.maximum(1.0, scale), peak)
    k = int(np.argmax(residual))
    worst = float(residual.flat[k])
    if worst <= tolerance:
        return RelationResult(name, "numeric-pass", worst)
    qi, si = divmod(k, len(batch.states))
    state_str = ",".join(map(str, batch.states[si].tolist()))
    witness = f"state=({state_str}) residual={worst!r} q={batch.engines[qi].q}"
    return RelationResult(name, "fail", worst, witness)


def _engines(sig, kind, p, q, convention, classical):
    """One engine per q sample (a single exact engine when q is formal)."""
    qs = [None] if q is None else [float(q)] if isinstance(q, (int, float)) else [float(v) for v in q]
    conv = convention or ("orthonormal" if kind != DYSON else "monomial")
    return [Engine(sig, convention=conv, q=qv, p=p, classical=classical) for qv in qs]


def verify_all(
    sig: Signature,
    kind: str = DYSON,
    p=None,
    q=None,
    cap: int | None = None,
    convention: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    mutation: str | None = None,
    classical: bool = False,
    extra_probes: int = 4,
) -> VerificationReport:
    """Check every defining relation of the signature against a realization.

    q may be None (formal; exact Dyson verification), a number, or a list
    of sample values.  In exact mode a relation passes only if every probe
    coefficient is the exact zero; in numeric mode the largest coefficient
    magnitude over (state, q sample) must stay within the tolerance.
    """
    if kind != DYSON:
        if q is None:
            raise ValueError(f"{kind} realization requires numeric q")
        if p is None:
            raise ValueError(f"{kind} realization requires a numeric p")
    real = realization(kind, sig, mutation)
    if cap is None:
        cap = default_cap(p)
    if cap < 4:
        raise ValueError("probe cap must be at least 4 to cover the quartic relation words")
    engines = _engines(sig, kind, p, q, convention, classical)
    exact = engines[0].mode == "exact"
    states = probe_states(sig, cap, extra=extra_probes)
    if not exact:
        batch = ProbeBatch(engines, states)
        # On the extra high-degree probes coefficient magnitudes grow like
        # bracket products, so the meaningful measure there is the residual
        # relative to the size of the individual term images.
        above_cap = np.array([sum(s) > cap for s in states])
    results = []
    for rel in build_relations(sig):
        diff = substitute(rel, real)
        if exact:
            results.append(_exact_result(rel.name, engines[0], diff, states))
        else:
            results.append(_numeric_result(rel.name, batch, diff, above_cap, tolerance))
    meta = {
        "realization": kind,
        "n": sig.n,
        "m": sig.m,
        "p": "formal" if p is None else p,
        "q": "formal" if q is None else (q if isinstance(q, (int, float)) else ",".join(map(repr, q))),
        "convention": engines[0].convention,
        "mode": "classical" if classical else engines[0].mode,
        "cap": cap,
        "tolerance": "exact" if exact else tolerance,
    }
    if mutation:
        meta["mutation"] = mutation
    return VerificationReport(results, meta)
