"""Relation verification: substitute realized generators into every
defining relation and confirm the difference is the zero operator.

Verification is exact for the Dyson realization (formal or integer p) and
numeric for the Holstein-Primakoff realizations.  A substituted Dyson
relation first goes through the stages of normal order
(``weyl.closing_stage``).  The merge stage writes every word as a shift
times factors taken at the start state and merges terms with equal shift
and factors.  The affine stage expands the integer ``affine`` factors (the
ladder numbers and arguments such as p - N) as polynomials in p and the
occupations, keeps brackets and the other factors opaque, and merges
again.  The ring stage evaluates what is left with P = q**p and Q_i =
q**N_i as symbols (``ring``).  A relation that a stage closes holds on
every state, for formal p and q, so exact verification passes it without
probing.  On (3,2) the merge and affine stages close 62 of the 74
relations and on (4,3) 142 of 160; the ring closes the rest, the CK4, CK5
and S7-S9 families, so an unmutated realization probes nothing.  A seeded
mutation leaves open exactly the relations it breaks, and those are
checked on probe states: all states up to a degree cap plus a
deterministic sample of higher-degree states.  There a pass is evidence
on those probes, not a proof for the whole space: the diagonal
coefficients are exponential-polynomial in the occupations, so agreement
on finitely many states does not extend by linearity.  Numeric
verification probes every relation, closed or not, and reports its
residual relative to the term scale (``ProbePlan.worst``).
Both regimes apply each probed relation to every probe state at once,
through a probe plan (``weyl.ProbePlan``) read in the scalar domain of
the q samples (``weyl.ScalarDomain``).  Exact verification reads its
images: the first probe state with a nonzero image is the witness of an
exact failure, whose coefficient the per-state engine forms again.
Numeric verification reads its worst residuals, equal to those of the
plan's word-by-word replay (``ProbePlan._replayed``) to the last bit.  A
chunk of the plan that may raise is replayed, so every error is the
per-word path's error too.

The substituted relations, and the stage that closes each, depend only
on the signature, the realization and the mutation, so they
are built once per process for each such key and kept (a bounded memo of
``RELATION_SETS`` keys) for later calls.  A probe plan depends on the
relations it probes, the probe states (which depend only on the
signature and the cap) and the convention, not on p or q: it is built,
with its probe states, once per process per (signature, realization,
mutation, cap, convention, probed relations) and kept, a bounded memo of
``PROBE_PLANS`` keys (0.5 MB on (4,2) at cap 7, 6 MB on (7,5) at cap 6).
An exact plan holds only the relations that no stage closes, a numeric
one every relation.
A call specializes each distinct term scalar, and builds each diagonal
value, once, and the plan keeps them per scalar domain (exact p and
classical, or numeric q and p, per q sample; ``weyl.ProbePlan``).
Numeric probing raises on a float overflow instead of reporting an inf
or nan residual.

Each substituted difference is audited for weight homogeneity: all of
its words must change every mode's occupation by the same amount (the
one net occupation change a probe plan takes), which catches
substitution bugs before any state is probed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .fock import FockState, Signature, enumerate_up_to
from .presentation import HBracket, Relation, build_relations
from .realize import DYSON, Realization, realization
from .weyl import (Diag, Engine, OperatorExpr, ProbePlan, ScalarDomain, closing_stage,
                   float_errors_raise)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_Q_SAMPLES = (0.5, 0.9, 1.3, 2.0)
EXTRA_PROBES = 4
# substituted relation sets kept per process, one per (signature,
# realization, mutation)
RELATION_SETS = 16
# probe plans kept per process, one per (signature, realization, mutation,
# cap, convention, probed relations)
PROBE_PLANS = 8


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
    changes = diff.changes(real.sig)
    if len(changes) > 1:
        raise AssertionError(
            f"substituted relation {rel.name} mixes occupation changes {sorted(changes)}")
    return diff


def _side_image(side, real: Realization) -> OperatorExpr:
    total = OperatorExpr.zero()
    for scalar, word in side:
        expr = OperatorExpr.identity()
        for letter in word:
            if isinstance(letter, HBracket):
                factor = OperatorExpr.from_word(Diag("bracket", affine=real.h_bracket(letter)))
            else:
                factor = real.image(letter)
            expr = expr * factor
        total = total + expr.scaled(scalar)
    return total


@functools.lru_cache(maxsize=RELATION_SETS)
def _relation_set(sig: Signature, kind: str, mutation: str | None) -> tuple:
    """Every defining relation of the signature with its substituted
    difference under the realization and the stage of normal order that
    closes that difference, as a tuple of (Relation, OperatorExpr, stage).
    The stage is ``weyl.closing_stage``'s: "merge", "affine" or "ring"
    when the difference is proved the zero operator for formal p and q,
    hence at every integer p and at q = 1, or None when it stays open.

    Why a stage is a proof: the merge and affine stages cancel terms
    whatever values the opaque brackets take.  The ring stage evaluates
    them with Q_i = q**N_i and the N_i as independent symbols, so a zero
    sum is an identity and a nonzero one only leaves the relation open, to
    be probed.  A bracket ratio [x]/x extends continuously to x = 0 for
    q > 0, and on a start state where a term's word dies one of its
    ladder factors is 0 (the dead-term rule), so the identity holds on the
    hyperplanes x = 0 too (``ring`` has the whole argument).

    Only exact verification reads the stage, and only the Dyson
    realization is verified exactly, so no stage is computed for the
    others: theirs is None.  None of this depends on anything else (not
    on p, q, the convention or the probes), so it is built, and audited by
    ``substitute``, once per process per key; callers only read it."""
    real = realization(kind, sig, mutation)
    diffs = [(rel, substitute(rel, real)) for rel in build_relations(sig)]
    return tuple((rel, diff, closing_stage(sig, diff) if kind == DYSON else None)
                 for rel, diff in diffs)


def proof_stages(sig: Signature, mutation: str | None = None) -> list[tuple[str, str | None]]:
    """Each defining relation's name with the stage of normal order that
    proves the Dyson realization (with the mutation) satisfies it, or None
    when no stage does, in relation order; nothing is probed."""
    return [(rel.name, stage) for rel, _, stage in _relation_set(sig, DYSON, mutation)]


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


def probe_states(sig: Signature, cap: int) -> tuple[FockState, ...]:
    """All states of degree <= cap plus a deterministic random sample of
    ``EXTRA_PROBES`` states with degree in (cap, cap + 4]; built when
    ``_probe_plan`` builds a plan, which keeps them (``ProbePlan.states``)."""
    return tuple(enumerate_up_to(sig, cap)) + tuple(extra_probe_states(sig, cap))


@functools.lru_cache(maxsize=PROBE_PLANS)
def _probe_plan(sig: Signature, kind: str, mutation: str | None, cap: int,
                convention: str, probed: tuple) -> ProbePlan:
    """The probe plan of the relations of a relation set numbered
    ``probed`` on the probe states of a cap (``weyl.ProbePlan``): every
    relation numerically, and exactly those that no stage closes, so an
    exact call and a numeric one get separate plans.  It depends on
    neither q nor p, so it is built once per process per key and kept, a
    bounded memo of ``PROBE_PLANS`` keys."""
    relations = _relation_set(sig, kind, mutation)
    diffs = [relations[k][1] for k in probed]
    return ProbePlan(sig, convention, probe_states(sig, cap), diffs)


def extra_probe_states(sig: Signature, cap: int) -> list[FockState]:
    """``EXTRA_PROBES`` deterministic random states of degree in
    (cap, cap + 4], used as a belt-and-suspenders sample beyond the
    systematic probe set."""
    rng = random.Random(0)
    out: list[FockState] = []
    seen: set[FockState] = set()
    for _ in range(EXTRA_PROBES * 8):
        if len(out) >= EXTRA_PROBES:
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


def _exact_result(name: str, diff: OperatorExpr, engine: Engine, states,
                  rows) -> RelationResult:
    """Exact pass only if every probe coefficient is the exact zero, that
    is when ``rows``, the ascending probe rows with a nonzero image, is
    empty; the first of them is the witness, whose coefficient the
    per-state engine forms again for the report."""
    if not len(rows):
        return RelationResult(name, "exact-pass")
    state = states[rows[0]]
    coeff = next(iter(engine.apply(diff, state).values()))
    state_str = ",".join(map(str, state))
    return RelationResult(name, "fail", 0.0, f"state=({state_str}) coeff={coeff.canonical_str()}")


def _numeric_result(name: str, states, qs: list, worst: float, k: int,
                    tolerance: float) -> RelationResult:
    """Numeric pass if the worst residual over every (q sample, probe
    state), relative to the term scale (``ProbePlan.worst``), is within the
    tolerance; the witness is its first (q sample, probe state) pair in
    q-sample, then state order, numbered k."""
    if worst <= tolerance:
        return RelationResult(name, "numeric-pass", worst)
    qi, si = divmod(k, len(states))
    state_str = ",".join(map(str, states[si]))
    witness = f"state=({state_str}) residual={worst!r} q={qs[qi]}"
    return RelationResult(name, "fail", worst, witness)


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
) -> VerificationReport:
    """Check every defining relation of the signature against a realization.

    q may be None (formal; exact Dyson verification), a number, or a list
    of sample values.  The relations are substituted and normal-ordered
    once per process per (signature, realization, mutation) and reused by
    later calls.  In exact mode a relation that a stage of normal order
    closes holds on every state, for formal p and q, and passes unprobed;
    every other relation passes only if every probe coefficient is the
    exact zero, and when there is none, no probe state or plan is built.
    In numeric mode every relation is probed, and its worst residual
    relative to the term scale (``ProbePlan.worst``) must stay within the
    tolerance.  The probed relations are read through the probe plan of
    (signature, realization, mutation, cap, convention, probed relations),
    built on the first such call.  The term scalars, diagonal values and
    exact products are formed once per call, and the plan keeps them per
    scalar domain for later calls over it.  The status strings are the
    same either way.
    """
    if kind != DYSON:
        if q is None:
            raise ValueError(f"{kind} realization requires numeric q")
        if p is None:
            raise ValueError(f"{kind} realization requires a numeric p")
    relations = _relation_set(sig, kind, mutation)
    if cap is None:
        cap = default_cap(p)
    if cap < 4:
        raise ValueError("probe cap must be at least 4 to cover the quartic relation words")
    qs = None if q is None else [float(q)] if isinstance(q, (int, float)) else [float(v) for v in q]
    if qs == []:
        raise ValueError("q is an empty list of samples; give at least one")
    convention = convention or ("orthonormal" if kind != DYSON else "monomial")
    # the per-state engine checks the convention, the first q sample, p and
    # the classical flag, in that order, and forms an exact failure's witness
    engine = Engine(sig, convention, None if qs is None else qs[0], p, classical)
    exact = engine.mode == "exact"
    # A relation with a stage is zero on every state, so exact verification
    # does not probe it, and builds no plan when nothing is left to probe.
    # Numeric verification probes every relation, and reports its rounding.
    results = [RelationResult(rel.name, "exact-pass") for rel, *_ in relations]
    probed = [k for k, (*_, stage) in enumerate(relations) if not (exact and stage)]
    if probed:
        domain = ScalarDomain(qs, p, classical)
        plan = _probe_plan(sig, kind, mutation, cap, convention, tuple(probed))
        if exact:
            for k, (rows, *_) in zip(probed, plan.images(domain)):
                rel, diff, _ = relations[k]
                results[k] = _exact_result(rel.name, diff, engine, plan.states, rows)
        else:
            with float_errors_raise():
                worst = plan.worst(domain, tolerance)
            results = [_numeric_result(rel.name, plan.states, qs, *w, tolerance)
                       for (rel, *_), (_, *w) in zip(relations, worst)]
    meta = {
        "realization": kind,
        "n": sig.n,
        "m": sig.m,
        "p": "formal" if p is None else p,
        "q": "formal" if q is None else (q if isinstance(q, (int, float)) else ",".join(map(repr, q))),
        "convention": convention,
        "mode": "classical" if classical else engine.mode,
        "cap": cap,
        "tolerance": "exact" if exact else tolerance,
    }
    if mutation:
        meta["mutation"] = mutation
    return VerificationReport(results, meta)
