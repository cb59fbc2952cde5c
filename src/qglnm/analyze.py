"""Representation-level analysis of the Fock-space modules.

Finite generator matrices on the occupation-bounded subspace, invariance
of the threshold subspaces, unitarizability via the transpose test in
the orthonormal basis, highest weights, the essentially-typical
criterion on integer weights, inequivalence of different thresholds, and
irreducibility as cyclicity of every basis vector, read off the support
graph of the generator matrices (each weight space is a single state).
The matrices, cyclicity, invariance and highest weights read generator
images from one function, ``_images``, as arrays per generator (rows,
image states, coefficients): a probe plan (``weyl.ProbePlan``) of the
realization on the states they need, read once per process, then
evaluated in the scalar domain of each q and p (``weyl.ScalarDomain``)
in a few array operations, equal to the per-state engine's images to the
last bit; a chunk that may raise is replayed word by word
(``weyl.ProbePlan._replayed``).  The
deformed-oscillator check reads its residuals from two plans kept per
(signature, cap).  Every analysis works on the sparse entries; the
quotient relations check reads the images of the substituted Dyson
relations on the low subspace from one plan kept per (signature, p,
mutation).

Matrix columns follow the graded-lex basis order, so the block structure
by total degree is visible in the sparse pattern: the first e generator
strictly lowers the degree block, the first f generator raises it, and
every other generator is block-diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coeff import CoeffExact, LaurentPoly, numeric_str, scalar_str
from .fock import BasisIndex, Signature, dim_F0, enumerate_up_to, split_F0_F1, total, vacuum
from .presentation import E, F, H, GenSymbol, build_relations, generators
from .realize import DYSON, HP, HP_DEFORMED, realization, tilde_ops
from .verify import substitute
from .weyl import (Diag, OperatorExpr, ProbePlan, ScalarDomain, affine_mode, float_errors_raise,
                   super_commutator)

SUBSPACES = ("F0", "F1-slice", "quotient-F0")
# image plans kept per process, and quotient relation plans in a memo of
# their own; every check at three thresholds reads 13 image plans
IMAGE_PLANS = 32
# deformed-oscillator plan pairs kept per process, one per (signature, cap)
DEFORMED_PLANS = 4


class SubspaceLeakError(ValueError):
    """A generator image leaves the chosen subspace: an analysis outcome
    about the realization, not a malformed request."""


@dataclass
class GeneratorMatrix:
    """Sparse matrix of one realized generator on an explicit basis."""

    basis: BasisIndex
    entries: dict  # (row, col) -> coefficient (exact or numeric)

    def triplets(self):
        return sorted(self.entries.items())


def _window_cap(p: int, cap: int | None) -> int:
    """Top degree of the probe window above the threshold: p + 4 unless given."""
    return p + 4 if cap is None else cap


def _subspace_basis(sig: Signature, p: int, subspace: str, cap: int) -> BasisIndex:
    if subspace in ("F0", "quotient-F0"):
        return enumerate_up_to(sig, p)
    if subspace == "F1-slice":
        return split_F0_F1(sig, p, cap)[1]
    raise ValueError(f"unknown subspace {subspace!r}; expected one of {SUBSPACES}")


def materialize(
    sig: Signature,
    kind: str,
    p: int,
    q: float | None = None,
    subspace: str = "F0",
    cap: int | None = None,
    convention: str = "orthonormal",
    mutation: str | None = None,
) -> dict[GenSymbol, GeneratorMatrix]:
    """Matrices of every generator image on the chosen subspace.

    "quotient-F0" projects image components of degree > p to zero (the
    quotient by the invariant high-degree subspace); "F0" is the plain
    restriction and insists that nothing leaks out, which holds for the
    Holstein-Primakoff realizations but not for Dyson.  "F1-slice"
    restricts to the degree window p < total <= cap (p + 4 by default),
    dropping components above the cap.
    """
    basis, columns = _matrix_columns(sig, kind, p, q, subspace, cap, convention, mutation)
    out = {g: GeneratorMatrix(basis, {}) for g in generators(sig)}
    for g, cols, rows, coeffs in columns:
        out[g].entries.update(zip(zip(rows.tolist(), cols.tolist()), coeffs))
    return out


def _matrix_columns(sig: Signature, kind: str, p: int, q, subspace: str, cap: int | None,
                    convention: str, mutation: str | None) -> tuple:
    """The subspace's basis and, per generator in realization order, its
    nonzero matrix entries as (generator, columns, rows, coefficients), in
    column order; the first image component that leaves the subspace and
    is not dropped raises ``SubspaceLeakError``."""
    if not isinstance(p, int) or p < 0:
        raise ValueError("materialization needs an integer p >= 0")
    if q is None and convention == "orthonormal":
        raise ValueError("orthonormal matrices need a numeric q")
    cap = _window_cap(p, cap)
    basis = _subspace_basis(sig, p, subspace, cap)
    top = {"quotient-F0": p, "F1-slice": cap}.get(subspace)  # components above it drop
    columns = []
    for g, cols, images, coeffs in _images(sig, kind, p, q, convention, basis.states, mutation):
        rows = np.array([basis.index.get(s, -1) for s in map(tuple, images.tolist())],
                        dtype=np.intp)
        leaks = np.flatnonzero((rows < 0) & (top is None or images.sum(axis=1) <= top))
        if len(leaks):
            k = leaks[0]
            raise SubspaceLeakError(
                f"image of {g} leaves the {subspace} subspace at state {basis.states[cols[k]]} "
                f"(reached {tuple(images[k].tolist())}); use quotient-F0 for the Dyson realization")
        inside = rows >= 0
        columns.append((g, cols[inside], rows[inside],
                        [v for v, keep in zip(coeffs, inside.tolist()) if keep]))
    return basis, columns


def _images(sig: Signature, kind: str, p, q, convention: str, states, mutation=None) -> list:
    """Every nonzero generator image of the realization on the states, per
    generator in realization order: (generator, ascending indices of the
    states whose image is not zero, image states, coefficient list), read
    from the states' image plan (``_image_plan``) with float errors raising,
    equal to the plan's word-by-word replay (``weyl.ProbePlan._replayed``),
    errors too.
    Every module analysis reads its generator images here."""
    domain = ScalarDomain(q, p)
    gens, plan = _image_plan(sig, kind, mutation, convention, tuple(states))
    with float_errors_raise():
        return [(g, *image) for g, image in zip(gens, plan.images(domain))]


@functools.lru_cache(maxsize=IMAGE_PLANS)
def _image_plan(sig: Signature, kind: str, mutation: str | None, convention: str,
                states: tuple) -> tuple:
    """The realization's generators, in order, and the probe plan of their
    images on the states (``weyl.ProbePlan``), which depend on neither q
    nor p: a bounded memo of ``IMAGE_PLANS`` keys."""
    real = realization(kind, sig, mutation)
    return tuple(real.images), ProbePlan(sig, convention, states, real.images.values())


# -- invariance -------------------------------------------------------


@dataclass
class InvarianceReport:
    kind: str
    p: int
    cap: int
    f1_invariant: bool
    f0_invariant: bool
    f0_witness: str = ""
    f1_witness: str = ""

    def summary(self) -> str:
        lines = [
            f"{self.kind}: high subspace (degree > {self.p}) invariant: {self.f1_invariant}",
            f"{self.kind}: low subspace (degree <= {self.p}) invariant: {self.f0_invariant}",
        ]
        if self.f0_witness:
            lines.append(f"  low-subspace escape witness: {self.f0_witness}")
        if self.f1_witness:
            lines.append(f"  high-subspace escape witness: {self.f1_witness}")
        return "\n".join(lines)


def check_invariance(
    sig: Signature, kind: str, p: int, cap: int | None = None, q: float | None = None
) -> InvarianceReport:
    """Whether the two threshold subspaces are stable under all generator
    images, by one pass of application to every state of the probe window;
    each side's witness is its first escaping image component, in
    realization order, then state order.

    The Dyson realization keeps only the high subspace invariant (the
    boundary bracket [p - N] evaluates to the exact zero [0] on the way
    down, while the bare raising image of the first f generator leaks
    upward out of the low subspace).  The Holstein-Primakoff realization
    keeps both: the square-root boundary factor sqrt([0]) is exactly 0.0
    before any leak, so no tolerance enters either verdict.
    """
    cap = _window_cap(p, cap)
    if kind == DYSON:
        q = None  # the Dyson images stay exact
    elif q is None:
        raise ValueError("numeric q required for this realization")
    if cap < p + 1:
        raise ValueError("cap must be at least p + 1")
    window = enumerate_up_to(sig, cap).states
    low = np.array([total(s) <= p for s in window], dtype=bool)
    witness = {True: "", False: ""}  # by whether the source state is low (degree <= p)
    for g, rows, images, coeffs in _images(sig, kind, p, q,
                                           "monomial" if q is None else "orthonormal", window):
        side = low[rows]
        escapes = (images.sum(axis=1) <= p) != side
        for is_low in (True, False):
            hits = np.flatnonzero(escapes & (side == is_low))
            if len(hits) and not witness[is_low]:
                k = hits[0]
                witness[is_low] = (f"{g} maps {window[rows[k]]} to {tuple(images[k].tolist())} "
                                   f"with coefficient {scalar_str(coeffs[k])}")
    f0_wit, f1_wit = witness[True], witness[False]
    return InvarianceReport(kind, p, cap, not f1_wit, not f0_wit, f0_wit, f1_wit)


# -- unitarity --------------------------------------------------------


@dataclass
class UnitarityReport:
    hp_max_residual: float
    hp_pass: bool
    h_diagonal_real: bool
    dyson_max_residual: float
    dyson_fails: bool
    dyson_witness: str = ""

    def summary(self) -> str:
        return "\n".join([
            f"hp transpose test: max |e^T - f| = {self.hp_max_residual!r} "
            f"({'pass' if self.hp_pass else 'FAIL'})",
            f"hp h-matrices real diagonal: {self.h_diagonal_real}",
            f"dyson transpose test: max |e^T - f| = {self.dyson_max_residual!r} "
            f"({'fails as expected' if self.dyson_fails else 'UNEXPECTEDLY PASSES'})",
            f"  dyson witness: {self.dyson_witness}" if self.dyson_witness else "",
        ]).rstrip()


def check_unitarity(sig: Signature, p: int, q: float, tolerance: float = 1e-10) -> UnitarityReport:
    """Transpose test on the low subspace in the orthonormal basis: for the
    Holstein-Primakoff matrices each e-matrix transposed equals the
    corresponding f-matrix and the h-matrices are real diagonal; the same
    test on the (quotient) Dyson matrices fails, with a witness entry: the
    first, pair by pair and row-major, of largest |e^T - f|.  Both tests
    read only the stored entries; an entry stored in neither matrix is 0."""
    hp_mats = materialize(sig, HP, p, q=q, subspace="F0")
    dy_mats = materialize(sig, DYSON, p, q=q, subspace="quotient-F0")

    def transpose_residual(mats):
        worst, wit = 0.0, ""
        for i in range(1, sig.r):
            et = {(c, r): v for (r, c), v in mats[GenSymbol(E, i)].entries.items()}
            f = mats[GenSymbol(F, i)].entries
            for a, b in sorted(et.keys() | f.keys()):
                x, y = complex(et.get((a, b), 0)), complex(f.get((a, b), 0))
                if abs(x - y) > worst:
                    worst = abs(x - y)
                    wit = (f"generator pair index {i}: entry ({a},{b}): "
                           f"e^T={numeric_str(x)} f={numeric_str(y)}")
        return worst, wit

    hp_res, _ = transpose_residual(hp_mats)
    dy_res, dy_wit = transpose_residual(dy_mats)
    # off the diagonal every entry must vanish, on it the imaginary part
    h_real = not any(abs(complex(v).imag if r == c else v) > tolerance
                     for i in range(1, sig.r + 1)
                     for (r, c), v in hp_mats[GenSymbol(H, i)].entries.items())
    return UnitarityReport(
        hp_max_residual=hp_res,
        hp_pass=hp_res <= tolerance,
        h_diagonal_real=h_real,
        dyson_max_residual=dy_res,
        dyson_fails=dy_res > tolerance,
        dyson_witness=dy_wit,
    )


# -- weights and typicality -------------------------------------------


def highest_weight(sig: Signature, p: int) -> tuple[int, ...]:
    """Eigenvalues of all h_i on the vacuum, which is a highest-weight
    vector: every e image annihilates it (each ends in a lowering atom)."""
    images = {g: coeffs[0] for g, _, _, coeffs in
              _images(sig, DYSON, p, None, "monomial", [vacuum(sig)]) if coeffs}
    weights = []
    for i in range(1, sig.r + 1):
        c = images.get(GenSymbol(H, i), CoeffExact.zero())
        k = c.rational()
        if k is None or k.denominator != 1:
            raise ValueError(f"weight eigenvalue {c.canonical_str()} is not an integer")
        weights.append(int(k))
    for i in range(1, sig.r):
        if GenSymbol(E, i) in images:
            raise AssertionError(f"e_{i} does not annihilate the vacuum")
    return tuple(weights)


@dataclass
class TypicalityReport:
    left_set: tuple[int, ...]
    right_set: tuple[int, ...]
    intersection: tuple[int, ...]
    essentially_typical: bool


def essentially_typical(sig: Signature, weight) -> TypicalityReport:
    """Criterion on an integer highest weight (m_1, ..., m_r): form
    l_i = m_i - i + n + 1 for i <= n and l_j = -m_j + j - n for j > n;
    the weight is essentially typical when {l_1..l_n} avoids the integer
    interval [l_{n+1}, l_r].  Fock-module weights (p, 0, ..., 0) always
    land in the interval (l_n = 1 is its left end), so they are atypical.
    """
    weight = tuple(weight)
    if len(weight) != sig.r:
        raise ValueError(f"weight must have length r = {sig.r}")
    n = sig.n
    left = tuple(weight[i - 1] - i + n + 1 for i in range(1, n + 1))
    odd = [-weight[j - 1] + j - n for j in range(n + 1, sig.r + 1)]
    right = tuple(range(odd[0], odd[-1] + 1)) if odd else ()
    inter = tuple(sorted(set(left) & set(right)))
    return TypicalityReport(left, right, inter, not inter)


# -- inequivalence and cyclicity --------------------------------------


@dataclass
class InequivalenceReport:
    p1: int
    p2: int
    dim1: int
    dim2: int
    spectrum1: tuple
    spectrum2: tuple
    inequivalent: bool

    def summary(self) -> str:
        return (
            f"dim F0(p={self.p1}) = {self.dim1}, dim F0(p={self.p2}) = {self.dim2}; "
            f"h_1 spectra {list(self.spectrum1)} vs {list(self.spectrum2)}; "
            f"inequivalent: {self.inequivalent}"
        )


def inequivalence(sig: Signature, p1: int, p2: int) -> InequivalenceReport:
    """Distinguish the modules with thresholds p1 != p2 by dimension and by
    the h_1 spectrum (the multiset {p - degree} over the basis)."""
    if p1 == p2:
        raise ValueError("thresholds must differ")
    d1, d2 = dim_F0(sig, p1), dim_F0(sig, p2)
    s1 = tuple(sorted(p1 - total(s) for s in enumerate_up_to(sig, p1)))
    s2 = tuple(sorted(p2 - total(s) for s in enumerate_up_to(sig, p2)))
    return InequivalenceReport(p1, p2, d1, d2, s1, s2, d1 != d2 or s1 != s2)


@dataclass
class CyclicityReport:
    dim: int
    ranks: dict
    full_from_all: bool

    def summary(self) -> str:
        worst = min(self.ranks.values())
        return (
            f"module dimension {self.dim}; span rank from every start vector: "
            f"min {worst} ({'full' if self.full_from_all else 'NOT full'})"
        )


def cyclicity(sig: Signature, p: int, q: float) -> CyclicityReport:
    """Irreducibility of the Holstein-Primakoff module on the low subspace
    at the sampled q: the span of repeated generator images of every basis
    vector is the whole module.  (If every vector is cyclic, no proper
    invariant subspace exists.)

    h_1 acts as p - N and h_i as N_{i-1}, so the Cartan weight of a basis
    state determines its occupations: each weight space is one state, and
    each generator maps a basis state to a multiple of at most one basis
    state.  The span of the images of a basis vector is therefore spanned
    by the states reachable from it along nonzero matrix entries, and its
    rank is their number: an exact statement about the support of the
    matrices at this q, with no rank threshold.
    """
    basis, columns = _matrix_columns(sig, HP, p, q, "F0", None, "orthonormal", None)
    return _reachability(len(basis), (edge for _, cols, rows, _ in columns
                                      for edge in zip(cols.tolist(), rows.tolist())))


def _reachability(dim: int, edges) -> CyclicityReport:
    """Cyclicity report of a support graph on states 0..dim-1 given by
    (source, target) edges: the rank from each start is the number of
    states reachable from it, itself included.  When state 0 reaches every
    state and every state reaches it, every rank is dim."""
    succ, pred = [set() for _ in range(dim)], [set() for _ in range(dim)]
    for src, dst in edges:
        succ[src].add(dst)
        pred[dst].add(src)

    def reached(start, step) -> int:
        seen, todo = {start}, [start]
        while todo:
            new = step[todo.pop()] - seen
            seen |= new
            todo += new
        return len(seen)

    strong = dim and reached(0, succ) == reached(0, pred) == dim
    ranks = {start: dim if strong else reached(start, succ) for start in range(dim)}
    return CyclicityReport(dim, ranks, all(r == dim for r in ranks.values()))


# -- quotient consistency (exact matrix relations) --------------------


def quotient_relations_check(sig: Signature, p: int) -> list[str]:
    """Exact check that the quotient matrices of the Dyson realization on
    the low subspace satisfy every defining relation; returns the names of
    failing relations (empty when the quotient is a representation).

    It checks each relation R compressed to the low subspace, P R P with P
    the projection onto degree <= p: R fails when some basis state's image
    under the substituted relation has a nonzero coefficient at degree <=
    p.  The compression equals the relation on the quotient matrices,
    P g1 P g2 ... P = P g1 g2 ... P, whenever the high subspace is
    invariant, P g (1 - P) = 0, which the unmutated Dyson realization keeps
    at every p >= 0 (the boundary bracket [p - N] is exactly 0)."""
    return _quotient_failures(sig, p, None)


def _quotient_failures(sig: Signature, p: int, mutation: str | None) -> list[str]:
    """Names of the relations whose substituted Dyson difference, with the
    mutation, maps some state of degree <= p to a nonzero coefficient at
    degree <= p, read from the kept plan (``_quotient_plan``)."""
    if not isinstance(p, int) or p < 0:
        raise ValueError("materialization needs an integer p >= 0")
    # Built per call only so that a warm call still makes a traced
    # presentation. and realize. call (ROADMAP item 5); only the names stay.
    names = [rel.name for rel in build_relations(sig)]
    realization(DYSON, sig)
    images = _quotient_plan(sig, p, mutation).images(ScalarDomain(None, p))
    return [name for name, (_, reached, _) in zip(names, images)
            if (reached.sum(axis=1) <= p).any()]


@functools.lru_cache(maxsize=IMAGE_PLANS)
def _quotient_plan(sig: Signature, p: int, mutation: str | None) -> ProbePlan:
    """The probe plan of every substituted Dyson relation, with the
    mutation, on the states of degree <= p, monomial convention: a bounded
    memo of ``IMAGE_PLANS`` keys."""
    real = realization(DYSON, sig, mutation)
    return ProbePlan(sig, "monomial", enumerate_up_to(sig, p).states,
                     [substitute(rel, real) for rel in build_relations(sig)])


# -- deformed oscillator checks ---------------------------------------


@dataclass
class DeformedOpsReport:
    bosonic_max_residual: float
    bosonic_pass: bool
    fermionic_plus_residual: float
    fermionic_minus_residual: float
    fermionic_exponent: str  # which exponent variant of the mode relation holds
    agreement_residual: float
    agreement_pass: bool

    def summary(self) -> str:
        if self.fermionic_exponent in ("+", "-"):
            ferm = (f"fermionic exponent variant: q^{{{self.fermionic_exponent}N}} holds "
                    f"(+N residual {self.fermionic_plus_residual!r}, "
                    f"-N residual {self.fermionic_minus_residual!r})")
        elif self.fermionic_exponent == "n/a":
            ferm = "fermionic exponent variant: n/a (no fermionic modes)"
        else:
            ferm = (f"fermionic exponent variant: NEITHER holds "
                    f"(+N residual {self.fermionic_plus_residual!r}, "
                    f"-N residual {self.fermionic_minus_residual!r})")
        return "\n".join([
            f"bosonic deformed-oscillator relations: max residual "
            f"{self.bosonic_max_residual!r} ({'pass' if self.bosonic_pass else 'FAIL'})",
            ferm,
            f"two Holstein-Primakoff forms agree: max residual "
            f"{self.agreement_residual!r} ({'pass' if self.agreement_pass else 'FAIL'})",
        ])


def deformed_ops_check(
    sig: Signature, p: int, q: float, cap: int = 6, tolerance: float = 1e-12
) -> DeformedOpsReport:
    """Numeric verification of the deformed-oscillator algebra and of the
    equality of the two Holstein-Primakoff forms.

    Bosonic modes satisfy the q-commutator relation with exponent -N;
    on the ordered fermionic basis the relation holds with exponent +N
    instead, and both variants are measured so the report documents which
    one holds rather than silently choosing.  The number-operator and
    cross-mode relations are exponent-independent; their residuals are
    folded into the first figure.  The report prints each figure's largest
    residual; a figure holds when every residual is within the tolerance
    times max(1, the largest single-term image at that state), the scale
    of the cancellation error.
    """
    domain = ScalarDomain(q, p)
    figures, plans = _deformed_plans(sig, cap)
    with float_errors_raise():
        peak, relative = [np.array([w for w, _ in plan.worst(domain)]) for plan in plans]
    # figure -> [largest residual, largest residual relative to the term scale]
    worst = {f: [float(r[figures == f].max(initial=0.0)) for r in (peak, relative)]
             for f in ("bosonic", "+", "-", "agreement")}

    def holds(figure):
        return worst[figure][1] <= tolerance

    if sig.m == 0:
        exponent = "n/a"
    elif holds("+") and not holds("-"):
        exponent = "+"
    elif holds("-") and not holds("+"):
        exponent = "-"
    else:
        exponent = "neither"
    return DeformedOpsReport(
        bosonic_max_residual=worst["bosonic"][0],
        bosonic_pass=holds("bosonic"),
        fermionic_plus_residual=worst["+"][0],
        fermionic_minus_residual=worst["-"][0],
        fermionic_exponent=exponent,
        agreement_residual=worst["agreement"][0],
        agreement_pass=holds("agreement"),
    )


@functools.lru_cache(maxsize=DEFORMED_PLANS)
def _deformed_plans(sig: Signature, cap: int) -> tuple:
    """The figure of each expression ``deformed_ops_check`` measures, and
    two probe plans of them on the states up to the cap, the second with
    every residual relative to the term scale; a bounded memo of
    ``DEFORMED_PLANS`` keys."""
    ops = tilde_ops(sig)
    states = enumerate_up_to(sig, cap).states

    def qpow_n(i, sign):
        return OperatorExpr.from_word(Diag("qpow", affine=affine_mode(sig, i, sign)))

    qfac = CoeffExact(LaurentPoly.monomial(q_exp=1))  # specialized by the engine
    measured = []  # (figure, expression)
    for i in range(1, sig.num_modes + 1):
        bracket = super_commutator(sig, ops[("-", i)], ops[("+", i)], qfactor=qfac)
        if sig.is_fermionic(i):
            measured += [("-", bracket - qpow_n(i, -1)), ("+", bracket - qpow_n(i, +1))]
        else:
            measured.append(("bosonic", bracket - qpow_n(i, -1)))
        for j in range(1, sig.num_modes + 1):
            up, down = ops[("+", j)], ops[("-", j)]
            measured += [
                ("bosonic", ops[("N", i)] * up - up * ops[("N", i)]
                 - (up if i == j else OperatorExpr.zero())),
                ("bosonic", ops[("N", i)] * down - down * ops[("N", i)]
                 + (down if i == j else OperatorExpr.zero()))]
            if i != j:
                measured += [("bosonic", super_commutator(sig, ops[(a, i)], ops[(b, j)]))
                             for a in ("+", "-") for b in ("+", "-")]
    deformed = realization(HP_DEFORMED, sig).images
    measured += [("agreement", expr - deformed[g]) for g, expr in realization(HP, sig).images.items()]
    figures, exprs = zip(*measured)
    return np.array(figures), [ProbePlan(sig, "orthonormal", states, exprs, [scaled] * len(states))
                               for scaled in (False, True)]
