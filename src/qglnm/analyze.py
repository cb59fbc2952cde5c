"""Representation-level analysis of the Fock-space modules.

Finite generator matrices on the occupation-bounded subspace, invariance
of the threshold subspaces, unitarizability via the transpose test in
the orthonormal basis, highest weights, the essentially-typical
criterion on integer weights, inequivalence of different thresholds, and
irreducibility as cyclicity of every basis vector, read off the support
graph of the generator matrices (each weight space is a single state).
The matrices, invariance and highest weights read generator images from
one function, ``_images``: one engine and one probe batch
(``weyl.ProbeBatch.images``, one image state per state) over the states
they need.  Every analysis works on the sparse entries; the quotient
relations carry one (row, coefficient) pair through each word.

Matrix columns follow the graded-lex basis order, so the block structure
by total degree is visible in the sparse pattern: the first e generator
strictly lowers the degree block, the first f generator raises it, and
every other generator is block-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import CoeffExact, LaurentPoly, bracket_int, numeric_str, scalar_str
from .fock import BasisIndex, Signature, dim_F0, enumerate_up_to, split_F0_F1, total, vacuum
from .presentation import E, F, H, GenSymbol, HBracket, build_relations, generators
from .realize import DYSON, HP, HP_DEFORMED, realization, tilde_ops
from .weyl import (Diag, Engine, OperatorExpr, ProbeBatch, affine_mode, float_errors_raise,
                   super_commutator)

SUBSPACES = ("F0", "F1-slice", "quotient-F0")


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
    if not isinstance(p, int) or p < 0:
        raise ValueError("materialization needs an integer p >= 0")
    if q is None and convention == "orthonormal":
        raise ValueError("orthonormal matrices need a numeric q")
    cap = _window_cap(p, cap)
    basis = _subspace_basis(sig, p, subspace, cap)
    out = {g: GeneratorMatrix(basis, {}) for g in generators(sig)}
    top = {"quotient-F0": p, "F1-slice": cap}.get(subspace)  # components above it drop
    for g, state, s, v in _images(sig, kind, p, q, convention, basis.states, mutation):
        row = basis.index.get(s)
        if row is None:
            if top is not None and total(s) > top:
                continue
            raise SubspaceLeakError(
                f"image of {g} leaves the {subspace} subspace at state {state} "
                f"(reached {s}); use quotient-F0 for the Dyson realization"
            )
        out[g].entries[(row, basis.index[state])] = v
    return out


def _images(sig: Signature, kind: str, p, q, convention: str, states, mutation=None) -> list:
    """Every nonzero generator image of the realization on the states:
    (generator, state, image state, coefficient), in realization order,
    then state order, from one engine and one probe batch over the states,
    with float errors raising.  Every module analysis reads its generator
    images here."""
    real = realization(kind, sig, mutation)
    batch = ProbeBatch([Engine(sig, convention=convention, q=q, p=p)], states)
    out = []
    with float_errors_raise():
        for g, expr in real.images.items():
            rows, images, coeffs = batch.images(batch.compile(expr))
            out += [(g, states[r], tuple(s), v)
                    for r, s, v in zip(rows.tolist(), images.tolist(), coeffs)]
    return out


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
    witness = {True: "", False: ""}  # by whether the source state is low (degree <= p)
    for g, state, s, v in _images(sig, kind, p, q, "monomial" if q is None else "orthonormal",
                                  window):
        low = total(state) <= p
        if not witness[low] and (total(s) <= p) != low:
            witness[low] = f"{g} maps {state} to {s} with coefficient {scalar_str(v)}"
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
    images = {g: v for g, _, _, v in _images(sig, DYSON, p, None, "monomial", [vacuum(sig)])}
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
    mats = materialize(sig, HP, p, q=q, subspace="F0")
    dim = len(next(iter(mats.values())).basis)
    return _reachability(dim, ((c, r) for m in mats.values() for r, c in m.entries))


def _reachability(dim: int, edges) -> CyclicityReport:
    """Cyclicity report of a support graph on states 0..dim-1 given by
    (source, target) edges: the rank from each start is the number of
    states reachable from it, itself included."""
    succ = [set() for _ in range(dim)]
    for src, dst in edges:
        succ[src].add(dst)
    ranks = {}
    for start in range(dim):
        seen, todo = {start}, [start]
        while todo:
            new = succ[todo.pop()] - seen
            seen |= new
            todo += new
        ranks[start] = len(seen)
    return CyclicityReport(dim, ranks, all(r == dim for r in ranks.values()))


# -- quotient consistency (exact matrix relations) --------------------


def quotient_relations_check(sig: Signature, p: int) -> list[str]:
    """Exact check that the quotient matrices of the Dyson realization on
    the low subspace satisfy every defining relation; returns the names of
    failing relations (empty when the quotient is a representation).

    Each side of a relation is applied to every basis column by composing
    the matrix columns right to left, which forms the columns of the same
    matrix products without any dense product."""
    return _relation_failures(
        sig, p, materialize(sig, DYSON, p, subspace="quotient-F0", convention="monomial"))


def _relation_failures(sig: Signature, p: int, mats: dict) -> list[str]:
    """Names of the relations the given exact matrices violate.  A basis
    state's image is one state, so a generator column holds at most one
    entry, and from every start column a word carries one (row,
    coefficient) pair through its letters, a bracket-of-h letter acting as
    the q-bracket of its Cartan eigenvalue at threshold p."""
    states = next(iter(mats.values())).basis.states
    # generator -> column -> its one (row, coefficient)
    columns = {g: {c: (r, v) for (r, c), v in m.entries.items()} for g, m in mats.items()}
    real = realization(DYSON, sig)

    def image(scalar, word, r):
        """Yield the word's image of column r as one (row, coefficient),
        or nothing when it is zero."""
        for letter in reversed(word):
            if isinstance(letter, HBracket):
                arg, pc = real.h_bracket(letter).eval_parts(states[r])
                m = bracket_int(arg + pc * p)
            elif r in columns[letter]:
                r, m = columns[letter][r]
            else:
                return
            scalar = m * scalar
        yield r, scalar

    def violated(rel, start) -> bool:
        # keyed by row, so terms landing on different rows never cancel
        residual: dict = {}
        for scalar, word in [*rel.lhs, *((-scalar, word) for scalar, word in rel.rhs)]:
            for r, v in image(scalar, word, start):
                residual[r] = residual[r] + v if r in residual else v
        return any(not v.is_zero() for v in residual.values())

    return [rel.name for rel in build_relations(sig)
            if any(violated(rel, start) for start in range(len(states)))]


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
    eng = Engine(sig, convention="orthonormal", q=q, p=p)
    ops = tilde_ops(sig)
    states = list(enumerate_up_to(sig, cap))

    def qpow_n(i, sign):
        return OperatorExpr.from_word(Diag("qpow", affine=affine_mode(sig, i, sign)))

    batch = ProbeBatch([eng], states)
    # figure -> [largest residual, largest residual relative to the term scale]
    worst = {"bosonic": [0.0, 0.0], "+": [0.0, 0.0], "-": [0.0, 0.0], "agreement": [0.0, 0.0]}

    def measure(figure, expr):
        peak, scale = batch.max_abs_images(batch.compile(expr))
        w = worst[figure]
        w[0] = max(w[0], float(peak.max()))
        w[1] = max(w[1], float((peak / scale.clip(min=1.0)).max()))

    qfac = CoeffExact(LaurentPoly.monomial(q_exp=1))  # specialized by the engine
    with float_errors_raise():
        for i in range(1, sig.num_modes + 1):
            bracket = super_commutator(sig, ops[("-", i)], ops[("+", i)], qfactor=qfac)
            if sig.is_fermionic(i):
                measure("-", bracket - qpow_n(i, -1))
                measure("+", bracket - qpow_n(i, +1))
            else:
                measure("bosonic", bracket - qpow_n(i, -1))
            for j in range(1, sig.num_modes + 1):
                up, down = ops[("+", j)], ops[("-", j)]
                measure("bosonic", ops[("N", i)] * up - up * ops[("N", i)]
                        - (up if i == j else OperatorExpr.zero()))
                measure("bosonic", ops[("N", i)] * down - down * ops[("N", i)]
                        + (down if i == j else OperatorExpr.zero()))
                if i != j:
                    for a in ("+", "-"):
                        for b in ("+", "-"):
                            measure("bosonic", super_commutator(sig, ops[(a, i)], ops[(b, j)]))

        deformed = realization(HP_DEFORMED, sig).images
        for g, expr in realization(HP, sig).images.items():
            measure("agreement", expr - deformed[g])

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
