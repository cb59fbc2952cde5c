"""Operator engine for the graded Weyl algebra of n-1 bosonic and m
fermionic oscillator pairs.

Operators are formal sums of words in raising/lowering atoms and diagonal
factors, applied lazily to individual occupation states.  Lazy action keeps
every computation exact with no truncation: a word may pass through states
of higher degree than any fixed matrix cap would allow.  Every atom sends
a basis state to at most one basis state, so a word is a monomial
operator: it maps a state to one (scalar, state) pair or to zero.

Words are written left to right as in printed operator products and are
applied right to left, so a diagonal factor written to the left of a
lowering operator is evaluated on the already-lowered state.

Two basis conventions are supported.  In the "monomial" convention the
basis vectors are the unnormalized ordered monomials in the raising
operators, so bosonic raising has coefficient 1 and lowering has
coefficient l; all coefficients stay in the exact fraction field.  In the
"orthonormal" convention both carry square roots and the engine is
numeric.  Fermionic modes anticommute: raising or lowering mode i picks
up the sign (-1)**(number of occupied fermionic modes strictly left of i).

The scalar domain follows from q alone: formal q (None) gives exact
Laurent-fraction scalars, a numeric q gives float/complex ones.  They are
complex because, with integer p, square-root factors such as sqrt([p - N])
have negative radicands on states far enough above the occupation
threshold, and the principal branch keeps all operator identities valid
(the radical pairs inside any defining relation match up, so relation
residuals are real up to rounding).

Every diagonal factor is one kind of function of one integer affine
argument in the occupations and p (``Diag(kind, affine)``), and every
ladder atom moves the occupations by a fixed unit vector, so a word has
one net occupation change (``word_change``).  A word's scalar is formed
in two parts.  The ladder atoms multiply one plain running number: per
bosonic step 1 or l in the monomial convention and sqrt(l + 1) or sqrt(l)
in the orthonormal one, per fermionic step the sign.  The diagonal values
multiply in the sorted order of their keys (the kind with the argument's
occupation part and p coefficient), and the product meets the ladder
number once.

``Engine`` is the plain per-state reference: it serves the single-state
callers (the witness of a failed exact relation, ``qglnm eval``) and is
the oracle for the multi-state path.  ``ProbePlan`` is the one
multi-state evaluator: relation verification and module analysis apply
one list of expressions, whose terms share one net occupation change, to
one list of probe states, the rows of an integer array, again at other q
and p.  ``start_form`` reads a word at its start state in one
right-to-left pass that keeps the running occupation offset, so each of
its items (a diagonal factor or a ladder step) is a function of the start
state, read as a column over all probe states (``ProbeRows``); a diagonal
factor's column is one record of its keys (``_Column``), int64 codes that
hold arguments below 2**20 in magnitude.  In each scalar domain
(``ScalarDomain``: exact p and classical, or numeric q and p per q
sample) a plan forms each distinct key value, term scalar and exact
diagonal product once, numeric ones from the same factors in the same
order as above, so that they equal the per-state engine's to the last bit,
and sums each distinct sequence of terms read on a probe state once.

``normal_form`` writes the start-state form as one shift times factors
(monomial convention).  ``normal_ordered`` merges the terms of an
expression that share a shift and a factor multiset, then expands their
``affine`` factors as integer polynomials in p and the occupations (with
N_f**2 = N_f on fermionic modes; ``coeff.Poly``), keeps the other factors
opaque and merges again.  ``closing_stage`` names the first stage after
which an expression is the zero operator for formal p and q: the merge,
the affine stage, or the ring stage (``ring.ring_closes``), which
evaluates the brackets that the affine stage keeps opaque.  Relation
verification uses it to pass a relation without probing it.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coeff import (CoeffExact, LaurentPoly, Poly, Shape, bracket_affine, bracket_int,
                    bracket_value)
from .fock import EVEN, FockState, Signature, mode_parity
from .ring import ring_closes


@dataclass(frozen=True)
class Affine:
    """Integer affine expression const + p_coeff*p + sum_i mode_coeffs[i]*N_i."""

    const: int = 0
    p_coeff: int = 0
    mode_coeffs: tuple[int, ...] = ()

    def eval_parts(self, state: FockState) -> tuple[int, int]:
        """Return (occupation part evaluated on the state, coefficient of p)."""
        return self.const + sum(map(operator.mul, self.mode_coeffs, state)), self.p_coeff

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(
            self.const + other.const,
            self.p_coeff + other.p_coeff,
            _zip_add(self.mode_coeffs, other.mode_coeffs),
        )

    def __neg__(self) -> "Affine":
        return Affine(-self.const, -self.p_coeff, tuple(-k for k in self.mode_coeffs))

    def __sub__(self, other: "Affine") -> "Affine":
        return self + (-other)

    def shift(self, c: int) -> "Affine":
        return Affine(self.const + c, self.p_coeff, self.mode_coeffs)


def _zip_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def affine_mode(sig: Signature, i: int, coeff: int = 1) -> Affine:
    """The occupation number N_i as an affine expression."""
    coeffs = [0] * sig.num_modes
    coeffs[i - 1] = coeff
    return Affine(0, 0, tuple(coeffs))


def affine_p_minus_total(sig: Signature, shift: int = 0) -> Affine:
    """p - N + shift, the recurring first-mode diagonal argument."""
    return Affine(shift, 1, (-1,) * sig.num_modes)


class EngineError(ValueError):
    pass


# Diagonal factor kinds, each a function of one affine argument x:
#   affine        x itself
#   bracket       the q-bracket [x]
#   bracket_ratio [x] / x, for x free of p
#   angle         ([x] / x) ** 1/2, for x free of p; the realizations
#                 place it on bosonic modes only
#   sqrt_bracket  sqrt([x]), numeric only
#   qpow          q ** x
_KINDS = tuple(sorted(("affine", "bracket", "bracket_ratio", "angle", "sqrt_bracket", "qpow")))
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}
_CODE_BIAS = 1 << 20


def _key_code(kind: str, v: int, pc: int) -> int:
    """A diagonal key (kind, occupation part v, p coefficient pc) packed into
    one int64 that orders like the tuple, for v and pc in [-2**20, 2**20)."""
    return (_KIND_RANK[kind] << 42) + ((v + _CODE_BIAS) << 21) + pc + _CODE_BIAS


def _key_of(code: int) -> tuple:
    """The diagonal key (kind, v, pc) that ``_key_code`` packed into code."""
    field = (1 << 21) - 1
    return _KINDS[code >> 42], ((code >> 21) & field) - _CODE_BIAS, (code & field) - _CODE_BIAS


@dataclass(frozen=True)
class Diag:
    kind: str
    affine: Affine

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise EngineError(f"unknown diagonal kind {self.kind!r}")
        if self.kind in ("bracket_ratio", "angle") and self.affine.p_coeff:
            raise EngineError(f"a {self.kind} argument must not depend on p")
        # Words key the ``start_form`` memo and factors key a probe plan's
        # columns, so the hash is formed once, here, and from ints only, so
        # that it is the same in every process and survives copying and
        # pickling.
        aff = self.affine
        object.__setattr__(self, "_hash", hash(
            (_KIND_RANK[self.kind], aff.const, aff.p_coeff, aff.mode_coeffs)))

    def __hash__(self):
        return self._hash


# A ladder atom hashes by its mode, negated for lowering; equality stays
# field-based, and tells the two classes apart.
@dataclass(frozen=True)
class Raise:
    mode: int

    def __hash__(self):
        return self.mode


@dataclass(frozen=True)
class Lower:
    mode: int

    def __hash__(self):
        return -self.mode


Atom = Raise | Lower | Diag
Word = tuple


def atom_parity(sig: Signature, atom: Atom) -> int:
    if isinstance(atom, (Raise, Lower)):
        return mode_parity(sig, atom.mode)
    return EVEN


def word_parity(sig: Signature, word: Word) -> int:
    return sum(atom_parity(sig, a) for a in word) % 2


def word_change(sig: Signature, word: Word) -> tuple[int, ...]:
    """Net change of every mode's occupation caused by the word."""
    return start_form(sig, word)[1]


class OperatorExpr:
    """Formal linear combination of scalar-weighted atom words.

    Scalars are exact coefficients; the evaluation engine specializes them
    when running numerically.  Multiplication concatenates words (scalars
    are central).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple((c, tuple(w)) for c, w in terms)

    @classmethod
    def from_word(cls, *atoms, scalar: CoeffExact | int = 1) -> "OperatorExpr":
        if isinstance(scalar, int):
            scalar = CoeffExact.from_int(scalar)
        return cls([(scalar, tuple(atoms))])

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls.from_word()

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr([(-c, w) for c, w in self.terms])

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(
            [(c1 * c2, w1 + w2) for c1, w1 in self.terms for c2, w2 in other.terms]
        )

    def scaled(self, scalar: CoeffExact | int) -> "OperatorExpr":
        if isinstance(scalar, int):
            scalar = CoeffExact.from_int(scalar)
        return OperatorExpr([(scalar * c, w) for c, w in self.terms])

    def parity(self, sig: Signature) -> int:
        parities = {word_parity(sig, w) for _, w in self.terms}
        if len(parities) > 1:
            raise ValueError("expression is not parity-homogeneous")
        return parities.pop() if parities else EVEN

    def changes(self, sig: Signature) -> set[tuple[int, ...]]:
        """The distinct net occupation changes of the words."""
        return {word_change(sig, w) for _, w in self.terms}

    def __repr__(self):
        return f"OperatorExpr({len(self.terms)} terms)"


class Step(NamedTuple):
    """A ladder atom read at the start state: it meets mode ``mode`` at
    offset ``offset``, and the offsets of the fermionic modes left of it
    sum to ``parity`` mod 2 (0 on a bosonic mode)."""

    mode: int
    lower: bool
    offset: int
    parity: int


# distinct (signature, word) pairs whose start-state form a process keeps
START_FORMS = 4096


@functools.lru_cache(maxsize=START_FORMS)
def start_form(sig: Signature, word: Word) -> tuple:
    """The word applied, right to left, to a symbolic start state N with
    the running occupation offset delta: (its items in application order,
    its net change).  A diagonal factor becomes the same kind of factor of
    its argument shifted by delta, read at N; a ladder atom becomes a
    ``Step``, from which its occupation and fermionic sign follow at N."""
    delta = [0] * sig.num_modes
    items = []
    for atom in reversed(word):
        if isinstance(atom, Diag):
            shift = sum(map(operator.mul, atom.affine.mode_coeffs, delta))
            items.append(Diag(atom.kind, atom.affine.shift(shift)) if shift else atom)
        else:
            i = atom.mode
            lower = isinstance(atom, Lower)
            items.append(Step(i, lower, delta[i - 1], sum(delta[sig.n - 1 : i - 1]) % 2))
            delta[i - 1] += -1 if lower else 1
    return tuple(items), tuple(delta)


class NormalForm(NamedTuple):
    """A word as one normal-ordered term, all taken at the start state N:
    the word sends N to N + change with the scalar sign * (-1)**(mask . N)
    times the product of the factors, where bit j - 1 of the mask is set
    for the fermionic modes j whose occupation enters the sign."""

    sign: int
    change: tuple[int, ...]
    mask: int
    factors: tuple[Diag, ...]

    @property
    def key(self) -> tuple:
        """What terms must share to merge: the change and the factors (the
        mask is a function of the change)."""
        return self.change, self.factors


def _diag_order(d: Diag) -> tuple:
    aff = d.affine
    return _KIND_RANK[d.kind], aff.const, aff.p_coeff, aff.mode_coeffs


def normal_form(sig: Signature, word: Word) -> NormalForm:
    """The word's ``start_form`` as one term (monomial convention).  A
    bosonic lowering on mode i contributes the factor N_i + delta_i and a
    raising 1.  A fermionic lowering contributes N_i + delta_i and a
    raising 1 - N_i - delta_i, which is 1 where the step is allowed and 0
    where not; both carry the sign (-1)**(delta summed over the fermionic
    modes left of i) and flip the mask there, so bit j of the mask is the
    parity of the net change right of j.  So a ladder step that meets a
    dead state makes its factor 0 on that start state, and the term is
    zero there whatever its other factors are."""
    items, change = start_form(sig, word)
    sign, factors = 1, []
    for item in items:
        if isinstance(item, Diag):
            factors.append(item)
        elif item.lower or sig.is_fermionic(item.mode):
            occupation = affine_mode(sig, item.mode).shift(item.offset)
            factors.append(Diag("affine", occupation if item.lower else -occupation.shift(-1)))
            sign = -sign if item.parity else sign
    mask = parity = 0
    for j in reversed(range(sig.n - 1, sig.num_modes)):
        mask |= parity << j
        parity ^= change[j] & 1
    return NormalForm(sign, change, mask, tuple(sorted(factors, key=_diag_order)))


# distinct (signature, affine argument) pairs whose polynomial a process keeps
AFFINE_POLYS = 4096


@functools.lru_cache(maxsize=AFFINE_POLYS)
def _affine_shape(sig: Signature) -> Shape:
    """Positions p, N_1..N_b, with N_f**2 = N_f on every fermionic mode f."""
    return Shape(1 + sig.num_modes, idempotent=tuple(
        i for i in range(1, sig.num_modes + 1) if sig.is_fermionic(i)))


@functools.lru_cache(maxsize=AFFINE_POLYS)
def _affine_poly(sig: Signature, aff: Affine) -> Poly:
    """An affine argument as a polynomial in p and the occupations."""
    return Poly.linear(_affine_shape(sig), aff.const, dict(
        enumerate((aff.p_coeff, *aff.mode_coeffs))))


def _expand_affine(sig: Signature, factors) -> dict:
    """The product of ``affine`` factors as an integer polynomial in p and
    the occupations: {(power of p, exponent of N_1, ..., of N_b): coefficient},
    with N_f**2 = N_f on every fermionic mode f."""
    return Poly.product(_affine_shape(sig), [_affine_poly(sig, d.affine) for d in factors]).coeffs


def _merged(sig: Signature, expr: OperatorExpr) -> dict:
    """The merge stage: {``NormalForm.key``: sum of the signed scalars of
    the terms with that key}, with every zero sum left out."""
    merged: dict = {}
    for c, w in expr.terms:
        nf = normal_form(sig, w)
        c = c if nf.sign == 1 else -c
        acc = merged.get(nf.key)
        merged[nf.key] = c if acc is None else acc + c
    return {key: c for key, c in merged.items() if not c.is_zero()}


def _expanded(sig: Signature, merged: dict) -> dict:
    """The affine stage on the merge stage's output (see ``normal_ordered``)."""
    expanded: dict = {}
    for (change, factors), c in merged.items():
        opaque = tuple(d for d in factors if d.kind != "affine")
        # per occupation monomial, its polynomial in p
        by_occupation: dict = {}
        for (p_pow, *exponents), v in _expand_affine(
                sig, [d for d in factors if d.kind == "affine"]).items():
            by_occupation.setdefault(tuple(exponents), {})[0, 0, p_pow] = v
        for exponents, in_p in by_occupation.items():
            term = c * CoeffExact(LaurentPoly(in_p))
            key = change, opaque, exponents
            acc = expanded.get(key)
            expanded[key] = term if acc is None else acc + term
    return {key: c for key, c in expanded.items() if not c.is_zero()}


def normal_ordered(sig: Signature, expr: OperatorExpr) -> dict:
    """An expression merged in normal form, in two stages.

    The merge by key sums the signed scalars of the terms that share a
    ``NormalForm.key``.  The affine stage then expands each merged term's
    ``affine`` factors (the ladder factors and arguments such as p - N) as
    an integer polynomial in p and the occupations, with N_f**2 = N_f on
    fermionic modes, folds the powers of p into the scalar and keeps every
    other factor opaque.  The result is {(change, opaque factors, exponents
    of N_1..N_b): scalar}, with every key whose sum is zero left out; it is
    the same whatever order the factors expand in.

    An empty result means the expression is the zero operator for formal p
    and q, hence also at every integer p and q = 1: the cancellation holds
    for any values of the opaque factors, and on a start state where a
    term's word dies, one of its ladder factors is 0, so the term's
    expanded product is 0 there whatever finite value a singular factor
    (a bracket ratio at 0) is given.  ``closing_stage`` adds a third stage
    for what stays."""
    return _expanded(sig, _merged(sig, expr))


def closing_stage(sig: Signature, expr: OperatorExpr) -> str | None:
    """The first stage of normal order after which the expression is the
    zero operator for formal p and q: "merge" when the merge by key
    cancels every term, "affine" when ``normal_ordered`` is empty, "ring"
    when ``ring.ring_closes`` proves what the affine stage leaves (its
    module docstring has the argument), and None when no stage closes it.
    A stage's verdict holds at every integer p and at q = 1 too.  Stages
    are sound, not complete: None proves nothing."""
    merged = _merged(sig, expr)
    if not merged:
        return "merge"
    ordered = _expanded(sig, merged)
    if not ordered:
        return "affine"
    return "ring" if ring_closes(sig, ordered) else None


def super_commutator(
    sig: Signature, x: OperatorExpr, y: OperatorExpr, qfactor: CoeffExact | None = None
) -> OperatorExpr:
    """x*y - (-1)**(deg x * deg y) * qfactor * y*x for homogeneous x, y."""
    sign = -1 if x.parity(sig) and y.parity(sig) else 1
    yx = (y * x).scaled(sign)
    if qfactor is not None:
        yx = yx.scaled(qfactor)
    return x * y - yx


def _nonzero(kind: str, v: int) -> int:
    """The argument of a bracket ratio or angle bracket, which must not be 0."""
    if v == 0:
        what = "bracket ratio" if kind == "bracket_ratio" else "angle bracket"
        raise ZeroDivisionError(f"{what} evaluated at argument 0")
    return v


class ExactScalars:
    """Exact scalars (``CoeffExact``): q formal, p formal (None) or an integer.
    classical=True specializes q = 1, turning every bracket into its plain
    affine argument.  ``domain`` is what every value depends on."""

    mode = "exact"
    one = CoeffExact.one()

    def __init__(self, p, classical):
        if p is not None and not isinstance(p, int):
            raise EngineError("a formal q takes only a formal or integer p")
        self.p = p
        self.classical = classical
        self.domain = ("exact", p, classical)

    def from_coeff(self, c: CoeffExact) -> CoeffExact:
        if self.p is not None:
            c = c.subst_p_int(self.p)
        return c.subst_q1() if self.classical else c

    def is_zero(self, v: CoeffExact) -> bool:
        return v.is_zero()

    def affine(self, c: int, pc: int) -> CoeffExact:
        if self.p is not None:
            return CoeffExact.from_int(c + pc * self.p)
        return CoeffExact(LaurentPoly({(0, 0, 0): c, (0, 0, 1): pc}))

    def bracket(self, c: int, pc: int) -> CoeffExact:
        if self.classical:
            return self.affine(c, pc)
        return bracket_affine(c, pc, p_value=self.p)

    # ``Diag`` keeps p out of the ratio kinds' arguments, so pc is 0 there
    def bracket_ratio(self, v: int, pc: int) -> CoeffExact:
        _nonzero("bracket_ratio", v)
        return self.one if self.classical else bracket_int(v) / v

    def angle(self, v: int, pc: int) -> CoeffExact:
        _nonzero("angle", v)
        if self.classical:
            return self.one
        raise EngineError("angle brackets are numeric only")

    def sqrt_bracket(self, c: int, pc: int):
        raise EngineError("sqrt brackets are numeric only")

    def qpow(self, c: int, pc: int) -> CoeffExact:
        if self.classical:
            return self.one
        if self.p is not None:
            return CoeffExact(LaurentPoly.monomial(q_exp=c + pc * self.p))
        return CoeffExact(LaurentPoly.monomial(q_exp=c, P_exp=pc))


class NumericScalars:
    """Float/complex scalars at a finite real q > 0 (q = 1 takes the
    classical bracket limit) and a finite real p, which may stay unset
    while no evaluation needs it.  ``domain`` is what every value depends
    on."""

    mode = "numeric"
    one = 1.0

    def __init__(self, q, p):
        if not (math.isfinite(q) and q > 0):
            raise EngineError(f"q must be a finite positive number, not {q!r}")
        if p is not None and not math.isfinite(p):
            raise EngineError(f"p must be a finite number, not {p!r}")
        self.q = q
        self.p = p
        self.domain = ("numeric", q, p)

    def from_coeff(self, c: CoeffExact) -> float:
        return c.eval_numeric(self.q, self._p_value(allow_missing=not c.mentions_p()))

    def is_zero(self, v) -> bool:
        return v == 0

    def _p_value(self, allow_missing=False) -> float:
        if self.p is None:
            if allow_missing:
                return 0.0
            raise EngineError("this evaluation needs a numeric value for p")
        return float(self.p)

    def affine(self, c: int, pc: int) -> float:
        return c + pc * self._p_value(allow_missing=pc == 0)

    def bracket(self, c: int, pc: int) -> float:
        return bracket_value(self.affine(c, pc), self.q)

    def bracket_ratio(self, v: int, pc: int) -> float:
        return bracket_value(v, self.q) / _nonzero("bracket_ratio", v)

    def angle(self, v: int, pc: int) -> float:
        return math.sqrt(bracket_value(v, self.q) / _nonzero("angle", v))

    def sqrt_bracket(self, c: int, pc: int):
        x = self.affine(c, pc)
        if x == 0:
            return 0.0
        val = bracket_value(x, self.q)
        if val < 0:
            return cmath.sqrt(val)
        return math.sqrt(val)

    def qpow(self, c: int, pc: int) -> float:
        return self.q ** self.affine(c, pc)


def _check_convention(convention: str, exact: bool) -> None:
    """Raise unless the basis convention is known and, for the orthonormal
    one's square roots, the scalars are numeric (``exact`` False)."""
    if convention not in ("monomial", "orthonormal"):
        raise EngineError(f"unknown convention {convention!r}")
    if exact and convention == "orthonormal":
        raise EngineError("orthonormal convention needs square roots; give a numeric q")


def sample_scalars(q, p=None, classical=False) -> ExactScalars | NumericScalars:
    """The scalars of one q sample: exact for formal q (None), with p
    formal or an integer, else numeric; classical=True, exact only,
    specializes q = 1.  ``Engine`` and ``ScalarDomain`` build theirs here."""
    if q is None:
        return ExactScalars(p, classical)
    if classical:
        raise EngineError("classical flag applies to exact mode; use q=1 numerically")
    return NumericScalars(q, p)


class Engine:
    """Evaluation context: basis convention, the values (or formal status)
    of q and p, and the scalars they imply (``sample_scalars``).

    Formal q (None) means exact arithmetic over the fraction field, with p
    formal or an integer; classical=True specializes q = 1 there, turning
    every bracket into its plain affine argument.  A numeric q > 0 means
    float/complex arithmetic with real p (q = 1 gets the same classical
    bracket limit).  The orthonormal convention introduces square roots
    and therefore needs a numeric q.

    Words apply to one state at a time, with nothing cached between calls;
    callers with many states use ``ProbePlan``, which reads a
    ``ScalarDomain`` of one ``sample_scalars`` per q sample.
    """

    def __init__(self, sig: Signature, convention="monomial", q=None, p=None,
                 classical=False):
        _check_convention(convention, q is None)
        self.scalars = sample_scalars(q, p, classical)
        self.sig = sig
        self.convention = convention
        self.q = q

    @property
    def mode(self) -> str:
        """The scalar regime implied by q: "exact" or "numeric"."""
        return self.scalars.mode

    def one(self):
        return self.scalars.one

    # -- diagonal factors ----------------------------------------------

    def eval_diag(self, d: Diag, state: FockState):
        return self._diag_value(self._diag_key(d, state))

    @staticmethod
    def _diag_key(d: Diag, state: FockState) -> tuple:
        """What the value of a diagonal factor on a state depends on, as the
        scalar method and its arguments: (kind, occupation part, p
        coefficient) of the argument."""
        return (d.kind, *d.affine.eval_parts(state))

    def _diag_value(self, key: tuple):
        return getattr(self.scalars, key[0])(*key[1:])

    # -- state action ---------------------------------------------------

    def _ladder(self, atom: Raise | Lower, state: FockState):
        """Apply a raising or lowering atom; returns (plain number, state)
        or None when the result is zero.  On a boson of occupation l the
        number is 1 for raising and l for lowering (monomial), or the square
        root of the larger occupation (orthonormal); on a fermion, the sign."""
        i = atom.mode
        li = state[i - 1]
        lower = isinstance(atom, Lower)
        if self.sig.is_fermionic(i):
            # raising needs an empty mode, lowering a filled one; both flip it
            if li != lower:
                return None
            # the sign counts the occupied fermionic modes strictly left of i
            sign = -1 if sum(state[self.sig.n - 1 : i - 1]) % 2 else 1
            return sign, state[: i - 1] + (1 - li,) + state[i:]
        if lower:
            if li == 0:
                return None
            k, new = li, li - 1
        else:
            k = new = li + 1
        new_state = state[: i - 1] + (new,) + state[i:]
        if self.convention == "monomial":
            return (k if lower else 1), new_state
        return math.sqrt(k), new_state

    def apply_atom(self, atom: Atom, state: FockState):
        """Apply one atom to a basis state; returns (scalar, state) or None
        when the result is zero."""
        if isinstance(atom, Diag):
            val = self.eval_diag(atom, state)
            if self.scalars.is_zero(val):
                return None
            return val, state
        res = self._ladder(atom, state)
        if res is None:
            return None
        k, state = res
        return self.scalars.one * k, state

    def apply_word(self, word: Word, state: FockState):
        """Apply a word (atoms right to left) to a single state.  Every atom
        sends a basis state to at most one basis state, so the result is a
        single (scalar, state) pair, or None when the image is zero.

        The ladder numbers multiply as plain numbers, the diagonal values
        in the sorted order of their keys, and the two meet once at the
        end: the order ``ProbePlan`` keeps, so numeric scalars agree to
        the last bit."""
        diags = []  # (key, value) per diagonal factor
        ladder = 1
        for atom in reversed(word):
            if isinstance(atom, Diag):
                key = self._diag_key(atom, state)
                val = self._diag_value(key)
                if self.scalars.is_zero(val):
                    return None
                diags.append((key, val))
            else:
                res = self._ladder(atom, state)
                if res is None:
                    return None
                step, state = res
                ladder *= step
        if diags:
            diags.sort(key=operator.itemgetter(0))
            scalar = functools.reduce(operator.mul, [v for _, v in diags])
        else:
            scalar = self.scalars.one
        return (scalar if ladder == 1 else scalar * ladder), state

    def compile(self, expr: OperatorExpr) -> list:
        """Specialize the term scalars of an expression into this engine's
        scalar domain once, for repeated application; zero terms drop."""
        dom = self.scalars
        compiled = [(dom.from_coeff(c), w) for c, w in expr.terms]
        return [(c, w) for c, w in compiled if not dom.is_zero(c)]

    def apply_compiled(self, compiled: list, state: FockState) -> dict:
        out: dict = {}
        for c, w in compiled:
            res = self.apply_word(w, state)
            if res is None:
                continue
            a, s = res
            acc = out.get(s)
            out[s] = c * a if acc is None else acc + c * a
        return {s: v for s, v in out.items() if not self.scalars.is_zero(v)}

    def apply(self, expr: OperatorExpr, state: FockState) -> dict:
        """The image of a state under an expression, as {state: coeff}."""
        return self.apply_compiled(self.compile(expr), state)


def float_errors_raise():
    """A context in which a numpy float overflow or invalid operation
    raises ``FloatingPointError`` instead of warning, so that no inf or nan
    reaches a numeric result; each top-level numeric probing call enters
    it once."""
    return np.errstate(over="raise", invalid="raise")


def _scalar_key(c: CoeffExact) -> tuple:
    """What a term scalar is keyed by in ``ScalarDomain._scalars``."""
    return (c.k, c.num.denom, *c.num.coeffs.items())


class _Column(NamedTuple):
    """A diagonal factor's distinct keys over the probe rows, ascending."""

    # key code per entry, where entry 0 (out of the code range) has
    # ``_NO_CODE``, which sorts after every code
    codes: np.ndarray
    # per row 0 where the argument or the p coefficient leaves the code
    # range, j where the row has the j-th distinct argument
    entry: np.ndarray
    # the entries met on some row
    every: np.ndarray
    # whether an entry fails in every scalar domain: out of the code range,
    # or a bracket ratio or angle bracket at 0
    failing: bool


_NO_CODE = np.iinfo(np.int64).max


class ProbeRows:
    """The probe states and what a word's ladder steps and diagonal keys
    are on them: all of a word's action on the probe states that no scalar
    domain changes.  The states are the rows of an (S, modes) integer
    array.  A ladder step's column (``_ladder_column``) is kept per step; a
    diagonal factor's keys (``_keys``) are its caller's to keep."""

    def __init__(self, sig: Signature, convention: str, states):
        self.sig = sig
        self.convention = convention
        self.states = np.array(states, dtype=np.int64).reshape(len(states), sig.num_modes)
        self._top = int(self.states.max(initial=0))
        self._all_rows = np.ones(len(self.states), dtype=bool)
        # start-state item (a ``Step`` or a ``Diag``) -> its column
        self._columns: dict = {}

    def _args(self, d: Diag) -> np.ndarray:
        """A diagonal factor's argument, less its p part, on every probe state."""
        coeffs = np.array(d.affine.mode_coeffs, dtype=np.int64)
        return d.affine.const + self.states[:, : len(coeffs)] @ coeffs

    def _keys(self, d: Diag) -> _Column:
        """A diagonal factor's distinct keys over the probe rows (``_Column``)."""
        kind, pc = d.kind, d.affine.p_coeff
        args = self._args(d)
        lo, hi = int(args.min()), int(args.max())
        inside = None  # or the mask of the rows inside the code range
        if not -_CODE_BIAS <= min(lo, pc) <= max(hi, pc) < _CODE_BIAS:
            inside = (-_CODE_BIAS <= args) & (args < _CODE_BIAS) & (-_CODE_BIAS <= pc < _CODE_BIAS)
            lo = int(args[inside].min(initial=0))
            args = np.where(inside, args, lo)
        at = args - lo
        seen = np.bincount(at if inside is None else at[inside], minlength=1) > 0
        entry = seen.cumsum()[at]
        if inside is not None:
            entry[~inside] = 0
        found = seen.nonzero()[0]
        failing = inside is not None or (kind in ("bracket_ratio", "angle")
                                         and bool((found == -lo).any()))
        return _Column(np.append(_NO_CODE, _key_code(kind, lo, pc) + (found << 21)),
                       _compact(entry), np.flatnonzero(np.bincount(entry)), failing)

    def _ladder_column(self, step: Step):
        """Build and keep a ladder step's column: (live mask or None when no
        row dies, per-row plain number of ``Engine._ladder`` or None if 1)."""
        i = step.mode - 1
        occupation = self.states[:, i] + step.offset
        if self.sig.is_fermionic(step.mode):
            # raising needs an empty mode, lowering a filled one; the sign
            # counts the occupied fermionic modes strictly left of i
            left = self.states[:, self.sig.n - 1 : i].sum(axis=1) + step.parity
            column = occupation == step.lower, 1 - 2 * (left % 2)
        elif self.convention == "orthonormal":
            # a row that died earlier may meet a negative occupation here
            k = occupation if step.lower else occupation + 1
            column = (occupation > 0 if step.lower else None), np.sqrt(np.maximum(k, 0))
        else:
            column = (occupation > 0, occupation) if step.lower else (None, None)
        self._columns[step] = column
        return column

    def _walk(self, word: Word, diag):
        """Read a word's start-state items in application order while some
        probe row is live.  ``diag(factor, live)`` reads a diagonal factor
        on the rows ``live`` before it and returns its live mask or None.
        Returns (the rows live after every item, the net change, the ladder
        number per row or None when it is 1).

        Ladder numbers are int64 only while the bound of the word's atoms up
        to its last ladder number (largest occupation plus their count, to
        the number of lowerings) stays below 2**63, and Python ints in
        object arrays past it."""
        items, change = start_form(self.sig, word)
        live = self._all_rows
        numbers, lowerings = [], 0
        for k, item in enumerate(items):
            if not live.any():
                break
            if isinstance(item, Diag):
                mask = diag(item, live)
            else:
                mask, number = self._columns.get(item) or self._ladder_column(item)
                lowerings += item.lower
                if number is not None:
                    numbers.append(number)
                    reach = self._top + k + 1, lowerings
            if mask is not None:
                live = live & mask
        rows = np.flatnonzero(live)
        ladder = None
        if numbers:
            ladder = numbers[0][rows]
            if self.convention == "monomial" and reach[0] ** reach[1] >= 1 << 63:
                ladder = ladder.astype(object)
            for number in numbers[1:]:
                ladder = ladder * number[rows]
        return rows, change, ladder


class ScalarDomain:
    """One ``sample_scalars`` of p and classical per q sample (a number or
    a sequence of them), or of formal q (None): all that a ``ProbePlan``
    reads of a scalar domain.  It forms each distinct key value, term
    scalar and exact product once and keeps them for as long as it lives,
    one call; a plan keeps per domain what it reads of them (``_prepare``)."""

    def __init__(self, q=None, p=None, classical=False):
        self.exact = q is None
        self.scalars = [sample_scalars(v, p, classical) for v in ([q] if np.ndim(q) == 0 else q)]
        self.domain = tuple(s.domain for s in self.scalars)
        # key code -> its exact value, or its values over the q samples (read-only)
        self._values: dict = {}
        # sorted tuple of key codes -> product of their exact values
        self._products: dict = {}
        # term scalar key -> its specialized value, None when zero
        self._scalars: dict = {}
        # exact term scalar -> {sorted tuple of key codes -> X = scalar * product}
        self._xs: dict = {}

    def _scalar(self, c: CoeffExact, key: tuple | None = None):
        """A term scalar in the domain, or None when it is zero (at
        every q), each distinct scalar specialized once.  The key
        (``_scalar_key``) is the scalar's value with its terms in their
        stored order, which is the order of the float sum in
        ``eval_numeric``, so a reused value is bit for bit the one a fresh
        evaluation gives."""
        key = _scalar_key(c) if key is None else key
        if key in self._scalars:
            return self._scalars[key]
        if self.exact:
            value = self.scalars[0].from_coeff(c)
            value = None if value.is_zero() else value
        else:
            value = np.array([s.from_coeff(c) for s in self.scalars], dtype=complex)
            value.flags.writeable = False
            value = value if value.any() else None
        self._scalars[key] = value
        return value

    def _value(self, kind: str, v: int, pc: int):
        """A diagonal key's value by the scalar methods: exact, or over q as
        a read-only array."""
        values = [getattr(s, kind)(v, pc) for s in self.scalars]
        if self.exact:
            return values[0]
        values = np.array(values, dtype=complex)
        values.flags.writeable = False
        return values

    def _key_value(self, code: int, kind: str, v: int, pc: int):
        """A diagonal key's value, built and kept on a miss, or None when its
        build raises (a failing key, which is not kept)."""
        value = self._values.get(code)
        if value is None:
            with contextlib.suppress(ArithmeticError, ValueError):
                value = self._values[code] = self._value(kind, v, pc)
        return value

    def _product(self, key: tuple) -> CoeffExact:
        """The product of the exact values behind a sorted code tuple, each
        product formed once from that of the tuple's prefix."""
        product = self._products.get(key)
        if product is None:
            if len(key) > 1:
                product = self._product(key[:-1]) * self._values[key[-1]]
            else:
                product = self._values[key[0]] if key else self.scalars[0].one
            self._products[key] = product
        return product

    def _x(self, c: CoeffExact, key: tuple) -> CoeffExact:
        """``X = c * product`` of an exact term scalar and the values behind
        a sorted code tuple, formed once."""
        known = self._xs.setdefault(c, {})
        x = known.get(key)
        if x is None:
            x = known[key] = c * self._product(key)
        return x


# entries (live term and probe state pairs), and image slots (relations
# times probe states), that one chunk of a probe plan lays out at most; a
# relation past either bound takes a chunk of its own
PLAN_ENTRIES = 1 << 13
PLAN_SLOTS = 1 << 20
# scalar domains (tuples of per-sample domains) whose values a probe plan keeps
SCALAR_DOMAINS = 16


def _compact(a: np.ndarray) -> np.ndarray:
    """A nonnegative integer array in the smallest of uint16 and int32
    that holds it."""
    return a.astype(np.uint16 if a.max(initial=0) < 1 << 16 else np.int32)


def _changes(a: np.ndarray) -> np.ndarray:
    """The mask of the entries of an array that differ from the one before."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _distinct_rows(columns: list, n: int):
    """The distinct rows of the n-row matrix of nonnegative integer
    ``columns``, numbered in order of their first rows: those rows, and per
    row its number.  A row's key packs its columns and then its index
    (renumbered where the next would pass 62 bits), so that one sort puts
    equal rows together in row order."""
    key, bound = np.zeros(n, dtype=np.int64), 1
    for c in [*columns, np.arange(n)]:
        base = int(c.max(initial=0)) + 1
        if bound * base >= 1 << 62:
            key, bound = np.unique(key, return_inverse=True)[1], n
        key, bound = key * base + c, bound * base
    order = np.argsort(key)
    new = _changes(key[order] // max(n, 1))
    by_first = np.argsort(order[new])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.argsort(by_first)[new.cumsum() - 1]
    return order[new][by_first], inverse


def _patterns(slots: np.ndarray, triples: np.ndarray) -> tuple:
    """The distinct sequences of triples (patterns) on the slots, from each
    entry's slot and triple in term order: per pattern entry its pattern
    and triple; per slot reached, ascending, its number and its pattern;
    per pattern its first slot reached."""
    order = np.argsort(slots, kind="stable")
    slots, ordered = slots[order], triples[order]
    start = np.flatnonzero(_changes(slots))
    count = np.diff(start, append=len(slots))
    # per j, each slot's j-th triple plus 1, or 0 past its last
    first, slot_patterns = _distinct_rows(
        [np.where(count > j, ordered[np.minimum(start + j, len(ordered) - 1)] + 1, 0)
         for j in range(int(count.max(initial=0)))], len(start))
    size = count[first]
    at = np.repeat(start[first] - (np.cumsum(size) - size), size) + np.arange(size.sum())
    return np.repeat(np.arange(len(first)), size), ordered[at], slots[start], slot_patterns, first


class _Chunk(NamedTuple):
    """Consecutive expressions of a probe plan, laid out in four levels:
    the plan's keys, tuples of them, triples, and patterns, the distinct
    sequences of triples on an image slot, each summed once."""

    # the plan's expressions in the chunk, by index
    exprs: range
    # per term, in expression then term order: (scalar, ``_scalar_key``)
    scalars: list
    # a term and a plan key index it may read on a row live before the
    # factor, per pair (see ``ProbePlan._read``)
    guard_terms: np.ndarray
    guard_keys: np.ndarray
    # per factor count K: (first tuple id, (tuples, K) plan key indices,
    # each row ascending)
    tuples: list
    # per triple (term, tuple, ladder number): its term, its tuple, and its
    # ladder number as a float and exact (both None when every one is 1)
    triple_terms: np.ndarray
    triple_tuples: np.ndarray
    triple_ladders: np.ndarray | None
    triple_numbers: np.ndarray | None
    # per pattern entry, in pattern then term order: its pattern and its
    # triple; patterns are numbered by their first slot
    entry_patterns: np.ndarray
    entry_triples: np.ndarray
    # per image slot some entry reaches, in (expression, row) order: its
    # row and its pattern, its sequence of triples in term order
    slot_rows: np.ndarray
    slot_patterns: np.ndarray
    # per pattern, the row of its first slot
    pattern_rows: np.ndarray
    # the first slot, and the first pattern, of each expression, and the ends
    expr_starts: np.ndarray
    pattern_starts: np.ndarray


class _TermRead(NamedTuple):
    """A term's word read q-free by ``ProbePlan._read``."""

    # the rows live under the ladder masks after every item
    rows: np.ndarray
    # the diagonal factors read, and per factor the entries of its keys it
    # may read on a row live before it
    factors: list
    guards: list
    # per live row its ladder number (``ProbeRows._walk``), or None when 1
    ladder: np.ndarray | None


class ProbePlan:
    """The q-free layout of a list of expressions on a list of probe
    states, for callers that apply them again at other q and p: relation
    verification (``worst`` numerically, ``images`` exactly) and module
    analysis (``images``).  A word's live rows under its ladder steps (the
    support of its image for every q > 0 and formal q), its ladder numbers
    and its diagonal key codes per row depend on the states and the
    convention only.  The plan reads each word once (``ProbeRows._walk``)
    and lays the expressions out in chunks (``_Chunk``; at most
    ``PLAN_ENTRIES`` entries and ``PLAN_SLOTS`` expressions times states,
    unless one expression is larger) of key codes, tuples of them in the
    order in which ``Engine.apply_word`` multiplies their values, triples
    (term, tuple, ladder number) and patterns, the distinct sequences of
    triples on an image slot (expression, row).

    A call takes a ``ScalarDomain``, whose values the plan builds on its
    first call there and keeps (``_prepare``).  Each pattern is summed once,
    in term order, for all the slots that share it: numerically with
    ``np.bincount``, the per-word sums to the last bit, and exactly in
    ``_prepare``.  A chunk is replayed word by word (``_replayed``), so that
    every error is the per-word path's, in order and text, when a kept term
    may read a failing key on a row live before its factor, when a sum is
    not finite, or when the arithmetic raises.  Indices are uint16 where
    they fit."""

    def __init__(self, sig: Signature, convention: str, states, exprs):
        _check_convention(convention, False)
        rows = ProbeRows(sig, convention, states)
        self.sig = sig
        self.convention = convention
        self.states = states
        self.exprs = tuple(exprs)
        self.size = len(rows.states)
        self._array = rows.states
        # per expression its one net occupation change
        self.changes = []
        columns: dict = {}  # factor -> its ``_Column``
        chunks, reads, entries = [], [], 0
        for e, expr in enumerate(self.exprs):
            read = [self._read(rows, columns, w) for _, w in expr.terms]
            changes = expr.changes(sig)
            if len(changes) > 1:
                raise EngineError(
                    f"a probe batch takes one net occupation change, not {sorted(changes)}")
            self.changes.append(changes.pop() if changes else (0,) * sig.num_modes)
            n = sum(len(term.rows) for term in read)
            if reads and (entries + n > PLAN_ENTRIES or (len(reads) + 1) * self.size > PLAN_SLOTS):
                chunks.append(self._chunk(range(e - len(reads), e), reads, columns))
                reads, entries = [], 0
            reads.append(read)
            entries += n
        if reads:
            chunks.append(self._chunk(range(len(self.exprs) - len(reads), len(self.exprs)),
                                      reads, columns))
        self.codes = sorted({code for c in columns.values() for code in c.codes[1:].tolist()})
        codes = np.array(self.codes, dtype=np.int64)
        self._chunks = [self._keyed(chunk, codes) for chunk in chunks]
        self._prepared: dict = {}  # scalar domain -> what ``_prepare`` builds there

    @staticmethod
    def _read(rows: ProbeRows, columns: dict, word: Word) -> _TermRead:
        """A word read q-free.  A factor whose keys include one that fails
        in every scalar domain (out of the code range, or a bracket ratio
        or angle bracket at 0) keeps the entries it meets on rows live
        before it; any other keeps all its entries, so that a key that
        fails only in some domains may replay a chunk whose rows never
        read it, which gives the same result."""
        factors, guards = [], []

        def diag(item: Diag, live: np.ndarray):
            column = columns.get(item)
            if column is None:
                column = columns[item] = rows._keys(item)
            factors.append(item)
            guards.append(np.flatnonzero(np.bincount(column.entry[live]))
                          if column.failing and live is not rows._all_rows else column.every)

        at, _, ladder = rows._walk(word, diag)
        return _TermRead(at, factors, guards, ladder)

    def _chunk(self, exprs: range, reads: list, columns: dict) -> _Chunk:
        """Lay out the expressions ``exprs`` as one chunk, with key codes
        where ``_keyed`` puts plan key indices."""
        scalars, guard_terms, guard_keys = [], [], []
        slots, ladders = [], []
        by_count: dict = {}  # factor count -> [(term, read, first entry)]
        placed = 0
        for r, e in enumerate(exprs):
            for (c, _), read in zip(self.exprs[e].terms, reads[r]):
                t = len(scalars)
                scalars.append((c, _scalar_key(c)))
                for d, met in zip(read.factors, read.guards):
                    guard_keys.append(columns[d].codes[met])
                    guard_terms.append(np.full(len(met), t))
                n = len(read.rows)
                if n:
                    slots.append(r * self.size + read.rows)
                    ladders.append(np.ones(n, dtype=np.int64) if read.ladder is None else read.ladder)
                    by_count.setdefault(len(read.factors), []).append((t, read, placed))
                    placed += n
        empty = np.zeros(0, dtype=np.intp)
        slots = np.concatenate([empty] + slots)
        numbers, number_of = np.unique(np.concatenate([np.ones(0, dtype=np.int64)] + ladders),
                                       return_inverse=True)
        entry_triples = np.empty(placed, dtype=np.intp)
        triple_terms, triple_ladders, tuples = [], [], []
        for k, group in sorted(by_count.items()):
            # per entry: its term, the entry of each factor's key, its
            # ladder number among ``numbers``
            positions = np.concatenate([np.arange(at, at + len(read.rows))
                                        for _, read, at in group])
            entries = np.stack(
                [np.concatenate([np.full(len(read.rows), t) for t, read, _ in group])]
                + [np.concatenate([columns[read.factors[j]].entry[read.rows] for _, read, _ in group])
                   for j in range(k)]
                + [number_of.reshape(-1)[positions]], axis=1)
            first, inverse = _distinct_rows(list(entries.T), len(positions))
            distinct = entries[first]
            entry_triples[positions] = sum(len(t) for t in triple_terms) + inverse
            # the triples come sorted by term: give each its key codes
            ends = np.searchsorted(distinct[:, 0], [t for t, _, _ in group], side="right")
            codes = np.zeros((len(distinct), k), dtype=np.int64)
            for (_, read, _), lo, hi in zip(group, [0, *ends[:-1]], ends):
                for j, d in enumerate(read.factors):
                    codes[lo:hi, j] = columns[d].codes[distinct[lo:hi, 1 + j]]
            codes.sort(axis=1)
            triple_terms.append(distinct[:, 0])
            triple_ladders.append(numbers[distinct[:, -1]])
            tuples.append(codes)
        triple_terms = np.concatenate([empty] + triple_terms)
        triple_numbers = np.concatenate([numbers[:0]] + triple_ladders)
        triple_numbers = None if (triple_numbers == 1).all() else triple_numbers
        entry_patterns, entry_triples, touched, slot_patterns, first = _patterns(slots, entry_triples)
        slot_rows = touched % max(self.size, 1)
        expr_starts = np.searchsorted(touched, np.arange(len(exprs) + 1) * self.size)
        return _Chunk(
            exprs, scalars,
            _compact(np.concatenate([empty] + guard_terms)),
            np.concatenate([np.zeros(0, np.int64)] + guard_keys),
            tuples, _compact(triple_terms), None,
            None if triple_numbers is None else triple_numbers.astype(float), triple_numbers,
            _compact(entry_patterns), _compact(entry_triples),
            _compact(slot_rows), _compact(slot_patterns), _compact(slot_rows[first]),
            expr_starts, np.searchsorted(first, expr_starts))

    @staticmethod
    def _keyed(chunk: _Chunk, codes: np.ndarray) -> _Chunk:
        """A chunk from ``_chunk`` with plan key indices in place of key
        codes (``_NO_CODE`` takes the last index), and its tuples."""
        tuples, tuple_of, count = [], [], 0
        for mat in chunk.tuples:
            keys = np.searchsorted(codes, mat)
            first, inverse = _distinct_rows(list(keys.T), len(mat))
            tuples.append((count, _compact(keys[first])))
            tuple_of.append(count + inverse)
            count += len(first)
        return chunk._replace(
            guard_keys=_compact(np.searchsorted(codes, chunk.guard_keys)), tuples=tuples,
            triple_tuples=_compact(np.concatenate([np.zeros(0, np.intp)] + tuple_of)))

    def _key_values(self, domain: ScalarDomain) -> tuple:
        """The plan's keys in a scalar domain, over ``codes`` and a last index
        for a key out of the code range: numerically their values, (keys + 1,
        q), 0 where failing; the masks of failing keys and of zero ones."""
        values = [domain._key_value(code, *_key_of(code)) for code in self.codes]
        failing = np.array([v is None for v in values] + [True])
        if domain.exact:
            return None, failing, np.array([v is None or v.is_zero() for v in values] + [True])
        zero = np.zeros(len(domain.scalars))
        table = np.array([zero if v is None else v for v in values] + [zero], dtype=complex)
        return table, failing, ~table.any(axis=1)

    def _prepare(self, domain: ScalarDomain) -> tuple:
        """The plan's values in a scalar domain, kept for ``SCALAR_DOMAINS``
        domains: numerically the key values (``_key_values``); per chunk None
        where a term with a nonzero scalar may read a failing key on a row
        live before its factor (a replay), else numerically (the mask of live
        triples or None, (terms, q) term scalars) and exactly (the mask of
        nonzero patterns, and per pattern its image coefficient or None: the
        sum, in term order, of its triples' ``X = c_t * product`` times
        ladder number).  A triple is dead where its scalar or a key is 0 at
        every q."""
        if domain.domain in self._prepared:
            return self._prepared[domain.domain]
        table, failing, dead = self._key_values(domain)
        codes = self.codes + [_NO_CODE]
        zero = np.zeros(len(domain.scalars))
        parts = []
        for k, chunk in enumerate(self._chunks):
            scalars = [domain._scalar(c, key) for c, key in chunk.scalars]
            kept = np.array([v is not None for v in scalars], dtype=bool)
            if (failing[chunk.guard_keys] & kept[chunk.guard_terms]).any():
                parts.append(None)
            elif domain.exact:
                tuples = [tuple(codes[i] for i in row) for _, m in chunk.tuples for row in m.tolist()]
                xs, numbers = [], chunk.triple_numbers
                for t, g, n in zip(chunk.triple_terms.tolist(), chunk.triple_tuples.tolist(),
                                   itertools.repeat(1) if numbers is None else numbers.tolist()):
                    x = None if scalars[t] is None else domain._x(scalars[t], tuples[g])
                    xs.append(x if x is None or n == 1 else x * n)
                values = np.empty(len(chunk.pattern_rows), dtype=object)
                for p, entries in itertools.groupby(
                        zip(chunk.entry_patterns.tolist(), chunk.entry_triples.tolist()),
                        operator.itemgetter(0)):
                    terms = [xs[t] for _, t in entries if xs[t] is not None]
                    v = functools.reduce(operator.add, terms) if terms else None
                    values[p] = None if v is None or v.is_zero() else v
                parts.append((np.not_equal(values, None), values))
            else:
                live = np.empty(sum(len(m) for _, m in chunk.tuples), dtype=bool)
                for first, mat in chunk.tuples:
                    live[first : first + len(mat)] = ~dead[mat].any(axis=1)
                live = kept[chunk.triple_terms] & live[chunk.triple_tuples]
                parts.append((None if live.all() else live, np.array(
                    [zero if v is None else v for v in scalars], dtype=complex).reshape(
                        len(scalars), len(zero))))
        if len(self._prepared) >= SCALAR_DOMAINS:
            del self._prepared[next(iter(self._prepared))]
        self._prepared[domain.domain] = table, parts
        return table, parts

    def _evaluated(self, domain: ScalarDomain, evaluate) -> list:
        """Per chunk ``evaluate(chunk index, table, part)`` of ``_prepare``'s
        values, or None where ``_prepare`` says so, where the evaluation
        raises, and on every chunk when ``_prepare`` raises."""
        try:
            table, parts = self._prepare(domain)
        except (ArithmeticError, ValueError):
            return [None] * len(self._chunks)
        out = []
        for k, part in enumerate(parts):
            try:
                out.append(None if part is None else evaluate(k, table, part))
            except ArithmeticError:
                out.append(None)
        return out

    def _terms(self, probe: ProbeRows, columns: dict, domain: ScalarDomain, keyed: tuple,
               expr: OperatorExpr):
        """An expression's terms with a nonzero scalar, word by word after
        every scalar is specialized: (live rows, per row contribution), the
        latter (rows, q), or exactly a list of ``X = c * product`` times
        ladder number.  Diagonal values (``keyed``, of ``_key_values``)
        multiply in ascending key code order, then the ladder number, then
        the scalar, as in ``Engine.apply_word``.  A factor's keys are read
        once per ``columns``; a key zero at every q kills its rows, and a
        failing one read on a row live before its factor raises the code
        range error, or else the scalar method's own error for the smallest
        failing key."""
        table, failing, zero = keyed
        scalars = [domain._scalar(c) for c, _ in expr.terms]
        for c, (_, word) in zip(scalars, expr.terms):
            if c is None:
                continue
            read = []  # per diagonal factor read: its ``_Column``, per row its key index

            def diag(item: Diag, live: np.ndarray):
                if item not in columns:
                    # ``_NO_CODE``, entry 0, takes the last index
                    column = probe._keys(item)
                    columns[item] = column, np.searchsorted(self.codes, column.codes)[column.entry]
                column, at = columns[item]
                fails = failing[at] & live
                if fails.any():
                    entry = int(column.entry[fails].min())
                    if not entry:
                        raise EngineError(f"{item.kind} key out of the code range [-2**20, 2**20)")
                    domain._value(*_key_of(int(column.codes[entry])))
                read.append((column, at))
                return ~zero[at]

            rows, _, ladder = probe._walk(word, diag)
            if domain.exact:
                codes = np.sort([column.codes[column.entry[rows]] for column, _ in read],
                                axis=0).tolist()
                xs = [domain._x(c, key) for key in (zip(*codes) if read else [()] * len(rows))]
                yield rows, xs if ladder is None else [x if k == 1 else x * k
                                                       for x, k in zip(xs, ladder.tolist())]
                continue
            if read:
                factors = [table[at[rows]] for _, at in read]
                codes = np.array([column.codes[column.entry[rows]] for column, _ in read])
                if (codes[1:] < codes[:-1]).any():
                    order = np.argsort(codes, axis=0, kind="stable")
                    factors = np.take_along_axis(np.array(factors), order[:, :, None], axis=0)
                value = factors[0]
                for f in factors[1:]:
                    value = value * f
            else:
                value = np.ones((len(rows), len(domain.scalars)), dtype=complex)
            if ladder is not None:
                value = value * ladder[:, None]
                if ladder.dtype == object:
                    value = value.astype(complex)
            yield rows, c * value

    def _replayed(self, chunk: _Chunk, domain: ScalarDomain, images: bool) -> list:
        """A chunk's expressions applied word by word (``_terms``): the
        results the fast path keeps to the last bit, and the plan's errors.
        Per expression, numerically the image magnitude and the largest
        single-term magnitude (the cancellation scale), both (q, states); or
        its images, each row's terms summed in term order from its first, as
        in ``Engine.apply_compiled``.  Probe rows and keys are not kept."""
        probe = ProbeRows(self.sig, self.convention, self.states)
        keyed = self._key_values(domain)
        columns: dict = {}  # factor -> its ``_Column`` and plan key index per row
        shape = (self.size, len(domain.scalars))
        out = []
        for e in chunk.exprs:
            image, scale, sums = np.zeros(shape, dtype=complex), np.zeros(shape), [None] * self.size
            for rows, contrib in self._terms(probe, columns, domain, keyed, self.exprs[e]):
                if not images:
                    image[rows] += contrib
                    scale[rows] = np.maximum(scale[rows], np.abs(contrib))
                    continue
                for r, v in zip(rows.tolist(), contrib if domain.exact else contrib[:, 0].tolist()):
                    sums[r] = v if sums[r] is None else sums[r] + v
            if images:
                rows = [r for r, v in enumerate(sums)
                        if v is not None and not domain.scalars[0].is_zero(v)]
                out.append((np.array(rows, dtype=np.intp), self._array[rows] + self.changes[e],
                            [sums[r] for r in rows]))
            else:
                out.append((np.abs(image).T, scale.T))
        return out

    def _sums(self, k: int, table, part, signed: bool = False):
        """Chunk k's image sums, (q, patterns), and triple contributions,
        (q, triples); a sum that is not finite raises, so the chunk is
        replayed.  Each pattern's live entries sum with ``np.bincount`` in
        term order: the per-word sums of its slots to the last bit, but for
        a zero part, which the per-word sum leaves -0.0 where every term's
        is; ``signed`` restores that sign."""
        chunk = self._chunks[k]
        live, scalars = part
        q = scalars.shape[1]
        product = np.empty((sum(len(m) for _, m in chunk.tuples), q), dtype=complex)
        for first, mat in chunk.tuples:
            if mat.shape[1]:
                value = table[mat[:, 0]]
                for j in range(1, mat.shape[1]):
                    value = value * table[mat[:, j]]
            else:
                value = 1
            product[first : first + len(mat)] = value
        value = product[chunk.triple_tuples]
        if chunk.triple_ladders is not None:
            value = value * chunk.triple_ladders[:, None]
        contrib = (scalars[chunk.triple_terms] * value).T.copy()
        patterns, triples = chunk.entry_patterns, chunk.entry_triples
        if live is not None:
            on = live[triples]
            patterns, triples = patterns[on], triples[on]
        n = len(chunk.pattern_rows)
        image = np.empty((q, n), dtype=complex)
        for i in range(q):
            for terms, out in ((contrib[i].real, image[i].real), (contrib[i].imag, image[i].imag)):
                terms = terms[triples]
                out[...] = np.bincount(patterns, terms, minlength=n)
                zero = out == 0
                if signed and zero.any():
                    out[zero & (np.bincount(patterns, ~np.signbit(terms), minlength=n) == 0)] = -0.0
        if not np.isfinite(image).all():
            raise FloatingPointError("a sum is not finite")
        return image, contrib

    def _residuals(self, k: int, table, part, tolerance: float):
        """Chunk k's largest image magnitude per expression, and its
        residuals, (q, patterns), by the rule of ``worst``."""
        image, contrib = self._sums(k, table, part)
        chunk = self._chunks[k]
        magnitude = np.abs(image)
        largest = _per_expr(np.maximum, magnitude.max(axis=0, initial=0.0), chunk.pattern_starts)
        scaled = np.repeat(largest > tolerance, np.diff(chunk.pattern_starts))
        if not scaled.any():
            return largest, magnitude
        on = scaled[chunk.entry_patterns]
        patterns, size = chunk.entry_patterns[on], np.abs(contrib[:, chunk.entry_triples[on]])
        scale = np.ones(magnitude.shape)
        for i, row in enumerate(scale):
            np.maximum.at(row, patterns, size[i])
        return largest, magnitude / scale

    def _chunk_worst(self, k: int, table, part, tolerance: float) -> list:
        """Chunk k's ``worst`` per expression."""
        largest, residual = self._residuals(k, table, part, tolerance)
        chunk = self._chunks[k]
        starts = chunk.pattern_starts
        worst = _per_expr(np.maximum, residual.max(axis=0, initial=0.0), starts)
        hit = residual == np.repeat(worst, np.diff(starts))
        # per pattern, the first q sample where it reaches its worst, on its
        # first slot, whose row is the least of its slots'
        position = np.where(hit.any(axis=0), hit.argmax(axis=0) * self.size + chunk.pattern_rows,
                            np.iinfo(np.int64).max)
        at = np.where(worst > 0, _per_expr(np.minimum, position, starts), 0)
        return [(float(m), float(w), int(a)) for m, w, a in zip(largest, worst, at)]

    def _numeric_sums(self, k: int, table, part):
        """Chunk k's nonzero patterns and per pattern its one q sample's image."""
        image = self._sums(k, table, part, signed=True)[0][0]
        return image != 0, image

    def worst(self, domain: ScalarDomain, tolerance: float) -> list:
        """Per expression, in order: (its largest image magnitude, its worst
        residual, that residual's first position in q-then-state order as
        q * states + state).  The residual on a (q sample, probe state) is
        the image magnitude over max(1, term scale), the largest magnitude
        one term gives there.  An expression whose largest magnitude is within
        the tolerance forms no term scale and reports its magnitudes, which
        bound its relative residuals: either way it passes exactly when they do.
        Each is formed once per pattern, for every probe state that shares it."""
        if domain.exact:
            raise EngineError("a probe plan takes a numeric batch")
        out = []
        evaluate = functools.partial(self._chunk_worst, tolerance=tolerance)
        for chunk, worst in zip(self._chunks, self._evaluated(domain, evaluate)):
            out += worst if worst is not None else [
                _worst(*r, tolerance) for r in self._replayed(chunk, domain, images=False)]
        return out

    def images(self, domain: ScalarDomain) -> list:
        """Per expression, in order, its images at one q sample or formal q
        on the plan's states: (the ascending rows whose image is not zero,
        their image states, their coefficients), each the per-state
        engine's (``Engine.apply_compiled``), numeric ones to the last bit."""
        _check_convention(self.convention, domain.exact)
        if len(domain.scalars) > 1:
            raise EngineError("images need a single q sample")
        evaluate = (lambda k, table, part: part) if domain.exact else self._numeric_sums
        out = []
        for chunk, sums in zip(self._chunks, self._evaluated(domain, evaluate)):
            if sums is None:
                out += self._replayed(chunk, domain, images=True)
                continue
            nonzero, values = (v.take(chunk.slot_patterns) for v in sums)
            starts = chunk.expr_starts
            for j, e in enumerate(chunk.exprs):
                at = starts[j] + np.flatnonzero(nonzero[starts[j] : starts[j + 1]])
                rows = chunk.slot_rows[at].astype(np.intp)
                out.append((rows, self._array[rows] + self.changes[e], values[at].tolist()))
        return out


def _per_expr(reduce: np.ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per expression of a chunk, ``reduce`` over the values of its
    patterns ``starts[j]:starts[j + 1]``, or 0 where it has none."""
    out = np.zeros(len(starts) - 1, dtype=values.dtype)
    reached = np.flatnonzero(np.diff(starts))
    if len(reached):
        out[reached] = reduce.reduceat(values, starts[reached])
    return out


def _worst(peak: np.ndarray, scale: np.ndarray, tolerance: float) -> tuple:
    """``ProbePlan.worst`` of one expression from its image magnitudes and
    term scales, each (q, states)."""
    largest = float(peak.max(initial=0.0))
    residual = peak / np.maximum(1.0, scale) if largest > tolerance else peak
    k = int(np.argmax(residual))
    return largest, float(residual.flat[k]), k
