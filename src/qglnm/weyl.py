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

A word's scalar is formed in two parts.  The ladder atoms multiply one
plain running number: per bosonic step 1 or l in the monomial convention
and sqrt(l + 1) or sqrt(l) in the orthonormal one, per fermionic step the
sign.  Each diagonal factor
is looked up by what its value depends on: the kind with the affine
argument's (occupation part, p coefficient), or the kind with the mode
argument.  The product of a word's diagonal values is looked up by the
sorted tuple of those keys, since scalars commute, so each distinct
product is multiplied once; it then meets the ladder number once.  Both
caches belong to the engine and last as long as it does, which bounds
them by the distinct keys of the states it is applied to.

``ProbeBatch`` applies the same words to a whole list of probe states at
every q sample at once, with numpy: states are rows of an integer array,
q samples a second axis, and each scalar is formed from the same factors
in the same order as above, so it equals the per-state engine's.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeff import CoeffExact, LaurentPoly, bracket_affine, bracket_int, bracket_value
from .fock import EVEN, FockState, Signature, mode_parity


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
    if len(a) < len(b):
        a = a + (0,) * (len(b) - len(a))
    elif len(b) < len(a):
        b = b + (0,) * (len(a) - len(b))
    return tuple(x + y for x, y in zip(a, b))


def affine_mode(sig: Signature, i: int, coeff: int = 1) -> Affine:
    """The occupation number N_i as an affine expression."""
    coeffs = [0] * sig.num_modes
    coeffs[i - 1] = coeff
    return Affine(0, 0, tuple(coeffs))


def affine_total(sig: Signature) -> Affine:
    """The total occupation N = N_1 + ... + N_{r-1}."""
    return Affine(0, 0, (1,) * sig.num_modes)


def affine_p_minus_total(sig: Signature, shift: int = 0) -> Affine:
    """p - N + shift, the recurring first-mode diagonal argument."""
    return Affine(shift, 1, (-1,) * sig.num_modes)


# Diagonal factor kinds:
#   affine        value of the affine expression itself
#   bracket       q-bracket [affine]
#   bracket_ratio [N_mode + shift] / (N_mode + shift)
#   angle         ([N_mode + shift] / (N_mode + shift)) ** 1/2 on bosonic
#                 modes, identically 1 on fermionic modes
#   sqrt_bracket  sqrt([affine]), numeric only
#   qpow          q ** affine
_AFFINE_KINDS = frozenset(("affine", "bracket", "sqrt_bracket", "qpow"))
_MODE_KINDS = frozenset(("bracket_ratio", "angle"))
# A diagonal key (kind, argument[, p coefficient]) packed into one int64
# that orders like the tuple, for arguments below 2**20 in magnitude.
_KIND_RANK = {kind: rank for rank, kind in enumerate(sorted(_AFFINE_KINDS | _MODE_KINDS))}
_CODE_BIAS = 1 << 20


@dataclass(frozen=True)
class Diag:
    kind: str
    affine: Affine | None = None
    mode: int | None = None
    shift: int = 0


@dataclass(frozen=True)
class Raise:
    mode: int


@dataclass(frozen=True)
class Lower:
    mode: int


Atom = Raise | Lower | Diag
Word = tuple


def atom_parity(sig: Signature, atom: Atom) -> int:
    if isinstance(atom, (Raise, Lower)):
        return mode_parity(sig, atom.mode)
    return EVEN


def word_parity(sig: Signature, word: Word) -> int:
    return sum(atom_parity(sig, a) for a in word) % 2


def word_degree_shift(word: Word) -> int:
    """Net change in total occupation caused by the word."""
    return sum(1 if isinstance(a, Raise) else -1 if isinstance(a, Lower) else 0 for a in word)


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

    def collect(self) -> "OperatorExpr":
        """Merge terms with identical words, dropping exact zeros."""
        merged: dict[Word, CoeffExact] = {}
        for c, w in self.terms:
            merged[w] = merged[w] + c if w in merged else c
        return OperatorExpr([(c, w) for w, c in merged.items() if not c.is_zero()])

    def parity(self, sig: Signature) -> int:
        parities = {word_parity(sig, w) for _, w in self.terms}
        if len(parities) > 1:
            raise ValueError("expression is not parity-homogeneous")
        return parities.pop() if parities else EVEN

    def degree_shifts(self) -> set[int]:
        return {word_degree_shift(w) for _, w in self.terms}

    def __repr__(self):
        return f"OperatorExpr({len(self.terms)} terms)"


def super_commutator(
    sig: Signature, x: OperatorExpr, y: OperatorExpr, qfactor: CoeffExact | None = None
) -> OperatorExpr:
    """x*y - (-1)**(deg x * deg y) * qfactor * y*x for homogeneous x, y."""
    sign = -1 if x.parity(sig) and y.parity(sig) else 1
    yx = (y * x).scaled(sign)
    if qfactor is not None:
        yx = yx.scaled(qfactor)
    return x * y - yx


class EngineError(ValueError):
    pass


def _zero_argument(kind: str) -> ZeroDivisionError:
    what = "bracket ratio" if kind == "bracket_ratio" else "angle bracket"
    return ZeroDivisionError(f"{what} evaluated at argument 0")


class ExactScalars:
    """Laurent-fraction scalars: q formal, p formal (None) or an integer.
    classical=True specializes q = 1, turning every bracket into its plain
    affine argument."""

    mode = "exact"

    def __init__(self, p, classical):
        if p is not None and not isinstance(p, int):
            raise EngineError("a formal q takes only a formal or integer p")
        self.p = p
        self.classical = classical
        self.one = CoeffExact.one()

    def from_coeff(self, c: CoeffExact) -> CoeffExact:
        if self.p is not None:
            c = c.subst_p_int(self.p)
        return c.subst_q1() if self.classical else c

    def is_zero(self, v: CoeffExact) -> bool:
        return v.is_zero()

    def affine(self, c: int, pc: int) -> CoeffExact:
        if self.p is not None:
            return CoeffExact.from_int(c + pc * self.p)
        return CoeffExact(LaurentPoly({(0, 0, 0): Fraction(c), (0, 0, 1): Fraction(pc)}))

    def bracket(self, c: int, pc: int) -> CoeffExact:
        if self.classical:
            return self.affine(c, pc)
        return bracket_affine(c, pc, p_value=self.p)

    def bracket_ratio(self, v: int) -> CoeffExact:
        return self.one if self.classical else bracket_int(v) / v

    def angle(self, v: int) -> CoeffExact:
        if self.classical:
            return self.one
        raise EngineError("angle brackets on bosonic modes are numeric only")

    def sqrt_bracket(self, c: int, pc: int):
        raise EngineError("sqrt brackets are numeric only")

    def qpow(self, c: int, pc: int) -> CoeffExact:
        if self.classical:
            return self.one
        if self.p is not None:
            return CoeffExact(LaurentPoly.monomial(q_exp=c + pc * self.p))
        return CoeffExact(LaurentPoly.monomial(q_exp=c, P_exp=pc))


class NumericScalars:
    """Float/complex scalars at a real q > 0 (q = 1 takes the classical
    bracket limit) and a real p, which may stay unset while no evaluation
    needs it."""

    mode = "numeric"
    one = 1.0

    def __init__(self, q, p):
        if q <= 0:
            raise EngineError("q must be positive")
        self.q = q
        self.p = p

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

    def bracket_ratio(self, v: int) -> float:
        return bracket_value(v, self.q) / v

    def angle(self, v: int) -> float:
        return math.sqrt(bracket_value(v, self.q) / v)

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


class Engine:
    """Evaluation context: basis convention, the values (or formal status)
    of q and p, and the scalar domain they imply.

    Formal q (None) means exact arithmetic over the fraction field, with p
    formal or an integer; classical=True specializes q = 1 there, turning
    every bracket into its plain affine argument.  A numeric q > 0 means
    float/complex arithmetic with real p (q = 1 gets the same classical
    bracket limit).  The orthonormal convention introduces square roots
    and therefore needs a numeric q.
    """

    def __init__(self, sig: Signature, convention="monomial", q=None, p=None,
                 classical=False):
        if convention not in ("monomial", "orthonormal"):
            raise EngineError(f"unknown convention {convention!r}")
        if q is None:
            if convention == "orthonormal":
                raise EngineError("orthonormal convention needs square roots; give a numeric q")
            self.scalars = ExactScalars(p, classical)
        elif classical:
            raise EngineError("classical flag applies to exact mode; use q=1 numerically")
        else:
            self.scalars = NumericScalars(q, p)
        self.sig = sig
        self.convention = convention
        self.q = q
        # diagonal key -> value, None for a zero value
        self._diag_values: dict = {}
        # sorted tuple of diagonal keys -> product of their values
        self._diag_products: dict = {}

    @property
    def mode(self) -> str:
        """The scalar regime implied by q: "exact" or "numeric"."""
        return self.scalars.mode

    def one(self):
        return self.scalars.one

    # -- diagonal factors ----------------------------------------------

    def eval_diag(self, d: Diag, state: FockState):
        kind = d.kind
        if kind in _AFFINE_KINDS:
            c, pc = d.affine.eval_parts(state)
            return getattr(self.scalars, kind)(c, pc)
        if kind == "angle" and self.sig.is_fermionic(d.mode):
            return self.scalars.one
        if kind in _MODE_KINDS:
            v = state[d.mode - 1] + d.shift
            if v == 0:
                raise _zero_argument(kind)
            return getattr(self.scalars, kind)(v)
        raise EngineError(f"unknown diagonal kind {kind!r}")

    def _diag_key(self, d: Diag, state: FockState):
        """What the value of a diagonal factor on a state depends on:
        (kind, c, pc) for the affine kinds, (kind, v) for the mode kinds,
        None for a fermionic angle (identically one)."""
        kind = d.kind
        if kind in _AFFINE_KINDS:
            c, pc = d.affine.eval_parts(state)
            return kind, c, pc
        if kind in _MODE_KINDS:
            if kind == "angle" and self.sig.is_fermionic(d.mode):
                return None
            return kind, state[d.mode - 1] + d.shift
        raise EngineError(f"unknown diagonal kind {kind!r}")

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

        The ladder numbers multiply as plain numbers; the diagonal values
        and their product come from the engine's caches, and the two meet
        once at the end."""
        values = self._diag_values
        keys = []
        ladder = 1
        for atom in reversed(word):
            if isinstance(atom, Diag):
                key = self._diag_key(atom, state)
                if key is None:
                    continue
                try:
                    val = values[key]
                except KeyError:
                    # a ZeroDivisionError at argument 0 propagates uncached
                    val = self.eval_diag(atom, state)
                    if self.scalars.is_zero(val):
                        val = None
                    values[key] = val
                if val is None:
                    return None
                keys.append(key)
            else:
                res = self._ladder(atom, state)
                if res is None:
                    return None
                step, state = res
                ladder *= step
        if not keys:
            scalar = self.scalars.one
        elif len(keys) == 1:
            scalar = values[keys[0]]
        else:
            keys.sort()
            keys = tuple(keys)
            scalar = self._diag_products.get(keys)
            if scalar is None:
                scalar = values[keys[0]]
                for key in keys[1:]:
                    scalar = scalar * values[key]
                self._diag_products[keys] = scalar
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

    def apply(self, expr: OperatorExpr, target) -> dict:
        """Apply an expression to a state or to a {state: coeff} vector."""
        compiled = self.compile(expr)
        if isinstance(target, tuple):
            return self.apply_compiled(compiled, target)
        out: dict = {}
        for state, coeff in target.items():
            for s, v in self.apply_compiled(compiled, state).items():
                acc = out.get(s)
                out[s] = coeff * v if acc is None else acc + coeff * v
        return {s: v for s, v in out.items() if not self.scalars.is_zero(v)}

    def max_abs(self, vec: dict) -> float:
        """Largest coefficient magnitude of a numeric state vector."""
        return max((abs(v) for v in vec.values()), default=0.0)


class ProbeBatch:
    """Numeric engines, one per q sample, applied to a fixed list of probe
    states at once.

    The states are the rows of an (S, modes) integer array and the q
    samples a second axis, so applying a word costs one column operation
    per atom instead of one walk per state and q.  A ladder atom shifts one
    column and multiplies a per-row plain number, exactly the numbers of
    ``Engine._ladder``; rows whose image is zero drop out at once, so every
    later atom sees only live rows and never raises or warns on a dead one.
    Each diagonal factor is evaluated once per distinct argument and q
    sample by the engines' own scalar methods, so every factor is the
    float the per-state engine uses, and the products are taken in its
    order.  The engines share one signature and convention.
    """

    def __init__(self, engines: list, states: list):
        if any(e.mode != "numeric" for e in engines):
            raise EngineError("batched application needs a numeric q")
        self.engines = engines
        self.sig = engines[0].sig
        self.convention = engines[0].convention
        self.states = np.array(states, dtype=np.int64).reshape(len(states), self.sig.num_modes)
        # diagonal key -> values over the q samples
        self._values: dict = {}

    def compile(self, expr: OperatorExpr) -> list:
        """Specialize the term scalars at every q sample once: a list of
        (values over q, word); a term that is zero at every q drops."""
        compiled = []
        for c, w in expr.terms:
            values = np.array([e.scalars.from_coeff(c) for e in self.engines], dtype=complex)
            if values.any():
                compiled.append((values, w))
        return compiled

    def _diag(self, d: Diag, states: np.ndarray):
        """Values of a diagonal factor on the given rows at every q sample,
        shape (rows, q), after a per-row code that orders like the factor's
        key in ``Engine._diag_key``; None for a fermionic angle
        (identically one)."""
        kind = d.kind
        pc = ()  # the p coefficient, which ends the key of an affine kind
        if kind in _AFFINE_KINDS:
            coeffs = np.array(d.affine.mode_coeffs, dtype=np.int64)
            args = d.affine.const + states[:, : len(coeffs)] @ coeffs
            pc = (d.affine.p_coeff,)
        elif kind in _MODE_KINDS:
            if kind == "angle" and self.sig.is_fermionic(d.mode):
                return None
            args = states[:, d.mode - 1] + d.shift
            if not args.all():
                raise _zero_argument(kind)
        else:
            raise EngineError(f"unknown diagonal kind {kind!r}")
        distinct, inverse = np.unique(args, return_inverse=True)
        table = []
        for v in distinct.tolist():
            key = (kind, v) + pc
            values = self._values.get(key)
            if values is None:
                values = np.array([getattr(e.scalars, kind)(v, *pc) for e in self.engines],
                                  dtype=complex)
                self._values[key] = values
            table.append(values)
        rank = _KIND_RANK[kind] << 42
        codes = rank + ((args + _CODE_BIAS) << 21) + (pc[0] if pc else 0) + _CODE_BIAS
        return codes, np.array(table)[inverse]

    def _ladder(self, atom: Raise | Lower, states: np.ndarray):
        """Column form of ``Engine._ladder``: (live mask, or None when no
        row dies; per-row plain number, or None when it is 1; image
        states).  Rows that die get a number too, which the caller drops."""
        i = atom.mode - 1
        col = states[:, i]
        lower = isinstance(atom, Lower)
        out = states.copy()
        if self.sig.is_fermionic(atom.mode):
            # raising needs an empty mode, lowering a filled one; both flip it
            out[:, i] = 1 - col
            # the sign counts the occupied fermionic modes strictly left of i
            sign = 1 - 2 * (states[:, self.sig.n - 1 : i].sum(axis=1) % 2)
            return col == lower, sign, out
        if lower:
            live, k = col > 0, col
            out[:, i] = col - 1
        else:
            live, k = None, col + 1
            out[:, i] = k
        if self.convention == "orthonormal":
            return live, np.sqrt(k), out
        return live, (k if lower else None), out

    def apply_word(self, word: Word):
        """Apply a word (atoms right to left) to every probe state at every
        q sample.  Returns (rows, images, values): the indices of the probe
        states whose image is not zero at every q, their image states, and
        the scalars, shape (rows, q).

        As in ``Engine.apply_word`` the ladder numbers multiply in word
        order and the diagonal values in the order of their keys, so
        the scalars are the per-state engine's to the last bit."""
        rows = np.arange(len(self.states))
        states = self.states
        ladder = None  # per-row plain number
        codes, factors = [], []  # per diagonal factor: per-row key codes and values
        for atom in reversed(word):
            if isinstance(atom, Diag):
                diag = self._diag(atom, states)
                if diag is None:
                    continue
                code, value = diag
                codes.append(code)
                factors.append(value)
                live = value.any(axis=1)
            else:
                live, step, states = self._ladder(atom, states)
                if step is not None:
                    ladder = step if ladder is None else ladder * step
            if live is not None and not live.all():
                rows, states = rows[live], states[live]
                ladder = None if ladder is None else ladder[live]
                codes = [c[live] for c in codes]
                factors = [f[live] for f in factors]
                if not len(rows):
                    break
        if not factors:
            values = np.ones((len(rows), len(self.engines)), dtype=complex)
        elif len(factors) == 1:
            values = factors[0]
        else:
            order = np.argsort(np.array(codes), axis=0, kind="stable")
            factors = np.take_along_axis(np.array(factors), order[:, :, None], axis=0)
            values = factors[0]
            for f in factors[1:]:
                values = values * f
        if ladder is not None:
            values = values * ladder[:, None]
        return rows, states, values

    def max_abs_images(self, compiled: list):
        """For every (q sample, probe state): the largest coefficient
        magnitude of the image of a compiled expression, and the largest
        magnitude any single term produces (the scale against which
        cancellation error is measured).  Both have shape (q, states).

        The image of a live row is the row shifted by the word's net
        occupation change, so the terms sharing that change sum into one
        dense (states, q) array."""
        shape = (len(self.states), len(self.engines))
        sums: dict = {}  # net occupation change -> summed term images
        scale = np.zeros(shape)
        for c, w in compiled:
            rows, _, values = self.apply_word(w)
            contrib = c * values
            change = [0] * self.sig.num_modes
            for atom in w:
                if not isinstance(atom, Diag):
                    change[atom.mode - 1] += 1 if isinstance(atom, Raise) else -1
            acc = sums.get(tuple(change))
            if acc is None:
                acc = sums[tuple(change)] = np.zeros(shape, dtype=complex)
            acc[rows] += contrib
            scale[rows] = np.maximum(scale[rows], np.abs(contrib))
        peak = np.zeros(shape)
        for acc in sums.values():
            np.maximum(peak, np.abs(acc), out=peak)
        return peak.T, scale.T
