"""Oscillator realizations of U_q[gl(n/m)] on the graded Fock space.

Two homomorphisms into the Weyl superalgebra are built as operator
expressions, generator by generator:

* the Dyson realization, whose coefficients are bracket ratios
  [N+1]/(N+1) and the bracket [p - N]; it stays inside the exact
  fraction field (no square roots) and works for formal p;

* the Holstein-Primakoff realization, whose square-root coefficients
  sqrt([p - N]) and angle brackets <N+c> = ([N+c]/(N+c))**(1/2) make the
  finite module unitarizable; it is evaluated numerically.

Both send h_1 to p - N and h_i to N_{i-1}; the first e/f pair moves
quanta in and out of the implicit zeroth column, all other generators
hop quanta between adjacent modes.

Every diagonal factor is a function of one affine argument in the
occupations and p: [p - N], [N_i + c]/(N_i + c), <N_i + c>.  Wherever
an angle bracket of a fermionic mode acts in these words, it sees the
filled mode of a raising or the empty mode of a lowering with c = 1, so
its argument is 1 and it equals one; it is left out of the words.  Each
generator image moves the occupations by one fixed vector.

The deformed oscillators Atilde_i^- = <N_i+1> A_i^-, Atilde_i^+ =
<N_i> A_i^+ (with Ntilde_i = N_i) are also provided, together with the
alternative form of the Holstein-Primakoff map written purely in terms
of them; the two forms agree as operators but evaluate their diagonal
factors at different intermediate states, so comparing them exercises
the shift identities nontrivially.

Seeded mutations (used to prove the verifier can fail) are applied to
the Dyson images: dropping a bracket-ratio factor, flipping the sign of
the odd generator image, or shifting the boundary bracket argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fock import Signature
from .presentation import E, F, H, GenSymbol, HBracket, generator_parity
from .weyl import (
    Affine,
    Diag,
    Lower,
    OperatorExpr,
    Raise,
    affine_mode,
    affine_p_minus_total,
)

DYSON = "dyson"
HP = "hp"
HP_DEFORMED = "hp-deformed"

MUTATIONS = ("drop_bracket_ratio", "flip_fermion_sign", "shift_e1_bracket")


@dataclass
class Realization:
    """Generator images as operator expressions, plus the diagonal affine
    eigenvalue of each Cartan generator (used to substitute bracket-of-h
    right sides)."""

    sig: Signature
    images: dict[GenSymbol, OperatorExpr] = field(default_factory=dict)
    h_affines: dict[int, Affine] = field(default_factory=dict)

    def image(self, g: GenSymbol) -> OperatorExpr:
        try:
            return self.images[g]
        except KeyError:
            raise KeyError(f"no image for generator {g}") from None

    def h_bracket(self, letter: HBracket) -> Affine:
        """The argument of a bracket-of-h letter as an affine expression:
        the Cartan eigenvalues it adds minus those it subtracts."""
        return (sum((self.h_affines[i] for i in letter.plus), Affine())
                - sum((self.h_affines[j] for j in letter.minus), Affine()))


def h_affine(sig: Signature, i: int) -> Affine:
    """Eigenvalue of h_i as an affine expression: p - N for i = 1,
    N_{i-1} for i >= 2."""
    if i == 1:
        return affine_p_minus_total(sig)
    return affine_mode(sig, i - 1)


def _base(sig: Signature) -> Realization:
    real = Realization(sig)
    for i in range(1, sig.r + 1):
        aff = h_affine(sig, i)
        real.h_affines[i] = aff
        real.images[GenSymbol(H, i)] = OperatorExpr.from_word(Diag("affine", affine=aff))
    return real


def _ratio(sig: Signature, i: int, shift: int) -> Diag:
    """The bracket ratio [N_i + shift] / (N_i + shift)."""
    return Diag("bracket_ratio", affine=affine_mode(sig, i).shift(shift))


def _angle(sig: Signature, i: int, shift: int) -> tuple[Diag, ...]:
    """The angle bracket <N_i + shift> as a word fragment: empty on a
    fermionic mode, where the factor is identically one."""
    if sig.is_fermionic(i):
        return ()
    return (Diag("angle", affine=affine_mode(sig, i).shift(shift)),)


def dyson(sig: Signature, mutation: str | None = None) -> Realization:
    """The Dyson-type homomorphism; exact for formal p."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    n, r = sig.n, sig.r
    real = _base(sig)

    e1_bracket = affine_p_minus_total(sig, 1 if mutation == "shift_e1_bracket" else 0)
    real.images[GenSymbol(E, 1)] = OperatorExpr.from_word(
        _ratio(sig, 1, 1), Diag("bracket", affine=e1_bracket), Lower(1)
    )
    for i in range(2, n):
        atoms = [_ratio(sig, i, 1), Raise(i - 1), Lower(i)]
        if i == 2 and mutation == "drop_bracket_ratio":
            atoms = atoms[1:]
        real.images[GenSymbol(E, i)] = OperatorExpr.from_word(*atoms)
    for i in range(n, r):
        expr = OperatorExpr.from_word(Raise(i - 1), Lower(i))
        if i == n and mutation == "flip_fermion_sign":
            expr = -expr
        real.images[GenSymbol(E, i)] = expr

    real.images[GenSymbol(F, 1)] = OperatorExpr.from_word(Raise(1))
    for i in range(2, n + 1):
        if i <= r - 1:
            real.images[GenSymbol(F, i)] = OperatorExpr.from_word(
                _ratio(sig, i - 1, 1), Raise(i), Lower(i - 1)
            )
    for i in range(n + 1, r):
        real.images[GenSymbol(F, i)] = OperatorExpr.from_word(Raise(i), Lower(i - 1))

    if mutation == "drop_bracket_ratio" and sig.n < 3:
        raise ValueError("drop_bracket_ratio needs n >= 3 (the image of e_2 has no ratio factor otherwise)")
    if mutation == "flip_fermion_sign" and sig.m < 1:
        raise ValueError("flip_fermion_sign needs m >= 1")
    _check_parities(real)
    return real


def hp(sig: Signature) -> Realization:
    """The Holstein-Primakoff-type homomorphism; numeric evaluation only."""
    n, r = sig.n, sig.r
    real = _base(sig)
    real.images[GenSymbol(E, 1)] = OperatorExpr.from_word(
        Diag("sqrt_bracket", affine=affine_p_minus_total(sig)), *_angle(sig, 1, 1), Lower(1)
    )
    real.images[GenSymbol(F, 1)] = OperatorExpr.from_word(
        Diag("sqrt_bracket", affine=affine_p_minus_total(sig, 1)), *_angle(sig, 1, 0), Raise(1)
    )
    for i in range(2, r):
        real.images[GenSymbol(E, i)] = OperatorExpr.from_word(
            *_angle(sig, i - 1, 0), *_angle(sig, i, 1), Raise(i - 1), Lower(i)
        )
        real.images[GenSymbol(F, i)] = OperatorExpr.from_word(
            *_angle(sig, i - 1, 1), *_angle(sig, i, 0), Raise(i), Lower(i - 1)
        )
    _check_parities(real)
    return real


def tilde_minus(sig: Signature, i: int) -> OperatorExpr:
    """Deformed annihilation operator for mode i."""
    return OperatorExpr.from_word(*_angle(sig, i, 1), Lower(i))


def tilde_plus(sig: Signature, i: int) -> OperatorExpr:
    """Deformed creation operator for mode i."""
    return OperatorExpr.from_word(*_angle(sig, i, 0), Raise(i))


def tilde_number(sig: Signature, i: int) -> OperatorExpr:
    """Deformed number operator (coincides with N_i)."""
    return OperatorExpr.from_word(Diag("affine", affine=affine_mode(sig, i)))


def tilde_ops(sig: Signature) -> dict:
    """All deformed operators, keyed by ('+', i), ('-', i) and ('N', i)."""
    ops = {}
    for i in range(1, sig.num_modes + 1):
        ops[("+", i)] = tilde_plus(sig, i)
        ops[("-", i)] = tilde_minus(sig, i)
        ops[("N", i)] = tilde_number(sig, i)
    return ops


def hp_deformed(sig: Signature) -> Realization:
    """The Holstein-Primakoff map written through the deformed operators.
    Agrees with ``hp`` as an operator map, via the diagonal shift
    identities, but with differently placed diagonal factors."""
    n, r = sig.n, sig.r
    real = _base(sig)
    sqrt_down = OperatorExpr.from_word(Diag("sqrt_bracket", affine=affine_p_minus_total(sig)))
    sqrt_up = OperatorExpr.from_word(Diag("sqrt_bracket", affine=affine_p_minus_total(sig, 1)))
    real.images[GenSymbol(E, 1)] = sqrt_down * tilde_minus(sig, 1)
    real.images[GenSymbol(F, 1)] = sqrt_up * tilde_plus(sig, 1)
    for i in range(2, r):
        real.images[GenSymbol(E, i)] = tilde_plus(sig, i - 1) * tilde_minus(sig, i)
        real.images[GenSymbol(F, i)] = tilde_plus(sig, i) * tilde_minus(sig, i - 1)
    _check_parities(real)
    return real


def realization(kind: str, sig: Signature, mutation: str | None = None) -> Realization:
    if kind == DYSON:
        return dyson(sig, mutation)
    if mutation is not None:
        raise ValueError("mutations are defined for the Dyson realization")
    if kind == HP:
        return hp(sig)
    if kind == HP_DEFORMED:
        return hp_deformed(sig)
    raise ValueError(f"unknown realization kind {kind!r}")


def _check_parities(real: Realization):
    """Every generator image must have the parity of the abstract generator."""
    for g, expr in real.images.items():
        if expr.parity(real.sig) != generator_parity(real.sig, g):
            raise AssertionError(f"parity mismatch for image of {g}")
