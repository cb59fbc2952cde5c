"""The defining presentation of the quantum superalgebra U_q[gl(n/m)].

Generators are h_1..h_r (Cartan, even) and e_1..e_{r-1}, f_1..f_{r-1}
(raising/lowering), where r = n + m.  The generators e_n and f_n are odd
when m >= 1; all others are even.

``build_relations`` machine-generates the complete defining relation list
for a signature: the Cartan-Kac family (commutators of h with e and f,
the e-f commutation and the two e-f bracket relations whose right sides
are q-brackets of Cartan combinations), the quadratic and cubic Serre
relations for the e generators, the quartic Serre relation around the odd
node, and the mirror images of all Serre relations under e <-> f.

Emission is range-driven: a relation is produced exactly when every
generator index it mentions exists for the signature, so small signatures
silently lose the families that do not fit (for m = 0 this leaves the
standard one-parameter deformation of gl(n)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import CoeffExact, bracket_int
from .fock import EVEN, ODD, Signature

H, E, F = "h", "e", "f"


@dataclass(frozen=True)
class GenSymbol:
    kind: str  # 'h' | 'e' | 'f'
    index: int

    def __str__(self):
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class HBracket:
    """The q-bracket of an integer combination of Cartan generators,
    [sum(h_i for i in plus) - sum(h_j for j in minus)].

    This is the right-side atom of the two e-f bracket relations; keeping
    the whole bracket as one atom (rather than a pair of q**(+-h)
    monomials over q - q**-1) leaves the q -> 1 limit well defined.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...] = ()

    def __str__(self):
        inner = "+".join(f"h{i}" for i in self.plus)
        if self.minus:
            inner += "".join(f"-h{j}" for j in self.minus)
        return f"[{inner}]"


Letter = GenSymbol | HBracket
GenTerm = tuple[CoeffExact, tuple[Letter, ...]]


@dataclass(frozen=True)
class Relation:
    """A defining relation lhs = rhs, both sides expanded into scalar-
    weighted generator words.  ``bracket_note`` records whether the printed
    form of the left side was a commutator or an anticommutator."""

    name: str
    lhs: tuple[GenTerm, ...]
    rhs: tuple[GenTerm, ...]
    bracket_note: str = ""


def theta(sig: Signature, i: int) -> int:
    """Mode grading: 0 for i < n, 1 for i >= n (defined for any i >= 0)."""
    return ODD if i >= sig.n else EVEN


def generator_parity(sig: Signature, g: GenSymbol) -> int:
    if g.kind == H:
        if not 1 <= g.index <= sig.r:
            raise IndexError(f"h index {g.index} out of range 1..{sig.r}")
        return EVEN
    if not 1 <= g.index <= sig.r - 1:
        raise IndexError(f"{g.kind} index {g.index} out of range 1..{sig.r - 1}")
    return (theta(sig, g.index - 1) + theta(sig, g.index)) % 2


def generators(sig: Signature) -> list[GenSymbol]:
    """Every generator: h_1..h_r, then e_1..e_{r-1}, then f_1..f_{r-1}."""
    return ([GenSymbol(H, i) for i in range(1, sig.r + 1)]
            + [GenSymbol(k, i) for k in (E, F) for i in range(1, sig.r)])


def letter_parity(sig: Signature, letter: Letter) -> int:
    if isinstance(letter, HBracket):
        return EVEN
    return generator_parity(sig, letter)


def word_parity(sig: Signature, word) -> int:
    return sum(letter_parity(sig, a) for a in word) % 2


def _w(scalar, *letters) -> GenTerm:
    if isinstance(scalar, int):
        scalar = CoeffExact.from_int(scalar)
    return (scalar, tuple(letters))


def swap_e_f(rel: Relation) -> Relation:
    """The image of a relation under the symbol swap e <-> f."""

    def swap_letter(a):
        if isinstance(a, GenSymbol) and a.kind in (E, F):
            return GenSymbol(E if a.kind == F else F, a.index)
        return a

    def swap_side(side):
        return tuple((c, tuple(swap_letter(a) for a in w)) for c, w in side)

    name = rel.name.replace("e", "\0").replace("f", "e").replace("\0", "f")
    return Relation(name, swap_side(rel.lhs), swap_side(rel.rhs), rel.bracket_note)


def build_relations(sig: Signature) -> list[Relation]:
    """The complete machine-generated defining relation list for (n, m)."""
    n, r = sig.n, sig.r
    gens = range(1, r)  # e/f indices
    rels: list[Relation] = []

    def h(i):
        return GenSymbol(H, i)

    def e(i):
        return GenSymbol(E, i)

    def f(i):
        return GenSymbol(F, i)

    # Cartan-Kac family.
    for i in range(1, r + 1):
        for j in gens:
            ce = (1 if i == j else 0) - (1 if i == j + 1 else 0)
            rels.append(Relation(
                f"CK1[i={i},j={j}]",
                (_w(1, h(i), e(j)), _w(-1, e(j), h(i))),
                (_w(ce, e(j)),) if ce else (),
                "commutator",
            ))
            rels.append(Relation(
                f"CK2[i={i},j={j}]",
                (_w(1, h(i), f(j)), _w(-1, f(j), h(i))),
                (_w(-ce, f(j)),) if ce else (),
                "commutator",
            ))
    for i in gens:
        for j in gens:
            if i != j:
                rels.append(Relation(
                    f"CK3[i={i},j={j}]",
                    (_w(1, e(i), f(j)), _w(-1, f(j), e(i))),
                    (),
                    "commutator",
                ))
        if i != n:  # with m = 0 every i qualifies, since then n = r is not a generator index
            rels.append(Relation(
                f"CK4[i={i}]",
                (_w(1, e(i), f(i)), _w(-1, f(i), e(i))),
                (_w(1, HBracket((i,), (i + 1,))),),
                "commutator",
            ))
    if sig.m >= 1:
        rels.append(Relation(
            "CK5",
            (_w(1, e(n), f(n)), _w(1, f(n), e(n))),
            (_w(1, HBracket((n, n + 1))),),
            "anticommutator",
        ))

    # Serre relations for the e generators, then their f mirrors.
    e_serre: list[Relation] = []
    for i in gens:
        for j in gens:
            if j > i and abs(i - j) != 1:
                e_serre.append(Relation(
                    f"S6e[i={i},j={j}]",
                    (_w(1, e(i), e(j)), _w(-1, e(j), e(i))),
                    (),
                    "commutator",
                ))
    if sig.m >= 1 and n in gens:
        e_serre.append(Relation(f"S6e_sq[i={n}]", (_w(1, e(n), e(n)),), (), ""))
    qq = bracket_int(2)  # q + q**-1
    cubic_range_7 = list(range(1, n)) + list(range(n + 1, r - 1))
    for i in cubic_range_7:
        if i + 1 in gens:
            e_serre.append(Relation(
                f"S7e[i={i}]",
                (
                    _w(1, e(i), e(i), e(i + 1)),
                    _w(-1 * qq, e(i), e(i + 1), e(i)),
                    _w(1, e(i + 1), e(i), e(i)),
                ),
                (),
                "",
            ))
    cubic_range_8 = list(range(1, n - 1)) + list(range(n, r - 1))
    for i in cubic_range_8:
        if i + 1 in gens:
            e_serre.append(Relation(
                f"S8e[i={i}]",
                (
                    _w(1, e(i + 1), e(i + 1), e(i)),
                    _w(-1 * qq, e(i + 1), e(i), e(i + 1)),
                    _w(1, e(i), e(i + 1), e(i + 1)),
                ),
                (),
                "",
            ))
    if sig.m >= 1 and (n - 1) in gens and (n + 1) in gens:
        e_serre.append(Relation(
            "S9e",
            (
                _w(1, e(n), e(n - 1), e(n), e(n + 1)),
                _w(1, e(n - 1), e(n), e(n + 1), e(n)),
                _w(1, e(n), e(n + 1), e(n), e(n - 1)),
                _w(1, e(n + 1), e(n), e(n - 1), e(n)),
                _w(-1 * qq, e(n), e(n - 1), e(n + 1), e(n)),
            ),
            (),
            "",
        ))

    rels.extend(e_serre)
    rels.extend(swap_e_f(rel) for rel in e_serre)

    for rel in rels:
        _check_homogeneous(sig, rel)
    return rels


def _check_homogeneous(sig: Signature, rel: Relation):
    parities = {word_parity(sig, w) for _, w in rel.lhs} | {
        word_parity(sig, w) for _, w in rel.rhs
    }
    if len(parities) > 1:
        raise AssertionError(f"relation {rel.name} is not parity-homogeneous")


def render_genterm(terms: tuple[GenTerm, ...]) -> str:
    """Plain-text rendering of a generator expression: words joined by
    " + ", each scalar in square brackets when it is not 1."""
    if not terms:
        return "0"
    parts = []
    for c, w in terms:
        word = "*".join(str(a) for a in w) if w else "1"
        if c == CoeffExact.one():
            parts.append(word)
        elif c == CoeffExact.from_int(-1):
            parts.append(f"-{word}")
        else:
            parts.append(f"[{c.canonical_str()}]*{word}")
    return " + ".join(parts)


def render_relation(rel: Relation) -> str:
    return f"{rel.name}: {render_genterm(rel.lhs)} = {render_genterm(rel.rhs)}"
