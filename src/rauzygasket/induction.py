"""Exact Rauzy induction on special systems of isometries.

A special system is three pairs of isometric subintervals of [0, 1]: the
left bases all start at 0, the right bases all end at 1, and the three
left-base lengths (a, b, c) are pairwise distinct, positive, and sum to 1.
One induction step transmits the two shorter right bases through the
longest pair and then cuts the support at the rightmost interior critical
point; on lengths this is the fully subtractive move
(a, b, c) -> (a - b - c, b, c) followed by renormalization.  This module
works on the lengths alone; the interval pairs themselves, with
transmission, reduction and orbit exploration, are a reference model in
``tests/intervals.py`` that the tests check ``rauzy_step`` against.

Everything here is exact: lengths are `fractions.Fraction` by default, but
any exact ordered-field scalar with +, -, *, / and comparisons works (the
tests exercise a cubic irrational for the period-one fixed point).  Floats
are deliberately not used; hole detection is a sign test that float drift
would corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Letter = int  # 1, 2 or 3
LETTERS: tuple[Letter, ...] = (1, 2, 3)

# Rank-coordinate length matrices of the three elementary step kinds.
# They express the pre-step sorted lengths in terms of the post-step
# sorted lengths: old = M . new.
STAY_MATRIX = ((1, 1, 1), (0, 1, 0), (0, 0, 1))
SWAP_MATRIX = ((1, 1, 1), (1, 0, 0), (0, 0, 1))
CYC_MATRIX = ((1, 1, 1), (1, 0, 0), (0, 1, 0))

# How a step ends: the shrunk leader keeps first place (stay), drops to
# second (swap) or to third (cyc).
STAY = "stay"
SWAP = "swap"
CYC = "cyc"
KINDS = (STAY, SWAP, CYC)
STEP_MATRICES = {STAY: STAY_MATRIX, SWAP: SWAP_MATRIX, CYC: CYC_MATRIX}


def apply_kind(order: tuple, kind: str) -> tuple:
    """The ordering after one elementary step of the given kind."""
    if kind == STAY:
        return order
    if kind == SWAP:
        return (order[1], order[0], order[2])
    if kind == CYC:
        return (order[1], order[2], order[0])
    raise ValueError(f"unknown step kind {kind!r}")


class InductionError(Exception):
    """Base class for all soi-core errors."""


class NotNormalized(InductionError):
    """Lengths do not sum to exactly 1."""


class NonPositive(InductionError):
    """A length is zero or negative."""


class TieEncountered(InductionError):
    """An exact tie between lengths; the generic theory excludes these."""


def accelerated_matrix(n: int, kind: str) -> tuple[tuple[int, int, int], ...]:
    """Rank-coordinate matrix of a generalized step: n wins of the leading
    pair, ending with a `swap` or `cyc` reordering.

    Equals STAY_MATRIX**(n-1) times the final elementary matrix.
    """
    if n < 1:
        raise ValueError("counter must be >= 1")
    if kind == SWAP:
        return ((n, 1, n), (1, 0, 0), (0, 0, 1))
    if kind == CYC:
        return ((n, n, 1), (1, 0, 0), (0, 1, 0))
    raise ValueError(f"accelerated steps end with swap or cyc, not {kind!r}")


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _mat_vec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


@dataclass(frozen=True)
class SpecialSystem:
    """Three exact lengths labeled by letters 1..3 plus the sorting order.

    ``lengths[i]`` is the length of letter ``i + 1``; ``order`` lists the
    letters from longest to shortest.  Letters keep their identity through
    induction steps; only ``order`` changes.
    """

    lengths: tuple
    order: tuple[Letter, Letter, Letter]

    def length(self, letter: Letter):
        return self.lengths[letter - 1]

    def sorted_lengths(self) -> tuple:
        """Lengths from largest to smallest."""
        return tuple(self.lengths[w - 1] for w in self.order)

    @property
    def winner(self) -> Letter:
        """The letter currently holding the longest pair."""
        return self.order[0]

    def to_json(self) -> dict:
        return {
            "lengths": [format_scalar(x) for x in self.lengths],
            "order": list(self.order),
        }

    @staticmethod
    def from_json(obj: dict) -> "SpecialSystem":
        lengths = [parse_fraction(s) for s in obj["lengths"]]
        return make_system(*lengths)


_DIGITS = 4000  # below the interpreter's default cap on int-to-str digits
_PIECE = 10**_DIGITS


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, converted in pieces short enough for str()."""
    if n < _PIECE:
        return str(n)
    high, low = divmod(n, _PIECE)
    return _decimal(high) + str(low).zfill(_DIGITS)


def format_scalar(x) -> str:
    """Serialize an exact scalar of any size as "p/q" (denominator always
    written)."""
    f = Fraction(x) if not isinstance(x, Fraction) else x
    sign = "-" if f < 0 else ""
    return f"{sign}{_decimal(abs(f.numerator))}/{_decimal(f.denominator)}"


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, of any size, as an int: the
    digits are read in pieces of ``_DIGITS``, as ``_decimal`` writes them.
    Anything else, ``int``'s underscores and non-ASCII digits included,
    raises ValueError."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text[:20]!r} of {len(text)} characters")
    value = int(digits[-_DIGITS:])
    if len(digits) > _DIGITS:
        value += _integer(digits[:-_DIGITS]) * _PIECE
    return -value if text[0] == "-" else value


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or a bare integer.  Decimal notation is rejected: the
    induction is exact and silently rounding inputs would corrupt hole
    detection.  Bad text, a zero denominator included, raises ValueError."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"exact rational required (p/q), got {text!r}")
    if "/" in text:
        num, _, den = text.partition("/")
        den = _integer(den)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_integer(num), den)
    return Fraction(_integer(text), 1)


def make_system(a, b, c) -> SpecialSystem:
    """Validate lengths and build a SpecialSystem labeled in input order.

    Raises NonPositive, NotNormalized, or TieEncountered (two equal
    lengths break the genericity every statement here relies on).
    """
    lengths = (a, b, c)
    for x in lengths:
        if not x > 0:
            raise NonPositive(f"length {x!r} is not positive")
    total = a + b + c
    if total != 1:
        raise NotNormalized(f"lengths sum to {total!r}, expected 1")
    if a == b or b == c or a == c:
        raise TieEncountered("two lengths are exactly equal")
    order = tuple(sorted(LETTERS, key=lambda w: lengths[w - 1], reverse=True))
    return SpecialSystem(lengths=lengths, order=order)


# --- one elementary step -------------------------------------------------

@dataclass(frozen=True)
class Step:
    """A completed step: n wins of ``winner``, ended by ``kind``.  An
    elementary step has n == 1 and any kind; an accelerated step ends with
    swap or cyc.  The new ordering is ``apply_kind(old order, kind)``."""

    system: SpecialSystem
    winner: Letter
    n: int
    kind: str  # stay / swap / cyc
    matrix: tuple  # rank-coordinate length matrix, old = matrix . new


@dataclass(frozen=True)
class Hole:
    """The longest pair is shorter than the other two combined, after
    ``substeps`` wins of the same leader; the induction stops and the
    system has points with finite orbits."""

    substeps: int = 0


@dataclass(frozen=True)
class Tie:
    """An exact tie was hit mid-step, after ``substeps`` wins of the same
    leader."""

    substeps: int = 0


def rauzy_step(s: SpecialSystem):
    """One elementary induction step.

    Returns Step (with n == 1), Hole, or Tie.  On Step, the winner's
    length drops to a - b - c, everything is renormalized to sum 1 again,
    and the rank-coordinate matrix recovers the old sorted lengths from
    the new unnormalized sorted lengths.
    """
    a, b, c = s.sorted_lengths()
    rest = b + c
    if a == rest:
        return Tie()
    if a < rest:
        return Hole()
    rem = a - rest
    if rem == b or rem == c:
        return Tie()
    if rem > b:
        kind = STAY
    elif rem > c:
        kind = SWAP
    else:
        kind = CYC

    winner = s.winner
    total = a  # rem + b + c
    new_lengths = tuple(
        (rem if w == winner else s.lengths[w - 1]) / total for w in LETTERS
    )
    new_system = make_system(*new_lengths)
    assert new_system.order == apply_kind(s.order, kind)
    return Step(
        system=new_system, winner=winner, n=1, kind=kind, matrix=STEP_MATRICES[kind]
    )


# --- generalized (accelerated) step --------------------------------------

def accelerated_step(s: SpecialSystem):
    """Iterate rauzy_step while the same letter keeps winning.

    Returns Step with n the number of wins, or Hole / Tie with
    ``substeps`` the wins completed before it.  The composite matrix is
    computed as the product of the elementary rank matrices and checked
    against the closed-form shape with the counter n; the two must agree
    exactly.
    """
    current = s
    product = IDENTITY
    wins = 0
    while True:
        out = rauzy_step(current)
        if isinstance(out, Hole):
            return Hole(substeps=wins)
        if isinstance(out, Tie):
            return Tie(substeps=wins)
        wins += 1
        product = _mat_mul(product, out.matrix)
        current = out.system
        if out.kind == STAY:
            continue
        closed = accelerated_matrix(wins, out.kind)
        assert product == closed, "composite matrix disagrees with product"
        return Step(
            system=current, winner=s.winner, n=wins, kind=out.kind, matrix=product
        )


# --- thin-type probing ----------------------------------------------------

@dataclass(frozen=True)
class Survived:
    depth: int


@dataclass(frozen=True)
class HoleAt:
    iteration: int  # 1-based generalized iteration that died


@dataclass(frozen=True)
class TieAt:
    iteration: int


def classify_thin(s: SpecialSystem, max_iters: int):
    """Run up to max_iters generalized iterations.

    Survived{max_iters} certifies gasket membership only up to that
    depth: every exact rational system eventually holes or ties (the
    integer numerators strictly decrease), so unbounded survival needs
    irrational algebraic lengths.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = s
    for i in range(1, max_iters + 1):
        out = accelerated_step(current)
        if isinstance(out, Hole):
            return HoleAt(iteration=i)
        if isinstance(out, Tie):
            return TieAt(iteration=i)
        current = out.system
    return Survived(depth=max_iters)
