"""The interval-level model of a special system, a reference for the
induction in ``rauzygasket.induction``.

A special system is three pairs of isometric subintervals of [0, 1]: the
left bases start at 0 and the right bases end at 1.  One induction step
transmits the two shorter right bases through the longest pair
(``transmission_right``) and then cuts the support at the rightmost
interior critical point (``reduction_right``); the tests check that this
agrees with ``rauzy_step`` on lengths.  ``uncovered_gaps`` and
``explore_orbit`` give the finite-orbit witness of a hole.
"""

from __future__ import annotations

from dataclasses import dataclass

from rauzygasket.induction import LETTERS, Hole, InductionError, SpecialSystem


class PreconditionViolated(InductionError):
    """A transmission/reduction was applied to an ineligible system."""


class PointOutsideSupport(InductionError):
    """Orbit exploration was started outside the support interval."""


@dataclass(frozen=True)
class IntervalPair:
    """A partial isometry between two equal-length closed subintervals,
    left base [lo, hi] mapped onto right base by translation."""

    left: tuple
    right: tuple

    def __post_init__(self):
        (a, b), (c, d) = self.left, self.right
        if not (a <= b and c <= d):
            raise PreconditionViolated("interval endpoints out of order")
        if b - a != d - c:
            raise PreconditionViolated("paired bases must have equal length")

    @property
    def shift(self):
        return self.right[0] - self.left[0]


@dataclass(frozen=True)
class IntervalPairSystem:
    support: tuple
    pairs: tuple[IntervalPair, ...]

    def __post_init__(self):
        lo, hi = self.support
        for p in self.pairs:
            for base in (p.left, p.right):
                if base[0] < lo or base[1] > hi:
                    raise PreconditionViolated("base escapes the support")

    def bases(self) -> list[tuple]:
        out = []
        for p in self.pairs:
            out.append(p.left)
            out.append(p.right)
        return out


def special_interval_system(s: SpecialSystem) -> IntervalPairSystem:
    """Realize a SpecialSystem as explicit interval pairs on [0, 1]."""
    one = s.lengths[0] / s.lengths[0]
    pairs = tuple(
        IntervalPair(left=(0 * one, s.length(w)), right=(one - s.length(w), one))
        for w in LETTERS
    )
    return IntervalPairSystem(support=(0 * one, one), pairs=pairs)


def transmission_right(sys: IntervalPairSystem) -> IntervalPairSystem:
    """Re-map right bases contained in the covering pair's right base.

    The covering pair is the one whose right base ends at the support's
    right endpoint and contains the other two right bases; those two are
    translated through the covering isometry.
    """
    _, hi = sys.support
    enders = [i for i, p in enumerate(sys.pairs) if p.right[1] == hi]
    containers = [
        i
        for i in enders
        if all(
            sys.pairs[i].right[0] <= p.right[0] and p.right[1] <= sys.pairs[i].right[1]
            for j, p in enumerate(sys.pairs)
            if j != i
        )
    ]
    if len(containers) != 1:
        raise PreconditionViolated(
            "need exactly one right base ending at the support endpoint and "
            f"containing the other two, found {len(containers)}"
        )
    cover = sys.pairs[containers[0]]
    new_pairs = []
    for i, p in enumerate(sys.pairs):
        if i == containers[0]:
            new_pairs.append(p)
            continue
        if not (cover.right[0] <= p.right[0] and p.right[1] <= cover.right[1]):
            raise PreconditionViolated("right base not contained in the cover")
        shifted = (p.right[0] - cover.shift, p.right[1] - cover.shift)
        new_pairs.append(IntervalPair(left=p.left, right=shifted))
    return IntervalPairSystem(support=sys.support, pairs=tuple(new_pairs))


def reduction_right(sys: IntervalPairSystem):
    """Cut the support at the rightmost critical point interior to the
    covering right base.  Returns the reduced system, or Hole when the
    support's right endpoint is uncovered or no interior critical point
    exists."""
    _, hi = sys.support
    covering = [
        i
        for i, p in enumerate(sys.pairs)
        for base in (p.left, p.right)
        if base[0] <= hi <= base[1]
    ]
    if not covering:
        return Hole()
    if len(covering) > 1:
        raise PreconditionViolated("support endpoint covered more than once")
    idx = covering[0]
    pair = sys.pairs[idx]
    if pair.right[1] != hi:
        raise PreconditionViolated("covering base must be a right base ending at B")
    c1, d1 = pair.right
    critical = [
        x for b in sys.bases() for x in b if c1 < x < d1
    ]
    if not critical:
        return Hole()
    u = max(critical)
    new_pair = IntervalPair(
        left=(pair.left[0], pair.left[1] - d1 + u), right=(c1, u)
    )
    pairs = tuple(new_pair if i == idx else p for i, p in enumerate(sys.pairs))
    return IntervalPairSystem(support=(sys.support[0], u), pairs=pairs)


def uncovered_gaps(sys: IntervalPairSystem) -> list[tuple]:
    """Open gaps of the support not covered by any base (hole witnesses)."""
    lo, hi = sys.support
    bases = sorted(sys.bases())
    gaps = []
    cursor = lo
    for b0, b1 in bases:
        if b0 > cursor:
            gaps.append((cursor, b0))
        if b1 > cursor:
            cursor = b1
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


@dataclass(frozen=True)
class OrbitGraph:
    """Breadth-first closure of a point under the partial isometries.

    Vertices map each reached point to its word-length depth; edges are
    (source, target, pair index, direction) with direction +1 for the
    forward isometry and -1 for its inverse.
    """

    vertices: dict
    edges: frozenset


def explore_orbit(sys: IntervalPairSystem, x, max_word_len: int) -> OrbitGraph:
    lo, hi = sys.support
    if not (lo <= x <= hi):
        raise PointOutsideSupport(f"{x!r} outside [{lo!r}, {hi!r}]")
    vertices = {x: 0}
    edges = set()
    frontier = [x]
    for depth in range(1, max_word_len + 1):
        nxt = []
        for p in frontier:
            for i, pair in enumerate(sys.pairs):
                moves = []
                if pair.left[0] <= p <= pair.left[1]:
                    moves.append((p + pair.shift, +1))
                if pair.right[0] <= p <= pair.right[1]:
                    moves.append((p - pair.shift, -1))
                for q, direction in moves:
                    edges.add((p, q, i + 1, direction))
                    if q not in vertices:
                        vertices[q] = depth
                        nxt.append(q)
        frontier = nxt
        if not frontier:
            break
    return OrbitGraph(vertices=vertices, edges=frozenset(edges))
