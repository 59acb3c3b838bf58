"""Exact path measures, Monte Carlo bound checks, and the roof function.

The measure calculus runs on weight covectors q in letter coordinates.
Walking a path updates q by the dual cocycle (q_u += n q_w on the two
non-winners), and the normalized cone measure of the sorted region of an
ordering pi = (p1, p2, p3) has the closed form

    nu_q(C_pi) = 1 / ( q_{p1} (q_{p1} + q_{p2}) (q_1 + q_2 + q_3) ).

Dividing two such values gives every cylinder mass exactly; no volumes
are ever integrated numerically.  Two normalizations coexist and must not
be confused:

* ``path_probability(q, path) = N(q) / N(B q)`` measures the cone of all
  length vectors consistent with the path's winner sequence, relative to
  the full positive octant;
* ``cylinder_measure(path)`` measures the chart cylinder (start and end
  sorted by the path's ordering states), relative to the sorted simplex.
  These are the masses that add up to 1 over a Markov partition.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graph import START, RauzyPath, is_complete, is_positive, path_from_blocks
from .induction import CYC, STAY, SWAP, Hole, apply_kind
from .markov import (
    ChartPoint,
    _run_blocks,
    _step,
    accelerated_step_batch,
    cylinder_vertices,
    sample_sorted_simplex,
    sorted_simplex,
)

Q_ONES: tuple[Fraction, Fraction, Fraction] = (Fraction(1), Fraction(1), Fraction(1))

log = logging.getLogger("rauzygasket")


class OutsideCylinder(Exception):
    pass


def dual_update(q: Sequence, winner: int, n: int = 1) -> tuple:
    """Dual cocycle action of n wins of ``winner``: the two other entries
    gain n times the winner's weight."""
    w = winner - 1
    return tuple(q[i] if i == w else q[i] + n * q[w] for i in range(3))


def cone_denominator(q: Sequence, order: Sequence[int]):
    """q_{p1} (q_{p1} + q_{p2}) (q_1 + q_2 + q_3): the reciprocal of
    ``cone_measure``, an integer whenever the weights are."""
    q1 = q[order[0] - 1]
    q2 = q[order[1] - 1]
    return q1 * (q1 + q2) * (q[0] + q[1] + q[2])


def cone_measure(q: Sequence, order: Sequence[int]) -> Fraction:
    """nu_q of the cone where the letters are sorted as ``order``."""
    return Fraction(1, 1) / cone_denominator(q, order)


def path_probability(q: Sequence, path: RauzyPath) -> Fraction:
    """N(q) / N(B_path q): the octant-relative mass of the winner-sequence
    cone, which is also the conditional probability calculus the
    distortion bounds are stated in."""
    q = tuple(Fraction(x) for x in q)
    out = q
    for st in path.steps:
        out = dual_update(out, st.winner, st.n)
    num = q[0] * q[1] * q[2]
    den = out[0] * out[1] * out[2]
    return Fraction(num, den)


def cylinder_measure(path: RauzyPath) -> Fraction:
    """Exact chart mass of the path's cylinder, normalized so the sorted
    start simplex has mass 1, for unit weights.  The per-arrow
    conditionals telescope, so only the endpoint weights matter."""
    out = Q_ONES
    for st in path.steps:
        out = dual_update(out, st.winner, st.n)
    return cone_measure(out, path.end) / cone_measure(Q_ONES, path.start)


# --- exact one-level decompositions ------------------------------------------
#
# Exact Fraction reference forms of the conditional masses.  The dimension
# pipeline no longer calls them: it runs the same calculus on the integer
# denominators of ``cone_denominator``.  Tests check it against these.

def elementary_children(q: Sequence, order: Sequence[int]):
    """Conditional masses of the three elementary arrows from a state.

    Returns (children, hole) where children maps kind -> (mass, q', order')
    and hole is the exact leftover mass of the immediate hole cell.
    Reference form only; the survivor sweep in ``dimension`` does not call it.
    """
    w = order[0]
    parent = cone_measure(q, order)
    q1 = dual_update(q, w, 1)
    children = {}
    total = Fraction(0)
    for kind in (STAY, SWAP, CYC):
        target = apply_kind(tuple(order), kind)
        mass = cone_measure(q1, target) / parent
        children[kind] = (mass, q1, target)
        total += mass
    return children, 1 - total


def running_mass(q: Sequence, order: Sequence[int], n: int) -> Fraction:
    """Conditional mass of 'the leader has won n times and is still the
    longest' (the exact enumeration remainder at counter cap n).
    Reference form only; the cylinder walk in ``dimension`` does not call it.
    """
    if n == 0:
        return Fraction(1)
    qn = dual_update(q, order[0], n)
    return cone_measure(qn, order) / cone_measure(q, order)


def block_child(q: Sequence, order: Sequence[int], n: int, kind: str):
    """Conditional mass of the accelerated branch (n, kind) plus its
    endpoint state.  Reference form only; the cylinder walk in
    ``dimension`` does not call it."""
    w = order[0]
    qn = dual_update(q, w, n)
    target = apply_kind(tuple(order), kind)
    mass = cone_measure(qn, target) / cone_measure(q, order)
    return mass, qn, target


def hole_mass_at(q: Sequence, order: Sequence[int], k: int) -> Fraction:
    """Conditional mass of the k-th hole cell (die at the k-th win).
    Reference form only; the cylinder walk in ``dimension`` does not call
    it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    alive_before = running_mass(q, order, k - 1)
    alive_after = running_mass(q, order, k)
    swap_mass, _, _ = block_child(q, order, k, SWAP)
    cyc_mass, _, _ = block_child(q, order, k, CYC)
    return alive_before - alive_after - swap_mass - cyc_mass


# --- seeded Monte Carlo ------------------------------------------------------

_BLOCK = 1 << 16


def _check_samples(samples: int) -> None:
    """ValueError naming ``samples`` unless samples >= 1."""
    if samples < 1:
        raise ValueError(f"samples = {samples} must be >= 1")


def _blocks(samples: int):
    """(index, size) of the fixed-size blocks of ``samples`` draws;
    ValueError unless samples >= 1.  Block i always uses the stream seeded
    (seed, tag, i) and ``_run_blocks`` yields in block order, so results
    are independent of worker count."""
    _check_samples(samples)
    full, rem = divmod(samples, _BLOCK)
    sizes = [_BLOCK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


_TAG_KERCKHOFF = 1
_TAG_BALANCE = 2
_TAG_TAIL = 3


def _fewest_wins(t: float) -> Optional[int]:
    """The fewest wins k of the leader whose ratio 1 + k strictly exceeds
    t, or None for t = +inf, which no ratio exceeds.  A NaN t raises
    ValueError."""
    if math.isnan(t):
        raise ValueError(f"Kerckhoff threshold t = {t} must not be NaN")
    if math.isinf(t):
        return None if t > 0 else 0
    return max(0, math.floor(t))


def kerckhoff_exact_probability(t: float) -> Fraction:
    """Exact probability, for unit weights, that a coordinate ratio
    exceeds t during one maximal run of the leader (used as a test oracle
    and to report margins).  The leader of counter n wins at least k times
    with probability 3 / (k + 1)^2 for k >= 1."""
    k = _fewest_wins(t)
    if k is None:
        return Fraction(0)
    return Fraction(1) if k == 0 else Fraction(3, (k + 1) ** 2)


def mc_kerckhoff(
    t: float,
    samples: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Empirical frequency of 'some coordinate of B q grows past t times
    its start' while a single winner persists, for unit weights q, over
    Lebesgue-uniform starts.  The bound to compare against is 1/t (per
    coordinate; with unit weights the two loser coordinates coincide);
    below t = 1 the bound is vacuous and the frequency just stays <= 1.

    Each win adds the winner's unit weight to both losers, so a sample's
    ratio is 1.0 + wins, where the leader of counter n wins n times if
    rem = a - n s > 0 and n - 1 times if not.  The ratio only meets one t:
    with k the fewest wins such that 1.0 + k > t, the event is wins >= k,
    which holds exactly when a - k s >= b, or a - k s > 0 and
    a - (k - 1) s >= b.  Those are the float expressions that the counter
    compares.  The first case lies in the second, so the event is
    (a - k s > 0) & (a - (k - 1) s >= b): rounding is monotone, so
    fl((k - 1) s) <= fl(k s) and a - (k - 1) s >= a - k s >= b, and every
    sample has b >= 0, so a - k s >= b is > 0 unless b = 0.  The only
    sample with b = 0 is the draw u = (0, 0), the point (1, 0), where
    s = 0 and a - k s = 1 > 0, so both forms count it.  Two comparisons
    per sample give the count without a counter, a remainder or a ratio.
    A NaN t raises ValueError; t = +inf gives 0.0 and t = -inf gives 1.0.

    For k >= 3 most samples cannot hit, and ``_kerckhoff_hits`` finds
    them from their first uniform alone and skips the chart network.
    """
    blocks = _blocks(samples)
    # below 2**53 every 1.0 + k is exact; above it no sample wins that often
    k = _fewest_wins(t)
    if k is None:
        return 0.0

    def block(i: int, size: int) -> int:
        rng = np.random.default_rng((seed, _TAG_KERCKHOFF, i))
        return _kerckhoff_hits(rng.random((size, 2)), k)

    return sum(_run_blocks(block, blocks, workers)) / samples


def _kerckhoff_hits(u: np.ndarray, k: int) -> int:
    """How many of the chart points ``sorted_simplex(u)`` have
    (a - k s > 0) & (a - (k - 1) s >= b), the event of ``mc_kerckhoff``.

    For k >= 3 let theta = k / (k + 1) - 1e-9, in floats.  A row whose
    first uniform has |u0 - 1/2| <= theta - 1/2 cannot hit.  theta - 1/2
    is exact and u0 - 1/2 rounds by at most 2^-54 (not at all for the
    draws of ``rng.random``, multiples of 2^-53), so u0 lies within 2^-54
    of [1 - theta, theta].  Then each spacing is at most theta + 2^-54:
    lo <= u0, hi - lo <= max(u0, 1 - u0) and 1 - hi <= 1 - u0; rounding
    is monotone, so the float a is too.  As theta is within 2^-53 of
    k / (k + 1) - 1e-9, k (1 - a) - a >= (k + 1) (1e-9 - 2^-52).  The
    floats s = fl(1 - a), k and fl(k s) lose at most 2^-51 relative
    together, and 1 - a < 1, so fl(k s) - a >= (k + 1) (1e-9 - 2^-52)
    - k 2^-51 > 0 and a - k s < 0.  Only the other rows, a share of about
    2 / (k + 1), go through the network.  At k = 2 that share is 2/3,
    and the window costs more than the network it saves.
    """
    if k >= 3:
        theta = k / (k + 1) - 1e-9
        far = np.subtract(u[:, 0], 0.5)
        np.abs(far, out=far)
        u = u.take(np.flatnonzero(far > theta - 0.5), axis=0)
    a, b = sorted_simplex(u)
    s = 1.0 - a
    rem = s * k
    np.subtract(a, rem, out=rem)
    s *= k - 1
    np.subtract(a, s, out=s)  # a - (k - 1) s
    hit = rem > 0
    hit &= s >= b
    return int(np.count_nonzero(hit))


_BALANCE_MAX_STEPS = 64  # generalized steps before a path counts as unresolved


def mc_balance(
    c_grid: Sequence[float],
    samples: int = 10**5,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """For each C, the empirical probability that the weight vector,
    started at unit weights q, is still C-balanced,
    M(B q) < C min(m(B q), M(q)), at the completion moment of the path
    (the first generalized step after which every letter has won).
    Weights only grow, so M(q) = 1 <= m(B q) and the event is
    M(B q) < C.

    ``unresolved`` counts the points that did not complete: they died in
    a hole before every letter won, or were still running after
    ``_BALANCE_MAX_STEPS`` steps.  A C that is not above 1, NaN included,
    raises ValueError naming it; C = +inf is the limit, completion alone.

    A block is walked as ``_first_returns`` walks its points, with the
    weights as three rows by rank, leader first, and one compaction per
    step, on ``alive & ~complete & (a >= 1/2)``, with one ``flatnonzero``
    and a ``take`` per row.  A point with a < 1/2, drawn or reached,
    cannot complete: its next step is a hole (see ``_first_returns``), so
    it is dropped, drawn points before the first step.  After a step the
    old rank 1 leads, and the cyc ending (x0, x1, x2) -> (x1, x2, x0)
    differs from the swap ending (x1, x0, x2) only in the last two ranks,
    so the weights move as in a swap and then exchange x0 and x2 where
    cyc, by a xor of their bits (a select with ``np.where`` on a random
    mask costs several times more).  The letters are one int8 row: the
    rank r of the letter that has not won.  The leaders of the first two
    steps differ, so after step 2 exactly one letter has not won; before
    it, r is the rank of the letter that will not win at step 2, which
    starts at rank 2.  A step moves r to 0 if r = 1 and to 2 - cyc
    otherwise, and a point completes at the step it takes with r = 0.  The
    weight rows are taken on the completed points only to take their
    maximum.
    """
    cs = [float(c) for c in c_grid]
    for c in cs:
        if not c > 1:
            raise ValueError(f"balance constant C = {c} must exceed 1")

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_BALANCE, i))
        a, b = sample_sorted_simplex(rng, size)
        at = np.flatnonzero(a >= 0.5)  # a < 1/2 falls into a hole at once
        a, b = a.take(at), b.take(at)
        w0, w1, w2 = np.ones((3, a.size))  # the weights by rank
        rank = np.full(a.size, 2, dtype=np.int8)  # the rank of the letter that has not won
        done_max = [np.empty(0)]  # the drop can empty a block before its first step
        for _ in range(_BALANCE_MAX_STEPS):
            if not a.size:
                break
            a, b, n, cyc, _, alive = accelerated_step_batch(a, b)
            complete = rank == 0
            complete &= alive
            n *= w0  # the gain of both losers
            w1 += n
            w2 += n
            # new ranks: (w1, w0, w2) after a swap ending, (w1, w2, w0) after
            # a cyc one; exchange the bits of w0 and w2 where cyc
            x, y = w0.view(np.int64), w2.view(np.int64)
            diff = np.bitwise_xor(x, y)
            diff &= np.negative(cyc, dtype=np.int64)
            x ^= diff
            y ^= diff
            w0, w1 = w1, w0
            at = np.flatnonzero(complete)
            done = [w.take(at) for w in (w0, w1, w2)]
            done_max.append(np.maximum(np.maximum(done[0], done[1]), done[2]))
            # 0 if r = 1, else 2 - cyc
            rank = np.multiply(rank != 1, np.subtract(2, cyc, dtype=np.int8), dtype=np.int8)
            keep = a >= 0.5  # a < 1/2 falls into a hole at the next step
            keep &= np.logical_xor(alive, complete)  # alive & ~complete
            at = np.flatnonzero(keep)
            a, b, rank, w0, w1, w2 = (v.take(at) for v in (a, b, rank, w0, w1, w2))
        mx = np.concatenate(done_max)
        return mx, size - mx.size

    parts = list(_run_blocks(block, _blocks(samples), workers))
    mx = np.concatenate([p[0] for p in parts])
    unresolved = sum(p[1] for p in parts)
    out = []
    for c in cs:
        hits = np.count_nonzero(mx < c)
        out.append(
            {
                "C": c,
                "probability": hits / samples,
                "target": 1.0 / c,
                "completed": int(mx.size),
                "unresolved": unresolved,
            }
        )
    return out


# --- roof function -----------------------------------------------------------

def _orbit(point: ChartPoint, blocks: Sequence[tuple[int, str]]):
    """Yield (cell, D, image) for each accelerated step of the point's
    orbit, exact or float, without end; the first steps must be the given
    blocks (n, kind).

    Raises OutsideCylinder on a hole or on a step that is not its block,
    and TieOnBoundary where ``cell_of`` does.
    """
    for m in itertools.count():
        cell, d, image = _step(point)
        if isinstance(cell, Hole):
            raise OutsideCylinder(f"orbit fell into a hole after {m} steps")
        if m < len(blocks) and (cell.n, cell.kind) != blocks[m]:
            raise OutsideCylinder(f"step {m + 1} is {cell}, expected block {blocks[m]}")
        yield cell, d, image
        point = image


def _as_blocks(path) -> list[tuple[int, str]]:
    if isinstance(path, RauzyPath):
        return [(st.n, st.kind) for st in path.steps]
    return [(int(n), kind) for n, kind in path]


def roof(point: ChartPoint, path) -> float:
    """Return-time value -log || (B*)^{-1} lambda ||_1 of the path at the
    point: the sum over its accelerated blocks of -log(n a - (n-1)), in
    floats, in the order ``first_return`` sums it, for an exact point
    too."""
    blocks = _as_blocks(path)
    steps = itertools.islice(_orbit(point, blocks), len(blocks))
    return sum((-math.log(d) for _, d, _ in steps), 0.0)


# --- sections and first returns ------------------------------------------------

def loop_ccc() -> RauzyPath:
    """The period-three cyclic loop: complete and positive, but it
    overlaps its own shifts, so genuine section returns can be shorter
    than the loop."""
    return path_from_blocks(START, [(1, CYC)] * 3)


def loop_cccss() -> RauzyPath:
    """A five-arrow complete positive loop with no self-overlap: the
    first-return components are exactly the loop-to-loop cylinders."""
    return path_from_blocks(START, [(1, CYC)] * 3 + [(1, SWAP)] * 2)


NAMED_LOOPS = {"ccc": loop_ccc, "cccss": loop_cccss}


def validate_loop(loop: RauzyPath) -> None:
    if loop.end != loop.start:
        raise ValueError("loop must start and end at the same state")
    if not is_complete(loop):
        raise ValueError("loop must be complete (every letter wins)")
    if not is_positive(loop):
        raise ValueError("loop must have an all-positive cocycle matrix")


def section_triangle(loop: RauzyPath) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact chart vertices of the loop's cylinder: the chart pulled back
    through the loop's blocks by ``cylinder_vertices``."""
    return cylinder_vertices(_as_blocks(loop))


def sample_section(loop: RauzyPath, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lebesgue-uniform chart samples of the loop's cylinder (a triangle,
    so no rejection is needed)."""
    (x1, y1), (x2, y2), (x3, y3) = [(float(p), float(q)) for p, q in section_triangle(loop)]
    u = rng.random(count)
    v = rng.random(count)
    # fold (u, v) with u + v > 1 onto (1 - u, 1 - v): |flip - u| is
    # 1.0 - u where flip is 1.0 and u where it is 0.0, the same floats
    flip = (u + v > 1).astype(float)
    np.abs(np.subtract(flip, u, out=u), out=u)
    np.abs(np.subtract(flip, v, out=v), out=v)
    # x1 + u (x2 - x1) + v (x3 - x1), in place, and the same for b in u
    a = np.multiply(u, x2 - x1)
    a += x1
    a += np.multiply(v, x3 - x1)
    b = np.multiply(u, y2 - y1, out=u)
    b += y1
    b += np.multiply(v, y3 - y1, out=v)
    return a, b


@dataclass(frozen=True)
class ReturnRecord:
    start: ChartPoint
    path: RauzyPath
    return_point: ChartPoint
    roof_value: float


@dataclass(frozen=True)
class NoReturn:
    depth: int


def _section_sides(loop: RauzyPath) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Exact (u, v, w) of each side of ``section_triangle(loop)``, signed
    so that u a + v b + w > 0 holds inside the triangle."""
    verts = section_triangle(loop)
    sides = []
    for i in range(3):
        (x1, y1), (x2, y2), (x3, y3) = verts[i], verts[i - 1], verts[i - 2]
        u, v, w = y1 - y2, x2 - x1, x1 * y2 - x2 * y1
        sign = 1 if u * x3 + v * y3 + w > 0 else -1
        sides.append((sign * u, sign * v, sign * w))
    return tuple(sides)


def _in_section(sides, a, b):
    """Whether (a, b) lies in the open triangle of these sides: exactly for
    exact coordinates, in the floats of the exact sides for a float point.
    For arrays (elementwise) the sides must be floats already, as
    ``_first_returns`` converts them once, and each sum u a + v b + w is
    formed in place in two scratch rows, in the same order."""
    if isinstance(a, np.ndarray):
        inside = np.ones(a.size, dtype=bool)
        t, tb = np.empty(a.size), np.empty(a.size)
        for u, v, w in sides:
            np.multiply(a, u, out=t)
            t += np.multiply(b, v, out=tb)
            t += w
            inside &= t > 0
        return inside
    if isinstance(a, float):
        sides = [tuple(map(float, side)) for side in sides]
    (u0, v0, w0), (u1, v1, w1), (u2, v2, w2) = sides
    return (u0 * a + v0 * b + w0 > 0) & (u1 * a + v1 * b + w1 > 0) & (u2 * a + v2 * b + w2 > 0)


def _section_box(sides) -> tuple[float, float, float, float]:
    """(a_lo, a_hi, b_lo, b_hi): an open box around every point (a, b)
    with |a|, |b| <= 1 that ``_in_section`` accepts on these float sides.
    There each float sum u a + v b + w is within 2^-51 (|u| + |v| + |w|)
    of its exact value, so an accepted point has u a + v b + w > -e with
    e = 2^-50 (|u| + |v| + |w|) on every side: it lies in the triangle of
    the sides pushed out by e.  The box is that triangle's exact bounding
    box, one float step wider each way."""
    lines = []
    for side in sides:
        u, v, w = map(Fraction, side)
        lines.append((u, v, w + (abs(u) + abs(v) + abs(w)) / 2**50))
    corners = []
    for (u1, v1, w1), (u2, v2, w2) in itertools.combinations(lines, 2):
        det = u1 * v2 - u2 * v1
        corners.append(((v1 * w2 - v2 * w1) / det, (u2 * w1 - u1 * w2) / det))
    a, b = zip(*corners)
    return (math.nextafter(float(min(a)), -math.inf), math.nextafter(float(max(a)), math.inf),
            math.nextafter(float(min(b)), -math.inf), math.nextafter(float(max(b)), math.inf))


@functools.lru_cache(maxsize=8)
def _float_section(loop: RauzyPath):
    """(sides, box): the float sides of ``_section_sides(loop)`` and their
    ``_section_box``, worked out once per loop: ``_first_returns`` runs
    once per block."""
    sides = tuple(tuple(map(float, side)) for side in _section_sides(loop))
    return sides, _section_box(sides)


def _section_hits(sides, box, a, b) -> np.ndarray:
    """``np.flatnonzero(_in_section(sides, a, b))`` for float arrays whose
    entries are NaN or in [-1, 1], given float sides and their
    ``_section_box``: the triangle test runs only on the points inside the
    box, a small share of the chart."""
    a_lo, a_hi, b_lo, b_hi = box
    near = a > a_lo
    near &= a < a_hi
    near &= b > b_lo
    near &= b < b_hi
    i = np.flatnonzero(near)
    return i.compress(_in_section(sides, a.take(i), b.take(i)))


def first_return(point: ChartPoint, loop: RauzyPath, cap: int = 10**4):
    """First genuine return of the point's orbit to the loop's cylinder.

    The point must lie in the cylinder: its first L blocks are checked
    against the loop's, so it always takes at least L steps.  The orbit
    returns at the first step k <= ``cap`` whose image lies in the open
    section triangle.  Returns a ReturnRecord with the k blocks taken, the
    image and the roof -log D summed over those steps, or NoReturn if no
    image within ``cap`` steps is in the triangle.
    """
    validate_loop(loop)
    blocks = _as_blocks(loop)
    sides = _section_sides(loop)
    consumed: list[tuple[int, str]] = []
    found = None
    cum = 0.0
    steps = itertools.islice(_orbit(point, blocks), max(cap, len(blocks)))
    for m, (cell, d, image) in enumerate(steps, start=1):
        cum -= math.log(d)
        consumed.append((cell.n, cell.kind))
        image.validate()  # ValueError if float rounding left the chart
        if found is None and m <= cap and _in_section(sides, image.a, image.b):
            found = ReturnRecord(
                start=point,
                path=path_from_blocks(loop.start, consumed),
                return_point=image,
                roof_value=cum,
            )
        if found is not None and m >= len(blocks):
            return found
    return NoReturn(depth=cap)


# --- tail of the roof over first returns ----------------------------------------

@dataclass
class TailCurve:
    thresholds: list[float]
    probabilities: list[float]
    fitted_exponent: float
    fit_residual: float
    samples: int
    no_return: int
    fit_points: int
    loop: str = ""
    drawn: int = 0  # section points drawn, the denominator of probabilities
    fit_t_min: Optional[float] = None  # smallest threshold in the fit
    fit_t_max: Optional[float] = None  # largest threshold in the fit

    def to_json(self) -> dict:
        # a fit that did not happen is NaN here and null in JSON
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in asdict(self).items()}

    def to_csv(self) -> str:
        lines = ["T,probability"]
        for t, p in zip(self.thresholds, self.probabilities):
            lines.append(f"{t:.17g},{p:.17g}")
        return "\n".join(lines)


def _first_returns(a, b, loop: RauzyPath, cap: int):
    """``first_return`` of every section point (a, b) of the loop, one
    accelerated step of all of them at a time.

    Returns (index, roofs, lost): the index into (a, b) of each point that
    returns within ``cap`` steps, and its roof, in the order of return (by
    step, then by index); and the number of points lost to holes, to the
    cap or outside the cylinder.

    After every step, a point whose image lies in the open section
    triangle (``_in_section``) returns, with the running sum of -log D as
    its roof.  ``_section_hits`` finds those points: the triangle test runs
    only on the points in the triangle's widened bounding box.  The first
    L steps are the loop's own blocks, so they take each block's known
    branch (n, kind) with no counter: with s = 1 - a, rem = a - n s,
    D = a - (n - 1) s and c = s - b, the image is (b / D, c / D) after a
    cyc ending or (b / D, rem / D) after a swap, the floats that
    ``accelerated_step_batch`` computes there.  For n = 1, rem and D are
    a - s and a, the same floats as a - 1 s and a - 0 s.  These steps run
    in place, in four rows allocated once per call (the caller's arrays
    are not changed).  A point whose float arithmetic leaves that branch
    (rem >= b, rem <= 0, the other ending, or D < b when n > 1) is outside
    the cylinder, where ``first_return`` raises OutsideCylinder, and
    counts as lost, even if it was back in the triangle before; the
    arrays are compacted once, after those steps.
    Each later step runs ``accelerated_step_batch`` on the running
    points, then compacts the arrays once, with one ``flatnonzero`` and a
    ``take`` per row.  A point that has not returned and whose image has
    a < 1/2 is lost there, one step before it would fall into a hole:
    fl(1 - a) >= 1/2 > a, so rem = a - n s < 0 for every n >= 1.  A dead
    point still has D >= b > 0, so its -log D is finite junk that the
    compaction drops.  The float sides and box come from
    ``_float_section``, once per loop, and the roof sums are updated in
    place.
    """
    tokens = _as_blocks(loop)
    sides, box = _float_section(loop)
    size = a.size
    inside = np.ones(size, dtype=bool)
    returned = np.zeros(size, dtype=bool)
    test = np.empty(size, dtype=bool)
    early = []  # (index, roof) of the returns at each of the first L steps
    cum = np.zeros(size)
    a, b, c, rem = a.copy(), b.copy(), np.empty(size), np.empty(size)
    # an outside point's junk may be negative or NaN: its D has no log
    with np.errstate(divide="ignore", invalid="ignore"):
        for m, (n, kind) in enumerate(tokens, start=1):
            s = np.subtract(1.0, a, out=c)
            if n == 1:
                np.subtract(a, s, out=rem)
            else:
                np.subtract(a, s * n, out=rem)
                np.subtract(a, s * (n - 1), out=a)
            d = a
            s -= b  # c = s - b
            cyc = kind == CYC
            inside &= np.less(rem, b, out=test)
            inside &= np.greater(rem, 0.0, out=test)
            inside &= np.less_equal(rem, c, out=test) if cyc else np.greater(rem, c, out=test)
            if n > 1:
                inside &= np.greater_equal(d, b, out=test)
            kept, free = (c, rem) if cyc else (rem, c)
            np.divide(kept, d, out=kept)
            np.divide(b, d, out=b)
            cum -= np.log(d, out=d)
            a, b, c, rem = b, kept, d, free
            if m <= cap:
                i = _section_hits(sides, box, a, b)
                i = i.compress(~returned.take(i))
                returned[i] = True
                early.append((i, cum.take(i)))
    found_index = [np.empty(0, dtype=np.int64)] + [i.compress(inside.take(i)) for i, _ in early]
    found_roofs = [np.empty(0)] + [r.compress(inside.take(i)) for i, r in early]
    running = np.greater_equal(a, 0.5, out=test)
    running &= inside
    running[returned] = False
    index = np.flatnonzero(running)
    lost = size - index.size - sum(i.size for i in found_index)
    a, b, cum = (v.take(index) for v in (a, b, cum))
    for _ in range(len(tokens) + 1, cap + 1):
        if not a.size:
            break
        a, b, _, _, d, alive = accelerated_step_batch(a, b)
        cum -= np.log(d, out=d)
        i = _section_hits(sides, box, a, b)
        i = i.compress(alive.take(i))
        found_index.append(index.take(i))
        found_roofs.append(cum.take(i))
        keep = a >= 0.5
        keep &= alive
        keep[i] = False
        j = np.flatnonzero(keep)
        lost += a.size - j.size - i.size
        a, b, index, cum = (v.take(j) for v in (a, b, index, cum))
    lost += a.size  # still running at the cap
    return np.concatenate(found_index), np.concatenate(found_roofs), lost


_MAX_DRAW_FACTOR = 200  # section points drawn per requested return, at most


def return_roofs(
    loop: RauzyPath,
    samples: int,
    seed: int = 0,
    cap: int = 10**4,
    workers: int = 1,
) -> tuple[np.ndarray, int, int]:
    """Roof values of at least ``samples`` first returns, unless the cap
    of ``samples * _MAX_DRAW_FACTOR`` drawn points (rounded up to the next
    whole block) comes first.

    Section points are drawn Lebesgue-uniformly in fixed-size blocks
    (block i seeded as (seed, tag, i)), and blocks 0, 1, ... are kept up
    to the first one that brings the returns to ``samples``, or up to the
    draw cap; almost every uniform point eventually falls into a hole, so
    the returning fraction is well below 1 and is part of the measured
    statistics.  Returns (roof values, points drawn, points lost to holes,
    the depth cap or float rounding out of the cylinder): the kept blocks'
    roofs in block order, and their totals.  Fewer than ``samples`` roof
    values means the draw cap stopped the run.  Bit-identical for any
    worker count.

    Each block runs ``_first_returns``, on ``workers`` threads through
    ``_run_blocks``; the blocks it has started past the stopping block, at
    most ``2 workers``, are dropped.  As each kept block is taken, its
    index, the totals so far (``drawn``, ``returns``, ``lost``) and the
    wall time since the previous one go to the ``rauzygasket`` logger at
    DEBUG as one JSON line.  ValueError unless samples >= 1.
    """
    _check_samples(samples)
    validate_loop(loop)

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_TAIL, i))
        _, vals, lost = _first_returns(*sample_section(loop, rng, size), loop, cap)
        return vals, lost

    # blocks are kept in index order up to the first that brings the
    # returns to ``samples``, so the output does not depend on the worker
    # count
    max_blocks = -(-samples * _MAX_DRAW_FACTOR // _BLOCK)
    collected = []
    drawn = 0
    lost = 0
    got = 0
    t0 = time.perf_counter()
    blocks = [(j, _BLOCK) for j in range(max_blocks)]
    with contextlib.closing(_run_blocks(block, blocks, workers)) as results:
        for j, (vals, dead) in enumerate(results):
            collected.append(vals)
            got += vals.size
            lost += dead
            drawn += _BLOCK
            now = time.perf_counter()
            log.debug("%s", json.dumps({"stage": "draw", "block": j, "drawn": drawn,
                                        "returns": got, "lost": lost, "wall_s": now - t0}))
            t0 = now
            if got >= samples:
                break
    roofs = np.concatenate(collected) if collected else np.empty(0)
    return roofs, drawn, lost


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, RMS residual) of the least-squares line through (x, y): the
    one fit behind every exponent the package reports."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))


_MIN_COUNT = 100  # returns a threshold needs to enter the tail fit


def _check_grid(t_grid) -> None:
    """ValueError naming the first threshold that is not finite and > 0."""
    for t in () if t_grid is None else t_grid:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"tail threshold {t} must be finite and > 0")


def fit_tail(
    roofs: np.ndarray,
    draws: int,
    t_grid: Optional[Sequence[float]] = None,
) -> tuple[list, list, float, float, list]:
    """Empirical tail P(r >= log T), normalized by section points drawn,
    and its log-log slope: (thresholds, probabilities, exponent, RMS
    residual, the thresholds that entered the fit).

    Only thresholds exceeded by at least ``_MIN_COUNT`` returns enter the
    fit (variance control).  The default grid spans the genuine tail:
    from the 99th percentile of the observed roofs (past any short-return
    bulk) down to the ``_MIN_COUNT`` order statistic.  The exponent and
    residual are NaN when fewer than two thresholds enter the fit.
    """
    _check_grid(t_grid)
    n = roofs.size
    if t_grid is None and n > _MIN_COUNT:
        srt = np.sort(roofs)
        hi = float(srt[-_MIN_COUNT])
        lo = float("inf")
        for q in (0.99, 0.97, 0.9, 0.5):
            lo = float(np.quantile(srt, q))
            if lo < hi:
                break
        if not lo < hi:
            lo, hi = float(srt[0]), float(srt[-1])
        t_grid = np.exp(np.linspace(lo, hi, 10))
    elif t_grid is None:
        t_grid = np.exp(np.linspace(0.5, 1.5, 10))
    ts = sorted(float(t) for t in t_grid)
    probs = []
    counts = []
    for t in ts:
        c = int(np.count_nonzero(roofs >= math.log(t)))
        counts.append(c)
        probs.append(c / draws if draws else 0.0)
    usable = [(t, p) for t, p, c in zip(ts, probs, counts) if c >= _MIN_COUNT and p < 1.0]
    window = [t for t, _ in usable]
    if len(usable) < 2:
        return ts, probs, float("nan"), float("nan"), window
    slope, resid = _fit_line(np.log(window), np.log([p for _, p in usable]))
    return ts, probs, -slope, resid, window


def roof_tail(
    loop: RauzyPath,
    samples: int,
    t_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
    cap: int = 10**4,
    workers: int = 1,
    loop_name: str = "",
) -> TailCurve:
    """Tail curve over at least ``samples`` first-return samples.

    ``return_roofs`` logs each kept block; the fit logs its window and
    wall time as one more JSON line at DEBUG."""
    _check_grid(t_grid)
    roofs, drawn, lost = return_roofs(loop, samples, seed=seed, cap=cap, workers=workers)
    t0 = time.perf_counter()
    ts, probs, exponent, residual, window = fit_tail(roofs, drawn, t_grid)
    fit_t_min, fit_t_max = min(window, default=None), max(window, default=None)
    log.debug("%s", json.dumps({"stage": "fit", "fit_points": len(window), "fit_t_min": fit_t_min,
                                "fit_t_max": fit_t_max, "wall_s": time.perf_counter() - t0}))
    return TailCurve(
        thresholds=ts,
        probabilities=probs,
        fitted_exponent=exponent,
        fit_residual=residual,
        samples=int(roofs.size),
        no_return=lost,
        fit_points=len(window),
        loop=loop_name,
        drawn=drawn,
        fit_t_min=fit_t_min,
        fit_t_max=fit_t_max,
    )
