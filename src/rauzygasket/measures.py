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

import json
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graph import (
    START,
    RauzyPath,
    apply_kind,
    cocycle_of,
    is_complete,
    is_positive,
    path_from_blocks,
)
from .induction import CYC, STAY, SWAP
from .markov import (
    KIND_CODE,
    ChartPoint,
    HoleCell,
    _counter_batch,
    _step,
    accelerated_step_batch,
    sample_sorted_simplex,
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


def _blocks(samples: int):
    full, rem = divmod(samples, _BLOCK)
    sizes = [_BLOCK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _run_blocks(fn, blocks, workers: int):
    """Run ``fn(i, size)`` over the (index, size) blocks, in order.  Block
    i always uses the stream seeded (seed, tag, i), so results are
    independent of worker count."""
    if workers <= 1:
        return [fn(i, size) for i, size in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), blocks))


_TAG_KERCKHOFF = 1
_TAG_BALANCE = 2
_TAG_TAIL = 3


def kerckhoff_exact_probability(t: float) -> Fraction:
    """Exact probability, for unit weights, that a coordinate ratio
    exceeds t during one maximal run of the leader (used as a test oracle
    and to report margins)."""
    if t < 1:
        return Fraction(1)
    k = math.ceil(t - 1)
    if k + 1 <= t:  # ratio k+1 must strictly exceed t
        k += 1
    return Fraction(3, (k + 1) ** 2)


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
    below t = 1 the bound is vacuous and the frequency just stays <= 1."""

    def block(i: int, size: int) -> int:
        rng = np.random.default_rng((seed, _TAG_KERCKHOFF, i))
        a, b = sample_sorted_simplex(rng, size)
        s = 1.0 - a
        n = _counter_batch(a, b, s)
        rem = a - n * s
        wins = np.where(rem > 0, n, n - 1)
        # each win adds the winner's unit weight to both losers
        ratio = 1.0 + wins
        return int(np.count_nonzero(ratio > t))

    hits = _run_blocks(block, _blocks(samples), workers)
    return sum(hits) / samples


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
    ``_BALANCE_MAX_STEPS`` steps.

    A block is walked as ``_first_returns`` walks its points, with the
    weights and letters by rank, leader first, and one compaction per
    step, on ``alive & ~complete``.
    """
    cs = [float(c) for c in c_grid]
    if any(c <= 1 for c in cs):
        raise ValueError("C values must exceed 1")

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_BALANCE, i))
        a, b = sample_sorted_simplex(rng, size)
        weights = np.ones((3, size))  # by rank
        letters = np.tile(np.arange(3)[:, None], (1, size))  # letter index at each rank
        won = np.zeros(size, dtype=np.int64)
        done_max = []
        for _ in range(_BALANCE_MAX_STEPS):
            if not a.size:
                break
            a, b, n, kind, _, alive = accelerated_step_batch(a, b)
            won |= 1 << letters[0]
            weights[1:] += n * weights[0]
            cyc = kind == KIND_CODE[CYC]
            weights, letters = (
                np.where(cyc, *(np.stack(apply_kind(tuple(x), k)) for k in (CYC, SWAP)))
                for x in (weights, letters)
            )
            complete = alive & (won == 0b111)
            done_max.append(weights.compress(complete, axis=1).max(axis=0))
            keep = alive & ~complete
            a, b, won = (v.compress(keep) for v in (a, b, won))
            weights, letters = (v.compress(keep, axis=1) for v in (weights, letters))
        mx = np.concatenate(done_max)
        return mx, size - mx.size

    parts = _run_blocks(block, _blocks(samples), workers)
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

def _block_totals(point: ChartPoint, blocks: Sequence[tuple[int, str]]):
    """Yield the per-block totals D = n a - (n-1) along the accelerated
    blocks from the point, exact or float.

    Raises OutsideCylinder if the point does not follow the blocks, and
    TieOnBoundary where ``cell_of`` does.
    """
    for n, kind in blocks:
        cell, d, point = _step(point)
        if isinstance(cell, HoleCell) or (cell.n, cell.kind) != (n, kind):
            raise OutsideCylinder(f"expected block {(n, kind)}, point has {cell}")
        yield d


def roof_scale(point: ChartPoint, blocks: Sequence[tuple[int, str]]) -> Fraction:
    """Exact l1 norm of the de-renormalized length vector along the given
    accelerated blocks: the product of the per-block totals n a - (n-1).

    Raises OutsideCylinder if the point does not follow the blocks.
    """
    point.exact()  # ValueError for a float point
    return math.prod(_block_totals(point, blocks), start=Fraction(1))


def _as_blocks(path) -> list[tuple[int, str]]:
    if isinstance(path, RauzyPath):
        return [(st.n, st.kind) for st in path.steps]
    return [(int(n), kind) for n, kind in path]


def roof(point: ChartPoint, path) -> float:
    """Return-time value -log || (B*)^{-1} lambda ||_1 of the path at the
    point; per accelerated block this is -log(n a - (n-1))."""
    blocks = _as_blocks(path)
    if not blocks:
        return 0.0
    if isinstance(point.a, float):
        return -sum(map(math.log, _block_totals(point, blocks)))
    return -math.log(roof_scale(point, blocks))


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
    """Exact chart vertices of the loop's cylinder: the forward cocycle
    applied to the extreme rays of the end state's sorted cone."""
    m = cocycle_of(loop)
    end = loop.end
    rays = []
    for k in (1, 2, 3):
        ray = [Fraction(0)] * 3
        for letter in end[:k]:
            ray[letter - 1] = Fraction(1)
        rays.append(tuple(ray))
    verts = []
    for ray in rays:
        v = m.apply(ray)
        t = v[0] + v[1] + v[2]
        verts.append((v[0] / t, v[1] / t))
    return tuple(verts)


def sample_section(loop: RauzyPath, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lebesgue-uniform chart samples of the loop's cylinder (a triangle,
    so no rejection is needed)."""
    (x1, y1), (x2, y2), (x3, y3) = [(float(p), float(q)) for p, q in section_triangle(loop)]
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1
    np.subtract(1.0, u, out=u, where=flip)
    np.subtract(1.0, v, out=v, where=flip)
    a = x1 + u * (x2 - x1) + v * (x3 - x1)
    b = y1 + u * (y2 - y1) + v * (y3 - y1)
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


def _prefix_function(tokens: list) -> list[int]:
    fail = [0] * (len(tokens) + 1)
    k = 0
    for i in range(1, len(tokens)):
        while k > 0 and tokens[i] != tokens[k]:
            k = fail[k]
        if tokens[i] == tokens[k]:
            k += 1
        fail[i + 1] = k
    return fail


def _loop_automaton(tokens: list):
    """The matcher of the loop's blocks in an itinerary, as tables.

    A block is of class j + 1 if it is ``symbols[j]``, the j-th distinct
    block of the loop, and of class 0 if the loop has no such block.  The
    state k < L is the length of the longest prefix of the loop that ends
    the blocks read so far.  Reading a block of class x in state k,
    ``hit[k, x]`` says the whole loop now ends them, and ``nxt[k, x]`` is
    the next state, the loop's longest proper border after a hit."""
    L = len(tokens)
    fail = _prefix_function(tokens)
    symbols = tuple(dict.fromkeys(tokens))
    nxt = np.zeros((L, len(symbols) + 1), dtype=np.int64)
    hit = np.zeros(nxt.shape, dtype=bool)
    for k in range(L):
        for x, sym in enumerate((None,) + symbols):
            state = k
            while state > 0 and sym != tokens[state]:
                state = fail[state]
            state = state + 1 if sym == tokens[state] else 0
            hit[k, x] = state == L
            nxt[k, x] = fail[L] if state == L else state
    return symbols, nxt, hit


def first_return(point: ChartPoint, loop: RauzyPath, cap: int = 10**4):
    """First genuine return of the point's orbit to the loop's cylinder.

    The point must lie in the cylinder (its leading symbols are checked
    against the loop).  Returns a ReturnRecord whose path is the symbolic
    itinerary consumed before the orbit's future again begins with the
    loop, or NoReturn if that does not happen within ``cap`` steps.
    """
    validate_loop(loop)
    tokens = _as_blocks(loop)
    L = len(tokens)
    symbols, nxt, hit = _loop_automaton(tokens)
    state = 0
    consumed: list[tuple[int, str]] = []
    trail: list[tuple[ChartPoint, float]] = [(point, 0.0)]  # post-step points, cumulative roof
    cur = point
    cum = 0.0
    for m in range(1, cap + L + 1):
        cell, d, image = _step(cur)
        if isinstance(cell, HoleCell):
            raise OutsideCylinder(f"orbit fell into a hole after {m - 1} steps")
        sym = (cell.n, cell.kind)
        cum -= math.log(d)
        consumed.append(sym)
        if m <= L and sym != tokens[m - 1]:
            raise OutsideCylinder(
                f"point is not in the loop cylinder: step {m} is {sym}, "
                f"expected {tokens[m - 1]}"
            )
        x = symbols.index(sym) + 1 if sym in symbols else 0
        if hit[state, x] and m - L >= 1:
            ret_point, ret_cum = trail[m - L]
            path = path_from_blocks(loop.start, consumed[:m - L])
            return ReturnRecord(
                start=point,
                path=path,
                return_point=ret_point,
                roof_value=ret_cum,
            )
        state = nxt[state, x]
        cur = image.validate()
        trail.append((cur, cum))
        if m - L >= cap:
            break
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
        fitted = not math.isnan(self.fitted_exponent)
        return {
            "thresholds": self.thresholds,
            "probabilities": self.probabilities,
            "fitted_exponent": self.fitted_exponent if fitted else None,
            "fit_residual": self.fit_residual if fitted else None,
            "samples": self.samples,
            "no_return": self.no_return,
            "fit_points": self.fit_points,
            "loop": self.loop,
            "drawn": self.drawn,
            "fit_t_min": self.fit_t_min,
            "fit_t_max": self.fit_t_max,
        }

    def to_csv(self) -> str:
        lines = ["T,probability"]
        for t, p in zip(self.thresholds, self.probabilities):
            lines.append(f"{t:.17g},{p:.17g}")
        return "\n".join(lines)


def _first_returns(a, b, tokens: list, cap: int):
    """``first_return`` of every section point (a, b) of the loop with
    blocks ``tokens``, one accelerated step of all of them at a time.

    Returns (index, roofs, lost): the index into (a, b) of each point that
    returns within ``cap`` steps past the loop, and its roof, in the order
    of return (by step, then by index); and the number of points lost to
    holes or to the cap.  Each step runs the loop matcher on every point,
    dead ones included, then compacts the arrays once, on
    ``alive & ~returned``.  A dead point still has D >= b > 0, so its
    -log D is finite junk that the compaction drops.
    """
    L = len(tokens)
    symbols, nxt, hit = _loop_automaton(tokens)
    width = nxt.shape[1]
    nxt, hit = nxt.ravel(), hit.ravel()
    index = np.arange(a.size)
    state = np.zeros(a.size, dtype=np.int64)
    cum = np.zeros(a.size)
    ring = np.zeros((L, a.size))  # the last L roof increments
    found_index = []
    found_roofs = []
    lost = 0
    m = 0
    while a.size:
        m += 1
        a, b, n, kind, d, alive = accelerated_step_batch(a, b)
        inc = -np.log(d)
        cum = cum + inc
        ring[(m - 1) % L] = inc
        at = state * width  # flat index of (state, class) in the tables
        for x, (sym_n, sym_kind) in enumerate(symbols, start=1):
            at += x * ((n == sym_n) & (kind == KIND_CODE[sym_kind]))
        ret = hit[at] & alive & (m - L >= 1)
        state = nxt[at]
        if ret.any():
            found_index.append(index[ret])
            found_roofs.append(cum[ret] - ring[:, ret].sum(axis=0))
        keep = alive & ~ret
        lost += int(np.count_nonzero(~alive))
        if m - L >= cap:
            lost += int(np.count_nonzero(keep))
            break
        a, b, index, state, cum = (v.compress(keep) for v in (a, b, index, state, cum))
        ring = ring.compress(keep, axis=1)
    if not found_roofs:
        return np.empty(0, dtype=np.int64), np.empty(0), lost
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
    (block i seeded as (seed, tag, i)) until enough of them return or
    the draw cap is reached; almost every uniform point eventually falls
    into a hole, so the returning fraction is well below 1 and is part
    of the measured statistics.  Returns (roof values, points drawn,
    points lost to holes or the depth cap); fewer than ``samples`` roof
    values means the draw cap stopped the run.  Bit-identical for any
    worker count.

    Each block runs ``_first_returns``, which compacts its arrays once per
    accelerated step.  As each round of blocks ends, the totals so far
    (``drawn``, ``returns``, ``lost``) and the round's wall time go to the
    ``rauzygasket`` logger at DEBUG as one JSON line.
    """
    validate_loop(loop)
    tokens = _as_blocks(loop)

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_TAIL, i))
        _, vals, lost = _first_returns(*sample_section(loop, rng, size), tokens, cap)
        return vals, lost

    # blocks are consumed in fixed-size rounds so the set of blocks (and
    # hence the output) never depends on the worker count
    round_size = 8
    collected = []
    drawn = 0
    lost = 0
    got = 0
    i = 0
    max_blocks = max(1, (samples * _MAX_DRAW_FACTOR) // _BLOCK + 1)
    while got < samples and i < max_blocks:
        t0 = time.perf_counter()
        batch = [(j, _BLOCK) for j in range(i, min(i + round_size, max_blocks))]
        for vals, dead in _run_blocks(block, batch, workers):
            collected.append(vals)
            got += vals.size
            lost += dead
            drawn += _BLOCK
        log.debug("%s", json.dumps({"stage": "draw", "round": i // round_size, "drawn": drawn,
                                    "returns": got, "lost": lost,
                                    "wall_s": time.perf_counter() - t0}))
        i += round_size
    roofs = np.concatenate(collected) if collected else np.empty(0)
    return roofs, drawn, lost


_MIN_COUNT = 100  # returns a threshold needs to enter the tail fit


def _check_grid(t_grid) -> None:
    """ValueError naming the first threshold that is not finite and > 0."""
    for t in () if t_grid is None else t_grid:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"tail threshold {t} must be finite and > 0")


def _tail_fit(roofs: np.ndarray, draws: int, t_grid):
    """``fit_tail`` with the thresholds that entered the fit in place of
    their number."""
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
    x = np.log(window)
    y = np.log([p for _, p in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ts, probs, float(-slope), resid, window


def fit_tail(
    roofs: np.ndarray,
    draws: int,
    t_grid: Optional[Sequence[float]] = None,
) -> tuple[list, list, float, float, int]:
    """Empirical tail P(r >= log T), normalized by section points drawn,
    and its log-log slope.

    Only thresholds exceeded by at least ``_MIN_COUNT`` returns enter the
    fit (variance control).  The default grid spans the genuine tail:
    from the 99th percentile of the observed roofs (past any short-return
    bulk) down to the ``_MIN_COUNT`` order statistic.
    """
    ts, probs, exponent, resid, window = _tail_fit(roofs, draws, t_grid)
    return ts, probs, exponent, resid, len(window)


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

    ``return_roofs`` logs each draw round; the fit logs its window and
    wall time as one more JSON line at DEBUG."""
    _check_grid(t_grid)
    roofs, drawn, lost = return_roofs(loop, samples, seed=seed, cap=cap, workers=workers)
    t0 = time.perf_counter()
    ts, probs, exponent, residual, window = _tail_fit(roofs, drawn, t_grid)
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
