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

import math
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
    ChartPoint,
    _counter,
    _counter_batch,
    accelerated_step_batch,
    apply_T,
    sample_sorted_simplex,
)

Q_ONES: tuple[Fraction, Fraction, Fraction] = (Fraction(1), Fraction(1), Fraction(1))

_KIND_CODE = {SWAP: 0, CYC: 1}


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
    (the first generalized step after which every letter has won)."""
    cs = [float(c) for c in c_grid]
    if any(c <= 1 for c in cs):
        raise ValueError("C values must exceed 1")

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_BALANCE, i))
        a, b = sample_sorted_simplex(rng, size)
        order = np.tile(np.arange(3), (size, 1))  # letter index at each rank
        weights = np.ones((size, 3))
        won = np.zeros(size, dtype=np.int64)
        active = np.ones(size, dtype=bool)
        done_max = np.full(size, np.nan)
        done_min = np.full(size, np.nan)
        for _ in range(_BALANCE_MAX_STEPS):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            a2, b2, n, kind, d, alive = accelerated_step_batch(a[idx], b[idx])
            sub = idx[alive]
            na = n[alive]
            ka = kind[alive]
            w = order[sub, 0]
            won[sub] |= 1 << w
            gain = na * weights[sub, w]
            for col in range(3):
                mask = w != col
                weights[sub[mask], col] += gain[mask]
            # reorder letters: swap = exchange ranks 0,1; cyc = rotate left
            o = order[sub]
            swapped = o[:, (1, 0, 2)]
            cycled = o[:, (1, 2, 0)]
            order[sub] = np.where((ka == 0)[:, None], swapped, cycled)
            a[sub] = a2[alive]
            b[sub] = b2[alive]
            dead = idx[~alive]
            active[dead] = False
            complete = sub[won[sub] == 0b111]
            if complete.size:
                done_max[complete] = weights[complete].max(axis=1)
                done_min[complete] = weights[complete].min(axis=1)
                active[complete] = False
        finished = ~np.isnan(done_max)
        return done_max[finished], done_min[finished], int(size - finished.sum())

    parts = _run_blocks(block, _blocks(samples), workers)
    mx = np.concatenate([p[0] for p in parts])
    mn = np.concatenate([p[1] for p in parts])
    unresolved = sum(p[2] for p in parts)
    out = []
    for c in cs:
        hits = np.count_nonzero(mx < c * np.minimum(mn, 1.0))
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

def _block_totals(a, b, c, blocks: Sequence[tuple[int, str]]):
    """Yield the per-block totals n a - (n-1) along the accelerated
    blocks from the sorted lengths (a, b, c), exact or float.

    Raises OutsideCylinder if the point does not follow the blocks.
    """
    for n, kind in blocks:
        s = 1 - a
        got_n = _counter(a, b, s)
        rem = a - got_n * s
        if rem <= 0 or got_n != n:
            raise OutsideCylinder(f"expected counter {n}, point has {got_n}")
        got_kind = SWAP if rem > c else CYC
        if got_kind != kind:
            raise OutsideCylinder(f"expected {kind} ending, point has {got_kind}")
        d = a - (n - 1) * s
        yield d
        a, b, c = sorted((rem / d, b / d, c / d), reverse=True)


def roof_scale(point: ChartPoint, blocks: Sequence[tuple[int, str]]) -> Fraction:
    """Exact l1 norm of the de-renormalized length vector along the given
    accelerated blocks: the product of the per-block totals n a - (n-1).

    Raises OutsideCylinder if the point does not follow the blocks.
    """
    return math.prod(_block_totals(*point.exact(), blocks), start=Fraction(1))


def _as_blocks(path) -> list[tuple[int, str]]:
    if isinstance(path, RauzyPath):
        return [(st.n, st.kind) for st in path.steps]
    return [(int(n), kind) for n, kind in path]


def roof(point, path) -> float:
    """Return-time value -log || (B*)^{-1} lambda ||_1 of the path at the
    point; per accelerated block this is -log(n a - (n-1)).

    Accepts a ChartPoint or anything with sorted_lengths() (the chart
    only sees the sorted lengths)."""
    if not isinstance(point, ChartPoint):
        a, b, _ = point.sorted_lengths()
        point = ChartPoint.from_fractions(Fraction(a), Fraction(b))
    blocks = _as_blocks(path)
    if not blocks:
        return 0.0
    if point.shadow is not None:
        return -math.log(roof_scale(point, blocks))
    return -sum(map(math.log, _block_totals(*point.coords(), blocks)))


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
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
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
    fail = _prefix_function(tokens)
    state = 0
    consumed: list[tuple[int, str]] = []
    trail: list[tuple[ChartPoint, float]] = [(point, 0.0)]  # post-step points, cumulative roof
    cur = point
    cum = 0.0
    for m in range(1, cap + L + 1):
        out = apply_T(cur)
        if not isinstance(out, tuple):
            raise OutsideCylinder(f"orbit fell into a hole after {m - 1} steps")
        nxt, cell = out
        sym = (cell.n, cell.kind)
        d = (cell.n * cur.a - (cell.n - 1)) if cur.shadow is None else float(
            cell.n * cur.shadow[0] - (cell.n - 1)
        )
        cum -= math.log(d)
        consumed.append(sym)
        if m <= L and sym != tokens[m - 1]:
            raise OutsideCylinder(
                f"point is not in the loop cylinder: step {m} is {sym}, "
                f"expected {tokens[m - 1]}"
            )
        while state > 0 and sym != tokens[state]:
            state = fail[state]
        if sym == tokens[state]:
            state += 1
        if state == L:
            r = m - L
            if r >= 1:
                ret_point, ret_cum = trail[r]
                path = path_from_blocks(loop.start, consumed[:r])
                return ReturnRecord(
                    start=point,
                    path=path,
                    return_point=ret_point,
                    roof_value=ret_cum,
                )
            state = fail[state]
        cur = nxt
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


_MAX_DRAW_FACTOR = 200  # section points drawn per requested return, at most


def return_roofs(
    loop: RauzyPath,
    samples: int,
    seed: int = 0,
    cap: int = 10**4,
    workers: int = 1,
) -> tuple[np.ndarray, int, int]:
    """Roof values of at least ``samples`` first returns, unless the cap
    of ``samples * _MAX_DRAW_FACTOR`` drawn points (rounded up to whole
    rounds of blocks) comes first.

    Section points are drawn Lebesgue-uniformly in fixed-size blocks
    (block i seeded as (seed, tag, i)) until enough of them return or
    the draw cap is reached; almost every uniform point eventually falls
    into a hole, so the returning fraction is well below 1 and is part
    of the measured statistics.  Returns (roof values, points drawn,
    points lost to holes or the depth cap); fewer than ``samples`` roof
    values means the draw cap stopped the run.  Bit-identical for any
    worker count.
    """
    validate_loop(loop)
    tokens = _as_blocks(loop)
    L = len(tokens)
    fail = np.asarray(_prefix_function(tokens), dtype=np.int64)
    loop_n = np.asarray([n for n, _ in tokens], dtype=np.int64)
    loop_k = np.asarray([_KIND_CODE[k] for _, k in tokens], dtype=np.int64)

    def block(i: int, size: int):
        rng = np.random.default_rng((seed, _TAG_TAIL, i))
        a, b = sample_section(loop, rng, size)
        state = np.zeros(size, dtype=np.int64)
        cum = np.zeros(size)
        ring = np.zeros((L, size))
        collected = []
        lost = 0
        m = 0
        while a.size:
            m += 1
            a2, b2, n, kind, d, alive = accelerated_step_batch(a, b)
            if not alive.all():
                lost += int(np.count_nonzero(~alive))
                a, b = a[alive], b[alive]
                a2, b2 = a2[alive], b2[alive]
                n, kind, d = n[alive], kind[alive], d[alive]
                state, cum, ring = state[alive], cum[alive], ring[:, alive]
            if not a.size:
                break
            inc = -np.log(d)
            cum = cum + inc
            ring[(m - 1) % L] = inc
            for _ in range(L + 1):
                match = (n == loop_n[state]) & (kind == loop_k[state])
                fall = (~match) & (state > 0)
                if not fall.any():
                    break
                state = np.where(fall, fail[state], state)
            state = np.where(match, state + 1, 0)
            hit = state == L
            ret = hit & (m - L >= 1)
            if ret.any():
                collected.append(cum[ret] - ring[:, ret].sum(axis=0))
            state = np.where(hit & ~ret, fail[L], state)
            keep = ~ret
            if m - L >= cap:
                lost += int(np.count_nonzero(keep))
                break
            a, b = a2[keep], b2[keep]
            state, cum, ring = state[keep], cum[keep], ring[:, keep]
        vals = np.concatenate(collected) if collected else np.empty(0)
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
        batch = [(j, _BLOCK) for j in range(i, i + round_size)]
        for vals, dead in _run_blocks(block, batch, workers):
            collected.append(vals)
            got += vals.size
            lost += dead
            drawn += _BLOCK
        i += round_size
    roofs = np.concatenate(collected) if collected else np.empty(0)
    return roofs, drawn, lost


_MIN_COUNT = 100  # returns a threshold needs to enter the tail fit


def _tail_fit(roofs: np.ndarray, draws: int, t_grid):
    """``fit_tail`` with the thresholds that entered the fit in place of
    their number."""
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
    """Tail curve over at least ``samples`` first-return samples."""
    roofs, drawn, lost = return_roofs(loop, samples, seed=seed, cap=cap, workers=workers)
    ts, probs, exponent, residual, window = _tail_fit(roofs, drawn, t_grid)
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
        fit_t_min=min(window, default=None),
        fit_t_max=max(window, default=None),
    )
