"""Cylinder enumeration, survivor masses, decay exponents, box counting.

Two symbolic resolutions are used, on purpose:

* survivor masses and the decay rate delta run on elementary steps
  (finite alphabet, so the masses are exact with no counter cap; depth-1
  survivors are exactly 3/4 of the chart);
* cylinder enumeration and the fast-decay exponent alpha_1 run on
  accelerated blocks, whose alphabet is countable: each level is cut at a
  counter cap plus a measure floor and closed with an exact aggregated
  remainder, so conservation still holds as rational identities.

The elementary decay rate tends to 0.  The all-stay path survives every
step, and its depth-n cylinder has mass 6 / ((n + 2)(2n + 3)) ~ 3 / n^2,
so -log mu(X_n) / n -> 0.  delta_hat is the least-squares slope of
-log mu(X_n) over a finite window of depths, where that curve is still
bending: it depends on the window and is not the limit rate.  The figure
2 - min(delta_hat, alpha_1) inherits that window.

The exact masses are integer ratios (see the integer mass calculus
below).  ``survivor_sweep``, ``fast_decay_estimate`` and ``depth_totals``
walk the tree with one generator, ``_descend``: it expands chunks of at
most ``_CELL_BUDGET`` cells (nodes x counters) in one numpy broadcast each,
depth first over the chunks, so the nodes it holds grow linearly in
depth.  The sweep keeps only exact partial sums, one term per expanded
node, since a node's three children have one closed-form total mass;
the accelerated walks also keep the denominators they sum, most of them
the branches and holes of the last level.  ``enumerate_cylinders`` runs
the same block arithmetic one node at a time and streams its records
depth first, in O(depth) memory, in the order the ``cylinders`` command
prints; it is the reference the chunked walk is tested against.  Each
walk picks its array dtype once, from a bound on the weights it can
reach: int64 when every denominator is below 2^53, where numpy's
``d0 / D`` is the correctly rounded quotient, as Python's int / int is;
otherwise object arrays of Python ints.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graph import START
from .induction import CYC, STAY, SWAP, apply_kind, format_scalar
from .markov import _CLOUD_BLOCK, chaos_game
# perfbench's Dimension.trace_targets looks up survivor_mass,
# enumerate_cylinders, elementary_children, block_child and hole_mass_at
# on this module by name, so a traced run fails if any of them goes
from .measures import (  # noqa: F401
    Q_ONES,
    _fit_line,
    block_child,
    cone_denominator,
    elementary_children,
    hole_mass_at,
)


log = logging.getLogger("rauzygasket")


class BracketTooWide(Exception):
    """Truncation dominates the survivor bracket; raise the depth budget
    or lower the floor."""


class DegenerateCloud(Exception):
    pass


class NonPositiveInput(Exception):
    pass


# --- integer mass calculus ----------------------------------------------------
#
# The weights q stay integer along any path from integer start weights, so
# the chart mass of a node with end state (q, order) is d0 / D, where
# D = cone_denominator(q, order) and d0 is the same at the start state.
# A node is its weights listed in its ordering, leader first, so D is
# w1 (w1 + w2) (w1 + w2 + w3) and a step permutes the weights as
# ``apply_kind`` permutes the ordering.  The walks run on integer arrays; a
# Fraction is built only where an exact total is reported.

_FLOAT_EXACT = 1 << 53  # int64 values below this convert to float64 exactly


def _integer_weights(q: Sequence) -> tuple[int, int, int]:
    """The weights scaled to integers.  Masses are ratios of cubic forms in
    q, so a common scale leaves them unchanged."""
    fr = [Fraction(x) for x in q]
    scale = math.lcm(*(f.denominator for f in fr))
    return tuple(int(f * scale) for f in fr)


def _floor_of(measure_floor) -> Fraction:
    """The measure floor as a Fraction; ValueError if it is negative."""
    floor = Fraction(measure_floor)
    if floor < 0:
        raise ValueError(f"measure floor must be >= 0, got {floor}")
    return floor


@dataclass(frozen=True)
class _Walk:
    """What a walk fixes before its first node."""

    w0: tuple  # start weights, listed in the start ordering
    d0: int  # D of the start state
    dtype: object  # of the walk's integer arrays: int64, or object (Python ints)
    cut: int  # a mass d0 / D is below the floor iff D > cut


def _walk(q: Sequence, start, depth: int, n_cap: int, measure_floor) -> _Walk:
    """The set-up of a walk of ``depth`` blocks with counters up to ``n_cap``.

    A block adds at most n_cap times the largest weight to a weight, so after
    ``depth`` blocks the weights are at most M = max(q0) (n_cap + 1)^depth
    and every denominator D, and every hole denominator, is at most 6 M^3.
    Below 2^53 the walk runs on int64, where ``d0 / D`` is numpy's correctly
    rounded float division of exact values; above, on Python ints."""
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    floor = _floor_of(measure_floor)
    q0 = _integer_weights(q)
    d0 = cone_denominator(q0, start)
    d_max = 6 * (max(q0) * (n_cap + 1) ** depth) ** 3
    # d0 / D < fn / fd  iff  D > d0 fd / fn  iff  D > (d0 fd) // fn
    cut = d_max if floor == 0 else min(d0 * floor.denominator // floor.numerator, d_max)
    dtype = np.int64 if d_max < _FLOAT_EXACT else object
    return _Walk(w0=tuple(q0[p - 1] for p in start), d0=d0, dtype=dtype, cut=cut)


class _Blocks(NamedTuple):
    """The cells of K counters from a level of N nodes, each field N x K.
    A cell's mass is d0 over its denominator."""

    lead: np.ndarray  # the leader's weight, which its wins leave unchanged
    second: np.ndarray  # the other two weights after n wins
    third: np.ndarray
    after: np.ndarray  # D of still leading after n wins
    swap: np.ndarray  # D of the swap ending at n
    cyc: np.ndarray  # D of the cyc ending at n
    hole: np.ndarray  # denominator of dying at the n-th win

    def weights(self, kind: str) -> np.ndarray:
        """The end weights of each cell's child, in the child's ordering
        (N x K x 3)."""
        return np.stack(apply_kind((self.lead, self.second, self.third), kind), axis=-1)

    def den(self, kind: str) -> np.ndarray:
        """D of each cell's child of ``kind``; STAY is still leading after
        n wins."""
        return {STAY: self.after, SWAP: self.swap, CYC: self.cyc}[kind]


def _expand(w: np.ndarray, n: np.ndarray) -> _Blocks:
    """The blocks of counters ``n`` (K) from nodes of weights ``w`` (N x 3),
    in one broadcast.

    After n wins of the leader l the others are a = w2 + n l and
    b = w3 + n l.  Still leading, the swap ending and the cyc ending have
    D = l (l + a) s, a (a + l) s and a (a + b) s with s = l + a + b; their
    reciprocals add up to 1 / (l a (a + b)), and still leading after n - 1
    wins has D = l a (a + b - l), the node's own D at n = 1.  So the hole,
    the difference, is 1 / (a (a + b - l) (a + b)): positive, with a
    denominator at most 4 M^3 for weights at most M."""
    lead = w[:, :1]
    a = w[:, 1:2] + n * lead
    b = w[:, 2:] + n * lead
    ab = a + b
    s = lead + ab
    lead = np.broadcast_to(lead, a.shape)
    return _Blocks(
        lead=lead,
        second=a,
        third=b,
        after=lead * (lead + a) * s,
        swap=a * (a + lead) * s,
        cyc=a * ab * s,
        hole=a * (ab - lead) * ab,
    )


_CELL_BUDGET = 3**10  # cells (nodes x counters) a walk expands in one broadcast


def _descend(walk: _Walk, depth: int, counters: np.ndarray, kinds) -> Iterator:
    """(level, blocks) for each chunk of the nodes of levels 0..depth - 1,
    depth first over chunks of at most ``_CELL_BUDGET`` cells (or one node).
    A child of ``kinds`` is a node of the next level iff its D <= walk.cut."""
    per_chunk = max(1, _CELL_BUDGET // counters.size)
    stack = [(0, np.array([walk.w0], dtype=walk.dtype))] if depth > 0 else []
    while stack:
        level, w = stack.pop()
        blocks = _expand(w, counters)
        yield level, blocks
        if level + 1 < depth:
            w = np.concatenate(
                [blocks.weights(kind)[blocks.den(kind) <= walk.cut] for kind in kinds])
            stack += [(level + 1, w[i:i + per_chunk]) for i in range(0, len(w), per_chunk)]


def _exact_sum(nums, dens) -> Fraction:
    """Exact sum of the terms nums[i] / dens[i] (dens > 0); ``nums`` may be
    one numerator shared by every term.

    Terms with equal denominators are merged first.  Then neighbours are
    merged pairwise, level by level, over the least common multiple of
    their denominators, so the long common denominators appear only in the
    last few merges.  One reduction at the end."""
    dens, inverse, counts = np.unique(np.asarray(dens), return_inverse=True, return_counts=True)
    if dens.size == 0:
        return Fraction(0)
    if np.ndim(nums) == 0:
        nums = counts.astype(object) * nums
    else:
        grouped = np.zeros(dens.size, dtype=object)
        np.add.at(grouped, inverse, np.asarray(nums, dtype=object))
        nums = grouped
    dens = dens.astype(object)
    while dens.size > 1:
        paired = dens.size - dens.size % 2
        a, b = dens[0:paired:2], dens[1:paired:2]
        g = np.gcd(a, b)
        merged = nums[0:paired:2] * (b // g) + nums[1:paired:2] * (a // g)
        nums = np.concatenate((merged, nums[paired:]))
        dens = np.concatenate((a // g * b, dens[paired:]))
    return Fraction(int(nums[0]), int(dens[0]))


# --- accelerated cylinder enumeration ----------------------------------------

@dataclass(frozen=True, slots=True)
class Cylinder:
    """One record of the accelerated symbolic enumeration.

    kind 'branch' is a genuine cylinder (survives, no hole edge); 'hole'
    is a dead cell; 'remainder' aggregates everything past the counter
    cap or below the measure floor at one node, kept exact so masses
    always add to the parent.  The mass is ``num / den``, not reduced.
    """

    path: tuple[tuple[int, str], ...]
    num: int
    den: int
    kind: str

    @property
    def survives(self) -> bool:
        return self.kind == "branch"

    @property
    def measure(self) -> Fraction:
        return Fraction(self.num, self.den)

    def to_json(self) -> dict:
        return {
            "path": [[n, k] for n, k in self.path],
            "measure": format_scalar(self.measure),
            "survives": self.survives,
            "kind": self.kind,
        }


def enumerate_cylinders(
    depth: int,
    measure_floor: Fraction = Fraction(0),
    n_cap: int = 64,
    start=START,
    q: Sequence = Q_ONES,
) -> Iterator[Cylinder]:
    """Depth-first exact enumeration of accelerated cylinders.

    Per node, children run over counters 1..n_cap and both endings, plus
    the hole cells at each possible dying step; the rest of the node's
    mass (counters past the cap, or any child below the floor together
    with its subtree) is emitted as one remainder record.  Enumerated +
    holes + remainders = 1 exactly at every depth.

    The budgets are checked when it is called, before the first record.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk = _walk(q, start, depth, n_cap, measure_floor)
    d0, cut = walk.d0, walk.cut
    counters = np.arange(1, n_cap + 1).astype(walk.dtype)

    def visit(prefix, w, level):
        # each counter n splits the part still leading after n - 1 wins (the
        # whole node at n = 1) into swap, cyc, hole and still leading after
        # n wins
        blocks = _expand(np.array([w], dtype=walk.dtype), counters)
        cells = zip(range(1, n_cap + 1), *(x[0].tolist() for x in blocks[1:]))
        pruned = []
        for n, a, b, d_after, d_swap, d_cyc, d_hole in cells:
            for kind, den in ((SWAP, d_swap), (CYC, d_cyc)):
                child_path = prefix + ((n, kind),)
                if den > cut:
                    pruned.append(den)  # stays inside this node's remainder
                elif level + 1 == depth:
                    yield Cylinder(child_path, d0, den, "branch")
                else:
                    yield from visit(child_path, apply_kind((w[0], a, b), kind), level + 1)
            if d_hole > cut:
                pruned.append(d_hole)
            else:
                yield Cylinder(prefix + ((n, "hole"),), d0, d_hole, "hole")
        pruned.append(d_after)  # still leading at the cap
        rest = _exact_sum(d0, np.array(pruned, dtype=walk.dtype))
        yield Cylinder(
            prefix + ((n_cap, "remainder"),), rest.numerator, rest.denominator, "remainder"
        )

    return visit((), walk.w0, 0)


def _accelerated_terms(depth, measure_floor=Fraction(0), n_cap=64, start=START, q=Q_ONES):
    """(d0, branch, hole, rest): the D of each term d0 / D of the branch,
    hole and remainder records ``enumerate_cylinders`` emits on these
    arguments."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk = _walk(q, start, depth, n_cap, measure_floor)
    counters = np.arange(1, n_cap + 1).astype(walk.dtype)
    branch, hole, rest = [], [], []
    for level, blocks in _descend(walk, depth, counters, (SWAP, CYC)):
        ends = (blocks.swap, blocks.cyc)
        if level + 1 == depth:
            branch += [den[den <= walk.cut] for den in ends]
        hole.append(blocks.hole[blocks.hole <= walk.cut])
        rest += [blocks.after[:, -1], blocks.hole[blocks.hole > walk.cut]]
        rest += [den[den > walk.cut] for den in ends]
    empty = [np.zeros(0, dtype=walk.dtype)]  # a level the floor empties yields no chunk
    return walk.d0, *(np.concatenate(dens + empty) for dens in (branch, hole, rest))


def depth_totals(depth: int, **kw) -> dict:
    """Exact mass accounting of one enumeration: by record kind."""
    d0, *terms = _accelerated_terms(depth, **kw)
    sums = dict(zip(("branch", "hole", "remainder"), (_exact_sum(d0, t) for t in terms)))
    sums["total"] = sums["branch"] + sums["hole"] + sums["remainder"]
    return sums


# --- elementary survivor masses and delta -------------------------------------

@dataclass
class SurvivorSweep:
    brackets: list[tuple[Fraction, Fraction]]  # [lower, upper] for depths 0..max
    nodes: int  # elementary nodes visited


def survivor_sweep(max_depth: int, measure_floor: Fraction = Fraction(0)) -> SurvivorSweep:
    """Exact brackets [lower, upper] for the mass surviving d elementary
    steps from the start ordering with unit weights, for every
    d = 0..max_depth, from one sweep.

    With floor 0 each bracket is a point.  A node below the floor is not
    expanded: it is dead in the lower bound and alive in the upper of
    every deeper bracket.

    The elementary tree is the accelerated tree at counter cap 1 with the
    cell still leading kept as a node (kind STAY), so the sweep is
    ``_descend`` with one counter: each level's exact mass is the sum of
    its chunks' partial sums.  A node's three children have the mass
    d0 / (l a (a + b)) together (see ``_expand``), so a chunk adds one
    term per expanded node to the next level's mass; only the children
    below the floor are summed one by one.
    """
    if max_depth < 0:
        raise ValueError("depth must be >= 0")
    walk = _walk(Q_ONES, START, max_depth, 1, measure_floor)
    kinds = (STAY, SWAP, CYC)
    root_kept = walk.d0 <= walk.cut  # a root below the floor stays unexpanded
    mass = [Fraction(1)] + [Fraction(0)] * max_depth
    pruned = [Fraction(0 if root_kept else 1)] + [Fraction(0)] * max_depth
    nodes = 1
    one = np.ones(1, dtype=walk.dtype)
    for level, blocks in _descend(walk, max_depth if root_kept else 0, one, kinds):
        # l a (a + b) is below the still-leading child's D, so int64 holds it
        a = blocks.second
        mass[level + 1] += _exact_sum(walk.d0, (blocks.lead * a * (a + blocks.third)).ravel())
        nodes += len(kinds) * a.size
        below = [d[d > walk.cut] for d in map(blocks.den, kinds)]
        pruned[level + 1] += _exact_sum(walk.d0, np.concatenate(below))
    # pruned mass is unresolved at every deeper level
    unresolved = accumulate(pruned, initial=Fraction(0))
    return SurvivorSweep(brackets=[(lo, lo + u) for lo, u in zip(mass, unresolved)], nodes=nodes)


def survivor_mass(depth: int, measure_floor: Fraction = Fraction(0)) -> tuple[Fraction, Fraction]:
    """Exact bracket [lower, upper] for the mass surviving ``depth``
    elementary steps: the deepest bracket of ``survivor_sweep``."""
    return survivor_sweep(depth, measure_floor).brackets[depth]


@dataclass
class DecayFit:
    exponent: float
    residual: float
    depths: list[int]
    values: list[float]  # -log mass (midpoint of brackets)
    widths: list[float]  # relative bracket widths
    nodes: int  # elementary nodes the survivor sweep visited


_MAX_RELATIVE_WIDTH = 0.2  # widest truncation bracket delta_estimate accepts


def delta_estimate(max_depth: int, measure_floor: Fraction = Fraction(0)) -> DecayFit:
    """Least-squares slope of -log mu(X_n) against n over n = 2..max_depth,
    using bracket midpoints.  Raises BracketTooWide when the truncation
    bracket at the deepest level exceeds ``_MAX_RELATIVE_WIDTH`` of the
    midpoint."""
    if max_depth < 3:
        raise ValueError("max_depth must be >= 3")
    sweep = survivor_sweep(max_depth, measure_floor)
    depths = list(range(2, max_depth + 1))
    values = []
    widths = []
    for d in depths:
        lo, hi = sweep.brackets[d]
        mid = (lo + hi) / 2
        width = float((hi - lo) / mid) if mid > 0 else math.inf
        widths.append(width)
        values.append(-math.log(float(mid)))
    if widths[-1] > _MAX_RELATIVE_WIDTH:
        raise BracketTooWide(
            f"relative bracket width {widths[-1]:.3g} at depth {max_depth}; "
            "raise the depth budget or lower the measure floor"
        )
    slope, resid = _fit_line(np.asarray(depths, dtype=float), np.asarray(values))
    return DecayFit(
        exponent=slope,
        residual=resid,
        depths=depths,
        values=[float(v) for v in values],
        widths=widths,
        nodes=sweep.nodes,
    )


# --- fast decay ----------------------------------------------------------------

@dataclass
class FastDecayFit:
    exponent: float
    residual: float
    eps: list[float]
    small_mass: list[float]  # S(eps): total mass of cylinders of mass <= eps
    enumerated: int
    remainder_exact: Fraction


_TRUNCATION_RATIO = 0.05  # largest remainder / S(eps) on the default grid


def fast_decay_estimate(
    depth: int,
    eps_grid: Optional[Sequence[float]] = None,
    n_cap: int = 128,
    measure_floor: Fraction = Fraction(0),
) -> FastDecayFit:
    """S(eps) = total mass of depth-``depth`` accelerated cylinders of
    mass <= eps, fitted as log S against log eps.

    S is computed over the enumerated (surviving) cylinders.  The
    aggregated remainder mixes surviving and dead tail cells, so the
    default grid is clamped to the range where the remainder is at most
    ``_TRUNCATION_RATIO`` of S (below the heaviest-cell scale the true S
    and the enumerated S differ by less than that), and to S at most half
    of the total so the saturation plateau stays out of the fit.
    """
    d0, branches, _, rest = _accelerated_terms(depth, measure_floor, n_cap)
    if not branches.size:
        raise ValueError("no cylinders enumerated; raise the budgets")
    # int / int is correctly rounded, on int64 and on Python ints alike
    values = np.sort((d0 / branches).astype(float))
    cum = np.cumsum(values)
    remainder = _exact_sum(d0, rest)

    def s_of(e: float) -> float:
        idx = int(np.searchsorted(values, e, side="right"))
        return float(cum[idx - 1]) if idx > 0 else 0.0

    if eps_grid is None:
        floor_s = float(remainder) / _TRUNCATION_RATIO
        lo_idx = int(np.searchsorted(cum, floor_s, side="left"))
        hi_idx = int(np.searchsorted(cum, 0.5 * float(cum[-1]), side="left"))
        lo_idx = min(lo_idx, values.size - 2)
        hi_idx = max(min(hi_idx, values.size - 1), lo_idx + 1)
        eps_grid = np.geomspace(values[lo_idx], values[hi_idx], 10)
    eps = sorted(float(e) for e in eps_grid)
    s_vals = [s_of(e) for e in eps]
    usable = [(e, s) for e, s in zip(eps, s_vals) if s > 0]
    if len(usable) < 2:
        raise ValueError("degenerate S(eps) grid; raise the budgets")
    slope, resid = _fit_line(np.log([e for e, _ in usable]), np.log([s for _, s in usable]))
    return FastDecayFit(
        exponent=slope,
        residual=resid,
        eps=eps,
        small_mass=s_vals,
        enumerated=int(branches.size),
        remainder_exact=remainder,
    )


# --- box counting ----------------------------------------------------------------

@dataclass
class BoxCountFit:
    dimension: float
    residual: float
    sizes: list[float]
    counts: list[int]


_MAX_LEVEL = 31  # finest grid 2**-31; two box indices below 2**32 fill a uint64 key


def _dyadic_level(size: float) -> int:
    """k with size == 2**-k exactly, k in 0.._MAX_LEVEL."""
    mantissa, exponent = math.frexp(size)
    k = 1 - exponent
    if mantissa != 0.5 or not 0 <= k <= _MAX_LEVEL:
        raise ValueError(f"grid size {size!r} is not 2**-k for an integer k in 0..{_MAX_LEVEL}")
    return k


def _box_counts(pts: np.ndarray, levels: Sequence[int]) -> list[int]:
    """Occupied boxes of the 2**-k grid for each k in ``levels``, for an
    (N, 2) cloud.

    One min/max pass over the cloud rejects non-finite points and points
    too far outside [0, 1]^2, and gives ``bits``, the bit length of the
    largest box index at the finest grid.  A box (i, j) is then the
    row-major key (i << bits) | j: uint32 when two indices fit in 32 bits
    (every grid down to 2**-16 for a cloud in the unit square), else
    uint64.  The keys are computed ``_CLOUD_BLOCK`` points at a time into
    one array, so the temporaries beside it have a fixed size whatever the
    cloud.  One sort of that array and a neighbour compare give the boxes
    of the finest grid; each coarser grid halves i and j of the distinct
    keys of the grid below, then sorts and dedupes that much smaller
    array."""
    if len(pts) == 0:
        return [0 for _ in levels]
    low, high = pts.min(), pts.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        row = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ValueError(f"point {row} has non-finite coordinates {pts[row].tolist()}")
    finest = max(levels)
    scale = 2.0**finest
    # a point exactly on a box boundary belongs to the lower-index box, so
    # the index is ceil(x 2**k) - 1, clamped at 0
    top = float(high) * scale
    if top > 2.0**32:
        raise ValueError("points lie too far outside [0, 1]^2 for the finest grid")
    bits = (math.ceil(max(top, 1.0)) - 1).bit_length()
    dtype = np.uint32 if 2 * bits <= 32 else np.uint64
    keys = np.empty(len(pts), dtype=dtype)
    # a point far below 0 may overflow to -inf, which the clamp sends to box 0
    with np.errstate(over="ignore"):
        for lo in range(0, len(pts), _CLOUD_BLOCK):
            idx = np.ceil(pts[lo:lo + _CLOUD_BLOCK] * scale)
            np.maximum(idx, 1.0, out=idx)
            idx -= 1.0
            ij = idx.astype(dtype)
            keys[lo:lo + _CLOUD_BLOCK] = (ij[:, 0] << bits) | ij[:, 1]
    mask = (1 << bits) - 1
    counts = {}
    below = finest
    for k in sorted(set(levels), reverse=True):
        shift = below - k
        if shift:
            keys = (keys >> bits >> shift << bits) | ((keys & mask) >> shift)
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        counts[k], below = keys.size, k
    return [counts[k] for k in levels]


def box_counting(points: np.ndarray, grid_sizes: Sequence[float]) -> BoxCountFit:
    """Box-counting slope over dyadic grids of sizes 2**-k anchored at the
    simplex bounding box ([0,1]^2 always, so grids do not depend on the
    cloud).

    Points on box boundaries go to the lower-index box.  Requires an
    (N, 2) cloud of finite points and at least 4 sizes spanning 1.5
    decades, each of the form 2**-k (else ValueError); a cloud spanning
    fewer than 2 boxes at the coarsest size raises DegenerateCloud (a
    single point is the dimension-0 edge case and is allowed)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be shaped (N, 2), got shape {pts.shape}")
    sizes = sorted(float(s) for s in grid_sizes)
    if len(sizes) < 4:
        raise ValueError("need at least 4 grid sizes")
    if math.log10(sizes[-1] / sizes[0]) < 1.5:
        raise ValueError("grid sizes must span at least 1.5 decades")
    counts = _box_counts(pts, [_dyadic_level(s) for s in sizes])
    # all points equal gives one box at the finest grid, so only then is
    # the O(N) scan needed
    if counts[0] == 1 and (pts == pts[0]).all():
        return BoxCountFit(dimension=0.0, residual=0.0, sizes=sizes, counts=counts)
    if counts[-1] < 2:
        raise DegenerateCloud("cloud spans fewer than 2 boxes at the coarsest size")
    slope, resid = _fit_line(np.log(1.0 / np.asarray(sizes)),
                             np.log(np.asarray(counts, dtype=float)))
    return BoxCountFit(
        dimension=slope,
        residual=resid,
        sizes=sizes,
        counts=[int(c) for c in counts],
    )


def ad_bound(delta_hat: float, alpha1_hat: float) -> float:
    """The figure 2 - min(delta, alpha_1) for the three-letter system: a
    heuristic, not an upper bound on the dimension.  delta is a
    finite-window slope (see the module docstring).  With the block escape
    rate 0.5124 of the transfer operator in place of delta the formula
    gives 1.488, below both the singular-value pressure zero (about 1.72)
    and the box-count trend (1.65-1.71)."""
    if not (delta_hat > 0 and alpha1_hat > 0):
        raise NonPositiveInput("both decay exponents must be positive")
    return 2.0 - min(delta_hat, alpha1_hat)


# --- pipeline -----------------------------------------------------------------

_BOX_GRID = tuple(2.0**-k for k in range(4, 11))  # box sizes of the report


@dataclass
class DimensionReport:
    delta_hat: float
    alpha1_hat: float
    ad_bound: float
    box_dim: float
    residuals: dict  # RMS residual of each fit: delta, alpha1, box
    depths_used: dict
    samples_used: dict
    seeds: dict
    counters: dict  # work done and mass left unresolved, per stage
    timings: dict  # wall seconds per stage
    notes: str = ""

    def to_json(self) -> dict:
        """The fields in their order, without ``notes`` when it is empty."""
        out = asdict(self)
        if not self.notes:
            del out["notes"]
        return out


def dimension_report(
    delta_depth: int = 10,
    alpha_depth: int = 2,
    n_cap: int = 128,
    measure_floor: Fraction = Fraction(1, 10**12),
    points: int = 10**6,
    seed: int = 0,
) -> DimensionReport:
    """Run the full pipeline: delta, alpha_1, the 2 - min bound, and an
    independent box-counting estimate on a chaos-game cloud.

    As each stage ends, its wall time and counters go to the
    ``rauzygasket`` logger at DEBUG as one JSON line."""
    timings = {}
    counters = {}

    def timed(stage, fn, *args, **kw):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        timings[f"{stage}_s"] = time.perf_counter() - t0
        return out

    def done(stage, **found):
        counters.update(found)
        log.debug("%s", json.dumps({"stage": stage, "wall_s": timings[f"{stage}_s"], **found}))

    delta = timed("delta", delta_estimate, delta_depth, measure_floor=measure_floor)
    done("delta", survivor_nodes=delta.nodes, delta_relative_widths=delta.widths)
    alpha = timed("alpha1", fast_decay_estimate, alpha_depth, n_cap=n_cap,
                  measure_floor=measure_floor)
    done("alpha1", cylinders_enumerated=alpha.enumerated,
         alpha1_remainder=format_scalar(alpha.remainder_exact))
    cloud = timed("chaos_game", chaos_game, points, seed=seed)
    done("chaos_game")
    box = timed("box_counting", box_counting, cloud, _BOX_GRID)
    done("box_counting", box_counts=box.counts)
    bound = ad_bound(delta.exponent, alpha.exponent)
    return DimensionReport(
        delta_hat=delta.exponent,
        alpha1_hat=alpha.exponent,
        ad_bound=bound,
        box_dim=box.dimension,
        residuals={"delta": delta.residual, "alpha1": alpha.residual, "box": box.residual},
        depths_used={"delta_elementary": delta_depth, "alpha_accelerated": alpha_depth,
                     "n_cap": n_cap, "measure_floor": str(measure_floor)},
        samples_used={"cloud_points": points},
        seeds={"cloud": seed},
        counters=counters,
        timings=timings,
        notes=(
            "delta is a finite-window slope: the all-stay path survives every "
            "elementary step and its depth-n cylinder has mass "
            "6/((n+2)(2n+3)) ~ 3/n^2, so the elementary decay rate tends to 0 "
            "and delta_hat is the slope of -log mu(X_n) over the depths fitted. "
            "ad_bound = 2 - min(delta_hat, alpha1_hat) is a heuristic figure, "
            "not an upper bound: with the block escape rate 0.5124 in place of "
            "delta_hat it gives 1.488, below both the singular-value pressure "
            "zero (about 1.72) and the box-count trend (1.65-1.71)"
        ),
    )
