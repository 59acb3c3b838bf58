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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import START, apply_kind
from .induction import CYC, STAY, SWAP
from .measures import (  # noqa: F401  (reference forms kept importable from here)
    Q_ONES,
    block_child,
    cone_denominator,
    dual_update,
    elementary_children,
    hole_mass_at,
)


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
# the chart mass of a node with end state (q, order) is D0 / D, where
# D = cone_denominator(q, order) and D0 is the same at the start state.
# Every mass below is an integer pair (numerator, denominator); a Fraction
# is built only where an exact total is reported.

_UNIT_WEIGHTS = (1, 1, 1)  # the survivor sweep's start weights


def _integer_weights(q: Sequence) -> tuple[int, int, int]:
    """The weights scaled to integers.  Masses are ratios of cubic forms in
    q, so a common scale leaves them unchanged."""
    fr = [Fraction(x) for x in q]
    scale = math.lcm(*(f.denominator for f in fr))
    return tuple(int(f * scale) for f in fr)


def _block_denominators(q: Sequence[int], order: Sequence[int], n: int):
    """After n wins of the leader: the weights, and the mass denominators
    of 'still leading', of the swap ending and of the cyc ending."""
    qn = dual_update(q, order[0], n)
    return (
        qn,
        cone_denominator(qn, order),
        cone_denominator(qn, apply_kind(order, SWAP)),
        cone_denominator(qn, apply_kind(order, CYC)),
    )


def _hole_fraction(d_before: int, d_after: int, d_swap: int, d_cyc: int) -> tuple[int, int]:
    """1/d_before - 1/d_after - 1/d_swap - 1/d_cyc as an unreduced integer
    pair: the mass, over the chart scale, of dying at one win."""
    den = d_before * d_after * d_swap * d_cyc
    num = d_after * d_swap * d_cyc - d_before * (d_swap * d_cyc + d_after * d_cyc + d_after * d_swap)
    return num, den


_DIGITS = 4000  # below the interpreter's default cap on int-to-str digits
_PIECE = 10**_DIGITS


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, converted in pieces short enough for str()."""
    if n < _PIECE:
        return str(n)
    high, low = divmod(n, _PIECE)
    return _decimal(high) + str(low).zfill(_DIGITS)


def _ratio_text(x: Fraction) -> str:
    """The text "p/q" of a nonnegative Fraction of any size."""
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _exact_sum(terms) -> Fraction:
    """Exact sum of (numerator, denominator) pairs over their common
    multiple, with one reduction at the end."""
    if not terms:
        return Fraction(0)
    common = math.lcm(*{den for _, den in terms})
    return Fraction(sum(num * (common // den) for num, den in terms), common)


_FOLD_AT = 1 << 14


def _add_term(terms: list, num: int, den: int) -> None:
    """Append num / den to a list of terms, folding the list into one exact
    term when it gets long, so a deep sweep keeps memory bounded."""
    terms.append((num, den))
    if len(terms) >= _FOLD_AT:
        total = _exact_sum(terms)
        terms[:] = [(total.numerator, total.denominator)]


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
    survives: bool
    kind: str
    depth: int

    @property
    def measure(self) -> Fraction:
        return Fraction(self.num, self.den)

    def to_json(self) -> dict:
        return {
            "path": [[n, k] for n, k in self.path],
            "measure": _ratio_text(self.measure),
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
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    floor = Fraction(measure_floor)
    fn, fd = floor.numerator, floor.denominator
    q0 = _integer_weights(q)
    d0 = cone_denominator(q0, start)

    def walk(prefix, order, weights, level):
        # the node's mass is d0 / d_before; each counter n splits the part
        # still leading after n - 1 wins into swap, cyc, hole and still
        # leading after n wins
        d_before = cone_denominator(weights, order)
        pruned = []
        for n in range(1, n_cap + 1):
            qn, d_after, d_swap, d_cyc = _block_denominators(weights, order, n)
            for kind, den in ((SWAP, d_swap), (CYC, d_cyc)):
                child_path = prefix + ((n, kind),)
                if d0 * fd < fn * den:
                    pruned.append((d0, den))  # stays inside this node's remainder
                elif level + 1 == depth:
                    yield Cylinder(child_path, d0, den, True, "branch", level + 1)
                else:
                    yield from walk(child_path, apply_kind(order, kind), qn, level + 1)
            num, den = _hole_fraction(d_before, d_after, d_swap, d_cyc)
            if num > 0 and num * d0 * fd >= fn * den:
                yield Cylinder(prefix + ((n, "hole"),), num * d0, den, False, "hole", level + 1)
            else:
                pruned.append((num * d0, den))
            d_before = d_after
        # still leading at the cap, plus everything pruned on the way
        rest = _exact_sum([(d0, d_before)] + pruned)
        yield Cylinder(
            prefix + ((n_cap, "remainder"),),
            rest.numerator,
            rest.denominator,
            False,
            "remainder",
            level + 1,
        )

    return walk((), tuple(start), q0, 0)


def depth_totals(depth: int, **kw) -> dict:
    """Exact mass accounting of one enumeration: by record kind."""
    terms = {"branch": [], "hole": [], "remainder": []}
    for cyl in enumerate_cylinders(depth, **kw):
        terms[cyl.kind].append((cyl.num, cyl.den))
    sums = {kind: _exact_sum(t) for kind, t in terms.items()}
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
    d = 0..max_depth, from one depth-first sweep.

    With floor 0 each bracket is a point.  A node below the floor is not
    expanded: it is dead in the lower bound and alive in the upper of
    every deeper bracket.
    """
    if max_depth < 0:
        raise ValueError("depth must be >= 0")
    floor = Fraction(measure_floor)
    fn, fd = floor.numerator, floor.denominator
    d0 = cone_denominator(_UNIT_WEIGHTS, START)
    alive = [[] for _ in range(max_depth + 1)]
    pruned = [[] for _ in range(max_depth + 1)]
    nodes = 0

    # a node's mass is d0 / d
    stack = [(START, _UNIT_WEIGHTS, d0, 0)]
    while stack:
        order, weights, d, level = stack.pop()
        nodes += 1
        _add_term(alive[level], d0, d)
        if level == max_depth:
            continue
        if d0 * fd < fn * d:
            _add_term(pruned[level], d0, d)
            continue
        q1, d_stay, d_swap, d_cyc = _block_denominators(weights, order, 1)
        for kind, dn in ((STAY, d_stay), (SWAP, d_swap), (CYC, d_cyc)):
            stack.append((apply_kind(order, kind), q1, dn, level + 1))

    brackets = []
    unresolved = Fraction(0)
    for level in range(max_depth + 1):
        lo = _exact_sum(alive[level])
        brackets.append((lo, lo + unresolved))
        unresolved += _exact_sum(pruned[level])
    return SurvivorSweep(brackets=brackets, nodes=nodes)


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

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "residual": self.residual,
            "depths": self.depths,
            "values": self.values,
            "relative_widths": self.widths,
        }


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
    x = np.asarray(depths, dtype=float)
    y = np.asarray(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(
        exponent=float(slope),
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
    depth: int
    enumerated: int
    remainder: float
    remainder_exact: Fraction

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "residual": self.residual,
            "eps": self.eps,
            "small_mass": self.small_mass,
            "depth": self.depth,
            "enumerated": self.enumerated,
            "remainder": self.remainder,
        }


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
    masses = []
    remainders = []
    for cyl in enumerate_cylinders(depth, measure_floor=measure_floor, n_cap=n_cap):
        if cyl.kind == "branch":
            # int / int is correctly rounded, so this is float(cyl.measure)
            masses.append(cyl.num / cyl.den)
        elif cyl.kind == "remainder":
            remainders.append((cyl.num, cyl.den))
    if not masses:
        raise ValueError("no cylinders enumerated; raise the budgets")
    masses.sort()
    values = np.asarray(masses)
    cum = np.cumsum(values)
    remainder = _exact_sum(remainders)
    rem = float(remainder)

    def s_of(e: float) -> float:
        idx = int(np.searchsorted(values, e, side="right"))
        return float(cum[idx - 1]) if idx > 0 else 0.0

    if eps_grid is None:
        floor_s = rem / _TRUNCATION_RATIO
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
    x = np.log([e for e, _ in usable])
    y = np.log([s for _, s in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return FastDecayFit(
        exponent=float(slope),
        residual=resid,
        eps=eps,
        small_mass=s_vals,
        depth=depth,
        enumerated=len(masses),
        remainder=rem,
        remainder_exact=remainder,
    )


# --- box counting ----------------------------------------------------------------

@dataclass
class BoxCountFit:
    dimension: float
    residual: float
    sizes: list[float]
    counts: list[int]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "residual": self.residual,
            "sizes": self.sizes,
            "counts": self.counts,
        }


_MAX_LEVEL = 31  # finest grid 2**-31; two 32-bit box indices fill a 64-bit Morton code


def _dyadic_level(size: float) -> int:
    """k with size == 2**-k exactly, k in 0.._MAX_LEVEL."""
    mantissa, exponent = math.frexp(size)
    k = 1 - exponent
    if mantissa != 0.5 or not 0 <= k <= _MAX_LEVEL:
        raise ValueError(f"grid size {size!r} is not 2**-k for an integer k in 0..{_MAX_LEVEL}")
    return k


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Move bit i of each 32-bit value to bit 2i."""
    x = x.astype(np.uint64)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        x = (x | (x << shift)) & mask
    return x


def _box_counts(pts: np.ndarray, levels: Sequence[int]) -> list[int]:
    """Occupied boxes of the 2**-k grid for each k in ``levels``.

    Box indices are taken once, at the finest grid, and interleaved into
    Morton codes, so a box of a coarser grid k is a run of codes sharing
    the top bits: one sort, then the distinct prefixes at each level."""
    finest = max(levels)
    if len(pts) == 0:
        return [0 for _ in levels]
    codes = np.zeros(len(pts), dtype=np.uint64)
    for axis in (0, 1):
        # a point exactly on a box boundary belongs to the lower-index box
        idx = np.ceil(pts[:, axis] * 2.0**finest).astype(np.int64) - 1
        np.maximum(idx, 0, out=idx)
        if idx.max() >= 1 << 32:
            raise ValueError("points lie too far outside [0, 1]^2 for the finest grid")
        codes |= _spread_bits(idx) << np.uint64(axis)
    codes.sort()
    # the highest differing bit of two neighbours says up to which grid
    # they share a box
    change = codes[1:] ^ codes[:-1]
    return [1 + int(np.count_nonzero(change >= 1 << 2 * (finest - k))) for k in levels]


def box_counting(points: np.ndarray, grid_sizes: Sequence[float]) -> BoxCountFit:
    """Box-counting slope over dyadic grids of sizes 2**-k anchored at the
    simplex bounding box ([0,1]^2 always, so grids do not depend on the
    cloud).

    Points on box boundaries go to the lower-index box.  Requires at
    least 4 sizes spanning 1.5 decades, each of the form 2**-k (else
    ValueError); a cloud spanning fewer than 2 boxes at the coarsest size
    raises DegenerateCloud (a single point is the dimension-0 edge case
    and is allowed)."""
    pts = np.asarray(points, dtype=float)
    sizes = sorted(float(s) for s in grid_sizes)
    if len(sizes) < 4:
        raise ValueError("need at least 4 grid sizes")
    if math.log10(sizes[-1] / sizes[0]) < 1.5:
        raise ValueError("grid sizes must span at least 1.5 decades")
    counts = _box_counts(pts, [_dyadic_level(s) for s in sizes])
    if len(pts) and (pts == pts[0]).all():
        return BoxCountFit(dimension=0.0, residual=0.0, sizes=sizes, counts=counts)
    if counts[-1] < 2:
        raise DegenerateCloud("cloud spans fewer than 2 boxes at the coarsest size")
    x = np.log(1.0 / np.asarray(sizes))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxCountFit(
        dimension=float(slope),
        residual=resid,
        sizes=sizes,
        counts=[int(c) for c in counts],
    )


def ad_bound(delta_hat: float, alpha1_hat: float) -> float:
    """The figure 2 - min(delta, alpha_1) for the three-letter system; delta
    is a finite-window slope (see the module docstring)."""
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
    delta_residual: float
    alpha1_residual: float
    box_residual: float
    depths_used: dict
    samples_used: dict
    seeds: dict
    counters: dict  # work done and mass left unresolved, per stage
    timings: dict  # wall seconds per stage
    notes: str = ""

    def to_json(self) -> dict:
        out = {
            "delta_hat": self.delta_hat,
            "alpha1_hat": self.alpha1_hat,
            "ad_bound": self.ad_bound,
            "box_dim": self.box_dim,
            "residuals": {
                "delta": self.delta_residual,
                "alpha1": self.alpha1_residual,
                "box": self.box_residual,
            },
            "depths_used": self.depths_used,
            "samples_used": self.samples_used,
            "seeds": self.seeds,
            "counters": self.counters,
            "timings": self.timings,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def dimension_report(
    delta_depth: int = 10,
    alpha_depth: int = 2,
    n_cap: int = 128,
    measure_floor: Fraction = Fraction(1, 10**12),
    points: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> DimensionReport:
    """Run the full pipeline: delta, alpha_1, the 2 - min bound, and an
    independent box-counting estimate on a chaos-game cloud."""
    from .markov import chaos_game

    timings = {}

    def timed(stage, fn, *args, **kw):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        timings[stage] = time.perf_counter() - t0
        return out

    delta = timed("delta_s", delta_estimate, delta_depth, measure_floor=measure_floor)
    alpha = timed("alpha1_s", fast_decay_estimate, alpha_depth, n_cap=n_cap,
                  measure_floor=measure_floor)
    cloud = timed("chaos_game_s", chaos_game, points, seed=seed, workers=workers)
    box = timed("box_counting_s", box_counting, cloud, _BOX_GRID)
    bound = ad_bound(delta.exponent, alpha.exponent)
    return DimensionReport(
        delta_hat=delta.exponent,
        alpha1_hat=alpha.exponent,
        ad_bound=bound,
        box_dim=box.dimension,
        delta_residual=delta.residual,
        alpha1_residual=alpha.residual,
        box_residual=box.residual,
        depths_used={"delta_elementary": delta_depth, "alpha_accelerated": alpha_depth,
                     "n_cap": n_cap, "measure_floor": str(measure_floor)},
        samples_used={"cloud_points": points},
        seeds={"cloud": seed},
        counters={
            "survivor_nodes": delta.nodes,
            "delta_relative_widths": delta.widths,
            "cylinders_enumerated": alpha.enumerated,
            "alpha1_remainder": _ratio_text(alpha.remainder_exact),
        },
        timings=timings,
        notes=(
            "delta is a finite-window slope: the all-stay path survives every "
            "elementary step and its depth-n cylinder has mass "
            "6/((n+2)(2n+3)) ~ 3/n^2, so the elementary decay rate tends to 0 "
            "and delta_hat is the slope of -log mu(X_n) over the depths fitted"
        ),
    )
