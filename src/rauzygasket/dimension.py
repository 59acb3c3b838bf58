"""Cylinder enumeration, survivor masses, decay exponents, box counting.

Two symbolic resolutions are used, on purpose:

* survivor masses and the decay rate delta run on elementary steps
  (finite alphabet, so the masses are exact with no counter cap; depth-1
  survivors are exactly 3/4 of the chart);
* cylinder enumeration and the fast-decay exponent alpha_1 run on
  accelerated blocks, whose alphabet is countable: each level is cut at a
  counter cap plus a measure floor and closed with an exact aggregated
  remainder, so conservation still holds as rational identities.

delta measured per elementary step is at most the per-block rate
(completing n blocks implies surviving n elementary steps), so the upper
bound 2 - min(delta, alpha_1) reported here is conservative: never
smaller than the one the per-block rate would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import START
from .induction import CYC, STAY, SWAP
from .measures import (
    Q_ONES,
    block_child,
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


# --- accelerated cylinder enumeration ----------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """One record of the accelerated symbolic enumeration.

    kind 'branch' is a genuine cylinder (survives, no hole edge); 'hole'
    is a dead cell; 'remainder' aggregates everything past the counter
    cap or below the measure floor at one node, kept exact so masses
    always add to the parent.
    """

    path: tuple[tuple[int, str], ...]
    measure: Fraction
    survives: bool
    kind: str
    depth: int

    def to_json(self) -> dict:
        return {
            "path": [[n, k] for n, k in self.path],
            "measure": f"{self.measure.numerator}/{self.measure.denominator}",
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
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    floor = Fraction(measure_floor)

    def walk(prefix, order, weights, mass, level):
        remainder = mass
        for n in range(1, n_cap + 1):
            for kind in (SWAP, CYC):
                cond, qn, target = block_child(weights, order, n, kind)
                child_mass = mass * cond
                child_path = prefix + ((n, kind),)
                if child_mass < floor and child_mass > 0:
                    continue  # stays inside this node's remainder
                remainder -= child_mass
                if level + 1 == depth:
                    yield Cylinder(
                        path=child_path,
                        measure=child_mass,
                        survives=True,
                        kind="branch",
                        depth=level + 1,
                    )
                else:
                    yield from walk(child_path, target, qn, child_mass, level + 1)
            hole = mass * hole_mass_at(weights, order, n)
            if hole > 0 and hole >= floor:
                remainder -= hole
                yield Cylinder(
                    path=prefix + ((n, "hole"),),
                    measure=hole,
                    survives=False,
                    kind="hole",
                    depth=level + 1,
                )
        if remainder > 0:
            yield Cylinder(
                path=prefix + ((n_cap, "remainder"),),
                measure=remainder,
                survives=False,
                kind="remainder",
                depth=level + 1,
            )

    yield from walk((), tuple(start), tuple(Fraction(x) for x in q), Fraction(1), 0)


def depth_totals(depth: int, **kw) -> dict:
    """Exact mass accounting of one enumeration: by record kind."""
    sums = {"branch": Fraction(0), "hole": Fraction(0), "remainder": Fraction(0)}
    for cyl in enumerate_cylinders(depth, **kw):
        if cyl.kind == "branch" and cyl.depth == depth:
            sums["branch"] += cyl.measure
        elif cyl.kind in ("hole", "remainder"):
            sums[cyl.kind] += cyl.measure
    sums["total"] = sums["branch"] + sums["hole"] + sums["remainder"]
    return sums


# --- elementary survivor masses and delta -------------------------------------

def survivor_mass(
    depth: int,
    measure_floor: Fraction = Fraction(0),
    start=START,
    q: Sequence = Q_ONES,
    assume_no_holes: bool = False,
) -> tuple[Fraction, Fraction]:
    """Exact bracket [lower, upper] for the mass surviving ``depth``
    elementary steps.

    With floor 0 the bracket is a point.  Pruned subtrees (mass below the
    floor) widen it: they are dead in the lower bound and alive in the
    upper.  ``assume_no_holes`` is a sanity mode in which every step
    survives, so all masses are 1 and the fitted decay rate is 0.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    floor = Fraction(measure_floor)
    if depth == 0:
        return Fraction(1), Fraction(1)
    alive = Fraction(0)
    unresolved = Fraction(0)

    stack = [(tuple(start), tuple(Fraction(x) for x in q), Fraction(1), 0)]
    while stack:
        order, weights, mass, level = stack.pop()
        if level == depth:
            alive += mass
            continue
        if mass < floor:
            unresolved += mass
            continue
        children, hole = elementary_children(weights, order)
        for kind, (cond, qn, target) in children.items():
            stack.append((target, qn, mass * cond, level + 1))
        if assume_no_holes and hole > 0:
            # sanity mode: put the hole mass back on the stay branch
            cond, qn, target = children[STAY]
            stack.append((target, qn, mass * hole, level + 1))
    return alive, alive + unresolved


@dataclass
class DecayFit:
    exponent: float
    residual: float
    depths: list[int]
    values: list[float]  # -log mass (midpoint of brackets)
    widths: list[float]  # relative bracket widths

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "residual": self.residual,
            "depths": self.depths,
            "values": self.values,
            "relative_widths": self.widths,
        }


def delta_estimate(
    max_depth: int,
    measure_floor: Fraction = Fraction(0),
    assume_no_holes: bool = False,
    max_relative_width: float = 0.2,
) -> DecayFit:
    """Least-squares slope of -log mu(X_n) against n over n = 2..max_depth,
    using bracket midpoints.  Raises BracketTooWide when the truncation
    bracket at the deepest level exceeds ``max_relative_width`` of the
    midpoint."""
    if max_depth < 3:
        raise ValueError("max_depth must be >= 3")
    depths = list(range(2, max_depth + 1))
    values = []
    widths = []
    for d in depths:
        lo, hi = survivor_mass(d, measure_floor, assume_no_holes=assume_no_holes)
        mid = (lo + hi) / 2
        width = float((hi - lo) / mid) if mid > 0 else math.inf
        widths.append(width)
        values.append(-math.log(float(mid)))
    if widths[-1] > max_relative_width:
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


def fast_decay_estimate(
    depth: int,
    eps_grid: Optional[Sequence[float]] = None,
    n_cap: int = 128,
    measure_floor: Fraction = Fraction(0),
    truncation_ratio: float = 0.05,
) -> FastDecayFit:
    """S(eps) = total mass of depth-``depth`` accelerated cylinders of
    mass <= eps, fitted as log S against log eps.

    S is computed over the enumerated (surviving) cylinders.  The
    aggregated remainder mixes surviving and dead tail cells, so the
    default grid is clamped to the range where the remainder is at most
    ``truncation_ratio`` of S (below the heaviest-cell scale the true S
    and the enumerated S differ by less than that), and to S at most half
    of the total so the saturation plateau stays out of the fit.
    """
    masses = []
    remainder = Fraction(0)
    for cyl in enumerate_cylinders(depth, measure_floor=measure_floor, n_cap=n_cap):
        if cyl.kind == "branch" and cyl.depth == depth:
            masses.append(cyl.measure)
        elif cyl.kind == "remainder":
            remainder += cyl.measure
    if not masses:
        raise ValueError("no cylinders enumerated; raise the budgets")
    masses.sort()
    values = np.asarray([float(m) for m in masses])
    cum = np.cumsum(values)
    rem = float(remainder)

    def s_of(e: float) -> float:
        idx = int(np.searchsorted(values, e, side="right"))
        return float(cum[idx - 1]) if idx > 0 else 0.0

    if eps_grid is None:
        floor_s = rem / truncation_ratio
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


def box_counting(points: np.ndarray, grid_sizes: Sequence[float]) -> BoxCountFit:
    """Box-counting slope over dyadic-style grids anchored at the simplex
    bounding box ([0,1]^2 always, so grids do not depend on the cloud).

    Points on box boundaries go to the lower-index box.  Requires at
    least 4 sizes spanning 1.5 decades; a cloud spanning fewer than 2
    boxes at the coarsest size raises DegenerateCloud (a single point is
    the dimension-0 edge case and is allowed)."""
    pts = np.asarray(points, dtype=float)
    sizes = sorted(float(s) for s in grid_sizes)
    if len(sizes) < 4:
        raise ValueError("need at least 4 grid sizes")
    if math.log10(sizes[-1] / sizes[0]) < 1.5:
        raise ValueError("grid sizes must span at least 1.5 decades")
    counts = []
    for s in sizes:
        # grid anchored at the unit bounding box; a point exactly on a
        # box boundary belongs to the lower-index box
        ij = np.ceil(pts / s).astype(np.int64) - 1
        ij = np.maximum(ij, 0)
        width = int(math.ceil(1.0 / s)) + 2
        occ = len(np.unique(ij[:, 0] * width + ij[:, 1]))
        counts.append(occ)
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
    """Upper bound 2 - min(delta, alpha_1) for the three-letter system."""
    if not (delta_hat > 0 and alpha1_hat > 0):
        raise NonPositiveInput("both decay exponents must be positive")
    return 2.0 - min(delta_hat, alpha1_hat)


# --- pipeline -----------------------------------------------------------------

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
    grid_sizes: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> DimensionReport:
    """Run the full pipeline: delta, alpha_1, the 2 - min bound, and an
    independent box-counting estimate on a chaos-game cloud."""
    from .markov import chaos_game

    delta = delta_estimate(delta_depth, measure_floor=measure_floor)
    alpha = fast_decay_estimate(alpha_depth, n_cap=n_cap, measure_floor=measure_floor)
    cloud = chaos_game(points, seed=seed, workers=workers)
    if grid_sizes is None:
        grid_sizes = [2.0**-k for k in range(4, 11)]
    box = box_counting(cloud, grid_sizes)
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
        notes=(
            "delta is the decay rate per elementary step; the per-block rate is "
            "at least as large, so the reported bound is an upper bound either way"
        ),
    )
