"""The projectivized accelerated induction on the sorted parameter simplex.

Chart: a point is (a, b) with c = 1 - a - b implicit and a > b > c > 0.
One application of the map runs the subtractive algorithm while the
leading length keeps winning (counter n), then renormalizes and re-sorts:

    D  = n a - (n - 1)            (the unnormalized new total)
    swap ending:  (a, b) -> (b / D, ((n+1) a - n) / D)
    cyc  ending:  (a, b) -> (b / D, c / D)

Both branches have Jacobian determinant 1 / D^3.  D and (n+1) a - n are
computed as a - (n - 1) s and a - n s with s = 1 - a, which is exact in
floats for a >= 1/2; the form n a - (n - 1) would cancel about log10(n)
digits.  A chart point is in one arithmetic: float coordinates (Monte
Carlo, rendering) or exact ones such as Fraction (cell boundaries, and
differential tests against the interval-level induction).  One scalar
step, ``_step``, runs the same code on both: the counter, the boundary
test, the hole test, the kind, D and the image.  ``cell_of``, ``apply_T``
and ``jacobian`` are views of it, and ``measures`` walks the roof and
first returns through it; only the boundary test and the roof's
summation tell the two arithmetics apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .induction import CYC, SWAP, accelerated_matrix

BOUNDARY_TOL = 1e-14
POINTS_MAGIC = b"RGPTS001"

_CHAIN_BLOCK = 4096  # chaos-game chains per seed block; fixed so the
# sample stream is independent of worker count
_TILE = 64  # chaos-game output steps buffered before the chain-major copy
_BURN_IN = 64  # chaos-game steps from the barycenter before output starts
_RASTER_CHUNK = 1 << 20  # points counted per pass of rasterize


class TieOnBoundary(Exception):
    """Point on a cell boundary: exactly, for an exact point, or within
    the tolerance, for a float point, whose cell is then not trustworthy."""


@dataclass(frozen=True)
class ChartPoint:
    """The chart point (a, b), c = 1 - a - b.  Both coordinates are floats
    (numpy float64 included), or both are exact scalars such as Fraction;
    every computation on the point stays in that arithmetic."""

    a: Any
    b: Any

    @property
    def c(self):
        return 1 - self.a - self.b

    @staticmethod
    def from_fractions(a: Fraction, b: Fraction) -> "ChartPoint":
        return ChartPoint(a, b).validate()

    def coords(self) -> tuple:
        return self.a, self.b, self.c

    def exact(self) -> tuple:
        """(a, b, c) of an exact point; ValueError for a float point."""
        if isinstance(self.a, float):
            raise ValueError(f"float chart point {self} has no exact coordinates")
        return self.coords()

    def validate(self) -> "ChartPoint":
        a, b, c = self.coords()
        if isinstance(a, float) != isinstance(b, float) or not (a > b > c > 0):
            raise ValueError(f"not a sorted interior chart point: {self}")
        return self


@dataclass(frozen=True)
class MarkovCell:
    """One branch of the accelerated map: counter n plus how the run ends
    (swap: the shrunk leader stays in second place; cyc: it drops to
    third)."""

    n: int
    kind: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("counter must be >= 1")
        if self.kind not in (SWAP, CYC):
            raise ValueError(f"cell kind must be swap or cyc, got {self.kind!r}")


@dataclass(frozen=True)
class HoleCell:
    """The run dies: after ``steps`` wins the leader is still longest but
    shorter than the other two combined.  steps == 0 iff a < 1/2."""

    steps: int


def _counter(a, b, s) -> int:
    """First j >= 1 with a - j s < b.  The float floor can be off by one
    near boundaries, so nudge with exact comparisons."""
    n = int((a - b) / s) + 1
    while a - n * s >= b:
        n += 1
    while n > 1 and a - (n - 1) * s < b:
        n -= 1
    return n


def _counter_batch(a, b, s):
    """Vectorized ``_counter`` with the same off-by-one guards."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.maximum(np.floor((a - b) / s).astype(np.int64) + 1, 1)
    n += a - n * s >= b
    n -= (n > 1) & (a - (n - 1) * s < b)
    return n


def _step(p: ChartPoint, tol: float = BOUNDARY_TOL):
    """The accelerated step at p: (cell, D, image), or (HoleCell, None,
    None) if the run dies.

    A point on a cell boundary raises TieOnBoundary: an exact point when
    a margin is 0, a float point when a margin is below ``tol``, since its
    classification there is not trustworthy.  The image is (b / D,
    max(rem, c) / D): the swap ending keeps rem, the cyc ending c.  It is
    not validated here; ``apply_T`` validates it.
    """
    a, b, c = p.validate().coords()
    s = 1 - a
    n = _counter(a, b, s)
    rem = a - n * s
    margin = min(abs(rem), abs(rem - b), abs(rem - c), abs(a - (n - 1) * s - b))
    if margin < tol if isinstance(a, float) else margin == 0:
        raise TieOnBoundary(f"({a}, {b}) is on a cell boundary (tolerance {tol} for floats)")
    if rem < 0:
        return HoleCell(steps=n - 1), None, None
    d = a - (n - 1) * s
    cell = MarkovCell(n=n, kind=SWAP if rem > c else CYC)
    return cell, d, ChartPoint(b / d, max(rem, c) / d)


def cell_of(p: ChartPoint, tol: float = BOUNDARY_TOL):
    """Markov cell of a chart point, or HoleCell; TieOnBoundary on a cell
    boundary (see ``_step``)."""
    return _step(p, tol)[0]


def apply_T(p: ChartPoint):
    """One accelerated step: returns (image ChartPoint, MarkovCell), or
    HoleCell.  The image is re-sorted, so it is again a chart point."""
    cell, _, image = _step(p)
    if isinstance(cell, HoleCell):
        return cell
    return image.validate(), cell


def jacobian(p: ChartPoint) -> float:
    """Expansion factor D^-3 of the branch through p.  For an exact point
    D is exact and the factor is rounded once."""
    cell, d, _ = _step(p)
    if isinstance(cell, HoleCell):
        raise ValueError("no branch through a hole point")
    return float(1 / d**3)


def cell_vertices(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact chart vertices of the closure of the swap-ending cell with
    counter n."""
    if n < 1:
        raise ValueError("counter must be >= 1")
    return (
        (Fraction(n + 1, n + 2), Fraction(1, n + 2)),
        (Fraction(n, n + 1), Fraction(1, n + 1)),
        (Fraction(2 * n + 1, 2 * n + 3), Fraction(1, 2 * n + 3)),
    )


def branch_preimage(n: int, kind: str, a, b, c):
    """Chart coordinates of the preimage of (a, b, c) under the branch
    (n, kind): the lengths accelerated_matrix(n, kind) . (a, b, c),
    renormalized.  Works on exact scalars, floats and numpy arrays."""
    v = [m0 * a + m1 * b + m2 * c for m0, m1, m2 in accelerated_matrix(n, kind)]
    t = v[0] + v[1] + v[2]
    return v[0] / t, v[1] / t


def inverse_branch(cell: MarkovCell, p: ChartPoint) -> ChartPoint:
    """The inverse of the branch labeled by ``cell``, defined on the whole
    chart simplex: projective action of the branch matrix."""
    p.validate()
    return ChartPoint(*branch_preimage(cell.n, cell.kind, *p.coords())).validate()


# --- vectorized float dynamics (shared by the Monte Carlo modules) ----------

KIND_CODE = {SWAP: 0, CYC: 1}  # the kind codes of accelerated_step_batch


def accelerated_step_batch(a, b):
    """Vectorized accelerated step on chart arrays.

    Returns (a', b', n, kind, D, alive) where kind is KIND_CODE[ending]: 0
    for swap, 1 for cyc; entries with alive == False hit a hole and carry
    junk outputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = 1.0 - a
    c = s - b
    n = _counter_batch(a, b, s)
    rem = a - n * s
    alive = rem > 0
    kind = (rem <= c).astype(np.int64)
    d = a - (n - 1) * s
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = b / d
        b2 = np.maximum(rem, c) / d  # the swap ending keeps rem, the cyc ending c
    return a2, b2, n, kind, d, alive


def sample_sorted_simplex(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lebesgue-uniform samples of the sorted chart simplex.

    Two sorted uniforms lo <= hi give the uniform point
    (lo, hi - lo, 1 - hi) of the full simplex; sorting its three
    coordinates folds it onto the chart.  Both sorts are min/max selection
    networks: the largest coordinate is max(x0, x1, x2) and the middle one
    max(min(x0, x1), min(max(x0, x1), x2)).  They only select among floats
    already computed, so the output is the same bits as sorting the rows,
    ties included.
    """
    u = rng.random((count, 2))
    lo = np.minimum(u[:, 0], u[:, 1])
    hi = np.maximum(u[:, 0], u[:, 1])
    x1 = hi - lo
    x2 = 1.0 - hi
    big = np.maximum(lo, x1)
    a = np.maximum(big, x2)
    b = np.maximum(np.minimum(lo, x1), np.minimum(big, x2))
    return a, b


# --- the gasket as an attractor ---------------------------------------------

def chaos_game(
    count: int,
    burn_in: int = _BURN_IN,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Random backward iteration of the three elementary gasket maps.

    Returns an (count, 2) array of (lambda1, lambda2) coordinates in the
    full (unsorted) simplex.  The stream is organized as fixed-size
    independent chains, each burned in from the barycenter and seeded as
    (seed, chain).  One move sets a uniformly drawn coordinate to 1 and
    divides all three by their sum.

    The draws are stored step-major, one byte each, so a step reads one
    contiguous row and advances three 1-D coordinate arrays.  Output
    steps are buffered in a ``_TILE``-step tile and copied into the
    chain-major result a tile at a time.  Memory: 16 bytes per point for
    the result, one byte per step and chain for the draws (two while
    they are transposed), and the fixed tile.

    All chains advance together on the calling thread: ``workers`` is
    accepted for a uniform call signature but unused, so the output
    cannot depend on it.  Two threads of 2048 chains each gave no gain:
    at that width each numpy call costs mostly interpreter time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    per_chain = max(1, -(-count // _CHAIN_BLOCK))
    chains = -(-count // per_chain)
    steps = burn_in + per_chain
    draws = np.empty((chains, steps), dtype=np.uint8)
    for chain in range(chains):
        rng = np.random.default_rng((seed, chain))
        draws[chain] = rng.integers(0, 3, size=steps)
    draws = np.ascontiguousarray(draws.T)
    # lam[i] is coordinate i of every chain; lam.flat[i * chains + j] is
    # coordinate i of chain j
    lam = np.full((3, chains), 1.0 / 3.0)
    flat = lam.reshape(-1)
    row = np.arange(chains)
    stride = np.intp(chains)
    total = np.empty(chains)
    tile = np.empty((2, _TILE, chains))
    out = np.empty((chains, per_chain, 2))
    for step in range(steps):
        flat[draws[step] * stride + row] = 1.0
        np.add(lam[0], lam[1], out=total)  # (l0 + l1) + l2: this order fixes the stream
        total += lam[2]
        lam /= total
        k = step - burn_in
        if k < 0:
            continue
        tile[:, k % _TILE] = lam[:2]
        if k % _TILE == _TILE - 1 or k == per_chain - 1:
            lo = k - k % _TILE
            out[:, lo:k + 1, 0] = tile[0, :k + 1 - lo].T
            out[:, lo:k + 1, 1] = tile[1, :k + 1 - lo].T
    return out.reshape(chains * per_chain, 2)[:count]


def chaos_game_exact(count: int, seed: int = 0) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Exact-rational chaos game (single chain, same per-chain seeding and
    default burn-in as chain 0 of the float path)."""
    rng = np.random.default_rng((seed, 0))
    draws = rng.integers(0, 3, size=_BURN_IN + count)
    lam = [Fraction(1, 3)] * 3
    points = []
    for step, w in enumerate(draws):
        lam = list(lam)
        lam[int(w)] = Fraction(1)
        total = sum(lam)
        lam = [x / total for x in lam]
        if step >= _BURN_IN:
            points.append(tuple(lam))
    return points


# --- point cloud serialization ----------------------------------------------

def write_points_csv(points: np.ndarray, fh, provenance: Optional[dict] = None):
    """CSV emitter: one "a,b" row per point, 17 significant digits."""
    if provenance:
        items = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
        fh.write(f"# {items}\n")
    fh.write("a,b\n")
    for a, b in points:
        fh.write(f"{a:.17g},{b:.17g}\n")


def write_points_binary(points: np.ndarray, fh):
    """Binary emitter: 8-byte magic then little-endian float64 (a, b)
    pairs."""
    fh.write(POINTS_MAGIC)
    arr = np.ascontiguousarray(np.asarray(points, dtype="<f8"))
    fh.write(arr.tobytes())


def read_points_binary(fh) -> np.ndarray:
    magic = fh.read(8)
    if magic != POINTS_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    raw = fh.read()
    flat = np.frombuffer(raw, dtype="<f8")
    return flat.reshape(-1, 2)


# --- rasterization ------------------------------------------------------------

def rasterize(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Log-scaled density raster of simplex points in barycentric coords.

    Simplex vertices map to an equilateral triangle inscribed in the
    image; brightness is log(1 + hits) rescaled to 0..255.  Points are
    counted ``_RASTER_CHUNK`` at a time, so the temporaries stay small.
    """
    points = np.asarray(points)
    counts = np.zeros(height * width, dtype=np.int64)
    for lo in range(0, len(points), _RASTER_CHUNK):
        lam1 = points[lo:lo + _RASTER_CHUNK, 0]
        lam2 = points[lo:lo + _RASTER_CHUNK, 1]
        lam3 = 1.0 - lam1 - lam2
        x = lam2 + 0.5 * lam3
        y = (np.sqrt(3.0) / 2.0) * lam3
        xs = np.clip((x * (width - 1)).astype(np.int64), 0, width - 1)
        ys = np.clip((y / (np.sqrt(3.0) / 2.0) * (height - 1)).astype(np.int64), 0, height - 1)
        counts += np.bincount((height - 1 - ys) * width + xs, minlength=height * width)
    dens = np.log1p(counts.reshape(height, width))
    peak = dens.max()
    if peak > 0:
        dens /= peak
    dens *= 255.0
    dens += 0.5
    return dens.astype(np.uint8)


def write_pgm(image: np.ndarray, fh, provenance: Optional[dict] = None):
    """Binary portable graymap (magic P5), one provenance comment line."""
    height, width = image.shape
    fh.write(b"P5\n")
    if provenance:
        items = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
        fh.write(f"# {items}\n".encode())
    fh.write(f"{width} {height}\n255\n".encode())
    fh.write(image.astype(np.uint8).tobytes())
