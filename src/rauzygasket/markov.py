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
digits.  That arithmetic, the counter n included, is written once, in
``_step_core``, for one point and for float arrays alike; only
``measures._first_returns`` spells it out again, in place, for the
loop's own blocks, whose n is known.  On float
arrays n is a float64 array, exact since a chart point has n <= 2^53,
and the remainders that the counter's nudges compare are the step's rem
and D, computed once.  A chart point
is in one arithmetic: float coordinates (Monte Carlo, rendering) or exact
ones such as Fraction (cell boundaries, and differential tests against
the induction on lengths).  One scalar step, ``_step``, runs the same
code on both: the core, the boundary test, the hole test, the kind and
the image.  ``cell_of`` and ``jacobian`` are views of it,
and ``measures`` walks the roof and first returns through it; only the
boundary test tells the two arithmetics apart.
``accelerated_step_batch`` is the same step on float arrays.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .induction import CYC, SWAP, Hole, _mat_vec, accelerated_matrix

BOUNDARY_TOL = 1e-14
POINTS_MAGIC = b"RGPTS001"

_CHAIN_BLOCK = 4096  # chaos-game chains advanced together; wide enough that
# a step's numpy calls cost more than their interpreter overhead, and part
# of the seeded stream, since it sets the shape of the draw array
_TILE = 32  # chaos-game steps whose scatter indices one call computes
_BURN_IN = 64  # chaos-game steps from the barycenter before output starts
_CLOUD_BLOCK = 1 << 15  # points per block of rasterize, box counting and
# the point writers, so their temporaries fit in cache whatever the cloud


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


def _counter(a, b, s):
    """(n, a - n s, a - (n - 1) s) with n the first j >= 1 with a - j s < b:
    n is an int for one point, exact or float (a 0-d array included), and
    a float64 array for float arrays.  A float n is exact, since a chart point has s >= 2^-53,
    so n <= 2^53; then n s and (n - 1) s are the same floats as with an
    integer n.  Only the first guess differs: ``math.floor`` for a scalar
    (exact for a Fraction, with no int64 limit) and a float floor clamped
    to 1 for arrays.  A float guess can be off by one near a boundary,
    which one exact nudge each way corrects.  On arrays the two remainders
    of the guess are kept: a nudge up makes the old a - n s the new
    a - (n - 1) s, a nudge down makes the old a - (n - 1) s the new
    a - n s, and only the other one is recomputed, on the moved points."""
    if not (isinstance(a, np.ndarray) and a.ndim):
        n = math.floor((a - b) / s) + 1
        n += a - n * s >= b
        n = int(n - ((n > 1) & (a - (n - 1) * s < b)))
        return n, a - n * s, a - (n - 1) * s
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.subtract(a, b)
        n /= s
        np.floor(n, out=n)
        n += 1
        np.maximum(n, 1, out=n)
        d = n - 1
        d *= s
        np.subtract(a, d, out=d)
        rem = n * s
        np.subtract(a, rem, out=rem)
        up = rem >= b
        if up.any():
            i = np.flatnonzero(up)
            n[i] += 1
            d[i] = rem[i]
            rem[i] = a[i] - n[i] * s[i]
        down = d < b
        if down.any():
            i = np.flatnonzero(down)
            i = i[n[i] > 1]
            n[i] -= 1
            rem[i] = d[i]
            d[i] = a[i] - (n[i] - 1) * s[i]
    return n, rem, d


def _step_core(a, b):
    """(c, n, rem, D) of the accelerated step at the chart point (a, b),
    scalar or arrays: with s = 1 - a, c = s - b, the counter n,
    rem = a - n s and D = a - (n - 1) s."""
    s = 1 - a
    n, rem, d = _counter(a, b, s)
    c = s  # s - b, in place on arrays, as s is not needed any more
    c -= b
    return c, n, rem, d


def _step(p: ChartPoint, tol: float = BOUNDARY_TOL):
    """The accelerated step at p: (cell, D, image), or (Hole, None, None)
    if the run dies, with ``substeps`` the wins before it (0 iff a < 1/2).

    A point on a cell boundary raises TieOnBoundary: an exact point when
    a margin is 0, a float point when a margin is below ``tol``, since its
    classification there is not trustworthy.  The image is (b / D,
    max(rem, c) / D): the swap ending keeps rem, the cyc ending c.  It is
    not validated here.
    """
    a, b = p.validate().a, p.b
    c, n, rem, d = _step_core(a, b)
    margin = min(abs(rem), abs(rem - b), abs(rem - c), abs(d - b))
    if margin < tol if isinstance(a, float) else margin == 0:
        raise TieOnBoundary(f"({a}, {b}) is on a cell boundary (tolerance {tol} for floats)")
    if rem < 0:
        return Hole(substeps=n - 1), None, None
    cell = MarkovCell(n=n, kind=SWAP if rem > c else CYC)
    return cell, d, ChartPoint(b / d, max(rem, c) / d)


def cell_of(p: ChartPoint, tol: float = BOUNDARY_TOL):
    """Markov cell of a chart point, or Hole; TieOnBoundary on a cell
    boundary (see ``_step``)."""
    return _step(p, tol)[0]


def jacobian(p: ChartPoint) -> float:
    """Expansion factor D^-3 of the branch through p.  For an exact point
    D is exact and the factor is rounded once."""
    cell, d, _ = _step(p)
    if isinstance(cell, Hole):
        raise ValueError("no branch through a hole point")
    return float(1 / d**3)


_CHART_RAYS = ((1, 0, 0), (1, 1, 0), (1, 1, 1))  # the chart vertices as length rays


def cylinder_vertices(blocks) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact chart vertices of the closure of the cylinder of the
    accelerated blocks (n, kind): the chart vertices (1, 0), (1/2, 1/2)
    and (1/3, 1/3), as the integer rays (1, 0, 0), (1, 1, 0) and
    (1, 1, 1), pulled back through each block's ``accelerated_matrix``,
    last block first, and renormalized once.  No blocks give the chart."""
    rays = _CHART_RAYS
    for n, kind in reversed(blocks):
        m = accelerated_matrix(n, kind)
        rays = [_mat_vec(m, v) for v in rays]
    return tuple((Fraction(x, x + y + z), Fraction(y, x + y + z)) for x, y, z in rays)


def branch_preimage(n: int, kind: str, a, b, c):
    """Chart coordinates of the preimage of (a, b, c) under the branch
    (n, kind): the lengths accelerated_matrix(n, kind) . (a, b, c),
    renormalized.  Works on exact scalars, floats and numpy arrays."""
    v = _mat_vec(accelerated_matrix(n, kind), (a, b, c))
    t = v[0] + v[1] + v[2]
    return v[0] / t, v[1] / t


# --- vectorized float dynamics (shared by the Monte Carlo modules) ----------

def accelerated_step_batch(a, b):
    """Vectorized accelerated step on chart arrays.

    Returns (a', b', n, cyc, D, alive): the float64 arrays a', b', D and
    the counter n (exact, see ``_counter``), and the bool arrays cyc, True
    for the cyc ending and False for swap, and alive, False where the point
    hit a hole; those entries carry junk outputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c, n, rem, d = _step_core(a, b)
    alive = rem > 0
    cyc = rem <= c
    b2 = np.maximum(rem, c)  # the swap ending keeps rem, the cyc ending c
    with np.errstate(divide="ignore", invalid="ignore"):
        b2 /= d
        a2 = b / d
    return a2, b2, n, cyc, d, alive


def sample_sorted_simplex(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lebesgue-uniform samples of the sorted chart simplex: ``count``
    rows of two uniforms, folded by ``sorted_simplex``."""
    return sorted_simplex(rng.random((count, 2)))


def sorted_simplex(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chart points (a, b) of the rows (u0, u1) of ``u``.

    Two sorted uniforms lo <= hi give the uniform point
    (lo, hi - lo, 1 - hi) of the full simplex; sorting its three
    coordinates folds it onto the chart.  Both sorts are min/max selection
    networks: the largest coordinate is max(x0, x1, x2) and the middle one
    max(min(x0, x1), min(max(x0, x1), x2)).  They only select among floats
    already computed, so the output is the same bits as sorting the rows,
    ties included.  Each network stage writes over a row it no longer
    needs.
    """
    lo = np.minimum(u[:, 0], u[:, 1])
    hi = np.maximum(u[:, 0], u[:, 1])
    x1 = hi - lo
    x2 = np.subtract(1.0, hi, out=hi)
    big = np.maximum(lo, x1)
    small = np.minimum(lo, x1, out=lo)
    a = np.maximum(big, x2)
    b = np.maximum(small, np.minimum(big, x2, out=big), out=small)
    return a, b


# --- blocks on worker threads -----------------------------------------------

def _run_blocks(fn, blocks, workers: int):
    """Yield ``fn(i, size)`` over the (index, size) blocks, in block order,
    on at most ``workers`` threads and never more threads than blocks;
    with one, on the calling thread.  At most ``2 workers`` blocks are
    started and not yet taken, so that a thread need not wait for the
    caller to take a result before it starts its next block.  Closing the
    generator early cancels the blocks not yet running and waits for the
    others, at most ``workers``.  A block's result must depend only on its
    arguments, so the results are independent of worker count."""
    workers = min(workers, len(blocks))
    if workers <= 1:
        for i, size in blocks:
            yield fn(i, size)
        return
    from concurrent.futures import ThreadPoolExecutor

    todo = iter(blocks)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead = collections.deque(
            pool.submit(fn, *args) for args in itertools.islice(todo, 2 * workers))
        while ahead:
            result = ahead.popleft().result()
            ahead.extend(pool.submit(fn, *args) for args in itertools.islice(todo, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


# --- the gasket as an attractor ---------------------------------------------

def chaos_game(count: int, seed: int = 0, workers: int = 1) -> np.ndarray:
    """Random backward iteration of the three elementary gasket maps.

    Returns an (count, 2) array of (lambda1, lambda2) coordinates in the
    full (unsorted) simplex.  The stream is organized as fixed-size
    independent chains, each burned in from the barycenter.  One move sets
    a uniformly drawn coordinate to 1 and divides all three by their sum.

    One generator, ``default_rng(seed)``, draws every move of the call
    step-major as ``uint8``: row ``step`` holds that step's draw for each
    chain, so a step reads one contiguous row and advances three 1-D
    coordinate arrays.  The scatter indices of the moves are computed
    ``_TILE`` steps at a time.  The result is planar and step-major: each
    output step writes its lambda1 and lambda2 of every chain as two
    contiguous rows of one float64 buffer of shape (2, per_chain * chains),
    and the call returns its (count, 2) transposed view, so row r is chain
    ``r % chains`` at output step ``r // chains``.  A count that is not a
    whole number of output steps ends on part of the last one.  Memory:
    16 bytes per point for the result, one byte per step and chain for the
    draws, and the ``_TILE`` rows of indices.

    The game runs on the calling thread; ``workers`` is accepted and not
    used.  Splitting the chains over two threads gave no gain, since at
    2048 chains each numpy call costs mostly interpreter time, which holds
    the GIL.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    per_chain = max(1, -(-count // _CHAIN_BLOCK))
    chains = -(-count // per_chain)
    steps = _BURN_IN + per_chain
    draws = np.random.default_rng(seed).integers(0, 3, size=(steps, chains), dtype=np.uint8)
    # lam[i] is coordinate i of every chain; lam.flat[i * chains + j] is
    # coordinate i of chain j
    lam = np.full((3, chains), 1.0 / 3.0)
    flat = lam.reshape(-1)
    l0, l1, l2 = lam
    l01 = lam[:2]
    row = np.arange(chains)
    total = np.empty(chains)
    index = np.empty((_TILE, chains), dtype=np.intp)
    out = np.empty((2, per_chain * chains))
    rows = out.reshape(2, per_chain, chains)  # rows[:, k] is output step k's (l0, l1)
    for lo in range(0, steps, _TILE):
        hi = min(lo + _TILE, steps)
        idx = np.multiply(draws[lo:hi], np.intp(chains), out=index[:hi - lo])
        idx += row
        for step, i in enumerate(idx, lo):
            flat[i] = 1.0
            np.add(l0, l1, out=total)  # (l0 + l1) + l2: this order fixes the stream
            np.add(total, l2, out=total)
            np.divide(lam, total, out=lam)
            if step >= _BURN_IN:
                rows[:, step - _BURN_IN] = l01
    return out[:, :count].T


# --- point cloud serialization ----------------------------------------------

def write_points_csv(points: np.ndarray, fh, provenance: Optional[dict] = None):
    """CSV emitter: one "a,b" row per point, 17 significant digits.  Each
    block of ``_CLOUD_BLOCK`` rows is formatted by one ``%``."""
    if provenance:
        items = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
        fh.write(f"# {items}\n")
    fh.write("a,b\n")
    points = np.asarray(points)
    for lo in range(0, len(points), _CLOUD_BLOCK):
        block = points[lo:lo + _CLOUD_BLOCK]
        fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def write_points_binary(points: np.ndarray, fh):
    """Binary emitter: 8-byte magic then little-endian float64 (a, b)
    pairs, ``_CLOUD_BLOCK`` rows at a time, so a cloud of any layout is
    never copied whole."""
    fh.write(POINTS_MAGIC)
    points = np.asarray(points)
    for lo in range(0, len(points), _CLOUD_BLOCK):
        fh.write(np.ascontiguousarray(points[lo:lo + _CLOUD_BLOCK], dtype="<f8").data)


def read_points_binary(fh) -> np.ndarray:
    magic = fh.read(8)
    if magic != POINTS_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    raw = fh.read()
    if len(raw) % 16:
        raise ValueError(f"a payload of {len(raw)} bytes is not whole 16-byte (a, b) pairs")
    flat = np.frombuffer(raw, dtype="<f8")
    return flat.reshape(-1, 2)


# --- rasterization ------------------------------------------------------------

def _pixel_counts(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Hits per pixel of ``rasterize``'s triangle, as a (height, width)
    ``int64`` array.  The points are counted ``_CLOUD_BLOCK`` at a time, in
    order: a block's pixel indices are computed into one set of
    preallocated buffers with in-place ufuncs and added to the counts with
    ``np.add.at``.  The buffers are freed when the call returns."""
    counts = np.zeros(height * width, dtype=np.int64)
    unit = np.sqrt(3.0) / 2.0  # the height of the unit triangle
    last = np.array([[width - 1], [height - 1]])  # the last column and row
    buffers = np.empty((3, _CLOUD_BLOCK)), np.empty((2, _CLOUD_BLOCK), dtype=np.int64)
    for lo in range(0, len(points), _CLOUD_BLOCK):
        lam1 = points[lo:lo + _CLOUD_BLOCK, 0]
        lam2 = points[lo:lo + _CLOUD_BLOCK, 1]
        floats, ints = (b[:, :len(lam1)] for b in buffers)
        lam3, xy = floats[0], floats[1:]
        np.subtract(1.0, lam1, out=lam3)
        lam3 -= lam2
        np.multiply(0.5, lam3, out=xy[0])
        xy[0] += lam2  # x = lam2 + 0.5 lam3
        np.multiply(unit, lam3, out=xy[1])  # y = unit lam3, then y / unit
        xy[1] /= unit
        xy *= last
        np.copyto(ints, xy, casting="unsafe")
        np.clip(ints, 0, last, out=ints)
        xs, ys = ints
        np.subtract(height - 1, ys, out=ys)
        ys *= width
        ys += xs
        np.add.at(counts, ys, 1)
    return counts.reshape(height, width)


def rasterize(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Log-scaled density raster of simplex points in barycentric coords.

    Simplex vertices map to an equilateral triangle inscribed in the
    image; brightness is log(1 + hits) rescaled to 0..255.  The hits are
    counted by ``_pixel_counts`` on the calling thread, so the work grows
    with the point count, not with the pixel count.  The brightness is
    written into the image a band of about ``_CLOUD_BLOCK`` pixels at a
    time, so the call holds the counts, the image and one band, and no
    full-size float raster.
    """
    counts = _pixel_counts(np.asarray(points), width, height)
    peak = np.log1p(counts.max())  # the brightest pixel, as log1p is monotone
    image = np.empty((height, width), dtype=np.uint8)
    rows = max(1, _CLOUD_BLOCK // width)
    for lo in range(0, height, rows):
        dens = np.log1p(counts[lo:lo + rows])
        if peak > 0:
            dens /= peak
        dens *= 255.0
        dens += 0.5
        image[lo:lo + rows] = dens
    return image


def write_pgm(image: np.ndarray, fh, provenance: Optional[dict] = None):
    """Binary portable graymap (magic P5), one provenance comment line."""
    height, width = image.shape
    fh.write(b"P5\n")
    if provenance:
        items = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
        fh.write(f"# {items}\n".encode())
    fh.write(f"{width} {height}\n255\n".encode())
    fh.write(np.ascontiguousarray(image, dtype=np.uint8).data)
