"""References the benchmark computes apart from the program.

Nothing here imports ``rauzygasket``.  Every value is rebuilt from the
definitions: integer dual-cocycle weights, the closed-form chart mass of a
cylinder, dyadic box indices, the Kerckhoff area share and the raster
geometry.  A fault in the program therefore cannot hide in its own
reference.

Cylinder masses.  The weights start at q = (1, 1, 1) in letter
coordinates.  A block of n wins of the leading letter adds n times its
weight to the two other entries, and the ordering of the letters then
stays (elementary only), swaps its first two entries, or rotates left.
A path ending at ordering (p1, p2, p3) has chart mass

    6 / (q_p1 (q_p1 + q_p2) (q_1 + q_2 + q_3)),

the ratio of the end cone's measure to the sorted start cone's 1/6.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

START = (1, 2, 3)
STAY, SWAP, CYC = "stay", "swap", "cyc"


def advance(q, order, n, kind):
    """Weights and ordering after n wins of the leader ending with ``kind``."""
    w = q[order[0] - 1]
    q = tuple(x if letter == order[0] else x + n * w for letter, x in zip(START, q))
    if kind == SWAP:
        order = (order[1], order[0], order[2])
    elif kind == CYC:
        order = (order[1], order[2], order[0])
    return q, order


def mass_denominator(q, order) -> int:
    """D such that the chart mass at this end state is 6 / D."""
    a = q[order[0] - 1]
    b = q[order[1] - 1]
    return a * (a + b) * (q[0] + q[1] + q[2])


def survivor_masses(max_depth: int, exact_depth: int = 1):
    """Chart mass surviving d elementary steps, for d = 0..max_depth.

    One depth-first sweep over all 3^d elementary paths.  Returns
    (floats, exact): floats[d] is the correctly rounded sum of the
    depth-d masses, exact[d] the Fraction sum for d <= exact_depth.
    """
    terms = [[] for _ in range(max_depth + 1)]
    stack = [((1, 1, 1), START, 0)]
    while stack:
        q, order, level = stack.pop()
        terms[level].append(mass_denominator(q, order))
        if level < max_depth:
            for kind in (STAY, SWAP, CYC):
                q2, order2 = advance(q, order, 1, kind)
                stack.append((q2, order2, level + 1))
    floats = [math.fsum(6 / d for d in dens) for dens in terms]
    exact = [sum((Fraction(6, d) for d in dens), Fraction(0)) for dens in terms[: exact_depth + 1]]
    return floats, exact


def accelerated_leaves(depth: int, n_cap: int, floor: Fraction = Fraction(0)):
    """Yield (path, D) for every depth-``depth`` accelerated cylinder of
    chart mass 6 / D.

    Counters run over 1..n_cap with both endings.  A cylinder whose mass is
    below ``floor`` is dropped together with everything under it, which is
    how a measure floor prunes the enumeration.
    """
    floor = Fraction(floor)

    def walk(prefix, q, order, level):
        for n in range(1, n_cap + 1):
            for kind in (SWAP, CYC):
                q2, order2 = advance(q, order, n, kind)
                den = mass_denominator(q2, order2)
                if 6 * floor.denominator < floor.numerator * den:
                    continue  # 6 / den < floor
                path = prefix + ((n, kind),)
                if level + 1 == depth:
                    yield path, den
                else:
                    yield from walk(path, q2, order2, level + 1)

    return walk((), (1, 1, 1), START, 0)


def slope(xs, ys) -> float:
    """Ordinary least-squares slope of ys against xs."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def box_counts(points: np.ndarray, exponents) -> dict:
    """Number of occupied boxes of side 2^-k, for each k in ``exponents``.

    Boxes tile [0, 1]^2 from the origin, and a point on a box edge belongs
    to the lower box, so the index at side s is ceil(x / s) - 1, clamped at
    0.  For dyadic sides that index at side 2^m s is the index at side s
    shifted right by m bits, so only the finest grid divides.
    """
    finest = max(exponents)
    scale = 2.0**finest
    ij = np.maximum(np.ceil(np.asarray(points) * scale).astype(np.int64) - 1, 0)
    out = {}
    for k in exponents:
        shift = finest - k
        keys = ((ij[:, 0] >> shift) << 32) | (ij[:, 1] >> shift)
        keys.sort()
        out[k] = int(1 + np.count_nonzero(keys[1:] != keys[:-1]))
    return out


def kerckhoff_share(t: float) -> float:
    """Lebesgue share of the sorted simplex on which the leader's run
    pushes a loser coordinate past t times its start (unit weights).

    A run of k wins gives the ratio 1 + k, so the event is "at least k
    wins" with k the least integer for which 1 + k > t.  At least k wins
    means a > k / (k + 1), the corner triangle of the sorted simplex of
    area share 3 / (k + 1)^2.
    """
    k = math.floor(t)
    return 3.0 / (k + 1) ** 2


def raster_depths(width: int, height: int):
    """Signed pixel distance of every pixel centre to the three lines
    lambda_i = 1/2 of the raster geometry (positive where lambda_i > 1/2).

    Vertex 1 of the simplex sits at the bottom left, vertex 2 at the bottom
    right and vertex 3 at the top centre; lambda_3 fills the image height.
    In pixel units, with Y counted up from the bottom row,
    lambda_3 = Y / (H - 1) and lambda_2 = X / (W - 1) - lambda_3 / 2.
    Returns an array of shape (3, height, width) indexed by image row.
    """
    col = np.arange(width) + 0.5
    y_up = (height - 1 - np.arange(height)) + 0.5
    X, Y = np.meshgrid(col, y_up)
    gx, gy = 1.0 / (width - 1), 1.0 / (height - 1)
    lam3 = Y * gy
    lam2 = X * gx - lam3 / 2
    lam1 = 1.0 - lam2 - lam3
    norms = (math.hypot(gx, gy / 2), math.hypot(gx, gy / 2), gy)
    return np.stack([(lam - 0.5) / g for lam, g in zip((lam1, lam2, lam3), norms)])
