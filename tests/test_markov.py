import io
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from exactgame import chaos_game_exact
from rauzygasket import markov
from rauzygasket.dimension import box_counting
from rauzygasket.induction import Hole, Step, accelerated_step, make_system
from rauzygasket.markov import (
    BOUNDARY_TOL,
    ChartPoint,
    MarkovCell,
    TieOnBoundary,
    _BURN_IN,
    _CLOUD_BLOCK,
    _TILE,
    _counter,
    _step,
    accelerated_step_batch,
    branch_preimage,
    cell_of,
    chaos_game,
    cylinder_vertices,
    jacobian,
    rasterize,
    read_points_binary,
    sample_sorted_simplex,
    write_points_binary,
    write_points_csv,
    write_pgm,
)
from rauzygasket.measures import loop_ccc, mc_balance, mc_kerckhoff, return_roofs


def random_chart_fracs(rng, count, denom=10**6):
    out = []
    while len(out) < count:
        cuts = sorted(rng.randrange(1, denom) for _ in range(2))
        parts = sorted(
            (F(cuts[0], denom), F(cuts[1] - cuts[0], denom), F(denom - cuts[1], denom)),
            reverse=True,
        )
        if parts[0] == parts[1] or parts[1] == parts[2]:
            continue
        out.append((parts[0], parts[1]))
    return out


# --- cells ---------------------------------------------------------------------

def test_cell_examples():
    assert cell_of(ChartPoint(0.7, 0.18)) == MarkovCell(n=2, kind="cyc")
    assert cell_of(ChartPoint(0.6, 0.25)) == MarkovCell(n=1, kind="swap")
    assert cell_of(ChartPoint(0.45, 0.30)) == Hole(substeps=0)


def test_cell_hole_iff_leader_below_half():
    rng = np.random.default_rng(5)
    a, b = sample_sorted_simplex(rng, 4000)
    for x, y in zip(a, b):
        cell = cell_of(ChartPoint(float(x), float(y)))
        if x < 0.5:
            assert cell == Hole(substeps=0)
        else:
            assert not (isinstance(cell, Hole) and cell.substeps == 0)


def test_cell_exact_boundary_raises():
    with pytest.raises(TieOnBoundary):
        cell_of(ChartPoint(F(2, 3), F(2, 9)).validate())  # rem == c exactly


def test_cell_float_boundary_raises():
    # rem == b boundary of the n=1 cell, perturbed below float tolerance
    a = 0.64
    with pytest.raises(TieOnBoundary):
        cell_of(ChartPoint(a, 2 * a - 1 + 1e-16))


def test_mid_run_hole_cells():
    # leader above 1/2 but the run dies at the second win:
    # r1 = 0.26 > b = 0.2, r2 = -0.11 < 0
    assert cell_of(ChartPoint(0.63, 0.2)) == Hole(substeps=1)


# --- forward map ------------------------------------------------------------------

def test_apply_T_worked_example():
    cell, _, img = _step(ChartPoint(0.7, 0.18))
    img.validate()
    assert cell == MarkovCell(n=2, kind="cyc")
    # unnormalized total 2a-1 = 0.4; sorted image carries the raw-formula
    # values 0.18/0.4 and ((n+1)a-n)/0.4 = 0.25 as first and last coords
    assert img.a == pytest.approx(0.45, abs=1e-12)
    assert img.b == pytest.approx(0.30, abs=1e-12)
    assert img.c == pytest.approx(0.25, abs=1e-12)


def test_apply_T_hole():
    assert _step(ChartPoint(0.45, 0.30)) == (Hole(substeps=0), None, None)


def test_perron_fixed_point():
    t = 0.5436890126920764  # real root of t^3 + t^2 + t = 1
    p = ChartPoint(t, t * t)
    cell, _, img = _step(p)
    assert cell == MarkovCell(n=1, kind="cyc")
    assert abs(img.a - p.a) < 1e-12 and abs(img.b - p.b) < 1e-12


def test_jacobian_values():
    assert jacobian(ChartPoint(0.7, 0.18)) == pytest.approx(15.625, rel=1e-12)
    assert jacobian(ChartPoint(0.6, 0.25)) == pytest.approx(1 / 0.6**3, rel=1e-12)


def test_jacobian_lower_bound_sampled():
    rng = np.random.default_rng(11)
    a, b = sample_sorted_simplex(rng, 20000)
    _, _, n, _, d, alive = accelerated_step_batch(a, b)
    j = 1.0 / d[alive] ** 3
    assert (j > (4.0 / 3.0) ** 3).all()
    assert (j < (n[alive] + 1.0) ** 3).all()


# --- cell vertices -------------------------------------------------------------------

def test_cell_vertices_values():
    # the swap cell of counter n is the one-block cylinder (n, swap)
    assert cylinder_vertices([(1, "swap")]) == (
        (F(1, 2), F(1, 2)), (F(2, 3), F(1, 3)), (F(3, 5), F(1, 5)))
    assert cylinder_vertices([(2, "swap")]) == (
        (F(2, 3), F(1, 3)), (F(3, 4), F(1, 4)), (F(5, 7), F(1, 7)))


def test_cell_vertex_interiors_classify_to_n():
    rng = random.Random(3)
    for n in range(1, 11):
        verts = cylinder_vertices([(n, "swap")])
        for _ in range(20):
            w = [F(rng.randrange(1, 50)) for _ in range(3)]
            tot = sum(w)
            a = sum(wi * v[0] for wi, v in zip(w, verts)) / tot
            b = sum(wi * v[1] for wi, v in zip(w, verts)) / tot
            cell = cell_of(ChartPoint(a, b).validate())
            assert cell == MarkovCell(n=n, kind="swap")


def test_branch_maps_cell_onto_full_simplex():
    # sampled onto-ness: images of hull-interior points reach both the
    # a -> 1 corner region and the balanced edge of the chart
    rng = random.Random(8)
    for n in (1, 3):
        verts = cylinder_vertices([(n, "swap")])
        images = []
        for _ in range(400):
            w = [F(rng.randrange(1, 60)) for _ in range(3)]
            tot = sum(w)
            a = sum(wi * v[0] for wi, v in zip(w, verts)) / tot
            b = sum(wi * v[1] for wi, v in zip(w, verts)) / tot
            cell, _, img = _step(ChartPoint(a, b).validate())
            assert not isinstance(cell, Hole)
            images.append((img.validate().a, img.b))
        xs = [p[0] for p in images]
        assert min(xs) < 0.45 and max(xs) > 0.85


# --- inverse branches -----------------------------------------------------------------

def test_inverse_branch_worked_example():
    p = ChartPoint(*branch_preimage(2, "cyc", *ChartPoint(0.45, 0.30).coords())).validate()
    assert p.a == pytest.approx(0.7, abs=1e-12)
    assert p.b == pytest.approx(0.18, abs=1e-12)


def test_inverse_branch_roundtrip_random():
    rng = np.random.default_rng(13)
    a, b = sample_sorted_simplex(rng, 10**4)
    ns = rng.integers(1, 51, size=a.size)
    kinds = rng.integers(0, 2, size=a.size)
    for x, y, n, k in zip(a, b, ns, kinds):
        cell = MarkovCell(n=int(n), kind="swap" if k == 0 else "cyc")
        q = ChartPoint(float(x), float(y)).validate()
        p = ChartPoint(*branch_preimage(cell.n, cell.kind, *q.coords())).validate()
        got, _, img = _step(p)
        assert got == cell
        img.validate()
        assert abs(img.a - x) < 1e-12 and abs(img.b - y) < 1e-12


def test_inverse_branch_images_disjoint():
    # distinct cells pull the same point to distinct preimages, and each
    # preimage classifies back to its own cell
    y = ChartPoint(0.55, 0.3)
    seen = set()
    for n in range(1, 6):
        for kind in ("swap", "cyc"):
            p = ChartPoint(*branch_preimage(n, kind, *y.coords())).validate()
            assert cell_of(p) == MarkovCell(n=n, kind=kind)
            seen.add((round(p.a, 12), round(p.b, 12)))
    assert len(seen) == 10


def test_exact_and_float_agree_away_from_boundaries():
    rng = random.Random(23)
    for a, b in random_chart_fracs(rng, 300):
        exact_p = ChartPoint(a, b).validate()
        float_p = ChartPoint(float(a), float(b))
        try:
            c1 = cell_of(exact_p)
            c2 = cell_of(float_p)
        except TieOnBoundary:
            continue
        assert c1 == c2
        if isinstance(c1, Hole):
            continue
        i1 = _step(exact_p)[2].validate()
        i2 = _step(float_p)[2].validate()
        assert abs(i1.a - i2.a) < 1e-12 and abs(i1.b - i2.b) < 1e-12


@pytest.mark.parametrize("n", [10**6, 10**9])
def test_deep_counter_total_does_not_cancel(n):
    # the preimage of (0.55, 0.3) under the branch (n, cyc)
    exact_p = ChartPoint(*branch_preimage(n, "cyc", F(55, 100), F(3, 10), F(3, 20))).validate()
    d = n * exact_p.a - (n - 1)
    assert jacobian(exact_p) == float(1 / d**3)
    # a float point takes the same steps as the vectorized map
    float_p = ChartPoint(float(exact_p.a), float(exact_p.b))
    cell, _, img = _step(float_p)
    a2, b2, n2, _, d2, alive = accelerated_step_batch(np.array([float_p.a]), np.array([float_p.b]))
    assert alive[0] and n2[0] == cell.n
    assert (img.a, img.b) == (a2[0], b2[0])
    assert jacobian(float_p) == 1.0 / d2[0] ** 3
    d_float_p = cell.n * F(float_p.a) - (cell.n - 1)
    assert jacobian(float_p) == pytest.approx(float(1 / d_float_p**3), rel=1e-6)


def _deep_and_edge_points(rng):
    """Uniform chart points, then deep counters (s = 1 - a down to 1e-12),
    then points with b within 4 ulps of a - (n-1) s, where the float floor
    of (a - b) / s often overshoots and the nudge must correct it."""
    a, b = sample_sorted_simplex(rng, 10**4)
    deep = 500
    for scale in (1e-3, 1e-6, 1e-9, 1e-12):
        lead = 1.0 - scale * rng.uniform(1.0, 2.0, deep)
        a = np.concatenate([a, lead])
        b = np.concatenate([b, (1.0 - lead) * rng.uniform(0.51, 0.99, deep)])
    edge = 2000
    lead = 1.0 - np.exp(rng.uniform(np.log(1e-12), np.log(0.3), edge))
    s = 1.0 - lead
    n0 = np.floor(1.0 / s - 0.5)
    ulps = rng.integers(-4, 5, edge) * 2.0**-52
    near = (lead - (n0 - 1) * s) * (1.0 + ulps)
    valid = (near > s - near) & (near < s)
    return np.concatenate([a, lead[valid]]), np.concatenate([b, near[valid]])


def test_batch_step_matches_scalar_cells():
    a, b = _deep_and_edge_points(np.random.default_rng(31))
    _, _, n, kind, _, alive = accelerated_step_batch(a, b)
    compared = 0
    for i in range(a.size):
        try:
            # a tolerance this small skips only exact boundary hits
            cell = cell_of(ChartPoint(float(a[i]), float(b[i])), tol=1e-300)
        except TieOnBoundary:
            continue
        if isinstance(cell, Hole):
            assert not alive[i] and n[i] == cell.substeps + 1
        else:
            assert alive[i] and n[i] == cell.n
            assert kind[i] == (0 if cell.kind == "swap" else 1)
        compared += 1
    assert compared > 0.99 * a.size
    assert n.max() > 10**11


def test_batch_step_images_match_apply_T_bit_for_bit():
    a, b = sample_sorted_simplex(np.random.default_rng(33), 4000)
    a2, b2, _, _, _, alive = accelerated_step_batch(a, b)
    compared = 0
    for i in np.flatnonzero(alive):
        try:
            _, _, image = _step(ChartPoint(float(a[i]), float(b[i])))
        except TieOnBoundary:
            continue
        assert (a2[i], b2[i]) == (image.a, image.b)
        compared += 1
    assert compared > 0.99 * np.count_nonzero(alive) > 0


class _FixedRows:
    """Stands in for a numpy Generator whose ``random`` returns these rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


def _sorted_simplex_by_sorting(u):
    """The chart sample as two row sorts: the reference for the selection
    network of ``sample_sorted_simplex``."""
    u = np.sort(u, axis=1)
    x = np.sort(np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1), axis=1)
    return x[:, 2], x[:, 1]


def test_sorted_simplex_selection_network_matches_sorting():
    blocks = [np.random.default_rng(seed).random((4096, 2)) for seed in range(8)]
    # rows with ties u0 == u1, zeros, and two equal coordinates of x, in
    # every position: (0.25, 0.5) gives x = (0.25, 0.25, 0.5), (0.25, 0.75)
    # gives (0.25, 0.5, 0.25), (0.5, 0.75) gives (0.5, 0.25, 0.25)
    hand = [(0.3, 0.3), (0.0, 0.0), (0.0, 0.7), (0.7, 0.0), (0.0, 1 - 2**-53),
            (0.25, 0.5), (0.5, 0.25), (0.25, 0.75), (0.75, 0.25), (0.5, 0.75),
            (0.75, 0.5), (0.5, 0.5), (1 / 3, 2 / 3), (2 / 3, 1 / 3), (0.0, 0.5)]
    grid = np.random.default_rng(9).integers(0, 9, (4096, 2)) / 8.0  # ties galore
    for u in blocks + [np.array(hand), grid]:
        a, b = sample_sorted_simplex(_FixedRows(u), len(u))
        ref_a, ref_b = _sorted_simplex_by_sorting(u)
        assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()
    for seed in range(4):  # and through a real generator
        a, b = sample_sorted_simplex(np.random.default_rng(seed), 5000)
        ref_a, ref_b = _sorted_simplex_by_sorting(np.random.default_rng(seed).random((5000, 2)))
        assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()


def test_run_blocks_yields_in_block_order_and_stops_when_closed():
    started = []
    lock = threading.Lock()

    def fn(i, size):
        with lock:
            started.append(i)
        threading.Event().wait(0.001 * (i % 3))  # later blocks may finish first
        return i * size

    blocks = [(i, 2) for i in range(40)]
    for workers in (1, 3):
        assert list(markov._run_blocks(fn, blocks, workers)) == [2 * i for i in range(40)]
    started.clear()
    results = markov._run_blocks(fn, blocks, 3)
    assert [next(results) for _ in range(5)] == [0, 2, 4, 6, 8]
    results.close()  # cancels the blocks not yet running, waits for the rest
    seen = len(started)
    assert seen <= 5 + 2 * 3
    threading.Event().wait(0.05)
    assert len(started) == seen


def _float_boundary_points(rng, count):
    """Float chart points near the four margins of cell_of, at s = 1 - a
    log-uniform in [1e-12, 0.45]: a within a few ulps of n / (n + 1)
    (rem = 0), and b a few ulps or a few tolerances from the lines
    b = a - k s (rem = b on one side, a - (n - 1) s = b on the other) and
    b = (k + 1) s - a (rem = c)."""
    points = []
    for s0 in np.exp(rng.uniform(np.log(1e-12), np.log(0.45), count)):
        n = max(1, round(1 / s0) - 1)
        lead = n / (n + 1)
        for j in range(-3, 4):
            a = lead + j * math.ulp(lead)
            points.append((a, 0.75 * (1.0 - a)))
        a = 1.0 - s0
        exact_a = F(a)
        s = 1 - exact_a
        k = int(exact_a / s)
        for m in range(k - 2, k + 3):
            for line in (exact_a - m * s, (m + 1) * s - exact_a):
                if s / 2 < line < s:
                    b = float(line)
                    offsets = [j * math.ulp(b) for j in range(-3, 4)]
                    offsets += [f * BOUNDARY_TOL for f in (-4, -1.5, -1.01, 1.01, 1.5, 4)]
                    points += [(a, b + d) for d in offsets]
    return points


def test_float_cells_agree_with_exact_at_boundaries_and_deep_counters():
    points = _float_boundary_points(np.random.default_rng(37), 600)
    cells = []
    for a, b in points:
        try:
            cell = cell_of(ChartPoint(a, b))
        except (TieOnBoundary, ValueError):
            continue
        assert cell_of(ChartPoint(F(a), F(b))) == cell, (a, b)
        cells.append((a, b, cell))
    a, b, _ = (np.array(col) for col in zip(*cells))
    _, _, n, kind, _, alive = accelerated_step_batch(a, b)
    for i, (_, _, cell) in enumerate(cells):
        if isinstance(cell, Hole):
            assert not alive[i] and n[i] == cell.substeps + 1
        else:
            assert alive[i] and n[i] == cell.n
            assert kind[i] == (0 if cell.kind == "swap" else 1)
    assert len(cells) > 0.5 * len(points)
    assert np.count_nonzero(alive & (n > 10**9)) > 100


def _counter_reference(a, b, s):
    """The first j >= 1 with a - j s < b the long way: a truncated float
    guess, then whole while-loops of exact comparisons each way."""
    n = int((a - b) / s) + 1
    while a - n * s >= b:
        n += 1
    while n > 1 and a - (n - 1) * s < b:
        n -= 1
    return n


def test_counter_matches_loop_reference_and_exact_floor():
    rng = np.random.default_rng(41)
    a, b = _deep_and_edge_points(rng)
    bound = np.array(_float_boundary_points(rng, 600)).T
    a, b = np.concatenate([a, bound[0]]), np.concatenate([b, bound[1]])
    chart = (0 < b) & (b < a) & (a < 1)
    a, b = a[chart], b[chart]
    s = 1.0 - a
    reference = [_counter_reference(x, y, 1.0 - x) for x, y in zip(a.tolist(), b.tolist())]
    scalar = [_counter(x, y, 1.0 - x)[0] for x, y in zip(a.tolist(), b.tolist())]
    assert scalar == reference
    # numpy float scalars count as scalars too, with an int counter
    numpy_scalar = [_counter(x, y, 1.0 - x)[0] for x, y in zip(a[:500], b[:500])]
    assert all(type(n) is int for n in scalar + numpy_scalar)
    assert numpy_scalar == reference[:500]
    assert _counter(a, b, s)[0].tolist() == reference
    assert max(reference) > 10**11
    # exact points: the same floats as Fractions, a point on the line
    # b = a - 5 s (so n = 6), and counters past int64
    exact = [(F(x), F(y)) for x, y in zip(a[::7].tolist(), b[::7].tolist())]
    exact += [(F(17, 20), F(1, 10))] + [(1 - F(1, 10**k), F(6, 10**(k + 1))) for k in (20, 30)]
    for x, y in exact:
        n = _counter(x, y, 1 - x)[0]
        assert n == (x - y) // (1 - x) + 1 == _counter_reference(x, y, 1 - x)
    assert _counter(F(17, 20), F(1, 10), F(3, 20))[0] == 6
    assert _counter(*exact[-1], 1 - exact[-1][0])[0] > 2**63
    # a direct (a, b, s) with s != 1 - a where the float guess is 1 and only
    # the up nudge reaches the loop reference's 2, as a scalar and an array
    x, y, z = 0.3361170605456604, 0.26509803499846285, 0.07101902554719755
    assert math.floor((x - y) / z) + 1 == 1 and _counter_reference(x, y, z) == 2
    assert _counter(x, y, z) == (2, x - 2 * z, x - z)
    n, rem, d = _counter(np.array([x]), np.array([y]), np.array([z]))
    assert (n.tolist(), rem.tolist(), d.tolist()) == ([2.0], [x - 2 * z], [x - z])


def test_batch_step_kills_every_point_with_a_below_one_half():
    # fl(1 - a) >= 1/2 > a, so a - n s < 0 for every counter n >= 1: the
    # first-return and balance walks drop such points without a step
    a = np.linspace(1 / 3, 0.5, 4001)[:-1]
    a = np.concatenate([a, [math.nextafter(0.5, 0) - j * math.ulp(0.25) for j in range(8)]])
    fractions = np.concatenate([np.linspace(0, 1, 41), [math.nextafter(1, 0)]])
    b = np.multiply.outer(a, fractions)  # b from 0 up to a itself
    a = np.repeat(a, fractions.size)
    b = b.ravel()
    assert a.max() == math.nextafter(0.5, 0) and a.min() == 1 / 3 and b.min() == 0
    alive = accelerated_step_batch(a, b)[5]
    assert not alive.any()


def _step_batch_reference(a, b):
    """The accelerated step on float arrays with an int64 counter and no
    reuse of remainders: the float floor guess, one exact nudge each way,
    then rem = a - n s and D = a - (n - 1) s computed afresh.  Returns
    (a', b', n, kind, D, alive) with int64 n and kind (0 swap, 1 cyc)."""
    s = 1 - a
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.maximum(np.floor((a - b) / s).astype(np.int64) + 1, 1)
    n += a - n * s >= b
    n -= (n > 1) & (a - (n - 1) * s < b)
    c, rem, d = s - b, a - n * s, a - (n - 1) * s
    alive = rem > 0
    kind = (rem <= c).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = b / d
        b2 = np.maximum(rem, c) / d
    return a2, b2, n, kind, d, alive


def _near_counter_lines(rng, count):
    """Chart points with b within 8 half-ulps of a line b = a - k s, with
    s = 1 - a log-uniform in [1e-15, 0.49] and k the whole multiple that
    puts the line near (s / 2, s), so that (a - b) / s is within rounding
    of k and the float floor guess often lands one above the counter."""
    a = 1.0 - np.exp(rng.uniform(np.log(1e-15), np.log(0.49), count))
    s = 1.0 - a
    k = np.floor(a / s - 0.5)  # the line with a - k s in [s / 2, 3 s / 2)
    line = a - k * s
    b = line + rng.integers(-8, 9, count) * (np.spacing(line) / 2)
    chart = (b > s - b) & (b < s) & (k >= 0)
    return a[chart], b[chart]


def test_batch_step_matches_int_counter_reference_bit_for_bit():
    rng = np.random.default_rng(43)
    a, b = _deep_and_edge_points(rng)
    bound = np.array(_float_boundary_points(rng, 600)).T
    near = _near_counter_lines(rng, 3 * 10**5)
    assert near[0].size >= 10**5
    # and points with a < b, off the chart, where the down nudge must not
    # take n below 1
    off = np.array([[0.3, 0.5], [0.2, 0.7], [0.45, 0.46]]).T
    a = np.concatenate([a, bound[0], near[0], off[0]])
    b = np.concatenate([b, bound[1], near[1], off[1]])
    got = accelerated_step_batch(a, b)
    want = _step_batch_reference(a, b)
    alive = want[5]
    assert np.array_equal(got[5], alive)
    for x, y in zip(got[:2] + got[4:5], want[:2] + want[4:5]):  # a', b' and D
        assert x[alive].tobytes() == y[alive].tobytes()
    assert got[2].dtype == np.float64 and got[3].dtype == bool
    assert np.array_equal(got[2][alive], want[2][alive])
    assert np.array_equal(got[3][alive], want[3][alive] == 1)
    # the float floor guess overshoots, and the down nudge corrects it, on
    # tens of thousands of the near points
    s = 1.0 - near[0]
    with np.errstate(divide="ignore"):
        guess = np.maximum(np.floor((near[0] - near[1]) / s) + 1, 1)
    assert np.count_nonzero(guess > _counter(near[0], near[1], s)[0]) > 2 * 10**4


def test_chart_matches_interval_induction():
    rng = random.Random(29)
    for a, b in random_chart_fracs(rng, 10**4):
        s = make_system(a, b, 1 - a - b)
        acc = accelerated_step(s)
        cell, _, img = _step(ChartPoint(a, b).validate())
        if isinstance(acc, Step):
            assert cell.n == acc.n
            assert cell.kind == acc.kind
            assert img.exact()[:2] == acc.system.sorted_lengths()[:2]
        else:
            assert cell == acc


# --- chaos game -------------------------------------------------------------------------

def test_chaos_game_points_in_simplex():
    pts = chaos_game(5000, seed=2)
    assert pts.shape == (5000, 2)
    assert (pts > 0).all()
    assert (pts.sum(axis=1) < 1).all()


def test_chaos_game_deterministic_and_worker_independent():
    a = chaos_game(4096 * 3 + 17, seed=9, workers=1)
    b = chaos_game(4096 * 3 + 17, seed=9, workers=8)
    c = chaos_game(4096 * 3 + 17, seed=9, workers=1)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d = chaos_game(1000, seed=10)
    assert not np.array_equal(a[:1000], d)


# the ids keep the names these cases ran under when they also took a burn-in
@pytest.mark.parametrize("count", [
    1, 4095,  # one point per chain
    4096 * _TILE, 4096 * _TILE + 1,  # _TILE output steps, and one step past them
    4096 * 2 * _TILE, 4096 * 2 * _TILE + 1,  # 2 _TILE output steps, and one past
    4096 * 3 + 17,
], ids=lambda count: f"{count}-{_BURN_IN}")
def test_chaos_game_same_bytes_for_any_workers(count):
    want = chaos_game(count, seed=12, workers=1).tobytes()
    for workers in (2, 3):
        assert chaos_game(count, seed=12, workers=workers).tobytes() == want


def test_threads_agree_under_a_short_switch_interval():
    # the Monte Carlo routines start the only threads: more threads than
    # cores and thread switches every microsecond
    def run(workers):
        roofs, drawn, lost = return_roofs(loop_ccc(), 25000, seed=14, workers=workers)
        return (mc_kerckhoff(5.0, samples=3 * (1 << 16) + 7, seed=14, workers=workers),
                mc_balance([2.0, 100.0], samples=3 * (1 << 16) + 7, seed=14, workers=workers),
                roofs.tobytes(), drawn, lost)

    want = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            assert run(3) == want
    finally:
        sys.setswitchinterval(interval)


def _scalar_game(draws, burn_in):
    """The float chaos game on given draws, one plain Python update per
    step in the ``(l0 + l1) + l2`` order."""
    lam = [1.0 / 3.0] * 3
    out = []
    for step, w in enumerate(draws.tolist()):
        lam[w] = 1.0
        total = (lam[0] + lam[1]) + lam[2]
        lam = [x / total for x in lam]
        if step >= burn_in:
            out.append((lam[0], lam[1]))
    return np.array(out)


def _reference_chain(chain, chains, per_chain, seed):
    """One chain of the chaos game, advanced one scalar at a time on
    column ``chain`` of the call's single step-major draw."""
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 3, size=(_BURN_IN + per_chain, chains), dtype=np.uint8)
    return _scalar_game(draws[:, chain], _BURN_IN)


# the ids keep the names these cases ran under when they also took weights
# and a burn-in
@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 4096 * 65 + 3],
                         ids=lambda count: f"{_BURN_IN}-None-{count}")
def test_chaos_game_matches_scalar_reference(count):
    # chain j owns rows j, j + chains, j + 2 chains, ... of the output;
    # 4096 * 65 + 3 points give 66 steps per chain, past two 32-step
    # chunks of scatter indices, and end on 3 points of the last step
    pts = chaos_game(count, seed=11)
    per_chain = -(-count // 4096)
    chains = -(-count // per_chain)
    for chain in sorted({0, 1, chains - 1}):
        if chain >= chains:
            continue
        ref = _reference_chain(chain, chains, per_chain, 11)
        got = pts[chain::chains]
        assert got.tobytes() == ref[:len(got)].tobytes(), chain


@pytest.mark.parametrize("seed", [0, 1, 6, 11, 2**40])
def test_chaos_game_exact_draws_the_one_chain_float_game(seed):
    (got,) = chaos_game(1, seed=seed)
    (lam,) = chaos_game_exact(1, seed=seed)
    assert np.allclose(got, [float(lam[0]), float(lam[1])], rtol=0, atol=1e-12)
    # past one point the float game has more than one chain, so the exact
    # game is compared with the scalar float update on its own draws
    draws = np.random.default_rng(seed).integers(0, 3, size=_BURN_IN + 100, dtype=np.uint8)
    exact = chaos_game_exact(100, seed=seed)
    ref = _scalar_game(draws, _BURN_IN)
    assert len(exact) == len(ref) == 100
    exact = np.array([[float(a), float(b)] for a, b, _ in exact])
    assert np.allclose(ref, exact, rtol=0, atol=1e-12)


def test_chaos_game_exact_points_survive_ten_steps():
    points = chaos_game_exact(100, seed=6)
    for lam in points:
        a, b, c = sorted(lam, reverse=True)
        p = ChartPoint(a, b).validate()
        for _ in range(10):
            cell, _, p = _step(p)
            assert not isinstance(cell, Hole), "gasket-approximant died too early"


# --- emitters --------------------------------------------------------------------------

def test_points_binary_roundtrip():
    pts = chaos_game(257, seed=1)
    buf = io.BytesIO()
    write_points_binary(pts, buf)
    raw = buf.getvalue()
    assert raw[:8] == b"RGPTS001"
    assert len(raw) == 8 + 257 * 16
    buf.seek(0)
    back = read_points_binary(buf)
    assert np.array_equal(back, pts)


@pytest.mark.parametrize("points", [
    chaos_game(_CLOUD_BLOCK + 3, seed=4),  # planar, written in two blocks
    np.random.default_rng(4).random((_CLOUD_BLOCK + 3, 2)),  # C-ordered
])
def test_points_binary_payload_is_the_little_endian_cloud(points):
    buf = io.BytesIO()
    write_points_binary(points, buf)
    assert buf.getvalue() == b"RGPTS001" + np.asarray(points, "<f8").tobytes()


@pytest.mark.parametrize("size", [3, 8, 24])
def test_read_points_binary_names_a_payload_of_partial_pairs(size):
    with pytest.raises(ValueError, match=f"payload of {size} bytes"):
        read_points_binary(io.BytesIO(b"RGPTS001" + bytes(size)))


def test_write_pgm_payload_is_the_uint8_image():
    pixels = np.random.default_rng(3).integers(0, 256, (128, 160))
    for image in (
        pixels.astype(np.uint8),  # C-contiguous uint8
        pixels.astype(np.uint8)[::2, 1::2],  # strided view
        pixels.astype(np.uint8).T,  # Fortran-ordered view
        pixels,  # int64
        pixels + 0.25,  # float64, truncated by the cast
    ):
        buf = io.BytesIO()
        write_pgm(image, buf, provenance={"seed": 0})
        header = b"P5\n# seed=0\n%d %d\n255\n" % (image.shape[1], image.shape[0])
        assert buf.getvalue() == header + image.astype(np.uint8).tobytes()


def test_points_csv_format():
    pts = np.array([[0.5, 0.25]])
    buf = io.StringIO()
    write_points_csv(pts, buf, provenance={"seed": 0})
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "a,b"
    assert lines[2] == "0.5,0.25"


def test_points_csv_blocks_match_one_row_at_a_time():
    # more than one block, in the chaos game's planar layout and packed,
    # and rows whose %.17g forms are special
    cloud = chaos_game(_CLOUD_BLOCK + 3, seed=19)
    special = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1 / 3]])
    for pts in (cloud, np.concatenate([cloud, special])):
        buf = io.StringIO()
        write_points_csv(pts, buf)
        assert buf.getvalue() == "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in pts)


def test_rasterize_single_point():
    img = rasterize(np.array([[0.4, 0.3]]), 64, 64)
    assert img.shape == (64, 64)
    assert np.count_nonzero(img) == 1


def _reference_raster(points, width, height):
    """The raster counted with ``np.unique`` over all pixel indices at once
    and brightened as ``rasterize`` was before its row bands: the whole
    float64 log density at once, its maximum as the peak."""
    lam1, lam2 = points[:, 0], points[:, 1]
    lam3 = 1.0 - lam1 - lam2
    x = lam2 + 0.5 * lam3
    y = (np.sqrt(3.0) / 2.0) * lam3
    xs = np.clip((x * (width - 1)).astype(np.int64), 0, width - 1)
    ys = np.clip((y / (np.sqrt(3.0) / 2.0) * (height - 1)).astype(np.int64), 0, height - 1)
    pixels, hits = np.unique((height - 1 - ys) * width + xs, return_counts=True)
    counts = np.zeros(height * width, dtype=np.int64)
    counts[pixels] = hits
    dens = np.log1p(counts.reshape(height, width))
    peak = dens.max()
    if peak > 0:
        dens /= peak
    dens *= 255.0
    dens += 0.5
    return dens.astype(np.uint8)


_RASTER_SPECIAL = np.array([
    [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
    [0.5, 0.5], [0.5, 0.0], [0.0, 0.5], [0.25, 0.75], [0.0, 0.999],
    [-0.5, 0.2], [1.5, -0.3], [0.7, 0.7], [-1.0, -1.0], [2.0, 2.0],
])


@pytest.mark.parametrize("width,height", [(96, 64), (64, 96), (64, 64)])
def test_rasterize_matches_unique_reference(width, height):
    # more than 2**20 points, so the count crosses many blocks, plus the
    # vertices, edge points and points outside the simplex (clipped)
    rng = np.random.default_rng(5)
    inside = chaos_game((1 << 20) + 1000, seed=3)
    outside = rng.uniform(-0.5, 1.5, size=(5000, 2))
    pts = np.concatenate(
        [_RASTER_SPECIAL, inside[:1 << 19], _RASTER_SPECIAL, inside[1 << 19:], outside])
    img = rasterize(pts, width, height)
    assert img.shape == (height, width)
    assert img.tobytes() == _reference_raster(pts, width, height).tobytes()
    one = np.array([[0.4, 0.3]])
    ref = _reference_raster(one, width, height)
    assert rasterize(one, width, height).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [_CLOUD_BLOCK - 1, _CLOUD_BLOCK, _CLOUD_BLOCK + 1])
def test_rasterize_at_block_edges(n):
    pts = chaos_game(n, seed=n)
    # special points at the first and last index of each block
    k = len(_RASTER_SPECIAL)
    pts[:k] = _RASTER_SPECIAL
    pts[min(n, _CLOUD_BLOCK) - k:min(n, _CLOUD_BLOCK)] = _RASTER_SPECIAL[::-1]
    pts[-1] = _RASTER_SPECIAL[-1]
    img = rasterize(pts, 96, 64)
    assert img.tobytes() == _reference_raster(pts, 96, 64).tobytes()


@pytest.mark.parametrize("n", [1, _CLOUD_BLOCK + 1, 4096 * 3 + 17])
def test_cloud_consumers_do_not_depend_on_its_layout(n):
    planar = chaos_game(n, seed=18)
    packed = np.ascontiguousarray(planar)
    assert n == 1 or not planar.flags.c_contiguous  # one row is both layouts
    assert rasterize(planar, 96, 64).tobytes() == rasterize(packed, 96, 64).tobytes()
    sizes = [2.0**-k for k in range(2, 8)]
    assert box_counting(planar, sizes).counts == box_counting(packed, sizes).counts


def test_rasterize_empty_cloud_is_black():
    img = rasterize(np.empty((0, 2)), 96, 64)
    assert img.shape == (64, 96) and img.dtype == np.uint8
    assert not img.any()


def test_rasterize_frees_its_block_buffers_before_the_brightness():
    # the counts and the image take 9 bytes per pixel; the 1.25 MB of block
    # buffers must be freed before the brightness bands are allocated
    cloud = chaos_game(2 * 10**6, seed=1)
    tracemalloc.start()
    try:
        rasterize(cloud, 1024, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 9 * 1024 * 1024 < 1.0e6


def _pgm(image):
    buf = io.BytesIO()
    write_pgm(image, buf)
    return buf.getvalue()


@pytest.mark.parametrize("band", [_CLOUD_BLOCK, 7 * 96, 5 * 96 + 1, 1])
@pytest.mark.parametrize("points", [
    np.empty((0, 2)),  # peak 0: every pixel stays 0
    np.array([[0.4, 0.3]]),  # peak log 2
    _RASTER_SPECIAL,
    chaos_game(5000, seed=8),
], ids=["empty", "one", "special", "cloud"])
def test_banded_raster_matches_the_full_raster(monkeypatch, band, points):
    # bands of whole rows, of rows with a short last band, and of one row
    monkeypatch.setattr(markov, "_CLOUD_BLOCK", band)
    for width, height in ((96, 64), (64, 96), (300, 200)):
        want = _pgm(_reference_raster(points, width, height))
        assert _pgm(rasterize(points, width, height)) == want


def test_raster_central_hole_is_empty():
    # no attractor point has all coordinates below 1/2, so the middle of
    # the raster (interior of the first hole) must stay black
    img = rasterize(chaos_game(10**5, seed=17), 512, 512)
    h, w = img.shape
    rows = slice(h - 1 - int(0.36 * (h - 1)), h - 1 - int(0.30 * (h - 1)))
    cols = slice(int(0.46 * (w - 1)), int(0.54 * (w - 1)))
    assert np.count_nonzero(img[rows, cols]) == 0


def test_raster_corner_subgaskets_populated():
    # the three corner copies of the gasket must all receive mass
    img = rasterize(chaos_game(10**5, seed=17), 256, 256)
    h, w = img.shape
    corners = [
        img[h - 32 :, :32],          # lambda1 corner, bottom left
        img[h - 32 :, w - 32 :],     # lambda2 corner, bottom right
        img[:32, w // 2 - 16 : w // 2 + 16],  # lambda3 corner, top middle
    ]
    for region in corners:
        assert np.count_nonzero(region) > 20
