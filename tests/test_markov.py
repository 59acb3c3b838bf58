import io
import random
from fractions import Fraction as F

import numpy as np
import pytest

from rauzygasket.induction import AcceleratedStep, accelerated_step, make_system
from rauzygasket.markov import (
    ChartPoint,
    HoleCell,
    MarkovCell,
    TieOnBoundary,
    accelerated_step_batch,
    apply_T,
    cell_of,
    cell_vertices,
    chaos_game,
    chaos_game_exact,
    inverse_branch,
    jacobian,
    rasterize,
    read_points_binary,
    sample_sorted_simplex,
    write_points_binary,
    write_points_csv,
)


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
    assert cell_of(ChartPoint(0.45, 0.30)) == HoleCell(steps=0)


def test_cell_hole_iff_leader_below_half():
    rng = np.random.default_rng(5)
    a, b = sample_sorted_simplex(rng, 4000)
    for x, y in zip(a, b):
        cell = cell_of(ChartPoint(float(x), float(y)))
        if x < 0.5:
            assert cell == HoleCell(steps=0)
        else:
            assert not (isinstance(cell, HoleCell) and cell.steps == 0)


def test_cell_exact_boundary_raises():
    with pytest.raises(TieOnBoundary):
        cell_of(ChartPoint.from_fractions(F(2, 3), F(2, 9)))  # rem == c exactly


def test_cell_float_boundary_raises():
    # rem == b boundary of the n=1 cell, perturbed below float tolerance
    a = 0.64
    with pytest.raises(TieOnBoundary):
        cell_of(ChartPoint(a, 2 * a - 1 + 1e-16))


def test_mid_run_hole_cells():
    # leader above 1/2 but the run dies at the second win:
    # r1 = 0.26 > b = 0.2, r2 = -0.11 < 0
    assert cell_of(ChartPoint(0.63, 0.2)) == HoleCell(steps=1)


# --- forward map ------------------------------------------------------------------

def test_apply_T_worked_example():
    img, cell = apply_T(ChartPoint(0.7, 0.18))
    assert cell == MarkovCell(n=2, kind="cyc")
    # unnormalized total 2a-1 = 0.4; sorted image carries the raw-formula
    # values 0.18/0.4 and ((n+1)a-n)/0.4 = 0.25 as first and last coords
    assert img.a == pytest.approx(0.45, abs=1e-12)
    assert img.b == pytest.approx(0.30, abs=1e-12)
    assert img.c == pytest.approx(0.25, abs=1e-12)


def test_apply_T_hole():
    assert apply_T(ChartPoint(0.45, 0.30)) == HoleCell(steps=0)


def test_perron_fixed_point():
    t = 0.5436890126920764  # real root of t^3 + t^2 + t = 1
    p = ChartPoint(t, t * t)
    img, cell = apply_T(p)
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
    assert cell_vertices(1) == ((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2)), (F(3, 5), F(1, 5)))
    assert cell_vertices(2) == ((F(3, 4), F(1, 4)), (F(2, 3), F(1, 3)), (F(5, 7), F(1, 7)))


def test_cell_vertex_interiors_classify_to_n():
    rng = random.Random(3)
    for n in range(1, 11):
        verts = cell_vertices(n)
        for _ in range(20):
            w = [F(rng.randrange(1, 50)) for _ in range(3)]
            tot = sum(w)
            a = sum(wi * v[0] for wi, v in zip(w, verts)) / tot
            b = sum(wi * v[1] for wi, v in zip(w, verts)) / tot
            cell = cell_of(ChartPoint.from_fractions(a, b))
            assert cell == MarkovCell(n=n, kind="swap")


def test_branch_maps_cell_onto_full_simplex():
    # sampled onto-ness: images of hull-interior points reach both the
    # a -> 1 corner region and the balanced edge of the chart
    rng = random.Random(8)
    for n in (1, 3):
        verts = cell_vertices(n)
        images = []
        for _ in range(400):
            w = [F(rng.randrange(1, 60)) for _ in range(3)]
            tot = sum(w)
            a = sum(wi * v[0] for wi, v in zip(w, verts)) / tot
            b = sum(wi * v[1] for wi, v in zip(w, verts)) / tot
            out = apply_T(ChartPoint.from_fractions(a, b))
            assert isinstance(out, tuple)
            images.append((out[0].a, out[0].b))
        xs = [p[0] for p in images]
        assert min(xs) < 0.45 and max(xs) > 0.85


# --- inverse branches -----------------------------------------------------------------

def test_inverse_branch_worked_example():
    cell = MarkovCell(n=2, kind="cyc")
    p = inverse_branch(cell, ChartPoint(0.45, 0.30))
    assert p.a == pytest.approx(0.7, abs=1e-12)
    assert p.b == pytest.approx(0.18, abs=1e-12)


def test_inverse_branch_roundtrip_random():
    rng = np.random.default_rng(13)
    a, b = sample_sorted_simplex(rng, 10**4)
    ns = rng.integers(1, 51, size=a.size)
    kinds = rng.integers(0, 2, size=a.size)
    for x, y, n, k in zip(a, b, ns, kinds):
        cell = MarkovCell(n=int(n), kind="swap" if k == 0 else "cyc")
        p = inverse_branch(cell, ChartPoint(float(x), float(y)))
        img, got = apply_T(p)
        assert got == cell
        assert abs(img.a - x) < 1e-12 and abs(img.b - y) < 1e-12


def test_inverse_branch_images_disjoint():
    # distinct cells pull the same point to distinct preimages, and each
    # preimage classifies back to its own cell
    y = ChartPoint(0.55, 0.3)
    seen = set()
    for n in range(1, 6):
        for kind in ("swap", "cyc"):
            p = inverse_branch(MarkovCell(n=n, kind=kind), y)
            assert cell_of(p) == MarkovCell(n=n, kind=kind)
            seen.add((round(p.a, 12), round(p.b, 12)))
    assert len(seen) == 10


def test_exact_and_float_agree_away_from_boundaries():
    rng = random.Random(23)
    for a, b in random_chart_fracs(rng, 300):
        exact_p = ChartPoint.from_fractions(a, b)
        float_p = ChartPoint(float(a), float(b))
        try:
            c1 = cell_of(exact_p)
            c2 = cell_of(float_p)
        except TieOnBoundary:
            continue
        assert c1 == c2
        if isinstance(c1, HoleCell):
            continue
        i1, _ = apply_T(exact_p)
        i2, _ = apply_T(float_p)
        assert abs(i1.a - i2.a) < 1e-12 and abs(i1.b - i2.b) < 1e-12


def test_batch_step_matches_scalar_cells():
    rng = np.random.default_rng(31)
    a, b = sample_sorted_simplex(rng, 10**4)
    # deep counters: s = 1 - a down to 1e-12
    deep = 500
    for scale in (1e-3, 1e-6, 1e-9, 1e-12):
        lead = 1.0 - scale * rng.uniform(1.0, 2.0, deep)
        a = np.concatenate([a, lead])
        b = np.concatenate([b, (1.0 - lead) * rng.uniform(0.51, 0.99, deep)])
    # counter boundaries: b within 4 ulps of a - (n-1) s, where the float
    # floor of (a - b) / s often overshoots and the guard must correct it
    edge = 2000
    lead = 1.0 - np.exp(rng.uniform(np.log(1e-12), np.log(0.3), edge))
    s = 1.0 - lead
    n0 = np.floor(1.0 / s - 0.5)
    ulps = rng.integers(-4, 5, edge) * 2.0**-52
    near = (lead - (n0 - 1) * s) * (1.0 + ulps)
    valid = (near > s - near) & (near < s)
    a = np.concatenate([a, lead[valid]])
    b = np.concatenate([b, near[valid]])
    _, _, n, kind, _, alive = accelerated_step_batch(a, b)
    compared = 0
    for i in range(a.size):
        try:
            # a tolerance this small skips only exact boundary hits
            cell = cell_of(ChartPoint(float(a[i]), float(b[i])), tol=1e-300)
        except TieOnBoundary:
            continue
        if isinstance(cell, HoleCell):
            assert not alive[i] and n[i] == cell.steps + 1
        else:
            assert alive[i] and n[i] == cell.n
            assert kind[i] == (0 if cell.kind == "swap" else 1)
        compared += 1
    assert compared > 0.99 * a.size
    assert n.max() > 10**11


def test_chart_matches_interval_induction():
    rng = random.Random(29)
    for a, b in random_chart_fracs(rng, 10**4):
        s = make_system(a, b, 1 - a - b)
        acc = accelerated_step(s)
        p = ChartPoint.from_fractions(a, b)
        out = apply_T(p)
        if isinstance(acc, AcceleratedStep):
            img, cell = out
            assert cell.n == acc.n
            assert cell.kind == acc.kind
            assert img.exact()[:2] == acc.system.sorted_lengths()[:2]
        else:
            assert isinstance(out, HoleCell)
            assert out.steps == acc.substeps


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


def _reference_chain(chain, per_chain, burn_in, seed):
    """One chain of the chaos game, drawn and advanced one scalar at a
    time: its own generator, the same draw call, a plain Python update."""
    rng = np.random.default_rng((seed, chain))
    draws = rng.integers(0, 3, size=burn_in + per_chain)
    lam = [1.0 / 3.0] * 3
    out = []
    for step, w in enumerate(draws.tolist()):
        lam[w] = 1.0
        total = (lam[0] + lam[1]) + lam[2]
        lam = [x / total for x in lam]
        if step >= burn_in:
            out.append((lam[0], lam[1]))
    return np.array(out)


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 4096 * 65 + 3])
# the ids keep the names these cases ran under when they also took weights
@pytest.mark.parametrize("burn_in", [64, 0], ids=["64-None", "0-None"])
def test_chaos_game_matches_scalar_reference(count, burn_in):
    # chain j owns rows j*per_chain .. (j+1)*per_chain - 1 of the output;
    # 4096 * 65 + 3 points give 66 steps per chain, past one 64-step tile
    pts = chaos_game(count, burn_in=burn_in, seed=11)
    per_chain = -(-count // 4096)
    chains = -(-count // per_chain)
    for chain in sorted({0, 1, chains - 1}):
        if chain >= chains:
            continue
        ref = _reference_chain(chain, per_chain, burn_in, 11)
        got = pts[chain * per_chain:(chain + 1) * per_chain]
        assert got.tobytes() == ref[:len(got)].tobytes(), chain


def test_chaos_game_exact_points_survive_ten_steps():
    points = chaos_game_exact(100, seed=6)
    for lam in points:
        a, b, c = sorted(lam, reverse=True)
        p = ChartPoint.from_fractions(a, b)
        for _ in range(10):
            out = apply_T(p)
            assert isinstance(out, tuple), "gasket-approximant died too early"
            p = out[0]


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


def test_points_csv_format():
    pts = np.array([[0.5, 0.25]])
    buf = io.StringIO()
    write_points_csv(pts, buf, provenance={"seed": 0})
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "a,b"
    assert lines[2] == "0.5,0.25"


def test_rasterize_single_point():
    img = rasterize(np.array([[0.4, 0.3]]), 64, 64)
    assert img.shape == (64, 64)
    assert np.count_nonzero(img) == 1


def _reference_raster(points, width, height):
    """The raster counted point by point with ``np.add.at``."""
    lam1, lam2 = points[:, 0], points[:, 1]
    lam3 = 1.0 - lam1 - lam2
    x = lam2 + 0.5 * lam3
    y = (np.sqrt(3.0) / 2.0) * lam3
    xs = np.clip((x * (width - 1)).astype(np.int64), 0, width - 1)
    ys = np.clip((y / (np.sqrt(3.0) / 2.0) * (height - 1)).astype(np.int64), 0, height - 1)
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (height - 1 - ys, xs), 1)
    dens = np.log1p(counts)
    dens = dens / dens.max()
    return (dens * 255.0 + 0.5).astype(np.uint8)


@pytest.mark.parametrize("width,height", [(96, 64), (64, 96), (64, 64)])
def test_rasterize_matches_add_at_reference(width, height):
    # more than 2**20 points, so the count crosses a chunk boundary, plus
    # the vertices, edge points and points outside the simplex (clipped)
    rng = np.random.default_rng(5)
    special = np.array([
        [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
        [0.5, 0.5], [0.5, 0.0], [0.0, 0.5], [0.25, 0.75], [0.0, 0.999],
        [-0.5, 0.2], [1.5, -0.3], [0.7, 0.7], [-1.0, -1.0], [2.0, 2.0],
    ])
    inside = chaos_game((1 << 20) + 1000, seed=3)
    outside = rng.uniform(-0.5, 1.5, size=(5000, 2))
    pts = np.concatenate([special, inside[:1 << 19], special, inside[1 << 19:], outside])
    img = rasterize(pts, width, height)
    assert img.shape == (height, width)
    assert img.tobytes() == _reference_raster(pts, width, height).tobytes()
    one = np.array([[0.4, 0.3]])
    ref = _reference_raster(one, width, height)
    assert rasterize(one, width, height).tobytes() == ref.tobytes()


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
