import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from test_graph import elementary_path
from test_markov import _FixedRows

from rauzygasket.graph import (
    START,
    RauzyPath,
    apply_kind,
    cocycle_of,
    path_from_blocks,
)
from rauzygasket.induction import CYC, KINDS, SWAP, Hole, _mat_vec, accelerated_matrix
from rauzygasket.markov import (
    ChartPoint,
    MarkovCell,
    TieOnBoundary,
    _counter,
    _step,
    accelerated_step_batch,
    branch_preimage,
    cell_of,
    cylinder_vertices,
    sample_sorted_simplex,
)
from rauzygasket.measures import (
    NAMED_LOOPS,
    NoReturn,
    OutsideCylinder,
    Q_ONES,
    ReturnRecord,
    _BALANCE_MAX_STEPS,
    _TAG_BALANCE,
    _TAG_KERCKHOFF,
    _TAG_TAIL,
    _as_blocks,
    _blocks,
    _first_returns,
    _in_section,
    _kerckhoff_hits,
    _section_box,
    _section_hits,
    _section_sides,
    block_child,
    cylinder_measure,
    dual_update,
    elementary_children,
    first_return,
    fit_tail,
    hole_mass_at,
    kerckhoff_exact_probability,
    loop_ccc,
    loop_cccss,
    mc_balance,
    mc_kerckhoff,
    path_probability,
    return_roofs,
    roof,
    roof_tail,
    running_mass,
    sample_section,
    section_triangle,
    validate_loop,
)


# --- exact polygon-area oracle (Sutherland-Hodgman over Fractions) -----------

CHART = [(F(1), F(0)), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 3))]


def clip(poly, alpha, beta, gamma):
    """Keep the part of the polygon with alpha*x + beta*y <= gamma."""
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        fp = alpha * p[0] + beta * p[1] - gamma
        fq = alpha * q[0] + beta * q[1] - gamma
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def area2(poly):
    if len(poly) < 3:
        return F(0)
    s = F(0)
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s)


def chart_fraction(halfplanes):
    """Exact chart-normalized area of the region cut out by halfplanes."""
    poly = CHART
    for alpha, beta, gamma in halfplanes:
        poly = clip(poly, alpha, beta, gamma)
    return area2(poly) / area2(CHART)


def test_oracle_survivor_depth1_is_three_quarters():
    # {a >= 1/2} inside the sorted chart simplex
    assert chart_fraction([(-1, 0, F(-1, 2))]) == F(3, 4)


@pytest.mark.parametrize(
    "n,kind,expected",
    [
        # swap cell: (n+1)a - n <= b and c <= (n+1)a - n
        (1, "swap", F(1, 5)),
        (2, "swap", F(1, 14)),
        (3, "swap", F(1, 30)),
        # cyc cell: 0 <= (n+1)a - n <= c
        (1, "cyc", F(3, 20)),
        (2, "cyc", F(1, 21)),
        (3, "cyc", F(1, 48)),
    ],
)
def test_branch_masses_match_polygon_areas(n, kind, expected):
    if kind == "swap":
        halfplanes = [
            ((n + 1), -1, F(n)),          # (n+1)a - n <= b
            (-(n + 2), -1, F(-(n + 1))),  # c <= (n+1)a - n
        ]
    else:
        halfplanes = [
            (-(n + 1), 0, F(-n)),         # (n+1)a - n >= 0
            ((n + 2), 1, F(n + 1)),       # (n+1)a - n <= c
        ]
    assert chart_fraction(halfplanes) == expected
    mass, _, _ = block_child(Q_ONES, START, n, kind)
    assert mass == expected


@pytest.mark.parametrize("k,expected", [(1, F(1, 4)), (2, F(1, 15))])
def test_hole_masses_match_polygon_areas(k, expected):
    if k == 1:
        halfplanes = [(1, 0, F(1, 2))]  # a <= 1/2
    else:
        # reached win k-1 (b <= (k-1+1)a - (k-1)) hmm: b < ka-(k-1); died
        # before the k-th win: a <= k/(k+1)
        halfplanes = [(-k, 1, F(-(k - 1))), (1, 0, F(k, k + 1))]
    assert chart_fraction(halfplanes) == expected
    assert hole_mass_at(Q_ONES, START, k) == expected


def test_running_mass_closed_form():
    # still-running region after n wins: M1^n applied to the sorted cone
    for n in range(0, 8):
        assert running_mass(Q_ONES, START, n) == F(6, (n + 2) * (2 * n + 3))


def test_level_conservation_identity():
    q, order = Q_ONES, START
    total = F(0)
    for n in range(1, 30):
        total += block_child(q, order, n, "swap")[0]
        total += block_child(q, order, n, "cyc")[0]
        total += hole_mass_at(q, order, n)
    assert total + running_mass(q, order, 29) == 1


def test_elementary_children_sum_with_hole():
    children, hole = elementary_children(Q_ONES, START)
    assert children["stay"][0] == F(2, 5)
    assert children["swap"][0] == F(1, 5)
    assert children["cyc"][0] == F(3, 20)
    assert hole == F(1, 4)


# --- path probability ------------------------------------------------------------

def test_path_probability_empty():
    assert path_probability((1, 1, 1), RauzyPath(start=START)) == 1


def test_path_probability_single_step():
    p = elementary_path(START, ["swap"])
    assert path_probability((1, 1, 1), p) == F(1, 4)
    assert path_probability((1, 2, 3), p) == F(1, 2)


def test_path_probability_monte_carlo_oracle():
    # the single-step cone {l1 > l2 + l3} has simplex fraction 1/4
    rng = np.random.default_rng(42)
    u = rng.random((200000, 2))
    u.sort(axis=1)
    lam = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1 - u[:, 1]], axis=1)
    freq = np.mean(lam[:, 0] > lam[:, 1] + lam[:, 2])
    assert abs(freq - 0.25) < 0.01


def test_path_probability_column_sum_identity():
    rng = random.Random(31)
    kinds = ("stay", "swap", "cyc")
    for _ in range(100):
        path = elementary_path(START, [rng.choice(kinds) for _ in range(6)])
        m = cocycle_of(path)
        expected = F(1)
        for c in map(sum, zip(*m)):
            expected /= c
        assert path_probability((1, 1, 1), path) == expected


def test_path_probability_multiplicative():
    rng = random.Random(37)
    kinds = ("stay", "swap", "cyc")
    for _ in range(100):
        seq = [rng.choice(kinds) for _ in range(8)]
        cut = rng.randrange(9)
        q = tuple(F(rng.randrange(1, 9)) for _ in range(3))
        p = elementary_path(START, seq)
        p1 = elementary_path(START, seq[:cut])
        p2 = elementary_path(p1.end, seq[cut:])
        q_mid = q
        for st in p1.steps:
            q_mid = dual_update(q_mid, st.winner, st.n)
        assert path_probability(q, p) == path_probability(q, p1) * path_probability(q_mid, p2)


def _cylinder_triangle(path):
    """Exact chart triangle of a path cylinder: forward cocycle applied to
    the end-state cone rays (independent of the cone-measure formulas)."""
    m = cocycle_of(path)
    end = path.end
    verts = []
    for k in (1, 2, 3):
        ray = [F(0)] * 3
        for letter in end[:k]:
            ray[letter - 1] = F(1)
        v = _mat_vec(m, ray)
        t = v[0] + v[1] + v[2]
        verts.append((v[0] / t, v[1] / t))
    return verts


def test_cylinder_measure_equals_triangle_area_depth2():
    # every depth-2 elementary cylinder is an open triangle in the chart;
    # its shoelace area must reproduce the cone-measure value exactly
    total = F(0)
    for kinds in itertools.product(KINDS, repeat=2):
        path = elementary_path(START, kinds)
        area_fraction = area2(_cylinder_triangle(path)) / area2(CHART)
        assert area_fraction == cylinder_measure(path)
        total += area_fraction
    assert total == F(7, 12)  # the depth-2 elementary survivor mass


def test_survivor_mass_equals_total_triangle_area_depth3():
    from rauzygasket.dimension import survivor_mass

    total = sum(
        (area2(_cylinder_triangle(elementary_path(START, kinds)))
         for kinds in itertools.product(KINDS, repeat=3)),
        F(0),
    ) / area2(CHART)
    lo, hi = survivor_mass(3)
    assert lo == hi == total


def test_cylinder_vertices_match_cocycle_rays_and_cone_measure():
    # two independent routes to a block word's cylinder: the letter
    # cocycle on the end state's cone rays, and the cone-measure mass
    rng = random.Random(29)
    for _ in range(300):
        blocks = [(rng.randint(1, 50), rng.choice((SWAP, CYC)))
                  for _ in range(rng.randint(1, 3))]
        path = path_from_blocks(START, blocks)
        verts = cylinder_vertices(blocks)
        assert verts == tuple(_cylinder_triangle(path))
        assert area2(verts) / area2(CHART) == cylinder_measure(path)
    assert cylinder_vertices([]) == tuple(CHART)


def test_depth2_cylinder_measure_monte_carlo():
    # exact mass of the two-block cylinder (1, swap)(2, cyc) against a
    # direct frequency count of uniform chart samples
    path = path_from_blocks(START, [(1, "swap"), (2, "cyc")])
    exact = cylinder_measure(path)
    rng = np.random.default_rng(77)
    count = 400000
    a, b = sample_sorted_simplex(rng, count)
    a2, b2, n1, k1, _, alive1 = accelerated_step_batch(a, b)
    first = alive1 & (n1 == 1) & (k1 == 0)
    a3, b3, n2, k2, _, alive2 = accelerated_step_batch(a2[first], b2[first])
    hits = int(np.count_nonzero(alive2 & (n2 == 2) & (k2 == 1)))
    freq = hits / count
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / count)
    assert abs(freq - float(exact)) < 5 * sigma


def test_cylinder_measure_examples():
    assert cylinder_measure(RauzyPath(start=START)) == 1
    assert cylinder_measure(path_from_blocks(START, [(1, "swap")])) == F(1, 5)
    assert cylinder_measure(path_from_blocks(START, [(1, "cyc")])) == F(3, 20)
    # strictly decreasing under extension
    p1 = path_from_blocks(START, [(1, "cyc")])
    p2 = path_from_blocks(START, [(1, "cyc"), (1, "cyc")])
    assert cylinder_measure(p2) < cylinder_measure(p1)


# --- Kerckhoff bound ----------------------------------------------------------------

def test_kerckhoff_exact_oracle_values():
    assert kerckhoff_exact_probability(2.0) == F(3, 9)
    assert kerckhoff_exact_probability(5.0) == F(3, 36)
    assert kerckhoff_exact_probability(10.0) == F(3, 121)
    assert kerckhoff_exact_probability(2.5) == F(3, 9)


@pytest.mark.parametrize("t, expected", [
    (-1.0, F(1)), (0.5, F(1)), (1.0, F(3, 4)), (1.0 + 1e-9, F(3, 4)), (2.0, F(3, 9)),
    (2.5, F(3, 9)), (10.0, F(3, 121)), (1e300, F(3, (int(1e300) + 1) ** 2)),
    # the ratio 2^53 + 3 is the first to exceed t: t - 1 rounds in floats
    (2.0**53 + 2, F(3, (2**53 + 3) ** 2)),
])
def test_kerckhoff_exact_oracle_finite_thresholds(t, expected):
    assert kerckhoff_exact_probability(t) == expected


def test_kerckhoff_exact_oracle_rejects_nan_threshold():
    with pytest.raises(ValueError, match="t = nan"):
        kerckhoff_exact_probability(math.nan)


@pytest.mark.parametrize("t, expected", [(math.inf, F(0)), (-math.inf, F(1))])
def test_kerckhoff_exact_oracle_infinite_threshold(t, expected):
    assert kerckhoff_exact_probability(t) == expected
    assert mc_kerckhoff(t, samples=100) == expected


@pytest.mark.parametrize("samples", [0, -1])
def test_monte_carlo_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match=f"samples = {samples} "):
        mc_kerckhoff(2.0, samples=samples)
    with pytest.raises(ValueError, match=f"samples = {samples} "):
        mc_balance([2.0], samples=samples)


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
def test_kerckhoff_frequency_matches_exact(t):
    samples = 10**5
    freq = mc_kerckhoff(t, samples=samples, seed=3)
    exact = float(kerckhoff_exact_probability(t))
    sigma = math.sqrt(exact * (1 - exact) / samples)
    assert abs(freq - exact) < 5 * sigma
    assert freq <= 1.0 / t + 3 * math.sqrt((1 / t) * (1 - 1 / t) / samples)


def test_kerckhoff_vacuous_bound():
    freq = mc_kerckhoff(1.0 + 1e-9, samples=10**4, seed=5)
    assert freq <= 1.0


def test_kerckhoff_worker_independent():
    a = mc_kerckhoff(5.0, samples=3 * (1 << 16) + 5, seed=8, workers=1)
    b = mc_kerckhoff(5.0, samples=3 * (1 << 16) + 5, seed=8, workers=8)
    assert a == b


def _kerckhoff_reference_hits(a, b, t):
    """The Kerckhoff hits among the chart points (a, b) the long way: the
    counter, the remainder and the wins of every sample, then
    ``1.0 + wins > t``."""
    s = 1.0 - a
    n = _counter(a, b, s)[0]
    rem = a - n * s
    wins = np.where(rem > 0, n, n - 1)
    return int(np.count_nonzero(1.0 + wins > t))


def _kerckhoff_reference(t, samples, seed):
    """``mc_kerckhoff`` block by block the long way."""
    hits = 0
    for i, size in _blocks(samples):
        a, b = sample_sorted_simplex(np.random.default_rng((seed, _TAG_KERCKHOFF, i)), size)
        hits += _kerckhoff_reference_hits(a, b, t)
    return hits / samples


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("t", [0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0, 2.5, 3.0, 10.0, 100.0])
def test_kerckhoff_fewest_wins_matches_counter_reference(t, seed):
    samples = 3 * (1 << 16) + 5  # the last block is partial
    assert mc_kerckhoff(t, samples=samples, seed=seed) == _kerckhoff_reference(t, samples, seed)


def test_kerckhoff_rejects_nan_threshold():
    with pytest.raises(ValueError, match="t = nan"):
        mc_kerckhoff(math.nan, samples=100)


@pytest.mark.parametrize("t, expected", [(math.inf, 0.0), (-math.inf, 1.0)])
def test_kerckhoff_infinite_threshold(t, expected):
    assert mc_kerckhoff(t, samples=100) == expected
    assert _kerckhoff_reference(t, 100, 0) == expected


@pytest.mark.parametrize("k", [2, 5, 10, 100, 2**53])
def test_kerckhoff_u0_window_skips_no_hit(k):
    # rows with u0 one float step either side of the window ends 1 - theta
    # and theta, and of k / (k + 1), where the event itself starts, each
    # with u1 across [0, 1); plus random rows, so that some rows hit
    theta = k / (k + 1) - 1e-9
    edges = [1 - theta, theta, k / (k + 1), 1 / (k + 1)]
    u0 = [x for e in edges for x in (math.nextafter(e, 0), e, math.nextafter(e, 1))]
    u1 = np.concatenate([np.linspace(0, 1, 97)[:-1], u0, [1 - x for x in u0 if x > 0]])
    rows = np.array([(x, y) for x in u0 for y in u1 if y < 1])
    rows = np.concatenate([rows, np.random.default_rng(k % 1000).random((4096, 2))])
    # u0 below 2^-53 and u1 = 0 give a = 1 and s = 0, where the reference's
    # counter is inf and a - n s is NaN
    with np.errstate(invalid="ignore"):
        want = _kerckhoff_reference_hits(*sample_sorted_simplex(_FixedRows(rows), len(rows)),
                                         float(k))
    assert _kerckhoff_hits(rows, k) == want
    if k <= 100:
        assert want > 0


# --- balance ---------------------------------------------------------------------------

def test_balance_monotone_and_witness():
    grid = [1.5, 2.0, 5.0, 20.0, 100.0, 10000.0]
    rows = mc_balance(grid, samples=20000, seed=4)
    probs = [r["probability"] for r in rows]
    assert probs == sorted(probs)
    assert probs[0] < 0.05  # C barely above 1: nearly empty event
    assert any(r["probability"] > 1.0 / r["C"] for r in rows)


def test_balance_worker_independent():
    grid = [1.5, 2.0, 5.0, 10.0, 100.0, math.inf]
    samples = 3 * (1 << 16) + 5  # the last block is partial
    rows = mc_balance(grid, samples=samples, seed=8, workers=1)
    assert rows == mc_balance(grid, samples=samples, seed=8, workers=8)
    assert rows[-1]["completed"] + rows[-1]["unresolved"] == samples


def _balance_reference(grid, samples, seed):
    """``mc_balance`` rows of one block, one sample at a time: each step
    runs ``accelerated_step_batch`` on 1-element arrays, the weights stay
    in letter coordinates (``dual_update``) and the ordering follows
    ``apply_kind`` from START."""
    a, b = sample_sorted_simplex(np.random.default_rng((seed, _TAG_BALANCE, 0)), samples)
    done = []
    for x, y in zip(a, b):
        x, y = np.array([x]), np.array([y])
        q, order, won = (1.0, 1.0, 1.0), START, set()
        for _ in range(_BALANCE_MAX_STEPS):
            x, y, n, kind, _, alive = accelerated_step_batch(x, y)
            if not alive[0]:
                break
            q = dual_update(q, order[0], int(n[0]))
            won.add(order[0])
            order = apply_kind(order, CYC if kind[0] else SWAP)
            if len(won) == 3:
                done.append((max(q), min(q)))
                break
    return [
        {
            "C": c,
            "probability": sum(hi < c * min(lo, 1.0) for hi, lo in done) / samples,
            "target": 1.0 / c,
            "completed": len(done),
            "unresolved": samples - len(done),
        }
        for c in grid
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_balance_matches_per_sample_reference(seed):
    grid = [1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 10000.0]
    rows = mc_balance(grid, samples=3000, seed=seed)
    assert rows == _balance_reference(grid, 3000, seed)
    assert rows[0]["completed"] > 300


def test_balance_of_blocks_the_first_drop_empties():
    """A block of one point with a < 1/2 is empty before its first step:
    that point is unresolved, as when it died in the hole at step 1."""
    grid = [2.0, 100.0, math.inf]
    first = {seed: sample_sorted_simplex(np.random.default_rng((seed, _TAG_BALANCE, 0)), 1)[0][0]
             for seed in range(12)}
    assert min(first.values()) < 0.5 <= max(first.values())
    for seed, a in first.items():
        rows = mc_balance(grid, samples=1, seed=seed)
        assert rows == _balance_reference(grid, 1, seed)
        if a < 0.5:
            assert all(r["probability"] == 0 and r["completed"] == 0 and r["unresolved"] == 1
                       for r in rows)
    # the same for a last block of one point
    seed = next(s for s in range(8)
                if sample_sorted_simplex(np.random.default_rng((s, _TAG_BALANCE, 1)), 1)[0][0] < 0.5)
    rows = mc_balance(grid, samples=(1 << 16) + 1, seed=seed, workers=2)
    assert rows[-1]["completed"] + rows[-1]["unresolved"] == (1 << 16) + 1


def test_balance_rejects_c_below_one():
    with pytest.raises(ValueError):
        mc_balance([0.5], samples=100, seed=0)
    # NaN fails every comparison, so it must be rejected, not read as "no hit"
    with pytest.raises(ValueError, match="C = nan"):
        mc_balance([2.0, math.nan], samples=100, seed=0)
    # C = inf is the limit: every completed path is balanced
    row = mc_balance([math.inf], samples=1000, seed=0)[0]
    assert row["probability"] == row["completed"] / 1000 and row["target"] == 0.0


# --- roof function ------------------------------------------------------------------------

def test_roof_worked_example():
    p = ChartPoint(F(7, 10), F(9, 50)).validate()
    assert _step(p)[:2] == (MarkovCell(n=2, kind=CYC), F(2, 5))
    assert roof(p, [(2, "cyc")]) == pytest.approx(-math.log(0.4), rel=1e-15)


def test_roof_empty_path_is_zero():
    p = ChartPoint(F(7, 10), F(9, 50)).validate()
    assert roof(p, []) == 0.0


def test_roof_outside_cylinder():
    for p in (ChartPoint(F(7, 10), F(9, 50)).validate(), ChartPoint(0.7, 0.18)):
        with pytest.raises(OutsideCylinder):
            roof(p, [(3, "cyc")])
        with pytest.raises(OutsideCylinder):
            roof(p, [(2, "swap")])


def test_roof_raises_tie_where_cell_of_does():
    # a = 11/20, b = 7/20: one win leaves rem = 2a - 1 = 1/10 = c, the
    # boundary between the swap and the cyc ending of the counter-1 cell
    exact = ChartPoint(F(11, 20), F(7, 20)).validate()
    floats = [ChartPoint(0.55, 0.35), ChartPoint(0.55 + 1e-15, 0.35),
              ChartPoint(0.55, 0.35 - 1e-15), ChartPoint(0.55 - 1e-15, 0.35 + 1e-15)]
    for p in [exact] + floats:
        with pytest.raises(TieOnBoundary):
            cell_of(p)
        for kind in (SWAP, CYC):
            with pytest.raises(TieOnBoundary):
                roof(p, [(1, kind)])


def _solve(m, v):
    """x with m . x == v, by exact Fraction Gauss-Jordan elimination."""
    rows = [[F(x) for x in row] + [F(y)] for row, y in zip(m, v)]
    for col in range(3):
        pivot = next(r for r in range(col, 3) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(3):
            if r != col:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[3] for row in rows)


def test_roof_scale_matches_matrix_solve():
    # independent route: the l1 norm of the de-renormalized lengths, by an
    # exact solve of the block matrix, is the step's exact total D
    rng = random.Random(41)
    for _ in range(200):
        denom = 10**6
        cuts = sorted(rng.randrange(1, denom) for _ in range(2))
        a, b, c = sorted(
            (F(cuts[0], denom), F(cuts[1] - cuts[0], denom), F(denom - cuts[1], denom)),
            reverse=True,
        )
        if a == b or b == c or a <= F(1, 2):
            continue
        cell, d, _ = _step(ChartPoint(a, b).validate())
        if isinstance(cell, Hole):
            continue
        de_renorm = _solve(accelerated_matrix(cell.n, cell.kind), (a, b, c))
        assert all(x > 0 for x in de_renorm)
        assert sum(de_renorm) == d


def test_roof_additive_along_paths():
    z = ChartPoint(F(51, 100), F(8, 25)).validate()
    mid = ChartPoint(*branch_preimage(1, "swap", *z.coords())).validate()
    p = ChartPoint(*branch_preimage(2, "cyc", *mid.coords())).validate()
    blocks = [(2, "cyc"), (1, "swap")]
    img = _step(p)[2].validate()
    assert roof(p, blocks) == pytest.approx(
        roof(p, blocks[:1]) + roof(img, blocks[1:]), rel=1e-12
    )


def test_roof_of_a_long_exact_path_is_the_per_block_sum():
    # the exact product of 1500 block totals is far below the smallest
    # float, so it has no float log; the roof sums the block logs instead
    blocks = [(1, CYC)] * 1500
    p = ChartPoint(F(51, 100), F(8, 25)).validate()
    for n, kind in blocks:
        p = ChartPoint(*branch_preimage(n, kind, *p.coords())).validate()
    total, cur = 0.0, p
    for block in blocks:
        total += roof(cur, [block])
        cur = _step(cur)[2]
    value = roof(p, blocks)
    assert math.isfinite(value) and value == total
    assert value == pytest.approx(914.1, abs=0.05)


# --- sections and first returns ---------------------------------------------------------------

def test_named_loops_are_valid():
    for name, factory in NAMED_LOOPS.items():
        loop = factory()
        validate_loop(loop)


def test_section_triangle_ccc():
    v = section_triangle(loop_ccc())
    assert v == (
        (F(4, 7), F(2, 7)),
        (F(7, 13), F(4, 13)),
        (F(9, 17), F(5, 17)),
    )


def test_section_samples_live_in_cylinder():
    loop = loop_ccc()
    rng = np.random.default_rng(12)
    a, b = sample_section(loop, rng, 500)
    for x, y in zip(a, b):
        p = ChartPoint(float(x), float(y))
        for n_exp, kind_exp in [(1, "cyc")] * 3:
            cell, _, p = _step(p)
            assert (cell.n, cell.kind) == (n_exp, kind_exp)
            p.validate()


def test_first_return_from_double_loop_cylinder():
    loop = loop_cccss()  # no self-overlap: the shortest return is the loop
    blocks = [(st.n, st.kind) for st in loop.steps]
    z = ChartPoint(F(51, 100), F(8, 25)).validate()
    p = z
    for n, kind in reversed(blocks * 2):
        p = ChartPoint(*branch_preimage(n, kind, *p.coords())).validate()
    record = first_return(p, loop)
    assert isinstance(record, ReturnRecord)
    assert [(st.n, st.kind) for st in record.path.steps] == blocks
    assert record.roof_value > 5 * math.log(9 / 8)  # five expanding blocks
    # return point: forward iteration over the recorded path
    cur = ChartPoint(float(p.a), float(p.b))
    for _ in range(len(record.path.steps)):
        cur = _step(cur)[2].validate()
    assert abs(cur.a - record.return_point.a) < 1e-10
    assert abs(cur.b - record.return_point.b) < 1e-10


def test_first_return_rejects_outsiders():
    loop = loop_cccss()
    with pytest.raises(OutsideCylinder):
        first_return(ChartPoint(0.7, 0.18), loop)


def test_first_return_no_return_cap():
    loop = loop_ccc()
    rng = np.random.default_rng(3)
    a, b = sample_section(loop, rng, 40)
    hit_noreturn = False
    for x, y in zip(a, b):
        try:
            out = first_return(ChartPoint(float(x), float(y)), loop, cap=2)
        except OutsideCylinder:
            continue
        if isinstance(out, NoReturn):
            assert out.depth == 2
            hit_noreturn = True
    assert hit_noreturn


def test_roof_value_bounded_below_by_block_count():
    # every block expands by at least (4/3)^3, i.e. contributes more than
    # log(4/3) to the roof
    loop = loop_ccc()
    rng = np.random.default_rng(14)
    a, b = sample_section(loop, rng, 60)
    returned = 0
    for x, y in zip(a, b):
        try:
            out = first_return(ChartPoint(float(x), float(y)), loop, cap=500)
        except OutsideCylinder:
            continue
        if isinstance(out, ReturnRecord):
            returned += 1
            assert out.roof_value >= len(out.path.steps) * math.log(4 / 3)
    assert returned > 0


def _random_exact_points(rng, count, box):
    """Exact sorted chart points drawn on a 10^6 grid of the box
    ((a_lo, a_hi), (b_lo, b_hi)), dropping those outside the chart."""
    (a_lo, a_hi), (b_lo, b_hi) = box
    out = []
    while len(out) < count:
        a = a_lo + (a_hi - a_lo) * F(rng.randrange(10**6), 10**6)
        b = b_lo + (b_hi - b_lo) * F(rng.randrange(10**6), 10**6)
        if a > b > 1 - a - b > 0:
            out.append(ChartPoint(a, b))
    return out


def _starts_with_loop(p, blocks):
    for block in blocks:
        cell, _, p = _step(p)
        if isinstance(cell, Hole) or (cell.n, cell.kind) != block:
            return False
    return True


@pytest.mark.parametrize("loop", [loop_ccc(), loop_cccss()], ids=["ccc", "cccss"])
def test_section_triangle_test_is_the_loop_cylinder(loop):
    blocks = _as_blocks(loop)
    verts = section_triangle(loop)
    sides = _section_sides(loop)
    for u, v, w in sides:
        values = [u * x + v * y + w for x, y in verts]
        assert values.count(0) == 2 and max(values) > 0
    # exact points around the triangle: inside exactly when the first L
    # blocks are the loop's
    rng = random.Random(5)
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    pad_a, pad_b = max(xs) - min(xs), max(ys) - min(ys)
    box = ((min(xs) - pad_a, max(xs) + pad_a), (min(ys) - pad_b, max(ys) + pad_b))
    seen = {True: 0, False: 0}
    for p in _random_exact_points(rng, 3000, box):
        try:
            expected = _starts_with_loop(p, blocks)
        except TieOnBoundary:
            continue
        assert _in_section(sides, p.a, p.b) == expected, p
        seen[expected] += 1
    assert min(seen.values()) > 100
    # points pulled back through the loop are inside
    for z in _random_exact_points(rng, 300, ((F(1, 3), F(1)), (F(0), F(1, 2)))):
        x, y = z.a, z.b
        for n, kind in reversed(blocks):
            x, y = branch_preimage(n, kind, x, y, 1 - x - y)
        assert _in_section(sides, x, y)


def test_first_return_of_ccc_can_be_one_block():
    # ccc overlaps its shifts: a point of the cylinder of four cyc blocks
    # is back in the ccc cylinder after one block
    p = ChartPoint(F(51, 100), F(8, 25)).validate()
    for _ in range(4):
        p = ChartPoint(*branch_preimage(1, CYC, *p.coords())).validate()
    record = first_return(p, loop_ccc())
    assert [(st.n, st.kind) for st in record.path.steps] == [(1, CYC)]
    index, roofs, lost = _first_returns(np.array([float(p.a)]), np.array([float(p.b)]),
                                        loop_ccc(), 10)
    assert index.tolist() == [0] and lost == 0
    assert roofs[0] == pytest.approx(record.roof_value, rel=1e-12)


def _first_returns_reference(a, b, loop, cap):
    """``_first_returns`` with no shortcut: the step's arithmetic with each
    known n for the first L steps, out of place, the triangle test on every point after every
    step, and no point dropped before its step is a hole: each later step
    runs ``accelerated_step_batch`` on every running point."""
    blocks = _as_blocks(loop)
    sides = [tuple(map(float, side)) for side in _section_sides(loop)]
    inside = np.ones(a.size, dtype=bool)
    returned = np.zeros(a.size, dtype=bool)
    cum = np.zeros(a.size)
    early = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for m, (n, kind) in enumerate(blocks, start=1):
            s = 1 - a
            c, rem, d = s - b, a - n * s, a - (n - 1) * s
            inside &= (rem < b) & (rem > 0) & ((rem <= c) if kind == CYC else (rem > c))
            if n > 1:
                inside &= d >= b
            a, b = b / d, (c if kind == CYC else rem) / d
            cum = cum - np.log(d)
            if m <= cap:
                ret = _in_section(sides, a, b) & ~returned
                returned |= ret
                early.append((np.flatnonzero(ret), cum[ret]))
    index = [i[inside[i]] for i, _ in early]
    roofs = [r[inside[i]] for i, r in early]
    running = np.flatnonzero(inside & ~returned)
    lost = int(np.count_nonzero(~inside))
    a, b, cum = a[running], b[running], cum[running]
    for _ in range(len(blocks) + 1, cap + 1):
        a, b, _, _, d, alive = accelerated_step_batch(a, b)
        cum = cum - np.log(d)
        ret = _in_section(sides, a, b) & alive
        index.append(running[ret])
        roofs.append(cum[ret])
        lost += int(np.count_nonzero(~alive))
        keep = alive & ~ret
        a, b, cum, running = a[keep], b[keep], cum[keep], running[keep]
    lost += a.size
    return np.concatenate([[]] + index).astype(np.int64), np.concatenate([[]] + roofs), lost


@pytest.mark.parametrize("loop", [loop_ccc(), loop_cccss()], ids=["ccc", "cccss"])
def test_first_returns_match_the_walk_without_shortcuts(loop):
    # the known-branch steps in place, the box before the triangle test and
    # the drop of a < 1/2 change no index, roof bit or loss count
    a, b = sample_section(loop, np.random.default_rng((7, _TAG_TAIL, 0)), 1 << 16)
    a0, b0 = a.copy(), b.copy()
    for cap in (1, 2, 3, 4, 7, 40, 10**4):
        index, roofs, lost = _first_returns(a, b, loop, cap)
        want_index, want_roofs, want_lost = _first_returns_reference(a, b, loop, cap)
        assert np.array_equal(index, want_index) and lost == want_lost, cap
        assert roofs.tobytes() == want_roofs.tobytes(), cap
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()
    assert index.size > 0


@pytest.mark.parametrize("cap", [2, 40])
@pytest.mark.parametrize("loop", [loop_ccc(), loop_cccss()], ids=["ccc", "cccss"])
def test_vectorized_first_returns_match_scalar_first_return(loop, cap):
    rng = np.random.default_rng(17)
    blocks = _as_blocks(loop)
    a, b = sample_section(loop, rng, 2000)
    # plus points of the loop-twice cylinder, whose first return is at
    # most one loop long
    x, y = sample_sorted_simplex(rng, 500)
    for n, kind in reversed(blocks * 2):
        x, y = branch_preimage(n, kind, x, y, 1.0 - x - y)
    # and points that take (2, swap) before the loop twice: outside the
    # cylinder, however soon the loop follows
    u, v = branch_preimage(2, SWAP, x, y, 1.0 - x - y)
    a, b = np.concatenate([a, x, u]), np.concatenate([b, y, v])
    index, roofs, lost = _first_returns(a, b, loop, cap)
    assert index.size + lost == a.size and np.unique(index).size == index.size
    returned = dict(zip(index.tolist(), roofs.tolist()))
    if cap >= len(blocks):
        assert set(range(2000, 2500)) <= set(returned)
    assert not set(range(2500, 3000)) & set(returned)
    outcomes = {ReturnRecord: 0, NoReturn: 0, OutsideCylinder: 0}
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        try:
            out = first_return(ChartPoint(x, y), loop, cap=cap)
        except OutsideCylinder as exc:
            out = exc
        outcomes[type(out)] += 1
        if i in returned:
            assert isinstance(out, ReturnRecord), i
            # both sum the same -log D in the same order; only the logs
            # of numpy and math may differ in the last bit
            assert abs(returned[i] - out.roof_value) <= 2 * np.finfo(float).eps * abs(
                out.roof_value), i
        else:
            assert isinstance(out, (NoReturn, OutsideCylinder)), i
    assert outcomes[OutsideCylinder] > 0
    assert outcomes[ReturnRecord if cap >= len(blocks) else NoReturn] > 0


@pytest.mark.parametrize("loop", [loop_ccc(), loop_cccss()], ids=["ccc", "cccss"])
def test_section_hits_equal_triangle_test_at_sides_and_vertices(loop):
    # points within 1e-12 of every side and vertex, and a few float steps
    # from each vertex, plus random chart points
    rng = np.random.default_rng(23)
    sides = [tuple(map(float, side)) for side in _section_sides(loop)]
    verts = np.array([(float(x), float(y)) for x, y in section_triangle(loop)])
    pts = [rng.random((2000, 2))]
    for j in range(3):
        p, q = verts[j], verts[j - 1]
        t = np.concatenate([[0.0, 1.0], rng.random(3000)])[:, None]
        pts.append(p + t * (q - p) + rng.uniform(-1e-12, 1e-12, (t.size, 2)))
        steps = np.arange(-4, 5) * np.spacing(p)[:, None]
        pts.append(np.stack(np.meshgrid(p[0] + steps[0], p[1] + steps[1]), -1).reshape(-1, 2))
    a, b = np.concatenate(pts).T.copy()
    want = np.flatnonzero(_in_section(sides, a, b))
    assert np.array_equal(_section_hits(sides, _section_box(sides), a, b), want)
    assert 0 < want.size < a.size - 2000
    # the box is no narrower than the triangle: its sides' midpoints are out
    a_lo, a_hi, b_lo, b_hi = _section_box(sides)
    a_mid, b_mid = 0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi)
    assert not _in_section(sides, np.array([a_lo, a_hi, a_mid, a_mid]),
                           np.array([b_mid, b_mid, b_lo, b_hi])).any()


# --- tails -------------------------------------------------------------------------------------

def test_return_roofs_deterministic_across_workers():
    loop = loop_ccc()
    r1, d1, l1 = return_roofs(loop, 3000, seed=21, workers=1)
    r2, d2, l2 = return_roofs(loop, 3000, seed=21, workers=8)
    assert np.array_equal(r1, r2) and d1 == d2 and l1 == l2


def test_return_roofs_one_sample_draws_one_block():
    r1, d1, l1 = return_roofs(loop_ccc(), 1, seed=21, workers=1)
    r8, d8, l8 = return_roofs(loop_ccc(), 1, seed=21, workers=8)
    assert d1 == 65536 and r1.size >= 1
    assert np.array_equal(r1, r8) and (d1, l1) == (d8, l8)


def test_return_roofs_keeps_blocks_up_to_the_first_that_reaches_samples():
    loop = loop_ccc()
    blocks = []
    for j in range(4):
        rng = np.random.default_rng((21, _TAG_TAIL, j))
        blocks.append(_first_returns(*sample_section(loop, rng, 1 << 16), loop, 10**4))
    totals = np.cumsum([index.size for index, _, _ in blocks])
    for samples in (int(totals[0]), int(totals[1]), int(totals[1]) + 1):
        stop = int(np.searchsorted(totals, samples))  # first block with total >= samples
        kept = blocks[:stop + 1]
        for workers in (1, 2, 3):
            roofs, drawn, lost = return_roofs(loop, samples, seed=21, workers=workers)
            assert drawn == (1 << 16) * (stop + 1)
            assert roofs.tobytes() == np.concatenate([r for _, r, _ in kept]).tobytes()
            assert lost == sum(dead for _, _, dead in kept)


@pytest.mark.parametrize("samples, blocks", [(8192, 25), (8193, 26), (10**5, 306), (3 * 10**5, 916)])
def test_return_roofs_draw_cap_is_whole_blocks_rounded_up(samples, blocks, monkeypatch):
    # 8192 * 200 is exactly 25 blocks, so the cap stops there; one sample
    # more needs a 26th block.  The CLI default (10^5) and the benchmark's
    # 3 * 10^5 returns keep their caps.
    def no_returns(a, b, loop, cap):
        return np.empty(0, dtype=np.int64), np.empty(0), a.size

    monkeypatch.setattr("rauzygasket.measures._first_returns", no_returns)
    roofs, drawn, lost = return_roofs(loop_ccc(), samples, seed=2, workers=2)
    assert roofs.size == 0 and drawn == lost == blocks * (1 << 16)


@pytest.mark.parametrize("samples", [0, -5])
def test_return_roofs_rejects_samples_below_one(samples, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew section points")

    monkeypatch.setattr("rauzygasket.measures.sample_section", no_draw)
    with pytest.raises(ValueError, match=f"samples = {samples} "):
        return_roofs(loop_ccc(), samples)
    with pytest.raises(ValueError, match=f"samples = {samples} "):
        roof_tail(loop_ccc(), samples)


@pytest.mark.parametrize("grid", [[-1.0, 2.0], [2.0, 0.0], [math.inf], [math.nan, 2.0]])
def test_fit_tail_rejects_bad_threshold(grid):
    bad = next(t for t in grid if not (math.isfinite(t) and t > 0))
    with pytest.raises(ValueError, match=f"threshold {bad} "):
        fit_tail(np.ones(200), 1000, grid)


def test_tail_curve_fields_and_monotonicity():
    curve = roof_tail(loop_ccc(), samples=20000, seed=2, loop_name="ccc")
    assert curve.samples >= 20000
    assert curve.probabilities == sorted(curve.probabilities, reverse=True)
    assert all(0 <= p <= 1 for p in curve.probabilities)
    assert curve.fitted_exponent > 0
    assert curve.fit_residual < 0.1
    obj = curve.to_json()
    assert list(obj) == [
        "thresholds", "probabilities", "fitted_exponent", "fit_residual", "samples",
        "no_return", "fit_points", "loop", "drawn", "fit_t_min", "fit_t_max",
    ]
    assert (obj["fitted_exponent"], obj["fit_residual"]) == (
        curve.fitted_exponent, curve.fit_residual)
    csv = curve.to_csv().splitlines()
    assert csv[0] == "T,probability"
    assert len(csv) == len(curve.thresholds) + 1


def test_tail_curve_reports_draws_and_fit_window():
    loop = loop_ccc()
    curve = roof_tail(loop, samples=5000, seed=8)
    roofs, drawn, lost = return_roofs(loop, 5000, seed=8)
    ts, probs, exponent, _, used = fit_tail(roofs, drawn)
    assert curve.drawn == drawn
    assert curve.probabilities == probs and curve.fitted_exponent == exponent
    assert curve.fit_points == len(used) >= 2
    # the window is bounded by the smallest and largest threshold exceeded
    # by at least 100 returns
    window = [t for t in ts if np.count_nonzero(roofs >= math.log(t)) >= 100]
    assert (curve.fit_t_min, curve.fit_t_max) == (window[0], window[-1])
    assert window == used
    obj = curve.to_json()
    assert (obj["drawn"], obj["fit_t_min"], obj["fit_t_max"]) == (drawn, window[0], window[-1])
    # a grid no threshold of which is reached leaves the window empty
    empty = roof_tail(loop, samples=500, seed=8, t_grid=[1e9, 1e10])
    assert empty.fit_points == 0 and empty.fit_t_min is None and empty.fit_t_max is None
    assert empty.drawn > 0


def test_exp_weighted_partial_sums_stabilize():
    # integrability proxy at sigma = delta/2: the running estimate of
    # E[e^{sigma r}] moves < 1% over the last tenth of the sample stream
    roofs, drawn, _ = return_roofs(loop_ccc(), 30000, seed=6)
    _, _, delta, _, _ = fit_tail(roofs, drawn)
    sigma = delta / 2
    w = np.exp(sigma * roofs)
    n = w.size
    full = w.mean()
    partial = w[: int(0.9 * n)].mean()
    assert abs(full - partial) / full < 0.01


@pytest.mark.parametrize("cap", [2, 40])
@pytest.mark.parametrize("loop", [loop_ccc(), loop_cccss()], ids=["ccc", "cccss"])
def test_roof_is_first_return_roof_value(loop, cap):
    # the roof of a record's path is its roof value, bit for bit, on float
    # and exact section points; half of each are pulled back through the
    # loop twice, so they return within one loop
    blocks = _as_blocks(loop)
    rng = np.random.default_rng(23)
    a, b = sample_section(loop, rng, 100)
    x, y = sample_sorted_simplex(rng, 100)
    for n, kind in reversed(blocks * 2):
        x, y = branch_preimage(n, kind, x, y, 1.0 - x - y)
    points = [ChartPoint(u, v) for u, v in zip(np.concatenate([a, x]).tolist(),
                                                np.concatenate([b, y]).tolist())]
    exact = random.Random(23)
    verts = section_triangle(loop)
    for z in _random_exact_points(exact, 100, ((F(1, 3), F(1)), (F(0), F(1, 2)))):
        w = [exact.randrange(1, 1000) for _ in range(3)]
        points.append(ChartPoint(sum(wi * v[0] for wi, v in zip(w, verts)) / sum(w),
                                 sum(wi * v[1] for wi, v in zip(w, verts)) / sum(w)))
        for n, kind in reversed(blocks * 2):
            z = ChartPoint(*branch_preimage(n, kind, *z.coords())).validate()
        points.append(z)
    records = {float: 0, F: 0}
    for p in points:
        try:
            rec = first_return(p, loop, cap=cap)
        except (OutsideCylinder, TieOnBoundary):
            continue
        if isinstance(rec, ReturnRecord):
            assert roof(p, rec.path) == rec.roof_value
            records[type(p.a)] += 1
    if cap >= len(blocks) or loop == loop_ccc():  # cccss cannot return in 2 steps
        assert min(records.values()) >= 20
