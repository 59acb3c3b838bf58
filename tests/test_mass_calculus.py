"""The integer mass calculus of the dimension pipeline against the exact
Fraction reference forms of ``measures`` and against brute-force
references written here."""

import math
import re
import warnings
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rauzygasket import dimension
from rauzygasket.dimension import (
    _BOX_GRID,
    _box_counts,
    _descend,
    _exact_sum,
    _expand,
    _walk,
    box_counting,
    delta_estimate,
    depth_totals,
    dimension_report,
    enumerate_cylinders,
    fast_decay_estimate,
    survivor_mass,
    survivor_sweep,
)
from rauzygasket.graph import START, apply_kind, path_from_blocks
from rauzygasket.induction import CYC, STAY, SWAP, format_scalar
from rauzygasket.markov import _CLOUD_BLOCK, chaos_game
from rauzygasket.measures import (
    Q_ONES,
    block_child,
    cone_denominator,
    cylinder_measure,
    hole_mass_at,
    running_mass,
)

ORDERINGS = st.permutations([1, 2, 3]).map(tuple)
BLOCKS = st.lists(
    st.tuples(st.integers(1, 10**6), st.sampled_from([SWAP, CYC])), min_size=1, max_size=4
)
WEIGHTS = st.tuples(*[st.integers(1, 10**6)] * 3)


# --- closed forms ------------------------------------------------------------------

def _cells(w, n):
    """The cells of counter n from one node of weights w, on Python ints."""
    return _expand(np.array([w], dtype=object), np.array([n], dtype=object))


@settings(max_examples=200, deadline=None)
@given(start=ORDERINGS, blocks=BLOCKS)
def test_end_state_denominator_is_cylinder_measure(start, blocks):
    w, order = (1, 1, 1), start  # w lists the weights in the ordering
    for n, kind in blocks:
        cells = _cells(w, n)
        den = (cells.swap if kind == SWAP else cells.cyc)[0, 0]
        w = tuple(cells.weights(kind)[0, 0])
        order = apply_kind(order, kind)
    q = [0, 0, 0]
    for letter, weight in zip(order, w):
        q[letter - 1] = weight
    assert den == cone_denominator(q, order)
    assert F(6, den) == cylinder_measure(path_from_blocks(start, blocks))


@settings(max_examples=200, deadline=None)
@given(q=WEIGHTS, order=ORDERINGS, k=st.integers(1, 10**6))
@example(q=(3, 1, 2), order=(2, 3, 1), k=1)
def test_hole_and_cap_terms_match_reference_forms(q, order, k):
    d_node = cone_denominator(q, order)
    w = [q[p - 1] for p in order]
    cells = _cells(w, k)
    after, swap, cyc, hole = (x[0, 0] for x in (cells.after, cells.swap, cells.cyc, cells.hole))
    # still leading after k - 1 wins: the whole node at k = 1
    before = d_node if k == 1 else _cells(w, k - 1).after[0, 0]
    assert F(1, before) - F(1, after) - F(1, swap) - F(1, cyc) == F(1, hole)
    assert F(d_node, hole) == hole_mass_at(q, order, k)
    assert F(d_node, before) == running_mass(q, order, k - 1)
    assert F(d_node, after) == running_mass(q, order, k)
    assert F(d_node, swap) == block_child(q, order, k, SWAP)[0]
    assert F(d_node, cyc) == block_child(q, order, k, CYC)[0]


@settings(max_examples=200, deadline=None)
@given(w=st.tuples(*[st.integers(1, 10**3)] * 3), n=st.integers(1, 200), big=WEIGHTS)
@example(w=(1, 1, 1), n=1, big=(1, 1, 1))
@example(w=(10**3, 10**3, 10**3), n=200, big=(10**6, 10**6, 10**6))
def test_three_children_sum_to_one_term(w, n, big):
    # int64 on weights up to 10^3, whose denominators stay below 2^55 at
    # n <= 200; Python ints also past 2^63
    for dtype, weights in ((np.int64, w), (object, w), (object, tuple(x * 10**15 for x in big))):
        cells = _expand(np.array([weights], dtype=dtype), np.array([n], dtype=dtype))
        lead, a, b, after, swap, cyc, hole = (int(x[0, 0]) for x in cells)
        together = lead * a * (a + b)
        assert together < after  # so an int64 walk holds it
        assert F(1, after) + F(1, swap) + F(1, cyc) == F(1, together)
        if n == 1:  # the hole is the rest of the node's mass
            d_node = cone_denominator(weights, (1, 2, 3))
            assert F(1, d_node) - F(1, together) == F(1, hole)


@settings(max_examples=40, deadline=None)
@given(
    start=ORDERINGS,
    q=st.tuples(*[st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12)] * 3),
    n_cap=st.integers(1, 10),
)
def test_depth1_walk_matches_reference_forms(start, q, n_cap):
    want = []
    for n in range(1, n_cap + 1):
        for kind in (SWAP, CYC):
            want.append(((n, kind), block_child(q, start, n, kind)[0], "branch"))
        hole = hole_mass_at(q, start, n)
        if hole > 0:
            want.append(((n, "hole"), hole, "hole"))
    want.append(((n_cap, "remainder"), running_mass(q, start, n_cap), "remainder"))
    got = [
        (cyl.path[0], cyl.measure, cyl.kind)
        for cyl in enumerate_cylinders(1, n_cap=n_cap, start=start, q=q)
    ]
    assert got == want


def test_child_and_hole_exactly_at_the_floor_are_kept():
    records = list(enumerate_cylinders(1, n_cap=8))
    branch = [c for c in records if c.kind == "branch"][5]
    hole = [c for c in records if c.kind == "hole"][3]
    for cyl in (branch, hole):
        at = {c.path: c.measure for c in enumerate_cylinders(1, n_cap=8, measure_floor=cyl.measure)}
        assert at[cyl.path] == cyl.measure
        above = cyl.measure + F(1, 10**40)
        assert cyl.path not in {c.path for c in enumerate_cylinders(1, n_cap=8, measure_floor=above)}
        assert depth_totals(2, n_cap=8, measure_floor=cyl.measure)["total"] == 1
        assert depth_totals(2, n_cap=8, measure_floor=above)["total"] == 1


def test_survivor_node_exactly_at_the_floor_is_expanded():
    # the lightest depth-1 elementary node is the cyc step, 6 / (2 * 4 * 5)
    exact = survivor_mass(2)
    assert survivor_mass(2, measure_floor=F(3, 20)) == exact
    lo, hi = survivor_mass(2, measure_floor=F(3, 20) + F(1, 10**9))
    assert lo < exact[0] < hi
    assert hi - lo == F(3, 20)


# --- survivor sweep --------------------------------------------------------------------

def test_delta_values_match_separate_brackets():
    fit = delta_estimate(8)
    assert fit.values == [-math.log(float(survivor_mass(d)[0])) for d in range(2, 9)]
    assert fit.nodes == (3**9 - 1) // 2


def _brute_bracket(depth, floor):
    """Every elementary path of length ``depth``: weights walked from
    (1, 1, 1), chart mass 6 / (q_p1 (q_p1 + q_p2) (q_1 + q_2 + q_3)).  A
    path below the floor before ``depth`` counts in the upper bound only."""
    lo = F(0)
    unresolved = F(0)

    def visit(q, order, level):
        nonlocal lo, unresolved
        a, b = q[order[0] - 1], q[order[1] - 1]
        mass = F(6, a * (a + b) * sum(q))
        if level == depth:
            lo += mass
            return
        if mass < floor:
            unresolved += mass
            return
        lead = q[order[0] - 1]
        q1 = tuple(x if letter == order[0] else x + lead for letter, x in zip((1, 2, 3), q))
        p1, p2, p3 = order
        for nxt in ((p1, p2, p3), (p2, p1, p3), (p2, p3, p1)):
            visit(q1, nxt, level + 1)

    visit((1, 1, 1), START, 0)
    return lo, lo + unresolved


def test_survivor_brackets_with_floor_match_brute_force():
    floor = F(1, 10**4)
    brackets = [survivor_mass(d, measure_floor=floor) for d in range(7)]
    assert brackets == [_brute_bracket(d, floor) for d in range(7)]
    assert brackets[6][0] < brackets[6][1]  # the floor does prune by depth 6


@pytest.mark.parametrize("floor", [F(0), F(1, 10**4), F(1, 10**12)])
def test_chunked_sweep_matches_one_chunk_per_level(monkeypatch, floor):
    # at the default budget each of these walks takes one chunk per level
    want = survivor_sweep(8, floor)
    assert want.nodes <= (3**9 - 1) // 2 < dimension._CELL_BUDGET
    fit = fast_decay_estimate(2, n_cap=48, measure_floor=floor)
    totals = depth_totals(3, n_cap=3, measure_floor=floor)
    # 7 cells per chunk splits every level past the first into partial
    # sums, and leaves short chunks where the floor prunes: chunks of 7
    # elementary nodes, of 2 nodes at 3 counters, of 1 node at 48
    monkeypatch.setattr(dimension, "_CELL_BUDGET", 7)
    got = survivor_sweep(8, floor)
    assert (got.brackets, got.nodes) == (want.brackets, want.nodes)
    assert got.brackets[:7] == [_brute_bracket(d, floor) for d in range(7)]
    assert repr(fast_decay_estimate(2, n_cap=48, measure_floor=floor)) == repr(fit)
    assert depth_totals(3, n_cap=3, measure_floor=floor) == totals


def _per_child_sweep(max_depth, floor):
    """``survivor_sweep`` with every child of every expanded node summed on
    its own, kind by kind."""
    walk = _walk(Q_ONES, START, max_depth, 1, floor)
    kinds = (STAY, SWAP, CYC)
    root_kept = walk.d0 <= walk.cut
    mass = [F(1)] + [F(0)] * max_depth
    pruned = [F(0 if root_kept else 1)] + [F(0)] * max_depth
    nodes = 1
    one = np.ones(1, dtype=walk.dtype)
    for level, blocks in _descend(walk, max_depth if root_kept else 0, one, kinds):
        for kind in kinds:
            d = blocks.den(kind).ravel()
            nodes += d.size
            mass[level + 1] += _exact_sum(walk.d0, d)
            pruned[level + 1] += _exact_sum(walk.d0, d[d > walk.cut])
    unresolved = accumulate(pruned, initial=F(0))
    return [(lo, lo + u) for lo, u in zip(mass, unresolved)], nodes


# the brackets widen from depth 3 at floors 1/20 and 3/20, from depth 6 at
# 1/10^4; floors 1 and 2 prune the root's children and the root itself
@pytest.mark.parametrize("floor", [F(0), F(1, 10**4), F(1, 20), F(3, 20), F(1), F(2)])
@pytest.mark.parametrize("budget", [dimension._CELL_BUDGET, 7])
def test_sweep_matches_per_child_sums(monkeypatch, floor, budget):
    monkeypatch.setattr(dimension, "_CELL_BUDGET", budget)
    for depth in range(9):
        sweep = survivor_sweep(depth, floor)
        assert (sweep.brackets, sweep.nodes) == _per_child_sweep(depth, floor)


def test_sweep_of_depth_zero_and_a_root_below_the_floor():
    one = (F(1), F(1))
    assert (survivor_sweep(0).brackets, survivor_sweep(0).nodes) == ([one], 1)
    for floor in (F(2), 1 + F(1, 10**40)):
        # the root is below the floor, so it stays unexpanded
        sweep = survivor_sweep(3, floor)
        assert (sweep.brackets, sweep.nodes) == ([one] + [(F(0), F(1))] * 3, 1)
    # at floor 1 the root is kept and its three children are not
    sweep = survivor_sweep(2, F(1))
    assert (sweep.brackets, sweep.nodes) == ([one, (F(3, 4), F(3, 4)), (F(0), F(3, 4))], 4)


# --- the accelerated walk against its records -------------------------------------------

def _record_totals(depth, **kw):
    """``depth_totals`` summed record by record from ``enumerate_cylinders``."""
    sums = {kind: F(0) for kind in ("branch", "hole", "remainder")}
    for cyl in enumerate_cylinders(depth, **kw):
        sums[cyl.kind] += cyl.measure
    sums["total"] = sums["branch"] + sums["hole"] + sums["remainder"]
    return sums


# 1/26180 is the mass of the branch ((1, cyc), (20, swap)) from unit weights;
# floors 1 and 2 leave no node below the root
@pytest.mark.parametrize("floor", [F(0), F(1, 10**6), F(1, 26180), F(1), F(2)])
@pytest.mark.parametrize("depth, n_cap", [(1, 40), (2, 24), (3, 6)])
def test_depth_totals_match_cylinder_records(depth, n_cap, floor):
    other_start = dict(start=(3, 1, 2), q=(F(1, 3), F(2), F(5, 7)))
    for kw in ({}, other_start):
        kw = dict(kw, n_cap=n_cap, measure_floor=floor)
        assert depth_totals(depth, **kw) == _record_totals(depth, **kw)


def test_accelerated_walk_when_the_floor_empties_a_level():
    # at floor 1/5 the root keeps only its first hole, of mass 1/4, so
    # level 1 is empty; above 1 even the holes are below the floor
    for depth, floor, hole in ((2, F(1, 5), F(1, 4)), (2, F(1), F(0)), (1, F(2), F(0))):
        totals = depth_totals(depth, n_cap=16, measure_floor=floor)
        assert totals == {"branch": 0, "hole": hole, "remainder": 1 - hole, "total": 1}
        with pytest.raises(ValueError, match="no cylinders enumerated"):
            fast_decay_estimate(depth, n_cap=16, measure_floor=floor)


# --- exact sums and the two walk dtypes -------------------------------------------------

HUGE = 10**4300 + 7  # a factor that puts denominators past 4,300 digits
DENOMINATORS = st.one_of(
    st.integers(1, 10**6),
    st.integers(1, 10**3).map(lambda d: d * HUGE),
    st.integers(10**4300, 10**4301),
)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(st.tuples(st.integers(0, 10**9), DENOMINATORS), max_size=40),
    repeat=st.integers(1, 3),
)
@example(terms=[], repeat=1)
@example(terms=[(5, 12)], repeat=1)
@example(terms=[(1, 6), (1, 6), (2, 6)], repeat=2)
def test_pairwise_exact_sum_matches_fraction_sum(terms, repeat):
    terms = terms * repeat
    nums = np.array([n for n, _ in terms], dtype=object)
    dens = np.array([d for _, d in terms], dtype=object)
    assert _exact_sum(nums, dens) == sum((F(n, d) for n, d in terms), F(0))
    shared = 7 * sum((F(1, d) for _, d in terms), F(0))
    assert _exact_sum(7, dens) == shared
    if all(d < 2**53 for d in dens):  # the walks' int64 denominators
        assert _exact_sum(7, dens.astype(np.int64)) == shared


def _walk_outputs():
    sweep = survivor_sweep(8)
    floored = survivor_sweep(8, measure_floor=F(1, 10**4))
    fit = fast_decay_estimate(2, n_cap=48)
    totals = depth_totals(3, n_cap=8, measure_floor=F(1, 10**6))
    records = [(c.path, c.num, c.den, c.kind) for c in enumerate_cylinders(2, n_cap=8)]
    return sweep, floored, fit, totals, records


def test_object_dtype_walks_match_int64(monkeypatch):
    assert _walk((1, 1, 1), START, 8, 1, 0).dtype is np.int64
    want = _walk_outputs()
    monkeypatch.setattr(dimension, "_FLOAT_EXACT", 0)
    assert _walk((1, 1, 1), START, 8, 1, 0).dtype is object
    got = _walk_outputs()
    assert repr(got) == repr(want)


# 1/26180 is the mass of the branch ((1, cyc), (20, swap)), kept at that floor
@pytest.mark.parametrize("n_cap, floor", [(48, F(0)), (24, F(1, 10**6)), (24, F(1, 26180))])
def test_fast_decay_matches_cylinder_records(n_cap, floor):
    records = list(enumerate_cylinders(2, n_cap=n_cap, measure_floor=floor))
    masses = np.sort([c.num / c.den for c in records if c.kind == "branch"])
    fit = fast_decay_estimate(2, eps_grid=masses, n_cap=n_cap, measure_floor=floor)
    assert fit.enumerated == masses.size
    # S(eps) at every branch mass pins the sorted masses
    cum = np.cumsum(masses)
    last = np.searchsorted(masses, fit.eps, side="right") - 1
    assert fit.small_mass == [float(cum[i]) for i in last]
    rest = [F(c.num, c.den) for c in records if c.kind == "remainder"]
    assert fit.remainder_exact == sum(rest, F(0))


# --- box counting ----------------------------------------------------------------------

def _unique_counts(pts, sizes):
    counts = []
    for s in sizes:
        ij = np.maximum(np.ceil(pts / s).astype(np.int64) - 1, 0)
        counts.append(len(np.unique(ij, axis=0)))
    return counts


def test_box_counts_match_per_level_unique():
    rng = np.random.default_rng(11)
    parts = [rng.random((20000, 2))]
    for k in range(0, 13):
        # points exactly on the box edges of several grids
        parts.append(rng.integers(0, 2**k + 1, size=(200, 2)) / 2**k)
    parts.append(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.0]]))
    pts = np.concatenate(parts)
    sizes = [2.0**-k for k in range(1, 13)]
    fit = box_counting(pts, sizes)
    assert fit.counts == _unique_counts(pts, sorted(sizes))


def _block_edge_cloud(n):
    """n points: uniform, with grid-edge points at the first and last
    index of every block."""
    rng = np.random.default_rng(n)
    pts = rng.random((n, 2))
    edges = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [3 / 4096, 1.0], [1.5, -0.5]])
    for lo in range(0, n, _CLOUD_BLOCK):
        hi = min(lo + _CLOUD_BLOCK, n)
        pts[lo] = edges[(lo // _CLOUD_BLOCK) % len(edges)]
        pts[hi - 1] = edges[(lo // _CLOUD_BLOCK + 2) % len(edges)]
    return pts


@pytest.mark.parametrize("n", [3 * _CLOUD_BLOCK - 1, 3 * _CLOUD_BLOCK, 3 * _CLOUD_BLOCK + 1])
def test_box_counts_across_block_boundaries(n):
    pts = _block_edge_cloud(n)
    levels = [0, 2, 7, 12]
    assert _box_counts(pts, levels) == _unique_counts(pts, [2.0**-k for k in levels])


@pytest.mark.parametrize("n", [3 * _CLOUD_BLOCK - 1, 3 * _CLOUD_BLOCK, 3 * _CLOUD_BLOCK + 1])
@pytest.mark.parametrize("bad", [[0.5, 2.0**21], [2.0**21, 0.5]])
def test_box_counts_point_too_far_outside_in_last_block(n, bad):
    pts = _block_edge_cloud(n)
    assert _box_counts(pts, [12]) == _unique_counts(pts, [2.0**-12])
    pts[-1] = bad
    with pytest.raises(ValueError, match="too far outside"):
        _box_counts(pts, [12])


_PAST_ONE = [[-0.5, 1.5], [1.5, 1.5], [1 + 2**-52, 1 + 2**-52], [0.0, 3.0]]


@pytest.mark.parametrize("past_one", [False, True])
@pytest.mark.parametrize("levels", [[0, 3, 7, 12], [16], [17], [20, 31]])
def test_box_counts_key_width(levels, past_one):
    """Grid-edge points, whose indices differ only in their high bits, and
    points above 1 in the second axis: a key that gives i or j too few
    bits merges their boxes.  A unit-square cloud has 16-bit indices at
    level 16 and 17-bit ones at 17."""
    rng = np.random.default_rng(3)
    parts = [rng.random((5000, 2))]
    parts += [rng.integers(0, 2**k + 1, size=(100, 2)) / 2**k for k in range(0, 13)]
    pts = np.concatenate(parts + [_PAST_ONE] * past_one)
    if past_one and 3.0 * 2**max(levels) > 2**32:
        with pytest.raises(ValueError, match="too far outside"):
            _box_counts(pts, levels)
        pts = pts[:-1]
    assert _box_counts(pts, levels) == _unique_counts(pts, [2.0**-k for k in levels])


def test_box_counts_clamp_far_below_zero():
    # a coordinate below 0 goes to box 0 however far below it lies, also
    # where x 2**k overflows to -inf, and without a warning
    pts = np.array([[-2.0**40, 0.5], [-1e300, -1e300], [0.25, -3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _box_counts(pts, [31, 12, 0]) == [3, 3, 1]
        assert _box_counts(pts[1:2], [31]) == [1]
        fit = box_counting(np.array([[-1e300, 0.5], [0.5, 0.25]]),
                           [2.0**-k for k in range(25, 32)])
        assert fit.counts == [2] * 7


@pytest.mark.parametrize("n", [1, 3 * _CLOUD_BLOCK + 1])
def test_box_equal_points_dimension_zero(n):
    fit = box_counting(np.full((n, 2), 0.5), [2.0**-k for k in range(2, 8)])
    assert fit.dimension == 0.0
    assert fit.counts == [1] * 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_box_non_finite_points_rejected(bad):
    pts = np.random.default_rng(4).random((100, 2))
    pts[37, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="point 37 has non-finite coordinates"):
            box_counting(pts, [2.0**-k for k in range(2, 8)])


@pytest.mark.parametrize("shape", [(10,), (10, 3), (10, 1), (2, 5, 2)])
def test_box_cloud_not_n_by_2_rejected(shape):
    with pytest.raises(ValueError, match=r"shaped \(N, 2\), got shape " + re.escape(str(shape))):
        box_counting(np.random.default_rng(5).random(shape), [2.0**-k for k in range(2, 8)])


@pytest.mark.parametrize("sizes", [
    [0.3, 0.1, 0.03, 0.003],
    [3.0**-k for k in range(1, 6)],
    [2.0, 0.5, 0.25, 0.125, 0.0078125],
    [2.0**-k for k in range(26, 34)],
])
def test_box_non_dyadic_size_rejected(sizes):
    with pytest.raises(ValueError, match="not 2"):
        box_counting(np.array([[0.2, 0.3], [0.6, 0.1]]), sizes)


# --- report counters ---------------------------------------------------------------------

def test_report_counters_and_timings():
    report = dimension_report(delta_depth=6, alpha_depth=1, n_cap=64, points=20000, seed=2)
    obj = report.to_json()
    counters = obj["counters"]
    assert counters["survivor_nodes"] == (3**7 - 1) // 2
    assert counters["delta_relative_widths"] == [0.0] * 5
    assert counters["cylinders_enumerated"] == 128
    remainder = depth_totals(1, n_cap=64, measure_floor=F(1, 10**12))["remainder"]
    assert F(counters["alpha1_remainder"]) == remainder
    assert counters["box_counts"] == box_counting(chaos_game(20000, seed=2), _BOX_GRID).counts
    assert set(obj["timings"]) == {"delta_s", "alpha1_s", "chaos_game_s", "box_counting_s"}
    assert all(t >= 0 for t in obj["timings"].values())


def test_ratio_text_past_the_int_to_str_cap():
    # exact remainders at accelerated depth 3 run past 4300 digits
    assert format_scalar(F(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
