import math
from fractions import Fraction as F

import numpy as np
import pytest

from rauzygasket.dimension import (
    BracketTooWide,
    DegenerateCloud,
    NonPositiveInput,
    ad_bound,
    box_counting,
    delta_estimate,
    depth_totals,
    dimension_report,
    enumerate_cylinders,
    fast_decay_estimate,
    survivor_mass,
)
from rauzygasket.graph import START
from rauzygasket.induction import STAY
from rauzygasket.markov import chaos_game, sample_sorted_simplex
from rauzygasket.measures import Q_ONES, cylinder_measure, path_probability, running_mass
from rauzygasket.graph import path_from_blocks


# --- enumeration -----------------------------------------------------------------

def test_depth1_partition_exact_and_independent_remainder():
    n_cap = 16
    branch = F(0)
    hole = F(0)
    remainder = F(0)
    for cyl in enumerate_cylinders(1, n_cap=n_cap):
        if cyl.kind == "branch":
            branch += cyl.measure
        elif cyl.kind == "hole":
            hole += cyl.measure
        else:
            remainder += cyl.measure
    assert branch + hole + remainder == 1
    # the remainder must equal the still-running mass at the cap,
    # computed from its own closed form
    assert remainder == running_mass(Q_ONES, START, n_cap)


@pytest.mark.parametrize("depth", [1, 2])
def test_partition_of_unity(depth):
    totals = depth_totals(depth, n_cap=24)
    assert totals["total"] == 1


def test_partition_of_unity_with_floor():
    totals = depth_totals(2, n_cap=24, measure_floor=F(1, 10**6))
    assert totals["total"] == 1


def test_cylinder_measures_decrease_under_extension():
    parents = {
        cyl.path: cyl.measure
        for cyl in enumerate_cylinders(1, n_cap=6)
        if cyl.kind == "branch"
    }
    deeper = [
        cyl for cyl in enumerate_cylinders(2, n_cap=6) if cyl.kind == "branch"
    ]
    assert deeper
    for cyl in deeper:
        assert cyl.measure < parents[cyl.path[:1]]


def test_cylinder_measure_vs_octant_probability():
    # the octant-relative winner-sequence mass is the column-sum ratio;
    # check it against path_probability for enumerated paths
    for cyl in enumerate_cylinders(1, n_cap=5):
        if cyl.kind != "branch":
            continue
        path = path_from_blocks(START, list(cyl.path))
        p = path_probability((1, 1, 1), path)
        n = cyl.path[0][0]
        assert p == F(1, (n + 1) ** 2)


def test_cylinder_json():
    cyl = next(iter(enumerate_cylinders(1, n_cap=2)))
    obj = cyl.to_json()
    assert set(obj) == {"path", "measure", "survives", "kind"}
    num, den = obj["measure"].split("/")
    assert int(den) > 0


# --- survivor masses ------------------------------------------------------------

def test_survivor_depth0():
    assert survivor_mass(0) == (F(1), F(1))


def test_survivor_depth1_exact():
    lo, hi = survivor_mass(1)
    assert lo == hi == F(3, 4)


def test_survivor_depth2_exact():
    lo, hi = survivor_mass(2)
    assert lo == hi == F(7, 12)


def test_survivor_monte_carlo_cross_check():
    # elementary survival frequencies vs the exact masses
    rng = np.random.default_rng(19)
    count = 200000
    a, b = sample_sorted_simplex(rng, count)
    lam = np.stack([a, b, 1.0 - a - b], axis=1)
    lam.sort(axis=1)
    lam = lam[:, ::-1]
    alive = np.ones(count, dtype=bool)
    for depth in (1, 2, 3):
        lead = lam[:, 0]
        rest = lam[:, 1] + lam[:, 2]
        alive &= lead > rest
        lam[:, 0] = lam[:, 0] - rest
        lam.sort(axis=1)
        lam = lam[:, ::-1]
        lo, hi = survivor_mass(depth)
        freq = alive.mean()
        sigma = math.sqrt(float(lo) * (1 - float(lo)) / count)
        assert abs(freq - float(lo)) < 5 * sigma


def test_survivor_brackets_monotone_and_widening():
    prev_hi = F(1)
    for depth in range(1, 6):
        lo, hi = survivor_mass(depth)
        assert lo <= hi <= prev_hi
        prev_hi = hi
    lo, hi = survivor_mass(6, measure_floor=F(1, 10**4))
    lo0, hi0 = survivor_mass(6)
    assert lo <= lo0 == hi0 <= hi


# --- delta ------------------------------------------------------------------------

def test_delta_positive_and_stable():
    fit9 = delta_estimate(9)
    fit8 = delta_estimate(8)
    assert fit9.exponent > 0
    assert abs(fit9.exponent - fit8.exponent) / fit9.exponent < 0.10
    assert fit9.residual < 0.1


def test_all_stay_cylinder_decays_like_inverse_square():
    # the all-stay path survives every elementary step, so mu(X_n) is at
    # least 6 / ((n + 2)(2n + 3)) and the elementary decay rate tends to 0
    prev = F(0)
    for k in range(6, 13):
        n = 2**k
        mass = cylinder_measure(path_from_blocks(START, [(1, STAY)] * n))
        assert mass == F(6, (n + 2) * (2 * n + 3))
        scaled = n * n * mass
        assert prev < scaled < 3
        assert 3 - scaled < F(11, n)
        prev = scaled


def test_delta_bracket_too_wide():
    with pytest.raises(BracketTooWide):
        delta_estimate(8, measure_floor=F(1, 20))


# --- fast decay ---------------------------------------------------------------------

def test_fast_decay_monotone_and_positive():
    fit = fast_decay_estimate(1, n_cap=64)
    assert fit.exponent > 0
    assert fit.small_mass == sorted(fit.small_mass)
    assert fit.residual < 0.1


def test_fast_decay_s_at_one_accounts_everything():
    fit = fast_decay_estimate(1, n_cap=32, eps_grid=[1e-9, 1e-3, 0.5, 1.0])
    totals = depth_totals(1, n_cap=32)
    assert fit.small_mass[-1] == pytest.approx(float(totals["branch"]), rel=1e-12)


def test_fast_decay_depth2():
    fit = fast_decay_estimate(2, n_cap=48)
    assert fit.exponent > 0
    assert fit.residual < 0.1


# --- box counting ---------------------------------------------------------------------

SIZES = [2.0**-k for k in range(2, 8)]


def test_box_single_point_dimension_zero():
    fit = box_counting(np.array([[0.3, 0.4]] * 10), SIZES)
    assert fit.dimension == 0.0


def test_box_filled_triangle_calibration():
    rng = np.random.default_rng(7)
    u = rng.random((2 * 10**6, 2))
    flip = u.sum(axis=1) > 1
    u[flip] = 1.0 - u[flip]
    fit = box_counting(u, [2.0**-k for k in range(5, 11)])
    assert abs(fit.dimension - 2.0) <= 0.05


def test_box_segment_calibration():
    t = np.linspace(0.0, 1.0, 10**5)
    pts = np.stack([t, 0.5 * t], axis=1)
    fit = box_counting(pts, [2.0**-k for k in range(2, 10)])
    assert abs(fit.dimension - 1.0) <= 0.05


def test_box_gasket_cloud_window():
    cloud = chaos_game(300000, seed=3)
    fit = box_counting(cloud, [2.0**-k for k in range(4, 11)])
    assert 1.4 < fit.dimension < 2.0


def test_box_degenerate_cloud():
    pts = np.array([[0.3, 0.2], [0.3 + 1e-9, 0.2]])
    with pytest.raises(DegenerateCloud):
        box_counting(pts, SIZES)


def test_box_needs_enough_sizes():
    with pytest.raises(ValueError):
        box_counting(np.zeros((10, 2)), [0.5, 0.25, 0.125])


def test_box_boundary_points_go_to_lower_box():
    # a single point exactly on a grid line must occupy one box, not two
    pts = np.array([[0.5, 0.5], [0.5, 0.5]])
    fit = box_counting(pts, SIZES)
    assert fit.dimension == 0.0
    assert all(c == 1 for c in fit.counts)


# --- the bound ---------------------------------------------------------------------------

def test_ad_bound_formula():
    assert ad_bound(0.3, 0.5) == pytest.approx(1.7)
    assert ad_bound(0.5, 0.3) == pytest.approx(1.7)
    with pytest.raises(NonPositiveInput):
        ad_bound(0.0, 0.5)
    with pytest.raises(NonPositiveInput):
        ad_bound(0.5, -1.0)


def test_dimension_report_smoke():
    report = dimension_report(
        delta_depth=6,
        alpha_depth=1,
        n_cap=64,
        points=200000,
        seed=5,
    )
    assert report.delta_hat > 0
    assert report.alpha1_hat > 0
    assert 1.0 < report.ad_bound < 2.0
    assert report.ad_bound == pytest.approx(
        2.0 - min(report.delta_hat, report.alpha1_hat)
    )
    obj = report.to_json()
    assert list(obj) == [
        "delta_hat", "alpha1_hat", "ad_bound", "box_dim", "residuals",
        "depths_used", "samples_used", "seeds", "counters", "timings", "notes",
    ]
    assert list(obj["residuals"]) == ["delta", "alpha1", "box"]
    assert "heuristic" in obj["notes"]
