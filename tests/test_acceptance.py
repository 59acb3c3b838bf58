"""Acceptance suite: every criterion at its stated budget and tolerance.

Each test prints one pass/fail line (visible with pytest -s or on
failure); budgets follow the stated targets, with fixed seeds
throughout.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from rauzygasket.dimension import (
    ad_bound,
    box_counting,
    delta_estimate,
    depth_totals,
    fast_decay_estimate,
    survivor_mass,
)
from rauzygasket.graph import verify_complete_implies_positive
from rauzygasket.induction import Hole
from rauzygasket.markov import (
    ChartPoint,
    cell_of,
    chaos_game,
    jacobian,
    rasterize,
    sample_sorted_simplex,
)
from rauzygasket.measures import (
    kerckhoff_exact_probability,
    loop_ccc,
    mc_balance,
    mc_kerckhoff,
    fit_tail,
    return_roofs,
    roof,
)
from rauzygasket.verify import distortion_experiment, expansion_experiment

from test_measures import chart_fraction

SEED = 20240809


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_complete_paths_positive():
    t0 = time.time()
    report = verify_complete_implies_positive(12)
    elapsed = time.time() - t0
    ok = report["ok"] and elapsed < 60
    _report(
        1,
        ok,
        f"{report['paths_covered']:,} paths of length <= 12, "
        f"{len(report['violations'])} violations, {elapsed:.2f}s",
    )


def test_criterion_2_expansion_and_distortion():
    exp = expansion_experiment(10**5, SEED)
    dist = distortion_experiment(10**5, SEED)
    ok = (
        exp["checked"] == 10**5
        and exp["failures"] == 0
        and dist["pairs"] == 10**5
        and dist["worst_distortion_ratio"] <= 36.0
    )
    _report(
        2,
        ok,
        f"(4/3)^3 < |DT| < (n+1)^3 on {exp['checked']:,} points "
        f"(0 failures, margin {exp['worst_margin']:.3g}); distortion ratio "
        f"{dist['worst_distortion_ratio']:.2f} <= 36 on {dist['pairs']:,} pairs",
    )


def test_criterion_3_roof_jacobian_identity():
    rng = np.random.default_rng(SEED)
    a, b = sample_sorted_simplex(rng, 4 * 10**4)
    keep = a > 0.5
    a, b = a[keep], b[keep]
    worst = 0.0
    checked = 0
    for x, y in zip(a, b):
        if checked == 10**4:
            break
        p = ChartPoint(float(x), float(y))
        cell = cell_of(p)
        if isinstance(cell, Hole):
            continue
        r = roof(p, [(cell.n, cell.kind)])
        j = jacobian(p)
        worst = max(worst, abs(math.exp(3 * r) - j) / j)
        checked += 1
    ok = checked == 10**4 and worst < 1e-9
    _report(3, ok, f"|e^(3r) - |DT||/|DT| worst {worst:.2e} over {checked:,} steps")


def test_criterion_4_kerckhoff_bound():
    samples = 10**6
    margins = []
    ok = True
    for t in (2.0, 5.0, 10.0, 100.0):
        freq = mc_kerckhoff(t, samples=samples, seed=SEED)
        bound = 1.0 / t
        sigma = math.sqrt(bound * (1 - bound) / samples)
        ok = ok and freq <= bound + 3 * sigma
        margins.append(f"T={t:g}: {freq:.5f} <= {bound + 3 * sigma:.5f}"
                       f" (exact {float(kerckhoff_exact_probability(t)):.5f})")
    _report(4, ok, "; ".join(margins))


def test_criterion_5_exact_partition_and_survivor():
    sums = [depth_totals(d, n_cap=24)["total"] for d in (1, 2)]
    lo, hi = survivor_mass(1)
    oracle = chart_fraction([(-1, 0, F(-1, 2))])  # exact area of {a >= 1/2}
    ok = sums == [1, 1] and oracle == F(3, 4) and lo <= F(3, 4) <= hi
    _report(
        5,
        ok,
        f"depth-1/2 partition sums {sums[0]}/{sums[1]} (exact); survivor "
        f"bracket [{lo}, {hi}] contains polytope-oracle value {oracle}",
    )


def test_criterion_6_roof_tail_exponent():
    roofs, drawn, lost = return_roofs(loop_ccc(), 10**5, seed=SEED)
    ts, probs, exponent, residual, used = fit_tail(roofs, drawn)
    ok = roofs.size >= 10**5 and exponent > 0 and residual < 0.1
    _report(
        6,
        ok,
        f"{roofs.size:,} first returns ({drawn:,} drawn): delta-hat "
        f"{exponent:.3f} > 0, residual {residual:.3f} < 0.1 on {used} points",
    )


def test_criterion_7_dimension_pipeline():
    t0 = time.time()
    delta = delta_estimate(10, measure_floor=F(1, 10**12))
    alpha = fast_decay_estimate(2, n_cap=128, measure_floor=F(1, 10**12))
    cloud = chaos_game(10**6, seed=SEED)
    box = box_counting(cloud, [2.0**-k for k in range(4, 11)])
    bound = ad_bound(delta.exponent, alpha.exponent)
    elapsed = time.time() - t0
    ok = (
        delta.exponent > 0
        and alpha.exponent > 0
        and 1.0 < bound < 2.0
        and 1.55 <= box.dimension <= 1.95
        and elapsed < 900
    )
    _report(
        7,
        ok,
        f"delta {delta.exponent:.3f}, alpha1 {alpha.exponent:.3f}, "
        f"bound {bound:.3f} < 2, box dim {box.dimension:.3f} in [1.55, 1.95], "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_box_counting_calibration():
    rng = np.random.default_rng(SEED)
    tri = rng.random((2 * 10**6, 2))
    flip = tri.sum(axis=1) > 1
    tri[flip] = 1.0 - tri[flip]
    tri_fit = box_counting(tri, [2.0**-k for k in range(5, 11)])
    t = np.linspace(0.0, 1.0, 10**5)
    seg = np.stack([t, 0.5 * t], axis=1)
    seg_fit = box_counting(seg, [2.0**-k for k in range(2, 10)])
    ok = abs(tri_fit.dimension - 2.0) <= 0.05 and abs(seg_fit.dimension - 1.0) <= 0.05
    _report(
        8,
        ok,
        f"filled triangle {tri_fit.dimension:.3f} (2.00 +- 0.05), "
        f"segment {seg_fit.dimension:.3f} (1.00 +- 0.05)",
    )


def test_criterion_9_bit_reproducibility_across_workers():
    freq1 = mc_kerckhoff(5.0, samples=3 * (1 << 16) + 7, seed=SEED, workers=1)
    freq8 = mc_kerckhoff(5.0, samples=3 * (1 << 16) + 7, seed=SEED, workers=8)
    cloud1 = chaos_game(150000, seed=SEED, workers=1)
    cloud8 = chaos_game(150000, seed=SEED, workers=8)
    img1 = rasterize(cloud1, 256, 256, workers=1)
    img8 = rasterize(cloud8, 256, 256, workers=8)
    r1, d1, l1 = return_roofs(loop_ccc(), 5000, seed=SEED, workers=1)
    r8, d8, l8 = return_roofs(loop_ccc(), 5000, seed=SEED, workers=8)
    b1 = mc_balance([2.0, 100.0], samples=30000, seed=SEED, workers=1)
    b8 = mc_balance([2.0, 100.0], samples=30000, seed=SEED, workers=8)
    ok = (
        freq1 == freq8
        and np.array_equal(cloud1, cloud8)
        and np.array_equal(img1, img8)
        and np.array_equal(r1, r8)
        and (d1, l1) == (d8, l8)
        and b1 == b8
    )
    _report(
        9,
        ok,
        "kerckhoff, chaos game, raster, first returns, and balance all "
        "bit-identical for 1 vs 8 workers",
    )
