"""Verification experiments and the named invariant suites.

Each suite is ``suite(samples, seed, workers) -> dict``; ``samples`` of
None selects the suite's default budget.  The report always carries
``name`` and ``pass``; suites with a table of checks put its rows under
``checks``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dimension import depth_totals, survivor_mass
from .graph import verify_complete_implies_positive
from .induction import CYC, SWAP, Hole, format_scalar
from .markov import (
    ChartPoint,
    accelerated_step_batch,
    branch_preimage,
    cell_of,
    jacobian,
    sample_sorted_simplex,
)
from .measures import kerckhoff_exact_probability, mc_balance, mc_kerckhoff, roof

DISTORTION_CONSTANT = 36.0
_N_MAX = 100  # largest counter the expansion and distortion experiments sample


def expansion_experiment(samples: int, seed: int):
    """Jacobian bounds (4/3)^3 < |DT| < (n+1)^3 on random non-hole points
    with counter n <= _N_MAX."""
    rng = np.random.default_rng((seed, 11))
    checked = 0
    failures = 0
    worst = math.inf
    lower = (4.0 / 3.0) ** 3
    while checked < samples:
        a, b = sample_sorted_simplex(rng, 2 * samples)
        _, _, n, _, d, alive = accelerated_step_batch(a, b)
        keep = alive & (n <= _N_MAX)
        n = n[keep][: samples - checked]
        d = d[keep][: samples - checked]
        j = 1.0 / d**3
        hi = (n + 1.0) ** 3
        failures += int(np.count_nonzero((j <= lower) | (j >= hi)))
        worst = min(worst, float((j - lower).min()), float((hi - j).min()))
        checked += j.size
    return {"checked": checked, "failures": failures, "worst_margin": worst}


def distortion_experiment(samples: int, seed: int):
    """Worst observed margin of the distortion bound over same-cell pairs,
    stratified over every counter n <= _N_MAX and both endings; ``pass``
    says whether the worst ratio is within DISTORTION_CONSTANT."""
    rng = np.random.default_rng((seed, 7))
    per = max(1, samples // (2 * _N_MAX))
    worst_ratio = 0.0
    worst_cell = None
    pairs = 0
    for n in range(1, _N_MAX + 1):
        for kind in (SWAP, CYC):
            ya, yb = sample_sorted_simplex(rng, 2 * per)
            pa, pb = branch_preimage(n, kind, ya, yb, 1.0 - ya - yb)
            a2, b2, n_chk, cyc_chk, d, alive = accelerated_step_batch(pa, pb)
            ok = alive & (n_chk == n) & (cyc_chk == (kind == CYC))
            j = 1.0 / d**3
            j1, j2 = j[0::2], j[1::2]
            x1, y1v = a2[0::2], b2[0::2]
            x2, y2v = a2[1::2], b2[1::2]
            good = ok[0::2] & ok[1::2]
            dist = np.hypot(x1 - x2, y1v - y2v)
            lhs = np.abs(j1 / j2 - 1.0)
            nz = good & (dist > 0)
            if nz.any():
                ratios = lhs[nz] / dist[nz]
                peak = float(ratios.max())
                if peak > worst_ratio:
                    worst_ratio = peak
                    worst_cell = {"n": n, "kind": kind}
            pairs += int(np.count_nonzero(good))
    return {
        "pairs": pairs,
        "worst_distortion_ratio": worst_ratio,
        "distortion_constant": DISTORTION_CONSTANT,
        "worst_cell": worst_cell,
        "pass": worst_ratio <= DISTORTION_CONSTANT,
    }


# --- suites -------------------------------------------------------------------

def lemma2(samples, seed, workers):
    report = verify_complete_implies_positive(12)
    return {
        "name": "lemma2",
        "paths_covered": report["paths_covered"],
        "violations": len(report["violations"]),
        "pass": report["ok"],
    }


def lemma3(samples, seed, workers):
    samples = samples or 10**5
    exp = expansion_experiment(samples, seed)
    dist = distortion_experiment(samples, seed)
    return {
        "name": "lemma3",
        "expansion_checked": exp["checked"],
        "expansion_failures": exp["failures"],
        "worst_expansion_margin": exp["worst_margin"],
        "distortion_pairs": dist["pairs"],
        "worst_distortion_ratio": dist["worst_distortion_ratio"],
        "pass": exp["failures"] == 0 and dist["pass"],
    }


def kerckhoff(samples, seed, workers):
    samples = samples or 10**6
    checks = []
    ok = True
    for t in (2.0, 5.0, 10.0, 100.0):
        freq = mc_kerckhoff(t, samples=samples, seed=seed, workers=workers)
        bound = 1.0 / t
        sigma = math.sqrt(bound * (1 - bound) / samples)
        passed = freq <= bound + 3 * sigma
        ok = ok and passed
        checks.append({
            "T": t,
            "frequency": freq,
            "bound": bound,
            "exact": float(kerckhoff_exact_probability(t)),
            "margin": bound + 3 * sigma - freq,
            "pass": passed,
        })
    return {"name": "kerckhoff", "samples": samples, "checks": checks, "pass": ok}


def roof_jacobian(samples, seed, workers):
    rng = np.random.default_rng((seed, 13))
    count = samples or 10**4
    a, b = sample_sorted_simplex(rng, 4 * count)
    keep = a > 0.5
    a, b = a[keep][:count], b[keep][:count]
    worst = 0.0
    checked = 0
    for x, y in zip(a, b):
        p = ChartPoint(float(x), float(y))
        cell = cell_of(p)
        if isinstance(cell, Hole):
            continue
        r = roof(p, [(cell.n, cell.kind)])
        j = jacobian(p)
        rel = abs(math.exp(3.0 * r) - j) / j
        worst = max(worst, rel)
        checked += 1
    return {
        "name": "roof-jacobian",
        "checked": checked,
        "worst_relative_error": worst,
        "pass": worst < 1e-9,
    }


def balance(samples, seed, workers):
    samples = samples or 10**5
    grid = [1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 10000.0]
    rows = mc_balance(grid, samples=samples, seed=seed, workers=workers)
    witnesses = [r for r in rows if r["probability"] > 1.0 / r["C"]]
    return {
        "name": "balance",
        "samples": samples,
        "checks": rows,
        "witness_C": witnesses[0]["C"] if witnesses else None,
        "pass": bool(witnesses),
    }


def partition(samples, seed, workers):
    checks = []
    ok = True
    for depth in (1, 2):
        totals = depth_totals(depth, n_cap=32)
        exact = totals["total"] == 1
        ok = ok and exact
        checks.append({
            "depth": depth,
            "sum": format_scalar(totals["total"]),
            "pass": exact,
        })
    lo, hi = survivor_mass(1)
    contains = lo <= Fraction(3, 4) <= hi
    ok = ok and contains
    checks.append({
        "survivor_depth1": [format_scalar(lo), format_scalar(hi)],
        "contains_3_4": contains,
        "pass": contains,
    })
    return {"name": "partition", "checks": checks, "pass": ok}


SUITES = {
    "lemma2": lemma2,
    "lemma3": lemma3,
    "kerckhoff": kerckhoff,
    "roof-jacobian": roof_jacobian,
    "partition": partition,
    "balance": balance,
}
