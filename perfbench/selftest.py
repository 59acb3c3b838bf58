"""Fast self-test of the benchmark's references and checks (a few seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that each independent reference agrees with the program at small
sizes, and that each output check rejects a deliberately corrupted
output.  Exits 1 if any of them disagrees.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from rauzygasket import dimension, markov, measures  # noqa: E402

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def references_agree() -> None:
    floats, exact = refs.survivor_masses(4, exact_depth=4)
    for d in range(1, 5):
        lo, hi = dimension.survivor_mass(d)
        expect(lo == hi == exact[d], f"survivor mass at depth {d} is {exact[d]}")
        expect(abs(floats[d] - float(exact[d])) <= 1e-15, f"float survivor mass at depth {d}")
    expect(exact[1] == Fraction(3, 4), "depth-1 survivor mass is 3/4")

    program = {c.path: c.measure for c in dimension.enumerate_cylinders(1, n_cap=8)
               if c.kind == "branch"}
    ours = {path: Fraction(6, den) for path, den in refs.accelerated_leaves(1, 8)}
    expect(program == ours, f"depth-1 accelerated cylinders, n_cap 8 ({len(ours)} masses)")

    cloud = markov.chaos_game(10**4, seed=3)
    expect(not checks.check_cloud(cloud), "10^4-point cloud passes the property check")
    fit = dimension.box_counting(cloud, [2.0**-k for k in range(4, 11)])
    ref = refs.box_counts(cloud, range(4, 11))
    expect(fit.counts == [ref[k] for k in range(10, 3, -1)], "box counts of the 10^4-point cloud")

    expect(abs(refs.kerckhoff_share(5.0) - float(measures.kerckhoff_exact_probability(5.0))) < 1e-15,
           "Kerckhoff share at T = 5")


def checks_reject_corruption() -> None:
    cloud = markov.chaos_game(10**4, seed=3)
    moved = cloud.copy()
    moved[17] = (1 / 3, 1 / 3)
    expect(bool(checks.check_cloud(moved)), "a point moved into the central triangle is rejected")

    roofs, drawn, lost = measures.return_roofs(measures.loop_ccc(), 1000, seed=3)
    expect(not checks.check_returns(roofs, drawn, lost, 1000), "return counts pass as drawn")
    expect(bool(checks.check_returns(roofs, drawn + 1, lost, 1000)), "drawn off by one is rejected")

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", "selftest.pgm")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    code, report = workloads.captured_main(
        ["render", "--points", "100000", "--size", "256x256", "--out", path, "--seed", "3"])
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    expect(code == 0 and not checks.check_render(data, report, 256, 256),
           "256x256 render passes the PGM, raster and report checks")
    expect(bool(checks.check_render(data[:-1], report, 256, 256)),
           "a PGM one byte short is rejected")
    _, image = checks.check_pgm(data, 256, 256)
    lit = image.copy()
    lit[170, 128] = 200  # the centre of the removed triangle
    expect(bool(checks.check_image(lit, 256, 256)), "a pixel lit in the central triangle is rejected")


def main() -> int:
    references_agree()
    checks_reject_corruption()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
