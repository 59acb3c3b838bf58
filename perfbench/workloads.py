"""The three workloads.  Each is one pass of stage calls on inputs made from
the seed, the checks of their outputs, and the names a traced pass wraps.

A workload object is built once per process (that is the set-up the
benchmark times) and then runs any number of passes.  ``run`` makes the
stage calls through ``call(operation, function, *args)`` and returns the
outputs by operation; an operation is named after the function it calls,
with a suffix in brackets where one pass calls it more than once.  A stage
that raises ends the pass.  ``check`` returns the problems of each
operation's output.
"""

from __future__ import annotations

import contextlib
import io
import os
from fractions import Fraction

from rauzygasket import cli, dimension, markov, measures

import checks

WORKERS = 2
FLOOR = Fraction(1, 10**12)


class Dimension:
    """The stages of ``rauzy-gasket dimension`` at its defaults."""

    ops = ("dimension.delta_estimate", "dimension.fast_decay_estimate",
           "markov.chaos_game", "dimension.box_counting", "dimension.ad_bound")
    delta_depth = 10
    alpha_depth = 2
    n_cap = 128
    points = 10**6
    box_exponents = tuple(range(4, 11))

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.sizes = [2.0**-k for k in self.box_exponents]

    def warm_up(self) -> None:
        delta = dimension.delta_estimate(3, measure_floor=FLOOR)
        alpha = dimension.fast_decay_estimate(1, n_cap=8, measure_floor=FLOOR)
        cloud = markov.chaos_game(10**4, seed=self.seed, workers=WORKERS)
        dimension.box_counting(cloud, self.sizes)
        dimension.ad_bound(delta.exponent, alpha.exponent)

    def run(self, call) -> dict:
        out = {}
        out["dimension.delta_estimate"] = call(
            "dimension.delta_estimate", dimension.delta_estimate,
            self.delta_depth, measure_floor=FLOOR)
        out["dimension.fast_decay_estimate"] = call(
            "dimension.fast_decay_estimate", dimension.fast_decay_estimate,
            self.alpha_depth, n_cap=self.n_cap, measure_floor=FLOOR)
        out["markov.chaos_game"] = call(
            "markov.chaos_game", markov.chaos_game, self.points, seed=self.seed, workers=WORKERS)
        out["dimension.box_counting"] = call(
            "dimension.box_counting", dimension.box_counting, out["markov.chaos_game"], self.sizes)
        out["dimension.ad_bound"] = call(
            "dimension.ad_bound", dimension.ad_bound,
            out["dimension.delta_estimate"].exponent, out["dimension.fast_decay_estimate"].exponent)
        return out

    def check(self, out) -> dict:
        delta = out["dimension.delta_estimate"]
        alpha = out["dimension.fast_decay_estimate"]
        cloud = out["markov.chaos_game"]
        return {
            "dimension.delta_estimate": checks.check_delta(delta, self.delta_depth),
            "dimension.fast_decay_estimate": checks.check_alpha(
                alpha, self.alpha_depth, self.n_cap, FLOOR),
            "markov.chaos_game": checks.check_cloud(cloud),
            "dimension.box_counting": checks.check_box(
                out["dimension.box_counting"], cloud, self.box_exponents),
            "dimension.ad_bound": checks.check_bound(
                out["dimension.ad_bound"], delta.exponent, alpha.exponent),
        }

    def counts(self, out) -> dict:
        return {"points": self.points}

    trace_targets = (
        (dimension, "survivor_mass", "dimension.survivor_mass", False),
        (dimension, "enumerate_cylinders", "dimension.enumerate_cylinders", True),
        (dimension, "elementary_children", "measures.elementary_children", False),
        (dimension, "block_child", "measures.block_child", False),
        (dimension, "hole_mass_at", "measures.hole_mass_at", False),
    )


def captured_main(argv):
    """``cli.main(argv)`` with stdout captured: (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class FirstReturns:
    """Float Monte Carlo: first-return roofs on the ``ccc`` loop and their
    tail fit (the two stages of ``roof_tail``, called one by one so the
    draw count can be checked), Kerckhoff frequencies and the balance
    grid of ``verify --suite balance``."""

    returns = 3 * 10**5
    kerckhoff_t = (2.0, 5.0, 10.0, 100.0)
    kerckhoff_samples = 4 * 10**6
    balance_grid = (1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 10000.0)
    balance_samples = 10**6
    ops = ("measures.return_roofs", "measures.fit_tail") + tuple(
        f"measures.mc_kerckhoff[T={t:g}]" for t in kerckhoff_t) + ("measures.mc_balance",)

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.loop = measures.loop_ccc()
        measures.validate_loop(self.loop)

    def warm_up(self) -> None:
        measures.mc_kerckhoff(2.0, samples=10**4, seed=self.seed, workers=WORKERS)
        measures.mc_balance(self.balance_grid, samples=10**4, seed=self.seed, workers=WORKERS)

    def run(self, call) -> dict:
        out = {}
        roofs, drawn, lost = out["measures.return_roofs"] = call(
            "measures.return_roofs", measures.return_roofs,
            self.loop, self.returns, seed=self.seed, workers=WORKERS)
        out["measures.fit_tail"] = call("measures.fit_tail", measures.fit_tail, roofs, drawn)
        for t in self.kerckhoff_t:
            name = f"measures.mc_kerckhoff[T={t:g}]"
            out[name] = call(name, measures.mc_kerckhoff, t,
                             samples=self.kerckhoff_samples, seed=self.seed, workers=WORKERS)
        out["measures.mc_balance"] = call(
            "measures.mc_balance", measures.mc_balance, self.balance_grid,
            samples=self.balance_samples, seed=self.seed, workers=WORKERS)
        return out

    def check(self, out) -> dict:
        roofs, drawn, lost = out["measures.return_roofs"]
        found = {
            "measures.return_roofs": checks.check_returns(roofs, drawn, lost, self.returns),
            "measures.fit_tail": checks.check_tail(out["measures.fit_tail"]),
            "measures.mc_balance": checks.check_balance(
                out["measures.mc_balance"], self.balance_samples),
        }
        for t in self.kerckhoff_t:
            name = f"measures.mc_kerckhoff[T={t:g}]"
            found[name] = checks.check_kerckhoff(out[name], t, self.kerckhoff_samples)
        return found

    def counts(self, out) -> dict:
        roofs, drawn, lost = out["measures.return_roofs"]
        return {"drawn": drawn, "returns": int(roofs.size), "lost": lost,
                "kerckhoff_samples": len(self.kerckhoff_t) * self.kerckhoff_samples}

    trace_targets = (
        (measures, "accelerated_step_batch", "markov.accelerated_step_batch", False),
    )


class Render:
    """``rauzy-gasket render --points 8000000 --size 1024x1024`` through
    ``cli.main``, in process: the chaos game, the raster and the PGM.  The
    cloud is kept for its check by wrapping the name ``cli`` calls the chaos
    game through; the raster is checked as the PGM file holds it."""

    ops = ("cli.main",)
    points = 8 * 10**6
    width = height = 1024

    def __init__(self, seed: int, scratch: str):
        self.out_path = os.path.join(scratch, f"render-{os.getpid()}.pgm")
        self.common = ["--out", self.out_path, "--seed", str(seed), "--workers", str(WORKERS)]
        self.argv = ["render", "--points", str(self.points),
                     "--size", f"{self.width}x{self.height}"] + self.common

    def warm_up(self) -> None:
        captured_main(["render", "--points", "10000", "--size", "64x64"] + self.common)
        os.remove(self.out_path)

    def run(self, call) -> dict:
        clouds = []
        chaos_game = cli.chaos_game

        def keep(*args, **kwargs):
            clouds.append(chaos_game(*args, **kwargs))
            return clouds[-1]

        cli.chaos_game = keep
        try:
            report = call("cli.main", captured_main, self.argv)
        finally:
            cli.chaos_game = chaos_game
        return {"cli.main": report, "cloud": clouds[-1] if clouds else None}

    def check(self, out) -> dict:
        code, report = out["cli.main"]
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += checks.check_cloud(out["cloud"])
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems.append(f"cannot read the PGM back: {exc}")
        else:
            problems += checks.check_render(data, report, self.width, self.height)
        return {"cli.main": problems}

    def counts(self, out) -> dict:
        return {"points": self.points}

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)

    trace_targets = (
        (cli, "chaos_game", "markov.chaos_game", False),
        (cli, "rasterize", "markov.rasterize", False),
        (cli, "write_pgm", "markov.write_pgm", False),
    )


WORKLOADS = {"dimension": Dimension, "first_returns": FirstReturns, "render": Render}
