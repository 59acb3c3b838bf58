"""Command-line front door.

Machine-readable output only on stdout (JSON unless --format csv where
supported); logs on stderr.  Exit codes: 0 success (a hole is a result,
not a failure), 1 invariant violation, 2 bad input, 3 budget
insufficiency, 4 I/O error.  Stochastic commands take --seed (default:
RAUZY_SEED env var, else 0, always echoed); tail and verify also take
--workers, and their results are bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .induction import (
    Hole,
    HoleAt,
    InductionError,
    Survived,
    Tie,
    accelerated_step,
    classify_thin,
    format_scalar,
    make_system,
    parse_fraction,
    rauzy_step,
)
from .graph import build_graph
from .markov import (
    chaos_game,
    rasterize,
    write_pgm,
    write_points_binary,
    write_points_csv,
)
from .measures import NAMED_LOOPS, roof_tail
from .dimension import (
    BracketTooWide,
    DegenerateCloud,
    dimension_report,
    enumerate_cylinders,
    survivor_mass,
)
from .verify import SUITES, distortion_experiment

log = logging.getLogger("rauzygasket")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4

RENDER_MAX_SIDE = 8192  # the raster takes about 9 bytes per pixel


def _provenance(args, seed=None) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    out = {"version": __version__, "flags": {k: str(v) for k, v in flags.items()}}
    if seed is not None:
        out["seed"] = seed
    return out


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _positive_int(text: str) -> int:
    """argparse type of the counts that must be at least 1 (--samples,
    --points, --workers, tail's --cap, the --iters of step and classify),
    so a value below 1 exits 2 before any work."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of --seed, so a negative seed exits 2 before any
    work; numpy would reject it only where the first generator is built."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seed_of(args) -> int:
    """--seed, else RAUZY_SEED, else 0; every command calls it before any
    work, so a RAUZY_SEED that is not an integer >= 0 exits 2 as early as
    a negative --seed."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RAUZY_SEED")
    if not env:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"RAUZY_SEED must be an integer >= 0, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"RAUZY_SEED must be >= 0, got {seed}")
    return seed


# --- step / classify -------------------------------------------------------

def cmd_step(args) -> int:
    system = make_system(*(parse_fraction(x) for x in args.lengths))
    records = []
    current = system
    for i in range(1, args.iters + 1):
        out = accelerated_step(current) if args.accelerated else rauzy_step(current)
        if isinstance(out, Hole):
            rec = {"iteration": i, "outcome": "hole"}
            if args.accelerated:
                rec["substeps"] = out.substeps
            records.append(rec)
            break
        if isinstance(out, Tie):
            records.append({"iteration": i, "outcome": "tie"})
            break
        records.append({
            "iteration": i,
            "outcome": "continue",
            "winner": out.winner,
            "n": out.n,
            "matrix": [list(r) for r in out.matrix],
            **out.system.to_json(),
        })
        current = out.system
    _emit({"provenance": _provenance(args), "trace": records})
    return EXIT_OK


def cmd_classify(args) -> int:
    system = make_system(*(parse_fraction(x) for x in args.lengths))
    out = classify_thin(system, args.iters)
    if isinstance(out, Survived):
        result = {"outcome": "survived", "depth": out.depth}
    elif isinstance(out, HoleAt):
        result = {"outcome": "hole", "iteration": out.iteration}
    else:
        result = {"outcome": "tie", "iteration": out.iteration}
    _emit({"provenance": _provenance(args), "classification": result})
    return EXIT_OK


# --- graph -------------------------------------------------------------------

def cmd_graph(args) -> int:
    graph = build_graph()
    if args.format == "dot":
        sys.stdout.write(graph.to_dot() + "\n")
    else:
        payload = graph.to_json()
        payload["provenance"] = _provenance(args)
        _emit(payload)
    return EXIT_OK


# --- cylinders ----------------------------------------------------------------

def cmd_cylinders(args) -> int:
    floor = parse_fraction(args.floor) if args.floor else Fraction(0)
    records = enumerate_cylinders(args.depth, measure_floor=floor, n_cap=args.ncap)
    first = {"provenance": _provenance(args)}
    sys.stdout.write(json.dumps(first) + "\n")
    for cyl in records:
        sys.stdout.write(json.dumps(cyl.to_json()) + "\n")
    return EXIT_OK


# --- dimension ------------------------------------------------------------------

def cmd_dimension(args) -> int:
    seed = _seed_of(args)
    floor = parse_fraction(args.floor) if args.floor else Fraction(1, 10**12)
    report = dimension_report(
        delta_depth=args.depth,
        alpha_depth=args.acc_depth,
        n_cap=args.ncap,
        measure_floor=floor,
        points=args.points,
        seed=seed,
    )
    lo, hi = survivor_mass(1)
    payload = report.to_json()
    payload["survivor_depth1"] = [format_scalar(lo), format_scalar(hi)]
    payload["provenance"] = _provenance(args, seed=seed)
    _emit(payload)
    return EXIT_OK


# --- tail ------------------------------------------------------------------------

def cmd_tail(args) -> int:
    seed = _seed_of(args)
    loop = NAMED_LOOPS[args.loop]()
    t_grid = [float(x) for x in args.t_grid.split(",")] if args.t_grid else None
    curve = roof_tail(
        loop,
        samples=args.samples,
        t_grid=t_grid,
        seed=seed,
        cap=args.cap,
        workers=args.workers,
        loop_name=args.loop,
    )
    if args.format == "csv":
        prov = f"# version={__version__} seed={seed} loop={args.loop} samples={args.samples}"
        sys.stdout.write(prov + "\n" + curve.to_csv() + "\n")
    else:
        payload = curve.to_json()
        payload["provenance"] = _provenance(args, seed=seed)
        _emit(payload)
    if curve.samples < args.samples:
        log.error(
            "draw cap reached with %d of %d returns; the report covers what "
            "was drawn", curve.samples, args.samples,
        )
        return EXIT_BUDGET
    return EXIT_OK


# --- render -----------------------------------------------------------------------

def _stage(name: str, fn, /, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its wall time logged at DEBUG as one
    JSON line, as ``dimension_report`` logs its stages."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    log.debug("%s", json.dumps({"stage": name, "wall_s": time.perf_counter() - t0}))
    return out


def cmd_render(args) -> int:
    seed = _seed_of(args)
    try:
        width, height = (int(x) for x in args.size.lower().split("x"))
    except ValueError:
        log.error("size must look like 1024x1024")
        return EXIT_BAD_INPUT
    if width < 64 or height < 64:
        log.error("size must be at least 64x64")
        return EXIT_BAD_INPUT
    if max(width, height) > RENDER_MAX_SIDE:
        log.error("size must be at most %dx%d", RENDER_MAX_SIDE, RENDER_MAX_SIDE)
        return EXIT_BAD_INPUT
    prov = {"version": __version__, "seed": seed, "points": args.points}
    with open(args.out, "wb") as fh:  # an unwritable path fails before the work
        points = _stage("chaos_game", chaos_game, args.points, seed=seed)
        image = _stage("rasterize", rasterize, points, width, height)
        _stage("write", write_pgm, image, fh, provenance=prov)
    _emit({"provenance": _provenance(args, seed=seed), "out": args.out,
           "occupied_pixels": int(np.count_nonzero(image))})
    return EXIT_OK


def cmd_points(args) -> int:
    seed = _seed_of(args)
    prov = {"version": __version__, "seed": seed, "points": args.points}
    with open(args.out, "w" if args.format == "csv" else "wb") as fh:
        points = chaos_game(args.points, seed=seed)
        if args.format == "csv":
            write_points_csv(points, fh, provenance=prov)
        else:
            write_points_binary(points, fh)
    _emit({"provenance": _provenance(args, seed=seed), "out": args.out})
    return EXIT_OK


# --- distortion --------------------------------------------------------------------

def cmd_distortion(args) -> int:
    seed = _seed_of(args)
    result = distortion_experiment(args.samples, seed)
    result["provenance"] = _provenance(args, seed=seed)
    _emit(result)
    return EXIT_OK if result["pass"] else EXIT_VIOLATION


# --- verify -------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _seed_of(args)
    report = SUITES[args.suite](args.samples, seed, args.workers)
    if args.format == "csv" and "checks" in report:
        keys = sorted({k for row in report["checks"] for k in row if k != "pass"})
        sys.stdout.write(f"# version={__version__} seed={seed} suite={args.suite}\n")
        sys.stdout.write(",".join(keys) + "\n")
        for row in report["checks"]:
            sys.stdout.write(",".join(str(row.get(k, "")) for k in keys) + "\n")
    else:
        report["provenance"] = _provenance(args, seed=seed)
        _emit(report)
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


# --- parser --------------------------------------------------------------------------

def _add_seed(p):
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="RNG seed (default: RAUZY_SEED env var or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rauzy-gasket",
        description="Exact Rauzy induction, its Markov map, and dimension bounds",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="run induction steps on exact lengths")
    p.add_argument("lengths", nargs=3, help='three rationals "p/q" summing to 1')
    p.add_argument("--iters", type=_positive_int, default=1)
    p.add_argument("--accelerated", action="store_true")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("classify", help="probe thin type up to a depth")
    p.add_argument("lengths", nargs=3)
    p.add_argument("--iters", type=_positive_int, default=50)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graph", help="dump the induction graph")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cylinders", help="exact cylinder enumeration (JSON lines)")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--ncap", type=int, default=64)
    p.add_argument("--floor", default=None, help='measure floor as "p/q"')
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("dimension", help="full dimension pipeline report")
    p.add_argument("--depth", type=int, default=10,
                   help="elementary depth for the decay rate")
    p.add_argument("--acc-depth", type=int, default=2,
                   help="accelerated depth for the fast-decay exponent")
    p.add_argument("--ncap", type=int, default=128)
    p.add_argument("--floor", default=None)
    p.add_argument("--points", type=_positive_int, default=10**6)
    _add_seed(p)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("tail", help="first-return roof tail")
    p.add_argument("--loop", choices=sorted(NAMED_LOOPS), default="ccc")
    p.add_argument("--samples", type=_positive_int, default=10**5)
    p.add_argument("--cap", type=_positive_int, default=10**4)
    p.add_argument("--t-grid", default=None, help="comma-separated thresholds")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_seed(p)
    p.add_argument("--workers", type=_positive_int, default=1, help="Monte Carlo threads")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("render", help="rasterize the gasket to a PGM file")
    p.add_argument("--points", type=_positive_int, default=10**6)
    p.add_argument("--size", default="1024x1024",
                   help=f"WIDTHxHEIGHT, each side 64..{RENDER_MAX_SIDE}")
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="accepted and not used: render runs on one thread")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("points", help="emit a chaos-game point cloud")
    p.add_argument("--points", type=_positive_int, default=10**5)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("distortion", help="distortion-bound experiment")
    p.add_argument("--samples", type=_positive_int, default=10**5)
    _add_seed(p)
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("verify", help="named invariant suites")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_seed(p)
    p.add_argument("--workers", type=_positive_int, default=1, help="Monte Carlo threads")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except InductionError as exc:
        log.error("%s", exc)
        return EXIT_BAD_INPUT
    except (BracketTooWide, DegenerateCloud) as exc:
        log.error("%s", exc)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:
        log.error("%s", exc)
        return EXIT_BAD_INPUT
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
