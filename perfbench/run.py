"""Benchmark of the rauzygasket package: run one workload, check its
outputs against references computed apart from the program, and print
the metrics named in BENCHMARK.json.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload dimension --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
traced run, which also runs the untraced passes to measure the tracing
overhead.  The exit code is 1 when any output check fails, 2 when the
checkout or the arguments are unusable.  Full results and spans go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120

_now = time.perf_counter


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Import the package from this checkout's sources, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rauzygasket", "__init__.py")):
        fail(f"no package sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import rauzygasket

    if not os.path.abspath(rauzygasket.__file__).startswith(SRC + os.sep):
        fail(f"imported rauzygasket from {rauzygasket.__file__}, not from {SRC}")


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, up to the first timed pass."""
    times = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
        t0 = _now()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(_now() - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            fail(f"set-up of {workload} exited with code {done.returncode}")
    return statistics.median(times)


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float  # peak resident size so far, read before the checks
    timings: dict
    problems: dict
    counts: dict


def run_pass(work, tracer=None) -> Pass:
    timings = {}

    def call(op, fn, *args, **kwargs):
        t0 = _now()
        try:
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(op.split("[")[0]):
                return fn(*args, **kwargs)
        finally:
            timings[op] = _now() - t0

    out = {}
    raised = None
    cpu0 = time.process_time()
    t0 = _now()
    try:
        if tracer is None:
            out = work.run(call)
        else:
            with spans.patched(tracer, work.trace_targets):
                out = work.run(call)
    except Exception:  # a stage that raises is a failed operation
        raised = traceback.format_exc()
    wall = _now() - t0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {}
    counts = {}
    if raised is None:
        try:
            problems = work.check(out)
            counts = work.counts(out)
        except Exception:
            raised = traceback.format_exc()
    if raised is not None:
        problems = {op: [f"raised:\n{raised}"] for op in work.ops}
    return Pass(wall, cpu, rss_mb, timings, problems, counts)


def run_passes(work, seconds: float, count=None, tracer_factory=None) -> tuple:
    """Whole passes until the next one would end after ``seconds`` (at
    least one), or exactly ``count`` passes."""
    passes = []
    tracers = []
    begin = _now()
    longest = 0.0
    while True:
        t0 = _now()
        tracer = tracer_factory() if tracer_factory else None
        passes.append(run_pass(work, tracer))
        tracers.append(tracer)
        longest = max(longest, _now() - t0)
        if count is not None:
            if len(passes) == count:
                break
        elif _now() - begin + longest > seconds:
            break
    return passes, tracers


def layer_metrics(tracer, p: Pass) -> dict:
    summary = spans.summarize(tracer.spans)
    busy, calls, self_s = summary["s"], summary["calls"], summary["self_s"]

    def s(name):
        return busy.get(name, 0.0)

    def per(num, den):
        return num / den if den else 0.0

    records = tracer.counts.get("dimension.enumerate_cylinders.items", 0)
    c = p.counts
    return {
        "cli.main.s": s("cli.main"),
        "cli.self_s": self_s.get("cli", 0.0),
        "dimension.delta_estimate.s": s("dimension.delta_estimate"),
        "dimension.survivor_mass.s": s("dimension.survivor_mass"),
        "dimension.survivor_mass.calls": calls.get("dimension.survivor_mass", 0),
        "dimension.fast_decay_estimate.s": s("dimension.fast_decay_estimate"),
        "dimension.box_counting.s": s("dimension.box_counting"),
        "dimension.enumerate_cylinders.s": s("dimension.enumerate_cylinders"),
        "dimension.enumerate_cylinders.records": records,
        "dimension.enumerate_cylinders.records_per_s": per(records, s("dimension.enumerate_cylinders")),
        "dimension.self_s": self_s.get("dimension", 0.0),
        "measures.elementary_children.calls": calls.get("measures.elementary_children", 0),
        "measures.elementary_children.s": s("measures.elementary_children"),
        "measures.block_child.calls": calls.get("measures.block_child", 0),
        "measures.block_child.s": s("measures.block_child"),
        "measures.hole_mass_at.calls": calls.get("measures.hole_mass_at", 0),
        "measures.hole_mass_at.s": s("measures.hole_mass_at"),
        "measures.return_roofs.s": s("measures.return_roofs"),
        "measures.fit_tail.s": s("measures.fit_tail"),
        "measures.mc_kerckhoff.s": s("measures.mc_kerckhoff"),
        "measures.mc_balance.s": s("measures.mc_balance"),
        "measures.return_roofs.drawn": c.get("drawn", 0),
        "measures.return_roofs.returns": c.get("returns", 0),
        "measures.return_roofs.lost": c.get("lost", 0),
        "measures.return_roofs.returns_per_draw": per(c.get("returns", 0), c.get("drawn", 0)),
        "measures.mc_kerckhoff.samples_per_s": per(c.get("kerckhoff_samples", 0),
                                                   s("measures.mc_kerckhoff")),
        "measures.self_s": self_s.get("measures", 0.0),
        "markov.accelerated_step_batch.calls": calls.get("markov.accelerated_step_batch", 0),
        "markov.accelerated_step_batch.s": s("markov.accelerated_step_batch"),
        "markov.chaos_game.s": s("markov.chaos_game"),
        "markov.chaos_game.points_per_s": per(c.get("points", 0), s("markov.chaos_game")),
        "markov.rasterize.s": s("markov.rasterize"),
        "markov.write_pgm.s": s("markov.write_pgm"),
        "markov.self_s": self_s.get("markov", 0.0),
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median_low(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (timed as setup_s)")
    args = parser.parse_args(argv)

    spec = None if args.setup_only else load_spec()
    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    if args.setup_only:
        work = WORKLOADS[args.workload](args.seed, RESULTS)
        work.warm_up()
        return 0

    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    work = WORKLOADS[args.workload](args.seed, RESULTS)
    work.warm_up()
    try:
        passes, _ = run_passes(work, args.seconds)
        traced, tracers = [], []
        if args.trace:
            traced, tracers = run_passes(work, args.seconds, count=len(passes),
                                         tracer_factory=spans.Tracer)
    finally:
        getattr(work, "close", lambda: None)()

    every = passes + traced
    attempted = len(work.ops) * len(every)
    failed = sum(1 for p in every for op in work.ops if p.problems.get(op, ["no output"]))
    correct = failed == 0
    wall_s = statistics.median(p.wall for p in passes)

    if args.trace:
        layers = median_of([layer_metrics(t, p) for t, p in zip(tracers, traced)])
        layers["process.cpu_s"] = statistics.median(p.cpu for p in passes)
        layers["process.cpu_per_wall"] = statistics.median(p.cpu / p.wall for p in passes)
        layers["trace.overhead_s"] = statistics.median(p.wall for p in traced) - wall_s
        wanted = spec["per_layer"]
        values = layers
        trace_path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(trace_path, "w") as fh:
            fh.write(json.dumps(["pass", "id", "name", "parent", "thread", "start", "end"]) + "\n")
            for i, tracer in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps([i, *span]) + "\n")
    else:
        wanted = spec["end_to_end"]
        # the first pass's peak: later readings would include the memory of
        # the checks run between passes
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": passes[0].rss_mb}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench: workload {args.workload}, seed {args.seed}: {len(passes)} passes"
          + (f" and {len(traced)} traced passes" if traced else "")
          + f", {attempted} operations attempted, {failed} failed")
    for i, p in enumerate(every):
        for op in work.ops:
            problems = p.problems.get(op, ["no output"])
            took = p.timings.get(op)
            took = f"{took:.4f} s" if took is not None else "-"
            print(f"  pass {i} {op}: {took} {'FAILED' if problems else 'ok'}")
            for problem in problems:
                print(f"    {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  passes=[{"wall_s": p.wall, "cpu_s": p.cpu, "stages_s": p.timings} for p in passes],
                  traced_passes=[{"wall_s": p.wall, "stages_s": p.timings} for p in traced])
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
