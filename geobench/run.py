"""Benchmark of geosynth: time per analysis against an in-run reference kernel.

Usage (from the repository root)::

    python3 geobench/run.py --workload scalar_placebo --seed 1 --seconds 28 --trace 0

``--trace 0`` runs analyses back to back for ``--seconds`` seconds, in whole
analyses, and prints the end-to-end metrics. ``--trace 1`` wraps the
program's module boundaries (see ``tracing.py``), runs a fixed two
analyses and prints the per-layer metrics, per analysis. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the machine facts,
the raw per-analysis times and the seconds metrics.

The program is imported from ``src/`` next to this directory; without it
the script exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "runs")
TRACE_ANALYSES = 2


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run_analyses(workload, deadline=None, tracer=None):
    """Run analyses; return the timings of each round, how many ran and failed, and correctness.

    In timed mode analyses run in whole rounds (one per pool panel), and a
    new round starts only while the longest round so far still fits before
    ``deadline`` (a ``perf_counter`` time); at least one round runs. In
    traced mode one round of ``TRACE_ANALYSES`` analyses runs, and a
    paired workload analyses one panel twice so that its pair check runs.
    """
    from checks import CheckError
    from workloads import Clock

    paired = tracer is not None and workload.PAIRED
    per_round = TRACE_ANALYSES if tracer is not None else workload.round_size
    rounds, failed, correct = [], 0, True
    record, longest, index = None, 0.0, 0
    while True:
        started = time.perf_counter()
        rounds.append([])
        for _ in range(per_round):
            repeat = paired and index % 2 == 1
            inputs = workload.inputs(index // 2 if paired else index, repeat)
            clock = Clock(tracer)
            try:
                record = workload.analyze(inputs, clock, record if repeat else None)
                rounds[-1].append(clock.finish())
            except CheckError:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                correct = False
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failed += 1
            index += 1
        longest = max(longest, time.perf_counter() - started)
        if tracer is not None or time.perf_counter() + longest > deadline:
            break
    return rounds, index, failed, correct


def e2e_metrics(rounds) -> tuple[dict, dict]:
    """Medians over rounds of the mean per analysis, in seconds and kernel units.

    A round analyses every pool panel once, so its mean weighs the panels
    equally however many rounds a run holds; the median over rounds then
    discards slow or fast outliers of the host. The unit ``ref`` is the
    mean of every kernel run in the run. Not the median: the host's speed
    switches between two levels about 1.6x apart within seconds, and the
    median of the kernel times jumps between them.
    """
    rounds = [r for r in rounds if r]
    seconds = {
        f"{k}_s": statistics.median(statistics.fmean(t.seconds[k] for t in r) for r in rounds)
        for k in ("estimate", "placebo", "analysis")
    }
    seconds["kernel_s"] = statistics.fmean(k for r in rounds for t in r for k in t.kernel_s)
    ref = {f"{k}_ref": seconds[f"{k}_s"] / seconds["kernel_s"]
           for k in ("estimate", "placebo", "analysis")}
    return ref, seconds


def layer_metrics(tracer, rounds, names, n: int) -> dict:
    """Per-analysis values of the per-layer metrics named in BENCHMARK.json.

    ``trace.analysis_ref`` is ``analysis_ref`` measured with tracing on;
    against an untraced run it gives the tracing overhead.
    """
    out = {}
    for name in names:
        if name == "trace.analysis_ref":
            value = e2e_metrics(rounds)[0]["analysis_ref"] if any(rounds) else 0.0
            unit = "ref"
        elif name == "estimators.panel.builds":
            value, unit = tracer.calls.get("estimators.panel", 0) / n, "count/analysis"
        elif name.endswith(".calls"):
            value, unit = tracer.calls.get(name[: -len(".calls")], 0) / n, "count/analysis"
        elif name.endswith(".self_s"):
            value, unit = tracer.self_ns.get(name[: -len(".self_s")], 0) / 1e9 / n, "s/analysis"
        elif name.startswith("cli_io.bytes"):
            value, unit = tracer.counts.get(name, 0) / n, "B/analysis"
        else:
            value, unit = tracer.counts.get(name, 0) / n, "count/analysis"
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import geosynth
    except ImportError as exc:
        print(f"geobench: cannot import geosynth from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(geosynth.__file__).startswith(src + os.sep):
        print(f"geobench: geosynth came from {geosynth.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from kernel import time_kernel
    from tracing import Tracer
    from workloads import WORKLOADS, SpdCli

    if args.workload not in WORKLOADS:
        print(f"geobench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 64
    workdir = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        workload = cls(args.seed, workdir) if cls is SpdCli else cls(args.seed)
        workload.warm_up()
        time_kernel()
        setup_s = process_age()

        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                rounds, attempted, failed, correct = run_analyses(workload, tracer=tracer)
            tracer.save(os.path.join(RUNS_DIR, f"trace-{args.workload}-{args.seed}.npz"))
            names = [m["name"] for m in spec["per_layer"]]
            metrics = layer_metrics(tracer, rounds, names, attempted)
            details = {"counts": tracer.counts, "calls": tracer.calls}
        else:
            deadline = time.perf_counter() + args.seconds
            rounds, attempted, failed, correct = run_analyses(workload, deadline)
            if not any(rounds):
                print("geobench: every analysis failed", file=sys.stderr)
                return 1
            ref, seconds = e2e_metrics(rounds)
            values = dict(ref, **seconds, setup_s=setup_s,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
            details = {
                "seconds": seconds,
                "rounds": [
                    [{"seconds": t.seconds, "kernel_s": t.kernel_s} for t in r] for r in rounds
                ],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": machine_facts(), **details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
