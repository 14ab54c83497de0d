#!/usr/bin/env python3
"""Closed-loop benchmark of the longevity toolkit, end to end and per layer.

Run from the root of a checkout, which must hold the package under ``src/``:

    python3 perfbench/run.py --workload option-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the package's layer boundaries and reports per-layer
metrics.  Readable ``workload metric value unit`` lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload both ways and prints every metric.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNT_METRICS, LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("option-grid", "mortality-book", "cli-cold")
SETUP_PROBES = 5   # fresh processes timed per run; setup_s is their median
CLI_PROBES = 3     # repeats of each interpreter/import probe in a traced run
# Nominal times of the two speed references, in ms: about what a shared
# 2-vCPU Xeon virtual machine gives when no other tenant loads it.  Reported times are
# scaled to the machine speed at which the references take these times.
REFERENCE_INTERP_MS = 50.0
REFERENCE_TASK_MS = 45.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
CLI_UNITS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.run_ms": "ms",
}


def _say(workload: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"{workload:15s} {name:42s} {value:14.6g} {unit:6s} {note}".rstrip())


def _prepare(workload, seed: int, workdir: Path):
    """Set the workload up and draw its first input block."""
    state = workload.setup(seed, workdir)
    head = list(itertools.islice(state["ops"], workload.trace_ops))
    state["ops"] = itertools.chain(head, state["ops"])
    return state, head


def _attempt(state, op, execute, check):
    """Time one operation; return (seconds, output, problem or None)."""
    start = time.perf_counter()
    try:
        out = execute(state, op)
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        problem = check(state, op, out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, out, problem


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {name} failed (exit {proc.returncode})")
    return elapsed


def _report_failure(problems: list[str], problem: str) -> None:
    if len(problems) < 5:
        print(f"failed: {problem}", file=sys.stderr)
    problems.append(problem)


# ------------------------------------------------------------ end to end #

def _interp_start_ms() -> float:
    """Wall time of a bare ``python -c pass``: the speed reference for interpreter start."""
    return _child_ms([sys.executable, "-c", "pass"])[0]


def _reference_task_ms() -> float:
    """Wall time of fixed numerical work: the speed reference for in-process operations.

    A small fitted-style implicit march with a banded solve, then 50k
    Python payoff callbacks over sampled death years.  It imports nothing
    from the package, so no change to the package can move it.  numpy and
    scipy are imported here, not at the top, so that set-up probes still
    pay for whatever the package imports.
    """
    import numpy as np
    import scipy.linalg

    start = time.perf_counter()
    x = np.linspace(0.0, 4.0, 401)
    u = np.maximum(1.0 - x, 0.0)
    bands = np.zeros((3, 399))  # the two unused corners must be finite
    for _ in range(400):
        sig = 0.02 * x[1:-1] ** 2
        mu = 0.05 * x[1:-1]
        q = mu * 0.01 / (2.0 * sig + 1e-300)
        rho = np.where(np.abs(q) > 1e-8, q / np.tanh(np.where(q == 0.0, 1.0, q)), 1.0)
        sub, sup = sig * rho - 0.5 * mu, sig * rho + 0.5 * mu
        bands[0, 1:] = -0.01 * sup[:-1]
        bands[1] = 1.0 + 0.01 * (sub + sup)
        bands[2, :-1] = -0.01 * sub[1:]
        u[1:-1] = scipy.linalg.solve_banded((1, 1), bands, u[1:-1])
    gen = np.random.Generator(np.random.Philox(7))
    years = np.searchsorted(np.linspace(0.01, 1.0, 46), gen.random(50_000)) + 1
    levels = np.exp(gen.standard_normal(50_000))
    a = 1.0 / 1.05

    def payoff(level, year):
        return max(a ** year * 30.0 - 20.0, 0.0)
    values = np.array([float(payoff(s, int(y))) for s, y in zip(levels, years)])
    float(values.mean() + values.std() + u.sum())
    return (time.perf_counter() - start) * 1e3


def _scaled(latencies: list[float], marks: list[int], samples: list[float],
            nominal: float) -> list[float]:
    """Scale each operation by the reference samples taken around it.

    Sample ``k`` was taken once ``marks[k]`` operations had finished; an
    operation uses the median of the sample before it and its neighbours.
    """
    out, k = [], 0
    for i, seconds in enumerate(latencies):
        while k + 1 < len(marks) and marks[k + 1] <= i:
            k += 1
        out.append(seconds * nominal / statistics.median(samples[max(0, k - 1):k + 2]))
    return out


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced closed loop for ``seconds`` of busy time, plus set-up probes.

    Times are scaled to a reference machine speed, since other tenants'
    load changes this machine's speed by up to 1.9x for minutes (README.md
    gives the measurements).  ``setup_s`` and operations that are processes
    use a bare interpreter start as the reference, in-process operations
    ``_reference_task_ms``.  Operation references are sampled before the
    first operation and after each further second of operations.
    """
    probes, interp = [], []
    for _ in range(SETUP_PROBES):
        interp.append(_interp_start_ms())
        probes.append(_probe_setup(workload.name, seed))
    state, _ = _prepare(workload, seed, workdir)
    reference, nominal = ((_interp_start_ms, REFERENCE_INTERP_MS) if workload.spawns
                          else (_reference_task_ms, REFERENCE_TASK_MS))
    marks, samples = [0], [reference()]
    latencies: list[float] = []
    problems: list[str] = []
    child_rss_kb = 0
    price_err = 0.0
    since_sample = 0.0
    for op in state["ops"]:
        elapsed, out, problem = _attempt(state, op, workload.execute, workload.check)
        latencies.append(elapsed)
        if problem is not None:
            _report_failure(problems, problem)
        elif workload.name == "option-grid" and op.style == "european":
            price_err = max(price_err, abs(workload.european_error(op, out)))
        if workload.spawns and out is not None:
            child_rss_kb = max(child_rss_kb, out.max_rss_kb)
        since_sample += elapsed
        if since_sample >= 1.0:
            since_sample = 0.0
            marks.append(len(latencies))
            samples.append(reference())
        if len(latencies) > 1 and sum(latencies) >= seconds:
            break
    if not workload.spawns:
        child_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(latencies)
    setup_scale = REFERENCE_INTERP_MS / statistics.median(interp)
    values = {"as measured": latencies,
              "scaled": _scaled(latencies, marks, samples, nominal)}
    summary = {}
    for kind, times in values.items():
        ordered = sorted(times)
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
        summary[kind] = {
            "setup_s": statistics.median(probes) * (setup_scale if kind == "scaled" else 1.0),
            "throughput_ops_s": n / sum(times),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_p90_ms": p90 * 1e3,
        }
    metrics = dict(summary["scaled"], peak_rss_mb=child_rss_kb / 1024.0)
    raw = summary["as measured"]
    beyond = sum(1 for x in values["scaled"] if x * 1e3 > metrics["latency_p90_ms"])
    for name, value in metrics.items():
        note = {"setup_s": f"median of {SETUP_PROBES} fresh processes",
                "latency_p50_ms": f"n={n}",
                "latency_p90_ms": f"n={n}, {beyond} beyond",
                "peak_rss_mb": "largest child" if workload.spawns else "this process",
                }.get(name, "")
        if name in raw:
            note = f"as measured {raw[name]:.6g}; {note}".rstrip("; ")
        _say(workload.name, name, value, END_TO_END_UNITS[name], note)
    _say(workload.name, "interp_start_ms", statistics.median(interp), "ms",
         f"median of {len(interp)} around the set-up probes")
    _say(workload.name, "reference_ms", statistics.median(samples), "ms",
         f"median of {len(samples)} between operations, nominal {nominal:g}")
    _say(workload.name, "failed_frac", len(problems) / n, "frac", f"{len(problems)} of {n}")
    if workload.name == "option-grid":
        _say(workload.name, "price_err_max", price_err, "value", "European, spot = strike")
    return {"correct": not problems, "attempted": n, "failed": len(problems),
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


# ------------------------------------------------------------- per layer #

def _child_ms(argv: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, check=True)
    return (time.perf_counter() - start) * 1e3, done.stderr


def _import_self_ms(importtime_log: str, package: str) -> float:
    """Sum of ``-X importtime`` self times of ``package`` and its submodules."""
    total_us = 0
    for match in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$", importtime_log, re.M):
        name = match.group(2)
        if name == package or name.startswith(package + "."):
            total_us += int(match.group(1))
    return total_us / 1e3


def cli_probes() -> dict[str, float]:
    """Interpreter start, package import and its numpy/scipy share, in ms."""
    exe = sys.executable
    interp = statistics.median(_child_ms([exe, "-c", "pass"])[0] for _ in range(CLI_PROBES))
    full = statistics.median(_child_ms([exe, "-c", "import longevity.cli"])[0]
                             for _ in range(CLI_PROBES))
    logs = [_child_ms([exe, "-X", "importtime", "-c", "import longevity.cli"])[1]
            for _ in range(CLI_PROBES)]
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": full - interp,
        "cli.import.numpy_ms": statistics.median(_import_self_ms(g, "numpy") for g in logs),
        "cli.import.scipy_ms": statistics.median(_import_self_ms(g, "scipy") for g in logs),
    }


def trace_pass(workload, seed: int, workdir: Path, tracer=None) -> dict:
    """Set up and run the first input block once, inside ``tracer`` if given.

    Returns the busy seconds (set-up plus operations) and, per operation,
    its seconds, its output's fingerprint and its problem (None if it passed).
    """
    op_seconds, prints, problems = [], [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        state, ops = _prepare(workload, seed, workdir)
        busy = time.perf_counter() - start
        for op in ops:
            if tracer is not None:
                tracer.vol_label = workload.vol_label(op)
            elapsed, out, problem = _attempt(state, op, workload.trace_execute,
                                             workload.trace_check)
            busy += elapsed
            op_seconds.append(elapsed)
            prints.append(None if out is None else workload.fingerprint(out))
            problems.append(problem)
    return {"busy": busy, "op_seconds": op_seconds, "prints": prints, "problems": problems}


def measure_traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer metrics: alternate untraced and traced passes for ``seconds``."""
    begin = time.perf_counter()
    cli = cli_probes()
    runs = {False: [], True: []}
    tracers = []
    # The first untraced pass warms caches and lazy imports and is dropped.
    while not (len(runs[False]) > 1 and runs[True] and time.perf_counter() - begin >= seconds):
        traced = len(runs[False]) > len(runs[True])
        tracer = Tracer() if traced else None
        runs[traced].append(trace_pass(workload, seed, workdir, tracer))
        if traced:
            tracers.append(tracer)

    problems: list[str] = []
    all_passes = runs[False] + runs[True]
    reference = all_passes[0]["prints"]
    for one in all_passes:
        for index, (got, problem) in enumerate(zip(one["prints"], one["problems"])):
            if problem is None and got != reference[index]:
                problem = f"operation {index}: output differs between passes"
            if problem is not None:
                _report_failure(problems, problem)

    layer = [t.metrics() for t in tracers]
    correct = True
    for name in COUNT_METRICS:
        if name in layer[0] and any(m[name] != layer[0][name] for m in layer[1:]):
            print(f"count {name} differs between traced passes", file=sys.stderr)
            correct = False
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in layer[0]:
            value = layer[0][name] if unit == "count" else statistics.median(m[name] for m in layer)
            metrics[name] = (value, unit)
    untraced_ops = [s for one in runs[False][1:] for s in one["op_seconds"]]
    cli["cli.run_ms"] = statistics.median(untraced_ops) * 1e3 if workload.spawns else 0.0
    for name, value in cli.items():
        metrics[name] = (value, CLI_UNITS[name])
    overhead = (statistics.median(p["busy"] for p in runs[True])
                / statistics.median(p["busy"] for p in runs[False][1:]) - 1.0)
    metrics["trace_overhead_frac"] = (overhead, "frac")

    absent = sorted({a for t in tracers for a in t.absent})
    if absent:
        print(f"absent wrap targets: {', '.join(absent)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        _say(workload.name, name, value, unit)
    _say(workload.name, "traced_passes", len(runs[True]), "count",
         f"{len(runs[False]) - 1} untraced after one warm-up, {workload.trace_ops} operations each")
    attempted = sum(len(one["prints"]) for one in all_passes)
    return {"correct": correct and not problems, "attempted": attempted, "failed": len(problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ------------------------------------------------------------------ main #

def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="busy time to measure per run, seconds (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "longevity" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'longevity'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as REGISTRY

    workload = REGISTRY[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.probe_setup:
            _prepare(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        if args.trace:
            result = measure_traced(workload, args.seed, args.seconds, workdir)
        else:
            result = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
