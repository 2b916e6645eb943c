"""Benchmark harness for weilad.

Usage, from the root of a checkout::

    python3 bench/run.py --workload jet-taylor --seed 1 --seconds 20 --trace 0

One run: set up (import weilad from ``src/``, load what the workload needs,
generate its requests) several times and keep the median; warm up on
requests outside the timed set; replay whole request blocks in a closed loop
of one client until ``--seconds`` have passed; then check every output
against the workload's oracle.  End-to-end times are scaled by the run's
machine speed, measured with a fixed kernel between requests (see
speedprobe.py); the wall-clock values go to the metadata line.  With
``--trace 1`` the same loop runs under the layer tracer and the per-layer
metrics, in wall-clock seconds, are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds ungated metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import sys
import zlib
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC)

import layertrace  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5


def fresh_import(names):
    """Import weilad from the checkout's source tree, discarding earlier imports."""
    for name in [n for n in sys.modules if n == "weilad" or n.startswith("weilad.")]:
        del sys.modules[name]
    mods = [importlib.import_module(n) for n in names]
    weilad = mods[0]
    if not os.path.abspath(weilad.__file__).startswith(os.path.join(SRC, "weilad") + os.sep):
        raise SystemExit("imported weilad from %s, not from %s" % (weilad.__file__, SRC))
    return weilad


def set_up(workload, seed, probe):
    """Median set-up time over SETUP_REPEATS fresh imports; returns the last one."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = perf_counter()
        weilad = fresh_import(workload.modules)
        blocks = workload.setup(weilad, seed)
        times.append(perf_counter() - t0)
    return weilad, blocks, statistics.median(times)


def replay(workload, weilad, seed, blocks, seconds, probe, tracer=None):
    """Run whole blocks, at least one, until ``seconds`` have passed.

    Returns (request, latency, pickled output, error) per request.  Blocks
    past the ones generated at set-up, and the speed probe, run between
    requests, outside every latency.  Outputs are kept pickled and
    compressed: as bytes they add nothing for the garbage collector to scan,
    and little memory, so neither the program's collection costs nor the peak
    memory grow with the number of requests already done.
    """
    done = []
    t_start = perf_counter()
    b = 0
    while b == 0 or perf_counter() - t_start < seconds:
        block = blocks[b] if b < len(blocks) else workload.block(seed, b)
        for req in block:
            probe.maybe_sample()
            if tracer is not None:
                tracer.request = len(done)
            t0 = perf_counter()
            try:
                out, err = workload.run(weilad, req), None
            except Exception as exc:  # a failed request is counted, never retried
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            latency = perf_counter() - t0
            done.append((req, latency, zlib.compress(pickle.dumps(out)), err))
        b += 1
    return done


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    # Lentz's method for the continued fraction of I_x(a, b) * a / front.
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return math.exp(log_front) * h / a


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of all
    order statistics.  Requests of different kinds form separate clusters of
    latencies; a single order statistic at a cluster boundary jumps between
    clusters from run to run, the weighted average does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(latencies, setup_s, peak_rss_mb, speed=1.0):
    """The gated metrics; times are multiplied by ``speed`` (see speedprobe)."""
    latencies = [lat * speed for lat in latencies]
    setup_s *= speed
    return {
        "throughput_rps": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": quantile(latencies, 0.5) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": quantile(latencies, 0.9) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "weilad")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("WEILAD_MAX_ENUM", None)
    workload = WORKLOADS[args.workload]()

    probe = SpeedProbe()
    weilad, blocks, setup_s = set_up(workload, args.seed, probe)
    for req in workload.warmup(args.seed):
        workload.run(weilad, req)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    try:
        done = replay(workload, weilad, args.seed, blocks, args.seconds, probe, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [lat for _, lat, _, _ in done]

    failures = []
    for req, _, out, err in done:
        if err is None:
            err = workload.check(req, pickle.loads(zlib.decompress(out)))
        if err is not None:
            failures.append(err)

    speed = probe.factor()
    if tracer is not None:
        overhead_s = layertrace.wrapper_cost() * tracer.span_count()
        metrics = tracer.metrics(len(done), sum(latencies), overhead_s)
    else:
        metrics = end_to_end(latencies, setup_s, peak_rss_mb, speed)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(done),
        "failed_frac": len(failures) / len(done),
        "first_failures": failures[:3],
        "speed_factor": speed,
        "probe_samples": len(probe.samples),
        "wall_metrics": {k: v["value"] for k, v in
                         end_to_end(latencies, setup_s, peak_rss_mb).items()},
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "src_weilad_lines": src_lines(),
    }
    if tracer is not None:
        meta["spans"] = tracer.span_count()
        meta["missing_wrappers"] = tracer.missing
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
