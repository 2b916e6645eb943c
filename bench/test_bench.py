"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    weilad = run.fresh_import(WORKLOADS[name].modules)

    def blocks(seed):
        w = WORKLOADS[name]()
        first = w.setup(weilad, seed)[:2]
        return first + [w.block(seed, 500)]  # past the set-up blocks too

    assert blocks(7) == blocks(7)
    assert blocks(7) != blocks(8)


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_per_layer_names_match_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layertrace.per_layer_metrics()


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    meta, result = _result(["--workload", "jet-taylor", "--seed", "3", "--seconds", "0",
                            "--trace", str(trace)])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 16
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_tiny_traced_run_is_attributed():
    w = WORKLOADS["law-check"]()
    weilad = run.fresh_import(w.modules)
    w.setup(weilad, 0)
    requests = [r for r in w.block(0, 0) if r.argv[:4] == ("laws", "run", "--law", "L3")]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        done = run.replay(w, weilad, 0, [requests], 0, run.SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    busy = sum(lat for _, lat, _, _ in done)
    metrics = tracer.metrics(len(done), busy, 0.0)
    assert metrics["trace.attributed_frac"]["value"] >= 0.9
    assert metrics["laws.L3.numeric.rational.incl_s"]["value"] > 0
    assert metrics["algebra.tensor.calls"]["value"] > 0
    assert weilad.cli.main.__name__ == "main" and not hasattr(weilad.cli.main, "__wrapped__")


def test_useful_pairs_counts_surviving_products():
    weilad = run.fresh_import(("weilad",))
    for w in (weilad.jet_algebra(4), weilad.mixed_algebra(2, 1, 3), weilad.dual_algebra(3)):
        want = sum(1 for m in w.basis for n in w.basis if w.basis_index(m * n) is not None)
        assert layertrace.useful_pairs(w) == want


def test_quantile_estimator():
    assert abs(run._betainc(2.0, 3.0, 0.4) - 0.5248) < 1e-12
    assert run.quantile([7.0] * 9, 0.9) == pytest.approx(7.0)
    xs = [i / 1000 for i in range(1001)]
    assert run.quantile(xs, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert run.quantile(xs, 0.9) == pytest.approx(0.9, abs=2e-3)


def test_float_check_tolerates_rounding_where_majorant_vanishes():
    import oracle
    from fractions import Fraction

    # cos((x + 1/2) - (1/2 + x)) is exactly 1: every derivative is zero, and so
    # is the majorant past order 0, but rounding may leave tiny values.
    nodes = [("var", 0), ("const", Fraction(1, 2)), ("+", 0, 1), ("+", 1, 0),
             ("-", 2, 3), ("call", "cos", 4)]
    assert oracle.float_jet_mismatch(nodes, 0.3, [1.0, 2.5e-32, 0.0, -1e-30, 0.0]) is None
    assert oracle.float_jet_mismatch(nodes, 0.3, [1.0, 1e-3, 0.0, 0.0, 0.0]) is not None
    assert oracle.float_jet_mismatch(nodes, 0.3, [1.0, float("nan"), 0.0, 0.0, 0.0]) is not None
