from dataclasses import replace
from fractions import Fraction

import pytest

from weilad import scalars
from weilad.algebra import dual_algebra, jet_algebra, tensor
from weilad.errors import UnavailableInModel
from weilad.laws import (
    FINSET,
    LAW_IDS,
    NUMERIC,
    LawInstance,
    enumerate_laws,
    law_info,
    run_all,
    run_law,
)


def test_twelve_laws_with_expected_availability():
    infos = enumerate_laws()
    assert len(infos) == 12
    assert [i.law_id for i in infos] == list(LAW_IDS)
    finset_only = {"L4", "L7", "L10", "L12"}
    numeric_only = {"L8", "L9"}
    for info in infos:
        if info.law_id in finset_only:
            assert info.models == (FINSET,)
        elif info.law_id in numeric_only:
            assert info.models == (NUMERIC,)
        else:
            assert set(info.models) == {NUMERIC, FINSET}


def test_unavailable_model_is_refused():
    with pytest.raises(UnavailableInModel):
        run_law(LawInstance("L8", FINSET))
    with pytest.raises(UnavailableInModel):
        run_law(LawInstance("L4", NUMERIC))
    with pytest.raises(UnavailableInModel):
        law_info("L99")


def test_reports_are_deterministic_for_a_seed():
    a = run_law(LawInstance("L3", NUMERIC, {}, scalars.RATIONAL, seed=42))
    b = run_law(LawInstance("L3", NUMERIC, {}, scalars.RATIONAL, seed=42))
    assert a.to_json() == b.to_json()
    c = run_law(LawInstance("L11", NUMERIC, {}, scalars.FLOAT, seed=1))
    d = run_law(LawInstance("L11", NUMERIC, {}, scalars.FLOAT, seed=1))
    assert c.to_json() == d.to_json()


def test_exact_flag_tracks_mode():
    r = run_law(LawInstance("L5", NUMERIC, {"samples": 1}, scalars.RATIONAL))
    assert r.exact and r.passed
    f = run_law(LawInstance("L5", NUMERIC, {"samples": 1}, scalars.FLOAT))
    assert not f.exact and f.passed


def test_corrupted_tensor_table_fails_the_nesting_law():
    d1, j2 = dual_algebra(1), jet_algebra(2)
    t = tensor(d1, j2).algebra
    struct = dict(t.struct)
    # divert x_1 * x_2 to x_2^2 (indices: 1 = x_2, 3 = x_1*x_2, 2 = x_2^2)
    key = next(k for k, v in struct.items() if v and k[0] != 0 and k[1] != 0 and v[0][0] != 0)
    wrong = ((key[0] % t.dim, Fraction(1)),)
    struct[key] = wrong
    corrupt = replace(t, struct=struct)
    report = run_law(LawInstance(
        "L3", NUMERIC,
        {"pairs": [(d1, j2, corrupt)], "maps": ["p02_cubic", "p03_bilinear"]},
        scalars.RATIONAL,
    ))
    assert report.failures > 0
    assert report.witnesses


def test_corrupted_struct_fails_first_principles_arithmetic_law():
    j2 = jet_algebra(2)
    struct = dict(j2.struct)
    struct[(1, 1)] = ()  # kill x*x although x^2 is a basis element
    corrupt = replace(j2, struct=struct)
    report = run_law(LawInstance(
        "L8", NUMERIC,
        {"algebras": [corrupt], "maps": ["p01_square"], "samples": 2},
        scalars.RATIONAL,
    ))
    assert report.failures > 0


def test_run_all_default_green():
    summary = run_all(scalar_mode=scalars.RATIONAL, seed=0, laws=["L2", "L5"])
    assert summary["passed"]
    assert {r["law"] for r in summary["reports"]} == {"L2", "L5"}
    models = {(r["law"], r["model"]) for r in summary["reports"]}
    assert ("L2", "numeric") in models and ("L2", "finset") in models


def test_report_invariants():
    # no witnesses without failures; the exact flag implies zero error
    for law in ("L2", "L6", "L8"):
        for mode in (scalars.RATIONAL, scalars.FLOAT):
            rep = run_law(LawInstance(law, NUMERIC, {"samples": 1}, mode))
            assert rep.passed and not rep.witnesses
            if rep.exact:
                assert rep.max_abs_error == 0.0
    fin = run_law(LawInstance("L4", FINSET))
    assert fin.exact and fin.max_abs_error == 0.0 and not fin.witnesses


@pytest.mark.parametrize("got, want, failures", [
    ([float("nan")], [1.0], 1),
    ([float("inf")], [1.0], 1),
    ([1.0], [float("-inf")], 1),
    ([float("nan")], [float("nan")], 1),
    ([float("inf")], [float("-inf")], 1),
    ([float("inf"), 2.0], [float("inf"), 2.0], 0),
])
def test_float_compare_never_passes_nan_or_a_lone_infinity(got, want, failures):
    from weilad.laws import LawReport, _Acc

    report = LawReport("L1", NUMERIC, scalars.FLOAT)
    _Acc(report).compare(got, want, "w")
    assert report.failures == failures
    assert report.instances_run == 1
