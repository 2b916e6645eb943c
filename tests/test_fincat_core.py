import itertools

import pytest

from weilad.corpus import bundled_instance, bundled_instances
from weilad.errors import SizeLimit, WeilError
from weilad.fincat import (
    FinFunctor,
    FinNatTrans,
    enumerate_nat_trans,
    fincat,
    load_instance,
    validate_category,
    validate_endofunctor_data,
    validate_functor,
    validate_nat_trans,
)


def test_bundled_instances_all_load_and_validate():
    data = bundled_instances()
    assert set(data) == {"terminal", "arrow", "iso", "idem"}
    for inst in data.values():
        assert validate_category(inst.cat).passed
        for name, f in inst.functors.items():
            assert validate_functor(f, name).passed
        for name, t in inst.nat_trans.items():
            assert validate_nat_trans(t, name).passed
        for name, g in inst.endofunctors.items():
            assert validate_endofunctor_data(g, name).passed


def test_corrupted_composition_table_reports_witness():
    cat = fincat(
        "bad",
        ["a", "b"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("u", "a", "b")],
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb",
         ("u", "ida"): "u", ("idb", "u"): "idb"},  # idb∘u should be u
    )
    rep = validate_category(cat)
    assert not rep.passed
    bad = [c for c in rep.checks if not c.passed]
    assert bad and bad[0].witness is not None


def test_identity_must_exist():
    cat = fincat("noid", ["a"], [("f", "a", "a")], {}, {("f", "f"): "f"})
    rep = validate_category(cat)
    assert not rep.passed


def test_nonfunctor_reports_witness():
    inst = bundled_instance("arrow")
    f = inst.functor("M2")
    broken = FinFunctor(
        inst.cat,
        dict(f.on_objects),
        {**f.on_morphisms, "u": {"x0": "y1", "x1": "y1"}},
        "broken",
    )
    # this u-action is still a function; break composition by breaking ida
    broken2 = FinFunctor(
        inst.cat,
        dict(f.on_objects),
        {**f.on_morphisms, "ida": {"x0": "x1", "x1": "x0"}},
        "broken2",
    )
    rep = validate_functor(broken2)
    assert not rep.passed
    assert validate_functor(broken).passed  # changing u alone keeps functoriality here


def test_planted_nonnatural_transformation_is_caught():
    inst = bundled_instance("arrow")
    m2, m3 = inst.functor("M2"), inst.functor("M3")
    # z2 and z1 both push to w1 along u; send x0 to z1 but x0's u-image to w0
    comps = {"a": {"x0": "z1", "x1": "z2"}, "b": {"y0": "w0", "y1": "w1"}}
    t = FinNatTrans(m2, m3, comps, "planted")
    rep = validate_nat_trans(t)
    assert not rep.passed
    witness = [c.witness for c in rep.checks if not c.passed][0]
    assert witness["arrow"] == "u"


def test_loader_rejects_invalid_transformation_with_witness():
    doc = {
        "name": "badinst",
        "objects": ["a", "b"],
        "morphisms": [
            {"id": "ida", "dom": "a", "cod": "a"},
            {"id": "idb", "dom": "b", "cod": "b"},
            {"id": "u", "dom": "a", "cod": "b"},
        ],
        "identities": {"a": "ida", "b": "idb"},
        "comp": {"ida": {"ida": "ida"}, "idb": {"idb": "idb", "u": "u"}, "u": {"ida": "u"}},
        "functors": {
            "M": {"on_objects": {"a": ["x"], "b": ["y0", "y1"]},
                  "on_morphisms": {"ida": {"x": "x"}, "idb": {"y0": "y0", "y1": "y1"},
                                   "u": {"x": "y0"}}},
        },
        "nat_trans": {
            "bad": {"source": "M", "target": "M",
                    "components": {"a": {"x": "x"}, "b": {"y0": "y1", "y1": "y0"}}},
        },
    }
    with pytest.raises(WeilError) as err:
        load_instance(doc)
    assert "naturality" in str(err.value)


def brute_force_nat_trans(f, g):
    cat = f.cat
    spaces = []
    for c in cat.objects:
        dom = f.at(c)
        cod = g.at(c)
        if dom and not cod:
            return []
        spaces.append([dict(zip(dom, images))
                       for images in itertools.product(cod, repeat=len(dom))])
    found = []
    for combo in itertools.product(*spaces):
        comps = dict(zip(cat.objects, combo))
        if all(
            comps[a.cod][f.apply(a.name, x)] == g.apply(a.name, comps[a.dom][x])
            for a in cat.arrows
            for x in f.at(a.dom)
        ):
            found.append(comps)
    return found


@pytest.mark.parametrize("inst_name", ["arrow", "iso", "idem"])
def test_enumeration_matches_brute_force(inst_name):
    inst = bundled_instance(inst_name)
    functors = sorted(inst.functors.items())[:5]
    for (_, f), (_, g) in itertools.product(functors, repeat=2):
        got = {t.canonical() for t in enumerate_nat_trans(f, g)}
        want = {FinNatTrans(f, g, comps).canonical() for comps in brute_force_nat_trans(f, g)}
        assert got == want


def test_enumeration_respects_bound():
    inst = bundled_instance("iso")
    f3 = inst.functor("F3")
    with pytest.raises(SizeLimit):
        list(enumerate_nat_trans(f3, f3, max_enum=2))


def test_endofunctor_data_requires_retraction():
    inst = bundled_instance("iso")
    swap = inst.endo("swap")
    from weilad.fincat import EndofunctorData, NatFamily

    broken = EndofunctorData(
        swap.functor,
        swap.to_id,
        NatFamily(swap.from_id.source, swap.from_id.target,
                  {"a": "s", "b": "r"}, "ok"),
    )
    assert validate_endofunctor_data(broken).passed
    # swap the two components: naturality and the retraction both break
    twisted = EndofunctorData(
        swap.functor,
        NatFamily(swap.to_id.source, swap.to_id.target, {"a": "r", "b": "s"}, "p"),
        NatFamily(swap.from_id.source, swap.from_id.target, {"a": "r", "b": "s"}, "i"),
    )
    rep = validate_endofunctor_data(twisted)
    assert not rep.passed


def test_env_var_overrides_enumeration_bound(monkeypatch):
    from weilad.fincat import resolve_max_enum

    monkeypatch.delenv("WEILAD_MAX_ENUM", raising=False)
    assert resolve_max_enum() == 10_000_000
    monkeypatch.setenv("WEILAD_MAX_ENUM", "12")
    assert resolve_max_enum() == 12
    assert resolve_max_enum(99) == 99  # explicit argument wins

    inst = bundled_instance("iso")
    f3 = inst.functor("F3")
    with pytest.raises(SizeLimit):
        list(enumerate_nat_trans(f3, f3))


@pytest.mark.parametrize("env, explicit", [("abc", None), ("0", None), ("-3", None),
                                           (None, -5), (None, 0), (None, "x")])
def test_enumeration_bound_must_be_a_positive_integer(monkeypatch, env, explicit):
    from weilad.errors import BadParameter
    from weilad.fincat import resolve_max_enum

    if env is None:
        monkeypatch.delenv("WEILAD_MAX_ENUM", raising=False)
    else:
        monkeypatch.setenv("WEILAD_MAX_ENUM", env)
    with pytest.raises(BadParameter):
        resolve_max_enum(explicit)
