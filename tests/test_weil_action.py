import pytest

from weilad.corpus import bundled_instance
from weilad.errors import NonNatural, SizeLimit
from weilad.fincat import (
    FinEndofunctor,
    NatFamily,
    alpha_of,
    compose_endofunctors,
    compose_nat_families,
    equal_functors,
    exp_compat_check,
    exp_compat_check_slice,
    identity_endofunctor,
    identity_nat_family,
    localization_check,
    precompose,
    validate_connecting,
    whisker,
)


def test_precompose_identity_is_the_functor():
    inst = bundled_instance("iso")
    for name, m in inst.functors.items():
        assert equal_functors(precompose(identity_endofunctor(inst.cat), m), m), name


def test_precompose_constant_endofunctor():
    inst = bundled_instance("arrow")
    const_a = FinEndofunctor(
        inst.cat,
        {"a": "a", "b": "a"},
        {"ida": "ida", "idb": "ida", "u": "ida"},
        "const_a",
    )
    m = inst.functor("M3")
    got = precompose(const_a, m)
    for c in inst.cat.objects:
        assert got.at(c) == m.at("a")
    for a in inst.cat.arrows:
        assert got.map(a.name) == {x: x for x in m.at("a")}


def test_precompose_composes_contravariantly():
    inst = bundled_instance("iso")
    swap = inst.endo("swap").functor
    m = inst.functor("F3")
    twice = precompose(swap, precompose(swap, m))
    assert equal_functors(twice, precompose(compose_endofunctors(swap, swap), m))
    assert equal_functors(twice, m)


def test_alpha_of_identity_family():
    inst = bundled_instance("iso")
    swap = inst.endo("swap").functor
    m = inst.functor("F2")
    t = alpha_of(identity_nat_family(swap), m)
    for c in inst.cat.objects:
        assert all(t.apply(c, x) == x for x in precompose(swap, m).at(c))


def test_alpha_of_composition():
    inst = bundled_instance("iso")
    inc, col = inst.family("include"), inst.family("collapse")
    m = inst.functor("F3")
    combined = alpha_of(compose_nat_families(col, inc), m)
    first = alpha_of(inc, m)
    second = alpha_of(col, m)
    for c in inst.cat.objects:
        for x in first.source.at(c):
            assert combined.apply(c, x) == second.apply(c, first.apply(c, x))


def test_alpha_of_rejects_nonnatural_family():
    inst = bundled_instance("iso")
    swap = inst.endo("swap").functor
    ident = identity_endofunctor(inst.cat)
    # component at b points the wrong way around the square
    broken = NatFamily(swap, ident, {"a": "r", "b": "idb"}, "broken")
    with pytest.raises(NonNatural):
        alpha_of(broken, inst.functor("F2"))


def test_alpha_squares_with_arbitrary_transformations():
    inst = bundled_instance("iso")
    eta = inst.family("collapse")
    t = inst.nat_trans["t0"]
    left = alpha_of(eta, t.target)
    right = alpha_of(eta, t.source)
    wl, wr = whisker(eta.source, t), whisker(eta.target, t)
    for c in inst.cat.objects:
        for x in wl.source.at(c):
            assert left.apply(c, wl.apply(c, x)) == wr.apply(c, right.apply(c, x))


def test_connecting_family_validation():
    inst = bundled_instance("iso")
    swap, ident = inst.endo("swap"), inst.endo("id")
    ok = validate_connecting(inst.family("collapse"), swap, ident)
    assert ok.passed
    # the identity family has the wrong endpoints as a connector swap => id
    bad = validate_connecting(inst.family("idfam"), swap, ident)
    assert not bad.passed


@pytest.mark.parametrize("inst_name", ["terminal", "arrow", "iso", "idem"])
def test_exp_compat_roles_pass(inst_name):
    inst = bundled_instance(inst_name)
    for cfg in inst.roles.get("exp_compat", []):
        second = None
        if cfg.get("eta"):
            second = (inst.endo(cfg["g2"]), inst.family(cfg["eta"]))
        rep = exp_compat_check(inst.endo(cfg["g"]), inst.functor(cfg["m"]),
                               inst.functor(cfg["n"]), second)
        assert rep.passed, (inst_name, cfg, [c.name for c in rep.failures()])
        assert rep.data["iso"]


def test_exp_compat_identity_comparison_is_identity():
    inst = bundled_instance("terminal")
    rep = exp_compat_check(inst.endo("id"), inst.functor("Two"), inst.functor("Three"),
                           (inst.endo("id"), inst.family("idfam")))
    assert rep.passed


def test_exp_compat_invalid_connector_reports_not_crashes():
    inst = bundled_instance("iso")
    rep = exp_compat_check(inst.endo("swap"), inst.functor("F2"), inst.functor("N2"),
                           (inst.endo("id"), inst.family("idfam")))
    assert not rep.passed
    names = [c.name for c in rep.failures()]
    assert any("composites" in n for n in names)


@pytest.mark.parametrize("inst_name", ["terminal", "arrow", "iso", "idem"])
def test_slice_exp_compat_roles_pass(inst_name):
    inst = bundled_instance(inst_name)
    for cfg in inst.roles.get("slice_exp_compat", []):
        second = None
        if cfg.get("eta"):
            second = (inst.endo(cfg["g2"]), inst.family(cfg["eta"]))
        rep = exp_compat_check_slice(
            inst.endo(cfg["g"]), inst.functor(cfg["base"]),
            inst.sliced_obj(cfg["a"]), inst.sliced_obj(cfg["b"]), second)
        assert rep.passed, (inst_name, cfg, [(c.name, c.witness) for c in rep.failures()])
        assert rep.data["iso"]


@pytest.mark.parametrize("inst_name", ["terminal", "arrow", "iso", "idem"])
def test_localization_roles_pass(inst_name):
    inst = bundled_instance(inst_name)
    for cfg in inst.roles.get("localization", []):
        second = None
        if cfg.get("eta"):
            second = (inst.endo(cfg["g2"]), inst.family(cfg["eta"]))
        rep = localization_check(inst.endo(cfg["g"]), inst.sliced_obj(cfg["a"]),
                                 inst.functor(cfg["r"]), second)
        assert rep.passed, (inst_name, cfg, [(c.name, c.witness) for c in rep.failures()])


def test_localization_reports_an_invalid_connecting_family():
    inst = bundled_instance("iso")
    # collapse runs from swap to id, not from id to id
    rep = localization_check(inst.endo("id"), inst.sliced_obj("B"), inst.functor("F2"),
                             (inst.endo("id"), inst.family("collapse")))
    failed = [c.name for c in rep.failures()]
    assert any(name.startswith("connecting family collapse: ") for name in failed)
    assert "fact 3 (instance 0): induced transformations agree" in failed


def test_size_limit_propagates():
    inst = bundled_instance("iso")
    with pytest.raises(SizeLimit):
        exp_compat_check(inst.endo("swap"), inst.functor("F3"), inst.functor("F3"),
                         max_enum=3)
