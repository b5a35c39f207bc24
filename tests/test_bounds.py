import functools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from kforcing.bounds import (
    BOUNDS,
    NOT_CONNECTED,
    all_bounds,
    bound_acdp_thm4,
    bound_acdp_thm5,
    bound_cor1,
    bound_cor2,
    bound_cor3,
    bound_prop1_thm2_cases,
    bound_thm2_iii,
    bound_value,
    report_to_dict,
    thm2iii_value,
)
from kforcing.errors import HypothesisFailedError, InvalidParametersError, NotConnectedError
from kforcing.exact import exact_f_k
from kforcing.generators import FamilySpec, generate
from kforcing.graph import build_graph, degrees

from conftest import connected_graphs, ks


def gen(family, *params):
    return generate(FamilySpec(family, tuple(params)))


def test_prop1_thm2_cases():
    c7 = gen("cycle", 7)
    assert bound_prop1_thm2_cases(c7, 2).value == 1
    assert bound_prop1_thm2_cases(c7, 1).value == 2
    k5 = gen("complete", 5)
    bv = bound_prop1_thm2_cases(k5, 1)
    assert not bv.applicable
    assert "k+2" in bv.reason


def test_prop1_thm2_thm_i_case():
    p3 = gen("path", 3)
    assert bound_prop1_thm2_cases(p3, 1).value == 1  # delta=1 < Delta=2 = k+1


def test_thm2iii_values():
    k5 = gen("complete", 5)
    bv = bound_thm2_iii(k5, 1)
    assert bv.value == Fraction(4)
    assert bv.floor == 4
    pet = gen("petersen")
    bv = bound_thm2_iii(pet, 1)
    assert bv.value == Fraction(12, 2) == Fraction(6)
    with pytest.raises(HypothesisFailedError):
        bound_thm2_iii(pet, 2)  # Delta=3 < k+2


def test_thm2iii_max_branch():
    star = gen("complete_bipartite", 1, 4)
    # k=1, delta=1: the two max branches tie at -1, value (10-1)/3
    assert bound_thm2_iii(star, 1).value == Fraction(3)
    # k=2, delta=1 < k: first branch wins (1 vs -2), value (5+1)/3
    assert bound_thm2_iii(star, 2).value == Fraction(2)
    assert exact_f_k(star, 2).f_k == 2  # and it is tight here


def test_cor1_values():
    # recomputed from the formula ((Delta-2)n - (Delta-delta) + 2)/(Delta-1)
    assert bound_cor1(gen("complete", 5)).value == Fraction(4)
    assert bound_cor1(gen("petersen")).value == Fraction(6)
    star = gen("complete_bipartite", 1, 4)
    assert bound_cor1(star).value == Fraction(3)
    assert exact_f_k(star, 1).f_k == 3  # tight on stars
    with pytest.raises(HypothesisFailedError):
        bound_cor1(gen("cycle", 5))  # Delta=2 < 3


def test_cor2_values():
    assert bound_cor2(gen("petersen"), 1).value == Fraction(6)
    k5 = gen("complete", 5)
    bv = bound_cor2(k5, 2)
    assert bv.value == Fraction(3)
    assert bv.equality_candidate is True  # 4-regular, k+2 = 4
    assert exact_f_k(k5, 2).f_k == 3
    bv = bound_cor2(k5, 1)
    assert bv.value == Fraction(4)
    assert bv.equality_candidate is False


def test_cor3_values():
    assert bound_cor3(gen("cycle", 8)).value == Fraction(2)
    assert exact_f_k(gen("cycle", 8), 1).f_k == 2  # tight on cycles
    assert bound_cor3(gen("petersen")).value == Fraction(6)
    assert bound_cor3(gen("complete", 5)).value == Fraction(4)
    with pytest.raises(HypothesisFailedError):
        bound_cor3(gen("path", 2))  # Delta=1


def test_acdp4_values():
    assert bound_acdp_thm4(gen("petersen"), 1).value == Fraction(15, 2)
    assert bound_acdp_thm4(gen("complete", 5), 2).value == Fraction(3)
    assert bound_acdp_thm4(gen("cycle", 6), 1).value == Fraction(4)
    with pytest.raises(HypothesisFailedError):
        bound_acdp_thm4(build_graph(1, []), 1)
    with pytest.raises(HypothesisFailedError, match="acdp4: isolated vertex present"):
        bound_acdp_thm4(build_graph(3, [(0, 1)]), 1)


def test_acdp5_values():
    pet = gen("petersen")
    assert bound_acdp_thm5(pet, 1).value == Fraction(6)
    bv = bound_acdp_thm5(pet, 3)
    assert bv.value == Fraction(3)  # Petersen is 3-connected
    assert exact_f_k(pet, 3).f_k <= 3
    with pytest.raises(HypothesisFailedError):
        bound_acdp_thm5(gen("path", 5), 2)  # not 2-connected
    with pytest.raises(HypothesisFailedError):
        bound_acdp_thm5(gen("path", 3), 3)  # n <= k


def test_not_connected_raises():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        bound_thm2_iii(g, 1)
    with pytest.raises(NotConnectedError):
        bound_prop1_thm2_cases(g, 1)


def test_all_bounds_petersen():
    pet = gen("petersen")
    report = all_bounds(pet, 1, exact_f_k=5)
    by_name = {bv.name: bv for bv in report.bounds}
    assert by_name["thm2iii"].value == 6
    assert by_name["cor2"].value == 6
    assert by_name["cor3"].value == 6
    assert by_name["acdp4"].value == Fraction(15, 2)
    assert by_name["acdp5"].value == 6
    assert report.exact_f_k == 5


def test_all_bounds_tests_k_connectivity_once(monkeypatch):
    import kforcing.bounds as bounds_module

    calls = []
    real = bounds_module.is_k_connected

    def counting(g, k):
        calls.append(k)
        return real(g, k)

    monkeypatch.setattr(bounds_module, "is_k_connected", counting)
    pet = gen("petersen")
    report = all_bounds(pet, 3)
    assert calls == [3]
    assert report.k_connected_checked == {3: True}
    assert {bv.name: bv for bv in report.bounds}["acdp5"] == bound_acdp_thm5(pet, 3)
    assert calls == [3, 3]  # the standalone bound still tests it itself
    assert not {bv.name: bv for bv in all_bounds(gen("path", 5), 2).bounds}["acdp5"].applicable


def test_all_bounds_scans_the_graph_once(monkeypatch):
    import kforcing.bounds as bounds_module
    import kforcing.graph as graph_module

    calls = {"degrees": 0, "connected_components": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(bounds_module, "degrees")
    counted(graph_module, "connected_components")
    rr = gen("random_regular", 60, 4)
    for g, k in ((rr, 1), (rr, 2), (gen("petersen"), 3), (build_graph(4, [(0, 1), (2, 3)]), 1)):
        calls.update(degrees=0, connected_components=0)
        all_bounds(g, k)
        assert calls["degrees"] == 1, k
        # once for `connected`, once inside is_k_connected
        assert calls["connected_components"] <= 2, k


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize(
    "accessor",
    [
        bound_prop1_thm2_cases,
        bound_thm2_iii,
        functools.partial(bound_value, "cor1"),
        bound_cor2,
        functools.partial(bound_value, "cor3"),
        bound_acdp_thm4,
        bound_acdp_thm5,
        all_bounds,
        thm2iii_value,
    ],
    ids=["prop1_thm2", "thm2iii", "cor1", "cor2", "cor3", "acdp4", "acdp5", "all", "value"],
)
def test_k_below_1_rejected(accessor, k):
    with pytest.raises(InvalidParametersError, match=f"k={k}"):
        accessor(gen("petersen"), k)


NAMED_ACCESSORS = {
    "prop1_thm2": bound_prop1_thm2_cases,
    "thm2iii": bound_thm2_iii,
    "cor1": lambda g, k: bound_cor1(g),  # stated for k = 1 only
    "cor2": bound_cor2,
    "cor3": lambda g, k: bound_cor3(g),
    "acdp4": bound_acdp_thm4,
    "acdp5": bound_acdp_thm5,
}


@given(connected_graphs(min_n=1, max_n=9), ks)
@example(build_graph(4, [(0, 1), (2, 3)]), 1)  # disconnected
@example(build_graph(4, [(0, 1), (2, 3)]), 2)
@example(gen("path", 3), 3)  # n <= k
@example(build_graph(1, []), 1)
@settings(max_examples=80, deadline=None)
def test_accessors_agree_with_all_bounds(g, k):
    assert list(NAMED_ACCESSORS) == [b.name for b in BOUNDS]
    report = all_bounds(g, k)
    for b, bv in zip(BOUNDS, report.bounds, strict=True):
        accessors = [functools.partial(bound_value, b.name)]
        if b.name not in ("cor1", "cor3") or k == 1:
            accessors.append(NAMED_ACCESSORS[b.name])
        for accessor in accessors:
            if bv.applicable or (b.exact and bv.reason != NOT_CONNECTED):
                assert accessor(g, k) == bv, b.name
            else:
                error = NotConnectedError if bv.reason == NOT_CONNECTED else HypothesisFailedError
                with pytest.raises(error, match=re.escape(f"{b.name}: {bv.reason}")):
                    accessor(g, k)


def test_all_bounds_small_cases():
    report = all_bounds(gen("cycle", 7), 2)
    by_name = {bv.name: bv for bv in report.bounds}
    assert by_name["prop1_thm2"].value == 1
    assert not by_name["thm2iii"].applicable
    assert not by_name["cor2"].applicable
    report = all_bounds(gen("complete", 4), 3)
    by_name = {bv.name: bv for bv in report.bounds}
    assert by_name["prop1_thm2"].value == 1


def test_all_bounds_records_disconnection():
    g = build_graph(4, [(0, 1), (2, 3)])
    report = all_bounds(g, 1)
    by_name = {bv.name: bv for bv in report.bounds}
    assert not report.connected
    assert by_name["thm2iii"].reason == "graph not connected"
    assert by_name["cor3"].reason == "graph not connected"
    # acdp4 does not require connectivity
    assert by_name["acdp4"].applicable
    # the k = 1 restriction is reported before connectivity
    by_name = {bv.name: bv for bv in all_bounds(g, 2).bounds}
    assert by_name["cor1"].reason == by_name["cor3"].reason == "k=2 != 1"


def test_all_bounds_k_filtering():
    report = all_bounds(gen("petersen"), 2)
    by_name = {bv.name: bv for bv in report.bounds}
    assert not by_name["cor1"].applicable
    assert not by_name["cor3"].applicable
    assert by_name["acdp4"].applicable


def test_report_to_dict_shape():
    doc = report_to_dict(all_bounds(gen("petersen"), 1, exact_f_k=5, greedy_size=5))
    assert doc["graph"]["n"] == 10
    assert doc["k"] == 1
    assert doc["exact"] == 5 and doc["greedy"] == 5
    entry = next(b for b in doc["bounds"] if b["name"] == "acdp4")
    assert entry == {"name": "acdp4", "applicable": True, "num": 15, "den": 2, "floor": 7}


def test_values_are_exact_fractions():
    for bv in all_bounds(gen("petersen"), 1).bounds:
        if bv.applicable:
            assert isinstance(bv.value, Fraction)
            assert bv.floor == math.floor(bv.value)


@given(connected_graphs(min_n=2, max_n=9), ks)
@settings(max_examples=80, deadline=None)
def test_validity_against_brute_force(g, k):
    f = exact_f_k(g, k).f_k
    for bv in all_bounds(g, k).bounds:
        if bv.applicable and bv.name != "prop1_thm2":
            assert f <= math.floor(bv.value), bv.name
        if bv.name == "prop1_thm2" and bv.applicable:
            assert f == bv.value


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=80)
def test_cor1_equals_thm2iii_at_k1(g):
    # at k=1 with delta >= 1 the max's second branch always wins, so the
    # simplified numerator is exact, not an approximation
    by_name = {bv.name: bv for bv in all_bounds(g, 1).bounds}
    if by_name["thm2iii"].applicable:
        assert by_name["cor1"].applicable
        assert by_name["cor1"].value == by_name["thm2iii"].value


@given(connected_graphs(min_n=2, max_n=9), ks)
@settings(max_examples=80)
def test_cor2_dominates_thm2iii_equality_iff_regular(g, k):
    by_name = {bv.name: bv for bv in all_bounds(g, k).bounds}
    thm, cor2 = by_name["thm2iii"], by_name["cor2"]
    if thm.applicable and cor2.applicable:
        assert thm.value <= cor2.value
        s = degrees(g)
        assert (thm.value == cor2.value) == (s.delta_min == s.delta_max)


@given(connected_graphs(min_n=2, max_n=9), ks)
@settings(max_examples=80)
def test_dominance_over_acdp_for_k_ge_2(g, k):
    if k < 2:
        return
    by_name = {bv.name: bv for bv in all_bounds(g, k).bounds}
    thm = by_name["thm2iii"]
    if not thm.applicable:
        return
    if by_name["acdp4"].applicable:
        assert thm.value <= by_name["acdp4"].value
    if by_name["acdp5"].applicable:
        assert thm.value <= by_name["acdp5"].value


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=80)
def test_k1_identity_holds_exactly_for_regular_graphs(g):
    by_name = {bv.name: bv for bv in all_bounds(g, 1).bounds}
    thm, acdp5 = by_name["thm2iii"], by_name["acdp5"]
    if thm.applicable and acdp5.applicable:
        s = degrees(g)
        assert (thm.value == acdp5.value) == (s.delta_min == s.delta_max)
        assert thm.value <= acdp5.value  # the refined max term never loses
        gap = Fraction(s.delta_max - s.delta_min, s.delta_max - 1)
        assert acdp5.value - thm.value == gap


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=60)
def test_cor2_cor3_acdp5_coincide_at_k1(g):
    by_name = {bv.name: bv for bv in all_bounds(g, 1).bounds}
    cor2, cor3, acdp5 = by_name["cor2"], by_name["cor3"], by_name["acdp5"]
    if cor2.applicable and acdp5.applicable:
        assert cor2.value == acdp5.value
    if cor2.applicable and cor3.applicable:
        assert cor2.value == cor3.value
