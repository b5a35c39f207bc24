import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforcing.bounds import all_bounds
from kforcing.errors import BudgetExceededError, KForcingError
from kforcing.exact import (
    DEFAULT_BUDGET,
    _combination_rank,
    _wavefront,
    exact_all_minimum_sets,
    exact_f_k,
    worker_count,
)
from kforcing.forcing import is_k_forcing_set
from kforcing.generators import FamilySpec, generate
from kforcing.graph import build_graph, degrees, is_connected
from kforcing.greedy import greedy_per_component

from conftest import connected_graphs, graphs, ks
from oracles import brute_constrained_min, brute_exact


def test_p6_end_vertex():
    g = generate(FamilySpec("path", (6,)))
    res = exact_f_k(g, 1)
    assert res.f_k == 1
    assert res.witness == (0,)


def test_c8_needs_two():
    g = generate(FamilySpec("cycle", (8,)))
    res = exact_f_k(g, 1)
    assert res.f_k == 2
    assert res.witness == (0, 1)


def test_k5_at_k2():
    g = generate(FamilySpec("complete", (5,)))
    assert exact_f_k(g, 2).f_k == 3


def test_witness_is_lex_first():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert exact_f_k(g, 1).witness == (0,)
    c4 = generate(FamilySpec("cycle", (4,)))
    assert exact_f_k(c4, 1).witness == (0, 1)


def test_subsets_tested_is_rank_based():
    g = generate(FamilySpec("complete", (5,)))
    res = exact_f_k(g, 1)
    # all of sizes 1..3 fail (25 subsets), then (0,1,2,3) is the first size-4 set
    assert res.f_k == 4
    assert res.subsets_tested == 5 + 10 + 10 + 1


def test_combination_rank():
    import itertools

    for n, s in ((6, 3), (7, 2), (5, 5)):
        for rank, combo in enumerate(itertools.combinations(range(n), s)):
            assert _combination_rank(combo, n) == rank


def test_all_minimum_sets_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert exact_all_minimum_sets(g, 1) == [(0,), (2,)]


def test_all_minimum_sets_c4():
    g = generate(FamilySpec("cycle", (4,)))
    sets = exact_all_minimum_sets(g, 1)
    assert sets == [(0, 1), (0, 3), (1, 2), (2, 3)]  # all pairs except antipodal


def test_all_minimum_sets_k3():
    g = generate(FamilySpec("complete", (3,)))
    assert exact_all_minimum_sets(g, 1) == [(0, 1), (0, 2), (1, 2)]


def test_single_vertex():
    g = build_graph(1, [])
    res = exact_f_k(g, 1)
    assert res.f_k == 1 and res.witness == (0,)


def test_budget_exceeded_carries_lower_bound():
    g = generate(FamilySpec("cycle", (8,)))
    with pytest.raises(BudgetExceededError) as info:
        exact_f_k(g, 1, budget=8)
    assert info.value.no_set_of_size_le == 1
    assert info.value.subsets_tested == 8
    with pytest.raises(BudgetExceededError) as info:
        exact_f_k(g, 1, budget=3)
    assert info.value.no_set_of_size_le == 0
    assert info.value.subsets_tested == 0


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("KFORCING_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("KFORCING_WORKERS", "zero")
    with pytest.raises(KForcingError):
        worker_count()
    monkeypatch.setenv("KFORCING_WORKERS", "0")
    with pytest.raises(KForcingError):
        worker_count()
    monkeypatch.delenv("KFORCING_WORKERS")
    assert worker_count() >= 1


def test_parallel_witness_independent_of_workers():
    for spec in (
        FamilySpec("petersen"),
        FamilySpec("cycle", (9,)),
        FamilySpec("complete_bipartite", (3, 4)),
        FamilySpec("gnp_connected", (11, 0.35), seed=9),
    ):
        g = generate(spec)
        serial = exact_f_k(g, 1, workers=1)
        for workers in (2, 5):
            parallel = exact_f_k(g, 1, workers=workers)
            assert parallel.f_k == serial.f_k
            assert parallel.witness == serial.witness
            assert parallel.subsets_tested == serial.subsets_tested


def test_natural_parallel_path_hypercube():
    g = generate(FamilySpec("hypercube", (4,)))
    res = exact_f_k(g, 1, workers=4)
    assert res.f_k == 8
    assert res.witness == tuple(range(8))


@given(connected_graphs(max_n=8), ks)
@settings(max_examples=60, deadline=None)
def test_monotone_in_k(g, k):
    assert exact_f_k(g, k + 1).f_k <= exact_f_k(g, k).f_k


@given(connected_graphs(max_n=8), ks)
@settings(max_examples=60, deadline=None)
def test_oracle_sandwich(g, k):
    f = exact_f_k(g, k).f_k
    greedy_total = sum(len(r.forcing_set) for r in greedy_per_component(g, k))
    assert f <= greedy_total
    for bv in all_bounds(g, k).bounds:
        if bv.applicable and bv.name != "prop1_thm2":
            assert f <= math.floor(bv.value)


@given(connected_graphs(max_n=8), ks)
@settings(max_examples=60, deadline=None)
def test_small_case_cross_checks(g, k):
    s = degrees(g)
    f = exact_f_k(g, k).f_k
    if s.delta_max <= k:
        assert f == 1
    elif s.delta_max == k + 1 and s.delta_min < s.delta_max:
        assert f == 1
    elif s.delta_max == k + 1:
        assert f == 2


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=40, deadline=None)
def test_disconnected_additivity(g):
    # F_k of a disconnected graph is the sum over components
    from kforcing.graph import connected_components

    comps = connected_components(g)
    total = 0
    for comp in comps:
        idx = {orig: i for i, orig in enumerate(comp)}
        sub = build_graph(
            len(comp),
            [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx],
        )
        total += exact_f_k(sub, 1).f_k
    assert exact_f_k(g, 1).f_k == total


def _outcome(solve):
    """(f_k, witness, subsets_tested), or the budget error's certificate and message."""
    try:
        res = solve()
    except BudgetExceededError as exc:
        return ("budget", exc.no_set_of_size_le, exc.subsets_tested, str(exc))
    if isinstance(res, tuple):
        return res
    return res.f_k, res.witness, res.subsets_tested


@given(
    st.one_of(connected_graphs(max_n=9), graphs(max_n=9)),
    ks,
    st.sampled_from((0, 1, 3, 8, 50, 1000, DEFAULT_BUDGET)),
)
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_oracle(g, k, budget):
    assert _outcome(lambda: exact_f_k(g, k, budget=budget)) == _outcome(
        lambda: brute_exact(g, k, budget)
    )


# Measured with the subset-enumeration solver this module replaced.
LADDER_PINS = (
    ((16, 1), 8, (0, 1, 2, 3, 4, 5, 7, 8), 26342),
    ((18, 1), 9, None, 106763),
    ((20, 1), 9, (0, 1, 2, 5, 7, 8, 11, 12, 18), 272122),
    ((22, 2), 6, None, 40755),
    ((24, 2), 7, None, 197147),
    ((22, 3), 4, None, 2069),
)


def test_seeded_ladder_pins():
    for (n, k), f_k, witness, tested in LADDER_PINS:
        res = exact_f_k(generate(FamilySpec("gnp_connected", (n, 0.4), seed=42)), k)
        assert (res.f_k, res.subsets_tested) == (f_k, tested), (n, k)
        if witness is not None:
            assert res.witness == witness
    cube = exact_f_k(generate(FamilySpec("hypercube", (4,))), 1)
    assert (cube.f_k, cube.subsets_tested) == (8, 26333)
    g30 = generate(FamilySpec("gnp_connected", (30, 0.4), seed=42))
    with pytest.raises(BudgetExceededError) as info:
        exact_f_k(g30, 1, budget=200000)
    assert (info.value.no_set_of_size_le, info.value.subsets_tested) == (5, 174436)


@given(graphs(max_n=8), ks, st.data())
@settings(max_examples=200, deadline=None)
def test_constrained_wavefront_matches_enumeration(g, k, data):
    roles = data.draw(st.lists(st.sampled_from("ife"), min_size=g.n, max_size=g.n))
    include = [v for v, r in enumerate(roles) if r == "i"]
    exclude = [v for v, r in enumerate(roles) if r == "e"]
    want = brute_constrained_min(g, k, include, exclude)
    cap = data.draw(st.integers(0, g.n))
    got, _ = _wavefront(
        g, k, cap, sum(1 << v for v in include), sum(1 << v for v in exclude)
    )
    assert got == (want if want is not None and want <= cap else None)


def test_capped_search_stops_at_its_cap():
    # The search keeps one bucket per cost 0..cap, so a push above the cap
    # would raise IndexError rather than pass unnoticed.
    g = generate(FamilySpec("gnp_connected", (20, 0.4), seed=42))
    full = exact_f_k(g, 1)
    for cap in range(full.f_k):
        assert _wavefront(g, 1, cap)[0] is None
    assert _wavefront(g, 1, full.f_k)[0] == full.f_k
    assert _wavefront(g, 1, full.f_k - 1)[1] < _wavefront(g, 1, full.f_k)[1]


def test_states_expanded_is_deterministic():
    for spec, k in (
        (FamilySpec("gnp_connected", (18, 0.4), seed=42), 1),
        (FamilySpec("hypercube", (4,)), 1),
        (FamilySpec("petersen"), 2),
    ):
        g = generate(spec)
        runs = [exact_f_k(g, k, workers=w).states_expanded for w in (1, 1, 3)]
        assert runs[0] > 0
        assert runs == [runs[0]] * 3
