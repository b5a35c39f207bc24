import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kforcing
from kforcing.bounds import thm2iii_value
from kforcing.errors import KForcingError, NotConnectedError
from kforcing.forcing import closure, is_k_forcing_set
from kforcing.generators import FamilySpec, generate
from kforcing.graph import build_graph, degrees
from kforcing.greedy import (
    PROP1,
    STRATEGIES,
    THM_I,
    THM_II,
    THM_III,
    greedy_k_forcing_set,
    greedy_per_component,
)

from conftest import connected_graphs, ks
from oracles import naive_greedy


def test_k4_at_k3_is_prop1():
    g = generate(FamilySpec("complete", (4,)))
    res = greedy_k_forcing_set(g, 3)
    assert res.case_taken == PROP1
    assert res.forcing_set == frozenset({0})
    assert is_k_forcing_set(g, res.forcing_set, 3)


def test_c6_at_k1_is_thm_ii():
    g = generate(FamilySpec("cycle", (6,)))
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == THM_II
    assert res.forcing_set == frozenset({0, 1})
    assert res.seed_vertex == (0, 1)


def test_p3_at_k1_is_thm_i():
    g = build_graph(3, [(0, 1), (1, 2)])
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == THM_I
    assert res.forcing_set == frozenset({0})


def test_k5_at_k1_thm_iii():
    g = generate(FamilySpec("complete", (5,)))
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == THM_III
    # seed = {0} plus delta-k = 3 lowest neighbors
    assert res.seed_vertex == 0
    assert res.forcing_set == frozenset({0, 1, 2, 3})
    assert len(res.forcing_set) == math.floor(thm2iii_value(g, 1)) == 4


def test_petersen_at_k1_within_bound():
    g = generate(FamilySpec("petersen"))
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == THM_III
    assert len(res.forcing_set) <= 6
    assert is_k_forcing_set(g, res.forcing_set, 1)


def test_star_immediate_stall_path():
    # K_{1,4} at k=1: delta <= k so the seed is a lone leaf; the process must
    # force through the hub and then augment at the hub, never at the seed.
    g = generate(FamilySpec("complete_bipartite", (1, 4)))
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == THM_III
    assert res.seed_vertex == 1  # lowest-index minimum-degree vertex is a leaf
    assert len(res.augmentations) == 1
    aug = res.augmentations[0]
    assert aug.u == 0 and aug.a_u == 2 and aug.colored_neighbors == (2, 3)
    assert res.forcing_set == frozenset({1, 2, 3})


def test_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        greedy_k_forcing_set(g, 1)


def test_single_vertex():
    g = build_graph(1, [])
    res = greedy_k_forcing_set(g, 1)
    assert res.case_taken == PROP1
    assert res.forcing_set == frozenset({0})
    assert res.trace.rounds == 0


def _replay_augmentations(g, k, res):
    """Re-run the augmentation schedule, checking the per-stall invariants."""
    seed = (
        set(res.seed_vertex)
        if isinstance(res.seed_vertex, tuple)
        else {res.seed_vertex}
    )
    s = degrees(g)
    if res.case_taken == THM_III:
        v = res.seed_vertex
        expected_seed = {v} | set(sorted(g.adjacency[v])[: max(0, s.delta_min - k)])
        assert len(expected_seed) == max(1, s.delta_min - k + 1)
        seed = expected_seed
    colored = set(closure(g, seed, k).final.colored)
    team = set(seed)
    for aug in res.augmentations:
        assert aug.u in colored
        assert aug.u != res.seed_vertex
        assert any(w in colored for w in g.adjacency[aug.u])
        assert aug.a_u == len(aug.colored_neighbors)
        assert aug.a_u <= g.degree(aug.u) - k - 1
        unc = sum(1 for w in g.adjacency[aug.u] if w not in colored)
        assert unc - k == aug.a_u
        team |= set(aug.colored_neighbors)
        colored = set(closure(g, colored | set(aug.colored_neighbors), k).final.colored)
    assert colored == set(range(g.n))
    assert team == set(res.forcing_set)


@given(connected_graphs(max_n=10), ks)
@settings(max_examples=150)
def test_soundness_and_bounds(g, k):
    res = greedy_k_forcing_set(g, k)
    assert is_k_forcing_set(g, res.forcing_set, k)
    assert res.trace.final.colored == frozenset(range(g.n))
    if res.case_taken in (PROP1, THM_I):
        assert len(res.forcing_set) == 1
    elif res.case_taken == THM_II:
        assert len(res.forcing_set) == 2
    else:
        assert len(res.forcing_set) <= math.floor(thm2iii_value(g, k))
        _replay_augmentations(g, k, res)


@given(connected_graphs(max_n=10), ks)
@settings(max_examples=60)
def test_case_dispatch_matches_degrees(g, k):
    s = degrees(g)
    res = greedy_k_forcing_set(g, k)
    if s.delta_max <= k:
        assert res.case_taken == PROP1
    elif s.delta_max == k + 1:
        assert res.case_taken == (THM_I if s.delta_min < s.delta_max else THM_II)
    else:
        assert res.case_taken == THM_III


@given(connected_graphs(max_n=10), ks)
@settings(max_examples=60)
def test_deterministic(g, k):
    a = greedy_k_forcing_set(g, k)
    b = greedy_k_forcing_set(g, k)
    assert a == b


@given(connected_graphs(max_n=10), ks)
@settings(max_examples=80)
def test_max_degree_strategy_also_sound(g, k):
    res = greedy_k_forcing_set(g, k, strategy="max_degree")
    assert is_k_forcing_set(g, res.forcing_set, k)
    if res.case_taken == THM_III:
        assert len(res.forcing_set) <= math.floor(thm2iii_value(g, k))


def test_per_component_two_triangles():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    results = greedy_per_component(g, 1)
    assert [r.case_taken for r in results] == [THM_II, THM_II]
    assert sum(len(r.forcing_set) for r in results) == 4
    union = frozenset().union(*(r.forcing_set for r in results))
    assert is_k_forcing_set(g, union, 1)


def test_per_component_p3_plus_isolated():
    g = build_graph(4, [(0, 1), (1, 2)])
    results = greedy_per_component(g, 1)
    assert sorted(len(r.forcing_set) for r in results) == [1, 1]
    assert results[1].forcing_set == frozenset({3})


def test_per_component_connected_matches_direct():
    g = generate(FamilySpec("petersen"))
    direct = greedy_k_forcing_set(g, 1)
    per = greedy_per_component(g, 1)
    assert per == [direct]


def test_per_component_scans_a_connected_graph_once(monkeypatch):
    import kforcing.bounds as bounds_module
    import kforcing.graph as graph_module
    import kforcing.greedy as greedy_module

    calls = {"degrees": 0, "connected_components": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    g = generate(FamilySpec("random_regular", (1000, 4), seed=7))
    for module in (greedy_module, bounds_module, graph_module):
        counted(module, "degrees")
    counted(greedy_module, "connected_components")
    counted(graph_module, "connected_components")
    (res,) = greedy_per_component(g, 1)
    assert res.case_taken == THM_III
    assert calls == {"degrees": 1, "connected_components": 1}


def test_per_component_connected_skips_subgraph_rebuild(monkeypatch):
    def no_rebuild(n, edges):
        raise AssertionError("connected input was rebuilt as a subgraph")

    monkeypatch.setattr("kforcing.greedy.build_graph", no_rebuild)
    g = generate(FamilySpec("petersen"))
    assert greedy_per_component(g, 1) == [greedy_k_forcing_set(g, 1)]


def _assert_matches_naive(g, k, strategy):
    res = greedy_k_forcing_set(g, k, strategy)
    team, case, seed, augmentations = naive_greedy(g, k, strategy)
    assert res.forcing_set == frozenset(team)
    assert res.case_taken == case
    assert res.seed_vertex == seed
    assert [(a.u, a.colored_neighbors, a.a_u) for a in res.augmentations] == augmentations


@given(connected_graphs(max_n=10), ks, st.sampled_from(STRATEGIES))
@settings(max_examples=150)
def test_matches_naive_greedy(g, k, strategy):
    _assert_matches_naive(g, k, strategy)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_naive_greedy_on_sparse_gnp(seed, k, strategy):
    g = generate(FamilySpec("gnp_connected", (200, 0.05), seed))
    _assert_matches_naive(g, k, strategy)


def test_unknown_strategy_rejected():
    with pytest.raises(KForcingError, match="unknown strategy"):
        greedy_k_forcing_set(generate(FamilySpec("petersen")), 1, "fewest_colors")


def test_case_bound_violation_raises_typed_error(monkeypatch):
    monkeypatch.setattr("kforcing.greedy.thm2iii_formula", lambda n, delta, big_delta, k: 0)
    with pytest.raises(KForcingError, match="thm2iii"):
        greedy_k_forcing_set(generate(FamilySpec("complete", (5,))), 1)


def test_case_bound_check_survives_python_O():
    code = (
        "import kforcing.greedy as greedy\n"
        "from kforcing import FamilySpec, KForcingError, generate\n"
        "assert False, 'asserts are live'\n"
        "greedy.thm2iii_formula = lambda n, delta, big_delta, k: 0\n"
        "try:\n"
        "    greedy.greedy_k_forcing_set(generate(FamilySpec('complete', (5,))), 1)\n"
        "except KForcingError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kforcing.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised |T|=4 exceeds floor(thm2iii)=0"), out.stdout
