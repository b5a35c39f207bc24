import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforcing.errors import NotAFixedPointError, VertexOutOfRangeError
from kforcing.forcing import (
    ColorState,
    closure,
    closure_mask,
    format_trace,
    is_k_forcing_set,
    stalled_frontier,
)
from kforcing.generators import FamilySpec, generate
from kforcing.graph import build_graph

from conftest import graphs, ks
from oracles import async_closure, naive_closure, naive_trace, validate_trace


def test_p3_chain_propagation():
    g = build_graph(3, [(0, 1), (1, 2)])
    trace = closure(g, {0}, 1)
    assert trace.final.colored == frozenset({0, 1, 2})
    assert trace.rounds == 2
    assert [(ev.round, ev.forcer, ev.forced) for ev in trace.events] == [
        (1, 0, (1,)),
        (2, 1, (2,)),
    ]


def test_c4_stalls_immediately():
    g = generate(FamilySpec("cycle", (4,)))
    trace = closure(g, {0}, 1)
    assert trace.final.colored == frozenset({0})
    assert trace.events == ()
    assert trace.rounds == 0


def test_k4_single_round_multi_forcer():
    g = generate(FamilySpec("complete", (4,)))
    trace = closure(g, {0, 1, 2}, 1)
    assert trace.final.colored == frozenset(range(4))
    assert trace.rounds == 1
    # vertex 3 is forced by all three colored vertices; every event is kept
    assert [(ev.forcer, ev.forced) for ev in trace.events] == [
        (0, (3,)),
        (1, (3,)),
        (2, (3,)),
    ]


def test_is_k_forcing_set_examples():
    p5 = generate(FamilySpec("path", (5,)))
    assert is_k_forcing_set(p5, {0}, 1)
    c6 = generate(FamilySpec("cycle", (6,)))
    assert not is_k_forcing_set(c6, {0}, 1)
    assert is_k_forcing_set(c6, {0, 1}, 1)


def test_closure_rejects_bad_input():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(VertexOutOfRangeError):
        closure(g, {3}, 1)
    with pytest.raises(VertexOutOfRangeError):
        closure(g, {0}, 0)


def test_empty_initial_set_stays_empty():
    g = build_graph(3, [(0, 1), (1, 2)])
    trace = closure(g, set(), 1)
    assert trace.final.colored == frozenset()
    assert trace.rounds == 0


def test_stalled_frontier_examples():
    c4 = generate(FamilySpec("cycle", (4,)))
    assert stalled_frontier(c4, ColorState(frozenset({0})), 1) == [(0, 2)]
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert stalled_frontier(p3, ColorState(frozenset({0, 1, 2})), 1) == []
    star = generate(FamilySpec("complete_bipartite", (1, 4)))
    assert stalled_frontier(star, ColorState(frozenset({0})), 1) == [(0, 4)]


def test_stalled_frontier_rejects_non_fixed_point():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAFixedPointError):
        stalled_frontier(p3, ColorState(frozenset({0})), 1)


def test_format_trace():
    g = build_graph(3, [(0, 1), (1, 2)])
    text = format_trace(closure(g, {0}, 1))
    assert text == "initial 0\n1 0 -> 1\n2 1 -> 2\nfinal 0 1 2\n"


@st.composite
def graph_set_k(draw, max_n=10):
    g = draw(graphs(max_n=max_n))
    s = draw(st.sets(st.integers(0, g.n - 1)))
    k = draw(ks)
    return g, s, k


@given(graph_set_k())
def test_closure_matches_naive_oracle(case):
    g, s, k = case
    assert closure(g, s, k).final.colored == frozenset(naive_closure(g, s, k))


@given(graph_set_k())
def test_closure_trace_matches_naive_trace(case):
    # validate_trace checks each round's forcer set; this pins event order,
    # forced order and round numbers too.
    g, s, k = case
    trace = closure(g, s, k)
    events, rounds, final = naive_trace(g, s, k)
    assert [(ev.round, ev.forcer, ev.forced) for ev in trace.events] == events
    assert trace.rounds == rounds
    assert trace.final.colored == frozenset(final)
    assert is_k_forcing_set(g, s, k) == (len(final) == g.n)


def test_closure_is_linear_on_a_long_path():
    # One vertex fires per round, so an engine that rescans every colored
    # vertex each round does ~5e7 checks here and makes the suite crawl.
    g = generate(FamilySpec("path", (10000,)))
    trace = closure(g, {0}, 1)
    assert trace.rounds == 9999
    assert len(trace.events) == 9999
    assert trace.final.colored == frozenset(range(10000))
    assert is_k_forcing_set(g, {0}, 1)
    assert not is_k_forcing_set(g, {5000}, 1)


@given(graph_set_k())
def test_closure_mask_matches_closure(case):
    g, s, k = case
    mask = 0
    for v in s:
        mask |= 1 << v
    got = closure_mask(g, mask, k)
    assert {v for v in range(g.n) if got >> v & 1} == set(closure(g, s, k).final.colored)


@given(graph_set_k(), st.integers(0, 5))
def test_order_independence_async_replay(case, order_seed):
    g, s, k = case
    assert async_closure(g, s, k, order_seed) == set(closure(g, s, k).final.colored)


@given(graph_set_k())
def test_trace_replay_valid(case):
    g, s, k = case
    validate_trace(g, closure(g, s, k), k)


@given(graph_set_k(), st.sets(st.integers(0, 20)))
def test_monotone_in_initial_set(case, extra):
    g, s, k = case
    bigger = s | {v for v in extra if v < g.n}
    small = closure(g, s, k).final.colored
    large = closure(g, bigger, k).final.colored
    assert small <= large


@given(graph_set_k())
def test_monotone_in_k(case):
    g, s, k = case
    at_k = closure(g, s, k).final.colored
    at_k1 = closure(g, s, k + 1).final.colored
    assert at_k <= at_k1


@given(graph_set_k())
def test_idempotent(case):
    g, s, k = case
    once = closure(g, s, k).final.colored
    assert closure(g, once, k).final.colored == once


@given(graphs(max_n=10), ks)
@settings(max_examples=50)
def test_full_vertex_set_always_forces(g, k):
    assert is_k_forcing_set(g, set(range(g.n)), k)
