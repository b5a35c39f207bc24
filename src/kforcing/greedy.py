"""Constructive k-forcing sets via case dispatch and stall augmentation.

Four cases keyed on the degree extremes:

  PROP1    Delta <= k          single seed vertex
  THM_I    delta < Delta = k+1 single minimum-degree seed
  THM_II   delta = Delta = k+1 adjacent seed pair
  THM_III  Delta >= k+2        seed around a minimum-degree vertex, then
                               augment at stalls until the process completes

All ties break to the lowest vertex index so a run is fully deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .bounds import thm2iii_formula
from .errors import EmptyGraphError, KForcingError, NotAFixedPointError, NotConnectedError
from .forcing import ColorState, ForcingEvent, ForcingTrace, _Engine, closure
from .graph import Graph, build_graph, connected_components, degrees

PROP1 = "PROP1"
THM_I = "THM_I"
THM_II = "THM_II"
THM_III = "THM_III"

STRATEGIES = ("min_augmentation", "max_degree")


@dataclass(frozen=True)
class Augmentation:
    """One stall repair: u's uncolored excess was paid for by coloring a_u neighbors."""

    u: int
    colored_neighbors: tuple[int, ...]
    a_u: int


@dataclass(frozen=True)
class GreedyResult:
    forcing_set: frozenset[int]
    case_taken: str
    seed_vertex: int | tuple[int, int]
    augmentations: tuple[Augmentation, ...]
    trace: ForcingTrace


def _min_degree_vertex(g: Graph) -> int:
    best = 0
    best_deg = g.degree(0)
    for v in range(1, g.n):
        d = g.degree(v)
        if d < best_deg:
            best, best_deg = v, d
    return best


def greedy_k_forcing_set(g: Graph, k: int, strategy: str = "min_augmentation") -> GreedyResult:
    """Build a k-forcing set for a connected graph, sized per the case bound."""
    if g.n < 1:
        raise EmptyGraphError("graph must have at least one vertex")
    if len(connected_components(g)) != 1:
        raise NotConnectedError("greedy_k_forcing_set requires a connected graph")
    return _greedy_connected(g, k, strategy)


def _greedy_connected(g: Graph, k: int, strategy: str) -> GreedyResult:
    """`greedy_k_forcing_set` on a graph already known to be connected."""
    if k < 1:
        raise KForcingError(f"k must be a positive integer, got {k}")
    if strategy not in STRATEGIES:
        raise KForcingError(f"unknown strategy {strategy!r}")
    summary = degrees(g)
    delta, big_delta = summary.delta_min, summary.delta_max

    if big_delta <= k:
        v = _min_degree_vertex(g)
        team = frozenset([v])
        return GreedyResult(team, PROP1, v, (), closure(g, team, k))

    if big_delta == k + 1:
        if delta < big_delta:
            v = _min_degree_vertex(g)
            team = frozenset([v])
            return GreedyResult(team, THM_I, v, (), closure(g, team, k))
        u = 0
        w = min(g.adjacency[u])
        team = frozenset([u, w])
        return GreedyResult(team, THM_II, (u, w), (), closure(g, team, k))

    # Delta >= k+2: seed a minimum-degree vertex plus max{0, delta-k} of its
    # neighbors, then repeatedly repair stalls until everything is colored.
    # One live engine state carries the process across every augmentation.
    # The stalled frontier (colored vertices with uncolored neighbors) sits in
    # a heap ordered by the strategy's key, fed with every vertex the engine
    # reports touched.  Counts only fall, so a vertex's newest entry is also
    # its smallest and surfaces first; older ones surface only after it left
    # the frontier, and entries of vertices off the frontier are dropped.
    v = _min_degree_vertex(g)
    seed_neighbors = sorted(g.adjacency[v])[: max(0, delta - k)]
    team = set([v] + seed_neighbors)
    engine = _Engine(g, k)
    colored, unc = engine.colored, engine.unc
    # min_augmentation orders by a_u = unc - k, which is the order of unc.
    key = unc.__getitem__ if strategy == "min_augmentation" else (lambda u: -g.degree(u))
    frontier: list[tuple[int, int]] = []
    touched: list[int] = []
    engine.color(team)
    engine.run(touched=touched)
    augmentations: list[Augmentation] = []
    while engine.n_colored < g.n:
        for u in touched:
            if unc[u]:
                heapq.heappush(frontier, (key(u), u))
        touched.clear()
        while frontier and not unc[frontier[0][1]]:
            heapq.heappop(frontier)
        if not frontier:
            raise KForcingError("stalled with no colored vertex on the frontier")
        u = frontier[0][1]
        a_u = unc[u] - k
        if a_u < 1:
            raise NotAFixedPointError(
                f"stalled vertex {u} can still force ({unc[u]} uncolored neighbors, k={k})"
            )
        if u == v:
            raise KForcingError(f"stall at the seed vertex {v}")
        if not any(colored[w] for w in g.adjacency[u]):
            raise KForcingError(f"stalled vertex {u} has no colored neighbor")
        if a_u > g.degree(u) - k - 1:
            raise KForcingError(
                f"augmentation a_u={a_u} at {u} exceeds deg(u)-k-1={g.degree(u) - k - 1}"
            )
        extra = sorted(w for w in g.adjacency[u] if not colored[w])[:a_u]
        augmentations.append(Augmentation(u, tuple(extra), a_u))
        team.update(extra)
        engine.color(extra)
        engine.run(touched=touched)

    bound = thm2iii_formula(g.n, delta, big_delta, k)
    if len(team) > math.floor(bound):
        raise KForcingError(f"|T|={len(team)} exceeds floor(thm2iii)={math.floor(bound)} ({bound})")
    team_frozen = frozenset(team)
    return GreedyResult(team_frozen, THM_III, v, tuple(augmentations), closure(g, team_frozen, k))


def _relabel_trace(trace: ForcingTrace, mapping: list[int]) -> ForcingTrace:
    return ForcingTrace(
        initial=ColorState(frozenset(mapping[v] for v in trace.initial.colored)),
        events=tuple(
            ForcingEvent(ev.round, mapping[ev.forcer], tuple(mapping[w] for w in ev.forced))
            for ev in trace.events
        ),
        final=ColorState(frozenset(mapping[v] for v in trace.final.colored)),
        rounds=trace.rounds,
    )


def greedy_per_component(g: Graph, k: int, strategy: str = "min_augmentation") -> list[GreedyResult]:
    """Run the greedy construction on each connected component separately.

    Results carry the original graph's vertex labels; the union of the
    per-component forcing sets forces all of g.
    """
    if g.n < 1:
        raise EmptyGraphError("graph must have at least one vertex")
    components = connected_components(g)
    if len(components) == 1:
        return [_greedy_connected(g, k, strategy)]
    results = []
    for comp in components:
        mapping = comp
        local_index = {orig: i for i, orig in enumerate(comp)}
        local_edges = [
            (local_index[u], local_index[v])
            for u, v in g.edges
            if u in local_index and v in local_index
        ]
        sub = build_graph(len(comp), local_edges)
        res = _greedy_connected(sub, k, strategy)
        if isinstance(res.seed_vertex, tuple):
            seed = (mapping[res.seed_vertex[0]], mapping[res.seed_vertex[1]])
        else:
            seed = mapping[res.seed_vertex]
        results.append(
            GreedyResult(
                forcing_set=frozenset(mapping[v] for v in res.forcing_set),
                case_taken=res.case_taken,
                seed_vertex=seed,
                augmentations=tuple(
                    Augmentation(
                        mapping[a.u],
                        tuple(mapping[w] for w in a.colored_neighbors),
                        a.a_u,
                    )
                    for a in res.augmentations
                ),
                trace=_relabel_trace(res.trace, mapping),
            )
        )
    return results
