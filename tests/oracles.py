"""Independent reference implementations used to cross-check the package.

Deliberately different code paths from the library: plain Python sets and
lists here, bitmask arithmetic there.  networkx supplies a third opinion for
format and structure checks in the tests that import it.
"""

from __future__ import annotations

import itertools
import math
import random


def naive_closure(g, s, k: int) -> set[int]:
    """Round-synchronous fixed point via sets; no masks, no traces."""
    colored = set(s)
    while True:
        additions: set[int] = set()
        for v in colored:
            unc = [w for w in g.adjacency[v] if w not in colored]
            if 1 <= len(unc) <= k:
                additions.update(unc)
        if not additions:
            return colored
        colored |= additions


def async_closure(g, s, k: int, order_seed: int = 0) -> set[int]:
    """Fire one eligible vertex at a time, chosen pseudo-randomly."""
    rng = random.Random(order_seed)
    colored = set(s)
    while True:
        eligible = [
            v
            for v in sorted(colored)
            if 1 <= sum(1 for w in g.adjacency[v] if w not in colored) <= k
        ]
        if not eligible:
            return colored
        v = rng.choice(eligible)
        colored.update(w for w in g.adjacency[v] if w not in colored)


def validate_trace(g, trace, k: int) -> None:
    """Replay a trace, asserting every structural invariant along the way."""
    colored = set(trace.initial.colored)
    rounds = sorted({ev.round for ev in trace.events})
    assert rounds == list(range(1, trace.rounds + 1)), "round numbering has gaps"
    for rnd in range(1, trace.rounds + 1):
        round_events = [ev for ev in trace.events if ev.round == rnd]
        eligible = {
            v
            for v in colored
            if 1 <= sum(1 for w in g.adjacency[v] if w not in colored) <= k
        }
        assert {ev.forcer for ev in round_events} == eligible, (
            f"round {rnd}: forcers != eligible set"
        )
        new: set[int] = set()
        for ev in round_events:
            assert ev.forcer in colored, f"round {rnd}: uncolored forcer {ev.forcer}"
            unc = {w for w in g.adjacency[ev.forcer] if w not in colored}
            assert 1 <= len(unc) <= k, f"round {rnd}: forcer {ev.forcer} not eligible"
            assert set(ev.forced) == unc, (
                f"round {rnd}: forcer {ev.forcer} must force all uncolored neighbors"
            )
            new |= unc
        assert new, f"round {rnd} forced nothing"
        colored |= new
    assert colored == set(trace.final.colored), "replay does not reproduce final"
    for v in colored:
        unc = sum(1 for w in g.adjacency[v] if w not in colored)
        assert unc == 0 or unc > k, "final state is not a fixed point"


def naive_trace(g, s, k: int):
    """Round-synchronous traced closure via sets: (events, rounds, final).

    Every colored vertex is rescanned each round; events are
    (round, forcer, forced) with forcers ascending and forced sorted.
    """
    colored = set(s)
    events = []
    rounds = 0
    while True:
        fired = []
        for v in sorted(colored):
            unc = sorted(w for w in g.adjacency[v] if w not in colored)
            if 1 <= len(unc) <= k:
                fired.append((rounds + 1, v, tuple(unc)))
        if not fired:
            return events, rounds, colored
        rounds += 1
        events.extend(fired)
        for _, _, forced in fired:
            colored.update(forced)


def naive_greedy(g, k: int, strategy: str = "min_augmentation"):
    """The greedy construction recomputed from scratch at every stall.

    Returns (forcing_set, case_taken, seed_vertex, augmentations) with
    augmentations as (u, colored_neighbors, a_u) triples.  After each
    augmentation the closure is rerun from the whole colored set and the
    frontier is rescanned over every vertex.
    """
    n = len(g.adjacency)
    deg = [len(nbrs) for nbrs in g.adjacency]
    delta, big_delta = min(deg), max(deg)
    v = min(range(n), key=lambda x: (deg[x], x))
    if big_delta <= k:
        return {v}, "PROP1", v, []
    if big_delta == k + 1:
        if delta < big_delta:
            return {v}, "THM_I", v, []
        w = min(g.adjacency[0])
        return {0, w}, "THM_II", (0, w), []
    team = {v} | set(sorted(g.adjacency[v])[: max(0, delta - k)])
    colored = naive_closure(g, team, k)
    augmentations = []
    while len(colored) < n:
        frontier = []
        for u in range(n):
            unc = sum(1 for w in g.adjacency[u] if w not in colored)
            if u in colored and unc > 0:
                frontier.append((u, unc))
        if strategy == "min_augmentation":
            u, unc = min(frontier, key=lambda item: (item[1], item[0]))
        else:
            u, unc = min(frontier, key=lambda item: (-deg[item[0]], item[0]))
        extra = tuple(sorted(w for w in g.adjacency[u] if w not in colored)[: unc - k])
        augmentations.append((u, extra, unc - k))
        team |= set(extra)
        colored = naive_closure(g, colored | set(extra), k)
    return team, "THM_III", v, augmentations


def brute_exact(g, k: int, budget: int):
    """Exhaustive F_k: every subset, smallest sizes first, lexicographic within a size.

    Returns (f_k, witness, subsets_tested) or raises the BudgetExceededError
    the package documents.  The budget is granted size by size: size s is
    entered only if finishing it would keep the subset count within budget,
    so an error certifies that no set of the last completed size forces.
    """
    from kforcing.errors import BudgetExceededError

    tested = 0
    for size in range(1, g.n + 1):
        layer = math.comb(g.n, size)
        if tested + layer > budget:
            raise BudgetExceededError(
                f"budget {budget} reached before completing size {size}; "
                f"no k-forcing set of size <= {size - 1}",
                no_set_of_size_le=size - 1,
                subsets_tested=tested,
            )
        for rank, combo in enumerate(itertools.combinations(range(g.n), size)):
            if len(naive_closure(g, combo, k)) == g.n:
                return size, combo, tested + rank + 1
        tested += layer
    raise AssertionError("the full vertex set always forces itself")


def brute_constrained_min(g, k: int, include, exclude):
    """Least size of a forcing set containing `include` and avoiding `exclude`, or None."""
    free = [v for v in range(g.n) if v not in include and v not in exclude]
    for extra in range(len(free) + 1):
        for combo in itertools.combinations(free, extra):
            if len(naive_closure(g, set(include) | set(combo), k)) == g.n:
                return len(include) + extra
    return None
