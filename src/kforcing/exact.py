"""Exact computation of the k-forcing number F_k by a wavefront search.

The search is Dijkstra over *closed* colour sets (fixed points of the
forcing rule), held as int bitmasks.  From a closed state S, a step at
vertex v buys v if it is uncoloured and max(0, |N(v) \\ S| - k) of v's
uncoloured neighbours; v then forces the rest of N(v), so the step costs

    [v not in S] + max(0, |N(v) \\ S| - k)

and moves to closure(S | {v} | N(v)).  F_k is the cost of reaching V.  This
is the zero-forcing wavefront of Butler et al. (Sage minimum rank library),
generalised to k as in Brimkov, Fast & Hicks, "Computational approaches for
zero forcing and related problems" (EJOR 2019).  Its work is the number of
closed states cheaper than F_k, not the C(n, s) subsets of each size s below
it.

The witness is the lexicographically first minimum k-forcing set, fixed one
position at a time by constrained searches (see `exact_f_k`).  The reported
`subsets_tested` and the budget keep the meaning they had when the solver
enumerated subsets size by size, and are computed arithmetically: the budget
caps the cost of a pushed state at the largest size that enumeration would
have completed, and a `BudgetExceededError` certifies "no k-forcing set of
size <= cap" with the count of subsets that enumeration would have tested.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

from .errors import BudgetExceededError, EmptyGraphError, KForcingError
from .forcing import closure_mask
from .graph import Graph

DEFAULT_BUDGET = 10**8


def worker_count() -> int:
    """Worker pool size: KFORCING_WORKERS if set, else available parallelism."""
    raw = os.environ.get("KFORCING_WORKERS")
    if raw:
        try:
            count = int(raw)
        except ValueError:
            raise KForcingError(f"KFORCING_WORKERS must be an integer, got {raw!r}")
        if count < 1:
            raise KForcingError(f"KFORCING_WORKERS must be >= 1, got {count}")
        return count
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExactResult:
    """A minimum k-forcing set and what finding it cost.

    `subsets_tested` is rank-based accounting: the number of subsets a
    size-by-size lexicographic enumeration tests up to and including the
    witness, the same for every solver.  `states_expanded` is the work this
    solver did: closed states popped by every wavefront search, the witness
    recovery included.
    """

    f_k: int
    witness: tuple[int, ...]
    subsets_tested: int
    elapsed: float
    states_expanded: int = 0


def _combination_rank(combo: tuple[int, ...], n: int) -> int:
    """0-based position of combo in the lexicographic list of its size class."""
    rank = 0
    prev = -1
    s = len(combo)
    for i, c in enumerate(combo):
        for x in range(prev + 1, c):
            rank += math.comb(n - 1 - x, s - 1 - i)
        prev = c
    return rank


def _wavefront(
    g: Graph, k: int, cap: int, include: int = 0, exclude: int = 0
) -> tuple[int | None, int]:
    """Least cost of a forcing set containing `include` and missing `exclude`.

    Returns (cost, states popped), with cost None when every such set costs
    more than `cap`; no state of cost above `cap` is ever pushed.  The search
    starts at closure(include) with cost |include|, and a step may buy only
    vertices outside `exclude`: v itself when uncoloured, and enough allowed
    uncoloured neighbours to cover the `- k` part.  Every step that changes
    the state costs at least 1, since a coloured v in a closed state has no
    or more than k uncoloured neighbours, so the buckets fill in order.
    """
    n = g.n
    full = (1 << n) - 1
    masks = g.neighbor_masks
    allowed = full & ~exclude
    base = include.bit_count()
    if base > cap:
        return None, 0
    start = closure_mask(g, include, k)
    best = {start: base}
    buckets: list[list[int]] = [[] for _ in range(cap + 1)]
    buckets[base].append(start)
    popped = 0
    for cost in range(base, cap + 1):
        for state in buckets[cost]:
            if best[state] != cost:
                continue
            popped += 1
            if state == full:
                return cost, popped
            open_ = full & ~state
            for v in range(n):
                out = masks[v] & open_
                bit = 1 << v
                if state & bit:
                    if not out:
                        continue
                    step = 0
                elif allowed & bit:
                    step = 1
                else:
                    continue
                extra = out.bit_count() - k
                if extra > 0:
                    if (out & allowed).bit_count() < extra:
                        continue
                    step += extra
                nxt_cost = cost + step
                if nxt_cost > cap:
                    continue
                nxt = closure_mask(g, state | out | bit, k)
                old = best.get(nxt)
                if old is None or nxt_cost < old:
                    best[nxt] = nxt_cost
                    buckets[nxt_cost].append(nxt)
    return None, popped


def exact_f_k(
    g: Graph,
    k: int,
    budget: int | None = None,
    workers: int | None = None,
) -> ExactResult:
    """Minimum k-forcing set: F_k, its lexicographically first witness, and the counts.

    `workers` is accepted and ignored: the search runs in one thread.

    Why the wavefront is exact, for the constrained form (forcing sets that
    contain `include` and avoid `exclude`; the plain form has both empty):
      (>=) Each step buys a set of allowed vertices of the step's cost, and
      closure(S | bought) already contains v and all of N(v), so the bought
      sets of a path to V, with `include`, form an allowed forcing set of
      size equal to the path's cost.
      (<=) Take an allowed forcing set Z of least size and replay its forces
      in chronological order as steps, each from the current closed state S.
      A forcer v is coloured in Z's process, so v not in S implies v in Z;
      its uncoloured neighbours in S are at most k outside Z's process plus
      those in Z \\ S.  So the step costs at most |N[v] & Z \\ S|, charges
      only Z-vertices not yet coloured, and has enough allowed neighbours to
      buy.  Leftover Z-vertices are finished by a step at each, charged to
      N[v] & Z \\ S the same way.  Larger states only make steps cheaper and
      their results larger, so the replay reaches V at cost <= |Z|.

    The witness is fixed one position at a time.  With F known and the
    prefix chosen, the next entry is the least a above the last chosen
    vertex for which a forcing set of size F exists that contains the prefix
    and a and avoids every unchosen vertex below a: the constrained search,
    capped at F, reaches V at cost exactly F.  At the last position the test
    is one closure.

    The budget keeps the subset-enumeration contract: let cap be the largest
    s with sum_{1 <= t <= s} C(n, t) <= budget.  If no forcing set has size
    <= cap, BudgetExceededError certifies it with that subset count;
    otherwise subsets_tested = sum_{t < F} C(n, t) + rank(witness) + 1.
    """
    if g.n < 1:
        raise EmptyGraphError("graph must have at least one vertex")
    if k < 1:
        raise KForcingError(f"k must be a positive integer, got {k}")
    if budget is None:
        budget = DEFAULT_BUDGET
    n = g.n
    start = time.perf_counter()
    cap = tested = 0
    while cap < n and tested + math.comb(n, cap + 1) <= budget:
        cap += 1
        tested += math.comb(n, cap)
    f_k, expanded = _wavefront(g, k, cap)
    if f_k is None:
        raise BudgetExceededError(
            f"budget {budget} reached before completing size {cap + 1}; "
            f"no k-forcing set of size <= {cap}",
            no_set_of_size_le=cap,
            subsets_tested=tested,
        )
    full = (1 << n) - 1
    chosen = 0
    witness: list[int] = []
    for position in range(1, f_k + 1):
        a = witness[-1] + 1 if witness else 0
        while True:
            include = chosen | 1 << a
            if position == f_k:
                found = closure_mask(g, include, k) == full
            else:
                cost, popped = _wavefront(g, k, f_k, include, ((1 << a) - 1) & ~chosen)
                expanded += popped
                found = cost is not None
            if found:
                break
            a += 1
        witness.append(a)
        chosen = include
    hit = tuple(witness)
    below = sum(math.comb(n, t) for t in range(1, f_k))
    return ExactResult(
        f_k=f_k,
        witness=hit,
        subsets_tested=below + _combination_rank(hit, n) + 1,
        elapsed=time.perf_counter() - start,
        states_expanded=expanded,
    )


def exact_all_minimum_sets(
    g: Graph,
    k: int,
    budget: int | None = None,
    workers: int | None = None,
) -> list[tuple[int, ...]]:
    """Every minimum k-forcing set, in lexicographic order.

    `exact_f_k` returns F only when the subsets of sizes 1 .. F fit in the
    budget, so the enumeration of size F below stays within it too.
    """
    size = exact_f_k(g, k, budget=budget, workers=workers).f_k
    full = (1 << g.n) - 1
    out = []
    for combo in itertools.combinations(range(g.n), size):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if closure_mask(g, mask, k) == full:
            out.append(combo)
    return out
