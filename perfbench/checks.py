"""Answer checks that do not go through the package's own forcing engine.

`force_closure` is a worklist implementation of the k-forcing rule that
keeps a count of uncoloured neighbours per vertex.  It shares no code with
`kforcing.closure` or `closure_mask`, so a set it confirms as forcing is
confirmed independently.  The rule is monotone, so its asynchronous firing
order reaches the same fixed point as the package's round-synchronous one.
"""

from __future__ import annotations

from fractions import Fraction


def force_closure(adjacency, start, k: int) -> set[int]:
    """Fixed point of the k-forcing rule from `start` on an adjacency list."""
    colored = set(start)
    uncolored = [sum(1 for w in nbrs if w not in colored) for nbrs in adjacency]
    work = list(colored)
    while work:
        v = work.pop()
        if not 1 <= uncolored[v] <= k:
            continue
        for w in adjacency[v]:
            if w in colored:
                continue
            colored.add(w)
            work.append(w)
            for x in adjacency[w]:
                uncolored[x] -= 1
                if x in colored and 1 <= uncolored[x] <= k:
                    work.append(x)
    return colored


def forces(g, vertices, k: int) -> bool:
    """True iff `vertices` is a k-forcing set of g, by the worklist oracle."""
    vs = set(vertices)
    if any(not 0 <= v < g.n for v in vs):
        return False
    return len(force_closure(g.adjacency, vs, k)) == g.n


def thm2iii(n: int, delta: int, big_delta: int, k: int) -> Fraction:
    """The paper's Theorem 2(iii) bound, written out from its formula."""
    first = delta * (k + 1 - big_delta) + k
    second = k * (delta - big_delta + 2)
    return Fraction((big_delta - k - 1) * n + max(first, second), big_delta - 1)


def fraction_text(value: Fraction | None) -> str | None:
    """A rational as "num/den" (or "num"), None for an inapplicable bound."""
    if value is None:
        return None
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
