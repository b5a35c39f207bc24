"""The bound table: one row per closed-form bound, with its hypotheses.

`BOUNDS` is the single list of bounds on the k-forcing number F_k of a graph
with n vertices, minimum degree delta and maximum degree Delta.  Its order is
the order of `all_bounds`, of the JSON report and of the verify CSV columns;
`all_bounds`, the `bound_*` accessors and the reports all read it, so adding a
bound takes one row.  The rows are Theorem 2(i)-(iii) and Corollaries 1-3 of
the source paper, and Theorems 4 and 5 of Amos, Caro, Davila & Pepper (2015).

Every value is an exact `fractions.Fraction`; floors are taken on rationals,
never on floats, so dominance comparisons between bounds are exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisFailedError, InvalidParametersError, NotConnectedError
from .graph import Graph, degrees, is_connected, is_k_connected

NOT_CONNECTED = "graph not connected"


@dataclass(frozen=True)
class BoundValue:
    name: str
    applicable: bool
    hypotheses: str
    value: Fraction | None = None
    floor: int | None = None
    reason: str | None = None
    equality_candidate: bool | None = None


@dataclass(frozen=True)
class BoundsReport:
    n: int
    m: int
    delta_min: int
    delta_max: int
    connected: bool
    k_connected_checked: dict[int, bool]
    k: int
    bounds: tuple[BoundValue, ...]
    exact_f_k: int | None = None
    greedy_size: int | None = None


class GraphFacts:
    """Everything a bound reads off one (graph, k), each computed at most once.

    The connectivity tests run on first use, so an accessor whose bound never
    reaches them does not pay for them.
    """

    def __init__(self, g: Graph, k: int):
        if k < 1:
            raise InvalidParametersError(f"k must be a positive integer, got k={k}")
        s = degrees(g)
        self.graph, self.k, self.n, self.m = g, k, g.n, g.m
        self.delta_min, self.delta_max = s.delta_min, s.delta_max

    @functools.cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @functools.cached_property
    def k_connected(self) -> bool | None:
        """is_k_connected(graph, k), or None when n <= k, where it is undefined."""
        return is_k_connected(self.graph, self.k) if self.n > self.k else None


Check = Callable[[GraphFacts], str | bool]


@dataclass(frozen=True)
class Bound:
    """One table row: `checks` test the hypotheses in order, `value` is the bound.

    Each check returns a failure message, or a false value when it passes.  An
    `exact` row gives F_k itself on its cases rather than an upper bound: it is
    not a report column, and its accessor returns it inapplicable, not raising.
    """

    name: str
    hypotheses: str
    checks: tuple[Check, ...]
    value: Callable[[GraphFacts], Fraction]
    equality_candidate: Callable[[GraphFacts], bool] | None = None
    exact: bool = False

    def reason(self, f: GraphFacts) -> str | None:
        """The first failed check's message, or None when every hypothesis holds."""
        return next((why for why in (check(f) for check in self.checks) if why), None)


def _connected(f: GraphFacts) -> str | bool:
    return not f.connected and NOT_CONNECTED


def _k_is_1(f: GraphFacts) -> str | bool:
    return f.k != 1 and f"k={f.k} != 1"


def _delta_ge_k2(f: GraphFacts) -> str | bool:
    return f.delta_max < f.k + 2 and f"Delta={f.delta_max} < k+2={f.k + 2}"


def _delta_ge(low: int) -> Check:
    return lambda f: f.delta_max < low and f"Delta={f.delta_max} < {low}"


def thm2iii_max_terms(delta: int, big_delta: int, k: int) -> tuple[int, int]:
    """The two terms of Theorem 2(iii)'s max: delta(k+1-Delta)+k and k(delta-Delta+2)."""
    return delta * (k + 1 - big_delta) + k, k * (delta - big_delta + 2)


def thm2iii_formula(n: int, delta: int, big_delta: int, k: int) -> Fraction:
    """Theorem 2(iii)'s bound from n and the degree extremes; assumes Delta >= k+2."""
    return Fraction(
        (big_delta - k - 1) * n + max(thm2iii_max_terms(delta, big_delta, k)), big_delta - 1
    )


def _thm2iii(f: GraphFacts) -> Fraction:
    return thm2iii_formula(f.n, f.delta_min, f.delta_max, f.k)


BOUNDS: tuple[Bound, ...] = (
    # Proposition 1 and Theorem 2(i)-(ii): F_k itself, 1 or 2, when Delta <= k+1.
    Bound(
        "prop1_thm2",
        "connected; Delta <= k+1",
        (
            _connected,
            lambda f: f.delta_max >= f.k + 2 and f"Delta={f.delta_max} >= k+2={f.k + 2}",
        ),
        lambda f: Fraction(2 if f.delta_min == f.delta_max == f.k + 1 else 1),
        exact=True,
    ),
    # Theorem 2(iii).
    Bound("thm2iii", "connected; Delta >= k+2", (_connected, _delta_ge_k2), _thm2iii),
    # Corollary 1.
    Bound(
        "cor1",
        "connected; Delta >= 3; k=1",
        (_k_is_1, _connected, _delta_ge(3)),
        lambda f: Fraction(
            (f.delta_max - 2) * f.n - (f.delta_max - f.delta_min) + 2, f.delta_max - 1
        ),
    ),
    # Corollary 2; equality is expected on graphs regular of degree k+2.
    Bound(
        "cor2",
        "connected; Delta >= k+2",
        (_connected, _delta_ge_k2),
        lambda f: Fraction((f.delta_max - f.k - 1) * f.n + 2 * f.k, f.delta_max - 1),
        equality_candidate=lambda f: f.delta_min == f.delta_max == f.k + 2,
    ),
    # Corollary 3.
    Bound(
        "cor3",
        "connected; Delta >= 2; k=1",
        (_k_is_1, _connected, _delta_ge(2)),
        lambda f: Fraction((f.delta_max - 2) * f.n + 2, f.delta_max - 1),
    ),
    # Amos, Caro, Davila & Pepper, Theorem 4.
    Bound(
        "acdp4",
        "n >= 2; Delta >= k; delta >= 1",
        (
            lambda f: f.n < 2 and f"n={f.n} < 2",
            lambda f: f.delta_max < f.k and f"Delta={f.delta_max} < k={f.k}",
            lambda f: f.delta_min < 1 and "isolated vertex present",
        ),
        lambda f: Fraction(
            (f.delta_max - f.k + 1) * f.n, f.delta_max - f.k + 1 + min(f.delta_min, f.k)
        ),
    ),
    # Amos, Caro, Davila & Pepper, Theorem 5.
    Bound(
        "acdp5",
        "k-connected; n > k; Delta >= 2",
        (
            lambda f: f.n <= f.k and f"n={f.n} <= k={f.k}",
            _delta_ge(2),
            lambda f: not f.k_connected and f"not {f.k}-connected",
        ),
        lambda f: Fraction((f.delta_max - 2) * f.n + 2, f.delta_max + f.k - 2),
    ),
)

_BY_NAME = {b.name: b for b in BOUNDS}


def _evaluate(b: Bound, f: GraphFacts) -> BoundValue:
    reason = b.reason(f)
    if reason is not None:
        return BoundValue(b.name, False, b.hypotheses, reason=reason)
    value = b.value(f)
    equality = b.equality_candidate(f) if b.equality_candidate else None
    return BoundValue(
        b.name, True, b.hypotheses, value, math.floor(value), equality_candidate=equality
    )


def bound_value(name: str, g: Graph, k: int) -> BoundValue:
    """One table row on (g, k), raising where `all_bounds` records it inapplicable.

    NotConnectedError on a disconnected graph, else HypothesisFailedError;
    an `exact` row outside its cases is returned inapplicable instead.
    """
    if name not in _BY_NAME:
        raise InvalidParametersError(f"unknown bound {name!r}")
    b = _BY_NAME[name]
    bv = _evaluate(b, GraphFacts(g, k))
    if bv.applicable:
        return bv
    if bv.reason == NOT_CONNECTED:
        raise NotConnectedError(f"{name}: {bv.reason}")
    if b.exact:
        return bv
    raise HypothesisFailedError(f"{name}: {bv.reason}")


def thm2iii_value(g: Graph, k: int) -> Fraction:
    """The main-case bound as a raw rational; assumes Delta >= k+2."""
    return _thm2iii(GraphFacts(g, k))


# The named accessors, one per row; cor1 and cor3 are stated for k = 1 only.
bound_prop1_thm2_cases = functools.partial(bound_value, "prop1_thm2")
bound_thm2_iii = functools.partial(bound_value, "thm2iii")
bound_cor1 = functools.partial(bound_value, "cor1", k=1)
bound_cor2 = functools.partial(bound_value, "cor2")
bound_cor3 = functools.partial(bound_value, "cor3", k=1)
bound_acdp_thm4 = functools.partial(bound_value, "acdp4")
bound_acdp_thm5 = functools.partial(bound_value, "acdp5")


def all_bounds(
    g: Graph,
    k: int,
    exact_f_k: int | None = None,
    greedy_size: int | None = None,
) -> BoundsReport:
    """Evaluate every bound, recording inapplicability inline instead of raising."""
    f = GraphFacts(g, k)
    return BoundsReport(
        n=f.n,
        m=f.m,
        delta_min=f.delta_min,
        delta_max=f.delta_max,
        connected=f.connected,
        k_connected_checked={} if f.k_connected is None else {k: f.k_connected},
        k=k,
        bounds=tuple(_evaluate(b, f) for b in BOUNDS),
        exact_f_k=exact_f_k,
        greedy_size=greedy_size,
    )


def report_to_dict(report: BoundsReport) -> dict:
    """JSON-ready form: {graph: {...}, k, bounds: [...], exact?, greedy?}."""
    out = {
        "graph": {
            "n": report.n,
            "m": report.m,
            "delta": report.delta_min,
            "Delta": report.delta_max,
            "connected": report.connected,
            "k_connected": {str(level): hit for level, hit in report.k_connected_checked.items()},
        },
        "k": report.k,
        "bounds": [],
    }
    for bv in report.bounds:
        entry: dict = {"name": bv.name, "applicable": bv.applicable}
        if bv.applicable:
            entry["num"] = bv.value.numerator
            entry["den"] = bv.value.denominator
            entry["floor"] = bv.floor
        else:
            entry["reason"] = bv.reason
        if bv.equality_candidate is not None:
            entry["equality_candidate"] = bv.equality_candidate
        out["bounds"].append(entry)
    if report.exact_f_k is not None:
        out["exact"] = report.exact_f_k
    if report.greedy_size is not None:
        out["greedy"] = report.greedy_size
    return out
