"""Closed-form bound evaluators with applicability checks.

Every value is an exact `fractions.Fraction`; floors are taken on rationals,
never on floats, so dominance comparisons between bounds are exact.

Bound inventory (k-forcing number F_k of a graph with n vertices, minimum
degree delta, maximum degree Delta):

  prop1_thm2  F_k = 1 if Delta <= k or delta < Delta = k+1; F_k = 2 if
              delta = Delta = k+1 (connected graphs)
  thm2iii     ((Delta-k-1)n + max{delta(k+1-Delta)+k, k(delta-Delta+2)}) / (Delta-1)
              for connected graphs with Delta >= k+2
  cor1        ((Delta-2)n - (Delta-delta) + 2) / (Delta-1), k=1, Delta >= 3
  cor2        ((Delta-k-1)n + 2k) / (Delta-1), Delta >= k+2
  cor3        ((Delta-2)n + 2) / (Delta-1), k=1, Delta >= 2
  acdp4       (Delta-k+1)n / (Delta-k+1+min{delta,k}), n >= 2, Delta >= k, delta >= 1
  acdp5       ((Delta-2)n + 2) / (Delta+k-2) for k-connected graphs, Delta >= 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HypothesisFailedError, NotConnectedError, TooFewVerticesError
from .graph import Graph, degrees, is_connected, is_k_connected


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


def _ok(name: str, hyp: str, value: Fraction, equality_candidate=None) -> BoundValue:
    return BoundValue(
        name=name,
        applicable=True,
        hypotheses=hyp,
        value=value,
        floor=math.floor(value),
        equality_candidate=equality_candidate,
    )


def _na(name: str, hyp: str, reason: str) -> BoundValue:
    return BoundValue(name=name, applicable=False, hypotheses=hyp, reason=reason)


def thm2iii_value(g: Graph, k: int) -> Fraction:
    """The main-case bound as a raw rational; assumes Delta >= k+2."""
    s = degrees(g)
    d, big = s.delta_min, s.delta_max
    num = (big - k - 1) * g.n + max(d * (k + 1 - big) + k, k * (d - big + 2))
    return Fraction(num, big - 1)


def _eval_prop1_thm2(g: Graph, k: int) -> BoundValue:
    hyp = "connected; Delta <= k+1"
    name = "prop1_thm2"
    if not is_connected(g):
        return _na(name, hyp, "graph not connected")
    s = degrees(g)
    if s.delta_max <= k:
        return _ok(name, hyp, Fraction(1))
    if s.delta_max == k + 1:
        if s.delta_min < s.delta_max:
            return _ok(name, hyp, Fraction(1))
        return _ok(name, hyp, Fraction(2))
    return _na(name, hyp, f"Delta={s.delta_max} >= k+2={k + 2}")


def _eval_thm2iii(g: Graph, k: int) -> BoundValue:
    hyp = "connected; Delta >= k+2"
    name = "thm2iii"
    if not is_connected(g):
        return _na(name, hyp, "graph not connected")
    s = degrees(g)
    if s.delta_max < k + 2:
        return _na(name, hyp, f"Delta={s.delta_max} < k+2={k + 2}")
    return _ok(name, hyp, thm2iii_value(g, k))


def _eval_cor1(g: Graph) -> BoundValue:
    hyp = "connected; Delta >= 3; k=1"
    name = "cor1"
    if not is_connected(g):
        return _na(name, hyp, "graph not connected")
    s = degrees(g)
    if s.delta_max < 3:
        return _na(name, hyp, f"Delta={s.delta_max} < 3")
    num = (s.delta_max - 2) * g.n - (s.delta_max - s.delta_min) + 2
    return _ok(name, hyp, Fraction(num, s.delta_max - 1))


def _eval_cor2(g: Graph, k: int) -> BoundValue:
    hyp = "connected; Delta >= k+2"
    name = "cor2"
    if not is_connected(g):
        return _na(name, hyp, "graph not connected")
    s = degrees(g)
    if s.delta_max < k + 2:
        return _na(name, hyp, f"Delta={s.delta_max} < k+2={k + 2}")
    value = Fraction((s.delta_max - k - 1) * g.n + 2 * k, s.delta_max - 1)
    regular_k2 = s.delta_min == s.delta_max == k + 2
    return _ok(name, hyp, value, equality_candidate=regular_k2)


def _eval_cor3(g: Graph) -> BoundValue:
    hyp = "connected; Delta >= 2; k=1"
    name = "cor3"
    if not is_connected(g):
        return _na(name, hyp, "graph not connected")
    s = degrees(g)
    if s.delta_max < 2:
        return _na(name, hyp, f"Delta={s.delta_max} < 2")
    return _ok(name, hyp, Fraction((s.delta_max - 2) * g.n + 2, s.delta_max - 1))


def _eval_acdp4(g: Graph, k: int) -> BoundValue:
    hyp = "n >= 2; Delta >= k; delta >= 1"
    name = "acdp4"
    if g.n < 2:
        return _na(name, hyp, f"n={g.n} < 2")
    s = degrees(g)
    if s.delta_max < k:
        return _na(name, hyp, f"Delta={s.delta_max} < k={k}")
    if s.delta_min < 1:
        return _na(name, hyp, "isolated vertex present")
    num = (s.delta_max - k + 1) * g.n
    den = s.delta_max - k + 1 + min(s.delta_min, k)
    return _ok(name, hyp, Fraction(num, den))


def _eval_acdp5(g: Graph, k: int, k_connected: bool | None = None) -> BoundValue:
    """`k_connected`, when given, is is_k_connected(g, k) already computed."""
    hyp = "k-connected; n > k; Delta >= 2"
    name = "acdp5"
    if g.n <= k:
        return _na(name, hyp, f"n={g.n} <= k={k}")
    s = degrees(g)
    if s.delta_max < 2:
        return _na(name, hyp, f"Delta={s.delta_max} < 2")
    if k_connected is None:
        k_connected = is_k_connected(g, k)
    if not k_connected:
        return _na(name, hyp, f"not {k}-connected")
    return _ok(name, hyp, Fraction((s.delta_max - 2) * g.n + 2, s.delta_max + k - 2))


def _raise_if_inapplicable(bv: BoundValue) -> BoundValue:
    if bv.applicable:
        return bv
    if bv.reason == "graph not connected":
        raise NotConnectedError(f"{bv.name}: {bv.reason}")
    raise HypothesisFailedError(f"{bv.name}: {bv.reason}")


def bound_prop1_thm2_cases(g: Graph, k: int) -> BoundValue:
    """Exact small-case values; inapplicable (not an error) when Delta >= k+2."""
    bv = _eval_prop1_thm2(g, k)
    if not bv.applicable and bv.reason == "graph not connected":
        raise NotConnectedError(bv.reason)
    return bv


def bound_thm2_iii(g: Graph, k: int) -> BoundValue:
    return _raise_if_inapplicable(_eval_thm2iii(g, k))


def bound_cor1(g: Graph) -> BoundValue:
    return _raise_if_inapplicable(_eval_cor1(g))


def bound_cor2(g: Graph, k: int) -> BoundValue:
    return _raise_if_inapplicable(_eval_cor2(g, k))


def bound_cor3(g: Graph) -> BoundValue:
    return _raise_if_inapplicable(_eval_cor3(g))


def bound_acdp_thm4(g: Graph, k: int) -> BoundValue:
    return _raise_if_inapplicable(_eval_acdp4(g, k))


def bound_acdp_thm5(g: Graph, k: int) -> BoundValue:
    try:
        return _raise_if_inapplicable(_eval_acdp5(g, k))
    except TooFewVerticesError as exc:
        raise HypothesisFailedError(str(exc)) from exc


def all_bounds(
    g: Graph,
    k: int,
    exact_f_k: int | None = None,
    greedy_size: int | None = None,
) -> BoundsReport:
    """Evaluate every bound, recording inapplicability inline instead of raising."""
    s = degrees(g)
    connected = is_connected(g)
    k_checked: dict[int, bool] = {}
    if g.n > k:
        k_checked[k] = is_k_connected(g, k)
    bvs = (
        _eval_prop1_thm2(g, k),
        _eval_thm2iii(g, k),
        _eval_cor1(g) if k == 1 else _na("cor1", "connected; Delta >= 3; k=1", f"k={k} != 1"),
        _eval_cor2(g, k),
        _eval_cor3(g) if k == 1 else _na("cor3", "connected; Delta >= 2; k=1", f"k={k} != 1"),
        _eval_acdp4(g, k),
        _eval_acdp5(g, k, k_checked.get(k)),
    )
    return BoundsReport(
        n=g.n,
        m=g.m,
        delta_min=s.delta_min,
        delta_max=s.delta_max,
        connected=connected,
        k_connected_checked=k_checked,
        k=k,
        bounds=bvs,
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
